"""Model specifications, exponent functions, and spectral samplers."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from concur import (
    BallIndicator,
    BrownResnick,
    CapabilityError,
    CovarianceMatrix,
    DomainError,
    ExponentialCorrelation,
    ExtremalProcess,
    ExtremalT,
    FractionalVariogram,
    Logistic,
    MaxLinear,
    PoweredExponentialCorrelation,
    QuadraticVariogram,
    SeededRng,
    SiteSet,
    Smith,
    exponent_V,
    extremal_coefficient,
    model_from_dict,
    model_to_dict,
    schlather,
    spectral_sample,
)
from concur.models import extremal_t_weight

PAIR = [[0.0], [1.0]]


def _bivariate_models():
    return [
        (Logistic(0.35), PAIR),
        (MaxLinear(np.array([[0.7, 0.2], [0.3, 0.8]])), [0, 1]),
        (BrownResnick(FractionalVariogram(scale=0.8, exponent=1.0)), PAIR),
        (ExtremalT(ExponentialCorrelation(scale=4.0), nu=3.0), PAIR),
        (Smith(CovarianceMatrix(np.array([[1.5]]))), PAIR),
        (ExtremalProcess(), [0.3, 0.8]),
        (BallIndicator(radius=1.2, dim=1), PAIR),
    ]


class TestExponentFunction:
    def test_logistic_independence(self):
        assert exponent_V(Logistic(1.0), PAIR, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-14)

    def test_logistic_half(self):
        got = exponent_V(Logistic(0.5), PAIR, [1.0, 1.0])
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-13)

    def test_brown_resnick_limits(self):
        near_dep = BrownResnick(FractionalVariogram(scale=1e-12, exponent=1.0))
        assert exponent_V(near_dep, PAIR, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-5)
        near_ind = BrownResnick(FractionalVariogram(scale=1e6, exponent=1.0))
        assert exponent_V(near_ind, PAIR, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-8)
        degenerate = BrownResnick(QuadraticVariogram(np.zeros((1, 1))))
        assert exponent_V(degenerate, PAIR, [0.5, 2.0]) == 2.0  # max(1/z)

    def test_extremal_process_value(self):
        # exact: sum of increment widths over suffix minima of s*z
        v = exponent_V(ExtremalProcess(), [0.2, 0.5], [1.0, 1.0])
        assert v == pytest.approx(0.2 / 0.2 + 0.3 / 0.5, rel=1e-14)

    def test_ball_1d_sweep_matches_interval_overlap(self):
        # independent oracle: exact 1-d interval overlap fraction (2r - h)/(2r)
        model = BallIndicator(radius=1.0, dim=1)
        g = np.random.default_rng(5)
        for _ in range(25):
            z = g.uniform(0.2, 3.0, size=2)
            h = g.uniform(0.05, 2.5)
            v1 = exponent_V(model, [[0.0], [h]], z)
            q = max(0.0, (2.0 - h) / 2.0)
            v2 = (1 - q) * (1 / z).sum() + q * (1 / z).max()
            assert v1 == pytest.approx(v2, rel=1e-10)

    def test_homogeneity_invariant(self):
        g = np.random.default_rng(99)
        for model, sites in _bivariate_models():
            for _ in range(100):
                z = g.uniform(0.1, 5.0, size=2)
                c = g.uniform(0.05, 20.0)
                v = exponent_V(model, sites, z)
                vc = exponent_V(model, sites, c * z)
                assert abs(vc - v / c) <= 1e-10 * abs(v)

    def test_pairwise_extremal_coefficient_range(self):
        g = np.random.default_rng(123)
        for model, sites in _bivariate_models():
            theta = extremal_coefficient(model, sites)
            assert 1.0 - 1e-9 <= theta <= 2.0 + 1e-9
        for _ in range(30):
            alpha = g.uniform(0.05, 1.0)
            theta = extremal_coefficient(Logistic(alpha), PAIR)
            assert theta == pytest.approx(2.0 ** alpha, rel=1e-12)

    def test_smith_brown_resnick_reduction(self):
        g = np.random.default_rng(7)
        for _ in range(10):
            a = g.uniform(0.3, 2.0, size=(2, 2))
            sig = a @ a.T + 0.1 * np.eye(2)
            smith = Smith(CovarianceMatrix(sig))
            inv = np.linalg.inv(sig)
            br = BrownResnick(QuadraticVariogram(0.5 * (inv + inv.T)))
            sites = g.uniform(-2, 2, size=(2, 2))
            z = g.uniform(0.3, 3.0, size=2)
            v_smith = exponent_V(smith, sites, z)
            v_br = exponent_V(br, sites, z)
            assert abs(v_smith - v_br) <= 1e-10 * max(1.0, abs(v_br))

    def test_capability_errors(self):
        three = [[0.0], [1.0], [2.0]]
        with pytest.raises(CapabilityError):
            exponent_V(BrownResnick(FractionalVariogram(1.0, 1.0)), three, [1, 1, 1])
        with pytest.raises(CapabilityError):
            exponent_V(ExtremalT(ExponentialCorrelation(1.0), 2.0), three, [1, 1, 1])
        with pytest.raises(CapabilityError):
            exponent_V(BallIndicator(radius=1.0, dim=2), np.zeros((3, 2)) + np.arange(3)[:, None], np.ones(3))

    def test_z_domain(self):
        with pytest.raises(DomainError):
            exponent_V(Logistic(0.5), PAIR, [1.0, 0.0])
        with pytest.raises(DomainError):
            exponent_V(Logistic(0.5), PAIR, [1.0, -2.0])

    @given(st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=0.1, max_value=4.0))
    def test_logistic_V_matches_cdf_formula(self, alpha, z1, z2):
        v = exponent_V(Logistic(alpha), PAIR, [z1, z2])
        direct = (z1 ** (-1 / alpha) + z2 ** (-1 / alpha)) ** alpha
        assert v == pytest.approx(direct, rel=1e-9)


class TestSpectralSamplers:
    @pytest.mark.parametrize("model,sites", [
        (Logistic(0.5), PAIR),
        (MaxLinear(np.array([[0.6, 0.1], [0.4, 0.9]])), [0, 1]),
        (BrownResnick(FractionalVariogram(scale=0.5, exponent=1.0)), PAIR),
        (ExtremalT(ExponentialCorrelation(scale=10.0), nu=5.0), PAIR),
        (Smith(CovarianceMatrix(np.array([[1.0]]))), PAIR),
        (ExtremalProcess(), [0.25, 0.75]),
        (BallIndicator(radius=1.0, dim=1), PAIR),
        (BallIndicator(radius=1.0, dim=2), [[0.0, 0.0], [0.7, 0.7]]),
    ])
    def test_mean_one_margins(self, model, sites):
        y = spectral_sample(model, sites, SeededRng(2024, 5), size=10**5)
        for j in range(y.shape[1]):
            se = y[:, j].std(ddof=1) / math.sqrt(y.shape[0])
            assert abs(y[:, j].mean() - 1.0) < 3.2 * max(se, 1e-4)

    def test_logistic_profile_margin_ks(self, rng):
        alpha = 0.5
        y = spectral_sample(Logistic(alpha), PAIR, rng, size=10**5)[:, 0]
        c = math.gamma(1.0 - alpha)

        def cdf(v):
            return np.exp(-np.power(np.maximum(c * v, 1e-300), -1.0 / alpha))

        p = scipy.stats.kstest(y, cdf).pvalue
        assert p > 0.01

    def test_extremal_t_weight_normalizes(self, rng):
        # nu = 1 (Schlather): c_1 * E[max(0, W)] should be 1
        c1 = extremal_t_weight(1.0)
        w = rng.generator().standard_normal(10**5)
        assert abs(np.mean(c1 * np.maximum(w, 0.0)) - 1.0) < 0.01

    def test_ball_profile_pattern(self, rng):
        model = BallIndicator(radius=2.0, dim=1)
        sites = [[0.0], [0.5], [1.0]]
        y = spectral_sample(model, sites, rng, size=20_000)
        # centres are uniform on the window [-2, 3]: weight 5 / 4 over a ball of length 4
        assert np.all((y == 0.0) | np.isclose(y, 1.25, rtol=1e-12, atol=0.0))
        # centers cover a contiguous range: 1-d hit patterns have no gaps
        hit = y > 0
        gap = hit[:, 0] & ~hit[:, 1] & hit[:, 2]
        assert not gap.any()
        # every site is hit with the same marginal probability (same weight)
        rates = hit.mean(axis=0)
        assert np.ptp(rates) < 0.02

    def test_brown_resnick_anchoring(self, rng):
        model = BrownResnick(FractionalVariogram(scale=1.0, exponent=1.0))
        y = spectral_sample(model, [[0.0], [3.0]], rng, size=500)
        assert np.all(y[:, 0] == 1.0)

    @pytest.mark.parametrize("model,sites", [
        (BrownResnick(FractionalVariogram(scale=0.8, exponent=1.0)), [[0.0], [1.0], [2.5]]),
        (BrownResnick(FractionalVariogram(scale=1e8, exponent=1.0)), [[0.0], [1.0], [2.5]]),
        (BrownResnick(QuadraticVariogram(np.array([[2.0, 0.3], [0.3, 1.0]]))),
         [[0.0, 0.0], [0.7, 0.4], [-0.2, 0.9]]),
        (ExtremalT(ExponentialCorrelation(scale=4.0), nu=3.0), [[0.0], [1.0], [2.5]]),
        (schlather(PoweredExponentialCorrelation(scale=2.0, power=1.5)),
         [[0.0, 0.0], [0.9, 0.4], [-0.3, 1.0]]),
        (Logistic(0.35), [[0.0], [1.0], [2.5]]),
        (Logistic(1.0), [[0.0], [1.0], [2.5]]),
        (Smith(CovarianceMatrix(np.array([[1.5]]))), [[0.0], [1.0], [2.5]]),
        (Smith(CovarianceMatrix(np.array([[1.0, 0.2], [0.2, 2.0]]))),
         [[0.0, 0.0], [0.8, 0.5], [-0.3, 1.0]]),
        (ExtremalProcess(), [0.3, 0.55, 0.8]),
        (BallIndicator(radius=1.2, dim=1), [[0.0], [1.0], [1.8]]),
        (BallIndicator(radius=0.9, dim=2), [[0.0, 0.0], [0.6, 0.5], [-0.2, 0.7]]),
    ])
    def test_tilted_sampler_law(self, model, sites):
        # Y ~ P_j is Y / Y(s_j) under Y(s_j) dP, so
        # E_j[min(1, Y(s_i))] = E[min(Y(s_i), Y(s_j))] = 2 - theta(s_i, s_j)
        s = model.sites_of(sites)
        k = len(s)
        draw = model.tilted_sampler(s)
        g = SeededRng(2024, 6).generator()
        n = 40_000
        for j in range(k):
            y = draw(g, j, n)
            assert y.shape == (n, k) and np.all(y[:, j] == 1.0)
            for i in range(k):
                if i == j:
                    continue
                v = np.minimum(y[:, i], 1.0)
                # pairs in site order (the extremal process needs increasing
                # sites); the floor covers draws where min(Y(s_i), 1) is constant
                a, b = sorted((i, j))
                theta = extremal_coefficient(model, [sites[a], sites[b]])
                se = max(v.std() / math.sqrt(n), 1e-12)
                assert abs(v.mean() - (2.0 - theta)) <= 4.0 * se

    def test_tilted_sampler_for_every_model_but_max_linear(self):
        for model, sites in _bivariate_models():
            has = model.tilted_sampler(model.sites_of(sites)) is not None
            assert has == (not isinstance(model, MaxLinear))

    def test_reproducible(self):
        model = ExtremalT(ExponentialCorrelation(5.0), nu=2.0)
        a = spectral_sample(model, PAIR, SeededRng(3, 1), size=100)
        b = spectral_sample(model, PAIR, SeededRng(3, 1), size=100)
        assert np.array_equal(a, b)


class TestValidation:
    def test_site_set(self):
        with pytest.raises(DomainError):
            SiteSet(np.array([[0.0], [0.0]]))
        with pytest.raises(DomainError):
            SiteSet(np.array([[np.nan]]))
        s = SiteSet(np.array([0.0, 1.0, 2.5]))
        assert s.k == 3 and s.ndim == 1

    def test_max_linear_columns_sum(self):
        with pytest.raises(DomainError):
            MaxLinear(np.array([[0.5, 0.5], [0.6, 0.5]]))
        with pytest.raises(DomainError):
            MaxLinear(np.array([[-0.1, 1.1], [1.1, -0.1]]))

    def test_parameter_ranges(self):
        with pytest.raises(DomainError):
            Logistic(0.0)
        with pytest.raises(DomainError):
            Logistic(1.2)
        with pytest.raises(DomainError):
            ExtremalT(ExponentialCorrelation(1.0), nu=0.5)
        with pytest.raises(DomainError):
            BallIndicator(radius=0.0)
        with pytest.raises(DomainError):
            FractionalVariogram(scale=-1.0, exponent=1.0)
        with pytest.raises(DomainError):
            FractionalVariogram(scale=1.0, exponent=2.5)
        with pytest.raises(DomainError):
            PoweredExponentialCorrelation(scale=1.0, power=3.0)

    def test_extremal_process_sites(self):
        with pytest.raises(DomainError):
            exponent_V(ExtremalProcess(), [0.5, 0.2], [1.0, 1.0])
        with pytest.raises(DomainError):
            exponent_V(ExtremalProcess(), [0.2, 1.5], [1.0, 1.0])

    def test_schlather_is_nu_one(self):
        model = schlather(ExponentialCorrelation(2.0))
        assert model.nu == 1.0


class TestSerialization:
    @pytest.mark.parametrize("model", [
        Logistic(0.4),
        MaxLinear(np.array([[0.25, 0.75], [0.75, 0.25]])),
        BrownResnick(FractionalVariogram(scale=2.0, exponent=1.5)),
        BrownResnick(QuadraticVariogram(np.array([[2.0, 0.3], [0.3, 1.0]]))),
        ExtremalT(ExponentialCorrelation(7.5), nu=5.0),
        ExtremalT(PoweredExponentialCorrelation(2.0, 1.5), nu=1.0),
        Smith(CovarianceMatrix(np.array([[1.0, 0.2], [0.2, 2.0]]))),
        ExtremalProcess(),
        BallIndicator(radius=0.7, dim=2),
    ])
    def test_roundtrip(self, model):
        back = model_from_dict(model_to_dict(model))
        assert type(back) is type(model)
        z = np.array([0.7, 1.3])
        sites = [0, 1] if isinstance(model, MaxLinear) else (
            [0.2, 0.5] if isinstance(model, ExtremalProcess) else
            (np.array([[0.0, 0.0], [1.0, 0.5]]) if _needs_2d(model) else PAIR))
        assert exponent_V(back, sites, z) == pytest.approx(
            exponent_V(model, sites, z), rel=1e-14)

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            model_from_dict({"model": "mystery"})


def _needs_2d(model):
    if isinstance(model, Smith):
        return model.sigma.dim == 2
    if isinstance(model, BallIndicator):
        return model.dim == 2
    if isinstance(model, BrownResnick):
        return isinstance(model.variogram, QuadraticVariogram) and model.variogram.matrix.shape[0] == 2
    return False
