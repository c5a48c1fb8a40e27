"""Model specifications, exponent functions, and spectral samplers."""

import dataclasses
import json
import math
from pathlib import Path

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
from concur.models import _KINDS, CORRELATIONS, MODELS, VARIOGRAMS, extremal_t_weight

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

    def test_brown_resnick_variogram_once_per_site_set(self):
        # one k x k call serves the sampler, the tilted sampler and the factor
        calls = []
        frac = FractionalVariogram(scale=0.5, exponent=1.5)

        def counting(h):
            calls.append(np.shape(h))
            return frac(h)

        model, sites = BrownResnick(counting), SiteSet([[0.0, 0.0], [1.0, 0.5], [0.3, 2.0]])
        for make in (model.sampler, model.tilted_sampler):
            calls.clear()
            make(sites)
            assert calls == [(3, 3, 2)]

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
            # unit Poisson points and no bound at the earlier sites: every
            # proposal is kept, and y holds the tilted profiles themselves
            keep, y = draw(g, j, np.ones(n), np.full((n, j), np.inf))
            assert keep.all()
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

    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.5]), min_size=d, max_size=d),
        min_size=1, max_size=9)))
    def test_coincident_sites_named_as_the_pairwise_loop_names_them(self, rows):
        # the reference: the first site with a later twin, then its first twin;
        # -0.0 equals 0.0
        a = np.array(rows)
        want = next((f"sites {i} and {j} coincide" for i in range(len(a))
                     for j in range(i + 1, len(a)) if np.array_equal(a[i], a[j])), None)
        try:
            SiteSet(a)
            got = None
        except DomainError as exc:
            got = str(exc)
        assert got == want

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

    @pytest.mark.parametrize("make", [
        lambda x: Logistic(x),
        lambda x: MaxLinear(np.array([[x]])),
        lambda x: ExtremalT(ExponentialCorrelation(1.0), nu=x),
        lambda x: Smith(CovarianceMatrix(np.array([[x]]))),
        lambda x: BallIndicator(radius=x),
        lambda x: FractionalVariogram(scale=x, exponent=1.0),
        lambda x: QuadraticVariogram(np.array([[x]])),
        lambda x: ExponentialCorrelation(scale=x),
        lambda x: PoweredExponentialCorrelation(scale=x, power=1.0),
    ], ids=["logistic", "max_linear", "extremal_t", "smith", "ball_indicator", "fractional",
            "quadratic", "exponential", "powered_exponential"])
    def test_parameters_are_finite(self, make):
        # nu = inf used to end in ZeroDivisionError, radius = inf in an
        # estimate outside [0, 1], a variogram scale of inf in a quadrature
        # that did not converge
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                make(bad)

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

    def test_readme_specs_round_trip(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("Model specs are JSON objects", 1)[1]
        lines = block.split("```json\n", 1)[1].split("```", 1)[0].splitlines()
        assert sorted(json.loads(line)["model"] for line in lines) == sorted(MODELS)
        for line in lines:
            assert json.dumps(model_to_dict(model_from_dict(json.loads(line)))) == line

    def test_defaults_and_whole_numbers(self):
        corr = {"family": "exponential", "scale": 2.0}
        assert model_from_dict({"model": "extremal_t", "correlation": corr}).nu == 1.0
        assert model_from_dict({"model": "ball_indicator", "radius": 1}).dim == 1
        dim = model_from_dict({"model": "ball_indicator", "radius": 1, "dim": 2.0}).dim
        assert dim == 2 and type(dim) is int
        # NumPy scalars are written as JSON numbers
        ball = BallIndicator(radius=np.float32(1.5), dim=np.int64(2))
        written = json.loads(json.dumps(model_to_dict(ball)))
        assert written == {"model": "ball_indicator", "radius": 1.5, "dim": 2}

    @pytest.mark.parametrize("spec, message", [
        ({"model": "logistic", "alpha": True}, "logistic alpha must be a finite number, got true"),
        ({"model": "logistic", "alpha": 0.5, "beta": 1}, "logistic has no field 'beta'"),
        ({"model": "smith", "sigma": [[1.0, "0"], [0.0, 1.0]]},
         'smith sigma entry must be a finite number, got "0"'),
        ({"model": "max_linear", "phi": [0.5, 0.5]}, "max_linear phi must be a list of"),
        ({"model": "extremal_t", "correlation": {"family": "exponential"}},
         "extremal_t correlation needs 'scale'"),
        ({"model": "extremal_t", "correlation": {"scale": 1.0}},
         "extremal_t correlation must be an object with a 'family' field"),
        ({"model": "extremal_t", "correlation": {"family": "exponential", "scale": 1.0,
                                                 "power": 1.0}},
         "extremal_t correlation has no field 'power'"),
        ({"model": "logistic", "alpha": 10 ** 400}, "logistic alpha must be a finite number"),
        ([{"model": "logistic", "alpha": 0.5}], "must be an object with a 'model' field"),
    ])
    def test_malformed_spec_names_model_and_field(self, spec, message):
        with pytest.raises(DomainError, match=message):
            model_from_dict(spec)

    @pytest.mark.parametrize("model", [
        BrownResnick(lambda h: h),
        BrownResnick(ExponentialCorrelation(1.0)),
        ExtremalT(lambda d: np.exp(-d)),
    ], ids=["lambda_variogram", "correlation_as_variogram", "lambda_correlation"])
    def test_encoder_refuses_what_the_decoder_refuses(self, model):
        with pytest.raises(DomainError, match="only .* are serializable"):
            model_to_dict(model)

    def test_every_field_has_a_json_kind(self):
        for cls in (*MODELS.values(), *VARIOGRAMS.values(), *CORRELATIONS.values()):
            for field in dataclasses.fields(cls):
                assert field.type in _KINDS, (cls.__name__, field.name)


def _needs_2d(model):
    if isinstance(model, Smith):
        return model.sigma.dim == 2
    if isinstance(model, BallIndicator):
        return model.dim == 2
    if isinstance(model, BrownResnick):
        return isinstance(model.variogram, QuadraticVariogram) and model.variogram.matrix.shape[0] == 2
    return False
