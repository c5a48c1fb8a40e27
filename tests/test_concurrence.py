"""Closed forms, quadrature and Monte-Carlo evaluation, bounds, and integrated concurrence."""

import math

import mpmath
import numpy as np
import pytest

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
    SeededRng,
    Smith,
    concurrence_probability,
    ecp_ball_overlap,
    ecp_extremal_process,
    ecp_logistic,
    ecp_max_linear,
    ecp_mc,
    ecp_simulation,
    extremal_coefficient,
    integrated_cp,
    kendall_target_p,
    rectangle_weights,
)
PAIR = [[0.0], [1.0]]


class TestLogisticClosedForm:
    def test_examples(self):
        assert ecp_logistic(0.5, 2) == pytest.approx(0.5, abs=1e-15)
        assert ecp_logistic(1.0, 2) == 0.0
        assert ecp_logistic(1.0, 5) == 0.0
        assert ecp_logistic(0.5, 3) == pytest.approx(0.375, abs=1e-15)

    def test_gamma_identity(self):
        for alpha in (0.2, 0.5, 0.85):
            for k in (2, 3, 6):
                expected = math.gamma(k - alpha) / (math.gamma(k) * math.gamma(1 - alpha))
                assert ecp_logistic(alpha, k) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_alpha_and_k(self):
        alphas = np.linspace(0.05, 1.0, 25)
        vals = [ecp_logistic(a, 3) for a in alphas]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        for alpha in (0.3, 0.7):
            by_k = [ecp_logistic(alpha, k) for k in range(2, 8)]
            assert all(x > y for x, y in zip(by_k, by_k[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            ecp_logistic(0.5, 1)
        with pytest.raises(DomainError):
            ecp_logistic(1.5, 2)


class TestMaxLinearClosedForm:
    def test_identical_profiles(self):
        p, parts = ecp_max_linear(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(parts, [0.5, 0.5])

    def test_independence(self):
        p, parts = ecp_max_linear(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert p == 0.0
        assert np.allclose(parts, 0.0)

    def test_against_simulation(self, rng):
        phi = np.array([[0.75, 0.25], [0.25, 0.75]])
        p, _ = ecp_max_linear(phi)
        est = ecp_simulation(MaxLinear(phi), [0, 1], 40_000, rng)
        assert abs(est.value - p) < 3 * est.stderr

    def test_site_subset(self):
        phi = np.array([[0.2, 0.5, 0.3], [0.8, 0.5, 0.7]])
        p_all, _ = ecp_max_linear(phi)
        p_pair, _ = ecp_max_linear(phi, site_subset=[0, 2])
        assert 0.0 <= p_all <= p_pair <= 1.0


class TestExtremalProcessClosedForm:
    def test_examples(self):
        assert ecp_extremal_process([0.2, 0.5]) == pytest.approx(0.4, abs=1e-15)
        assert ecp_extremal_process([0.1, 0.2, 0.5]) == pytest.approx(0.2, abs=1e-15)

    def test_continuity_toward_equal_sites(self):
        assert ecp_extremal_process([0.3, 0.3 + 1e-9]) == pytest.approx(1.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            ecp_extremal_process([0.5, 0.2])
        with pytest.raises(DomainError):
            ecp_extremal_process([0.3, 0.3])


class TestBallClosedForm:
    def test_limits(self):
        assert ecp_ball_overlap(0.0, 1.0, 3) == pytest.approx(1.0, abs=1e-12)
        assert ecp_ball_overlap(2.0, 1.0, 2) == 0.0
        assert ecp_ball_overlap(5.0, 1.0, 1) == 0.0

    def test_one_dimensional_interval_overlap(self):
        # |A intersection (h+A)| = 2r - h exactly in d = 1
        assert ecp_ball_overlap(0.5, 1.0, 1) == pytest.approx(1.5 / 2.5, rel=1e-12)

    def test_planar_lens_area(self):
        # independent oracle: exact circular-lens area formula
        r = 1.0
        for h in (0.3, 1.0, 1.7):
            lens = 2 * r * r * math.acos(h / (2 * r)) - 0.5 * h * math.sqrt(4 * r * r - h * h)
            q = lens / (math.pi * r * r)
            assert ecp_ball_overlap(h, r, 2) == pytest.approx(q / (2 - q), rel=1e-10)

    def test_disc_overlap_monte_carlo(self, rng):
        # volume oracle: MC estimate of the disc-overlap fraction in d = 2
        g = rng.generator()
        r, h = 1.0, 0.8
        pts = g.uniform(-r, r, size=(200_000, 2))
        inside = (pts ** 2).sum(axis=1) <= r * r
        shifted = ((pts - [h, 0.0]) ** 2).sum(axis=1) <= r * r
        q_mc = (inside & shifted).sum() / inside.sum()
        from concur.models import ball_overlap_fraction
        assert abs(ball_overlap_fraction(h, r, 2) - q_mc) < 0.01


class TestMonteCarlo:
    def test_brown_resnick_complete_dependence(self, rng):
        from concur import QuadraticVariogram
        model = BrownResnick(QuadraticVariogram(np.zeros((1, 1))))
        est = ecp_mc(model, PAIR, 100, rng=rng)
        assert est.value == 1.0 and est.method == "closed_form" and est.stderr == 0.0

    def test_brown_resnick_anchor_value(self, rng):
        model = BrownResnick(FractionalVariogram(scale=1.0 / 1.627, exponent=1.0))
        est = ecp_mc(model, PAIR, 200_000, antithetic=True, rng=rng)
        assert abs(est.value - 0.5) < 0.005
        assert est.method == "mc_antithetic"

    def test_logistic_generic_path(self, rng):
        est = ecp_mc(Logistic(0.3), PAIR, 10**6, rng=rng)
        assert abs(est.value - 0.7) < 0.005
        assert abs(est.value - 0.7) < 4 * est.stderr
        assert est.method == "mc_plain"

    def test_extremal_process_generic_path(self, rng):
        est = ecp_mc(ExtremalProcess(), [0.2, 0.5], 400_000, rng=rng)
        assert abs(est.value - 0.4) < 4 * est.stderr + 1e-4

    def test_ball_generic_path(self, rng):
        est = ecp_mc(BallIndicator(radius=1.0, dim=1), [[0.0], [0.5]], 400_000, rng=rng)
        assert abs(est.value - 0.6) < 4 * est.stderr + 1e-4

    def test_extremal_t_degenerate_short_circuit(self, rng):
        # lag small enough that exp(-h/scale) rounds to exactly 1.0
        model = ExtremalT(ExponentialCorrelation(10.0), nu=5.0)
        est = ecp_mc(model, [[0.0], [1e-16]], 100, rng=rng)
        assert est.value == 1.0 and est.method == "closed_form"

    def test_antithetic_needs_symmetric_driver(self, rng):
        with pytest.raises(CapabilityError):
            ecp_mc(Logistic(0.5), PAIR, 1000, antithetic=True, rng=rng)

    def test_antithetic_variance_reduction(self, rng):
        model = BrownResnick(FractionalVariogram(scale=1.0 / 1.627, exponent=1.0))
        plain, anti = [], []
        for i in range(100):
            plain.append(ecp_mc(model, PAIR, 2000, rng=rng.substream(2 * i)).value)
            anti.append(ecp_mc(model, PAIR, 2000, antithetic=True,
                               rng=rng.substream(2 * i + 1)).value)
        assert np.var(anti) <= np.var(plain)

    def test_smith_matches_reduction(self, rng):
        smith = Smith(CovarianceMatrix(np.array([[2.0]])))
        a = ecp_mc(smith, PAIR, 100_000, antithetic=True, rng=SeededRng(4, 4))
        inv = np.linalg.inv(np.array([[2.0]]))
        from concur import QuadraticVariogram
        br = BrownResnick(QuadraticVariogram(inv))
        b = ecp_mc(br, PAIR, 100_000, antithetic=True, rng=SeededRng(4, 4))
        assert a.value == b.value


_BR_GAMMAS = (1e-4, 1.0 / 1.627, 20.0 / 3.0, 50.0)


def _br(gamma: float) -> BrownResnick:
    return BrownResnick(FractionalVariogram(scale=gamma, exponent=1.0))


class TestQuadrature:
    @pytest.mark.parametrize("model, pair", [
        *((_br(g), PAIR) for g in _BR_GAMMAS[:3]),
        (Smith(CovarianceMatrix(np.array([[0.7]]))), PAIR),
        *((ExtremalT(ExponentialCorrelation(10.0), nu=nu), [[0.0], [h]])
          for nu in (1.0, 5.0) for h in (1e-4, 1.0, 60.0)),
        # support starts ~7000 density widths left of the peak at 0
        (ExtremalT(ExponentialCorrelation(10.0), nu=100.0), [[0.0], [1e-5]]),
    ])
    def test_matches_antithetic_mc(self, model, pair, rng):
        quad = concurrence_probability(model, pair)
        mc = ecp_mc(model, pair, 400_000, antithetic=True, rng=rng)
        assert quad.method == "quadrature"
        assert quad.stderr < 1e-9 and quad.n_draws > 0
        assert abs(quad.value - mc.value) < 3 * mc.stderr

    @pytest.mark.parametrize("gamma", _BR_GAMMAS)
    def test_brown_resnick_matches_high_precision(self, gamma):
        # at gamma = 50 the mass sits in the tail Z > sqrt(2 gamma)/2 = 5, which
        # Monte Carlo cannot resolve; a 30-digit integral is the reference
        with mpmath.workdps(30):
            a = mpmath.sqrt(2 * gamma)
            ref = mpmath.quad(lambda z: mpmath.npdf(z) / (
                mpmath.ncdf(z) + mpmath.exp(gamma - a * z) * mpmath.ncdf(a - z)),
                [-mpmath.inf, 0, a / 2, a, mpmath.inf])
        assert concurrence_probability(_br(gamma), PAIR).value == pytest.approx(
            float(ref), rel=1e-9, abs=1e-15)

    def test_degenerate_pairs_are_exact(self):
        from concur import QuadraticVariogram
        br = BrownResnick(QuadraticVariogram(np.zeros((1, 1))))
        et = ExtremalT(ExponentialCorrelation(10.0), nu=5.0)
        for model, pair in ((br, PAIR), (et, [[0.0], [1e-16]])):
            est = concurrence_probability(model, pair)
            assert est.value == 1.0 and est.method == "closed_form"
        countermonotone = ExtremalT(lambda d: -np.ones_like(d), nu=2.0)
        assert concurrence_probability(countermonotone, PAIR).value == 0.0

    def test_unresolvable_integrand_raises(self):
        from concur import NumericError
        from concur.concurrence import _adaptive_quad
        with pytest.raises(NumericError):
            _adaptive_quad(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


class TestExtremalCoefficient:
    def test_examples(self):
        assert extremal_coefficient(Logistic(1.0), PAIR) == pytest.approx(2.0, abs=1e-14)
        for alpha in (0.2, 0.5, 0.9):
            assert extremal_coefficient(Logistic(alpha), PAIR) == pytest.approx(
                2.0 ** alpha, rel=1e-12)
        near_dep = BrownResnick(FractionalVariogram(scale=1e-12, exponent=1.0))
        assert extremal_coefficient(near_dep, PAIR) == pytest.approx(1.0, abs=1e-5)


class TestBounds:
    def test_theta_bounds_logistic_exact(self):
        for alpha in np.linspace(0.05, 1.0, 30):
            p = ecp_logistic(alpha, 2)
            theta = 2.0 ** alpha
            assert 0.5 * (2 - theta) - 1e-12 <= p <= 2 * (2 - theta) + 1e-12

    def test_theta_bounds_mc_models(self, rng):
        cases = [
            BrownResnick(FractionalVariogram(scale=0.4, exponent=1.2)),
            ExtremalT(ExponentialCorrelation(5.0), nu=2.0),
            Smith(CovarianceMatrix(np.array([[0.7]]))),
        ]
        for i, model in enumerate(cases):
            est = ecp_mc(model, PAIR, 200_000, antithetic=True, rng=rng.substream(i))
            theta = extremal_coefficient(model, PAIR)
            tol = 5 * est.stderr + 1e-6
            assert 0.5 * (2 - theta) - tol <= est.value <= 2 * (2 - theta) + tol

    def test_max_linear_upper_bound(self):
        g = np.random.default_rng(17)
        for _ in range(25):
            raw = g.uniform(0.0, 1.0, size=(4, 3))
            phi = raw / raw.sum(axis=0, keepdims=True)
            p, _ = ecp_max_linear(phi)
            bound = phi.min(axis=1).sum()
            assert p <= bound + 1e-12

    def test_semidefinite_type_inequality(self, rng):
        # 2 - p submultiplicative over lag sums for the smooth pair family
        model = BrownResnick(FractionalVariogram(scale=1.0 / 3.0, exponent=1.0))
        g = rng.generator()
        for i in range(20):
            h1, h2 = g.uniform(0.2, 3.0, size=2)
            ests = [ecp_mc(model, [[0.0], [h]], 100_000, antithetic=True,
                           rng=rng.substream(3 * i + j))
                    for j, h in enumerate((h1 + h2, h1, h2))]
            p12, p1, p2 = (e.value for e in ests)
            err = 5 * sum(e.stderr for e in ests)
            assert 2 - p12 <= (2 - p1) * (2 - p2) + err


class TestKendallTarget:
    def test_closed_forms(self):
        assert kendall_target_p(Logistic(0.3), PAIR) == pytest.approx(0.7, abs=1e-12)
        assert kendall_target_p(ExtremalProcess(), [0.2, 0.5]) == pytest.approx(0.4)
        assert kendall_target_p(BallIndicator(radius=1.0, dim=1),
                                [[0.0], [0.5]]) == pytest.approx(0.6, rel=1e-12)
        p_ml = kendall_target_p(MaxLinear(np.array([[0.75, 0.25], [0.25, 0.75]])), [0, 1])
        assert p_ml == pytest.approx(0.5, abs=1e-12)

    def test_equal_sites_give_one(self):
        assert kendall_target_p(Logistic(0.3), [[1.0], [1.0]]) == 1.0
        assert kendall_target_p(ExtremalProcess(), [0.4, 0.4]) == 1.0

    def test_quadrature_path_deterministic(self):
        model = BrownResnick(FractionalVariogram(scale=1.0 / 1.627, exponent=1.0))
        a = kendall_target_p(model, PAIR)
        b = kendall_target_p(model, PAIR)
        assert a == b and abs(a - 0.5) < 0.01
        assert concurrence_probability(model, PAIR).method == "quadrature"


class TestIntegratedCp:
    def test_constant_one_unit_area(self):
        w = np.full(10, 0.1)
        assert integrated_cp(np.ones(10), w) == pytest.approx(1.0, rel=1e-14)

    def test_point_mass(self):
        p = np.zeros(5)
        p[2] = 1.0
        w = np.full(5, 0.25)
        assert integrated_cp(p, w) == pytest.approx(0.25, rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            integrated_cp(np.ones(4), np.ones(5))
        with pytest.raises(DomainError):
            integrated_cp(np.ones(4), -np.ones(4))

    def test_rectangle_weights(self):
        w = rectangle_weights(np.arange(0.0, 20.0001, 0.5))
        assert w.shape == (41,) and np.all(w == 0.5)
        with pytest.raises(DomainError):
            rectangle_weights([0.0, 0.5, 1.7])
