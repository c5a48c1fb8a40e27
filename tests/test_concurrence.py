"""Closed forms, quadrature and Monte-Carlo evaluation, bounds, and integrated concurrence."""

import contextlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import spread_workers
from scipy import special

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
    rectangle_weights,
)
from concur.concurrence import _MC_BLOCK, _concurrences
from concur.models import GaussianPair, StudentPair, _tanh_sinh, _tanh_sinh_sum

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
        with pytest.raises(NumericError, match="unresolved"):
            _tanh_sinh_sum(((lambda x: np.full_like(x, np.nan), 0.0, 1.0),))
        # a step inside a piece: the rule at twice the step disagrees
        with pytest.raises(NumericError, match="half-step distance"):
            _tanh_sinh_sum(((lambda x: (x > 0.3).astype(float), 0.0, 1.0),))


# ---------------------------------------------------------------------------
# slow reference: adaptive Gauss--Legendre quadrature

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _gauss(g, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """20-point Gauss--Legendre rule of g on each interval [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES
    return (g(x) * _GL_WEIGHTS).sum(axis=1) * half


def _adaptive_quad(g, a: float, b: float, tol: float = 1e-13) -> float:
    """Integral of a vectorized g on [a, b]: every pending interval is halved
    each round and accepted once the rule on the halves agrees with the rule
    on the whole within its share of tol; the loop also stops once the summed
    disagreement of all intervals is within tol."""
    left, right = np.array([a]), np.array([b])
    whole = _gauss(g, left, right)
    value = err = 0.0
    for _ in range(50):
        mid = 0.5 * (left + right)
        halves = _gauss(g, np.concatenate([left, mid]), np.concatenate([mid, right]))
        n = left.size
        fine = halves[:n] + halves[n:]
        delta = np.abs(fine - whole)
        if err + delta.sum() <= tol:
            return value + float(fine.sum())
        done = delta <= tol * (right - left) / (b - a)
        value += float(fine[done].sum())
        err += float(delta[done].sum())
        keep = ~done
        assert keep.sum() <= 512, f"reference quadrature on [{a}, {b}] did not converge"
        left, right = (np.concatenate([left[keep], mid[keep]]),
                       np.concatenate([mid[keep], right[keep]]))
        whole = np.concatenate([halves[:n][keep], halves[n:][keep]])
    raise AssertionError(f"reference quadrature on [{a}, {b}] did not converge")


def _correlated_t(rho: float, nu: float) -> ExtremalT:
    return ExtremalT(lambda d: np.full_like(d, rho), nu=nu)


class TestFixedRuleAgainstAdaptive:
    """The fixed tanh-sinh rule of ``concurrence_probability`` against the
    adaptive reference on the same pieces, over the pair parameter."""

    @pytest.mark.parametrize("model", [
        *(_br(float(g)) for g in np.geomspace(1e-4, 200.0, 80)),
        *(_correlated_t(float(rho), nu) for nu in (1.0, 1.5, 2.0, 5.0, 20.0, 50.0)
          for rho in np.linspace(-0.999, 0.9999, 80)),
    ], ids=lambda m: repr(m.pair_reduction(m.sites_of(PAIR))))
    def test_within_1e12(self, model):
        est = concurrence_probability(model, PAIR)
        ref = sum(_adaptive_quad(g, a, b)
                  for g, a, b in model.pair_reduction(model.sites_of(PAIR)).quad_pieces())
        assert est.method == "quadrature"
        assert abs(est.value - ref) <= 1e-12
        assert est.stderr < 1e-9

    def test_no_valid_pair_reaches_the_bound(self):
        for gamma in np.geomspace(1e-8, 1e4, 60):
            assert concurrence_probability(_br(float(gamma)), PAIR).stderr < 1e-9
        for nu in (1.0, 3.0, 100.0, 1000.0):
            for rho in np.linspace(-0.9999, 0.99999, 40):
                assert concurrence_probability(_correlated_t(float(rho), nu), PAIR).stderr < 1e-9


def _scalar_rule(pieces) -> tuple[float, float, int]:
    """Slow reference of the pair curves: the tanh-sinh rule summed one pair
    at a time, piece by piece, as ``concurrence_probability`` summed it
    before the pairs had a curve.  (value, half-step distance, nodes)."""
    dist, right, weights = _tanh_sinh()
    fine = coarse = 0.0
    for g, a, b in pieces:
        terms = g(np.where(right, b - (b - a) * dist, a + (b - a) * dist)) * weights * (b - a)
        fine += float(terms.sum())
        coarse += 2.0 * float(terms[::2].sum())
    return fine, abs(fine - coarse), len(pieces) * dist.size


class TestPairCurve:
    """Each row of a pair curve, one (pairs, nodes) pass of the rule, is
    the rule summed for its pair alone, bit for bit."""

    def test_gaussian_rows_equal_the_scalar_rule(self):
        pairs = [GaussianPair(float(g)) for g in np.geomspace(1e-8, 1e3, 120)]
        values, errs, nodes = GaussianPair.curve(pairs)
        assert values.shape == errs.shape == (len(pairs),)
        for pair, value, err in zip(pairs, values.tolist(), errs.tolist()):
            assert (value, err, nodes) == _scalar_rule(pair.quad_pieces())

    @pytest.mark.parametrize("nu", [1.0, 1.5, 2.0, 5.0, 20.0, 50.0])
    def test_student_rows_equal_the_scalar_rule(self, nu):
        # rho <= 0 has no piece left of 0; among rho > 0 such rows get that
        # piece with length 0, which adds 0 to their sums
        for rhos in (np.linspace(-0.999, 0.9999, 120), np.linspace(0.001, 0.9999, 60)):
            pairs = [StudentPair(float(r), nu) for r in rhos]
            values, errs, nodes = StudentPair.curve(pairs)
            assert nodes == 3 * 205
            for pair, value, err in zip(pairs, values.tolist(), errs.tolist()):
                assert (value, err) == _scalar_rule(pair.quad_pieces())[:2]

    def test_one_call_per_model_equals_one_call_per_pair(self):
        for model in (_br(3.0), ExtremalT(ExponentialCorrelation(10.0), nu=5.0),
                      Logistic(0.5), BallIndicator(radius=2.0)):
            sites = [[[0.0], [h]] for h in (0.3, 1.0, 2.5, 7.0)]
            assert _concurrences(model, sites) == [concurrence_probability(model, s)
                                                   for s in sites]

    def test_pairs_of_one_curve_share_nu(self):
        with pytest.raises(DomainError, match="share nu"):
            StudentPair.curve([StudentPair(0.5, 2.0), StudentPair(0.5, 3.0)])


def _log_space_integrand(gamma: float, z: np.ndarray) -> np.ndarray:
    """Slow reference of ``GaussianPair.integrand``: the log-space form
    1 / [Phi(z) + exp(gamma - a z + log Phi(a - z))], 0 where the exponent
    reaches 700."""
    a = math.sqrt(2.0 * gamma)
    expo = gamma - a * z + special.log_ndtr(a - z)
    small = expo < 700.0
    with np.errstate(over="ignore"):
        return np.where(small, 1.0 / (special.ndtr(z) + np.exp(np.minimum(expo, 700.0))), 0.0)


def _log_space_antithetic(gamma: float, z: np.ndarray) -> np.ndarray:
    """Slow reference of ``GaussianPair.antithetic``: two Phi and one log Phi
    per draw and per sign."""
    return 0.5 * (_log_space_integrand(gamma, z) + _log_space_integrand(gamma, -z))


def _mp_integrand(gamma: float, z: float) -> float:
    with mpmath.workdps(40):
        g, x = mpmath.mpf(gamma), mpmath.mpf(z)
        a = mpmath.sqrt(2 * g)
        return float(1 / (mpmath.ncdf(x) + mpmath.exp(g - a * x) * mpmath.ncdf(a - x)))


def _ulps(gamma: float, z) -> np.ndarray:
    """A few ulps, relative to the size of the exponent gamma -+ a z, which
    every form rounds once before it takes exp."""
    return 4.0 * np.finfo(float).eps * (1.0 + gamma + math.sqrt(2.0 * gamma) * np.abs(z))


def _close(got, want, tol) -> bool:
    # once the exponent passes 700 the log-space form returns 0, and the
    # product form exp(-700) or less
    return bool(np.all(np.abs(got - want) <= tol * want + 1e-300))


class TestGaussianPairIntegrand:
    @given(st.floats(-40.0, 40.0), st.floats(1e-12, 1e3))
    def test_matches_log_space_form(self, z, gamma):
        pair, x = GaussianPair(gamma), np.array([z])
        tol = _ulps(gamma, x)
        assert _close(pair.integrand(x), _log_space_integrand(gamma, x), tol)
        assert _close(pair.antithetic(x), _log_space_antithetic(gamma, x), tol)

    @pytest.mark.parametrize("gamma", [1e-6, 0.5, 5.0, 50.0, 300.0])
    def test_matches_mpmath(self, gamma):
        z = np.array([-30.0, -6.0, -1.0, -0.2, 0.0, 0.3, 2.0, 5.0, 12.0, 35.0])
        want = np.array([_mp_integrand(gamma, v) for v in z])
        want_anti = 0.5 * (want + np.array([_mp_integrand(gamma, -v) for v in z]))
        tol = _ulps(gamma, z)
        pair = GaussianPair(gamma)
        # the product form and the log-space form are equally close
        for got in (pair.integrand(z), _log_space_integrand(gamma, z)):
            assert _close(got, want, tol)
        for got in (pair.antithetic(z), _log_space_antithetic(gamma, z)):
            assert _close(got, want_anti, tol + np.finfo(float).eps)

    @pytest.mark.parametrize("n_draws", [2, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1, 20_000, 200_000])
    @pytest.mark.parametrize("model", [_br(20.0 / 3.0),
                                       ExtremalT(ExponentialCorrelation(10.0), nu=5.0)])
    def test_ecp_mc_blocks_equal_one_shot(self, model, n_draws):
        # ecp_mc draws block by block on the caller, which takes the stream
        # of one draw, and each block writes its own slice, so one worker,
        # several and the machine's own count agree bit for bit with one
        # draw and one integrand call, and leave the generator alike
        pair = model.pair_reduction(model.sites_of(PAIR))
        for antithetic in (False, True):
            g = SeededRng(8, n_draws).generator()
            x = pair.draw(g, n_draws)
            vals = pair.antithetic(x) if antithetic else pair.integrand(x)
            want = (min(max(float(vals.mean()), 0.0), 1.0),
                    float(vals.std(ddof=1) / math.sqrt(n_draws)))
            for workers in (None, 1, 2, 3):
                got = SeededRng(8, n_draws).generator()
                with spread_workers(workers) if workers else contextlib.nullcontext():
                    est = ecp_mc(model, PAIR, n_draws, antithetic=antithetic, rng=got)
                assert (est.value, est.stderr) == want
                assert got.bit_generator.state == g.bit_generator.state


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
    """The pair concurrence probability is the population Kendall tau."""

    def test_closed_forms(self):
        def p(model, sites):
            return concurrence_probability(model, sites).value

        assert p(Logistic(0.3), PAIR) == pytest.approx(0.7, abs=1e-12)
        assert p(ExtremalProcess(), [0.2, 0.5]) == pytest.approx(0.4)
        assert p(BallIndicator(radius=1.0, dim=1), [[0.0], [0.5]]) == pytest.approx(0.6, rel=1e-12)
        p_ml = p(MaxLinear(np.array([[0.75, 0.25], [0.25, 0.75]])), [0, 1])
        assert p_ml == pytest.approx(0.5, abs=1e-12)

    def test_coincident_sites_raise(self):
        with pytest.raises(DomainError, match="sites 0 and 1 coincide"):
            concurrence_probability(Logistic(0.3), [[1.0], [1.0]])
        with pytest.raises(DomainError, match="sites 0 and 1 coincide"):
            concurrence_probability(ExtremalProcess(), [0.4, 0.4])

    def test_quadrature_path_deterministic(self):
        model = BrownResnick(FractionalVariogram(scale=1.0 / 1.627, exponent=1.0))
        a = concurrence_probability(model, PAIR)
        b = concurrence_probability(model, PAIR)
        assert a.value == b.value and abs(a.value - 0.5) < 0.01
        assert a.method == "quadrature"


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
