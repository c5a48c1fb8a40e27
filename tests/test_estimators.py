"""Block, bootstrap, unbiased, Kendall, and multivariate-log estimators."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from concur import (
    CapabilityError,
    DomainError,
    Logistic,
    Sample,
    SeededRng,
    bias_law_check,
    block_mse,
    dominance_counts,
    ecp_kendall,
    ecp_multivariate_log,
    jitter_ties,
    optimal_block_size,
    sample_cp_block,
    sample_cp_bootstrap,
    sample_cp_unbiased,
    simulate_logistic_exact,
)
from concur.estimators import estimator


def logistic_data(alpha, k, n, seed):
    return simulate_logistic_exact(alpha, k, SeededRng(2468, seed), size=n)


class TestSample:
    def test_validation(self):
        with pytest.raises(DomainError):
            Sample(np.zeros((1, 2)))
        with pytest.raises(DomainError):
            Sample(np.zeros((5,)))
        with pytest.raises(DomainError):
            Sample(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_tie_flag_and_jitter(self, rng):
        tied = Sample(np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 4.0]]))
        assert tied.has_ties
        clean = jitter_ties(tied, resolution=0.1, rng=rng)
        assert not clean.has_ties
        again = jitter_ties(tied, resolution=0.1, rng=rng)
        assert np.array_equal(clean.data, again.data)
        free = Sample(np.array([[1.0, 2.0], [1.5, 3.0], [2.0, 4.0]]))
        assert not free.has_ties


class TestDominanceCounts:
    def test_totally_ordered(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert sorted(dominance_counts(x).tolist()) == [0, 1, 2]

    def test_anti_ordered(self):
        x = np.array([[3.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        assert dominance_counts(x).tolist() == [0, 0, 0]

    def test_brute_force_oracle(self):
        g = np.random.default_rng(12)
        for _ in range(20):
            x = g.standard_normal((8, 2))
            d = dominance_counts(x)
            brute = [sum(1 for l in range(8) if l != i and np.all(x[l] < x[i]))
                     for i in range(8)]
            assert d.tolist() == brute

    def test_sum_bound(self):
        g = np.random.default_rng(13)
        for _ in range(10):
            n = int(g.integers(5, 40))
            x = g.standard_normal((n, 3))
            assert dominance_counts(x).sum() <= n * (n - 1) // 2


class TestBlockEstimator:
    def test_full_block_with_dominator(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0]])
        assert sample_cp_block(x, 3) == 1.0

    def test_singleton_blocks_degenerate(self):
        x = np.array([[3.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        assert sample_cp_block(x, 1) == 1.0

    def test_hand_blocks(self):
        # both blocks of 2 contain a dominator
        x = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 3.0], [2.0, 4.0]])
        assert sample_cp_block(x, 2) == pytest.approx(1.0)
        # second block (4,1) vs (2,3) is incomparable
        y = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 1.0], [2.0, 3.0]])
        assert sample_cp_block(y, 2) == pytest.approx(0.5)

    def test_leftovers_dropped(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [9.0, -1.0], [0.0, 0.0], [-1.0, 9.0]])
        # floor(5/2) = 2 blocks; the 5th row is ignored
        assert sample_cp_block(x, 2) == pytest.approx(0.5)

    def test_tie_counts_as_non_dominance(self):
        x = np.array([[1.0, 2.0], [1.0, 1.0]])
        assert sample_cp_block(x, 2) == 0.0

    def test_domain(self):
        x = np.zeros((4, 2)) + np.arange(4)[:, None]
        with pytest.raises(DomainError):
            sample_cp_block(x, 5)
        with pytest.raises(DomainError):
            sample_cp_block(x, 0)
        # a bool is not a block size: True used to be taken as m = 1
        with pytest.raises(DomainError, match="got True"):
            sample_cp_block(x, True)


class TestBootstrapEstimator:
    def test_total_order(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert sample_cp_bootstrap(x, 2) == pytest.approx(1.0, rel=1e-12)

    def test_single_dominance(self):
        # d = (1, 0, 0): exactly one dominating relation
        x = np.array([[2.0, 2.0], [1.0, 1.0], [0.0, 5.0]])
        assert sample_cp_bootstrap(x, 2) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_no_dominance(self):
        x = np.array([[3.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        assert sample_cp_bootstrap(x, 2) == 0.0

    def test_equals_exhaustive_permutation_average(self):
        g = np.random.default_rng(23)
        for n, m in [(5, 2), (6, 3), (7, 2), (7, 5)]:
            x = g.standard_normal((n, 2))
            got = sample_cp_bootstrap(x, m)
            d = dominance_counts(x)
            exact = sum(Fraction(math.comb(int(di), m - 1), math.comb(n, m)) for di in d)
            enum = _permutation_average(x, m)
            assert exact == enum
            assert got == pytest.approx(float(exact), rel=1e-12)

    def test_rao_blackwell_variance_dominance(self):
        reps, n, m = 500, 100, 10
        data = logistic_data(0.5, 2, reps * n, seed=1).reshape(reps, n, 2)
        v_block = sample_cp_block(data, m).var(ddof=1)
        v_boot = sample_cp_bootstrap(data, m).var(ddof=1)
        assert v_boot <= v_block


def _permutation_average(x, m):
    n = x.shape[0]
    nb = n // m
    total = Fraction(0)
    count = 0
    for perm in itertools.permutations(range(n)):
        arr = x[list(perm)]
        hits = 0
        for b in range(nb):
            blk = arr[b * m:(b + 1) * m]
            for l in range(m):
                if all((blk[i] < blk[l]).all() for i in range(m) if i != l):
                    hits += 1
                    break
        total += Fraction(hits, nb)
        count += 1
    return total / count


class TestUnbiasedEstimator:
    def test_fixed_points(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        est = sample_cp_unbiased(x, 2)  # p* = 1
        assert est.value == pytest.approx(1.0, rel=1e-12)
        y = np.array([[3.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        est = sample_cp_unbiased(y, 2)  # p* = 0 -> negative raw value
        assert est.value == pytest.approx(-1.0, rel=1e-12)
        assert est.clipped == 0.0

    def test_independence_fixed_point(self):
        # p* = 1/m maps to exactly 0
        for m in (2, 5, 10):
            star = 1.0 / m
            assert (m * star - 1.0) / (m - 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_bivariate_only(self):
        x = np.zeros((6, 3)) + np.arange(6)[:, None]
        with pytest.raises(CapabilityError):
            sample_cp_unbiased(x, 2)


class TestKendall:
    def test_perfect_concordance(self):
        x = np.column_stack([np.arange(6.0), np.arange(6.0) ** 3])
        est = ecp_kendall(x)
        assert est.estimate == 1.0

    def test_perfect_discordance(self):
        x = np.column_stack([np.arange(6.0), -np.arange(6.0)])
        assert ecp_kendall(x).estimate == -1.0

    def test_hand_example(self):
        x = np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0], [4.0, 4.0]])
        assert ecp_kendall(x).estimate == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_matches_scipy(self):
        g = np.random.default_rng(3)
        x = g.standard_normal((400, 2))
        ours = ecp_kendall(x).estimate
        ref = scipy.stats.kendalltau(x[:, 0], x[:, 1]).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_tie_adjusted_matches_scipy_taub(self):
        g = np.random.default_rng(4)
        x = np.round(g.standard_normal((300, 2)), 1)  # plenty of ties
        ours = ecp_kendall(x, tie_adjusted=True).estimate
        ref = scipy.stats.kendalltau(x[:, 0], x[:, 1]).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_jackknife_stderr_calibration(self):
        # jackknife SE should track the true sampling SD within ~30%
        reps, n = 200, 200
        data = logistic_data(0.5, 2, reps * n, seed=7).reshape(reps, n, 2)
        taus = ecp_kendall(data).estimate
        se_hat = ecp_kendall(data[0]).stderr
        sd_true = taus.std(ddof=1)
        assert 0.7 * sd_true < se_hat < 1.3 * sd_true

    def test_small_n(self):
        est = ecp_kendall(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert est.estimate == -1.0 and math.isnan(est.stderr)

    def test_tie_adjusted_constant_coordinate_raises(self):
        x = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        with pytest.raises(DomainError, match="coordinate 0 is constant"):
            ecp_kendall(x, tie_adjusted=True)
        with pytest.raises(DomainError, match="coordinate 1 is constant"):
            ecp_kendall(Sample(x[:, ::-1], names=("a", "b")), tie_adjusted=True)
        assert ecp_kendall(x).estimate == 0.0

    def test_tie_adjusted_constant_delete_one_sample_raises(self):
        # leaving out the third row leaves x constant: that jackknife value is 0/0
        x = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        with pytest.raises(DomainError, match="leaving out row 2 makes coordinate 0 constant"):
            ecp_kendall(x, tie_adjusted=True)
        with pytest.raises(DomainError, match="row 2 makes coordinate 1 constant"):
            ecp_kendall(Sample(x[:, ::-1], names=("a", "b")), tie_adjusted=True)
        assert math.isfinite(ecp_kendall(x).stderr)
        est = ecp_kendall(np.vstack([x, [3.0, 3.0]]), tie_adjusted=True)
        assert math.isfinite(est.estimate) and math.isfinite(est.stderr)

    def test_stack_tie_adjusted_constant_coordinate_raises(self):
        data = np.stack([np.column_stack([np.zeros(5), np.arange(5.0)]),
                         np.column_stack([np.arange(5.0), np.arange(5.0)])])
        with pytest.raises(DomainError, match="replicate 0: coordinate 0 is constant"):
            ecp_kendall(data, tie_adjusted=True)
        with pytest.raises(DomainError, match="replicate 0: coordinate 1 is constant"):
            ecp_kendall(data[:, :, ::-1], tie_adjusted=True)
        assert np.array_equal(ecp_kendall(data).estimate, [0.0, 1.0])
        assert ecp_kendall(data[1:], tie_adjusted=True).estimate[0] == 1.0


class TestMultivariateLog:
    def test_equal_columns_harmonic_oracle(self):
        n = 1000
        col = np.random.default_rng(8).permutation(n).astype(float)
        x = np.column_stack([col, col])
        # exact finite-sample value: -(1/n) sum log(i/n)
        oracle = -sum(math.log(i / n) for i in range(1, n + 1)) / n
        got = ecp_multivariate_log(x)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert abs(got - 1.0) < 0.01

    def test_independent_columns_near_zero(self):
        g = np.random.default_rng(9)
        x = g.uniform(size=(10_000, 2))
        assert abs(ecp_multivariate_log(x)) < 0.05

    def test_logistic_trivariate(self):
        x = logistic_data(0.5, 3, 3000, seed=11)
        assert abs(ecp_multivariate_log(x) - 0.375) < 0.05

    def test_jackknife_matches_brute_force(self):
        x = logistic_data(0.4, 3, 40, seed=12)
        loos = [ecp_multivariate_log(np.delete(x, i, axis=0)) for i in range(40)]
        manual = 40 * ecp_multivariate_log(x) - 39 * float(np.mean(loos))
        fast = ecp_multivariate_log(x, jackknife=True)
        assert fast == pytest.approx(manual, abs=1e-10)

    def test_a_subset_of_sites_is_a_column_selection(self):
        # there is no subset parameter: x[..., cols] selects the sites, of a
        # sample or of a stack, and jackknife is passed by keyword only
        x = logistic_data(0.5, 3, 500, seed=13)
        with pytest.raises(TypeError):
            ecp_multivariate_log(x, [0, 2])
        stack = x.reshape(2, 250, 3)
        pairs = ecp_multivariate_log(stack[..., [0, 2]])
        assert pairs[1] == ecp_multivariate_log(x[250:, [0, 2]])
        with pytest.raises(DomainError, match="k >= 2 coordinates"):
            ecp_multivariate_log(x[:, [0]])


TRANSFORMS = [np.exp, lambda v: v ** 3, lambda v: np.arctan(v) * 2.0]


class TestMarginalInvariance:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20)
    def test_estimators_invariant_under_increasing_transforms(self, seed):
        g = np.random.default_rng(seed)
        x = g.standard_normal((30, 2))
        t = TRANSFORMS[seed % len(TRANSFORMS)]
        y = np.column_stack([t(x[:, 0]), x[:, 1] ** 3])
        assert sample_cp_block(y, 5) == sample_cp_block(x, 5)
        assert sample_cp_bootstrap(y, 5) == pytest.approx(
            sample_cp_bootstrap(x, 5), rel=1e-14)
        assert sample_cp_unbiased(y, 5).value == pytest.approx(
            sample_cp_unbiased(x, 5).value, rel=1e-14)
        assert ecp_kendall(y).estimate == ecp_kendall(x).estimate
        assert ecp_multivariate_log(y) == pytest.approx(
            ecp_multivariate_log(x), rel=1e-14)


class TestBlockPlanner:
    def test_reference_plan(self):
        plan = optimal_block_size(1000, 0.5, r=1, c_r=0.5)
        assert plan.m == 13
        assert plan.predicted_mse == pytest.approx(
            (0.5 / 13) ** 2 + (0.5 + 0.5 / 13) * (1 - 0.5 - 0.5 / 13) / (1000 // 13),
            rel=1e-12)

    def test_matches_brute_force_minimizer(self):
        for n, p, r, c_r in [(1000, 0.5, 1, 0.5), (500, 0.3, 1, 1.0),
                             (5000, 0.7, 2, 0.8), (250, 0.5, 1, 0.2)]:
            plan = optimal_block_size(n, p, r=r, c_r=c_r)
            brute = min(range(2, n + 1), key=lambda m: block_mse(n, m, p, r, c_r))
            assert abs(plan.m - brute) <= 2

    def test_growth_rate(self):
        # m grows like n**(1/3) for r = 1: check the log-log slope
        ns = np.array([10**3, 10**4, 10**5, 10**6, 10**7])
        ms = np.array([optimal_block_size(int(n), 0.5, 1, 1.0).m for n in ns])
        slope = np.polyfit(np.log(ns), np.log(ms), 1)[0]
        assert abs(slope - 1.0 / 3.0) < 0.02

    def test_vanishing_bias_takes_smallest_blocks(self):
        # with c_r -> 0 the planner's formula collapses to the lower clamp,
        # which brute-force MSE minimization confirms (variance grows with m)
        plan = optimal_block_size(1000, 0.5, r=1, c_r=1e-9)
        assert plan.m == 2
        brute = min(range(2, 1001), key=lambda m: block_mse(1000, m, 0.5, 1, 1e-9))
        assert brute == 2

    def test_huge_bias_takes_the_whole_sample(self):
        # the formula's m is past n, and the squared bias past the floats
        plan = optimal_block_size(100, 0.5, c_r=1e308)
        assert plan.m == 100 and plan.predicted_mse == math.inf
        assert block_mse(100, 5, 0.5, c_r=1e300) == math.inf

    def test_numpy_block_size_does_not_wrap(self):
        # m^r is an exact Python int, not an int64 that wraps 2^64 to 0
        assert block_mse(100, np.int64(2), 0.5, r=64) == block_mse(100, 2, 0.5, r=64) > 0

    def test_sizes_past_the_floats(self):
        # n // m and m^r past the floats are divided exactly, rounded once
        assert block_mse(10**400, 2, 0.5) == 0.25
        assert block_mse(100, 2, 0.5, r=1100) == 0.005
        bias = float(Fraction(1e308) / 2**1030)
        assert 0.008 < bias < 0.009
        assert block_mse(2, 2, 0.0, r=1030, c_r=1e308) == bias**2 + bias * (1 - bias)
        # an m^r of 2^(10^30) is not formed: the bias is 0 to double precision
        assert block_mse(100, 2, 0.5, r=10**30, c_r=1e308) == 0.005
        # n past the floats: raw in log space, m = (2 n / (p (1 - p)))^(1/3) for r = 1
        m = optimal_block_size(10**400, 0.5).m
        assert abs(m**3 / (8 * 10**400) - 1) < 1e-12
        assert optimal_block_size(100, 0.5, r=10**400).m == 2
        assert optimal_block_size(100, 0.5, r=1100).predicted_mse == 0.005

    def test_values_inside_the_floats_are_the_plain_formula(self):
        # the exact paths are taken only where the float one overflows
        for n, m, p, r, c_r in itertools.product((10, 1000, 10**15), (1, 2, 3, 7), (0.0, 0.3, 1.0),
                                                 (1, 2, 40), (1e-3, 1.0, 7.5)):
            bias = c_r / m**r
            p_m = min(p + bias, 1.0)
            assert block_mse(n, m, p, r, c_r) == bias**2 + p_m * (1.0 - p_m) / (n // m)

    def test_domain(self):
        for bad_p in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                optimal_block_size(100, bad_p)
        with pytest.raises(DomainError):
            optimal_block_size(100, 0.5, r=0)
        for n, r in ((True, 1), (100, True)):
            with pytest.raises(DomainError):
                optimal_block_size(n, 0.5, r=r)
        with pytest.raises(DomainError):
            optimal_block_size(100, 0.5, c_r=0.0)


class TestBiasLaw:
    def test_logistic_theory_column(self, rng):
        rows = bias_law_check(Logistic(0.5), [[0.0], [1.0]], [5, 10],
                              reps=400, n=100, rng=rng)
        assert rows[0].theoretical == pytest.approx(0.6, abs=1e-12)
        assert rows[1].theoretical == pytest.approx(0.55, abs=1e-12)
        for row in rows:
            nb = 100 // row.m
            se = math.sqrt(row.theoretical * (1 - row.theoretical) / nb / 400)
            assert abs(row.mean_estimate - row.theoretical) < 3.9 * se

    def test_monotone_bias_in_m(self, rng):
        rows = bias_law_check(Logistic(0.5), [[0.0], [1.0]], [2, 5, 10, 25],
                              reps=800, n=100, rng=rng.substream(1))
        means = [r.mean_estimate for r in rows]
        for a, b in zip(means, means[1:]):
            assert b <= a + 0.01


ESTIMATOR_CALLS = [
    lambda d: sample_cp_block(d, 2), dominance_counts, lambda d: sample_cp_bootstrap(d, 2),
    lambda d: sample_cp_unbiased(d, 2), ecp_kendall, ecp_multivariate_log]

# (estimator, smallest block size)
BLOCK_ESTIMATORS = [(sample_cp_block, 1), (sample_cp_bootstrap, 2), (sample_cp_unbiased, 2)]


class TestSampleOrStack:
    @pytest.mark.parametrize("kernel", ESTIMATOR_CALLS)
    @pytest.mark.parametrize("shape, message", [
        ((1, 2), "sample needs n >= 2 observations and k >= 2 coordinates"),
        ((4, 1, 2),
         "expected a 3-d (reps, n, k) stack with n >= 2 and k >= 2, got shape (4, 1, 2)"),
        ((2, 3, 2, 2), "expected a 3-d (reps, n, k) stack"),
        ((6,), "sample must be a 2-d (n, k) array")])
    def test_an_n_k_sample_or_a_reps_n_k_stack(self, kernel, shape, message):
        # a sample takes Sample's checks and messages, a stack its own
        with pytest.raises(DomainError, match=re.escape(message)):
            kernel(np.zeros(shape))

    @pytest.mark.parametrize("kernel", ESTIMATOR_CALLS)
    def test_values_must_be_finite(self, kernel):
        # as for a Sample: an all-NaN stack used to give tau = 0 and p* = 0
        for bad in (np.nan, np.inf):
            x = np.arange(20.0).reshape(2, 5, 2)
            x[1, 3, 0] = bad
            with pytest.raises(DomainError, match="finite"):
                kernel(x)
        with pytest.raises(DomainError, match="finite"):
            kernel(np.full((3, 5, 2), np.nan))

    @pytest.mark.parametrize("fn, least", BLOCK_ESTIMATORS)
    def test_block_size_checked_alike(self, fn, least):
        x = np.arange(10.0).reshape(5, 2)
        # a block size of 0 used to raise ZeroDivisionError, and one of 2.5
        # used to be truncated to 2 for a sample but not for a stack
        for m in (0, -1, least - 1, 2.5, 2.0, True, np.True_):
            for data in (x, x[None]):
                with pytest.raises(DomainError, match=re.escape(
                        f"block size must be a whole number >= {least}, got {m!r}")):
                    fn(data, m)
        for data in (x, x[None]):
            with pytest.raises(DomainError, match="block size must be at most n = 5, got 6"):
                fn(data, 6)
            # the smallest block size is accepted for a sample and a stack
            fn(data, least)

    @pytest.mark.parametrize("method, least", [("block", 1), ("bootstrap", 2), ("unbiased", 2)])
    def test_estimator_checks_the_block_size_first(self, method, least):
        # a block size of 0 used to be reported as a missing one
        with pytest.raises(DomainError, match="requires a block size"):
            estimator(method)
        for m in (0, -1, least - 1, 2.5, True):
            with pytest.raises(DomainError,
                               match=re.escape(f"block size must be a whole number >= {least}, "
                                               f"got {m!r}")):
                estimator(method, m)
        estimator(method, least)

    @pytest.mark.parametrize("method", ["kendall", "mvlog"])
    def test_estimator_refuses_a_block_size_it_does_not_use(self, method):
        # it used to be accepted and ignored, and the CLI reported it as "m"
        for m in (3, 0, True):
            with pytest.raises(DomainError,
                               match=re.escape(f"method {method!r} takes no block size, "
                                               f"got {m!r}")):
                estimator(method, m)
        estimator(method, None)

    @pytest.mark.parametrize("method", ["kendall", "block", "bootstrap", "unbiased"])
    def test_estimator_refuses_jackknife_outside_mvlog(self, method):
        # it used to be ignored, so the plain estimate came back
        with pytest.raises(DomainError, match=f"'mvlog' only, not '{method}'"):
            estimator(method, 2, jackknife=True)
        x = np.round(np.random.default_rng(3).standard_normal((1, 20, 2)), 1)
        assert (estimator("mvlog", jackknife=True)(x)["estimate"]
                == ecp_multivariate_log(x, jackknife=True))

    def test_single_sample_is_the_one_replicate_case(self):
        g = np.random.default_rng(41)
        data = np.round(g.standard_normal((4, 30, 2)), 1)
        for r, x in enumerate(data):
            assert sample_cp_block(x, 3) == sample_cp_block(data, 3)[r]
            assert sample_cp_bootstrap(x, 3) == sample_cp_bootstrap(data, 3)[r]
            assert sample_cp_unbiased(x, 3).value == sample_cp_unbiased(data, 3).value[r]
            assert sample_cp_unbiased(x, 3).clipped == sample_cp_unbiased(data, 3).clipped[r]
            assert np.array_equal(dominance_counts(x), dominance_counts(data)[r])
            assert ecp_multivariate_log(x) == ecp_multivariate_log(data)[r]
            assert (ecp_multivariate_log(x, jackknife=True)
                    == ecp_multivariate_log(data, jackknife=True)[r])


class TestUnbiasedness:
    def test_replicate_means_hit_p(self):
        # unbiased modification and Kendall tau are unbiased on max-stable data
        reps, n, m, p = 800, 100, 10, 0.5
        data = logistic_data(0.5, 2, reps * n, seed=31).reshape(reps, n, 2)
        unbiased = sample_cp_unbiased(data, m).value
        tau = ecp_kendall(data).estimate
        for est in (unbiased, tau):
            se = est.std(ddof=1) / math.sqrt(reps)
            assert abs(est.mean() - p) < 3 * se


class TestCltSanity:
    def test_standardized_block_estimator_normality(self):
        reps, n, m = 300, 10_000, 20
        p_m = 0.5 + 0.5 / m
        data = logistic_data(0.5, 2, reps * n, seed=21).reshape(reps, n, 2)
        est = sample_cp_block(data, m)
        z = (est - p_m) / math.sqrt(p_m * (1 - p_m) / (n // m))
        p_value = scipy.stats.kstest(z, "norm").pvalue
        assert p_value > 0.01
