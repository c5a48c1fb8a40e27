"""The sort-based counting kernel against the O(n^2) kernels it replaced.

The ``reference_*`` functions are the all-pairs estimator kernels as they
were before the counting kernel: they compare whole rows at once, with no
sort and no merge, so they serve as the slow oracle.  Integer counts and
the Kendall and log-ECDF statistics built from them must agree exactly;
weighted sums, which the kernel accumulates in another order, agree to a
tolerance set from the float64 epsilon.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from concur import dominance_counts, ecp_kendall
from concur.estimators import (
    _MERGE_MIN_N,
    _at_least,
    _below,
    _below_direct,
    _below_merge,
    _below_sorted,
    _kendall_rows,
    _mean_log_ecdf,
    dominance_counts_batch,
    kendall_batch,
)

_PAIR_CHUNK = 1 << 21


def reference_dominance_counts(x):
    n, k = x.shape
    d = np.empty(n, dtype=np.int64)
    step = max(1, _PAIR_CHUNK // max(1, n * k))
    for start in range(0, n, step):
        blk = x[start:min(n, start + step)]
        less = (x[None, :, :] < blk[:, None, :]).all(axis=-1)
        d[start:start + blk.shape[0]] = less.sum(axis=1)
    return d


def reference_dominance_counts_batch(data):
    reps, n, k = data.shape
    out = np.empty((reps, n), dtype=np.int64)
    step = max(1, _PAIR_CHUNK // max(1, n * n * k))
    for start in range(0, reps, step):
        blk = data[start:min(reps, start + step)]
        less = (blk[:, None, :, :] < blk[:, :, None, :]).all(axis=-1)
        out[start:start + blk.shape[0]] = less.sum(axis=2)
    return out


def reference_kendall_rows(x, y):
    """Row sums of sign products and per-margin tie counts."""
    n = x.size
    row_sums = np.empty(n)
    tie_x = np.empty(n)
    tie_y = np.empty(n)
    step = max(1, _PAIR_CHUNK // max(1, n))
    for start in range(0, n, step):
        stop = min(n, start + step)
        sx = np.sign(x[start:stop, None] - x[None, :])
        sy = np.sign(y[start:stop, None] - y[None, :])
        row_sums[start:stop] = (sx * sy).sum(axis=1)
        tie_x[start:stop] = (sx == 0).sum(axis=1) - 1
        tie_y[start:stop] = (sy == 0).sum(axis=1) - 1
    return row_sums, tie_x, tie_y


def reference_ecp_kendall(data, tie_adjusted=False):
    x, y = data[:, 0], data[:, 1]
    n = x.size
    row_sums, tie_x, tie_y = reference_kendall_rows(x, y)
    total = row_sums.sum() / 2.0

    def statistic(s_val, tx, ty, pairs):
        if not tie_adjusted:
            return s_val / pairs
        return s_val / math.sqrt((pairs - tx / 2.0) * (pairs - ty / 2.0))

    tau = statistic(total, tie_x.sum(), tie_y.sum(), n * (n - 1) / 2.0)
    if n < 3:
        return tau, float("nan")
    pairs_loo = (n - 1) * (n - 2) / 2.0
    loo = np.array([
        statistic(total - row_sums[i], tie_x.sum() - 2 * tie_x[i],
                  tie_y.sum() - 2 * tie_y[i], pairs_loo)
        for i in range(n)
    ]) if tie_adjusted else (total - row_sums) / pairs_loo
    var = (n - 1) / n * float(((loo - loo.mean()) ** 2).sum())
    return float(tau), math.sqrt(var)


def reference_kendall_batch(data, tie_adjusted=False):
    reps, n, _ = data.shape
    out = np.empty(reps)
    pairs_n = n * (n - 1)
    step = max(1, _PAIR_CHUNK // max(1, n * n))
    for start in range(0, reps, step):
        blk = data[start:min(reps, start + step)]
        sx = np.sign(blk[:, :, None, 0] - blk[:, None, :, 0])
        sy = np.sign(blk[:, :, None, 1] - blk[:, None, :, 1])
        s_val = (sx * sy).sum(axis=(1, 2)).astype(float)
        if tie_adjusted:
            tx = (sx == 0).sum(axis=(1, 2)) - n
            ty = (sy == 0).sum(axis=(1, 2)) - n
            out[start:start + blk.shape[0]] = s_val / np.sqrt(
                (pairs_n - tx).astype(float) * (pairs_n - ty))
        else:
            out[start:start + blk.shape[0]] = s_val / pairs_n
    return out


def reference_le_counts(xj):
    """N_i = #{l : X_l <= X_i componentwise}, the first log-ECDF pass."""
    n = xj.shape[0]
    counts = np.empty(n, dtype=np.int64)
    step = max(1, _PAIR_CHUNK // max(1, n * xj.shape[1]))
    for start in range(0, n, step):
        blk = xj[start:min(n, start + step)]
        le = (xj[None, :, :] <= blk[:, None, :]).all(axis=-1)
        counts[start:start + blk.shape[0]] = le.sum(axis=1)
    return counts


def reference_ge_sums(xj, w):
    """sum of w_l over {l : X_l >= X_i componentwise}, the second pass."""
    n = xj.shape[0]
    out = np.zeros(n)
    step = max(1, _PAIR_CHUNK // max(1, n * xj.shape[1]))
    for start in range(0, n, step):
        blk = xj[start:min(n, start + step)]
        ge = (xj[None, :, :] >= blk[:, None, :]).all(axis=-1)
        out[start:start + blk.shape[0]] = ge @ w
    return out


def reference_mean_log_ecdf(xj):
    n = xj.shape[0]
    counts = reference_le_counts(xj)
    logs = np.log(counts)
    w = logs - np.log(np.maximum(counts - 1, 1))
    dom_w_sum = reference_ge_sums(xj, w)
    t_full = float(logs.mean()) - math.log(n)
    t_loo = (float(logs.sum()) - logs - (dom_w_sum - w)) / (n - 1) - math.log(n - 1)
    return t_full, t_loo


def weighted_tol(x, w):
    """Float64 rounding bound for 2^k inclusion-exclusion terms of n weights."""
    return np.finfo(float).eps * 2 ** x.shape[-1] * x.shape[-2] * np.abs(w).sum()


# small n, and n on both sides of the pair crossover of the kernel
SIZES = st.one_of(st.integers(2, 80),
                  st.integers(_MERGE_MIN_N - 24, _MERGE_MIN_N + 24))


@st.composite
def tied_stacks(draw, ks=(2, 3), sizes=SIZES):
    """(reps, n, k) stacks rounded to a coarse grid, C- or Fortran-ordered."""
    reps = draw(st.integers(1, 3))
    n = draw(sizes)
    k = draw(st.sampled_from(ks))
    grid = draw(st.sampled_from([0.5, 0.25, 0.1]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.round(g.standard_normal((reps, n, k)) / grid) * grid
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    return x


class TestCountingKernel:
    @given(tied_stacks(ks=(1, 2, 3)), st.integers(0, 2**32 - 1))
    def test_counts_and_sums_match_reference(self, x, seed):
        ref = reference_dominance_counts_batch(x)
        assert np.array_equal(_below(x), ref)
        w = np.random.default_rng(seed).standard_normal(x.shape[:2])
        want = np.einsum("ril,rl->ri", (x[:, None] < x[:, :, None]).all(axis=-1), w)
        assert np.abs(_below(x, w) - want).max() <= weighted_tol(x, w)

    @given(tied_stacks(sizes=st.integers(1, 70)), st.integers(0, 2**32 - 1))
    def test_merge_and_sort_at_small_n(self, x, seed):
        # small n leaves the merge's blocks short and often partial
        x2 = x[:, :, :2]
        ref = reference_dominance_counts_batch(x2)
        w = np.random.default_rng(seed).standard_normal(x.shape[:2])
        want = np.einsum("ril,rl->ri", (x2[:, None] < x2[:, :, None]).all(axis=-1), w)
        for got in (_below_direct(x2, None), _below_merge(x2[..., 0], x2[..., 1], None)):
            assert np.array_equal(got, ref)
        for got in (_below_direct(x2, w), _below_merge(x2[..., 0], x2[..., 1], w)):
            assert np.abs(got - want).max() <= weighted_tol(x2, w)
        ref1 = reference_dominance_counts_batch(x[:, :, :1])
        assert np.array_equal(_below_sorted(x[:, :, 0], None), ref1)

    @given(tied_stacks())
    def test_dominance_counts(self, x):
        assert np.array_equal(dominance_counts_batch(x), reference_dominance_counts_batch(x))
        assert np.array_equal(dominance_counts(x[0]), reference_dominance_counts(x[0]))

    @given(tied_stacks(ks=(2,)))
    def test_kendall_rows_and_ties(self, x):
        rows, tie_x, tie_y = _kendall_rows(x, ties=True)
        for r in range(x.shape[0]):
            ref_rows, ref_tx, ref_ty = reference_kendall_rows(x[r, :, 0], x[r, :, 1])
            assert np.array_equal(rows[r], ref_rows)
            assert np.array_equal(tie_x[r], ref_tx)
            assert np.array_equal(tie_y[r], ref_ty)

    @given(tied_stacks(ks=(2,)), st.booleans())
    def test_kendall_statistics_identical(self, x, tie_adjusted):
        constant = (x == x[:, :1]).all(axis=1).any()
        if not (tie_adjusted and constant):
            assert np.array_equal(kendall_batch(x, tie_adjusted),
                                  reference_kendall_batch(x, tie_adjusted))
        sample = x[0]
        if tie_adjusted and (sample == sample[0]).all(axis=0).any():
            return
        with np.errstate(divide="ignore", invalid="ignore"):
            est = ecp_kendall(sample, tie_adjusted=tie_adjusted)
            tau, stderr = reference_ecp_kendall(sample, tie_adjusted)
        assert est.estimate == tau
        assert est.stderr == stderr or (math.isnan(est.stderr) and math.isnan(stderr))

    @given(tied_stacks(ks=(2, 3, 4)))
    def test_log_ecdf_passes(self, x):
        xj = x[0]
        n, k = xj.shape
        counts = _at_least(-xj[None])[0]
        assert np.array_equal(counts, reference_le_counts(xj))
        w = np.log(counts) - np.log(np.maximum(counts - 1, 1))
        got = _at_least(xj[None], w[None])[0]
        assert np.abs(got - reference_ge_sums(xj, w)).max() <= weighted_tol(xj, w)
        if n < 3:
            return
        t_full, t_loo = _mean_log_ecdf(xj, True)
        ref_full, ref_loo = reference_mean_log_ecdf(xj)
        assert t_full == ref_full
        assert np.abs(t_loo - ref_loo).max() <= 4 * weighted_tol(xj, w) / (n - 1)

