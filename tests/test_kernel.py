"""The sort-based counting kernel against the O(n^2) kernels it replaced.

The ``reference_*`` functions are the all-pairs estimator kernels as they
were before the counting kernel: they compare whole rows at once, with no
sort and no merge, so they serve as the slow oracle.  Integer counts and
the Kendall and log-ECDF statistics built from them must agree exactly;
the log estimator's jackknife, which the library forms in closed form from
the counts, agrees with the delete-one route to a stated rounding bound.
"""

import dataclasses
import itertools
import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from conftest import spread_workers
from hypothesis import given
from hypothesis import strategies as st

from concur import (
    DomainError,
    Sample,
    dominance_counts,
    ecp_kendall,
    ecp_multivariate_log,
    estimators,
    sample_cp_block,
    sample_cp_bootstrap,
    sample_cp_unbiased,
)
from concur.estimators import (
    _MERGE_MIN_N,
    _at_most,
    _below,
    _below_direct,
    _below_merge,
    _below_sorted,
    _kendall_rows,
    _mean_log_ecdf,
    _smaller_larger,
)
from concur.specfun import _spread

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


def reference_jackknife_term(xj, dtype=float):
    """n T - (n - 1) mean_l T_(l) of T = mean_i log(N_i / n) by the delete-one
    route: leaving l out drops log N_l and turns log N_i into log(N_i - 1)
    for each other i with X_l <= X_i, so
        T_(l) = [sum_i log N_i - log N_l - sum_{i != l, X_l <= X_i} w_i] / (n - 1)
                - log(n - 1),  w_i = log N_i - log(N_i - 1),
    evaluated in ``dtype``."""
    n = xj.shape[0]
    counts = reference_le_counts(xj)
    logs = np.log(counts.astype(dtype))
    w = logs - np.log(np.maximum(counts - 1, 1).astype(dtype))
    # ge[l, i] is X_i >= X_l componentwise; the diagonal is taken back out
    ge = (xj[None, :, :] >= xj[:, None, :]).all(axis=-1)
    t_full = logs.mean() - np.log(dtype(n))
    t_loo = (logs.sum() - logs - (ge @ w - w)) / dtype(n - 1) - np.log(dtype(n - 1))
    return n * t_full - (n - 1) * t_loo.mean()


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


@st.composite
def zero_massed_pairs(draw):
    """(reps, n, 2) stacks, reps > 1, of c max(W, 0)^nu for correlated
    normal W, the extremal-t profiles ``simulate_doa`` returns with n0 = 1:
    about half of each margin, and often both at once, is exactly 0."""
    reps = draw(st.integers(2, 4))
    n = draw(SIZES)
    rho = draw(st.floats(-0.95, 0.95))
    nu = draw(st.sampled_from([0.5, 1.0, 3.0]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = g.standard_normal((reps, n, 2))
    w[..., 1] = rho * w[..., 0] + math.sqrt(1.0 - rho * rho) * w[..., 1]
    return draw(st.floats(0.1, 10.0)) * np.maximum(w, 0.0) ** nu


KENDALL_STACKS = st.one_of(tied_stacks(ks=(2,)), zero_massed_pairs())


class TestCountingKernel:
    @given(tied_stacks(ks=(1, 2, 3)))
    def test_counts_match_reference(self, x):
        assert np.array_equal(_below(x), reference_dominance_counts_batch(x))

    @given(tied_stacks(ks=(1, 2, 3)), st.integers(0, 2**32 - 1))
    def test_counts_follow_a_permutation_of_the_rows(self, x, seed):
        # the sorts are unstable, so tied rows may come out of them in any
        # order; every count must still follow the rows it belongs to
        perm = np.random.default_rng(seed).permutation(x.shape[1])
        y = x[:, perm]
        assert np.array_equal(_below(y), _below(x)[:, perm])
        for j in range(x.shape[2]):
            assert np.array_equal(_below_sorted(y[:, :, j]), _below_sorted(x[:, :, j])[:, perm])
            for got, want in zip(_smaller_larger(y[:, :, j]), _smaller_larger(x[:, :, j])):
                assert np.array_equal(got, want[:, perm])
        if x.shape[2] == 2:
            for got, want in zip(_kendall_rows(y, _below(y), ties=True),
                                 _kendall_rows(x, _below(x), ties=True)):
                assert np.array_equal(got, want[:, perm])
        above_x = [_below_sorted(-x[:, :, j]) for j in range(x.shape[2])]
        above_y = [_below_sorted(-y[:, :, j]) for j in range(x.shape[2])]
        for r in range(1, x.shape[2] + 1):
            for J in itertools.combinations(range(x.shape[2]), r):
                assert np.array_equal(_at_most(y, J, above_y), _at_most(x, J, above_x)[:, perm])

    def test_all_pairs_counts_past_two_bytes(self):
        # counts are summed in 16 bits below n = 2^16 and in 32 from there:
        # a comonotone pair just past it has every count from 0 to n - 1
        n = (1 << 16) + 64
        x = np.repeat(np.arange(n, dtype=float)[None, :, None], 2, axis=2)
        assert np.array_equal(_below_direct(x)[0], np.arange(n))

    @given(tied_stacks(sizes=st.integers(1, 70)))
    def test_merge_and_sort_at_small_n(self, x):
        # small n leaves the merge's blocks short and often partial
        x2 = x[:, :, :2]
        ref = reference_dominance_counts_batch(x2)
        for got in (_below_direct(x2), _below_merge(x2[..., 0], x2[..., 1])):
            assert np.array_equal(got, ref)
        ref1 = reference_dominance_counts_batch(x[:, :, :1])
        assert np.array_equal(_below_sorted(x[:, :, 0]), ref1)

    @given(tied_stacks(ks=(2,), sizes=st.sampled_from([352, 353, 511, 513, 5000])))
    def test_merge_of_a_partial_last_block(self, x):
        # past a power of two the last block of a merge level is partial;
        # it is merged as it is, without padding the row to a power of two
        assert np.array_equal(_below_merge(x[..., 0], x[..., 1]), _below_direct(x))

    @given(tied_stacks())
    def test_dominance_counts(self, x):
        assert np.array_equal(dominance_counts(x), reference_dominance_counts_batch(x))
        assert np.array_equal(dominance_counts(x[0]), reference_dominance_counts(x[0]))

    @given(KENDALL_STACKS)
    def test_kendall_rows_and_ties(self, x):
        rows, tie_x, tie_y = _kendall_rows(x, _below(x), ties=True)
        for r in range(x.shape[0]):
            ref_rows, ref_tx, ref_ty = reference_kendall_rows(x[r, :, 0], x[r, :, 1])
            assert np.array_equal(rows[r], ref_rows)
            assert np.array_equal(tie_x[r], ref_tx)
            assert np.array_equal(tie_y[r], ref_ty)

    @given(KENDALL_STACKS, st.booleans())
    def test_kendall_statistics_identical(self, x, tie_adjusted):
        n = x.shape[1]
        top = max(np.unique(c, return_counts=True)[1].max() for r in x for c in r.T)
        if tie_adjusted and (top == n or (n >= 3 and top == n - 1)):
            # a constant coordinate makes tau-b 0/0, and so does leaving out
            # the odd row when all the others share a value
            with pytest.raises(DomainError, match="constant"):
                ecp_kendall(x, tie_adjusted)
            return
        got = ecp_kendall(x, tie_adjusted)
        assert np.array_equal(got.estimate, reference_kendall_batch(x, tie_adjusted))
        for r in range(x.shape[0]):
            tau, stderr = reference_ecp_kendall(x[r], tie_adjusted)
            assert got.estimate[r] == tau
            assert got.stderr[r] == stderr or (math.isnan(got.stderr[r]) and math.isnan(stderr))
        # a single sample is the one-replicate case, bit for bit
        one = ecp_kendall(x[-1], tie_adjusted)
        assert one.n == n
        assert np.array_equal([one.estimate, one.stderr], [got.estimate[-1], got.stderr[-1]],
                              equal_nan=True)

    @given(tied_stacks(ks=(2, 3, 4)))
    def test_log_ecdf_passes(self, x):
        reps, n, k = x.shape
        above = [_below_sorted(-x[:, :, j]) for j in range(k)]
        # both routes sum n logarithms of at most log n, and the delete-one
        # route scales its rounding by n through n T - (n - 1) mean T_(l)
        tol = 8 * n * (1 + math.log(n)) * np.finfo(float).eps
        for r in range(1, k + 1):
            for J in itertools.combinations(range(k), r):
                counts = _at_most(x, J, above)
                plain = _mean_log_ecdf(counts, False)
                jack = _mean_log_ecdf(counts, True)
                for i in range(reps):
                    xj = x[i][:, list(J)]
                    ref = reference_le_counts(xj)
                    assert np.array_equal(counts[i], ref)
                    assert plain[i] == np.log(ref).mean() - math.log(n)
                    assert abs(jack[i] - reference_jackknife_term(xj)) <= tol

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble is no wider than float64 here")
    def test_jackknife_against_extended_precision(self):
        # the delete-one route in 64-bit-mantissa arithmetic from the same
        # integer counts: its n-fold amplified rounding stays near 1e-16
        g = np.random.default_rng(23)
        x = np.round(g.standard_normal((2000, 3)) / 0.05) * 0.05
        ref = sum((-1) ** len(J) * reference_jackknife_term(x[:, list(J)], np.longdouble)
                  for r in range(1, 4) for J in itertools.combinations(range(3), r))
        got = ecp_multivariate_log(x, jackknife=True)
        assert abs(np.longdouble(got) - ref) <= 1e-14


def assert_replicate(one, stack, r):
    """``one``, an estimator's result on one sample, is replicate r of its
    result on a stack, bit for bit: float fields for per-replicate arrays,
    an (n,) array for a (reps, n) one, and equal ints and types otherwise."""
    if dataclasses.is_dataclass(one):
        assert type(one) is type(stack)
        for field in dataclasses.fields(one):
            assert_replicate(getattr(one, field.name), getattr(stack, field.name), r)
    elif type(one) is float:
        assert type(stack) is np.ndarray and stack.dtype == np.float64
        assert np.float64(one).tobytes() == stack[r].tobytes()
    elif type(one) is np.ndarray:
        assert type(stack) is np.ndarray and one.dtype == stack.dtype
        assert np.array_equal(one, stack[r])
    else:
        assert type(one) is int and type(stack) is int and one == stack


class TestOneSampleOrStack:
    @given(tied_stacks(ks=(2, 3)))
    def test_a_sample_is_its_replicate_of_a_stack(self, x):
        reps, n, k = x.shape
        m = min(3, n)
        calls = {"dominance": dominance_counts,
                 "block": lambda d: sample_cp_block(d, m),
                 "bootstrap": lambda d: sample_cp_bootstrap(d, m),
                 "mvlog": ecp_multivariate_log}
        if n >= 3:
            calls["mvlog_jackknife"] = lambda d: ecp_multivariate_log(d, jackknife=True)
        if k == 2:
            calls["unbiased"] = lambda d: sample_cp_unbiased(d, m)
            calls["kendall"] = ecp_kendall
            top = max(np.unique(c, return_counts=True)[1].max() for r in x for c in r.T)
            if top < n - 1:  # no replicate's tau-b or its jackknife is 0/0
                calls["kendall_b"] = lambda d: ecp_kendall(d, tie_adjusted=True)
        for fn in calls.values():
            stack = fn(x)
            for r in range(reps):
                assert_replicate(fn(x[r]), stack, r)
                assert_replicate(fn(Sample(x[r])), stack, r)


class TestSpread:
    @given(tied_stacks(ks=(2, 3)), st.sampled_from([np.less, np.less_equal]),
           st.sampled_from([64, estimators._PAIR_CHUNK]))
    def test_all_pairs_counts_whatever_the_workers(self, x, before, chunk):
        # each chunk writes its own slice of the counts with the same ufunc
        # calls, so one worker, several and the machine's own count agree
        # bit for bit; a 64-comparison chunk makes dozens of chunks per stack
        if before is np.less:
            ref = reference_dominance_counts_batch(x)
        else:
            ref = np.stack([reference_le_counts(r) for r in x])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_PAIR_CHUNK", chunk)
            assert np.array_equal(_below_direct(x, before), ref)
            for workers in (1, 3):
                with spread_workers(workers):
                    assert np.array_equal(_below_direct(x, before), ref)

    def test_many_workers_switching_often(self):
        # eight workers, more than the cores, switching every microsecond:
        # a block writing outside its own slice would lose another's counts
        x = np.round(np.random.default_rng(4).standard_normal((3, 300, 3)) / 0.25) * 0.25
        ref = reference_dominance_counts_batch(x)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as mp, spread_workers(8):
                mp.setattr(estimators, "_PAIR_CHUNK", 600)
                caller = threading.Thread(target=lambda: got.append(_below_direct(x)),
                                          daemon=True)
                caller.start()
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive(), "the counts did not finish within 60 s"
        assert np.array_equal(got[0], ref)

    def test_a_producer_with_many_workers_switching_often(self):
        # eight workers, more than the cores, switching every microsecond:
        # the caller draws each item once and in order, and each drawn item
        # is consumed once, whichever thread takes it
        drawn, total = [], np.zeros(500)

        def draw(i):
            drawn.append(i)
            return i, np.full(100, float(i))

        def block(item):
            i, values = item
            total[i] += values.sum()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with spread_workers(8):
                caller = threading.Thread(target=_spread, args=(block, range(500), draw),
                                          daemon=True)
                caller.start()
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive(), "the items were not consumed within 60 s"
        assert drawn == list(range(500))
        assert np.array_equal(total, 100.0 * np.arange(500))

    def test_an_error_in_a_block_reaches_the_caller_with_its_type(self):
        # every block begun before the error has ended when it is raised;
        # inline, the blocks after it never begin
        began, ended = [], []

        def block(i):
            began.append(i)
            if i == 3:
                raise DomainError("block 3 failed")
            time.sleep(0.05)
            ended.append(i)

        for workers in (1, 2, 3):
            began.clear()
            ended.clear()
            with spread_workers(workers):
                with pytest.raises(DomainError, match="block 3 failed"):
                    _spread(block, range(8))
            assert 3 in began
            assert sorted(ended) == sorted(set(began) - {3})
            if workers == 1:
                assert began == [0, 1, 2, 3]

    def test_an_error_in_a_draw_reaches_the_caller_after_every_block(self):
        # the blocks of the items drawn before the failed draw end first,
        # no block begins after it, and no started thread is left running
        began, ended = [], []

        def draw(i):
            if i == 4:
                raise DomainError("draw 4 failed")
            return i

        def block(i):
            began.append(i)
            time.sleep(0.05)
            ended.append(i)

        for workers in (1, 2, 3):
            began.clear()
            ended.clear()
            with spread_workers(workers):
                with pytest.raises(DomainError, match="draw 4 failed"):
                    _spread(block, range(8), draw)
            assert not [t for t in threading.enumerate() if t.name.startswith("concur_")]
            assert sorted(ended) == sorted(began)
            assert set(began) <= {0, 1, 2, 3}
            if workers == 1:
                assert began == [0, 1, 2, 3]

    def test_the_drawn_backlog_stays_within_the_workers(self):
        # each started thread takes one block and holds it until the last
        # draw, so in between only the caller takes items back: drawn items
        # that no thread has taken never number more than W
        n = 30
        lock = threading.Lock()
        taken, backlog = [0], []
        release = threading.Event()
        caller = threading.current_thread()

        def draw(i):
            if i == workers:  # every started thread holds its block
                deadline = time.monotonic() + 30
                while taken[0] < workers - 1 and time.monotonic() < deadline:
                    time.sleep(0.001)
            with lock:
                backlog.append(i - taken[0])
            if i == n - 1:
                release.set()
            return i

        def block(i):
            with lock:
                taken[0] += 1
            if threading.current_thread() is not caller:
                assert release.wait(timeout=30)

        for workers in (1, 2, 3):
            taken[0] = 0
            backlog.clear()
            release.clear()
            with spread_workers(workers):
                _spread(block, range(n), draw)
            assert taken[0] == n
            # inline, each item is taken as soon as it is drawn
            assert max(backlog) == (workers if workers > 1 else 0)

    def test_a_nested_call_returns(self):
        # every outer block starts and joins its own inner threads, so no
        # call waits on threads that are busy with another
        inner = []

        def outer(i):
            _spread(lambda j: inner.append((i, j)), range(4))

        with spread_workers(2):
            caller = threading.Thread(target=_spread, args=(outer, range(2)), daemon=True)
            caller.start()
            caller.join(timeout=30)
        assert not caller.is_alive(), "nested _spread did not return"
        assert sorted(inner) == [(i, j) for i in range(2) for j in range(4)]

    def test_no_thread_outlives_the_call(self):
        # W - 1 threads, W = min(items, CPUs), run beside the caller while
        # its blocks run, and none is alive after the call
        for workers, items in ((1, 6), (2, 6), (3, 6), (3, 2)):
            seen = set()

            def block(i):
                time.sleep(0.01)
                seen.update(t for t in threading.enumerate() if t.name.startswith("concur_"))

            with spread_workers(workers):
                _spread(block, range(items))
            assert len(seen) == min(workers, items) - 1
            assert not any(t.is_alive() for t in seen)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_a_forked_child_spreads(self):
        # a child forked after a call has only the thread that forked it;
        # its own call starts the threads it needs
        x = np.round(np.random.default_rng(5).standard_normal((2, 200, 3)) / 0.25) * 0.25
        ref = reference_dominance_counts_batch(x)
        with pytest.MonkeyPatch.context() as mp, spread_workers(3):
            mp.setattr(estimators, "_PAIR_CHUNK", 600)
            assert np.array_equal(_below_direct(x), ref)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    code = 0 if np.array_equal(_below_direct(x), ref) else 2
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 60
            while (done := os.waitpid(pid, os.WNOHANG)) == (0, 0) and time.monotonic() < deadline:
                time.sleep(0.01)
            if done == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        assert done != (0, 0), "the forked child did not finish within 60 s"
        assert os.waitstatus_to_exitcode(done[1]) == 0
