"""Concurrence-probability estimators, block-size planning, and jackknife tools.

Estimation routes:

* block estimator -- frequency of a componentwise dominator among disjoint
  blocks of size m (unbiased for the m-sample concurrence probability p_m);
* bootstrap (Rao--Blackwellized) estimator -- the exact permutation average
  of the block estimator, computed from dominance counts and binomial
  coefficients, never by resampling;
* unbiased bivariate modification (m p* - 1)/(m - 1);
* Kendall's tau, which for max-stable pairs equals the extremal concurrence
  probability, with delete-one jackknife standard errors;
* a multivariate log/empirical-CDF estimator with optional jackknife bias
  reduction.

All estimators compare observations componentwise with strict inequalities,
so every output is invariant under strictly increasing per-coordinate
transformations; ties count as non-dominance and are flagged on the Sample.

Each estimator (``ESTIMATORS`` names the five) is one function that holds
its formula and input checks, as is ``dominance_counts``.  It takes an
(n, k) sample or :class:`Sample`, or a (reps, n, k) stack in one pass, and
keeps the leading axis: floats for one sample, arrays for a stack.

Cost.  Every estimator except the block one reduces to one counting kernel,
``_below``: for each observation, how many others lie strictly below it at
every coordinate, per replicate of the stack.  One coordinate
costs a sort, O(n log n); a pair costs a sort and a bottom-up merge,
O(n log^2 n), from 352 observations on (Knight 1966); smaller pairs and
k >= 3 compare all pairs, O(k n^2), one contiguous column at a time, so
input memory layout does not matter, and sum each block of comparisons
as bytes into 16-bit counts (32-bit from n = 2^16), the blocks spread over
the CPUs (``specfun._spread``).  The pair crossover
is a measured break-even size (see ``_MERGE_MIN_N``).  The sorts are
NumPy's default, unstable ones: each count depends only on where a tie
group starts and ends in sorted order, never on the order inside it, so
any order of tied entries gives the same integers.  Built on it:

* dominance counts (bootstrap, unbiased): one kernel call;
* Kendall's tau: one pair call, the counts d_i of observations below i in
  both coordinates, plus four sorts: each margin's smaller and larger
  counts (which give the tie counts of tau-b) and the lexicographic ranks
  of (x, y) and (y, x); each row sum is an integer combination of these;
  the delete-one jackknife is O(n) on top;
* the log estimator: each coordinate subset J needs the <= counts N_i; for
  |J| <= 2 they come by inclusion-exclusion from one sort per coordinate,
  shared by every J, and one merge per pair, for |J| >= 3 from one
  all-pairs pass, O(|J| n^2), so all J together cost O(k 2^(k-1) n^2); the
  jackknife adds O(n) per subset;
* the block estimator: O(n k), no kernel.

A study cell's bootstrap, unbiased and Kendall values share one kernel
call: ``_bootstrap`` and ``_kendall`` take the counts.

At n = 16 000 (2-core Xeon, Python 3.11, NumPy 2.4.6, best of 9)
``dominance_counts`` of a pair takes 0.011 s and ``ecp_kendall`` 0.013 s.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapabilityError, DomainError
from .specfun import _lookup, _real, _reals, _spread, _whole, log_binom_ratio

_PAIR_CHUNK = 1 << 18   # comparisons per block of the all-pairs path
# size from which the merge beats comparing all pairs (2-core Xeon, NumPy
# 2.4, best of 15): the break-even is ~450 for one sample and ~220 for 20
# or 200 replicates, and at 352 the path taken costs at most ~1.6x the
# faster one anywhere in between (merge/all-pairs 1.44 at (1, 352), 0.72
# at (20, 351), 0.65 at (200, 351)); counts are identical either way
_MERGE_MIN_N = 352


@dataclass(frozen=True)
class Sample:
    """n observations of k coordinates; ties are permitted but flagged."""

    data: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        a = np.array(_reals(self.data, "sample values"))
        if a.ndim != 2:
            raise DomainError("sample must be a 2-d (n, k) array")
        if a.shape[0] < 2 or a.shape[1] < 2:
            raise DomainError("sample needs n >= 2 observations and k >= 2 coordinates")
        if self.names is not None and len(self.names) != a.shape[1]:
            raise DomainError("names length must match the coordinate count")
        a.flags.writeable = False
        object.__setattr__(self, "data", a)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def k(self) -> int:
        return self.data.shape[1]

    @cached_property
    def has_ties(self) -> bool:
        for j in range(self.k):
            col = np.sort(self.data[:, j])
            if np.any(col[1:] == col[:-1]):
                return True
        return False


# ---------------------------------------------------------------------------
# the counting kernel

def _below(x: np.ndarray) -> np.ndarray:
    """For each observation i of a (reps, n, k) stack, #{l : x_l < x_i at
    every coordinate}.  The path depends on k and n only; the module
    docstring gives the costs.
    """
    n, k = x.shape[1:]
    if k == 1:
        return _below_sorted(x[:, :, 0])
    if k == 2 and n >= _MERGE_MIN_N:
        return _below_merge(x[:, :, 0], x[:, :, 1])
    return _below_direct(x)


def _below_direct(x, before=np.less):
    """All-pairs count of the l with before(x_l, x_i) at every coordinate;
    ``np.less_equal`` counts the l at or below i, i itself included."""
    reps, n, _ = x.shape
    cols = x.transpose(2, 0, 1).copy()
    out = np.empty((reps, n), dtype=np.int64)
    # a count is at most n, so bytes summed in 16 bits cannot overflow below
    # n = 2^16; a narrow accumulator sums ~5x faster than the default int64
    acc = np.uint16 if n < 1 << 16 else np.uint32
    rows = max(1, min(n, _PAIR_CHUNK // n))
    step = max(1, _PAIR_CHUNK // (rows * n))
    per_thread = threading.local()  # each thread's two comparison buffers

    def block(chunk):
        r0, i0 = chunk
        c = cols[:, r0:r0 + step]
        ci = c[:, :, i0:i0 + rows, None]
        if not hasattr(per_thread, "bufs"):
            per_thread.bufs = np.empty((2, step * rows * n), dtype=bool)
        shape = (c.shape[1], ci.shape[2], n)
        blk, cmp = (b[:math.prod(shape)].reshape(shape) for b in per_thread.bufs)
        before(c[0, :, None, :], ci[0], out=blk)
        for j in range(1, len(c)):
            blk &= before(c[j, :, None, :], ci[j], out=cmp)
        out[r0:r0 + step, i0:i0 + rows] = blk.view(np.uint8).sum(axis=2, dtype=acc)

    _spread(block, [(r0, i0) for r0 in range(0, reps, step) for i0 in range(0, n, rows)])
    return out


def _unsort(order, values):
    out = np.empty_like(values)
    np.put_along_axis(out, order, values, axis=1)
    return out


def _group_starts(s):
    """For rows sorted either way, the position where each entry's tie group
    starts: in ascending order the count of smaller values, in descending
    order the count of larger ones."""
    first = np.ones(s.shape, dtype=bool)
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    return np.maximum.accumulate(np.where(first, np.arange(s.shape[1]), 0), axis=1)


def _below_sorted(v):
    """#{l : v_l < v_i} for each entry of each row of v, from one sort."""
    order = np.argsort(v, axis=1)
    return _unsort(order, _group_starts(np.take_along_axis(v, order, axis=1)))


def _smaller_larger(v):
    """(#{l : v_l < v_i}, #{l : v_l > v_i}) for each entry of each row of v,
    from one sort."""
    order = np.argsort(v, axis=1)
    s = np.take_along_axis(v, order, axis=1)
    return _unsort(order, _group_starts(s)), _unsort(order, _group_starts(s[:, ::-1])[:, ::-1])


def _left_below(left: np.ndarray, right: np.ndarray, n: int) -> np.ndarray:
    """For (blocks, a) ranks ``left`` and (blocks, b) ranks ``right`` in
    [0, n), the count of each right rank's block's smaller left ranks.  Keys
    order by (block, rank), so block i's sorted left keys start at i * a."""
    base = np.arange(len(left))[:, None]
    keys = np.sort(base * (n + 1) + left, axis=None)
    return np.searchsorted(keys, base * (n + 1) + right) - base * left.shape[1]


def _below_merge(xc, yc):
    reps, n = xc.shape
    # merge order: x ascending, equal x by y descending, so no earlier
    # observation with the same x has a smaller y; then l is below i exactly
    # when l comes first and has the smaller y rank.  Entries tied in this
    # order are equal observations, below neither each other nor in a
    # different relation to any third, so their order does not matter
    ry = _below_sorted(yc)
    order = np.argsort(_below_sorted(xc) * n + (n - 1 - ry), axis=1)
    rank = np.take_along_axis(ry, order, axis=1)
    acc = np.zeros((reps, n), dtype=np.int64)
    half = 1
    while half < n:
        # each right half of a block of 2 * half positions counts the left
        # half's smaller ranks: the whole blocks of every row in one pass
        # (reshapes that split the position axis only, so views), then the
        # last, partial block of each row where it has a right half
        whole = n - n % (2 * half)
        if whole:
            blocks = rank[:, :whole].reshape(reps, -1, 2, half)
            acc[:, :whole].reshape(reps, -1, 2, half)[:, :, 1] += _left_below(
                blocks[:, :, 0].reshape(-1, half), blocks[:, :, 1].reshape(-1, half), n
            ).reshape(reps, -1, half)
        if n - whole > half:
            acc[:, whole + half:] += _left_below(rank[:, whole:whole + half],
                                                 rank[:, whole + half:], n)
        half *= 2
    return _unsort(order, acc)


# ---------------------------------------------------------------------------
# input checks shared by every estimator

def _as_stack(data) -> tuple[np.ndarray, bool]:
    """(x, one): a (reps, n, k) stack as it is, or an (n, k) sample or Sample,
    checked as a :class:`Sample` is, as a one-replicate stack with one true."""
    if not isinstance(data, Sample):
        x = _reals(data, "sample values")
        if x.ndim > 2:
            if x.ndim != 3 or x.shape[1] < 2 or x.shape[2] < 2:
                raise DomainError(f"expected a 3-d (reps, n, k) stack with n >= 2 and k >= 2, "
                                  f"got shape {x.shape}")
            return x, False
        data = Sample(x)
    return data.data[None], True


def _per_sample(values: np.ndarray, one: bool):
    """Per-replicate values, as a float for one sample."""
    return float(values[0]) if one else values


def _block_size(m, least: int, n: int) -> int:
    m = _whole(m, least, "block size")
    if m > n:
        raise DomainError(f"block size must be at most n = {n}, got {m}")
    return m


# ---------------------------------------------------------------------------
# dominance counts, block and bootstrap estimators

def dominance_counts(data) -> np.ndarray:
    """d_i = #{l != i : X_l(s_j) < X_i(s_j) for every coordinate j}: an (n,)
    array for one sample, (reps, n) for a stack."""
    x, one = _as_stack(data)
    d = _below(x)
    return d[0] if one else d


def sample_cp_block(data, m: int) -> float | np.ndarray:
    """Share of the floor(n/m) disjoint blocks containing a dominator.

    Unbiased for the m-observation sample concurrence probability p_m.
    m = 1 degenerately returns 1 (a singleton always dominates itself).
    """
    x, one = _as_stack(data)
    reps, n, k = x.shape
    m = _block_size(m, 1, n)
    nb = n // m
    blocks = x[:, : nb * m].reshape(reps, nb, m, k)
    # a block concurs when one row strictly dominates the others at every
    # coordinate: each coordinate's maximum is unique and one row holds all
    eq = blocks == blocks.max(axis=2, keepdims=True)
    share = ((eq.sum(axis=2) == 1).all(axis=2) & eq.all(axis=3).any(axis=2)).mean(axis=1)
    return _per_sample(share, one)


def sample_cp_bootstrap(data, m: int) -> float | np.ndarray:
    """Rao--Blackwellized block estimator sum_i C(d_i, m-1) / C(n, m).

    Exact evaluation (via log-space binomial ratios) of the average of the
    block estimator over all n! orderings of the sample.
    """
    x, one = _as_stack(data)
    return _per_sample(_bootstrap(_below(x), m), one)


def _bootstrap(d: np.ndarray, m: int) -> np.ndarray:
    """:func:`sample_cp_bootstrap` of a stack, from its (reps, n) dominance
    counts d."""
    n = d.shape[1]
    return log_binom_ratio(d, _block_size(m, 2, n), n).sum(axis=1)


@dataclass(frozen=True)
class UnbiasedEstimate:
    """Raw unbiased bivariate estimate plus a [0, 1]-clipped convenience value,
    per replicate for a stack."""

    value: float | np.ndarray
    clipped: float | np.ndarray


def unbiased_modification(star, m: int):
    """(m p*_m - 1) / (m - 1) of bootstrap estimates p*_m."""
    return (m * star - 1.0) / (m - 1.0)


def sample_cp_unbiased(data, m: int) -> UnbiasedEstimate:
    """The unbiased modification of the bootstrap estimator of a pair sample
    (k = 2): unbiased for the extremal concurrence probability of a
    max-stable pair.  The identity is bivariate only; the raw value may be
    negative and is reported unclipped."""
    x, one = _as_stack(data)
    if x.shape[2] != 2:
        raise CapabilityError("the unbiased modification is only valid for pairs (k = 2)")
    value = unbiased_modification(_bootstrap(_below(x), m), m)
    return UnbiasedEstimate(value=_per_sample(value, one),
                            clipped=_per_sample(np.clip(value, 0.0, 1.0), one))


# ---------------------------------------------------------------------------
# Kendall's tau with jackknife variance

@dataclass(frozen=True)
class KendallEstimate:
    """Kendall's tau and its jackknife stderr, per replicate for a stack."""

    estimate: float | np.ndarray
    stderr: float | np.ndarray
    n: int


def _kendall_rows(x: np.ndarray, d: np.ndarray, ties: bool):
    """Kendall row sums sum_l sign(x_i - x_l) sign(y_i - y_l) for each
    observation of a (reps, n, 2) stack with dominance counts d and, with
    ``ties``, the per-margin tie counts #{l != i : x_l = x_i} and
    #{l != i : y_l = y_i}."""
    n = x.shape[1]
    # d = #{l : x_l < x_i, y_l < y_i} is the one pair count.  lx, gx (ly, gy)
    # count the l with smaller and larger x (y), and lxy, gxy (lyx) the l
    # before and after i in the lexicographic order of (x, y) (of (y, x)),
    # here of the exact integer keys of the margin ranks.  So lxy - lx,
    # gxy - gx and lyx - ly count the l tied with i in one margin and below
    # or above it in the other, and the other quadrants are
    #   #{x_l < x_i, y_l > y_i} = lx - d - (lyx - ly)
    #   #{x_l > x_i, y_l < y_i} = ly - d - (lxy - lx)
    #   #{x_l > x_i, y_l > y_i} = gy - #{x_l < x_i, y_l > y_i} - (gxy - gx);
    # the row sum is the concordant first and last less the discordant two
    lx, gx = _smaller_larger(x[:, :, 0])
    ly, gy = _smaller_larger(x[:, :, 1])
    lxy, gxy = _smaller_larger(lx * n + ly)
    lyx = _below_sorted(ly * n + lx)
    rows = 2 * (2 * d - lx + lyx - ly) - (ly - gy) + (lxy - lx) - (gxy - gx)
    if not ties:
        return rows, None, None
    return rows, n - 1 - lx - gx, n - 1 - ly - gy


def ecp_kendall(data, tie_adjusted: bool = False) -> KendallEstimate:
    """Kendall's tau with delete-one jackknife stderr of a pair sample (k = 2).

    For max-stable pairs tau equals the extremal concurrence probability,
    so the statistic doubles as an unbiased concurrence estimator.  Tied
    comparisons contribute zero sign; with ``tie_adjusted`` the denominator
    drops tied pairs per margin (the tau-b convention of standard software,
    identical for continuous data), and a constant coordinate, for which
    that tau is 0/0, raises :class:`DomainError`, as does a row whose
    removal leaves a coordinate constant (its jackknife value is 0/0).
    The stderr is NaN when n < 3.
    """
    x, one = _as_stack(data)
    if x.shape[2] != 2:
        raise CapabilityError("Kendall's tau is a pairwise statistic (k = 2)")
    tau, rows, ties = _kendall(x, _below(x), tie_adjusted)
    return KendallEstimate(estimate=_per_sample(tau, one),
                           stderr=_per_sample(_kendall_stderr(rows, ties), one), n=x.shape[1])


def _kendall(x: np.ndarray, d: np.ndarray, tie_adjusted: bool):
    """The tau of :func:`ecp_kendall` per replicate of a checked (reps, n, 2)
    stack x with dominance counts d, and what :func:`_kendall_stderr` takes."""
    n = x.shape[1]
    rows, tie_x, tie_y = _kendall_rows(x, d, tie_adjusted)
    total = rows.sum(axis=1) / 2.0
    pairs_n = n * (n - 1) / 2.0
    if not tie_adjusted:
        return total / pairs_n, rows, None
    tx, ty = tie_x.sum(axis=1), tie_y.sum(axis=1)
    for j, t in enumerate((tx, ty)):
        const = np.flatnonzero(t == n * (n - 1))
        if const.size:
            raise DomainError(f"replicate {const[0]}: coordinate {j} is constant, so "
                              f"the tie-adjusted Kendall tau is 0/0")
    return total / np.sqrt((pairs_n - tx / 2.0) * (pairs_n - ty / 2.0)), rows, (tie_x, tie_y)


def _kendall_stderr(rows: np.ndarray, ties) -> np.ndarray:
    """The delete-one jackknife stderr of :func:`_kendall`'s tau; NaN when n < 3."""
    reps, n = rows.shape
    if n < 3:
        return np.full(reps, np.nan)
    pairs_loo = (n - 1) * (n - 2) / 2.0
    if ties is not None:
        # untied pairs per margin once row i is left out
        loo_x, loo_y = (pairs_loo - (t.sum(axis=1)[:, None] - 2 * t) / 2.0 for t in ties)
        for j, d in enumerate((loo_x, loo_y)):
            if not d.all():
                r, i = np.argwhere(d == 0)[0]
                raise DomainError(f"replicate {r}: leaving out row {i} makes coordinate {j} "
                                  f"constant, so that delete-one tie-adjusted Kendall tau "
                                  f"is 0/0")
        pairs_loo = np.sqrt(loo_x * loo_y)
    loo = (rows.sum(axis=1)[:, None] / 2.0 - rows) / pairs_loo
    return np.sqrt((n - 1) / n * ((loo - loo.mean(axis=1, keepdims=True)) ** 2).sum(axis=1))


# ---------------------------------------------------------------------------
# multivariate log estimator

def _at_most(x: np.ndarray, J: tuple[int, ...], above: list[np.ndarray]) -> np.ndarray:
    """For each observation i of a (reps, n, k) stack, N_i = #{l : x_l <= x_i
    at every coordinate of J} (i itself included), given each coordinate's
    counts above[j] = #{l : x_l > x_i at j}.

    For |J| <= 2, inclusion-exclusion: the complement of "x_l <= x_i
    everywhere" is "x_l > x_i somewhere", so N_i = n - sum_j above_j, plus
    for a pair #{l : x_l > x_i at both}.  For |J| >= 3 its top term alone is
    an all-pairs pass, so one such pass compares <= directly.
    """
    n = x.shape[1]
    if len(J) >= 3:
        return _below_direct(x[:, :, list(J)], np.less_equal)
    out = n - sum(above[j] for j in J)
    if len(J) == 2:
        out += _below(-x[:, :, list(J)])
    return out


def _mean_log_ecdf(counts: np.ndarray, jackknife: bool) -> np.ndarray:
    """T = mean_i log(N_i / n) per replicate of the (reps, n) self-inclusive
    joint empirical CDF counts N_i, or with ``jackknife`` its delete-one
    bias-reduced value n T - (n - 1) mean_l T_(l).

    Leaving l out lowers N_i by one exactly when X_l <= X_i, which holds
    for N_i - 1 of the l != i.  Summing over l first, the reduced value is
        mean_i [log N_i + (N_i - 1) log1p(1 / (N_i - 1))]
          - [log n + (n - 1) log1p(1 / (n - 1))],
    O(n) from the counts (N_i = 1 adds log 1 + 0), where forming the T_(l)
    and differencing would amplify their rounding n-fold.
    """
    n = counts.shape[1]
    logs = np.log(counts)
    if not jackknife:
        return logs.mean(axis=1) - math.log(n)
    m = counts - 1
    logs += m * np.log1p(1.0 / np.maximum(m, 1))
    return logs.mean(axis=1) - (math.log(n) + (n - 1) * math.log1p(1.0 / (n - 1)))


def ecp_multivariate_log(data, *, jackknife: bool = False) -> float | np.ndarray:
    """Inclusion-exclusion estimator of p(s_1, ..., s_k) from log empirical
    CDFs; ``x[..., cols]`` estimates it for a subset of the sites.

    Sums (-1)^{|J|} mean_i log F_hat_J(X_i) over nonempty J, where the
    empirical CDF includes the observation itself so every logarithm is
    finite.  ``jackknife=True`` returns the delete-one bias-reduced value,
    n p - (n-1) mean(p_loo).
    """
    x, one = _as_stack(data)
    reps, n, k = x.shape
    if jackknife and n < 3:
        raise DomainError("jackknife needs n >= 3")
    # each coordinate's counts serve every subset J that holds it
    above = [_below_sorted(-x[:, :, j]) for j in range(k)]
    total = np.zeros(reps)
    for r in range(1, k + 1):
        sign = (-1.0) ** r
        for J in itertools.combinations(range(k), r):
            total += sign * _mean_log_ecdf(_at_most(x, J, above), jackknife)
    return _per_sample(total, one)


# ---------------------------------------------------------------------------
# estimators by name

ESTIMATORS = {
    "kendall": ecp_kendall,
    "block": sample_cp_block,
    "bootstrap": sample_cp_bootstrap,
    "unbiased": sample_cp_unbiased,
    "mvlog": ecp_multivariate_log,
}
_LEAST_BLOCK = {"block": 1, "bootstrap": 2, "unbiased": 2}  # least block size by method


def estimator(method: str, block_size: int | None = None, jackknife: bool = False):
    """The named concurrence estimator as a function of a (reps, n, k) stack.

    It returns a dict of per-replicate arrays: ``estimate`` and ``stderr``
    (None when the estimator has none; ``unbiased`` adds ``clipped``).  An
    unknown name, or a block size that is missing or below the method's
    least (1 for ``block``, 2 otherwise), raises :class:`DomainError` here,
    before any data is seen, and so do a block size for ``kendall`` or
    ``mvlog``, which take none, and ``jackknife`` for a method other than
    ``mvlog``.
    """
    fn = _lookup(ESTIMATORS, method, "estimator method")
    if jackknife and method != "mvlog":
        raise DomainError(f"the jackknife bias reduction applies to method 'mvlog' only, "
                          f"not {method!r}")
    if method in _LEAST_BLOCK:
        if block_size is None:
            raise DomainError(f"method {method!r} requires a block size")
        fn = functools.partial(fn, m=_whole(block_size, _LEAST_BLOCK[method], "block size"))
    elif block_size is not None:
        raise DomainError(f"method {method!r} takes no block size, got {block_size!r}")
    elif method == "mvlog":
        fn = functools.partial(fn, jackknife=jackknife)

    def estimate(data) -> dict:
        out = fn(data)
        if isinstance(out, KendallEstimate):
            return {"estimate": out.estimate, "stderr": out.stderr}
        if isinstance(out, UnbiasedEstimate):
            return {"estimate": out.value, "clipped": out.clipped, "stderr": None}
        return {"estimate": out, "stderr": None}

    return estimate


# ---------------------------------------------------------------------------
# block-size planning

@dataclass(frozen=True)
class BlockPlan:
    """Planned block size with the assumptions behind it and the implied MSE."""

    m: int
    assumed_r: int
    assumed_c_r: float
    assumed_p: float
    predicted_mse: float


def _quotient(x: float, k: int) -> float:
    """x / k, rounded once also where k is past the floats."""
    try:
        return x / k
    except OverflowError:  # int too large to convert to float
        num, den = x.as_integer_ratio()
        return num / (den * k)


def block_mse(n: int, m: int, p: float, r: int = 1, c_r: float = 1.0) -> float:
    """MSE model (bias c_r/m^r)^2 + p_m (1 - p_m) / floor(n/m) for the block
    estimator, with p_m = p + c_r/m^r capped at 1."""
    m = _whole(m, 1, "m")
    n = _whole(n, m, "n")
    p, r, c_r = _real(p, "p", 0, 1, "[]"), _whole(r, 1, "r"), _real(c_r, "c_r", 0)
    # past 2^2100, m^r puts c_r < 2^1024 below half the least float
    bias = 0.0 if r * (m.bit_length() - 1) > 2100 else _quotient(c_r, m ** r)
    p_m = min(p + bias, 1.0)
    try:
        return bias ** 2 + _quotient(p_m * (1.0 - p_m), n // m)
    except OverflowError:  # a bias past 1e154
        return math.inf


def optimal_block_size(n: int, p: float, r: int = 1, c_r: float = 1.0) -> BlockPlan:
    """Block size minimizing the asymptotic MSE of the block estimator:

        m = round({2 r c_r^2 n / (p (1 - p))}^{1 / (2 r + 1)}),

    clamped to [2, n].  The conservative defaults are r = 1, c_r = 1.
    Degenerate probabilities (p = 0 or 1) admit no optimal size.
    """
    n, p = _whole(n, 2, "n"), _real(p, "p", 0, 1)
    r, c_r = _whole(r, 1, "r"), _real(c_r, "c_r", 0)
    try:
        raw = (2.0 * r * c_r * c_r * n / (p * (1.0 - p))) ** (1.0 / (2 * r + 1))
    except OverflowError:  # r or n past the floats: log raw, then raw as 2^e times a float
        log_raw = _quotient(math.log(2 * r * n) + 2.0 * math.log(c_r)
                            - math.log(p * (1.0 - p)), 2 * r + 1)
        e = max(0, int(log_raw / math.log(2.0)) - 1000)
        raw = round(math.exp(log_raw - e * math.log(2.0))) << e
    m = int(round(min(max(raw, 2.0), n)))
    return BlockPlan(m=m, assumed_r=r, assumed_c_r=c_r, assumed_p=p,
                     predicted_mse=block_mse(n, m, p, r, c_r))
