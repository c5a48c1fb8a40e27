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

Each estimator is one function of a (reps, n, k) stack of samples that
holds its formula and input checks and returns one value per replicate;
``ESTIMATORS`` names them, and the single-sample functions (``ecp_kendall``,
``sample_cp_block``, ...) are their one-replicate case.

Cost.  Every estimator except the block one reduces to one counting kernel,
``_below``: for each observation, how many others lie strictly below it at
every coordinate, per replicate of the stack.  One coordinate
costs a sort, O(n log n); a pair costs a sort and a bottom-up merge,
O(n log^2 n), from 352 observations on (Knight 1966); smaller pairs and
k >= 3 compare all pairs, O(k n^2), one contiguous column at a time, so
input memory layout does not matter, and sum each block of comparisons
as bytes into 16-bit counts (32-bit from n = 2^16).  The pair crossover
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

At n = 16 000 (2-core Xeon, Python 3.11, NumPy 2.4.6, best of 9)
``dominance_counts`` of a pair takes 0.011 s and ``ecp_kendall`` 0.013 s.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .concurrence import kendall_target_p
from .errors import CapabilityError, DomainError
from .models import ModelSpec
from .simulate import simulate_field_values
from .specfun import RngLike, _whole, as_generator, log_binom_ratio

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
        a = np.array(self.data, dtype=float, copy=True)
        if a.ndim != 2:
            raise DomainError("sample must be a 2-d (n, k) array")
        if a.shape[0] < 2 or a.shape[1] < 2:
            raise DomainError("sample needs n >= 2 observations and k >= 2 coordinates")
        if not np.all(np.isfinite(a)):
            raise DomainError("sample values must be finite")
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


def jitter_ties(sample: Sample, resolution: float, rng: RngLike) -> Sample:
    """Break measurement-resolution ties with seeded uniform (-res/2, res/2) noise.

    Meant for discretized data (e.g. temperatures recorded to 0.1 degrees);
    deterministic given the rng.
    """
    if not resolution > 0:
        raise DomainError("resolution must be positive")
    g = as_generator(rng)
    noise = g.uniform(-0.5 * resolution, 0.5 * resolution, size=sample.data.shape)
    return Sample(sample.data + noise, sample.names)


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
    for r0 in range(0, reps, step):
        c = cols[:, r0:r0 + step]
        for i0 in range(0, n, rows):
            ci = c[:, :, i0:i0 + rows, None]
            blk = before(c[0, :, None, :], ci[0])
            for j in range(1, len(c)):
                blk &= before(c[j, :, None, :], ci[j])
            out[r0:r0 + step, i0:i0 + rows] = blk.view(np.uint8).sum(axis=2, dtype=acc)
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


def _below_merge(xc, yc):
    reps, n = xc.shape
    # merge order: x ascending, equal x by y descending, so no earlier
    # observation with the same x has a smaller y; then l is below i exactly
    # when l comes first and has the smaller y rank.  Entries tied in this
    # order are equal observations, below neither each other nor in a
    # different relation to any third, so their order does not matter
    ry = _below_sorted(yc)
    order = np.argsort(_below_sorted(xc) * n + (n - 1 - ry), axis=1)
    # pad to a power of two with rank n, which is below nothing
    width = 1 << (n - 1).bit_length()
    rank = np.full((reps, width), n, dtype=np.int64)
    rank[:, :n] = np.take_along_axis(ry, order, axis=1)
    acc = np.zeros((reps, width), dtype=np.int64)
    half = 1
    while half < n:
        # each right half of a block of 2 * half positions counts the left
        # half's smaller ranks; blocks are numbered across replicates and
        # keys order by (block, rank), so block b's sorted left keys start
        # at b * half
        blocks = reps * width // (2 * half)
        base = np.arange(blocks)[:, None]
        view = rank.reshape(blocks, 2, half)
        left = np.sort(base * (n + 1) + view[:, 0], axis=None)
        hi = np.searchsorted(left, base * (n + 1) + view[:, 1])
        acc.reshape(blocks, 2, half)[:, 1] += hi - base * half
        half *= 2
    return _unsort(order, acc[:, :n])


# ---------------------------------------------------------------------------
# input checks shared by every estimator

def _as_stack(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 3 or x.shape[1] < 2 or x.shape[2] < 2:
        raise DomainError(f"expected a 3-d (reps, n, k) stack with n >= 2 and k >= 2, "
                          f"got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError("sample values must be finite")
    return x


def _one(data) -> np.ndarray:
    """A single sample, checked as a :class:`Sample`, as a one-replicate stack."""
    return (data if isinstance(data, Sample) else Sample(data)).data[None]


def _block_size(m, least: int, n: int) -> int:
    m = _whole(m, least, "block size")
    if m > n:
        raise DomainError(f"block size must be at most n = {n}, got {m}")
    return m


# ---------------------------------------------------------------------------
# dominance counts, block and bootstrap estimators

def dominance_counts_batch(data) -> np.ndarray:
    """d_i = #{l != i : X_l(s_j) < X_i(s_j) for every coordinate j}, per
    replicate of a (reps, n, k) stack."""
    return _below(_as_stack(data))


def dominance_counts(data) -> np.ndarray:
    """Dominance counts of one sample: :func:`dominance_counts_batch`."""
    return dominance_counts_batch(_one(data))[0]


def block_cp_batch(data, m: int) -> np.ndarray:
    """Share of the floor(n/m) disjoint blocks containing a dominator, per
    replicate of a (reps, n, k) stack.

    Unbiased for the m-observation sample concurrence probability p_m.
    m = 1 degenerately returns 1 (a singleton always dominates itself).
    """
    x = _as_stack(data)
    reps, n, k = x.shape
    m = _block_size(m, 1, n)
    nb = n // m
    blocks = x[:, : nb * m].reshape(reps, nb, m, k)
    # a block concurs when one row strictly dominates the others at every
    # coordinate: each coordinate's maximum is unique and one row holds all
    eq = blocks == blocks.max(axis=2, keepdims=True)
    return ((eq.sum(axis=2) == 1).all(axis=2) & eq.all(axis=3).any(axis=2)).mean(axis=1)


def sample_cp_block(data, m: int) -> float:
    """Block estimator of one sample: :func:`block_cp_batch`."""
    return float(block_cp_batch(_one(data), m)[0])


def bootstrap_cp_batch(data, m: int) -> np.ndarray:
    """Rao--Blackwellized block estimator sum_i C(d_i, m-1) / C(n, m), per
    replicate of a (reps, n, k) stack.

    Exact evaluation (via log-space binomial ratios) of the average of the
    block estimator over all n! orderings of the sample.
    """
    x = _as_stack(data)
    n = x.shape[1]
    return log_binom_ratio(_below(x), _block_size(m, 2, n), n).sum(axis=1)


def sample_cp_bootstrap(data, m: int) -> float:
    """Bootstrap estimator of one sample: :func:`bootstrap_cp_batch`."""
    return float(bootstrap_cp_batch(_one(data), m)[0])


@dataclass(frozen=True)
class UnbiasedEstimate:
    """Raw unbiased bivariate estimate plus a [0, 1]-clipped convenience value,
    per replicate for a stack."""

    value: float | np.ndarray
    clipped: float | np.ndarray


def unbiased_modification(star, m: int):
    """(m p*_m - 1) / (m - 1) of bootstrap estimates p*_m."""
    return (m * star - 1.0) / (m - 1.0)


def unbiased_cp_batch(data, m: int) -> UnbiasedEstimate:
    """The unbiased modification of the bootstrap estimator, per replicate of
    a (reps, n, 2) stack: unbiased for the extremal concurrence probability
    of a max-stable pair.  The identity is bivariate only; the raw value may
    be negative and is reported unclipped."""
    x = _as_stack(data)
    if x.shape[2] != 2:
        raise CapabilityError("the unbiased modification is only valid for pairs (k = 2)")
    value = unbiased_modification(bootstrap_cp_batch(x, m), m)
    return UnbiasedEstimate(value=value, clipped=np.clip(value, 0.0, 1.0))


def sample_cp_unbiased(data, m: int) -> UnbiasedEstimate:
    """Unbiased modification for one sample: :func:`unbiased_cp_batch`."""
    est = unbiased_cp_batch(_one(data), m)
    return UnbiasedEstimate(value=float(est.value[0]), clipped=float(est.clipped[0]))


# ---------------------------------------------------------------------------
# Kendall's tau with jackknife variance

@dataclass(frozen=True)
class KendallEstimate:
    """Kendall's tau and its jackknife stderr, per replicate for a stack."""

    estimate: float | np.ndarray
    stderr: float | np.ndarray
    n: int


def _kendall_rows(x: np.ndarray, ties: bool):
    """Kendall row sums sum_l sign(x_i - x_l) sign(y_i - y_l) for each
    observation of a (reps, n, 2) stack and, with ``ties``, the per-margin
    tie counts #{l != i : x_l = x_i} and #{l != i : y_l = y_i}."""
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
    d = _below(x)
    lx, gx = _smaller_larger(x[:, :, 0])
    ly, gy = _smaller_larger(x[:, :, 1])
    lxy, gxy = _smaller_larger(lx * n + ly)
    lyx = _below_sorted(ly * n + lx)
    rows = 2 * (2 * d - lx + lyx - ly) - (ly - gy) + (lxy - lx) - (gxy - gx)
    if not ties:
        return rows, None, None
    return rows, n - 1 - lx - gx, n - 1 - ly - gy


def kendall_batch(data, tie_adjusted: bool = False) -> KendallEstimate:
    """Kendall's tau with delete-one jackknife stderr, per replicate of a
    (reps, n, 2) stack.

    For max-stable pairs tau equals the extremal concurrence probability,
    so the statistic doubles as an unbiased concurrence estimator.  Tied
    comparisons contribute zero sign; with ``tie_adjusted`` the denominator
    drops tied pairs per margin (the tau-b convention of standard software,
    identical for continuous data), and a constant coordinate, for which
    that tau is 0/0, raises :class:`DomainError`, as does a row whose
    removal leaves a coordinate constant (its jackknife value is 0/0).
    The stderr is NaN when n < 3.
    """
    x = _as_stack(data)
    reps, n, k = x.shape
    if k != 2:
        raise CapabilityError("Kendall's tau is a pairwise statistic (k = 2)")
    rows, tie_x, tie_y = _kendall_rows(x, tie_adjusted)
    total = rows.sum(axis=1) / 2.0
    pairs_n = n * (n - 1) / 2.0
    pairs_loo = (n - 1) * (n - 2) / 2.0
    if tie_adjusted:
        tx, ty = tie_x.sum(axis=1), tie_y.sum(axis=1)
        for j, t in enumerate((tx, ty)):
            const = np.flatnonzero(t == n * (n - 1))
            if const.size:
                raise DomainError(f"replicate {const[0]}: coordinate {j} is constant, so "
                                  f"the tie-adjusted Kendall tau is 0/0")
        tau = total / np.sqrt((pairs_n - tx / 2.0) * (pairs_n - ty / 2.0))
        # untied pairs per margin once row i is left out
        loo_x = pairs_loo - (tx[:, None] - 2 * tie_x) / 2.0
        loo_y = pairs_loo - (ty[:, None] - 2 * tie_y) / 2.0
        for j, d in enumerate((loo_x, loo_y)):
            if n >= 3 and not d.all():
                r, i = np.argwhere(d == 0)[0]
                raise DomainError(f"replicate {r}: leaving out row {i} makes coordinate {j} "
                                  f"constant, so that delete-one tie-adjusted Kendall tau "
                                  f"is 0/0")
        pairs_loo = np.sqrt(loo_x * loo_y)
    else:
        tau = total / pairs_n
    if n < 3:
        return KendallEstimate(estimate=tau, stderr=np.full(reps, np.nan), n=n)
    loo = (total[:, None] - rows) / pairs_loo
    var = (n - 1) / n * ((loo - loo.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    return KendallEstimate(estimate=tau, stderr=np.sqrt(var), n=n)


def ecp_kendall(data, tie_adjusted: bool = False) -> KendallEstimate:
    """Kendall's tau of one pair sample: :func:`kendall_batch`."""
    est = kendall_batch(_one(data), tie_adjusted)
    return KendallEstimate(estimate=float(est.estimate[0]), stderr=float(est.stderr[0]), n=est.n)


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


def mvlog_batch(data, subset=None, jackknife: bool = False) -> np.ndarray:
    """Inclusion-exclusion estimator of p(s_j, j in subset) from log empirical
    CDFs, per replicate of a (reps, n, k) stack.

    Sums (-1)^{|J|} mean_i log F_hat_J(X_i) over nonempty J, where the
    empirical CDF includes the observation itself so every logarithm is
    finite.  ``jackknife=True`` returns the delete-one bias-reduced value,
    n p - (n-1) mean(p_loo).
    """
    x = _as_stack(data)
    reps, n, k = x.shape
    idx = list(range(k)) if subset is None else [_whole(j, 0, "subset index") for j in subset]
    if len(idx) < 2:
        raise DomainError("need at least two coordinates")
    if len(set(idx)) != len(idx) or max(idx) >= k:
        raise DomainError("subset indices out of range or repeated")
    if jackknife and n < 3:
        raise DomainError("jackknife needs n >= 3")
    x = x[:, :, idx]
    # each coordinate's counts serve every subset J that holds it
    above = [_below_sorted(-x[:, :, j]) for j in range(len(idx))]
    total = np.zeros(reps)
    for r in range(1, len(idx) + 1):
        sign = (-1.0) ** r
        for J in itertools.combinations(range(len(idx)), r):
            total += sign * _mean_log_ecdf(_at_most(x, J, above), jackknife)
    return total


def ecp_multivariate_log(data, subset=None, jackknife: bool = False) -> float:
    """Multivariate log estimator of one sample: :func:`mvlog_batch`."""
    return float(mvlog_batch(_one(data), subset, jackknife)[0])


# ---------------------------------------------------------------------------
# estimators by name

ESTIMATORS = {
    "kendall": kendall_batch,
    "block": block_cp_batch,
    "bootstrap": bootstrap_cp_batch,
    "unbiased": unbiased_cp_batch,
    "mvlog": mvlog_batch,
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
    if method not in ESTIMATORS:
        raise DomainError(f"unknown estimator method {method!r}; "
                          f"choose one of {tuple(ESTIMATORS)}")
    if jackknife and method != "mvlog":
        raise DomainError(f"the jackknife bias reduction applies to method 'mvlog' only, "
                          f"not {method!r}")
    fn = ESTIMATORS[method]
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


def block_mse(n: int, m: int, p: float, r: int = 1, c_r: float = 1.0) -> float:
    """MSE model (bias c_r/m^r)^2 + p_m (1 - p_m) / floor(n/m) for the block
    estimator, with p_m = p + c_r/m^r capped at 1."""
    if _whole(m, 1, "m") > _whole(n, 1, "n"):
        raise DomainError("need 1 <= m <= n")
    p_m = min(p + c_r / m ** r, 1.0)
    return (c_r / m ** r) ** 2 + p_m * (1.0 - p_m) / (n // m)


def optimal_block_size(n: int, p: float, r: int = 1, c_r: float = 1.0) -> BlockPlan:
    """Block size minimizing the asymptotic MSE of the block estimator:

        m = round({2 r c_r^2 n / (p (1 - p))}^{1 / (2 r + 1)}),

    clamped to [2, n].  The conservative defaults are r = 1, c_r = 1.
    Degenerate probabilities (p = 0 or 1) admit no optimal size.
    """
    n = _whole(n, 2, "n")
    if not 0.0 < p < 1.0:
        raise DomainError("the MSE-optimal block size requires 0 < p < 1")
    r = _whole(r, 1, "r")
    if not c_r > 0:
        raise DomainError("c_r must be positive")
    raw = (2.0 * r * c_r * c_r * n / (p * (1.0 - p))) ** (1.0 / (2 * r + 1))
    m = int(min(max(round(raw), 2), n))
    return BlockPlan(m=m, assumed_r=r, assumed_c_r=float(c_r), assumed_p=float(p),
                     predicted_mse=block_mse(n, m, float(p), r, float(c_r)))


# ---------------------------------------------------------------------------
# bias law

@dataclass(frozen=True)
class BiasLawRow:
    m: int
    mean_estimate: float
    theoretical: float


def simulate_pair_batch(model: ModelSpec, sites, reps: int, n: int,
                        rng: RngLike) -> np.ndarray:
    """(reps, n, k) stack of independent max-stable observations.

    Uses the model's exact construction when it has one (the positive-stable
    logistic) and the spectral simulator otherwise.
    """
    values = simulate_field_values(model, sites, reps * n, as_generator(rng))
    return values.reshape(reps, n, values.shape[1])


def bias_law_check(model: ModelSpec, sites, m_list, reps: int, n: int,
                   rng: RngLike) -> list[BiasLawRow]:
    """Replicate means of the block estimator against p + (1 - p)/m.

    Bivariate models with a known concurrence probability only; one shared
    batch of simulated data is reused across block sizes.
    """
    p = kendall_target_p(model, sites)
    data = simulate_pair_batch(model, sites, reps, n, rng)
    if data.shape[2] != 2:
        raise DomainError("the bias law check is bivariate")
    rows = []
    for m in m_list:
        est = block_cp_batch(data, m)
        rows.append(BiasLawRow(m=int(m), mean_estimate=float(est.mean()),
                               theoretical=p + (1.0 - p) / m))
    return rows
