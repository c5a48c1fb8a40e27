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

Cost.  Every estimator except the block one reduces to one counting kernel,
``_below``: for each observation, how many others lie strictly below it at
every coordinate (optionally a weighted sum over them), with a leading
replicate axis so single samples and batches share it.  One coordinate
costs a sort, O(n log n); a pair costs a sort and a bottom-up merge,
O(n log^2 n), from 512 observations on (Knight 1966); smaller pairs and
k >= 3 compare all pairs, O(k n^2), one contiguous column at a time, so
input memory layout does not matter.  The pair crossover is a measured
break-even size (see ``_MERGE_MIN_N``).  Built on it:

* dominance counts (bootstrap, unbiased): one kernel call;
* Kendall's tau: four pair calls (concordant at (x, y) and (-x, -y),
  discordant at (x, -y) and (-x, y)), plus one-coordinate calls for the
  tie counts of tau-b; the delete-one jackknife is O(n) on top;
* the log estimator: each coordinate subset J needs the <= counts N_i and,
  for the jackknife, weighted >= sums; for |J| <= 2 both come by
  inclusion-exclusion over the nonempty subsets of J (sorts and one merge),
  for |J| >= 3 from one all-pairs pass, O(|J| n^2), so all J together cost
  O(k 2^(k-1) n^2);
* the block estimator: O(n k), no kernel.

At n = 16 000 (2-core Xeon, NumPy 2.4) ``dominance_counts`` of a pair takes
0.024 s and ``ecp_kendall`` 0.10 s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .concurrence import kendall_target_p
from .errors import CapabilityError, DomainError
from .models import ModelSpec
from .simulate import simulate_field_values
from .specfun import RngLike, as_generator, log_binom_ratio

_PAIR_CHUNK = 1 << 18   # comparisons per block of the all-pairs path
# size from which the merge beats comparing all pairs (2-core Xeon): the
# break-even is ~700 for one sample and ~300 for 200 replicates, and 512
# costs at most ~1.4x the faster path anywhere in between
_MERGE_MIN_N = 512


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

    def select(self, indices) -> "Sample":
        idx = list(indices)
        names = tuple(self.names[i] for i in idx) if self.names is not None else None
        return Sample(self.data[:, idx], names)


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


def _as_sample(data) -> Sample:
    return data if isinstance(data, Sample) else Sample(np.asarray(data, dtype=float))


# ---------------------------------------------------------------------------
# the counting kernel

def _below(x: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """For each observation i of a (reps, n, k) stack, #{l : x_l < x_i at
    every coordinate}, or with (reps, n) weights the sum of w_l over those l.
    The path depends on k and n only; the module docstring gives the costs.
    """
    n, k = x.shape[1:]
    if k == 1:
        return _below_sorted(x[:, :, 0], w)
    if k == 2 and n >= _MERGE_MIN_N:
        return _below_merge(x[:, :, 0], x[:, :, 1], w)
    return _below_direct(x, w)


def _below_direct(x, w, before=np.less):
    """All-pairs count (or weighted sum) of the l with before(x_l, x_i) at
    every coordinate; ``np.greater_equal`` counts the l at or above i."""
    reps, n, _ = x.shape
    cols = x.transpose(2, 0, 1).copy()
    out = np.empty((reps, n), dtype=np.int64 if w is None else float)
    rows = max(1, min(n, _PAIR_CHUNK // n))
    step = max(1, _PAIR_CHUNK // (rows * n))
    for r0 in range(0, reps, step):
        c = cols[:, r0:r0 + step]
        for i0 in range(0, n, rows):
            ci = c[:, :, i0:i0 + rows, None]
            blk = before(c[0, :, None, :], ci[0])
            for j in range(1, len(c)):
                blk &= before(c[j, :, None, :], ci[j])
            out[r0:r0 + step, i0:i0 + rows] = (blk.sum(axis=2) if w is None
                                               else (blk @ w[r0:r0 + step, :, None])[:, :, 0])
    return out


def _unsort(order, values):
    out = np.empty_like(values)
    np.put_along_axis(out, order, values, axis=1)
    return out


def _below_sorted(v, w):
    order = np.argsort(v, axis=1, kind="stable")
    s = np.take_along_axis(v, order, axis=1)
    first = np.ones(s.shape, dtype=bool)
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    # in sorted order, the count of smaller values is the tie group's start
    lo = np.maximum.accumulate(np.where(first, np.arange(s.shape[1]), 0), axis=1)
    if w is None:
        return _unsort(order, lo)
    cw = np.zeros((s.shape[0], s.shape[1] + 1))
    np.cumsum(np.take_along_axis(w, order, axis=1), axis=1, out=cw[:, 1:])
    return _unsort(order, np.take_along_axis(cw, lo, axis=1))


def _below_merge(xc, yc, w):
    reps, n = xc.shape
    # merge order: x ascending, equal x by y descending, so no earlier
    # observation with the same x has a smaller y; then l is below i exactly
    # when l comes first and has the smaller y rank
    ry = _below_sorted(yc, None)
    order = np.argsort(_below_sorted(xc, None) * n + (n - 1 - ry), axis=1, kind="stable")
    rank = np.take_along_axis(ry, order, axis=1)
    if w is not None:
        w = np.take_along_axis(w, order, axis=1)
    acc = np.zeros((reps, n), dtype=np.int64 if w is None else float)
    pos = np.arange(n)
    rep = np.arange(reps)[:, None]
    half = 1
    while half < n:
        # each right block of 2 * half positions counts the left block's
        # smaller ranks; keys sort by (replicate, block pair, rank)
        pair = pos // (2 * half)
        right = pos // half % 2 == 1
        left = ~right
        keys = (rep * (pair[-1] + 1) + pair) * n + rank
        left_keys = keys[:, left].ravel()
        sort = np.argsort(left_keys, kind="stable")
        hi = np.searchsorted(left_keys[sort], keys[:, right].ravel())
        # every left block before a right one is full, so its sorted keys
        # start at half * pair within the replicate's left keys
        lo = (rep * np.count_nonzero(left) + half * pair[right]).ravel()
        if w is None:
            acc[:, right] += (hi - lo).reshape(reps, -1)
        else:
            cw = np.zeros(left_keys.size + 1)
            np.cumsum(w[:, left].ravel()[sort], out=cw[1:])
            acc[:, right] += (cw[hi] - cw[lo]).reshape(reps, -1)
        half *= 2
    return _unsort(order, acc)


# ---------------------------------------------------------------------------
# dominance counts and block indicators

def dominance_counts(data) -> np.ndarray:
    """d_i = #{l != i : X_l(s_j) < X_i(s_j) for every coordinate j}."""
    return _below(_as_sample(data).data[None])[0]


def _block_indicators(blocks: np.ndarray) -> np.ndarray:
    """Concurrence indicator per block for (..., m, k) stacked blocks.

    A block is concurrent when one observation strictly dominates all the
    others at every coordinate: the per-coordinate maxima must be unique
    and attained by a single common row.
    """
    mx = blocks.max(axis=-2, keepdims=True)
    eq = blocks == mx
    unique = eq.sum(axis=-2) == 1
    full_row = eq.all(axis=-1)
    return unique.all(axis=-1) & full_row.any(axis=-1)


def sample_cp_block(data, m: int) -> float:
    """Share of the floor(n/m) disjoint blocks containing a dominator.

    Unbiased for the m-observation sample concurrence probability p_m.
    m = 1 degenerately returns 1 (a singleton always dominates itself).
    """
    s = _as_sample(data)
    m = int(m)
    if m < 1:
        raise DomainError("block size must be >= 1")
    if m > s.n:
        raise DomainError(f"block size {m} exceeds the sample size {s.n}")
    nb = s.n // m
    blocks = s.data[: nb * m].reshape(nb, m, s.k)
    return float(_block_indicators(blocks).mean())


def sample_cp_bootstrap(data, m: int) -> float:
    """Rao--Blackwellized block estimator: sum_i C(d_i, m-1) / C(n, m).

    Exact evaluation (via log-space binomial ratios) of the average of the
    block estimator over all n! orderings of the sample.
    """
    s = _as_sample(data)
    m = int(m)
    if m < 2:
        raise DomainError("block size must be >= 2")
    if m > s.n:
        raise DomainError(f"block size {m} exceeds the sample size {s.n}")
    d = dominance_counts(s)
    return float(np.asarray(log_binom_ratio(d, m, s.n)).sum())


@dataclass(frozen=True)
class UnbiasedEstimate:
    """Raw unbiased bivariate estimate plus a [0, 1]-clipped convenience value."""

    value: float
    clipped: float


def sample_cp_unbiased(data, m: int) -> UnbiasedEstimate:
    """(m p*_m - 1) / (m - 1): unbiased for the extremal concurrence
    probability of a max-stable pair.  The identity is bivariate only;
    the raw value may be negative and is reported unclipped."""
    s = _as_sample(data)
    if s.k != 2:
        raise CapabilityError("the unbiased modification is only valid for pairs (k = 2)")
    m = int(m)
    if m < 2:
        raise DomainError("block size must be >= 2")
    star = sample_cp_bootstrap(s, m)
    value = (m * star - 1.0) / (m - 1.0)
    return UnbiasedEstimate(value=value, clipped=min(max(value, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Kendall's tau with jackknife variance

@dataclass(frozen=True)
class KendallEstimate:
    estimate: float
    stderr: float
    n: int


_QUADRANTS = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
_CONCORDANT = np.array([1, 1, -1, -1])


def _kendall_rows(x: np.ndarray, ties: bool):
    """Kendall row sums sum_l sign(x_i - x_l) sign(y_i - y_l) for each
    observation of a (reps, n, 2) stack and, with ``ties``, the per-margin
    tie counts #{l != i : x_l = x_i} and #{l != i : y_l = y_i}."""
    reps, n, _ = x.shape
    # concordant pairs lie below at (x, y) or (-x, -y), discordant ones at
    # (x, -y) or (-x, y); a tie in either margin is neither
    c = _below((x[:, None] * _QUADRANTS[:, None]).reshape(4 * reps, n, 2))
    rows = _CONCORDANT @ c.reshape(reps, 4, n)
    if not ties:
        return rows, None, None
    # smaller and larger values per margin: columns x, y, -x, -y
    m = _below(np.concatenate([x, -x], axis=2).transpose(0, 2, 1).reshape(4 * reps, n, 1))
    m = m.reshape(reps, 4, n)
    return rows, n - 1 - m[:, 0] - m[:, 2], n - 1 - m[:, 1] - m[:, 3]


def _name_of(s: Sample, j: int) -> str:
    return f" ({s.names[j]!r})" if s.names is not None else ""


def ecp_kendall(data, tie_adjusted: bool = False) -> KendallEstimate:
    """Kendall's tau of a pair of coordinates with delete-one jackknife stderr.

    For max-stable pairs tau equals the extremal concurrence probability,
    so the statistic doubles as an unbiased concurrence estimator.  Tied
    comparisons contribute zero sign; with ``tie_adjusted`` the denominator
    drops tied pairs per margin (the tau-b convention of standard software,
    identical for continuous data), and a constant coordinate, for which
    that tau is 0/0, raises :class:`DomainError`, as does a row whose
    removal leaves a coordinate constant (its jackknife value is 0/0).
    The stderr is NaN when n < 3.
    """
    s = _as_sample(data)
    if s.k != 2:
        raise CapabilityError("Kendall's tau is a pairwise statistic (k = 2)")
    n = s.n
    rows, tie_x, tie_y = _kendall_rows(s.data[None], tie_adjusted)
    rows = rows[0]
    total = rows.sum() / 2.0
    pairs_n = n * (n - 1) / 2.0
    pairs_loo = (n - 1) * (n - 2) / 2.0
    if tie_adjusted:
        tie_x, tie_y = tie_x[0], tie_y[0]
        tx, ty = tie_x.sum(), tie_y.sum()
        for j, t in enumerate((tx, ty)):
            if t == n * (n - 1):
                raise DomainError(f"coordinate {j}{_name_of(s, j)} is constant, so the "
                                  f"tie-adjusted Kendall tau is 0/0")
        tau = total / math.sqrt((pairs_n - tx / 2.0) * (pairs_n - ty / 2.0))
        # untied pairs per margin once row i is left out
        loo_x = pairs_loo - (tx - 2 * tie_x) / 2.0
        loo_y = pairs_loo - (ty - 2 * tie_y) / 2.0
        for j, d in enumerate((loo_x, loo_y)):
            if n >= 3 and not d.all():
                raise DomainError(f"leaving out row {int(np.argmin(d))} makes coordinate "
                                  f"{j}{_name_of(s, j)} constant, so that delete-one "
                                  f"tie-adjusted Kendall tau is 0/0")
        pairs_loo = np.sqrt(loo_x * loo_y)
    else:
        tau = total / pairs_n
    if n < 3:
        return KendallEstimate(estimate=float(tau), stderr=float("nan"), n=n)
    loo = (total - rows) / pairs_loo
    var = (n - 1) / n * float(((loo - loo.mean()) ** 2).sum())
    return KendallEstimate(estimate=float(tau), stderr=math.sqrt(var), n=n)


# ---------------------------------------------------------------------------
# multivariate log estimator

def _at_least(x: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """For each observation i of a (reps, n, k) stack, #{l : x_l >= x_i at
    every coordinate} (i itself included), or the sum of w_l over those l.

    For k <= 2, inclusion-exclusion over the coordinate subsets S: the
    complement of "x_l >= x_i everywhere" is "x_l < x_i somewhere", so the
    count is sum_S (-1)^|S| #{l : x_l < x_i on S}, the empty S counting
    every l.  For k >= 3 its top term alone is an all-pairs pass, so one
    such pass compares >= directly.
    """
    reps, n, k = x.shape
    if k >= 3:
        return _below_direct(x, w, np.greater_equal)
    out = np.full((reps, n), n) if w is None else np.repeat(w.sum(axis=1, keepdims=True), n, 1)
    for r in range(1, k + 1):
        for S in itertools.combinations(range(k), r):
            out += (-1) ** r * _below(x[:, :, S], w)
    return out


def _mean_log_ecdf(xj: np.ndarray, want_loo: bool):
    """T = mean_i log(N_i / n) for the self-inclusive joint empirical CDF
    N_i = #{l : X_l <= X_i componentwise}; optionally the delete-one values."""
    n = xj.shape[0]
    counts = _at_least(-xj[None])[0]
    logs = np.log(counts)
    t_full = float(logs.mean()) - math.log(n)
    if not want_loo:
        return t_full, None
    a_total = float(logs.sum())
    w_self = logs - np.log(np.maximum(counts - 1, 1))
    # sum over the rows each observation is <= of, itself included
    dom_w_sum = _at_least(xj[None], w_self[None])[0]
    # T_(l) = [A - log N_l - (sum_i D_li w_i - w_l)] / (n-1) - log(n-1)
    t_loo = (a_total - logs - (dom_w_sum - w_self)) / (n - 1) - math.log(n - 1)
    return t_full, t_loo


def ecp_multivariate_log(data, subset=None, jackknife: bool = False) -> float:
    """Inclusion-exclusion estimator of p(s_j, j in subset) from log empirical CDFs.

    Sums (-1)^{|J|} mean_i log F_hat_J(X_i) over nonempty J, where the
    empirical CDF includes the observation itself so every logarithm is
    finite.  ``jackknife=True`` returns the delete-one bias-reduced value,
    n p - (n-1) mean(p_loo).
    """
    s = _as_sample(data)
    idx = list(range(s.k)) if subset is None else list(subset)
    if len(idx) < 2:
        raise DomainError("need at least two coordinates")
    if len(set(idx)) != len(idx) or min(idx) < 0 or max(idx) >= s.k:
        raise DomainError("subset indices out of range or repeated")
    x = s.data[:, idx]
    n = s.n
    if jackknife and n < 3:
        raise DomainError("jackknife needs n >= 3")
    total = 0.0
    loo_total = np.zeros(n) if jackknife else None
    for r in range(1, len(idx) + 1):
        sign = (-1.0) ** r
        for J in itertools.combinations(range(len(idx)), r):
            t_full, t_loo = _mean_log_ecdf(x[:, list(J)], jackknife)
            total += sign * t_full
            if jackknife:
                loo_total += sign * t_loo
    if not jackknife:
        return float(total)
    return float(n * total - (n - 1) * loo_total.mean())


# ---------------------------------------------------------------------------
# estimators by name

def _kendall(data, m, jackknife) -> dict:
    est = ecp_kendall(data)
    return {"estimate": est.estimate, "stderr": est.stderr}


def _mvlog(data, m, jackknife) -> dict:
    return {"estimate": ecp_multivariate_log(data, jackknife=jackknife), "stderr": None}


def _block(data, m, jackknife) -> dict:
    return {"estimate": sample_cp_block(data, m), "stderr": None}


def _bootstrap(data, m, jackknife) -> dict:
    return {"estimate": sample_cp_bootstrap(data, m), "stderr": None}


def _unbiased(data, m, jackknife) -> dict:
    est = sample_cp_unbiased(data, m)
    return {"estimate": est.value, "clipped": est.clipped, "stderr": None}


# name -> (estimator, whether it needs a block size)
ESTIMATORS = {
    "kendall": (_kendall, False),
    "block": (_block, True),
    "bootstrap": (_bootstrap, True),
    "unbiased": (_unbiased, True),
    "mvlog": (_mvlog, False),
}


def estimator(method: str, block_size: int | None = None, jackknife: bool = False):
    """The named concurrence estimator as a function of the data.

    It returns a dict with ``estimate`` and ``stderr`` (None when the
    estimator has none; ``unbiased`` adds ``clipped``).  An unknown name or
    a missing block size raises :class:`DomainError` here, before any data
    is seen.  ``jackknife`` applies to ``mvlog`` only.
    """
    if method not in ESTIMATORS:
        raise DomainError(f"unknown estimator method {method!r}; "
                          f"choose one of {tuple(ESTIMATORS)}")
    fn, needs_block = ESTIMATORS[method]
    if needs_block and not block_size:
        raise DomainError(f"method {method!r} requires a block size")
    return lambda data: fn(data, block_size, jackknife)


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
    if m < 1 or m > n:
        raise DomainError("need 1 <= m <= n")
    p_m = min(p + c_r / m ** r, 1.0)
    return (c_r / m ** r) ** 2 + p_m * (1.0 - p_m) / (n // m)


def optimal_block_size(n: int, p: float, r: int = 1, c_r: float = 1.0) -> BlockPlan:
    """Block size minimizing the asymptotic MSE of the block estimator:

        m = round({2 r c_r^2 n / (p (1 - p))}^{1 / (2 r + 1)}),

    clamped to [2, n].  The conservative defaults are r = 1, c_r = 1.
    Degenerate probabilities (p = 0 or 1) admit no optimal size.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError("n must be an integer >= 2")
    if not 0.0 < p < 1.0:
        raise DomainError("the MSE-optimal block size requires 0 < p < 1")
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise DomainError("r must be a positive integer")
    if not c_r > 0:
        raise DomainError("c_r must be positive")
    raw = (2.0 * r * c_r * c_r * n / (p * (1.0 - p))) ** (1.0 / (2 * r + 1))
    m = int(min(max(round(raw), 2), n))
    return BlockPlan(m=m, assumed_r=int(r), assumed_c_r=float(c_r), assumed_p=float(p),
                     predicted_mse=block_mse(int(n), m, float(p), int(r), float(c_r)))


# ---------------------------------------------------------------------------
# batch kernels (replicate studies)

def _as_stack(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 3 or x.shape[1] < 2:
        raise DomainError(f"expected a 3-d (reps, n, k) stack with n >= 2, got shape {x.shape}")
    return x


def block_cp_batch(data: np.ndarray, m: int) -> np.ndarray:
    """Block estimator per replicate for a (reps, n, k) stack."""
    data = _as_stack(data)
    reps, n, k = data.shape
    nb = n // m
    if nb < 1:
        raise DomainError("block size exceeds the sample size")
    blocks = data[:, : nb * m, :].reshape(reps, nb, m, k)
    return _block_indicators(blocks).mean(axis=1)


def dominance_counts_batch(data: np.ndarray) -> np.ndarray:
    """Dominance counts per replicate for a (reps, n, k) stack."""
    return _below(_as_stack(data))


def bootstrap_cp_batch(data: np.ndarray, m: int) -> np.ndarray:
    """Rao--Blackwellized estimator per replicate for a (reps, n, k) stack."""
    d = dominance_counts_batch(data)
    return np.asarray(log_binom_ratio(d, m, d.shape[1])).sum(axis=1)


def kendall_batch(data: np.ndarray, tie_adjusted: bool = False) -> np.ndarray:
    """Kendall's tau per replicate for a (reps, n, 2) stack.

    ``tie_adjusted`` switches to the tau-b denominator, which matters only
    for data with atoms (e.g. heavily perturbed spectral profiles); a
    replicate with a constant coordinate, whose tau-b is 0/0, then raises
    :class:`DomainError`.
    """
    data = _as_stack(data)
    if data.shape[2] != 2:
        raise DomainError("kendall_batch expects pairs")
    n = data.shape[1]
    rows, tie_x, tie_y = _kendall_rows(data, tie_adjusted)
    s_val = rows.sum(axis=1).astype(float)
    pairs_n = n * (n - 1)
    if not tie_adjusted:
        return s_val / pairs_n
    tx, ty = tie_x.sum(axis=1), tie_y.sum(axis=1)
    for j, t in enumerate((tx, ty)):
        const = np.flatnonzero(t == pairs_n)
        if const.size:
            raise DomainError(f"replicate {const[0]} has constant coordinate {j}, so its "
                              f"tie-adjusted Kendall tau is 0/0")
    return s_val / np.sqrt((pairs_n - tx).astype(float) * (pairs_n - ty))


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
        m = int(m)
        est = block_cp_batch(data, m)
        rows.append(BiasLawRow(m=m, mean_estimate=float(est.mean()),
                               theoretical=p + (1.0 - p) / m))
    return rows
