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
from .simulate import SimControl, simulate_field_values
from .specfun import RngLike, as_generator, log_binom_ratio

_PAIR_CHUNK = 1 << 21


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
# dominance counts and block indicators

def dominance_counts(data) -> np.ndarray:
    """d_i = #{l != i : X_l(s_j) < X_i(s_j) for every coordinate j}."""
    x = _as_sample(data).data
    n, k = x.shape
    d = np.empty(n, dtype=np.int64)
    step = max(1, _PAIR_CHUNK // max(1, n * k))
    for start in range(0, n, step):
        blk = x[start:min(n, start + step)]
        less = (x[None, :, :] < blk[:, None, :]).all(axis=-1)
        d[start:start + blk.shape[0]] = less.sum(axis=1)
    return d


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


def ecp_kendall(data, tie_adjusted: bool = False) -> KendallEstimate:
    """Kendall's tau of a pair of coordinates with delete-one jackknife stderr.

    For max-stable pairs tau equals the extremal concurrence probability,
    so the statistic doubles as an unbiased concurrence estimator.  Tied
    comparisons contribute zero sign; with ``tie_adjusted`` the denominator
    drops tied pairs per margin (the tau-b convention of standard software,
    identical for continuous data).  The stderr is NaN when n < 3.
    """
    s = _as_sample(data)
    if s.k != 2:
        raise CapabilityError("Kendall's tau is a pairwise statistic (k = 2)")
    x, y = s.data[:, 0], s.data[:, 1]
    n = s.n
    row_sums = np.empty(n)
    tie_x = np.empty(n)
    tie_y = np.empty(n)
    step = max(1, _PAIR_CHUNK // max(1, n))
    for start in range(0, n, step):
        stop = min(n, start + step)
        sx = np.sign(x[start:stop, None] - x[None, :])
        sy = np.sign(y[start:stop, None] - y[None, :])
        row_sums[start:stop] = (sx * sy).sum(axis=1)
        tie_x[start:stop] = (sx == 0).sum(axis=1) - 1  # drop the diagonal
        tie_y[start:stop] = (sy == 0).sum(axis=1) - 1
    total = row_sums.sum() / 2.0

    def statistic(s_val, tx, ty, pairs):
        if not tie_adjusted:
            return s_val / pairs
        return s_val / math.sqrt((pairs - tx / 2.0) * (pairs - ty / 2.0))

    pairs_n = n * (n - 1) / 2.0
    tau = statistic(total, tie_x.sum(), tie_y.sum(), pairs_n)
    if n < 3:
        return KendallEstimate(estimate=float(tau), stderr=float("nan"), n=n)
    pairs_loo = (n - 1) * (n - 2) / 2.0
    loo = np.array([
        statistic(total - row_sums[i], tie_x.sum() - 2 * tie_x[i],
                  tie_y.sum() - 2 * tie_y[i], pairs_loo)
        for i in range(n)
    ]) if tie_adjusted else (total - row_sums) / pairs_loo
    var = (n - 1) / n * float(((loo - loo.mean()) ** 2).sum())
    return KendallEstimate(estimate=float(tau), stderr=math.sqrt(var), n=n)


# ---------------------------------------------------------------------------
# multivariate log estimator

def _mean_log_ecdf(xj: np.ndarray, want_loo: bool):
    """T = mean_i log(N_i / n) for the self-inclusive joint empirical CDF
    N_i = #{l : X_l <= X_i componentwise}; optionally the delete-one values."""
    n = xj.shape[0]
    counts = np.empty(n, dtype=np.int64)
    step = max(1, _PAIR_CHUNK // max(1, n * xj.shape[1]))
    dom_w_sum = np.zeros(n) if want_loo else None
    logs = None
    if want_loo:
        # two passes: counts first, then weighted dominance sums
        for start in range(0, n, step):
            blk = xj[start:min(n, start + step)]
            le = (xj[None, :, :] <= blk[:, None, :]).all(axis=-1)
            counts[start:start + blk.shape[0]] = le.sum(axis=1)
        logs = np.log(counts)
        w = logs - np.log(np.maximum(counts - 1, 1))
        for start in range(0, n, step):
            blk = xj[start:min(n, start + step)]
            ge = (xj[None, :, :] >= blk[:, None, :]).all(axis=-1)  # rows this obs is <= of
            dom_w_sum[start:start + blk.shape[0]] = ge @ w
    else:
        for start in range(0, n, step):
            blk = xj[start:min(n, start + step)]
            le = (xj[None, :, :] <= blk[:, None, :]).all(axis=-1)
            counts[start:start + blk.shape[0]] = le.sum(axis=1)
        logs = np.log(counts)
    t_full = float(logs.mean()) - math.log(n)
    if not want_loo:
        return t_full, None
    a_total = float(logs.sum())
    w_self = logs - np.log(np.maximum(counts - 1, 1))
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

def block_cp_batch(data: np.ndarray, m: int) -> np.ndarray:
    """Block estimator per replicate for a (reps, n, k) stack."""
    reps, n, k = data.shape
    nb = n // m
    if nb < 1:
        raise DomainError("block size exceeds the sample size")
    blocks = data[:, : nb * m, :].reshape(reps, nb, m, k)
    return _block_indicators(blocks).mean(axis=1)


def dominance_counts_batch(data: np.ndarray) -> np.ndarray:
    """Dominance counts per replicate for a (reps, n, k) stack."""
    reps, n, k = data.shape
    out = np.empty((reps, n), dtype=np.int64)
    step = max(1, _PAIR_CHUNK // max(1, n * n * k))
    for start in range(0, reps, step):
        blk = data[start:min(reps, start + step)]
        less = (blk[:, None, :, :] < blk[:, :, None, :]).all(axis=-1)
        out[start:start + blk.shape[0]] = less.sum(axis=2)
    return out


def bootstrap_cp_batch(data: np.ndarray, m: int) -> np.ndarray:
    """Rao--Blackwellized estimator per replicate for a (reps, n, k) stack."""
    n = data.shape[1]
    d = dominance_counts_batch(data)
    return np.asarray(log_binom_ratio(d, m, n)).sum(axis=1)


def kendall_batch(data: np.ndarray, tie_adjusted: bool = False) -> np.ndarray:
    """Kendall's tau per replicate for a (reps, n, 2) stack.

    ``tie_adjusted`` switches to the tau-b denominator, which matters only
    for data with atoms (e.g. heavily perturbed spectral profiles).
    """
    if data.shape[2] != 2:
        raise DomainError("kendall_batch expects pairs")
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


# ---------------------------------------------------------------------------
# bias law

@dataclass(frozen=True)
class BiasLawRow:
    m: int
    mean_estimate: float
    theoretical: float


def simulate_pair_batch(model: ModelSpec, sites, reps: int, n: int,
                        rng: RngLike, ctrl: SimControl | None = None) -> np.ndarray:
    """(reps, n, k) stack of independent max-stable observations.

    Uses the model's exact construction when it has one (the positive-stable
    logistic) and the spectral simulator otherwise.
    """
    values = simulate_field_values(model, sites, reps * n, ctrl, as_generator(rng))
    return values.reshape(reps, n, values.shape[1])


def bias_law_check(model: ModelSpec, sites, m_list, reps: int, n: int,
                   rng: RngLike, ctrl: SimControl | None = None) -> list[BiasLawRow]:
    """Replicate means of the block estimator against p + (1 - p)/m.

    Bivariate models with a known concurrence probability only; one shared
    batch of simulated data is reused across block sizes.
    """
    p = kendall_target_p(model, sites)
    data = simulate_pair_batch(model, sites, reps, n, rng, ctrl)
    if data.shape[2] != 2:
        raise DomainError("the bias law check is bivariate")
    rows = []
    for m in m_list:
        m = int(m)
        est = block_cp_batch(data, m)
        rows.append(BiasLawRow(m=m, mean_estimate=float(est.mean()),
                               theoretical=p + (1.0 - p) / m))
    return rows
