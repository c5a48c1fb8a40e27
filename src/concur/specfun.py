"""Deterministic special functions and seeded sampling primitives.

All randomness in the package flows through :class:`SeededRng`, a frozen
(seed, stream_id) pair that maps deterministically onto a NumPy
``Generator``.  Substreams are derived by counter mixing, never by
splitting a stream mid-sequence, so replicate-level parallelism gives
results independent of worker count.

This is the only module that uses SciPy, and it imports ``scipy.special``
inside the five functions that call it (:func:`normal_cdf`,
:func:`student_cdf`, :func:`reg_inc_beta`, :func:`log_binom_ratio`,
:func:`logsumexp`).  SciPy therefore loads on the first special-function
evaluation, not on ``import concur``: the station pipeline, which never
evaluates one, runs without loading it.

Every count argument of the package (a number of sites, replicates or
draws, a block or sample size, a dimension, a seed) passes through
:func:`_whole`: a Python or NumPy integer, never a bool, of at least a
stated least value, or :class:`DomainError` "<name> must be a whole number
>= <least>, got <value>".

:func:`_spread` runs a block function over a list of blocks on one thread
per CPU the process may run on: the caller's own and one it starts for
each other CPU, all joined before the call returns, so no thread outlives
it.  Its callers (the pair integrand of ``ecp_mc`` and the all-pairs
counting kernel) spend their time in NumPy and SciPy ufuncs, which release
the GIL, and each block writes its own slice of an output array with the
same ufunc calls as a serial loop, so every output is bit-identical
whatever the thread count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, NumericError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_PSD_TOL = 1e-10  # relative size below which psd_factor zeroes an eigenvalue


def _whole(value, least: int, name: str) -> int:
    """``value`` as an int if it is a Python or NumPy integer, not a bool,
    of at least ``least``; :class:`DomainError` otherwise."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise DomainError(f"{name} must be a whole number >= {least}, got {value!r}")


def _workers() -> int:
    """The number of CPUs the process may run on, read at each call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _spread(fn, items) -> None:
    """``fn(item)`` for every item on W = min(len(items), :func:`_workers`)
    threads: the caller runs ``items[0::W]`` and starts one thread for each
    ``items[w::W]``, w = 1 .. W-1, and joins them all before it returns or
    raises the first error a block raised, counting from the caller's.

    An error ends its thread's items.  Threads do not inherit the caller's
    ``np.errstate``: a block that needs one sets it.
    """
    items = list(items)
    workers = min(len(items), _workers())
    if workers <= 1:
        for item in items:
            fn(item)
        return
    errors = [None] * workers

    def run(w):
        try:
            for item in items[w::workers]:
                fn(item)
        except BaseException as e:
            errors[w] = e

    threads = [threading.Thread(target=run, args=(w,), name=f"concur_{w}")
               for w in range(1, workers)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    for e in errors:
        if e is not None:
            raise e


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SeededRng:
    """Reproducible RNG handle: equal (seed, stream_id) give identical draws.

    ``generator()`` builds a fresh ``numpy.random.Generator`` so functions
    taking a SeededRng are pure; pass the Generator itself when a stateful
    stream is wanted inside a loop.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = _whole(getattr(self, name), 0, name)
            if v > _MASK64:
                raise DomainError(f"{name} must be an unsigned 64-bit integer, got {v!r}")
            object.__setattr__(self, name, v)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)

    def substream(self, counter: int) -> "SeededRng":
        """Independent stream derived from ``counter``; collision odds ~2**-64."""
        counter = _whole(counter, 0, "substream counter")
        mixed = _splitmix64(self.stream_id ^ (((counter + 1) * _GOLDEN) & _MASK64))
        return SeededRng(self.seed, mixed)


RngLike = Union[SeededRng, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    """Accept a SeededRng or a live Generator and return a Generator."""
    if isinstance(rng, SeededRng):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"expected SeededRng or numpy Generator, got {type(rng).__name__}")


def psd_factor(matrix: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == matrix for a PSD matrix.

    Tries Cholesky first; on failure falls back to an eigendecomposition
    with eigenvalues in [-_PSD_TOL*scale, _PSD_TOL*scale] set to zero,
    which keeps exact linear degeneracies (rank-deficient covariances)
    intact instead of blurring them with diagonal jitter or rounding noise.
    That factor F is made triangular through the QR decomposition
    F.T = Q R: F F.T = R.T R, so L = R.T.
    Either way row i of L is zero past column i, so entry i of L @ z
    depends on the leading i + 1 entries of z only.
    """
    a = np.asarray(matrix, dtype=float)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(a)
    scale = max(1.0, float(np.max(np.abs(w)))) if w.size else 1.0
    if w.size and float(np.min(w)) < -_PSD_TOL * scale:
        raise NumericError("matrix is not positive semidefinite within tolerance")
    return np.linalg.qr((v * np.sqrt(np.where(w > _PSD_TOL * scale, w, 0.0))).T, mode="r").T


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive-semidefinite matrix; :meth:`factor` runs
    :func:`psd_factor` on it at each call."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DomainError("covariance must be a square matrix")
        if not np.all(np.isfinite(a)):
            raise DomainError("covariance entries must be finite")
        if not np.array_equal(a, a.T):
            raise DomainError("covariance must be exactly symmetric")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def factor(self) -> np.ndarray:
        return psd_factor(self.entries)


def normal_cdf(x):
    """Standard normal CDF; total function, absolute error well under 1e-12."""
    from scipy import special
    return special.ndtr(x)


def student_cdf(x, dof: float):
    """Student-t CDF with ``dof`` (> 0, possibly non-integer) degrees of freedom."""
    if not dof > 0:
        raise DomainError(f"degrees of freedom must be positive, got {dof}")
    from scipy import special
    return special.stdtr(dof, x)


def reg_inc_beta(a: float, b: float, x):
    """Regularized incomplete beta, i.e. the Beta(a, b) CDF at x in [0, 1]."""
    if not (a > 0 and b > 0):
        raise DomainError(f"beta parameters must be positive, got a={a}, b={b}")
    xx = np.asarray(x, dtype=float)
    if np.any(xx < 0) or np.any(xx > 1) or not np.all(np.isfinite(xx)):
        raise DomainError("beta argument must lie in [0, 1]")
    from scipy import special
    out = special.betainc(a, b, xx)
    return float(out) if np.isscalar(x) or xx.ndim == 0 else out


def sample_positive_stable(alpha: float, rng: RngLike, size=None):
    """Draw S >= 0 with Laplace transform E[exp(-t S)] = exp(-t**alpha).

    Kanter / Chambers--Mallows--Stuck representation for the one-sided
    stable law, 0 < alpha < 1:

        S = [sin((1-a)U)/E]**((1-a)/a) * sin(aU) / sin(U)**(1/a),

    with U ~ Uniform(0, pi) and E ~ Exp(1).  Returns a float for size=None,
    else an array of ``size`` draws.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"stable exponent must lie in (0, 1), got {alpha}")
    shape = () if size is None else _whole(size, 0, "size")
    g = as_generator(rng)
    u = g.uniform(0.0, np.pi, size=shape)
    e = g.standard_exponential(size=shape)
    s = (np.sin((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha) \
        * np.sin(alpha * u) / np.sin(u) ** (1.0 / alpha)
    return float(s) if size is None else s


def gaussian_vector(cov: CovarianceMatrix, rng: RngLike, size=None):
    """Zero-mean Gaussian draws with the given covariance.

    Returns shape (dim,) for size=None, else (size, dim).  Exact linear
    degeneracies in ``cov`` are reproduced exactly (see :func:`psd_factor`).
    """
    g = as_generator(rng)
    f = cov.factor()
    if size is None:
        return f @ g.standard_normal(cov.dim)
    z = g.standard_normal((_whole(size, 0, "size"), cov.dim))
    return z @ f.T


def log_binom_ratio(d, m: int, n: int):
    """C(d, m-1) / C(n, m) evaluated in log space; exactly 0 when d < m-1.

    ``d`` may be a scalar or an integer array; requires 1 <= m <= n and
    0 <= d <= n-1.
    """
    m, n = _whole(m, 1, "m"), _whole(n, 1, "n")
    if m > n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    d_arr = np.asarray(d)
    if not np.issubdtype(d_arr.dtype, np.integer):
        if not np.all(d_arr == np.floor(d_arr)):
            raise DomainError("d must be integer-valued")
        d_arr = d_arr.astype(np.int64)
    if np.any(d_arr < 0) or np.any(d_arr > n - 1):
        raise DomainError(f"need 0 <= d <= n-1 = {n - 1}")
    dd = d_arr.astype(float)
    from scipy import special
    log_den = special.gammaln(n + 1) - special.gammaln(m + 1) - special.gammaln(n - m + 1)
    ok = d_arr >= m - 1
    safe = np.where(ok, dd, float(m - 1))
    log_num = special.gammaln(safe + 1) - special.gammaln(m) - special.gammaln(safe - m + 2)
    out = np.where(ok, np.exp(log_num - log_den), 0.0)
    if np.isscalar(d) or d_arr.ndim == 0:
        return float(out)
    return out


def logsumexp(a, axis=None):
    from scipy import special
    return special.logsumexp(a, axis=axis)


def half_line(f, c: float, sign: float):
    """f on c + sign * [0, inf) as an integrand over u in (0, 1]:
    x = c + sign * (1 - u) / u puts half of the u range within 1 of c.
    Distance L from c corresponds to u = 1 / (1 + L)."""
    def g(u):
        return f(c + sign * (1.0 - u) / u) / (u * u)
    return g


def unit_ball_volume(d: int, radius: float = 1.0) -> float:
    """Volume of the d-dimensional Euclidean ball."""
    d = _whole(d, 1, "d")
    cd = math.pi ** (d / 2.0) / math.gamma(1.0 + d / 2.0)
    return cd * radius ** d
