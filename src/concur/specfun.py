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
>= <least>, got <value>".  Every real parameter passes through
:func:`_real`: a finite real number, never a bool, in a stated interval, or
DomainError "<name> must be a finite number in (<lo>, <hi>], got <value>".
Every array of real numbers passes through :func:`_reals`: integers or
floats, never bools or text, each finite and in an interval, or DomainError
"<name> must be finite numbers in (<lo>, <hi>], got <first bad entry>".

:func:`_spread` runs a block function over a list of items on one thread
per CPU the process may run on: the caller's own and one it starts for
each other CPU, all joined before the call returns, so no thread outlives
it.  With a producer, the caller draws every item in order, so the random
stream is the serial one, while the other threads consume the items
already drawn; it takes items back itself when more than one per thread
wait, so no draw waits and few drawn arrays are held.  Its callers (the
all-pairs counting kernel, and with a producer the pair integrand of
``ecp_mc`` and the study's pair cells) spend their time in NumPy and SciPy
ufuncs, which release the GIL, and each block writes its own slice of an
output with the same ufunc calls as a serial loop, so every output is
bit-identical whatever the thread count.

:func:`_matmul_t` forms the Gaussian products of the spectral samplers in
equal row blocks small enough that OpenBLAS runs each on the calling
thread.  A larger product wakes OpenBLAS's own worker threads, which then
spin-wait on the other CPUs after it returns and take them from
:func:`_spread`'s threads.
"""

from __future__ import annotations

import math
import numbers
import os
import queue
import reprlib
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, NumericError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_PSD_TOL = 1e-10  # relative size below which psd_factor zeroes an eigenvalue
# multiply-adds up to which OpenBLAS runs a product on the calling thread
# (its GEMM_MULTITHREAD_THRESHOLD of 4 times 65 536)
_SERIAL_MADDS = 1 << 18
_LEAST_BLOCK_ROWS = 128  # the least row limit at which _matmul_t blocks a product


def _whole(value, least: int, name: str) -> int:
    """``value`` as an int if it is a Python or NumPy integer, not a bool,
    of at least ``least``; :class:`DomainError` otherwise."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise DomainError(f"{name} must be a whole number >= {least}, got {value!r}")


def _real(value, name: str, lo: float = -math.inf, hi: float = math.inf, ends: str = "()") -> float:
    """``value`` as a float if it is a real number, not a bool, finite and
    between ``lo`` and ``hi``, each end open or closed as ``ends`` ("()",
    "(]", "[)" or "[]") brackets it; :class:`DomainError` otherwise."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int past the floats
        x = math.nan
    if (math.isfinite(x) and (lo < x or ends[0] == "[" and x == lo)
            and (x < hi or ends[1] == "]" and x == hi)):
        return x
    raise DomainError(f"{name} must be a finite number in {ends[0]}{lo}, {hi}{ends[1]}, "
                      f"got {value!r}")


def _numbers(value) -> np.ndarray | None:
    """``value`` as a float array (itself if it is one) if its entries are
    integers or floats, not bools or text; None otherwise.  A list is
    scanned once for bools, which NumPy reads as 0 and 1; an array is not."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list
        return None
    if a.dtype.kind in "iuf" and (isinstance(value, np.ndarray) or not any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat)):
        return a.astype(float, copy=False)
    return None


def _reals(value, name: str, lo: float = -math.inf, hi: float = math.inf,
           ends: str = "()") -> np.ndarray:
    """:func:`_numbers` of ``value`` if each entry is finite and in the
    interval as :func:`_real` brackets it; :class:`DomainError` otherwise."""
    a = _numbers(value)
    if a is not None:
        ok = np.isfinite(a)
        if math.isfinite(lo):
            ok &= a >= lo if ends[0] == "[" else a > lo
        if math.isfinite(hi):
            ok &= a <= hi if ends[1] == "]" else a < hi
        if ok.all():
            return a
    got = reprlib.repr(value) if a is None else repr(float(a.flat[np.argmin(ok)]))
    raise DomainError(f"{name} must be finite numbers in {ends[0]}{lo}, {hi}{ends[1]}, got {got}")


def _regular_step(x: np.ndarray) -> float | None:
    """The step of a 1-d axis of two or more nodes that is strictly
    monotone with every spacing within 1e-9 (relative, at least absolute)
    of the first; None for any other axis."""
    d = np.diff(x)
    if np.any(d * d[0] <= 0) or np.any(np.abs(d - d[0]) > 1e-9 * max(1.0, abs(float(d[0])))):
        return None
    return float(d[0])


def _lookup(table: dict, name, what: str):
    """``table[name]`` if ``name`` is a key of it; :class:`DomainError` otherwise."""
    if isinstance(name, str) and name in table:
        return table[name]
    raise DomainError(f"unknown {what} {name!r}; choose one of {tuple(table)}")


def _workers() -> int:
    """The number of CPUs the process may run on, read at each call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


_STOP = object()  # tells a thread of _spread that no more items come


def _same(item):
    return item


def _spread(fn, items, draw=_same) -> None:
    """``fn(item)`` for every item, or ``fn(draw(item))`` with a producer,
    on W = min(len(items), :func:`_workers`) threads: the caller and W - 1
    threads it starts, all joined before it returns or raises.

    The caller calls ``draw`` on every item in order and queues what it
    returns (without ``draw``, the item itself).  The started threads take
    queued items as they appear.  Whenever more than W wait, the caller
    takes the oldest back and runs it, so at most W drawn items wait at any
    time, and it runs what is left once it has drawn them all.  No draw
    waits for a thread.

    The first error, from ``draw`` or from a block, is raised once every
    block already begun has ended; no block begins after it.  Threads do
    not inherit the caller's ``np.errstate``: a block that needs one sets it.
    """
    items = list(items)
    workers = min(len(items), _workers())
    if workers <= 1:
        for item in items:
            fn(draw(item))
        return
    backlog = queue.SimpleQueue()
    errors = []

    def run(item):
        if not errors:
            try:
                fn(item)
            except BaseException as e:
                errors.append(e)

    def consume():
        while (item := backlog.get()) is not _STOP:
            run(item)

    def take():
        try:
            run(backlog.get_nowait())
        except queue.Empty:
            pass

    threads = [threading.Thread(target=consume, name=f"concur_{w}") for w in range(1, workers)]
    for t in threads:
        t.start()
    try:
        for item in items:
            if errors:
                break
            backlog.put(draw(item))
            while backlog.qsize() > workers:
                take()
        while not backlog.empty():
            take()
    except BaseException as e:  # raised below, once no thread runs a block
        errors.append(e)
    for t in threads:
        backlog.put(_STOP)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _matmul_t(z: np.ndarray, fac: np.ndarray) -> np.ndarray:
    """``z @ fac.T`` with the rows of ``z`` in ceil(n / limit) blocks of
    equal size (to a row), limit the most rows whose product takes at most
    ``_SERIAL_MADDS`` multiply-adds.

    Each row of the product is the same dot products whatever the blocks.
    With NumPy 2.4.6 and scipy-openblas 0.3.31 on an x86-64 Xeon the
    result equalled the one-call product bit for bit for every k up to 91,
    at 1 and 2 OpenBLAS threads; other builds and CPU targets may send
    blocks to other kernels, and the tests and golden pins check the
    equality where they run.  Thin blocks did not match there: NumPy sends
    a one-row block to gemv, and OpenBLAS rounds a small remainder block,
    or blocks of a few rows, by other kernels.  Equal blocks hold at least
    limit / 2 rows.  A product whose limit is below ``_LEAST_BLOCK_ROWS``
    (past 45 columns) stays one call: there the Python call per block
    costs about what the idle second core saves (on 80 sites a spectral
    draw was 3 % slower blocked, on 41 sites no slower).
    """
    n, k = z.shape
    limit = _SERIAL_MADDS // max(1, k * fac.shape[0])
    if n <= limit or limit < _LEAST_BLOCK_ROWS:
        return z @ fac.T
    blocks = -(-n // limit)
    out = np.empty((n, fac.shape[0]))
    for zb, ob in zip(np.array_split(z, blocks), np.array_split(out, blocks)):
        np.matmul(zb, fac.T, out=ob)
    return out


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
        a = np.array(_reals(self.entries, "covariance entries"))
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DomainError("covariance must be a square matrix")
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
    dof = _real(dof, "degrees of freedom", 0)
    from scipy import special
    return special.stdtr(dof, x)


def reg_inc_beta(a: float, b: float, x):
    """Regularized incomplete beta, i.e. the Beta(a, b) CDF at x in [0, 1]."""
    a, b = _real(a, "beta parameter a", 0), _real(b, "beta parameter b", 0)
    xx = _reals(x, "beta argument", 0, 1, "[]")
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
    alpha = _real(alpha, "stable exponent", 0, 1)
    shape = () if size is None else _whole(size, 0, "size")
    g = as_generator(rng)
    u = g.uniform(0.0, np.pi, size=shape)
    e = g.standard_exponential(size=shape)
    s = (np.sin((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha) \
        * np.sin(alpha * u) / np.sin(u) ** (1.0 / alpha)
    return float(s) if size is None else s


def log_binom_ratio(d, m: int, n: int):
    """C(d, m-1) / C(n, m) evaluated in log space; exactly 0 when d < m-1.

    ``d`` may be a scalar or an array of whole numbers; requires 1 <= m <= n
    and 0 <= d <= n-1.
    """
    m = _whole(m, 1, "m")
    n = _whole(n, m, "n")
    dd = _reals(d, "d", 0, n - 1, "[]")
    frac = dd != np.floor(dd)
    if frac.any():
        raise DomainError(f"d must be whole numbers, got {float(dd[frac][0])!r}")
    from scipy import special
    log_den = special.gammaln(n + 1) - special.gammaln(m + 1) - special.gammaln(n - m + 1)
    ok = dd >= m - 1
    safe = np.where(ok, dd, float(m - 1))
    log_num = special.gammaln(safe + 1) - special.gammaln(m) - special.gammaln(safe - m + 2)
    out = np.where(ok, np.exp(log_num - log_den), 0.0)
    return float(out) if dd.ndim == 0 else out


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
