"""Max-stable model specifications, one class per model.

Every model is a frozen dataclass deriving from :class:`ModelSpec`, and each
class holds everything the package knows about its model: its site
normalization, exponent function V (P{eta(s_j) <= z_j for all j} =
exp(-V(z)), homogeneous of order -1), mean-one spectral sampler (profiles Y
with eta(s) = max_i zeta_i Y_i(s)), what the simulator should run, its
closed-form concurrence probability or pair reduction; one codec reads its
JSON form off its fields.  The module-level functions here and in
``concurrence`` and ``simulate`` call those methods and never branch on the
model type, so a new model is one class here plus one entry in :data:`MODELS`.

Conventions: unit Frechet margins everywhere.  The interval max-increment
process is normalized per site (values divided by the site coordinate),
which is a monotone marginal transform and therefore leaves hitting
scenarios and concurrence probabilities untouched.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Callable, ClassVar

import numpy as np

from .errors import CapabilityError, DomainError
from .specfun import (
    CovarianceMatrix,
    RngLike,
    _whole,
    as_generator,
    half_line,
    logsumexp,
    normal_cdf,
    psd_factor,
    reg_inc_beta,
    sample_positive_stable,
    student_cdf,
    unit_ball_volume,
)

_SMITH_BUFFER_SIGMAS = 8.0  # truncated Gaussian mass < 1e-14
_REP_CHUNK_ELEMS = 1 << 22  # soft cap on the doubles one simulation chunk holds
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# sites

@dataclass(frozen=True)
class SiteSet:
    """k pairwise-distinct sites in R^d, stored as a (k, d) array."""

    coords: np.ndarray

    def __post_init__(self):
        a = np.array(self.coords, dtype=float, copy=True)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DomainError("sites must form a (k, d) array with k, d >= 1")
        if not np.all(np.isfinite(a)):
            raise DomainError("site coordinates must be finite")
        # name the first site with a twin, then its first twin; -0.0 + 0.0 is 0.0
        _, first, count = np.unique(a + 0.0, axis=0, return_index=True, return_counts=True)
        if count.max() > 1:
            i = first[count > 1].min()
            j = np.flatnonzero((a == a[i]).all(axis=1))[1]
            raise DomainError(f"sites {i} and {j} coincide")
        a.flags.writeable = False
        object.__setattr__(self, "coords", a)

    @property
    def k(self) -> int:
        return self.coords.shape[0]

    def __len__(self) -> int:
        return self.k

    @property
    def ndim(self) -> int:
        return self.coords.shape[1]

    def lags_from(self, i: int = 0) -> np.ndarray:
        return self.coords - self.coords[i]

    def distance_matrix(self) -> np.ndarray:
        diff = self.coords[:, None, :] - self.coords[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=-1))


def as_sites(sites) -> SiteSet:
    if isinstance(sites, SiteSet):
        return sites
    return SiteSet(np.asarray(sites, dtype=float))


def _pair_lag(sites: SiteSet) -> np.ndarray:
    if sites.k != 2:
        raise CapabilityError("only the bivariate closed form is available for this model")
    return sites.coords[1] - sites.coords[0]


# ---------------------------------------------------------------------------
# variogram / correlation families

@dataclass(frozen=True)
class FractionalVariogram:
    """gamma(h) = scale * ||h||**exponent with scale > 0, 0 < exponent <= 2."""

    scale: float
    exponent: float
    family: ClassVar[str] = "fractional"

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise DomainError(f"variogram scale must be positive and finite, got {self.scale}")
        if not 0 < self.exponent <= 2:
            raise DomainError("variogram exponent must lie in (0, 2]")

    def __call__(self, lags):
        h = np.asarray(lags, dtype=float)
        r = np.abs(h) if h.ndim == 0 else np.sqrt((h * h).sum(axis=-1))
        return self.scale * r ** self.exponent


@dataclass(frozen=True)
class QuadraticVariogram:
    """gamma(h) = h' M h / 2 for PSD M (Gaussian moving-maximum geometry)."""

    matrix: np.ndarray
    family: ClassVar[str] = "quadratic"

    def __post_init__(self):
        a = np.array(self.matrix, dtype=float, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
            raise DomainError("quadratic variogram matrix must be square and finite")
        if not np.array_equal(a, a.T):
            raise DomainError("quadratic variogram matrix must be symmetric")
        psd_factor(a)  # raises NumericError when not PSD
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    def __call__(self, lags):
        h = np.asarray(lags, dtype=float)
        if h.ndim == 0:
            h = h[None]
        if h.shape[-1] != self.matrix.shape[0]:
            raise DomainError("lag dimension does not match variogram matrix")
        return 0.5 * np.einsum("...i,ij,...j->...", h, self.matrix, h)


Variogram = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ExponentialCorrelation:
    """rho(h) = exp(-h / scale), scale > 0, on nonnegative distances."""

    scale: float
    family: ClassVar[str] = "exponential"

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise DomainError(f"correlation scale must be positive and finite, got {self.scale}")

    def __call__(self, dist):
        return np.exp(-np.asarray(dist, dtype=float) / self.scale)


@dataclass(frozen=True)
class PoweredExponentialCorrelation:
    """rho(h) = exp(-(h / scale)**power), 0 < power <= 2."""

    scale: float
    power: float
    family: ClassVar[str] = "powered_exponential"

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise DomainError(f"correlation scale must be positive and finite, got {self.scale}")
        if not 0 < self.power <= 2:
            raise DomainError("correlation power must lie in (0, 2]")

    def __call__(self, dist):
        return np.exp(-((np.asarray(dist, dtype=float) / self.scale) ** self.power))


Correlation = Callable[[np.ndarray], np.ndarray]

VARIOGRAMS = {c.family: c for c in (FractionalVariogram, QuadraticVariogram)}
CORRELATIONS = {c.family: c for c in (ExponentialCorrelation, PoweredExponentialCorrelation)}


def _lookup(registry: dict, name, what: str):
    cls = registry.get(name) if isinstance(name, str) else None
    if cls is None:
        raise DomainError(f"unknown {what} {name!r}")
    return cls


# ---------------------------------------------------------------------------
# pair reductions: concurrence as a one-dimensional expectation of 1/V

@dataclass(frozen=True)
class GaussianPair:
    """A Brown--Resnick pair reduced to its variogram value gamma >= 0; the
    concurrence probability is E[integrand(Z)] over a standard normal Z.

    The integrand writes exp(gamma - a z) Phi(a - z) as a product, not as
    exp(gamma - a z + log Phi(a - z)): both round the exponent alike, and
    the product needs no log.  The quadrature and ``ecp_mc`` share it, and
    ``antithetic`` gives ``ecp_mc`` the mean over z and -z from one Phi(z)."""

    gamma: float

    @property
    def exact(self) -> float | None:
        """The concurrence probability when it needs no integration."""
        return 1.0 if self.gamma == 0.0 else None

    def exponent(self, z: np.ndarray) -> np.ndarray:
        z1, z2 = z[..., 0], z[..., 1]
        if self.gamma == 0.0:
            return np.maximum(1.0 / z1, 1.0 / z2)
        a = math.sqrt(2.0 * self.gamma)
        lr = np.log(z2 / z1)
        return normal_cdf(a / 2.0 + lr / a) / z1 + normal_cdf(a / 2.0 - lr / a) / z2

    def draw(self, g: np.random.Generator, n: int) -> np.ndarray:
        return g.standard_normal(n)

    def _integrand(self, z, phi_z):
        """integrand(z) given phi_z = Phi(z).  exp(gamma - a z) overflows, and
        the value is 0, only where Phi(a - z) > 1/2, so inf * 0 never occurs."""
        a = math.sqrt(2.0 * self.gamma)
        with np.errstate(over="ignore"):
            return 1.0 / (phi_z + np.exp(self.gamma - a * z) * normal_cdf(a - z))

    def integrand(self, z):
        """1 / [Phi(z) + exp(gamma - a z) Phi(a - z)], a = sqrt(2 gamma)."""
        return self._integrand(z, normal_cdf(z))

    def antithetic(self, z):
        """[integrand(z) + integrand(-z)] / 2 with one Phi per pair: Phi(-z)
        is 1 - Phi(z), whose cancellation for z > 0 costs nothing, because the
        other term of that denominator, exp(gamma + a z) Phi(a + z), is >= 1/2."""
        phi = normal_cdf(z)
        return 0.5 * (self._integrand(z, phi) + self._integrand(-z, 1.0 - phi))

    def quad_pieces(self) -> tuple:
        """(integrand, a, b) pieces of E[integrand(Z)].  The integrand rises
        from ~0 to ~1 around z = a/2 (a = sqrt(2 gamma)); splitting at 0, a/2
        and a keeps that step inside short intervals for large gamma."""
        a = math.sqrt(2.0 * self.gamma)

        def f(z):
            return np.exp(-0.5 * z * z) * _INV_SQRT_2PI * self.integrand(z)

        return ((half_line(f, 0.0, -1.0), 0.0, 1.0), (f, 0.0, 0.5 * a),
                (f, 0.5 * a, a), (half_line(f, a, 1.0), 0.0, 1.0))


@dataclass(frozen=True)
class StudentPair:
    """An extremal-t pair reduced to its correlation rho in [-1, 1] and nu; the
    concurrence probability is E[integrand(T)] over a Student t(nu + 1) T."""

    rho: float
    nu: float

    @property
    def exact(self) -> float | None:
        """The concurrence probability when it needs no integration: 1 when
        fully dependent; the integrand vanishes at rho = -1."""
        if abs(self.rho) == 1.0:
            return 1.0 if self.rho > 0 else 0.0
        return None

    def exponent(self, z: np.ndarray) -> np.ndarray:
        rho, nu = self.rho, self.nu
        z1, z2 = z[..., 0], z[..., 1]
        if rho >= 1.0:
            return np.maximum(1.0 / z1, 1.0 / z2)
        if rho <= -1.0:
            return 1.0 / z1 + 1.0 / z2
        sig = math.sqrt((1.0 - rho * rho) / (1.0 + nu))
        r = (z2 / z1) ** (1.0 / nu)
        t1 = student_cdf(-rho / sig + r / sig, nu + 1.0)
        t2 = student_cdf(-rho / sig + 1.0 / (r * sig), nu + 1.0)
        return t1 / z1 + t2 / z2

    def _scale(self) -> float:
        """sigma = sqrt((1 - rho^2) / (1 + nu)), without cancellation near rho = 1."""
        return math.sqrt((1.0 - self.rho) * (1.0 + self.rho) / (1.0 + self.nu))

    def draw(self, g: np.random.Generator, n: int) -> np.ndarray:
        return g.standard_t(self.nu + 1.0, size=n)

    def integrand(self, t):
        """Zero for t <= -rho / sigma.

        The CDF argument (1 / u - rho) / sigma, u = rho + sigma t, is written
        as (sigma (1 + nu) - rho t) / u, which is exact algebra (sigma^2 (1 +
        nu) = 1 - rho^2) and avoids cancelling two terms of size 1/sigma as
        rho -> 1.
        """
        rho, nu = self.rho, self.nu
        sig = self._scale()
        u = rho + sig * t
        ok = u > 0.0
        usafe = np.where(ok, u, 1.0)
        with np.errstate(over="ignore", divide="ignore"):
            tail = usafe ** (-nu) * student_cdf((sig * (1.0 + nu) - rho * t) / usafe, nu + 1.0)
            return np.where(ok, 1.0 / (student_cdf(t, nu + 1.0) + tail), 0.0)

    def antithetic(self, t):
        """[integrand(t) + integrand(-t)] / 2."""
        return 0.5 * (self.integrand(t) + self.integrand(-t))

    def quad_pieces(self) -> tuple:
        """(integrand, a, b) pieces of E[integrand(T)] over the support
        T > lo = -rho / sigma.  For rho near 1, lo lies far out in the tail:
        [lo, 0] is mapped like a half-line so that the nodes gather at the
        density peak at 0, not spread evenly towards lo."""
        dof = self.nu + 1.0
        log_c = (math.lgamma(0.5 * (dof + 1.0)) - math.lgamma(0.5 * dof)
                 - 0.5 * math.log(dof * math.pi))

        def f(t):
            dens = np.exp(log_c - 0.5 * (dof + 1.0) * np.log1p(t * t / dof))
            return dens * self.integrand(t)

        lo = -self.rho / self._scale()
        if lo >= 0.0:
            return ((half_line(f, lo, 1.0), 0.0, 1.0),)
        return ((half_line(f, 0.0, -1.0), 1.0 / (1.0 - lo), 1.0),
                (half_line(f, 0.0, 1.0), 0.0, 1.0))


# ---------------------------------------------------------------------------
# spectral samplers

@dataclass(frozen=True)
class SpectralSampler:
    """Vectorized profile sampler: draw(g, n) -> (n, k) mean-one profiles.

    Its draws are the model's spectral profiles, read by ``spectral_sample``
    and ``simulate_doa``; the max-stable simulator draws from the tilted
    laws of ``ModelSpec.tilted_sampler`` instead.
    """

    draw: Callable[[np.random.Generator, int], np.ndarray]
    k: int


TiltedDraw = Callable[[np.random.Generator, int, np.ndarray, np.ndarray],
                      tuple[np.ndarray, np.ndarray]]
ProfileDraw = Callable[[np.random.Generator, int, int], np.ndarray]


def _screened(profiles: ProfileDraw) -> TiltedDraw:
    """The tilted draw of a model that draws whole profiles: ``profiles(g,
    j, n)`` gives (n, k) profiles tilted at site j, and the draw then keeps
    those whose extremal function stays below the field at the earlier sites."""
    def draw(g, j, zeta, field):
        y = profiles(g, j, zeta.size)
        y *= zeta[:, None]
        keep = (y[:, :j] < field).all(axis=1)
        return keep, y[keep]
    return draw


def _independence_sampler(k: int) -> SpectralSampler:
    """Logistic alpha = 1: a profile k at one uniformly chosen site."""
    def draw(g, n):
        y = np.zeros((n, k))
        y[np.arange(n), g.integers(0, k, size=n)] = float(k)
        return y
    return SpectralSampler(draw, k)


def extremal_t_weight(nu: float) -> float:
    """c_nu with E[c_nu * max(0, W)**nu] = 1 for standard Gaussian W."""
    return math.sqrt(math.pi) * 2.0 ** (-(nu - 2.0) / 2.0) / math.gamma((nu + 1.0) / 2.0)


# ---------------------------------------------------------------------------
# model specifications

class ModelSpec:
    """Base of the model classes.

    Every model defines ``name``, ``exponent(sites, z)`` and ``sampler(sites)``
    (a :class:`SpectralSampler`), and is simulated either by ``exact_fields``
    (max-linear) or by extremal functions drawn from ``tilted_sampler`` (every
    other model).  The hooks below default to "no such feature".  Methods
    take sites normalized by ``sites_of``; normalizing is idempotent.  In
    JSON a ``float`` or ``int`` field is a number (an int a whole one), a
    matrix a list of equal-length rows of numbers, and a ``Variogram`` or
    ``Correlation`` an object of a family of that kind; only a field with a
    default may be left out.
    """

    name: ClassVar[str]

    def sites_of(self, sites):
        """A :class:`SiteSet`, max-linear column indices, or points of (0, 1]."""
        return as_sites(sites)

    def exact_fields(self, sites, g: np.random.Generator, reps: int):
        """(values, hits) by an exact construction, or None."""
        return None

    def exact_values(self, sites, g: np.random.Generator, n: int):
        """(n, k) fields by an exact construction without hitting indices, or None."""
        return None

    def tilted_sampler(self, sites) -> TiltedDraw | None:
        """``draw(g, j, zeta, field) -> (keep, y)``, which drives exact
        simulation by extremal functions; None when the model is simulated by
        ``exact_fields`` instead.

        The draw proposes one extremal function zeta_i Y_i per Poisson point
        zeta_i (an (n,) array), Y_i a spectral profile under the law tilted at
        site j, P_j(dy) = y_j P(dy), divided by y_j so that Y_i(s_j) is
        exactly 1.  ``keep`` (an (n,) mask) marks the proposals that stay
        strictly below ``field`` (n, j), the field at the earlier sites, and
        ``y`` holds the (kept, k) functions zeta_i Y_i of those only.  A
        model may reject a proposal before it draws the rest of its profile."""
        return None

    def concurrence(self, sites) -> float | None:
        """Closed-form concurrence probability, or None."""
        return None

    def pair_reduction(self, sites) -> GaussianPair | StudentPair | None:
        """The pair concurrence as a one-dimensional expectation, or None."""
        return None


class _PairModel(ModelSpec):
    """A bivariate model whose exponent and concurrence come from its pair
    reduction."""

    def exponent(self, sites: SiteSet, z: np.ndarray) -> np.ndarray:
        return self.pair_reduction(sites).exponent(z)


def _logistic_mixture(alpha: float, k: int, g: np.random.Generator, n: int) -> np.ndarray:
    """n exact logistic vectors X_j = (S / E_j)**alpha, with S one-sided
    alpha-stable and E_j iid unit exponentials."""
    s = sample_positive_stable(alpha, g, size=n)
    e = g.standard_exponential((n, k))
    return (np.asarray(s)[:, None] / e) ** alpha


@dataclass(frozen=True)
class Logistic(ModelSpec):
    """Symmetric logistic dependence, alpha in (0, 1]; alpha=1 is independence."""

    alpha: float
    name: ClassVar[str] = "logistic"

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise DomainError(f"logistic alpha must lie in (0, 1], got {self.alpha}")

    def exponent(self, sites: SiteSet, z: np.ndarray) -> np.ndarray:
        if self.alpha == 1.0:
            return (1.0 / z).sum(axis=-1)
        return np.exp(self.alpha * logsumexp(-np.log(z) / self.alpha, axis=-1))

    def sampler(self, sites: SiteSet) -> SpectralSampler:
        k = sites.k
        if self.alpha == 1.0:
            return _independence_sampler(k)
        alpha = self.alpha
        c = math.gamma(1.0 - alpha)

        def draw(g, n):
            w = g.standard_exponential((n, k))
            return w ** (-alpha) / c

        return SpectralSampler(draw, k)

    def tilted_sampler(self, sites: SiteSet) -> TiltedDraw:
        """Y_i = (W_j / W_i)**alpha with W_j ~ Gamma(1 - alpha) and the other
        W_i unit exponentials; alpha = 1 puts all mass at site j (Y = e_j)."""
        k, alpha = sites.k, self.alpha

        def draw(g, j, n):
            if alpha == 1.0:
                y = np.zeros((n, k))
            else:
                y = (g.gamma(1.0 - alpha, size=(n, 1)) / g.standard_exponential((n, k))) ** alpha
            y[:, j] = 1.0
            return y

        return _screened(draw)

    def exact_values(self, sites: SiteSet, g: np.random.Generator, n: int):
        return None if self.alpha == 1.0 else _logistic_mixture(self.alpha, sites.k, g, n)

    def concurrence(self, sites: SiteSet) -> float:
        return ecp_logistic(self.alpha, sites.k)


@dataclass(frozen=True)
class MaxLinear(ModelSpec):
    """eta(s_j) = max_m phi[m, j] * Z_m with unit Frechet Z and column sums 1.

    Its sites are column indices into phi (given as integers).
    """

    phi: np.ndarray
    name: ClassVar[str] = "max_linear"

    def __post_init__(self):
        a = np.array(self.phi, dtype=float, copy=True)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DomainError("phi must be a (components, sites) matrix")
        if np.any(a < 0) or not np.all(np.isfinite(a)):
            raise DomainError("phi entries must be finite and nonnegative")
        if np.any(np.abs(a.sum(axis=0) - 1.0) > 1e-12):
            raise DomainError("phi column sums must equal 1 (tolerance 1e-12)")
        a.flags.writeable = False
        object.__setattr__(self, "phi", a)

    @property
    def n_components(self) -> int:
        return self.phi.shape[0]

    @property
    def n_sites(self) -> int:
        return self.phi.shape[1]

    def sites_of(self, sites) -> np.ndarray:
        if isinstance(sites, SiteSet):
            coords = sites.coords
            if coords.shape[1] != 1:
                raise DomainError("max-linear sites are 1-d column indices")
            raw = coords[:, 0]
        else:
            raw = np.asarray(sites, dtype=float).reshape(-1)
        cols = raw.astype(np.int64)
        if np.any(cols != raw):
            raise DomainError("max-linear sites must be integer column indices")
        if np.any(cols < 0) or np.any(cols >= self.n_sites):
            raise DomainError(f"max-linear site index out of range [0, {self.n_sites})")
        if len(set(cols.tolist())) != len(cols):
            raise DomainError("max-linear site indices must be distinct")
        return cols

    def exponent(self, cols: np.ndarray, z: np.ndarray) -> np.ndarray:
        ratios = self.phi[:, cols] / z[..., None, :]
        return ratios.max(axis=-1).sum(axis=-1)

    def sampler(self, cols: np.ndarray) -> SpectralSampler:
        phi_cols = self.phi[:, cols]
        m = self.n_components
        k = len(cols)

        def draw(g, n):
            idx = g.integers(0, m, size=n)
            return m * phi_cols[idx]

        return SpectralSampler(draw, k)

    def exact_fields(self, cols: np.ndarray, g: np.random.Generator, reps: int):
        """Exact fields by the component argmax."""
        phi_cols = self.phi[:, cols]
        m, k = phi_cols.shape
        values = np.empty((reps, k))
        hits = np.empty((reps, k), dtype=np.int64)
        step = max(1, _REP_CHUNK_ELEMS // max(1, m * k))
        for start in range(0, reps, step):
            stop = min(reps, start + step)
            z = 1.0 / g.standard_exponential((stop - start, m))
            cand = z[:, :, None] * phi_cols[None, :, :]
            values[start:stop] = cand.max(axis=1)
            hits[start:stop] = cand.argmax(axis=1)
        return values, hits

    def concurrence(self, cols: np.ndarray) -> float:
        return ecp_max_linear(self, cols)[0]


@dataclass(frozen=True)
class BrownResnick(_PairModel):
    """Log-Gaussian spectral profiles exp{W(s) - gamma(s)} anchored at the first site."""

    variogram: Variogram
    name: ClassVar[str] = "brown_resnick"

    def _anchored(self, sites: SiteSet):
        """gamma(s - s_1), the lower-triangular factor of the increments
        W(s_2..k) - W(s_1), and ``draw(g, n)`` of the Gaussian W anchored at
        the first site: (n, k) paths with W(s_1) = 0 and Var W(s) = 2 gamma(s - s_1)."""
        lags = sites.lags_from(0)
        gamma0 = np.asarray(self.variogram(lags), dtype=float)
        if np.any(gamma0 < 0):
            raise DomainError("variogram must be nonnegative")
        k = sites.k
        # increments W(s_j) - W(s_1) for j >= 2
        g0 = gamma0[1:]
        pair_lags = sites.coords[1:, None, :] - sites.coords[None, 1:, :]
        gamma_pair = np.asarray(self.variogram(pair_lags), dtype=float)
        cov = g0[:, None] + g0[None, :] - gamma_pair
        cov = 0.5 * (cov + cov.T)
        fac = psd_factor(cov)

        def draw_w(g, n):
            w = np.zeros((n, k))
            w[:, 1:] = g.standard_normal((n, k - 1)) @ fac.T
            return w

        return gamma0, fac, draw_w

    def sampler(self, sites: SiteSet) -> SpectralSampler:
        gamma0, _, draw_w = self._anchored(sites)

        def draw(g, n):
            return np.exp(draw_w(g, n) - gamma0)

        return SpectralSampler(draw, sites.k)

    def tilted_sampler(self, sites: SiteSet) -> TiltedDraw:
        """Y = exp(W - W(s_j) - gamma(s - s_j)), the profile re-anchored at s_j.

        Y is formed from W itself, so column j is exp(0) = 1 exactly even
        when gamma is so steep that every other column underflows to 0.  The
        anchored factor is lower triangular, so W at s_1..s_j takes the first
        j normals only: a proposal draws those, is tested at the earlier
        sites, and only a survivor draws the remaining k - 1 - j.  At j = 0 no
        normal is drawn first and every proposal survives; at j = k - 1 none
        remains to be drawn."""
        _, fac, _ = self._anchored(sites)
        coords = sites.coords
        k = sites.k
        gam = np.asarray(self.variogram(coords[None, :, :] - coords[:, None, :]), dtype=float)
        np.fill_diagonal(gam, 0.0)

        def draw(g, j, zeta, field):
            n = zeta.size
            z = g.standard_normal((n, j))
            w = np.zeros((n, k))
            w[:, 1:j + 1] = z @ fac[:j, :j].T
            lead = w[:, :j] - w[:, j:j + 1]
            lead -= gam[j, :j]
            np.exp(lead, out=lead)
            lead *= zeta[:, None]
            keep = (lead < field).all(axis=1)
            w, z = w[keep], z[keep]
            w[:, j + 1:] = z @ fac[j:, :j].T + g.standard_normal((len(w), k - 1 - j)) @ fac[j:, j:].T
            w -= w[:, j:j + 1]
            w -= gam[j]
            np.exp(w, out=w)
            w *= zeta[keep, None]
            return keep, w

        return draw

    def pair_reduction(self, sites: SiteSet) -> GaussianPair:
        gamma_h = float(np.asarray(self.variogram(_pair_lag(sites))).reshape(()))
        if gamma_h < 0:
            raise DomainError("variogram must be nonnegative")
        return GaussianPair(gamma_h)


@dataclass(frozen=True)
class ExtremalT(_PairModel):
    """Profiles c_nu * max(0, W(s))**nu for stationary standard Gaussian W.

    nu = 1 is the Schlather model.
    """

    correlation: Correlation
    nu: float = 1.0
    name: ClassVar[str] = "extremal_t"

    def __post_init__(self):
        if not 1 <= self.nu < math.inf:
            raise DomainError(f"extremal-t nu must be finite and >= 1, got {self.nu}")

    def _correlation(self, sites: SiteSet):
        """The site correlation matrix (unit diagonal) and a factor of it."""
        corr = np.asarray(self.correlation(sites.distance_matrix()), dtype=float)
        np.fill_diagonal(corr, 1.0)
        if np.any(np.abs(corr) > 1 + 1e-12):
            raise DomainError("correlation values must lie in [-1, 1]")
        return corr, psd_factor(corr)

    def sampler(self, sites: SiteSet) -> SpectralSampler:
        _, fac = self._correlation(sites)
        c = extremal_t_weight(self.nu)
        nu = self.nu
        k = sites.k

        def draw(g, n):
            w = g.standard_normal((n, k)) @ fac.T
            return c * np.maximum(w, 0.0) ** nu

        return SpectralSampler(draw, k)

    def tilted_sampler(self, sites: SiteSet) -> TiltedDraw:
        """Y = max(0, T)**nu for the Student process with nu + 1 degrees of
        freedom T = rho(s, s_j) + (W - rho(s, s_j) W(s_j)) / sqrt(chi2_{nu+1});
        T(s_j) = 1 exactly."""
        corr, fac = self._correlation(sites)
        nu = self.nu
        k = sites.k

        def draw(g, j, n):
            w = g.standard_normal((n, k)) @ fac.T
            chi = np.sqrt(g.chisquare(nu + 1.0, size=(n, 1)))
            t = corr[j] + (w - corr[j] * w[:, j:j + 1]) / chi
            return np.maximum(t, 0.0, out=t) ** nu

        return _screened(draw)

    def pair_reduction(self, sites: SiteSet) -> StudentPair:
        lag = _pair_lag(sites)
        rho = float(np.asarray(self.correlation(math.sqrt(float((lag * lag).sum())))).reshape(()))
        if abs(rho) > 1:
            raise DomainError("correlation values must lie in [-1, 1]")
        return StudentPair(rho, self.nu)


def schlather(correlation: Correlation) -> ExtremalT:
    return ExtremalT(correlation=correlation, nu=1.0)


@dataclass(frozen=True)
class Smith(_PairModel):
    """Gaussian moving-maximum storms: eta(s) = max_i zeta_i * phi_Sigma(s - u_i)."""

    sigma: CovarianceMatrix
    name: ClassVar[str] = "smith"

    def __post_init__(self):
        try:
            np.linalg.cholesky(self.sigma.entries)
        except np.linalg.LinAlgError:
            raise DomainError("Smith Sigma must be positive definite; a singular "
                              "Sigma makes a degenerate storm with no density") from None

    def sites_of(self, sites) -> SiteSet:
        s = as_sites(sites)
        if s.ndim != self.sigma.dim:
            raise DomainError("site dimension does not match Sigma")
        return s

    def sampler(self, sites: SiteSet) -> SpectralSampler:
        d = self.sigma.dim
        sig = self.sigma.entries
        inv = np.linalg.inv(sig)
        _, logdet = np.linalg.slogdet(sig)
        stds = np.sqrt(np.diag(sig))
        lo = sites.coords.min(axis=0) - _SMITH_BUFFER_SIGMAS * stds
        hi = sites.coords.max(axis=0) + _SMITH_BUFFER_SIGMAS * stds
        vol = float(np.prod(hi - lo))
        lognorm = math.log(vol) - 0.5 * (d * math.log(2.0 * math.pi) + logdet)
        k = sites.k
        coords = sites.coords

        def draw(g, n):
            u = g.uniform(lo, hi, size=(n, d))
            diff = coords[None, :, :] - u[:, None, :]
            quad = np.einsum("nkd,de,nke->nk", diff, inv, diff)
            return np.exp(lognorm - 0.5 * quad)

        return SpectralSampler(draw, k)

    def tilted_sampler(self, sites: SiteSet) -> TiltedDraw:
        """The storm centre tilted at s_j is U = s_j + F z, with F F' = Sigma
        and z standard normal, and Y(s) = phi_Sigma(s - U) / phi_Sigma(s_j - U)
        = exp(-z'a - |a|^2 / 2) for a = F^{-1}(s_j - s); a = 0 at s_j."""
        white = np.linalg.solve(self.sigma.factor(), sites.coords.T).T
        d = self.sigma.dim

        def draw(g, j, n):
            a = white[j] - white
            y = g.standard_normal((n, d)) @ -a.T
            y -= 0.5 * (a * a).sum(axis=1)
            return np.exp(y, out=y)

        return _screened(draw)

    def pair_reduction(self, sites: SiteSet) -> GaussianPair:
        return smith_to_brown_resnick(self).pair_reduction(sites)


def smith_to_brown_resnick(model: Smith) -> BrownResnick:
    """Equivalent degenerate Brown--Resnick form, gamma(h) = h' Sigma^{-1} h / 2."""
    inv = np.linalg.inv(model.sigma.entries)
    inv = 0.5 * (inv + inv.T)
    return BrownResnick(variogram=QuadraticVariogram(inv))


@dataclass(frozen=True)
class ExtremalProcess(ModelSpec):
    """Stationary independent max-increments on (0, 1], normalized per site.

    Its sites are strictly increasing points of (0, 1].
    """

    name: ClassVar[str] = "extremal_process"

    def sites_of(self, sites) -> np.ndarray:
        s = as_sites(sites)
        if s.ndim != 1:
            raise DomainError("interval max-increment process lives on (0, 1]")
        x = s.coords[:, 0]
        if np.any(x <= 0) or np.any(x > 1):
            raise DomainError("sites must lie in (0, 1]")
        if np.any(np.diff(x) <= 0):
            raise DomainError("sites must be strictly increasing")
        return x

    def exponent(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        sz = x * z
        suffix_min = np.minimum.accumulate(sz[..., ::-1], axis=-1)[..., ::-1]
        widths = np.diff(x, prepend=0.0)
        return (widths / suffix_min).sum(axis=-1)

    def sampler(self, x: np.ndarray) -> SpectralSampler:
        def draw(g, n):
            u = g.uniform(0.0, 1.0, size=(n, 1))
            return (u <= x[None, :]) / x[None, :]

        return SpectralSampler(draw, len(x))

    def tilted_sampler(self, x: np.ndarray) -> TiltedDraw:
        """U ~ Uniform(0, x_j) and Y_i = (x_j / x_i) 1{U <= x_i}."""
        ratio = x[:, None] / x[None, :]

        def draw(g, j, n):
            return (g.uniform(0.0, x[j], size=(n, 1)) <= x) * ratio[j]

        return _screened(draw)

    def concurrence(self, x: np.ndarray) -> float:
        return ecp_extremal_process(x)


@dataclass(frozen=True)
class BallIndicator(ModelSpec):
    """Moving indicator of a radius-r ball in R^d (Chentsov-type field)."""

    radius: float
    dim: int = 1
    name: ClassVar[str] = "ball_indicator"

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise DomainError(f"ball radius must be positive and finite, got {self.radius}")
        _whole(self.dim, 1, "dim")

    def sites_of(self, sites) -> SiteSet:
        s = as_sites(sites)
        if s.ndim != self.dim:
            raise DomainError("site dimension does not match the ball dimension")
        return s

    def exponent(self, sites: SiteSet, z: np.ndarray) -> np.ndarray:
        """General k in d = 1 via interval sweeps; d >= 2 is limited to pairs."""
        if self.dim == 1:
            inv = 1.0 / z
            out = np.zeros(z.shape[:-1])
            for length, active in _ball_segments_1d(sites.coords[:, 0], self.radius):
                out = out + length * inv[..., active].max(axis=-1)
            return out / (2.0 * self.radius)
        if sites.k == 2:
            h = float(np.linalg.norm(sites.coords[1] - sites.coords[0]))
            q = ball_overlap_fraction(h, self.radius, self.dim)
            z1, z2 = z[..., 0], z[..., 1]
            return (1.0 - q) * (1.0 / z1 + 1.0 / z2) + q * np.maximum(1.0 / z1, 1.0 / z2)
        raise CapabilityError("ball-indicator exponent beyond pairs requires d = 1")

    def sampler(self, sites: SiteSet) -> SpectralSampler:
        r = self.radius
        lo = sites.coords.min(axis=0) - r
        hi = sites.coords.max(axis=0) + r
        vol = float(np.prod(hi - lo))
        weight = vol / unit_ball_volume(self.dim, r)
        k = sites.k
        coords = sites.coords
        d = self.dim

        def draw(g, n):
            u = g.uniform(lo, hi, size=(n, d))
            diff = coords[None, :, :] - u[:, None, :]
            hit = (diff ** 2).sum(axis=-1) <= r * r
            return weight * hit

        return SpectralSampler(draw, k)

    def tilted_sampler(self, sites: SiteSet) -> TiltedDraw:
        """The centre U is uniform in the radius-r ball around s_j, and
        Y_i = 1{|s_i - U| <= r}."""
        r, d = self.radius, self.dim
        coords = sites.coords

        def draw(g, j, n):
            v = g.standard_normal((n, d))
            v *= r * g.uniform(size=(n, 1)) ** (1.0 / d) / np.linalg.norm(v, axis=1, keepdims=True)
            diff = (coords - coords[j])[None, :, :] - v[:, None, :]
            y = ((diff * diff).sum(axis=-1) <= r * r).astype(float)
            y[:, j] = 1.0
            return y

        return _screened(draw)

    def concurrence(self, sites: SiteSet) -> float:
        """General k in d = 1 via interval sweeps; d >= 2 is limited to pairs."""
        if self.dim == 1:
            x = sites.coords[:, 0]
            inter = max(0.0, 2.0 * self.radius - (x.max() - x.min()))
            union = sum(length for length, _ in _ball_segments_1d(x, self.radius))
            return inter / union
        if sites.k == 2:
            h = float(np.linalg.norm(sites.coords[1] - sites.coords[0]))
            return ecp_ball_overlap(h, self.radius, self.dim)
        raise CapabilityError("ball-indicator concurrence beyond pairs requires d = 1")


MODELS = {cls.name: cls for cls in (Logistic, MaxLinear, BrownResnick, ExtremalT, Smith,
                                    ExtremalProcess, BallIndicator)}


# ---------------------------------------------------------------------------
# closed-form concurrence probabilities

def ecp_logistic(alpha: float, k: int) -> float:
    """prod_{j=1}^{k-1} (1 - alpha/j): concurrence of the k-variate logistic."""
    k = _whole(k, 2, "k")
    if not 0 < alpha <= 1:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    out = 1.0
    for j in range(1, k):
        out *= 1.0 - alpha / j
    return out


def ecp_max_linear(phi: np.ndarray, site_subset=None):
    """Concurrence probability of a max-linear model, with per-component parts.

    Returns (p, p_parts) where p_parts[l] is the probability that component
    l alone attains the maximum at every requested site; p = sum(p_parts).
    Ratio conventions: 0/0 = 0, a/0 = inf for a > 0, 1/inf = 0.
    """
    model = phi if isinstance(phi, MaxLinear) else MaxLinear(np.asarray(phi, dtype=float))
    cols = (np.arange(model.n_sites) if site_subset is None
            else model.sites_of(site_subset))
    f = model.phi[:, cols]                      # (m, k)
    m = f.shape[0]
    parts = np.empty(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        for ell in range(m):
            ratios = f / f[ell][None, :]        # (m, k)
            ratios = np.where((f == 0.0) & (f[ell][None, :] == 0.0), 0.0, ratios)
            worst = ratios.max(axis=1)
            total = worst.sum()
            parts[ell] = 0.0 if np.isinf(total) else 1.0 / total
    return float(parts.sum()), parts


def ecp_extremal_process(sites) -> float:
    """s_1 / s_k for strictly increasing sites in (0, 1]."""
    x = ExtremalProcess().sites_of(sites)
    if len(x) < 2:
        raise DomainError("need at least two sites")
    return float(x[0] / x[-1])


def ball_overlap_fraction(h: float, radius: float, dim: int) -> float:
    """|B cap (h + B)| / |B| for balls of the given radius; 0 beyond 2r."""
    if h < 0:
        raise DomainError("lag must be nonnegative")
    if h >= 2.0 * radius:
        return 0.0
    return float(reg_inc_beta((dim + 1) / 2.0, 0.5, 1.0 - h * h / (4.0 * radius * radius)))


def _ball_segments_1d(x: np.ndarray, radius: float):
    """Segments of the union of intervals [x_j - r, x_j + r] with active-site masks."""
    pts = np.unique(np.concatenate([x - radius, x + radius]))
    segments = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        active = np.abs(x - mid) <= radius
        if active.any():
            segments.append((hi - lo, active))
    return segments


def ecp_ball_overlap(h: float, radius: float, dim: int = 1) -> float:
    """Concurrence of the moving ball indicator at lag h: c(h)/(2|A| - c(h)).

    The overlap volume uses the regularized-beta cap formula with argument
    1 - h^2/(4 r^2), which reproduces the exact 1-d overlap 2r - h and the
    planar lens area.
    """
    if not radius > 0:
        raise DomainError("radius must be positive")
    q = ball_overlap_fraction(float(h), float(radius), _whole(dim, 1, "dim"))
    return q / (2.0 - q)


# ---------------------------------------------------------------------------
# entry points

def exponent_V(model: ModelSpec, sites, z):
    """Exponent function: P{eta(s_j) <= z_j, all j} = exp(-V(z)).

    ``z`` is a strictly positive vector of length k, or a batch shaped
    (..., k); the result drops the final axis.  Bivariate-only models
    (Brown--Resnick, extremal-t, Smith in d >= 2 likewise the ball
    indicator beyond d = 1) raise :class:`CapabilityError` for k > 2.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        raise DomainError("z must have at least one site")
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise DomainError("z must be strictly positive and finite")
    s = model.sites_of(sites)
    if len(s) != z.shape[-1]:
        raise DomainError(f"z has {z.shape[-1]} entries but there are {len(s)} sites")
    v = np.asarray(model.exponent(s, z))
    return float(v) if v.ndim == 0 else v


def extremal_coefficient(model: ModelSpec, sites) -> float:
    """Pairwise extremal coefficient theta = V(1, 1), in [1, 2]."""
    return float(exponent_V(model, sites, np.ones(2)))


def spectral_sampler(model: ModelSpec, sites) -> SpectralSampler:
    """Mean-one spectral profile sampler for the model at the given sites."""
    return model.sampler(model.sites_of(sites))


def spectral_sample(model: ModelSpec, sites, rng: RngLike, size: int | None = None):
    """Draw spectral profiles Y(s_1..k); shape (k,) or (size, k).

    E[Y(s_j)] = 1 at every site.  For the Brown--Resnick model the profile
    is anchored at the first site (Y(s_1) = 1 almost surely).
    """
    sampler = spectral_sampler(model, sites)
    g = as_generator(rng)
    y = sampler.draw(g, 1 if size is None else _whole(size, 0, "size"))
    return y[0] if size is None else y


# ---------------------------------------------------------------------------
# JSON form: one codec for every model and family, read off the dataclass fields

def _json_number(value, where: str, whole: bool = False):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise DomainError(f"{where} must be a finite number, got {json.dumps(value, default=repr)}")
    if whole and not float(value).is_integer():
        raise DomainError(f"{where} must be a whole number, got {value}")
    return int(value) if whole else float(value)


def _json_matrix(value, where: str) -> np.ndarray:
    if not (isinstance(value, list)
            and all(isinstance(row, list) and len(row) == len(value[0]) for row in value)):
        raise DomainError(f"{where} must be a list of equal-length rows of numbers")
    return np.array([[_json_number(v, f"{where} entry") for v in row] for row in value])


def _family_kind(registry: dict, what: str, plural: str):
    def encode(obj) -> dict:
        if not isinstance(obj, registry.get(getattr(obj, "family", None), ())):
            raise DomainError(f"only {plural} are serializable")
        return _to_dict(obj, {"family": obj.family})

    return encode, lambda spec, where: _from_dict(registry, spec, "family", what, where)


_KINDS = {  # (encode, decode) by a field's declared type
    "float": (float, _json_number),
    "int": (int, functools.partial(_json_number, whole=True)),
    "np.ndarray": (np.ndarray.tolist, _json_matrix),
    "CovarianceMatrix": (lambda c: c.entries.tolist(),
                         lambda v, where: CovarianceMatrix(_json_matrix(v, where))),
    "Variogram": _family_kind(VARIOGRAMS, "variogram family", "fractional/quadratic variograms"),
    "Correlation": _family_kind(CORRELATIONS, "correlation family",
                                "exponential-family correlations"),
}


def _to_dict(obj, tag: dict) -> dict:
    return {**tag, **{f.name: _KINDS[f.type][0](getattr(obj, f.name)) for f in fields(obj)}}


def _from_dict(registry: dict, spec, tag: str, what: str, where: str):
    """The class of ``registry`` that ``spec[tag]`` names, built from the
    other keys; errors name ``where``, or for a model its name."""
    if not isinstance(spec, dict) or tag not in spec:
        raise DomainError(f"{where} must be an object with a {tag!r} field")
    cls = _lookup(registry, spec[tag], what)
    where = cls.name if tag == "model" else where
    declared = fields(cls)
    for key in spec:
        if key != tag and key not in {f.name for f in declared}:
            raise DomainError(f"{where} has no field {key!r}")
    for f in declared:
        if f.name not in spec and f.default is MISSING:
            raise DomainError(f"{where} needs {f.name!r}")
    return cls(**{f.name: _KINDS[f.type][1](spec[f.name], f"{where} {f.name}")
                  for f in declared if f.name in spec})


def model_to_dict(model: ModelSpec) -> dict:
    """``{"model": name}``, then each field in declaration order."""
    return _to_dict(model, {"model": model.name})


def model_from_dict(spec: dict) -> ModelSpec:
    """The model of a JSON form; see :class:`ModelSpec` for the field rules."""
    return _from_dict(MODELS, spec, "model", "model name", "model spec")
