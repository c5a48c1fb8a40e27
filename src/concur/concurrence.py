"""Closed-form, quadrature, and Monte-Carlo evaluation of extremal
concurrence probabilities.

The concurrence probability p(s_1..k) is the chance that a single spectral
event attains the pointwise maximum at every site.  Closed forms exist for
the logistic, max-linear, interval max-increment, and ball-indicator
models.  Brown--Resnick, Smith, and extremal-t pairs reduce to a
one-dimensional expectation of 1/V: :func:`concurrence_probability`
evaluates it by deterministic adaptive quadrature, and :func:`ecp_mc`
estimates it by Monte Carlo (antithetic variates available whenever the MC
driver is symmetric), as it does 1/V over spectral draws for other models.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import CapabilityError, DomainError, NumericError
from .models import (
    BallIndicator,
    BrownResnick,
    ExtremalProcess,
    ExtremalT,
    Logistic,
    MaxLinear,
    ModelSpec,
    SiteSet,
    Smith,
    _ball_segments_1d,
    _interval_sites,
    _max_linear_columns,
    _pair_lag,
    as_sites,
    ball_overlap_fraction,
    exponent_V,
    smith_to_brown_resnick,
    spectral_sampler,
)
from .simulate import SimControl, simulate_max_stable_batch
from .specfun import RngLike, as_generator, log_ndtr, normal_cdf, student_cdf

Method = Literal["closed_form", "quadrature", "mc_plain", "mc_antithetic",
                 "simulation_frequency"]

_GL_POINTS = 20
_QUAD_TOL = 1e-13
_QUAD_MAX_ROUNDS = 50
_QUAD_MAX_INTERVALS = 512
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ConcurrenceEstimate:
    """Point estimate of a concurrence probability with sampling metadata."""

    value: float
    stderr: float
    n_draws: int
    method: Method

    def __post_init__(self):
        if not -1e-9 <= self.value <= 1 + 1e-9:
            raise DomainError(f"estimate {self.value} outside [0, 1]")
        if not self.stderr >= 0:
            raise DomainError("stderr must be nonnegative")


def _exact(value: float) -> ConcurrenceEstimate:
    return ConcurrenceEstimate(value=float(value), stderr=0.0, n_draws=0,
                               method="closed_form")


# ---------------------------------------------------------------------------
# closed forms

def ecp_logistic(alpha: float, k: int) -> float:
    """prod_{j=1}^{k-1} (1 - alpha/j): concurrence of the k-variate logistic."""
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise DomainError(f"k must be an integer >= 2, got {k}")
    if not 0 < alpha <= 1:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    out = 1.0
    for j in range(1, int(k)):
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
            else _max_linear_columns(model, site_subset))
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
    x = _interval_sites(sites)
    if len(x) < 2:
        raise DomainError("need at least two sites")
    return float(x[0] / x[-1])


def ecp_ball_overlap(h: float, radius: float, dim: int = 1) -> float:
    """Concurrence of the moving ball indicator at lag h: c(h)/(2|A| - c(h)).

    The overlap volume uses the regularized-beta cap formula with argument
    1 - h^2/(4 r^2), which reproduces the exact 1-d overlap 2r - h and the
    planar lens area.
    """
    if h < 0:
        raise DomainError("lag must be nonnegative")
    if not radius > 0:
        raise DomainError("radius must be positive")
    q = ball_overlap_fraction(float(h), float(radius), int(dim))
    return q / (2.0 - q)


def ecp_ball_sites(model: BallIndicator, sites) -> float:
    """Closed-form ball-indicator concurrence for a site set.

    General k is available in d = 1 via interval sweeps; d >= 2 is limited
    to pairs.
    """
    s = as_sites(sites)
    if s.ndim != model.dim:
        raise DomainError("site dimension does not match the ball dimension")
    if model.dim == 1:
        x = s.coords[:, 0]
        inter = max(0.0, 2.0 * model.radius - (x.max() - x.min()))
        union = sum(length for length, _ in _ball_segments_1d(x, model.radius))
        return inter / union
    if s.k == 2:
        h = float(np.linalg.norm(s.coords[1] - s.coords[0]))
        return ecp_ball_overlap(h, model.radius, model.dim)
    raise CapabilityError("ball-indicator concurrence beyond pairs requires d = 1")


# ---------------------------------------------------------------------------
# Monte-Carlo evaluation

def _br_integrand(gamma_h: float, z):
    """1 / [Phi(z) + exp(gamma - a z) Phi(a - z)], a = sqrt(2 gamma): the
    Brown--Resnick pair concurrence is its mean over a standard normal z."""
    a = math.sqrt(2.0 * gamma_h)
    expo = gamma_h - a * z + log_ndtr(a - z)
    small = expo < 700.0
    with np.errstate(over="ignore"):
        return np.where(small, 1.0 / (normal_cdf(z) + np.exp(np.minimum(expo, 700.0))), 0.0)


def _t_scale(rho: float, nu: float) -> float:
    """sigma = sqrt((1 - rho^2) / (1 + nu)), without cancellation near rho = 1."""
    return math.sqrt((1.0 - rho) * (1.0 + rho) / (1.0 + nu))


def _t_integrand(rho: float, nu: float, t):
    """Extremal-t pair integrand; its mean over a Student t(nu + 1) variable
    t is the concurrence.  Zero for t <= -rho / sigma.

    The CDF argument (1 / u - rho) / sigma, u = rho + sigma t, is written as
    (sigma (1 + nu) - rho t) / u, which is exact algebra (sigma^2 (1 + nu)
    = 1 - rho^2) and avoids cancelling two terms of size 1/sigma as rho -> 1.
    """
    sig = _t_scale(rho, nu)
    u = rho + sig * t
    ok = u > 0.0
    usafe = np.where(ok, u, 1.0)
    with np.errstate(over="ignore", divide="ignore"):
        tail = usafe ** (-nu) * student_cdf((sig * (1.0 + nu) - rho * t) / usafe, nu + 1.0)
        return np.where(ok, 1.0 / (student_cdf(t, nu + 1.0) + tail), 0.0)


def _mc_brown_resnick(gamma_h: float, n_draws: int, antithetic: bool,
                      g: np.random.Generator):
    z = g.standard_normal(n_draws)
    vals = _br_integrand(gamma_h, z)
    if antithetic:
        vals = 0.5 * (vals + _br_integrand(gamma_h, -z))
    return vals


def _mc_extremal_t(rho: float, nu: float, n_draws: int, antithetic: bool,
                   g: np.random.Generator):
    t = g.standard_t(nu + 1.0, size=n_draws)
    vals = _t_integrand(rho, nu, t)
    if antithetic:
        vals = 0.5 * (vals + _t_integrand(rho, nu, -t))
    return vals


def _mc_generic(model: ModelSpec, sites, n_draws: int, g: np.random.Generator):
    """Sample mean of 1 / V(Y) over spectral draws; zero-hit rows contribute 0."""
    sampler = spectral_sampler(model, sites)
    vals = np.zeros(n_draws)
    step = max(1, (1 << 22) // max(1, sampler.k))
    for start in range(0, n_draws, step):
        stop = min(n_draws, start + step)
        y = sampler.draw(g, stop - start)
        pos = (y > 0.0).all(axis=1)
        if pos.any():
            v = exponent_V(model, sites, y[pos])
            vals[start:stop][pos] = 1.0 / np.asarray(v)
    return vals


def _pair_gamma(model: BrownResnick, sites) -> float:
    gamma_h = float(np.asarray(model.variogram(_pair_lag(as_sites(sites)))).reshape(()))
    if gamma_h < 0:
        raise DomainError("variogram must be nonnegative")
    return gamma_h


def _pair_rho(model: ExtremalT, sites) -> float:
    lag = _pair_lag(as_sites(sites))
    rho = float(np.asarray(model.correlation(float(np.linalg.norm(lag)))).reshape(()))
    if abs(rho) > 1:
        raise DomainError("correlation values must lie in [-1, 1]")
    return rho


def ecp_mc(model: ModelSpec, sites, n_draws: int, antithetic: bool = False,
           rng: RngLike = None) -> ConcurrenceEstimate:
    """Monte-Carlo concurrence probability via E[1 / V(Y)].

    Brown--Resnick/Smith pairs integrate over a standard normal Z,
    extremal-t pairs over a Student t (antithetic pairs (Z, -Z) available
    for both; a pair counts as one draw for the standard error).  Other
    models use spectral draws plus their exponent function, for which no
    antithetic driver exists.  Fully-dependent parameterizations
    short-circuit to the exact value 1.
    """
    if rng is None:
        raise DomainError("an rng is required")
    n_draws = int(n_draws)
    if n_draws < 2:
        raise DomainError("n_draws must be at least 2")
    g = as_generator(rng)

    if isinstance(model, Smith):
        return ecp_mc(smith_to_brown_resnick(model), sites, n_draws, antithetic, g)
    if isinstance(model, BrownResnick):
        gamma_h = _pair_gamma(model, sites)
        if gamma_h == 0.0:
            return _exact(1.0)
        vals = _mc_brown_resnick(gamma_h, n_draws, antithetic, g)
    elif isinstance(model, ExtremalT):
        rho = _pair_rho(model, sites)
        if rho == 1.0:
            return _exact(1.0)
        vals = _mc_extremal_t(rho, model.nu, n_draws, antithetic, g)
    else:
        if antithetic:
            raise CapabilityError(
                "antithetic draws need a symmetric MC driver (Brown-Resnick, Smith, extremal-t)")
        vals = _mc_generic(model, sites, n_draws, g)

    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n_draws))
    return ConcurrenceEstimate(value=min(max(value, 0.0), 1.0), stderr=stderr,
                               n_draws=n_draws,
                               method="mc_antithetic" if antithetic else "mc_plain")


# ---------------------------------------------------------------------------
# deterministic quadrature

@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _GL_POINTS-point rule, built on first use:
    the eigenvalue solve behind them adds ~1 MB of resident memory, which
    callers that never integrate should not pay."""
    return np.polynomial.legendre.leggauss(_GL_POINTS)


def _gauss(g, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss--Legendre rule of g on each interval [lo_i, hi_i]."""
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * nodes
    return (g(x) * weights).sum(axis=1) * half


def _adaptive_quad(g, a: float, b: float) -> tuple[float, float, int]:
    """(integral, error estimate, evaluations) of a vectorized g on [a, b].

    Every pending interval is halved each round and accepted once the rule
    on the halves agrees with the rule on the whole within its share of
    _QUAD_TOL; all pending intervals of a round are evaluated in one call.
    The loop also stops when the summed disagreement of all intervals is
    within _QUAD_TOL, which ends the refinement towards an endpoint where
    the integrand is not smooth.
    """
    left, right = np.array([a]), np.array([b])
    whole = _gauss(g, left, right)
    value = err = 0.0
    evals = _GL_POINTS
    for _ in range(_QUAD_MAX_ROUNDS):
        if left.size > _QUAD_MAX_INTERVALS:
            break
        mid = 0.5 * (left + right)
        halves = _gauss(g, np.concatenate([left, mid]), np.concatenate([mid, right]))
        evals += halves.size * _GL_POINTS
        n = left.size
        fine = halves[:n] + halves[n:]
        delta = np.abs(fine - whole)
        if err + delta.sum() <= _QUAD_TOL:
            return value + float(fine.sum()), err + float(delta.sum()), evals
        done = delta <= _QUAD_TOL * (right - left) / (b - a)
        value += float(fine[done].sum())
        err += float(delta[done].sum())
        keep = ~done
        left, right = (np.concatenate([left[keep], mid[keep]]),
                       np.concatenate([mid[keep], right[keep]]))
        whole = np.concatenate([halves[:n][keep], halves[n:][keep]])
    raise NumericError(f"quadrature on [{a}, {b}] did not converge")


def _half_line(f, c: float, sign: float):
    """f on c + sign * [0, inf) as an integrand over u in (0, 1]:
    x = c + sign * (1 - u) / u puts half of the u range within 1 of c.
    Distance L from c corresponds to u = 1 / (1 + L)."""
    def g(u):
        return f(c + sign * (1.0 - u) / u) / (u * u)
    return g


def _quad_pieces(pieces) -> ConcurrenceEstimate:
    """Sum of :func:`_adaptive_quad` over (integrand, a, b) pieces.  The
    breakpoints matter: one interval over the whole support can miss a
    narrow peak of the weight (see the callers)."""
    value = err = 0.0
    evals = 0
    for g, a, b in pieces:
        v, e, n = _adaptive_quad(g, a, b)
        value += v
        err += e
        evals += n
    return ConcurrenceEstimate(value=min(max(value, 0.0), 1.0), stderr=err, n_draws=evals,
                               method="quadrature")


def _quad_brown_resnick(gamma_h: float) -> ConcurrenceEstimate:
    """E[_br_integrand(Z)], Z standard normal.  The integrand rises from ~0
    to ~1 around z = a/2 (a = sqrt(2 gamma)); splitting at 0, a/2 and a keeps
    that step inside short intervals for large gamma."""
    a = math.sqrt(2.0 * gamma_h)

    def f(z):
        return np.exp(-0.5 * z * z) * _INV_SQRT_2PI * _br_integrand(gamma_h, z)

    return _quad_pieces(((_half_line(f, 0.0, -1.0), 0.0, 1.0), (f, 0.0, 0.5 * a),
                         (f, 0.5 * a, a), (_half_line(f, a, 1.0), 0.0, 1.0)))


def _quad_extremal_t(rho: float, nu: float) -> ConcurrenceEstimate:
    """E[_t_integrand(T)], T ~ Student t(nu + 1), over the support
    T > lo = -rho / sigma of the integrand.  For rho near 1, lo lies far out
    in the tail: [lo, 0] is mapped like a half-line so that the nodes
    gather at the density peak at 0, not spread evenly towards lo."""
    dof = nu + 1.0
    log_c = (math.lgamma(0.5 * (dof + 1.0)) - math.lgamma(0.5 * dof)
             - 0.5 * math.log(dof * math.pi))

    def f(t):
        dens = np.exp(log_c - 0.5 * (dof + 1.0) * np.log1p(t * t / dof))
        return dens * _t_integrand(rho, nu, t)

    lo = -rho / _t_scale(rho, nu)
    if lo >= 0.0:
        return _quad_pieces(((_half_line(f, lo, 1.0), 0.0, 1.0),))
    return _quad_pieces(((_half_line(f, 0.0, -1.0), 1.0 / (1.0 - lo), 1.0),
                         (_half_line(f, 0.0, 1.0), 0.0, 1.0)))


def _ecp_quadrature(model: ModelSpec, sites) -> ConcurrenceEstimate:
    """Brown--Resnick, Smith, or extremal-t pair concurrence by quadrature of
    the integrand :func:`ecp_mc` samples; exact 1 when fully dependent."""
    if isinstance(model, Smith):
        model = smith_to_brown_resnick(model)
    if isinstance(model, BrownResnick):
        gamma_h = _pair_gamma(model, sites)
        return _exact(1.0) if gamma_h == 0.0 else _quad_brown_resnick(gamma_h)
    rho = _pair_rho(model, sites)
    if abs(rho) == 1.0:     # p = 1 when fully dependent; the integrand vanishes at rho = -1
        return _exact(1.0 if rho > 0 else 0.0)
    return _quad_extremal_t(rho, model.nu)


def ecp_simulation(model: ModelSpec, sites, reps: int,
                   ctrl: SimControl | None = None,
                   rng: RngLike = None) -> ConcurrenceEstimate:
    """Empirical frequency of a single-block hitting scenario (the repo's
    simulation oracle): simulate fields and count concurrent replicates."""
    _, hits, _ = simulate_max_stable_batch(model, sites, reps, ctrl, rng)
    single = (hits == hits[:, :1]).all(axis=1)
    p = float(single.mean())
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / reps)
    return ConcurrenceEstimate(value=p, stderr=stderr, n_draws=int(reps),
                               method="simulation_frequency")


# ---------------------------------------------------------------------------
# dispatcher and targets

def concurrence_probability(model: ModelSpec, sites) -> ConcurrenceEstimate:
    """Best available evaluation: closed form where one exists, else
    deterministic quadrature (Brown--Resnick, Smith, and extremal-t pairs)."""
    if isinstance(model, Logistic):
        return _exact(ecp_logistic(model.alpha, as_sites(sites).k))
    if isinstance(model, MaxLinear):
        p, _ = ecp_max_linear(model, sites)
        return _exact(p)
    if isinstance(model, ExtremalProcess):
        return _exact(ecp_extremal_process(sites))
    if isinstance(model, BallIndicator):
        return _exact(ecp_ball_sites(model, sites))
    if isinstance(model, (BrownResnick, ExtremalT, Smith)):
        return _ecp_quadrature(model, sites)
    raise CapabilityError(f"no concurrence evaluation for {type(model).__name__}")


def kendall_target_p(model: ModelSpec, pair) -> float:
    """Population value the pairwise Kendall estimator converges to, i.e.
    the bivariate concurrence probability p(s_1, s_2).

    Coincident sites return 1 exactly.  Models without a closed form are
    evaluated by deterministic quadrature.
    """
    if isinstance(model, MaxLinear):
        cols = _max_linear_columns(model, pair)
        if len(cols) != 2:
            raise DomainError("a pair of sites is required")
        p, _ = ecp_max_linear(model, cols)
        return p
    coords = np.asarray(pair, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    if coords.shape[0] != 2:
        raise DomainError("a pair of sites is required")
    if np.array_equal(coords[0], coords[1]):
        return 1.0
    return concurrence_probability(model, SiteSet(coords)).value


# ---------------------------------------------------------------------------
# integrated concurrence probability

def integrated_cp(pairwise_p, weights) -> float:
    """Quadrature of the pairwise concurrence map: sum_g w_g p(s0, s_g).

    Equals the expected concurrence-cell volume of the anchor site when the
    weights discretize the domain.
    """
    p = np.asarray(pairwise_p, dtype=float).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if p.shape != w.shape:
        raise DomainError("pairwise probabilities and weights differ in length")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise DomainError("weights must be positive and finite")
    if np.any(p < -1e-9) or np.any(p > 1 + 1e-9) or not np.all(np.isfinite(p)):
        raise DomainError("probabilities must lie in [0, 1]")
    return float(w @ np.clip(p, 0.0, 1.0))


def rectangle_weights(grid_points) -> np.ndarray:
    """Rectangle-rule weights for a regular 1-d grid (constant spacing)."""
    x = np.asarray(grid_points, dtype=float).reshape(-1)
    if x.size < 2:
        raise DomainError("need at least two grid points")
    d = np.diff(x)
    if np.any(d <= 0) or np.any(np.abs(d - d[0]) > 1e-9 * max(1.0, abs(float(d[0])))):
        raise DomainError("grid must be increasing and regular; pass explicit weights otherwise")
    return np.full(x.size, float(d[0]))
