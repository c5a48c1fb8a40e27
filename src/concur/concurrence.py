"""Quadrature and Monte-Carlo evaluation of extremal concurrence
probabilities.

The concurrence probability p(s_1..k) is the chance that a single spectral
event attains the pointwise maximum at every site.  Closed forms exist for
the logistic, max-linear, interval max-increment, and ball-indicator
models; they live with the models.  Brown--Resnick, Smith, and extremal-t
pairs reduce to a one-dimensional expectation of 1/V (the models' pair
reductions): :func:`concurrence_probability` evaluates it by deterministic
adaptive quadrature, and :func:`ecp_mc` estimates it by Monte Carlo
(antithetic variates available whenever the MC driver is symmetric), as it
does 1/V over spectral draws for other models.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import CapabilityError, DomainError, NumericError
from .models import ModelSpec, SiteSet, exponent_V, spectral_sampler
from .simulate import simulate_max_stable_batch
from .specfun import RngLike, _whole, as_generator

Method = Literal["closed_form", "quadrature", "mc_plain", "mc_antithetic",
                 "simulation_frequency"]

_GL_POINTS = 20
_QUAD_TOL = 1e-13
_QUAD_MAX_ROUNDS = 50
_QUAD_MAX_INTERVALS = 512
_MC_BLOCK = 8192  # draws per evaluation of a pair integrand in ecp_mc


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
# Monte-Carlo evaluation

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


def ecp_mc(model: ModelSpec, sites, n_draws: int, antithetic: bool = False, *,
           rng: RngLike) -> ConcurrenceEstimate:
    """Monte-Carlo concurrence probability via E[1 / V(Y)].

    Brown--Resnick/Smith pairs integrate over a standard normal Z,
    extremal-t pairs over a Student t (antithetic pairs (Z, -Z) available
    for both; a pair counts as one draw for the standard error).  The
    draws are taken in one call and the integrand runs on blocks of
    ``_MC_BLOCK`` of them, whose temporaries stay in cache.  Other
    models use spectral draws plus their exponent function, for which no
    antithetic driver exists.  Fully-dependent parameterizations
    short-circuit to the exact value 1.
    """
    n_draws = _whole(n_draws, 2, "n_draws")
    g = as_generator(rng)

    pair = model.pair_reduction(model.sites_of(sites))
    if pair is None:
        if antithetic:
            raise CapabilityError(
                "antithetic draws need a symmetric MC driver (Brown-Resnick, Smith, extremal-t)")
        vals = _mc_generic(model, sites, n_draws, g)
    elif pair.exact == 1.0:
        return _exact(1.0)
    else:
        x = pair.draw(g, n_draws)
        f = pair.antithetic if antithetic else pair.integrand
        vals = np.empty(n_draws)
        for start in range(0, n_draws, _MC_BLOCK):
            vals[start:start + _MC_BLOCK] = f(x[start:start + _MC_BLOCK])

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


def _quad_pieces(pieces) -> ConcurrenceEstimate:
    """Sum of :func:`_adaptive_quad` over (integrand, a, b) pieces.  The
    breakpoints matter: one interval over the whole support can miss a
    narrow peak of the weight (see the pair reductions in ``models``)."""
    value = err = 0.0
    evals = 0
    for g, a, b in pieces:
        v, e, n = _adaptive_quad(g, a, b)
        value += v
        err += e
        evals += n
    return ConcurrenceEstimate(value=min(max(value, 0.0), 1.0), stderr=err, n_draws=evals,
                               method="quadrature")


def ecp_simulation(model: ModelSpec, sites, reps: int, rng: RngLike) -> ConcurrenceEstimate:
    """Empirical frequency of a single-block hitting scenario (the repo's
    simulation oracle): simulate fields and count concurrent replicates."""
    _, hits = simulate_max_stable_batch(model, sites, reps, rng)
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
    s = model.sites_of(sites)
    p = model.concurrence(s)
    if p is not None:
        return _exact(p)
    pair = model.pair_reduction(s)
    if pair is None:
        raise CapabilityError(f"no concurrence evaluation for {type(model).__name__}")
    if pair.exact is not None:
        return _exact(pair.exact)
    return _quad_pieces(pair.quad_pieces())


def kendall_target_p(model: ModelSpec, pair) -> float:
    """Population value the pairwise Kendall estimator converges to, i.e.
    the bivariate concurrence probability p(s_1, s_2).

    Coincident sites (or a repeated max-linear column) return 1 exactly.
    Models without a closed form are evaluated by deterministic quadrature.
    """
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
