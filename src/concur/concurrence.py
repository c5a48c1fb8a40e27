"""Quadrature and Monte-Carlo evaluation of extremal concurrence
probabilities.

The concurrence probability p(s_1..k) is the chance that a single spectral
event attains the pointwise maximum at every site.  Closed forms exist for
the logistic, max-linear, interval max-increment, and ball-indicator
models; they live with the models.  Brown--Resnick, Smith, and extremal-t
pairs reduce to a one-dimensional expectation of 1/V (the models' pair
reductions): :func:`concurrence_probability` evaluates it by one fixed
tanh-sinh quadrature rule (the pairs' curve, which takes many pairs of one
model in one array pass), and :func:`ecp_mc` estimates it by Monte Carlo
(antithetic variates available whenever the MC driver is symmetric), as it
does 1/V over spectral draws for other models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import CapabilityError, DomainError
from .models import ModelSpec, exponent_V, spectral_sampler
from .simulate import simulate_max_stable_batch
from .specfun import RngLike, _real, _reals, _regular_step, _spread, _whole, as_generator

Method = Literal["closed_form", "quadrature", "mc_plain", "mc_antithetic",
                 "simulation_frequency"]

_MC_BLOCK = 8192  # draws per evaluation of a pair integrand in ecp_mc


@dataclass(frozen=True)
class ConcurrenceEstimate:
    """Point estimate of a concurrence probability with sampling metadata."""

    value: float
    stderr: float
    n_draws: int
    method: Method

    def __post_init__(self):
        _real(self.value, "estimate", -1e-9, 1 + 1e-9, "[]")
        _real(self.stderr, "stderr", 0, ends="[)")


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
    calling thread draws blocks of ``_MC_BLOCK`` in order, which takes the
    same stream as one call of ``n_draws``, and the integrand runs on each
    drawn block in place, its temporaries in cache, on the CPUs
    (``specfun._spread``) while the next blocks are drawn.  Other
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
        f = pair.antithetic if antithetic else pair.integrand
        vals = np.empty(n_draws)

        def draw(start):
            block = vals[start:start + _MC_BLOCK]
            block[:] = pair.draw(g, len(block))
            return block

        def integrand(block):
            block[:] = f(block)

        _spread(integrand, range(0, n_draws, _MC_BLOCK), draw)

    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n_draws))
    return ConcurrenceEstimate(value=min(max(value, 0.0), 1.0), stderr=stderr,
                               n_draws=n_draws,
                               method="mc_antithetic" if antithetic else "mc_plain")


# ---------------------------------------------------------------------------
# simulation

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
    return _concurrences(model, [sites])[0]


def _concurrences(model: ModelSpec, site_sets) -> list[ConcurrenceEstimate]:
    """:func:`concurrence_probability` at each of several site sets of one
    model, the pairs that need quadrature in one call of their curve (each
    value as the rule gives it for that pair alone)."""
    out: list[ConcurrenceEstimate | None] = []
    pairs = []
    for sites in site_sets:
        s = model.sites_of(sites)
        p = model.concurrence(s)
        if p is None:
            pair = model.pair_reduction(s)
            if pair is None:
                raise CapabilityError(f"no concurrence evaluation for {type(model).__name__}")
            p = pair.exact
            if p is None:
                pairs.append(pair)
        out.append(None if p is None else _exact(p))
    if pairs:
        values, errs, nodes = pairs[0].curve(pairs)
        quad = iter([ConcurrenceEstimate(value=min(max(v, 0.0), 1.0), stderr=e, n_draws=nodes,
                                         method="quadrature")
                     for v, e in zip(values.tolist(), errs.tolist())])
        out = [next(quad) if est is None else est for est in out]
    return out


# ---------------------------------------------------------------------------
# integrated concurrence probability

def integrated_cp(pairwise_p, weights) -> float:
    """Quadrature of the pairwise concurrence map: sum_g w_g p(s0, s_g).

    Equals the expected concurrence-cell volume of the anchor site when the
    weights discretize the domain.
    """
    w = _reals(weights, "weights", 0).reshape(-1)
    p = _reals(pairwise_p, "probabilities", -1e-9, 1 + 1e-9, "[]").reshape(-1)
    if p.shape != w.shape:
        raise DomainError("pairwise probabilities and weights differ in length")
    return float(w @ np.clip(p, 0.0, 1.0))


def rectangle_weights(grid_points) -> np.ndarray:
    """Rectangle-rule weights for a regular 1-d grid (constant spacing)."""
    x = _reals(grid_points, "grid points").reshape(-1)
    if x.size < 2:
        raise DomainError("need at least two grid points")
    step = _regular_step(x)
    if step is None or step < 0:
        raise DomainError("grid must be increasing and regular; pass explicit weights otherwise")
    return np.full(x.size, step)
