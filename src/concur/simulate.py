"""Simulation of max-stable fields with hitting-scenario tracking.

Every model is simulated exactly, by one of two paths (see ``models``):

* max-linear fields come from the component argmax (``exact_fields``);
* every other model's fields come from their extremal functions (Dombry,
  Engelke & Oesting, "Exact simulation of max-stable processes",
  Biometrika 103, 2016, Algorithm 2): for each site s_j in turn, Poisson
  points zeta = 1/Gamma with profiles from the law tilted at s_j
  (``tilted_sampler``), until zeta falls below the field at s_j, keeping a
  profile only when it stays below the field at every earlier site.  A
  realization draws k profiles on average, and its hitting scenario, the
  ``hits`` labels of :func:`simulate_max_stable_batch`, is exact.  The
  tilted draw makes that test itself and returns the survivors only, so a
  model can reject a profile before it draws all of it.
  Brown--Resnick does: a proposal first draws one normal, its increment to
  the earlier site nearest by the variogram, and is tested there; only a
  survivor draws its other normals.  A kept profile lies below the field at
  the earlier sites, so the engine updates the sites from s_j on only.
"""

from __future__ import annotations

import numpy as np

from .models import _REP_CHUNK_ELEMS, ModelSpec, TiltedDraw, _logistic_mixture, spectral_sampler
from .specfun import RngLike, _real, _whole, as_generator


# ---------------------------------------------------------------------------
# core engine

def _extremal_functions(draw: TiltedDraw, k: int, g: np.random.Generator, reps: int):
    """Exact fields of ``reps`` realizations through their extremal functions.

    ``draw`` is a model's tilted draw (see ``ModelSpec.tilted_sampler``).
    Returns (values, hits, drawn): hits label each site with the ordinal,
    within its realization, of the extremal function attaining it, and
    drawn counts the profiles proposed per realization, k on average
    (Dombry, Engelke & Oesting 2016), rejected ones included.
    """
    values = np.zeros((reps, k))
    hits = np.full((reps, k), -1, dtype=np.int64)
    found = np.zeros(reps, dtype=np.int64)
    drawn = np.zeros(reps, dtype=np.int64)
    for j in range(k):
        gam = g.standard_exponential(reps)
        active = np.flatnonzero(1.0 / gam > values[:, j])
        while active.size:
            # a new extremal function stays strictly below the field at
            # s_1..s_{j-1}, so only the sites from s_j on can change
            keep, y = draw(g, j, 1.0 / gam[active], values[active, :j])
            rows = active[keep]
            y = y[:, j:]
            cur = values[rows, j:]
            upd = y > cur
            values[rows, j:] = np.where(upd, y, cur)
            hits[rows, j:] = np.where(upd, found[rows, None], hits[rows, j:])
            found[rows] += 1
            drawn[active] += 1
            gam[active] += g.standard_exponential(active.size)
            active = active[1.0 / gam[active] > values[active, j]]
    return values, hits, drawn


def simulate_max_stable_batch(model: ModelSpec, sites, reps: int, rng: RngLike):
    """Simulate ``reps`` independent fields; returns (values, hits).

    values: (reps, k) unit-Frechet fields; hits: (reps, k) labels of the
    spectral function attaining each site.
    """
    reps = _whole(reps, 1, "reps")
    g = as_generator(rng)
    s = model.sites_of(sites)
    fields = model.exact_fields(s, g, reps)
    if fields is not None:
        return fields
    tilted = model.tilted_sampler(s)
    k = len(s)
    # one round holds a handful of (active, k) arrays
    step = max(1, _REP_CHUNK_ELEMS // (8 * k))
    parts = [_extremal_functions(tilted, k, g, min(step, reps - start))[:2]
             for start in range(0, reps, step)]
    return tuple(np.concatenate(a) for a in zip(*parts))


def simulate_field_values(model: ModelSpec, sites, n: int,
                          g: np.random.Generator) -> np.ndarray:
    """(n, k) independent fields without hitting indices: the model's exact
    construction when it has one (the positive-stable logistic), else
    :func:`simulate_max_stable_batch`."""
    s = model.sites_of(sites)
    values = model.exact_values(s, g, n)
    if values is None:
        values, _ = simulate_max_stable_batch(model, s, n, g)
    return values


def simulate_pair_batch(model: ModelSpec, sites, reps: int, n: int,
                        rng: RngLike) -> np.ndarray:
    """(reps, n, k) stack of independent max-stable observations, the
    samples of one study cell: :func:`simulate_field_values` of reps * n
    fields."""
    reps, n = _whole(reps, 1, "reps"), _whole(n, 1, "n")
    values = simulate_field_values(model, sites, reps * n, as_generator(rng))
    return values.reshape(reps, n, values.shape[1])


def simulate_cell_labels(model: ModelSpec, grid, reps: int, rng: RngLike) -> np.ndarray:
    """Labels of the spectral functions attaining the sites of a grid, one
    row per replicate.

    The concurrence cell of a grid site in a replicate is the set of sites
    sharing its label.
    """
    _, hits = simulate_max_stable_batch(model, grid, reps, rng)
    return hits


# ---------------------------------------------------------------------------
# exact logistic sampler and domain-of-attraction sampler

def simulate_logistic_exact(alpha: float, k: int, rng: RngLike, size: int | None = None):
    """Exact logistic max-stable vectors via a positive-stable mixture.

    X_j = (S / E_j)**alpha with S one-sided alpha-stable and E_j iid unit
    exponentials gives unit Frechet margins and the logistic copula.  No
    hitting indices are available from this construction.
    """
    x = _logistic_mixture(_real(alpha, "alpha", 0, 1), _whole(k, 1, "k"), as_generator(rng),
                          1 if size is None else _whole(size, 0, "size"))
    return x[0] if size is None else x


def simulate_doa(model: ModelSpec, sites, n0: int, rng: RngLike,
                 size: int | None = None):
    """Partial-maxima sampler in the domain of attraction of the model.

    Returns (1/n0) * max_{i<=n0} Y_i(s) / U_i with U_i iid Uniform(0,1) and
    Y_i the model's spectral profiles; converges to the max-stable law as
    n0 grows.  No hitting indices.

    The draws come in chunks of about ``_REP_CHUNK_ELEMS`` doubles.  Each
    chunk's profiles are divided by their uniforms in place and reduced
    over the n0 slices by halving in place, so no array of the chunk's size
    is made beyond the sampler's own.
    """
    n0 = _whole(n0, 1, "n0")
    n = 1 if size is None else _whole(size, 0, "size")
    sampler = spectral_sampler(model, sites)
    g = as_generator(rng)
    k = sampler.k
    out = np.empty((n, k))
    step = max(1, _REP_CHUNK_ELEMS // max(1, n0 * k))
    for start in range(0, n, step):
        stop = min(n, start + step)
        nn = stop - start
        y = sampler.draw(g, nn * n0).reshape(nn, n0, k)
        y /= g.uniform(size=(nn, n0))[:, :, None]
        # fold the upper slices onto the lower ones, log2(n0) calls with long
        # inner loops (a max over the middle axis runs k-wide ones)
        h = n0
        while h > 1:
            half = h // 2
            np.maximum(y[:, :half], y[:, h - half:h], out=y[:, :half])
            h -= half
        np.divide(y[:, 0], n0, out=out[start:stop])
    return out[0] if size is None else out

