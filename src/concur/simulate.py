"""Simulation of max-stable fields with hitting-scenario tracking.

Every model is simulated exactly, by one of two paths (see ``models``):

* max-linear fields come from the component argmax (``exact_fields``);
* every other model's fields come from their extremal functions (Dombry,
  Engelke & Oesting, "Exact simulation of max-stable processes",
  Biometrika 103, 2016, Algorithm 2): for each site s_j in turn, Poisson
  points zeta = 1/Gamma with profiles from the law tilted at s_j
  (``tilted_sampler``), until zeta falls below the field at s_j, keeping a
  profile only when it stays below the field at every earlier site.  A
  realization draws k profiles on average, and its hitting scenario is
  exact.  The tilted draw makes that test itself and returns the survivors
  only, so a model can reject a profile before it draws all of it
  (Brown--Resnick does, through a lower-triangular factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError
from .models import _REP_CHUNK_ELEMS, ModelSpec, TiltedDraw, _logistic_mixture, spectral_sampler
from .specfun import RngLike, _whole, as_generator


@dataclass(frozen=True)
class FieldRealization:
    """Simulated field values plus, per site, the label of the spectral
    function attaining it.

    Every simulator records the labels; ``hit_index`` is None only in a
    realization built without them, which :func:`hitting_scenario` refuses.
    """

    values: np.ndarray
    hit_index: np.ndarray | None


@dataclass(frozen=True)
class Partition:
    """Set partition of site indices {0, ..., k-1} in canonical order."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        if not self.blocks:
            raise DomainError("partition must have at least one block")
        for b in self.blocks:
            if len(b) == 0:
                raise DomainError("partition blocks must be nonempty")
            for i in b:
                if i in seen:
                    raise DomainError("partition blocks must be disjoint")
                seen.add(i)
        if seen != set(range(len(seen))):
            raise DomainError("partition must cover 0..k-1")

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        lab = np.asarray(labels).reshape(-1)
        groups: dict = {}
        for i, v in enumerate(lab.tolist()):
            groups.setdefault(v, []).append(i)
        blocks = sorted((tuple(g) for g in groups.values()), key=lambda b: b[0])
        return cls(tuple(blocks))

    @property
    def k(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_concurrent(self) -> bool:
        return len(self.blocks) == 1


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
            # a new extremal function stays below the field at s_1..s_{j-1}
            keep, y = draw(g, j, 1.0 / gam[active], values[active, :j])
            rows = active[keep]
            cur = values[rows]
            upd = y > cur
            values[rows] = np.where(upd, y, cur)
            hits[rows] = np.where(upd, found[rows, None], hits[rows])
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


def simulate_max_stable(model: ModelSpec, sites, rng: RngLike) -> FieldRealization:
    """Simulate one max-stable field realization with hitting indices."""
    values, hits = simulate_max_stable_batch(model, sites, 1, rng)
    return FieldRealization(values=values[0], hit_index=hits[0])


def hitting_scenario(realization: FieldRealization) -> Partition:
    """Partition of sites by the spectral function attaining them."""
    if realization.hit_index is None:
        raise CapabilityError("realization carries no hitting indices")
    return Partition.from_labels(realization.hit_index)


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
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    x = _logistic_mixture(alpha, _whole(k, 1, "k"), as_generator(rng),
                          1 if size is None else _whole(size, 0, "size"))
    return x[0] if size is None else x


def simulate_doa(model: ModelSpec, sites, n0: int, rng: RngLike,
                 size: int | None = None):
    """Partial-maxima sampler in the domain of attraction of the model.

    Returns (1/n0) * max_{i<=n0} Y_i(s) / U_i with U_i iid Uniform(0,1) and
    Y_i the model's spectral profiles; converges to the max-stable law as
    n0 grows.  No hitting indices.
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
        u = g.uniform(size=(nn, n0))
        out[start:stop] = (y / u[:, :, None]).max(axis=1) / n0
    return out[0] if size is None else out

