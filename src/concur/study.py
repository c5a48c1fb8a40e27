"""Simulation-study harness: estimator benchmarks in reproducible tables.

Four canned experiments mirror the package's benchmark suite:

* ``table1`` -- sample vs. extremal concurrence estimators on extremal-t
  pairs (nu = 5, exponential correlation, range 10) across target
  probabilities, sample sizes, and perturbation levels n0 of the
  domain-of-attraction sampler (n0 = None means exactly max-stable data);
* ``fig1``   -- RMSE of the block and Rao--Blackwellized estimators as the
  block size and sample size vary, on Brown--Resnick pairs calibrated to
  p = 0.5, with the MSE-planner prediction alongside;
* ``fig2``   -- RMSE of the Kendall estimator across (p, n0, n);
* ``fig3``   -- distribution summaries of the three estimators at integer
  lags for extremal-t and Brown--Resnick models.

Every run is reproducible from (seed, rep counts); cells draw from
counter-derived substreams so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concurrence import concurrence_probability
from .errors import DomainError
from .estimators import (block_cp_batch, block_mse, bootstrap_cp_batch, kendall_batch,
                         optimal_block_size, simulate_pair_batch, unbiased_modification)
from .models import BrownResnick, ExtremalT, ExponentialCorrelation, FractionalVariogram, ModelSpec
from .pipeline import _write_json, _write_rows
from .simulate import simulate_doa
from .specfun import SeededRng

SCHEMA_VERSION = "1"

@dataclass(frozen=True)
class StudyConfig:
    """Knobs for one experiment run; defaults are scaled-down but faithful."""

    experiment: str
    out_dir: str | Path
    seed: int = 20240801
    reps: int = 200
    sample_sizes: tuple[int, ...] = ()
    n0_levels: tuple = ()            # ints, or None for exactly max-stable
    p_targets: tuple[float, ...] = (0.25, 0.50, 0.75)
    block_size: int = 10
    m_grid: tuple[int, ...] = ()
    lags: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise DomainError(f"unknown experiment {self.experiment!r}; "
                              f"choose one of {tuple(EXPERIMENTS)}")
        if self.reps < 2:
            raise DomainError("reps must be >= 2")


def extremal_t_benchmark() -> ExtremalT:
    return ExtremalT(correlation=ExponentialCorrelation(scale=10.0), nu=5.0)


def _pair_sites(h: float) -> np.ndarray:
    return np.array([[0.0], [float(h)]])


def lag_for_target_p(model: ModelSpec, target: float, lo: float = 1e-4, hi: float = 60.0,
                     iters: int = 30) -> float:
    """Bisect the lag h with p(0, h) = target for a stationary model.

    p(h) is evaluated by deterministic quadrature, so the bisection is exact
    up to the bracket width 2**-iters (hi - lo) and needs no random draws.
    """
    if not 0.0 < target < 1.0:
        raise DomainError("target probability must lie in (0, 1)")

    def p_of(h: float) -> float:
        return concurrence_probability(model, _pair_sites(h)).value

    p_lo, p_hi = p_of(lo), p_of(hi)
    if not (p_hi < target < p_lo):
        raise DomainError(f"target {target} outside the bracketed range "
                          f"[{p_hi:.4f}, {p_lo:.4f}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if p_of(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _simulate_block(model: ModelSpec, sites, n0, reps: int, n: int,
                    rng: SeededRng) -> np.ndarray:
    if n0 is None:
        return simulate_pair_batch(model, sites, reps, n, rng)
    return simulate_doa(model, sites, int(n0), rng, size=reps * n).reshape(reps, n, -1)


def _summaries(values: np.ndarray, truth: float) -> dict:
    return {
        "mean": float(values.mean()),
        "sd": float(values.std(ddof=1)),
        "median": float(np.median(values)),
        "rmse": float(math.sqrt(((values - truth) ** 2).mean())),
    }


# ---------------------------------------------------------------------------
# experiments

def _run_table1(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    sizes = cfg.sample_sizes or (100,)
    n0s = cfg.n0_levels or (1, 10, None)
    m = cfg.block_size
    model = extremal_t_benchmark()
    rows: list[dict] = []
    cell = 0
    for p_target in cfg.p_targets:
        h = lag_for_target_p(model, p_target)
        sites = _pair_sites(h)
        for n in sizes:
            for n0 in n0s:
                cell += 1
                data = _simulate_block(model, sites, n0, cfg.reps, n, rng.substream(cell))
                star = bootstrap_cp_batch(data, m)
                unbiased = unbiased_modification(star, m)
                tau = kendall_batch(data, tie_adjusted=True).estimate
                for name, vals in (("bootstrap", star), ("unbiased", unbiased), ("kendall", tau)):
                    rows.append({"experiment": "table1", "p_target": p_target,
                                 "lag": h, "n": n, "n0": "inf" if n0 is None else n0,
                                 "m": m, "estimator": name, "reps": cfg.reps,
                                 **_summaries(vals, p_target)})
    return rows


def _run_fig1(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    sizes = cfg.sample_sizes or (1000,)
    m_grid = cfg.m_grid or tuple(range(2, 41, 2))
    model = BrownResnick(variogram=FractionalVariogram(scale=1.0 / 1.627, exponent=1.0))
    sites = _pair_sites(1.0)
    p = 0.5
    rows: list[dict] = []
    for ni, n in enumerate(sizes):
        data = _simulate_block(model, sites, None, cfg.reps, n, rng.substream(1 + ni))
        plan = optimal_block_size(n, p, r=1, c_r=1.0 - p)
        for m in m_grid:
            block = block_cp_batch(data, m)
            star = bootstrap_cp_batch(data, m)
            predicted = math.sqrt(block_mse(n, m, p, 1, 1.0 - p))
            for name, vals in (("block", block), ("bootstrap", star)):
                rows.append({"experiment": "fig1", "n": n, "m": m, "estimator": name,
                             "reps": cfg.reps, "optimal_m": plan.m,
                             "predicted_rmse": predicted, **_summaries(vals, p)})
    return rows


def _run_fig2(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    sizes = cfg.sample_sizes or (25, 50, 100)
    n0s = cfg.n0_levels or (1, 5, 10, 15, None)
    model = extremal_t_benchmark()
    rows: list[dict] = []
    cell = 0
    for p_target in cfg.p_targets:
        h = lag_for_target_p(model, p_target)
        sites = _pair_sites(h)
        for n in sizes:
            for n0 in n0s:
                cell += 1
                data = _simulate_block(model, sites, n0, cfg.reps, n, rng.substream(50_000 + cell))
                tau = kendall_batch(data, tie_adjusted=True).estimate
                rows.append({"experiment": "fig2", "p_target": p_target, "lag": h,
                             "n": n, "n0": "inf" if n0 is None else n0,
                             "estimator": "kendall", "reps": cfg.reps,
                             **_summaries(tau, p_target)})
    return rows


def _run_fig3(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    sizes = cfg.sample_sizes or (100,)
    m = cfg.block_size
    families = {
        "extremal_t": extremal_t_benchmark(),
        "brown_resnick": BrownResnick(variogram=FractionalVariogram(scale=1.0 / 3.0, exponent=1.0)),
    }
    rows: list[dict] = []
    cell = 0
    for fam_name, model in families.items():
        for h in cfg.lags:
            sites = _pair_sites(h)
            truth = concurrence_probability(model, sites).value
            for n in sizes:
                cell += 1
                data = _simulate_block(model, sites, None, cfg.reps, n,
                                       rng.substream(70_000 + cell))
                star = bootstrap_cp_batch(data, m)
                unbiased = unbiased_modification(star, m)
                tau = kendall_batch(data, tie_adjusted=True).estimate
                for name, vals in (("bootstrap", star), ("unbiased", unbiased),
                                   ("kendall", tau)):
                    rows.append({"experiment": "fig3", "family": fam_name, "lag": h,
                                 "n": n, "m": m, "estimator": name, "reps": cfg.reps,
                                 "theoretical_p": truth, **_summaries(vals, truth)})
    return rows


# experiment name -> the runner of its rows
EXPERIMENTS = {"table1": _run_table1, "fig1": _run_fig1, "fig2": _run_fig2, "fig3": _run_fig3}


# ---------------------------------------------------------------------------
# harness

def study_harness(cfg: StudyConfig) -> dict:
    """Run one experiment, write its CSV table and a JSON manifest.

    Returns {"rows": [...], "csv": path, "manifest": path}; byte-identical
    outputs for identical configs.
    """
    rng = SeededRng(cfg.seed)
    rows = EXPERIMENTS[cfg.experiment](cfg, rng)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.experiment}.csv"
    fields = sorted({key for row in rows for key in row})
    _write_rows(csv_path, fields, ([_fmt(row.get(k, "")) for k in fields] for row in rows))
    manifest_path = out_dir / f"{cfg.experiment}_manifest.json"
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "reps": cfg.reps,
        "rows": len(rows),
        "csv": csv_path.name,
    }
    _write_json(manifest, manifest_path)
    return {"rows": rows, "csv": str(csv_path), "manifest": str(manifest_path)}


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return v
