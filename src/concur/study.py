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

Every run is reproducible from its config: the i-th pair cell of ``table1``,
``fig2`` or ``fig3``, counted from 1 in row order, draws its stack from
substream offset + i (offsets 0, 50 000, 70 000); ``fig1`` draws one per size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concurrence import concurrence_probability
from .errors import DomainError
from .estimators import (_as_stack, _below, _bootstrap, _kendall, block_mse, optimal_block_size,
                         sample_cp_block, simulate_pair_batch, unbiased_modification)
from .models import BrownResnick, ExtremalT, ExponentialCorrelation, FractionalVariogram, ModelSpec
from .pipeline import _write_json, _write_rows
from .simulate import simulate_doa
from .specfun import SeededRng, _lookup, _real, _whole

SCHEMA_VERSION = "1"
_BLOCK_SIZE = 10  # the m of the bootstrap and unbiased estimators in pair cells
_BISECT_STEPS = 30  # halvings of the lag bracket in lag_for_target_p

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
    m_grid: tuple[int, ...] = ()
    lags: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)

    def __post_init__(self):
        _lookup(EXPERIMENTS, self.experiment, "experiment")
        _whole(self.reps, 2, "reps")
        for n in self.sample_sizes:
            _whole(n, 2, "sample size")
        for n0 in self.n0_levels:
            if n0 is not None:
                _whole(n0, 1, "n0 level")
        for p in self.p_targets:
            _real(p, "p target", 0, 1)
        for m in self.m_grid:
            _whole(m, 2, "block size")
        for h in self.lags:
            _real(h, "lag", 0)


def extremal_t_benchmark() -> ExtremalT:
    return ExtremalT(correlation=ExponentialCorrelation(scale=10.0), nu=5.0)


def _pair_sites(h: float) -> np.ndarray:
    return np.array([[0.0], [float(h)]])


def lag_for_target_p(model: ModelSpec, target: float, lo: float = 1e-4,
                     hi: float = 60.0) -> float:
    """Bisect the lag h with p(0, h) = target for a stationary model.

    p(h) is evaluated by deterministic quadrature, so the bisection is exact
    up to the bracket width 2**-_BISECT_STEPS (hi - lo) and needs no random
    draws.
    """
    target, lo = _real(target, "target probability", 0, 1), _real(lo, "lo", 0)
    hi = _real(hi, "hi", lo)

    def p_of(h: float) -> float:
        return concurrence_probability(model, _pair_sites(h)).value

    p_lo, p_hi = p_of(lo), p_of(hi)
    if not (p_hi < target < p_lo):
        raise DomainError(f"target {target} outside the bracketed range "
                          f"[{p_hi:.4f}, {p_lo:.4f}]")
    for _ in range(_BISECT_STEPS):
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
    return simulate_doa(model, sites, n0, rng, size=reps * n).reshape(reps, n, -1)


def _summaries(values: np.ndarray, truth: float) -> dict:
    return {
        "mean": float(values.mean()),
        "sd": float(values.std(ddof=1)),
        "median": float(np.median(values)),
        "rmse": float(math.sqrt(((values - truth) ** 2).mean())),
    }


# ---------------------------------------------------------------------------
# experiments

def _pair_rows(cfg: StudyConfig, rng: SeededRng, offset: int, cells,
               estimators=("bootstrap", "unbiased", "kendall")) -> list[dict]:
    """Draw, estimate and summarize pair cells in order, one row per estimator.

    A cell is (row fields, model, sites, truth, n, n0); the i-th cell (from 1)
    draws from substream offset + i.  A cell with the bootstrap records m.
    The estimators share one dominance count of the cell's stack; each
    value equals its estimator's on the stack (``sample_cp_bootstrap``,
    ``ecp_kendall(tie_adjusted=True)``).
    """
    m = _BLOCK_SIZE
    rows: list[dict] = []
    for cell, (fields, model, sites, truth, n, n0) in enumerate(cells, 1):
        data, _ = _as_stack(_simulate_block(model, sites, n0, cfg.reps, n,
                                            rng.substream(offset + cell)))
        d = _below(data)
        values = {}
        if "bootstrap" in estimators:  # the unbiased estimator is derived from it
            star = values["bootstrap"] = _bootstrap(d, m)
            values["unbiased"] = unbiased_modification(star, m)
            fields = {**fields, "m": m}
        if "kendall" in estimators:
            values["kendall"] = _kendall(data, d, tie_adjusted=True).estimate
        rows += [{"experiment": cfg.experiment, **fields, "estimator": name, "reps": cfg.reps,
                  **_summaries(values[name], truth)} for name in estimators]
    return rows


def _target_cells(cfg: StudyConfig, sizes, n0s) -> list:
    """Extremal-t cells at each target p's lag, by (p, n, n0)."""
    model = extremal_t_benchmark()
    cells = []
    for p_target in cfg.p_targets:
        h = lag_for_target_p(model, p_target)
        cells += [({"p_target": p_target, "lag": h, "n": n, "n0": "inf" if n0 is None else n0},
                   model, _pair_sites(h), p_target, n, n0) for n in sizes for n0 in n0s]
    return cells


def _run_table1(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    cells = _target_cells(cfg, cfg.sample_sizes or (100,), cfg.n0_levels or (1, 10, None))
    return _pair_rows(cfg, rng, 0, cells)


def _run_fig1(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    sizes = cfg.sample_sizes or (1000,)
    m_grid = cfg.m_grid or tuple(range(2, 41, 2))
    model = BrownResnick(variogram=FractionalVariogram(scale=1.0 / 1.627, exponent=1.0))
    sites = _pair_sites(1.0)
    p = 0.5
    rows: list[dict] = []
    for ni, n in enumerate(sizes):
        data = _simulate_block(model, sites, None, cfg.reps, n, rng.substream(1 + ni))
        d = _below(_as_stack(data)[0])  # one count for every block size
        plan = optimal_block_size(n, p, r=1, c_r=1.0 - p)
        for m in m_grid:
            block = sample_cp_block(data, m)
            star = _bootstrap(d, m)
            predicted = math.sqrt(block_mse(n, m, p, 1, 1.0 - p))
            for name, vals in (("block", block), ("bootstrap", star)):
                rows.append({"experiment": "fig1", "n": n, "m": m, "estimator": name,
                             "reps": cfg.reps, "optimal_m": plan.m,
                             "predicted_rmse": predicted, **_summaries(vals, p)})
    return rows


def _run_fig2(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    cells = _target_cells(cfg, cfg.sample_sizes or (25, 50, 100),
                          cfg.n0_levels or (1, 5, 10, 15, None))
    return _pair_rows(cfg, rng, 50_000, cells, ("kendall",))


def _run_fig3(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    families = {
        "extremal_t": extremal_t_benchmark(),
        "brown_resnick": BrownResnick(variogram=FractionalVariogram(scale=1.0 / 3.0, exponent=1.0)),
    }
    cells = []
    for fam_name, model in families.items():
        for h in cfg.lags:
            sites = _pair_sites(h)
            truth = concurrence_probability(model, sites).value
            cells += [({"family": fam_name, "lag": h, "n": n, "theoretical_p": truth},
                       model, sites, truth, n, None) for n in cfg.sample_sizes or (100,)]
    return _pair_rows(cfg, rng, 70_000, cells)


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
