"""Simulation-study harness: estimator benchmarks in reproducible tables.

Four canned experiments mirror the package's benchmark suite:

* ``table1`` -- sample vs. extremal concurrence estimators on extremal-t
  pairs (nu = 5, exponential correlation, range 10) at the lags where p is
  0.25, 0.5 and 0.75 (three constants of the design), across sample sizes
  and perturbation levels n0 of the domain-of-attraction sampler (n0 =
  None means exactly max-stable data);
* ``fig1``   -- RMSE of the block and Rao--Blackwellized estimators as the
  block size and sample size vary, on Brown--Resnick pairs calibrated to
  p = 0.5, with the MSE-planner prediction alongside;
* ``fig2``   -- RMSE of the Kendall estimator across (p, n0, n);
* ``fig3``   -- distribution summaries of the three estimators at integer
  lags for extremal-t and Brown--Resnick models.

Each experiment's grid is fixed; a run sets its seed, replicates and
distinct sample sizes, each at least the experiment's largest block size
(2 for ``fig2``).  The i-th pair cell of ``table1``, ``fig2`` or ``fig3``,
counted from 1 in row order, draws its stack from substream offset + i
(offsets 0, 50 000, 70 000); ``fig1`` draws one per size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concurrence import _concurrences
from .errors import DomainError
from .estimators import (_as_stack, _below, _bootstrap, _kendall, block_mse, optimal_block_size,
                         sample_cp_block, unbiased_modification)
from .models import BrownResnick, ExtremalT, ExponentialCorrelation, FractionalVariogram, ModelSpec
from .pipeline import _write_json, _write_rows
from .simulate import simulate_doa, simulate_pair_batch
from .specfun import SeededRng, _lookup, _spread, _whole

SCHEMA_VERSION = "1"
_BLOCK_SIZE = 10  # the m of the bootstrap and unbiased estimators in pair cells
_P_TARGETS = (0.25, 0.50, 0.75)  # the target p of the table1 and fig2 cells
# the lag h of each target: on extremal_t_benchmark(), the midpoint of
# (1e-4, 60) after 30 halvings on p(0, h) = target, each halving keeping
# the half where p crosses the target; tests/test_study.py recomputes them
_TARGET_LAGS = (4.033834306077706, 1.1081611376502085, 0.20790745718018155)
_N0_LEVELS = {"table1": (1, 10, None), "fig2": (1, 5, 10, 15, None)}  # None: max-stable
_FIG1_BLOCK_SIZES = tuple(range(2, 41, 2))
_FIG3_LAGS = (1.0, 2.0, 3.0, 4.0)


@dataclass(frozen=True)
class StudyConfig:
    """One experiment run on its fixed grid; defaults are scaled-down but faithful."""

    experiment: str
    out_dir: str | Path
    seed: int = 20240801
    reps: int = 200
    sample_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        _, least = _lookup(EXPERIMENTS, self.experiment, "experiment")
        _whole(self.reps, 2, "reps")
        sizes = [_whole(n, least, "sample size") for n in self.sample_sizes]
        for i, n in enumerate(sizes):
            if n in sizes[:i]:
                raise DomainError(f"sample size {n} is given twice")


def extremal_t_benchmark() -> ExtremalT:
    return ExtremalT(correlation=ExponentialCorrelation(scale=10.0), nu=5.0)


def _pair_sites(h: float) -> np.ndarray:
    return np.array([[0.0], [float(h)]])


def _p_at_lags(model: ModelSpec, lags) -> np.ndarray:
    """p(0, h) at each lag h, the quadrature pairs in one curve call."""
    return np.array([e.value for e in _concurrences(model, [_pair_sites(h) for h in lags])])


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
    """Draw, estimate and summarize pair cells, one row per estimator, in
    cell order.

    A cell is (row fields, model, sites, truth, n, n0); the i-th cell (from 1)
    draws from substream offset + i.  The calling thread draws the cells in
    order while the cells already drawn are estimated on the other CPUs
    (``specfun._spread``), so the rows do not depend on the CPU count.  A
    cell with the bootstrap records m.  The estimators share one dominance
    count of the cell's stack; each value equals its estimator's on the
    stack (``sample_cp_bootstrap``, the estimate of
    ``ecp_kendall(tie_adjusted=True)``, whose jackknife is not computed).
    A replicate with a constant coordinate, for which tau_b is 0/0 (at small
    n, where many DOA draws are 0), is left out of the Kendall row, whose
    ``reps`` counts the replicates it summarizes.
    """
    m = _BLOCK_SIZE
    rows: list[list[dict]] = [[] for _ in cells]

    def draw(cell):
        _, model, sites, _, n, n0 = cells[cell]
        return cell, _as_stack(_simulate_block(model, sites, n0, cfg.reps, n,
                                               rng.substream(offset + cell + 1)))[0]

    def estimate(drawn):
        cell, data = drawn
        fields, _, _, truth, _, _ = cells[cell]
        d = _below(data)
        values = {}
        if "bootstrap" in estimators:  # the unbiased estimator is derived from it
            star = values["bootstrap"] = _bootstrap(d, m)
            values["unbiased"] = unbiased_modification(star, m)
            fields = {**fields, "m": m}
        reps = {name: cfg.reps for name in estimators}
        if "kendall" in estimators:
            # tau_b is 0/0 on a replicate with a constant coordinate
            ok = (data.max(axis=1) > data.min(axis=1)).all(axis=1)
            if not ok.all():
                data, d = data[ok], d[ok]
            if len(data) < 2:
                raise DomainError(f"{cfg.experiment} cell {cell + 1}: {len(data)} of {cfg.reps} "
                                  f"replicates have a defined Kendall tau, 2 are needed")
            values["kendall"] = _kendall(data, d, tie_adjusted=True)[0]
            reps["kendall"] = len(data)
        rows[cell] = [{"experiment": cfg.experiment, **fields, "estimator": name,
                       "reps": reps[name], **_summaries(values[name], truth)}
                      for name in estimators]

    _spread(estimate, range(len(cells)), draw)
    return [row for cell_rows in rows for row in cell_rows]


def _target_cells(sizes, n0s) -> list:
    """Extremal-t cells at each target p's lag, by (p, n, n0)."""
    model = extremal_t_benchmark()
    cells = []
    for p_target, h in zip(_P_TARGETS, _TARGET_LAGS):
        cells += [({"p_target": p_target, "lag": h, "n": n, "n0": "inf" if n0 is None else n0},
                   model, _pair_sites(h), p_target, n, n0) for n in sizes for n0 in n0s]
    return cells


def _run_table1(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    return _pair_rows(cfg, rng, 0, _target_cells(cfg.sample_sizes or (100,), _N0_LEVELS["table1"]))


def _run_fig1(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    sizes = cfg.sample_sizes or (1000,)
    model = BrownResnick(variogram=FractionalVariogram(scale=1.0 / 1.627, exponent=1.0))
    sites = _pair_sites(1.0)
    p = 0.5
    rows: list[dict] = []
    for ni, n in enumerate(sizes):
        data = _simulate_block(model, sites, None, cfg.reps, n, rng.substream(1 + ni))
        d = _below(_as_stack(data)[0])  # one count for every block size
        plan = optimal_block_size(n, p, r=1, c_r=1.0 - p)
        for m in _FIG1_BLOCK_SIZES:
            block = sample_cp_block(data, m)
            star = _bootstrap(d, m)
            predicted = math.sqrt(block_mse(n, m, p, 1, 1.0 - p))
            for name, vals in (("block", block), ("bootstrap", star)):
                rows.append({"experiment": "fig1", "n": n, "m": m, "estimator": name,
                             "reps": cfg.reps, "optimal_m": plan.m,
                             "predicted_rmse": predicted, **_summaries(vals, p)})
    return rows


def _run_fig2(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    cells = _target_cells(cfg.sample_sizes or (25, 50, 100), _N0_LEVELS["fig2"])
    return _pair_rows(cfg, rng, 50_000, cells, ("kendall",))


def _run_fig3(cfg: StudyConfig, rng: SeededRng) -> list[dict]:
    families = {
        "extremal_t": extremal_t_benchmark(),
        "brown_resnick": BrownResnick(variogram=FractionalVariogram(scale=1.0 / 3.0, exponent=1.0)),
    }
    cells = []
    for fam_name, model in families.items():
        for h, truth in zip(_FIG3_LAGS, _p_at_lags(model, _FIG3_LAGS).tolist()):
            cells += [({"family": fam_name, "lag": h, "n": n, "theoretical_p": truth},
                       model, _pair_sites(h), truth, n, None) for n in cfg.sample_sizes or (100,)]
    return _pair_rows(cfg, rng, 70_000, cells)


# experiment name -> (the runner of its rows, its least sample size: the
# largest block size its estimators take, or 2 for Kendall's tau alone)
EXPERIMENTS = {"table1": (_run_table1, _BLOCK_SIZE), "fig1": (_run_fig1, _FIG1_BLOCK_SIZES[-1]),
               "fig2": (_run_fig2, 2), "fig3": (_run_fig3, _BLOCK_SIZE)}


# ---------------------------------------------------------------------------
# harness

def study_harness(cfg: StudyConfig) -> dict:
    """Run one experiment, write its CSV table and a JSON manifest.

    Returns {"rows": [...], "csv": path, "manifest": path}; byte-identical
    outputs for identical configs.
    """
    rng = SeededRng(cfg.seed)
    rows = EXPERIMENTS[cfg.experiment][0](cfg, rng)
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
    return f"{v:.17g}" if isinstance(v, float) else v
