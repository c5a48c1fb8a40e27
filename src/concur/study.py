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

Each experiment's grid is fixed; a run sets its seed, replicates and
sample sizes, each at least the experiment's largest block size (2 for
``fig2``).  The i-th pair cell of ``table1``, ``fig2`` or ``fig3``, counted
from 1 in row order, draws its stack from substream offset + i (offsets 0,
50 000, 70 000); ``fig1`` draws one per size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concurrence import _concurrences
from .errors import DomainError
from .estimators import (_as_stack, _below, _bootstrap, _kendall, block_mse, optimal_block_size,
                         sample_cp_block, simulate_pair_batch, unbiased_modification)
from .models import BrownResnick, ExtremalT, ExponentialCorrelation, FractionalVariogram, ModelSpec
from .pipeline import _logit, _write_json, _write_rows
from .simulate import simulate_doa
from .specfun import SeededRng, _lookup, _real, _spread, _whole

SCHEMA_VERSION = "1"
_BLOCK_SIZE = 10  # the m of the bootstrap and unbiased estimators in pair cells
_LAG_BRACKET = (1e-4, 60.0)  # the lags lag_for_target_p searches between
# halvings of that bracket whose midpoint lag_for_target_p returns; it
# evaluates p only at the halvings' midpoints inside its falsi bracket
_BISECT_STEPS = 30
_FALSI_STEPS = 14  # regula falsi steps per target at most
_P_TARGETS = (0.25, 0.50, 0.75)  # the target p of the table1 and fig2 cells
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
        for n in self.sample_sizes:
            _whole(n, least, "sample size")


def extremal_t_benchmark() -> ExtremalT:
    return ExtremalT(correlation=ExponentialCorrelation(scale=10.0), nu=5.0)


def _pair_sites(h: float) -> np.ndarray:
    return np.array([[0.0], [float(h)]])


def _p_at_lags(model: ModelSpec, lags) -> np.ndarray:
    """p(0, h) at each lag h, the quadrature pairs in one curve call."""
    return np.array([e.value for e in _concurrences(model, [_pair_sites(h) for h in lags])])


def _halvings(a: np.ndarray, b: np.ndarray, goes_up) -> tuple[np.ndarray, np.ndarray]:
    """The brackets (a, b) after _BISECT_STEPS halvings, each midpoint
    becoming the lower end where goes_up(midpoints) holds."""
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a + b)
        up = goes_up(mid)
        a, b = np.where(up, mid, a), np.where(up, b, mid)
    return a, b


def lag_for_target_p(model: ModelSpec, target):
    """The lag h in (1e-4, 60) with p(0, h) = target for a stationary model:
    the midpoint after _BISECT_STEPS halvings of that bracket.  A sequence
    of targets gives a list of lags, found in lockstep, one call a step.

    p(h) is the fixed rule of :func:`concurrence_probability` (no random
    draws), and it never rises with h for the variogram and correlation
    families here.  So lags L and U with p(L) > target >= p(U) decide every
    halving whose midpoint lies outside (L, U), and three phases narrow
    (L, U): Illinois regula falsi (Dowell & Jarratt, *BIT* 11, 1971) on
    logit p against log h, at most _FALSI_STEPS steps, until U - L is below
    the last halving's width or the falsi lag moves by less than an eighth
    of it; once that lag has settled, the two ends of the last halving's
    bracket around it; then the halvings, evaluating only the midpoints
    strictly inside (L, U).  The lags are the floats plain bisection
    returns.  Bisection evaluates p 32 times a target; the three ``table1``
    lags take 25 evaluations together, and targets p(h) with h from a
    hundredth of the model's scale (correlation range, lag of unit
    variogram, ball radius) to the scale took 6 to 15 each, 2 of them the
    bracket's ends, which the targets share.  Where p(h) settles towards
    p(60) faster than any power of h, falsi gains nothing and the halvings
    do the work: at most 2 + _FALSI_STEPS + 2 + 30 evaluations.
    """
    one = np.ndim(target) == 0
    targets = [_real(x, "target probability", 0, 1) for x in ([target] if one else target)]
    lo, hi = _LAG_BRACKET
    p_lo, p_hi = _p_at_lags(model, _LAG_BRACKET)
    for x in targets:
        if not (p_hi < x < p_lo):
            raise DomainError(f"target {x} outside the bracketed range "
                              f"[{p_hi:.4f}, {p_lo:.4f}]")
    t = np.array(targets)
    width = (hi - lo) * 0.5 ** _BISECT_STEPS  # of the last halving's bracket
    # (L, U) per target, with log L, log U and the Illinois-weighted
    # logit p - logit target at each
    ls, us = np.full(t.size, lo), np.full(t.size, hi)
    xl, xu = np.full(t.size, math.log(lo)), np.full(t.size, math.log(hi))
    fl, fu = _logit(p_lo) - _logit(t), _logit(p_hi) - _logit(t)
    side = np.zeros(t.size)  # the end the last step moved: 1 for L, -1 for U
    last = np.full(t.size, np.nan)  # the lag of the last step

    def falsi():
        with np.errstate(invalid="ignore"):  # 0/0 where logit clips p_lo and p_hi alike
            x = (xl * fu - xu * fl) / (fu - fl)
        h = np.exp(x)
        return x, h, (ls < h) & (h < us) & (us - ls > width), np.abs(h - last) <= width / 8

    for _ in range(_FALSI_STEPS):
        x, h, inside, settled = falsi()
        step = inside & ~settled
        if not step.any():
            break
        p = np.zeros(t.size)
        p[step] = _p_at_lags(model, h[step])
        f = _logit(p) - _logit(t)
        up, down = step & (p > t), step & ~(p > t)
        fu = np.where(up & (side == 1), 0.5 * fu, fu)
        fl = np.where(down & (side == -1), 0.5 * fl, fl)
        ls, xl, fl = np.where(up, h, ls), np.where(up, x, xl), np.where(up, f, fl)
        us, xu, fu = np.where(down, h, us), np.where(down, x, xu), np.where(down, f, fu)
        side = np.where(up, 1, np.where(down, -1, side))
        last = np.where(step, h, last)

    def narrow(idx, lags):
        """Evaluate p at the lags, of the targets idx, and move L or U there."""
        if idx.size:
            above = _p_at_lags(model, lags) > t[idx]
            np.maximum.at(ls, idx[above], lags[above])
            np.minimum.at(us, idx[~above], lags[~above])

    _, h, inside, settled = falsi()
    a, b = _halvings(np.full(t.size, lo), np.full(t.size, hi), lambda mid: mid < h)
    ends, idx = np.concatenate([a, b]), np.tile(np.arange(t.size), 2)
    check = np.tile(settled & inside, 2) & (ls[idx] < ends) & (ends < us[idx])
    narrow(idx[check], ends[check])

    def goes_up(mid):
        idx = np.flatnonzero((ls < mid) & (mid < us))
        narrow(idx, mid[idx])
        return mid <= ls

    a, b = _halvings(np.full(t.size, lo), np.full(t.size, hi), goes_up)
    lags = (0.5 * (a + b)).tolist()
    return lags[0] if one else lags


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
    for p_target, h in zip(_P_TARGETS, lag_for_target_p(model, _P_TARGETS)):
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
