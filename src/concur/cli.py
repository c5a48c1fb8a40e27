"""Command-line interface.

Subcommands: ingest, blocks, matrix, map, cells, ecp, estimate, simulate,
plan, study.  Global flags (--seed, --out) come before the
subcommand.  JSON reports go to stdout unless --out names a file; CSV
outputs always require --out.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .concurrence import concurrence_probability, ecp_mc
from .errors import ConcurError, DomainError
from .estimators import ESTIMATORS, Sample, estimator, optimal_block_size
from .models import model_from_dict
from .pipeline import (
    cell_area_report,
    cos_lat_weights,
    expected_cell_area_model,
    grid_map,
    ingest_csv,
    pairwise_matrix,
    read_matrix_csv,
    read_strata_csv,
    seasonal_blocks,
    write_grid_csv,
    write_matrix_csv,
)
from .simulate import simulate_max_stable_batch, write_realizations_csv
from .specfun import SeededRng
from .study import StudyConfig, study_harness

SCHEMA_VERSION = "2"


def _emit_json(payload: dict, out: str | None) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _require_out(args) -> str:
    if not args.out:
        raise DomainError("this command writes CSV and needs --out")
    return args.out


def _load_model(path: str):
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def _read_sites_csv(path: str) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                if i == 0:
                    continue  # header
                raise DomainError(f"non-numeric site row {i + 1} in {path}")
    if not rows:
        raise DomainError(f"no sites found in {path}")
    return np.asarray(rows)


def _read_table_csv(path: str):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = [[float(v) for v in row] for row in reader if row]
    return header, np.asarray(data)


def _read_stations_csv(path: str) -> dict[str, tuple[float, float]]:
    out: dict[str, tuple[float, float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["station_id"].strip(),
                           (float(row["lat"]), float(row["lon"])))
    if not out:
        raise DomainError(f"no stations found in {path}")
    return out


def _parse_grid(spec: str):
    parts = spec.split(",")
    if len(parts) != 2:
        raise DomainError("grid must look like lat0:lat1:nlat,lon0:lon1:nlon")
    axes = []
    for part in parts:
        bits = part.split(":")
        if len(bits) != 3:
            raise DomainError("each grid axis must look like start:stop:count")
        start, stop, count = float(bits[0]), float(bits[1]), int(bits[2])
        if count < 1:
            raise DomainError("grid axis count must be >= 1")
        axes.append(np.linspace(start, stop, count))
    return axes[0], axes[1]


def _read_extremes_csv(path: str):
    from .pipeline import SeasonalExtremes
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(SeasonalExtremes(
                station_id=row["station_id"], season=row["season"],
                year=int(row["year"]), value=float(row["value"]),
                coverage=float(row["coverage"]), polarity=row["polarity"]))
    return out


# ---------------------------------------------------------------------------
# command implementations

def _cmd_ecp(args, rng: SeededRng) -> None:
    model = _load_model(args.model)
    sites = _read_sites_csv(args.sites)
    if args.draws > 0:
        est = ecp_mc(model, sites, args.draws, antithetic=args.antithetic, rng=rng)
    else:
        est = concurrence_probability(model, sites)
    _emit_json({"command": "ecp", "value": est.value, "stderr": est.stderr,
                "method": est.method, "n_draws": est.n_draws}, args.out)


def _cmd_estimate(args, rng: SeededRng) -> None:
    header, data = _read_table_csv(args.input)
    names = tuple(header)
    if args.pairs:
        labels = [s.strip() for s in args.pairs.split(",")]
        idx = [names.index(s) if s in names else int(s) for s in labels]
        data = data[:, idx]
        names = tuple(labels)
    sample = Sample(data, names)
    estimate = estimator(args.method, args.block_size, jackknife=args.jackknife)
    _emit_json({"command": "estimate", "method": args.method, "n": sample.n,
                "k": sample.k, "ties_detected": sample.has_ties,
                "pairs": ",".join(names), "m": args.block_size, **estimate(sample)}, args.out)


def _cmd_simulate(args, rng: SeededRng) -> None:
    model = _load_model(args.model)
    sites = _read_sites_csv(args.sites)
    values, hits = simulate_max_stable_batch(model, sites, args.reps, rng)
    out = _require_out(args)
    write_realizations_csv(out, values, None if args.no_hits else hits)
    _emit_json({"command": "simulate", "out": out, "reps": args.reps}, None)


def _cmd_plan(args, rng: SeededRng) -> None:
    plan = optimal_block_size(args.n, args.p, r=args.r, c_r=args.c_r)
    _emit_json({"command": "plan", "m": plan.m, "assumed_r": plan.assumed_r,
                "assumed_c_r": plan.assumed_c_r, "assumed_p": plan.assumed_p,
                "predicted_mse": plan.predicted_mse}, args.out)


def _cmd_ingest(args, rng: SeededRng) -> None:
    result = ingest_csv(args.input, date_format=args.date_format,
                        missing_markers=tuple(args.missing_marker))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["station_id", "lat", "lon", "date", "tmin", "tmax"])
            for r in result.records:
                w.writerow([r.station_id, f"{r.lat:.10g}", f"{r.lon:.10g}",
                            r.date.isoformat(),
                            "" if r.tmin is None else f"{r.tmin:.10g}",
                            "" if r.tmax is None else f"{r.tmax:.10g}"])
    if args.stations_out:
        coords = result.station_coords()
        with open(args.stations_out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["station_id", "lat", "lon"])
            for sid in sorted(coords):
                lat, lon = coords[sid]
                w.writerow([sid, f"{lat:.10g}", f"{lon:.10g}"])
    _emit_json({"command": "ingest", "records": len(result.records),
                "stations": len(result.missing_report),
                "missing_report": result.missing_report,
                "warnings": list(result.warnings)}, None)


def _cmd_blocks(args, rng: SeededRng) -> None:
    result = ingest_csv(args.input)
    extremes = seasonal_blocks(result, args.season, args.polarity,
                               min_coverage=args.min_coverage)
    out = _require_out(args)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["station_id", "season", "year", "value", "coverage", "polarity"])
        for e in extremes:
            w.writerow([e.station_id, e.season, e.year, f"{e.value:.17g}",
                        f"{e.coverage:.6f}", e.polarity])
    _emit_json({"command": "blocks", "out": out, "rows": len(extremes)}, None)


def _cmd_matrix(args, rng: SeededRng) -> None:
    extremes = _read_extremes_csv(args.input)
    matrix = pairwise_matrix(extremes, method=args.method, anchor=args.anchor,
                             min_overlap=args.min_overlap, block_size=args.block_size)
    out = _require_out(args)
    write_matrix_csv(matrix, out)
    done = int(np.isfinite(matrix.estimates).sum())
    _emit_json({"command": "matrix", "out": out, "method": matrix.method,
                "stations": len(matrix.station_ids), "entries": done}, None)


def _cmd_map(args, rng: SeededRng) -> None:
    matrix = read_matrix_csv(args.matrix)
    stations = _read_stations_csv(args.stations)
    lats, lons = _parse_grid(args.grid)
    pts = np.array([stations[s] for s in matrix.station_ids])
    rows = grid_map(pts, matrix.row(args.anchor), lats, lons, idw_power=args.idw_power)
    out = _require_out(args)
    write_grid_csv(rows, out)
    _emit_json({"command": "map", "out": out, "points": int(rows.shape[0])}, None)


def _cmd_cells(args, rng: SeededRng) -> None:
    out = _require_out(args)
    if args.model:
        if not args.grid_sites:
            raise DomainError("model mode needs --grid-sites")
        model = _load_model(args.model)
        sites = _read_sites_csv(args.grid_sites)
        from .concurrence import rectangle_weights
        weights = (rectangle_weights(sites[:, 0]) if sites.shape[1] == 1
                   else np.ones(sites.shape[0]))
        areas, errs = expected_cell_area_model(model, sites, weights, args.reps, rng)
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["site_index", "area", "stderr"])
            for i, (a, e) in enumerate(zip(areas, errs)):
                w.writerow([i, f"{a:.17g}", f"{e:.17g}"])
        _emit_json({"command": "cells", "mode": "model", "out": out,
                    "sites": int(len(areas))}, None)
        return
    if not (args.extremes and args.stations and args.grid):
        raise DomainError("data mode needs --extremes, --stations, and --grid "
                          "(or use --model/--grid-sites for model mode)")
    extremes = _read_extremes_csv(args.extremes)
    stations = _read_stations_csv(args.stations)
    lats, lons = _parse_grid(args.grid)
    strata = read_strata_csv(args.strata) if args.strata else None
    rows = cell_area_report(extremes, stations, lats, lons, strata=strata,
                            base_label=args.base_label, method=args.method,
                            min_overlap=args.min_overlap, idw_power=args.idw_power)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["anchor", "stratum", "area", "anomaly"])
        for r in rows:
            w.writerow([r.anchor, r.stratum, f"{r.area:.17g}", f"{r.anomaly:.17g}"])
    _emit_json({"command": "cells", "mode": "data", "out": out, "rows": len(rows)}, None)


def _cmd_study(args, rng: SeededRng) -> None:
    out = _require_out(args)
    cfg = StudyConfig(experiment=args.experiment, out_dir=out, seed=args.seed,
                      reps=args.reps,
                      sample_sizes=tuple(args.n) if args.n else ())
    result = study_harness(cfg)
    _emit_json({"command": "study", "experiment": args.experiment,
                "csv": result["csv"], "manifest": result["manifest"],
                "rows": len(result["rows"])}, None)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="concur",
                                description="Extremal concurrence probabilities "
                                            "for max-stable processes")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out", default=None, help="output file (or directory for study)")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ecp", help="concurrence probability of a model at sites")
    q.add_argument("--model", required=True, help="model spec JSON file")
    q.add_argument("--sites", required=True, help="CSV of site coordinates")
    q.add_argument("--draws", type=int, default=0,
                   help="force Monte-Carlo with this many draws "
                        "(0 = closed form, or quadrature for pair models)")
    q.add_argument("--antithetic", action="store_true")
    q.set_defaults(func=_cmd_ecp)

    q = sub.add_parser("estimate", help="concurrence estimators on a data table")
    q.add_argument("--input", required=True, help="CSV with one column per site")
    q.add_argument("--method", required=True, choices=list(ESTIMATORS))
    q.add_argument("--block-size", type=int, default=None)
    q.add_argument("--pairs", default=None, help="comma-separated column names or indices")
    q.add_argument("--jackknife", action="store_true", help="bias reduction for mvlog")
    q.set_defaults(func=_cmd_estimate)

    q = sub.add_parser("simulate", help="simulate max-stable fields to CSV")
    q.add_argument("--model", required=True)
    q.add_argument("--sites", required=True)
    q.add_argument("--reps", type=int, required=True)
    q.add_argument("--no-hits", action="store_true", help="omit hit-index columns")
    q.set_defaults(func=_cmd_simulate)

    q = sub.add_parser("plan", help="MSE-optimal block size")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--r", type=int, default=1)
    q.add_argument("--c-r", type=float, default=1.0)
    q.set_defaults(func=_cmd_plan)

    q = sub.add_parser("ingest", help="validate station records")
    q.add_argument("--input", required=True)
    q.add_argument("--date-format", default="%Y-%m-%d")
    q.add_argument("--missing-marker", action="append", default=["", "-9999"])
    q.add_argument("--stations-out", default=None, help="write station_id,lat,lon table")
    q.set_defaults(func=_cmd_ingest)

    q = sub.add_parser("blocks", help="seasonal block extremes")
    q.add_argument("--input", required=True, help="validated records CSV")
    q.add_argument("--season", required=True, choices=["DJF", "MAM", "JJA", "SON"])
    q.add_argument("--polarity", default="max", choices=["max", "negated_min"])
    q.add_argument("--min-coverage", type=float, default=0.9)
    q.set_defaults(func=_cmd_blocks)

    q = sub.add_parser("matrix", help="pairwise concurrence matrix")
    q.add_argument("--input", required=True, help="seasonal extremes CSV")
    q.add_argument("--method", default="kendall", choices=list(ESTIMATORS))
    q.add_argument("--block-size", type=int, default=None)
    q.add_argument("--anchor", default=None)
    q.add_argument("--min-overlap", type=int, default=3)
    q.set_defaults(func=_cmd_matrix)

    q = sub.add_parser("map", help="gridded concurrence map for an anchor station")
    q.add_argument("--matrix", required=True, help="long-form matrix CSV")
    q.add_argument("--stations", required=True, help="station_id,lat,lon CSV")
    q.add_argument("--anchor", required=True)
    q.add_argument("--grid", required=True, help="lat0:lat1:nlat,lon0:lon1:nlon")
    q.add_argument("--idw-power", type=float, default=2.0)
    q.set_defaults(func=_cmd_map)

    q = sub.add_parser("cells", help="expected concurrence-cell areas")
    q.add_argument("--extremes", default=None, help="seasonal extremes CSV (data mode)")
    q.add_argument("--stations", default=None)
    q.add_argument("--grid", default=None)
    q.add_argument("--strata", default=None, help="year,label CSV")
    q.add_argument("--base-label", default=None)
    q.add_argument("--method", default="kendall", choices=list(ESTIMATORS))
    q.add_argument("--min-overlap", type=int, default=3)
    q.add_argument("--idw-power", type=float, default=2.0)
    q.add_argument("--model", default=None, help="model spec JSON (model mode)")
    q.add_argument("--grid-sites", default=None, help="site CSV for model mode")
    q.add_argument("--reps", type=int, default=1000)
    q.set_defaults(func=_cmd_cells)

    q = sub.add_parser("study", help="simulation-study tables")
    q.add_argument("--experiment", required=True,
                   choices=["table1", "fig1", "fig2", "fig3"])
    q.add_argument("--reps", type=int, default=200)
    q.add_argument("--n", type=int, action="append", default=None,
                   help="sample size(s); repeatable")
    q.set_defaults(func=_cmd_study)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rng = SeededRng(args.seed)
    try:
        args.func(args, rng)
    except (ConcurError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
