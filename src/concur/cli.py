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
from .concurrence import concurrence_probability, ecp_mc, rectangle_weights
from .errors import ConcurError, DomainError, ParseError
from .estimators import ESTIMATORS, Sample, estimator, optimal_block_size
from .models import model_from_dict
from .pipeline import (
    POLARITIES,
    SEASONS,
    _coordinates,
    _csv_lines,
    _number,
    _open_csv,
    _write_json,
    cell_area_report,
    check_mappable,
    expected_cell_area_model,
    grid_map,
    ingest_csv,
    pairwise_matrix,
    read_extremes_csv,
    read_matrix_csv,
    read_stations_csv,
    read_strata_csv,
    seasonal_blocks,
    station_points,
    write_cells_csv,
    write_extremes_csv,
    write_grid_csv,
    write_matrix_csv,
    write_model_cells_csv,
    write_realizations_csv,
    write_records_csv,
    write_stations_csv,
)
from .simulate import simulate_max_stable_batch
from .specfun import SeededRng
from .study import EXPERIMENTS, StudyConfig, study_harness

SCHEMA_VERSION = "2"


def _emit_json(payload: dict, out: str | None) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    if out:
        _write_json(payload, out)
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _require_out(args) -> str:
    if not args.out:
        raise DomainError("this command writes CSV and needs --out")
    return args.out


def _load_model(path: str):
    data = Path(path).read_bytes()
    try:
        spec = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not utf-8 text (byte 0x{data[exc.start]:02x})",
                         line=data.count(b"\n", 0, exc.start) + 1) from exc
    except ValueError as exc:  # not JSON, or an integer over Python's digit limit
        raise ParseError(str(exc)) from exc
    return model_from_dict(spec)


def _read_numeric_csv(path: str, named: bool):
    """(header, array) of a CSV file of numbers, every row as long as the
    first.  With ``named`` the first row is the header; otherwise a
    non-numeric first row is skipped as one.  Any other non-numeric or
    ragged row, and a byte that is not UTF-8 in any row, raises ParseError
    naming its line."""
    rows = []
    with _open_csv(path) as fh:
        lines = _csv_lines(csv.reader(fh))
        header = next(lines, (1, []))[1] if named else None
        for line, row in lines:
            if not row:
                continue
            try:
                rows.append([_number(v) for v in row])
            except ValueError as exc:
                if line > 1:
                    raise ParseError(str(exc), line=line) from exc
                continue
            if len(row) != len(rows[0]):
                raise ParseError(f"{len(row)} values, {len(rows[0])} expected", line=line)
    return header, np.asarray(rows)


def _read_sites_csv(path: str) -> np.ndarray:
    _, sites = _read_numeric_csv(path, named=False)
    if sites.size == 0:
        raise DomainError(f"no sites found in {path}")
    return sites


def _parse_grid(spec: str):
    """The latitude and longitude axes of a lat0:lat1:nlat,lon0:lon1:nlon
    grid, latitudes in [-90, 90] and longitudes in [-180, 180], each axis
    running from its first bound to its second, up or down; an axis has one
    node exactly when its bounds are equal.  The bounds and counts take the
    number rule of the CSV fields."""
    try:
        axes = [(_number(a), _number(b), _number(n, int))
                for a, b, n in (p.split(":") for p in spec.split(","))]
        lat, lon = axes
    except ValueError:
        raise DomainError(f"grid {spec!r} must look like lat0:lat1:nlat,lon0:lon1:nlon, "
                          f"with whole counts") from None
    if min(lat[2], lon[2]) < 1:
        raise DomainError("grid axis count must be >= 1")
    try:
        for corner in zip(lat[:2], lon[:2]):
            _coordinates(*corner)
    except ValueError as exc:
        raise DomainError(f"grid {spec!r}: {exc}") from None
    for axis, (a, b, n) in (("latitude", lat), ("longitude", lon)):
        if (a == b) != (n == 1):
            raise DomainError(f"grid {spec!r}: {axis} axis from {a} to {b} needs a count "
                              f"{'of 1' if a == b else 'above 1'}, got {n}")
    return np.linspace(*lat), np.linspace(*lon)


# ---------------------------------------------------------------------------
# command implementations

def _cmd_ecp(args, rng: SeededRng) -> None:
    if args.antithetic and not args.draws:
        raise DomainError("--antithetic needs --draws (a Monte-Carlo estimate)")
    model = _load_model(args.model)
    sites = _read_sites_csv(args.sites)
    est = (ecp_mc(model, sites, args.draws, antithetic=args.antithetic, rng=rng) if args.draws
           else concurrence_probability(model, sites))
    _emit_json({"command": "ecp", "value": est.value, "stderr": est.stderr,
                "method": est.method, "n_draws": est.n_draws}, args.out)


def _cmd_estimate(args, rng: SeededRng) -> None:
    header, data = _read_numeric_csv(args.input, named=True)
    names = tuple(header)
    if args.pairs:
        labels = [s.strip() for s in args.pairs.split(",")]
        bad = [s for s in labels if s not in names and not (s.isdigit() and int(s) < len(names))]
        if bad:
            raise DomainError(f"--pairs: no column named or numbered {bad[0]!r}")
        data = data[:, [names.index(s) if s in names else int(s) for s in labels]]
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
    result = ingest_csv(args.input)
    if args.out:
        write_records_csv(result.records, args.out)
    if args.stations_out:
        write_stations_csv(result.station_coords(), args.stations_out)
    _emit_json({"command": "ingest", "records": len(result.records),
                "stations": len(result.missing_report),
                "missing_report": result.missing_report,
                "warnings": list(result.warnings)}, None)


def _cmd_blocks(args, rng: SeededRng) -> None:
    result = ingest_csv(args.input)
    extremes = seasonal_blocks(result, args.season, args.polarity,
                               min_coverage=args.min_coverage)
    out = _require_out(args)
    write_extremes_csv(extremes, out)
    _emit_json({"command": "blocks", "out": out,
                "rows": int(np.count_nonzero(~np.isnan(extremes.value)))}, None)


def _cmd_matrix(args, rng: SeededRng) -> None:
    extremes = read_extremes_csv(args.input)
    matrix = pairwise_matrix(extremes, method=args.method, anchor=args.anchor,
                             min_overlap=args.min_overlap, block_size=args.block_size)
    out = _require_out(args)
    write_matrix_csv(matrix, out)
    done = int(np.isfinite(matrix.estimates).sum())
    _emit_json({"command": "matrix", "out": out, "method": matrix.method,
                "stations": len(matrix.station_ids), "entries": done}, None)


def _cmd_map(args, rng: SeededRng) -> None:
    matrix = read_matrix_csv(args.matrix)
    stations = read_stations_csv(args.stations)
    lats, lons = _parse_grid(args.grid)
    pts = station_points(matrix.station_ids, stations)
    check_mappable([args.anchor], matrix.row(args.anchor))
    rows = grid_map(pts, matrix.row(args.anchor), lats, lons, idw_power=args.idw_power)
    out = _require_out(args)
    write_grid_csv(rows, out)
    _emit_json({"command": "map", "out": out, "points": int(rows.shape[0])}, None)


# the flags of each mode of cells, with their defaults
_CELLS_FLAGS = {"model": dict(model=None, grid_sites=None, reps=1000),
                "data": dict(extremes=None, stations=None, grid=None, strata=None, base_label=None,
                             method="kendall", block_size=None, min_overlap=3, idw_power=2.0)}


def _cmd_cells(args, rng: SeededRng) -> None:
    out = _require_out(args)
    mode, other = ("model", "data") if args.model else ("data", "model")
    if given := [name for name in _CELLS_FLAGS[other] if getattr(args, name) is not None]:
        raise DomainError(f"--{given[0].replace('_', '-')} is a {other}-mode flag, and cells "
                          f"with{'' if args.model else 'out'} --model runs in {mode} mode")
    vars(args).update({k: v for k, v in _CELLS_FLAGS[mode].items() if getattr(args, k) is None})
    if args.model:
        if not args.grid_sites:
            raise DomainError("model mode needs --grid-sites")
        model = _load_model(args.model)
        sites = _read_sites_csv(args.grid_sites)
        if sites.shape[1] > 1:
            weights = np.ones(sites.shape[0])
        else:
            try:
                weights = rectangle_weights(sites[:, 0])
            except DomainError:
                raise DomainError("--grid-sites takes two or more increasing, evenly spaced "
                                  "1-d sites, or 2-d sites") from None
        areas, errs = expected_cell_area_model(model, sites, weights, args.reps, rng)
        write_model_cells_csv(areas, errs, out)
        _emit_json({"command": "cells", "mode": "model", "out": out,
                    "sites": int(len(areas))}, None)
        return
    if not (args.extremes and args.stations and args.grid):
        raise DomainError("data mode needs --extremes, --stations, and --grid "
                          "(or use --model/--grid-sites for model mode)")
    extremes = read_extremes_csv(args.extremes)
    stations = read_stations_csv(args.stations)
    lats, lons = _parse_grid(args.grid)
    strata = read_strata_csv(args.strata) if args.strata else None
    rows = cell_area_report(extremes, stations, lats, lons, strata=strata,
                            base_label=args.base_label, method=args.method,
                            min_overlap=args.min_overlap, idw_power=args.idw_power,
                            block_size=args.block_size)
    write_cells_csv(rows, out)
    _emit_json({"command": "cells", "mode": "data", "out": out, "rows": len(rows)}, None)


def _cmd_study(args, rng: SeededRng) -> None:
    out = _require_out(args)
    cfg = StudyConfig(experiment=args.experiment, out_dir=out, seed=args.seed, reps=args.reps,
                      sample_sizes=tuple(args.n or ()))
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
    q.add_argument("--input", required=True, help="station CSV with YYYY-MM-DD dates")
    q.add_argument("--stations-out", default=None, help="write station_id,lat,lon table")
    q.set_defaults(func=_cmd_ingest)

    q = sub.add_parser("blocks", help="seasonal block extremes")
    q.add_argument("--input", required=True, help="validated records CSV")
    q.add_argument("--season", required=True, choices=SEASONS)
    q.add_argument("--polarity", default="max", choices=POLARITIES)
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
    q.add_argument("--method", choices=list(ESTIMATORS), help="data mode; default kendall")
    q.add_argument("--block-size", type=int, default=None)
    q.add_argument("--min-overlap", type=int, help="data mode; default 3")
    q.add_argument("--idw-power", type=float, help="data mode; default 2.0")
    q.add_argument("--model", default=None, help="model spec JSON (model mode)")
    q.add_argument("--grid-sites", default=None, help="site CSV for model mode")
    q.add_argument("--reps", type=int, help="model mode; default 1000")
    q.set_defaults(func=_cmd_cells)

    q = sub.add_parser("study", help="simulation-study tables")
    q.add_argument("--experiment", required=True, choices=EXPERIMENTS)
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
    except (ConcurError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
