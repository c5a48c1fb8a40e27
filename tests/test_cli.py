"""CLI subcommands, exercised in-process."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import concur
from concur import Logistic, SeededRng, ecp_multivariate_log
from concur.cli import main
from concur.pipeline import cell_area_report, read_extremes_csv, read_stations_csv
from concur.synthetic import synthesize_station_csv

STATIONS = ["A", "B", "C", "D"]
COORDS = np.array([[40.0, -100.0], [41.0, -101.0], [42.0, -99.0], [39.5, -98.5]])


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_plan(capsys):
    code, out = run_cli(capsys, "plan", "--n", "1000", "--p", "0.5",
                        "--r", "1", "--c-r", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 13
    assert payload["schema_version"] == "2"


def test_plan_with_a_bias_order_past_the_floats(capsys):
    # 2^1100 is past the floats; the bias c_r / m^r it divides is 0 to double precision
    code, out = run_cli(capsys, "plan", "--n", "100", "--p", "0.5", "--r", "1100")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2 and payload["predicted_mse"] == 0.005


def test_ecp_closed_form(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": "logistic", "alpha": 0.3}))
    sites = tmp_path / "sites.csv"
    sites.write_text("x\n0.0\n1.0\n")
    code, out = run_cli(capsys, "ecp", "--model", str(model), "--sites", str(sites))
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "closed_form"
    assert payload["value"] == pytest.approx(0.7, abs=1e-12)


def test_ecp_monte_carlo(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "model": "brown_resnick",
        "variogram": {"family": "fractional", "scale": 1 / 1.627, "exponent": 1.0}}))
    sites = tmp_path / "sites.csv"
    sites.write_text("0.0\n1.0\n")
    code, out = run_cli(capsys, "--seed", "7", "ecp", "--model", str(model),
                        "--sites", str(sites), "--draws", "100000", "--antithetic")
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "mc_antithetic"
    assert abs(payload["value"] - 0.5) < 0.01


def test_simulate_then_estimate(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": "logistic", "alpha": 0.5}))
    sites = tmp_path / "sites.csv"
    sites.write_text("0.0\n1.0\n")
    data = tmp_path / "fields.csv"
    code, out = run_cli(capsys, "--seed", "11", "--out", str(data), "simulate",
                        "--model", str(model), "--sites", str(sites),
                        "--reps", "4000", "--no-hits")
    assert code == 0
    assert json.loads(out)["reps"] == 4000

    code, out = run_cli(capsys, "estimate", "--input", str(data),
                        "--method", "kendall", "--pairs", "site_0,site_1")
    payload = json.loads(out)
    assert code == 0
    assert payload["n"] == 4000 and payload["k"] == 2
    assert abs(payload["estimate"] - 0.5) < 0.05
    assert payload["stderr"] > 0

    code, out = run_cli(capsys, "estimate", "--input", str(data),
                        "--method", "bootstrap", "--block-size", "10")
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["estimate"] - 0.55) < 0.06

    code, out = run_cli(capsys, "estimate", "--input", str(data), "--method", "mvlog",
                        "--jackknife")
    payload = json.loads(out)
    assert code == 0
    fields = np.loadtxt(data, delimiter=",", skiprows=1)
    assert payload["estimate"] == ecp_multivariate_log(fields, jackknife=True)
    assert abs(payload["estimate"] - 0.5) < 0.05


def test_estimate_requires_block_size(capsys, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a,b\n1,2\n3,4\n5,6\n")
    code = main(["estimate", "--input", str(data), "--method", "block"])
    assert code == 2


def test_station_pipeline_end_to_end(capsys, tmp_path):
    raw = tmp_path / "raw.csv"
    synthesize_station_csv(raw, Logistic(0.5), STATIONS, COORDS,
                           years=range(1950, 2000), rng=SeededRng(5), season="JJA")
    records = tmp_path / "records.csv"
    stations = tmp_path / "stations.csv"
    code, out = run_cli(capsys, "--out", str(records), "ingest", "--input", str(raw),
                        "--stations-out", str(stations))
    assert code == 0
    assert json.loads(out)["stations"] == 4

    extremes = tmp_path / "extremes.csv"
    code, out = run_cli(capsys, "--out", str(extremes), "blocks", "--input",
                        str(records), "--season", "JJA", "--polarity", "max")
    assert code == 0
    assert json.loads(out)["rows"] == 200  # 4 stations x 50 years

    matrix = tmp_path / "matrix.csv"
    code, out = run_cli(capsys, "--out", str(matrix), "matrix", "--input",
                        str(extremes), "--method", "kendall")
    assert code == 0

    grid = tmp_path / "grid.csv"
    code, out = run_cli(capsys, "--out", str(grid), "map", "--matrix", str(matrix),
                        "--stations", str(stations), "--anchor", "A",
                        "--grid", "39:42:4,-101:-98:4")
    assert code == 0
    rows = np.loadtxt(grid, delimiter=",", skiprows=1)
    assert rows.shape == (16, 3)
    assert np.all((rows[:, 2] >= 0) & (rows[:, 2] <= 1))

    cells = tmp_path / "cells.csv"
    code, out = run_cli(capsys, "--out", str(cells), "cells", "--extremes",
                        str(extremes), "--stations", str(stations),
                        "--grid", "39:42:4,-101:-98:4")
    assert code == 0
    body = cells.read_text().strip().splitlines()
    assert body[0] == "anchor,stratum,area,anomaly"
    assert len(body) == 5

    # cells takes the block methods with --block-size, as matrix does
    code, out = run_cli(capsys, "--out", str(cells), "cells", "--extremes",
                        str(extremes), "--stations", str(stations),
                        "--grid", "39:42:4,-101:-98:4", "--method", "bootstrap",
                        "--block-size", "5")
    assert code == 0
    want = cell_area_report(read_extremes_csv(extremes), read_stations_csv(stations),
                            np.linspace(39, 42, 4), np.linspace(-101, -98, 4),
                            method="bootstrap", block_size=5)
    got = np.loadtxt(cells, delimiter=",", skiprows=1, usecols=2)
    assert got.tolist() == [r.area for r in want]


def test_station_chain_starts_without_scipy(tmp_path):
    # SciPy loads on the first special-function call: in a fresh interpreter,
    # importing the package and running the station chain never loads it, and
    # a method that needs it loads it and writes what an in-process run writes.
    # The package starts its own threads and never imports concurrent.futures;
    # SciPy does, so the last step is not checked for it
    raw, strata, table = tmp_path / "raw.csv", tmp_path / "strata.csv", tmp_path / "table.csv"
    synthesize_station_csv(raw, Logistic(0.5), STATIONS, COORDS,
                           years=range(1980, 2000), rng=SeededRng(5), season="JJA")
    strata.write_text("year,label\n" + "".join(f"{y},{'nino' if y % 3 else 'nada'}\n"
                                                for y in range(1980, 2000)))
    table.write_text("a,b,c\n" + "".join(f"{i % 7},{i % 5},{i % 3}\n" for i in range(30)))
    f = {name: str(tmp_path / f"{name}.csv")
         for name in ("records", "stations", "extremes", "matrix", "grid", "cells", "boot")}
    grid = "39:42:4,-101:-98:4"
    steps = [
        ["--out", f["records"], "ingest", "--input", str(raw), "--stations-out", f["stations"]],
        ["--out", f["extremes"], "blocks", "--input", f["records"], "--season", "JJA"],
        ["--out", f["matrix"], "matrix", "--input", f["extremes"]],
        ["--out", f["grid"], "map", "--matrix", f["matrix"], "--stations", f["stations"],
         "--anchor", "A", "--grid", grid],
        ["--out", f["cells"], "cells", "--extremes", f["extremes"], "--stations", f["stations"],
         "--grid", grid, "--strata", str(strata), "--base-label", "nada"],
        ["plan", "--n", "60", "--p", "0.5"],
        ["estimate", "--input", str(table), "--method", "mvlog", "--jackknife"],
        ["--out", f["boot"], "matrix", "--input", f["extremes"], "--method", "bootstrap",
         "--block-size", "3"],
    ]
    script = ("import contextlib, io, json, sys\n"
              "import concur, concur.cli\n"
              "def scipy():\n"
              "    return sorted(m for m in sys.modules\n"
              "                  if m.split('.')[0] == 'scipy' or m == 'concurrent.futures')\n"
              "loaded = [scipy()]\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert concur.cli.main(argv) == 0, argv\n"
              "    loaded.append(scipy())\n"
              "print(json.dumps(loaded))\n")
    src = str(Path(concur.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(steps)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded[:-1] == [[]] * len(steps)
    assert "scipy.special" in loaded[-1]
    in_process = tmp_path / "boot_in_process.csv"
    assert main(["--out", str(in_process)] + steps[-1][2:]) == 0
    assert Path(f["boot"]).read_bytes() == in_process.read_bytes()


def test_cells_model_mode(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": "ball_indicator", "radius": 100.0, "dim": 1}))
    sites = tmp_path / "sites.csv"
    sites.write_text("\n".join(str(v) for v in np.linspace(0, 3, 7)) + "\n")
    cells = tmp_path / "cells.csv"
    code, out = run_cli(capsys, "--seed", "3", "--out", str(cells), "cells",
                        "--model", str(model), "--grid-sites", str(sites),
                        "--reps", "200")
    assert code == 0
    rows = np.loadtxt(cells, delimiter=",", skiprows=1)
    assert rows.shape == (7, 3)
    assert np.all(rows[:, 1] > 2.9)  # nearly the whole 3.0-long grid


def test_study_smoke(capsys, tmp_path):
    out_dir = tmp_path / "study"
    code, out = run_cli(capsys, "--seed", "2", "--out", str(out_dir), "study",
                        "--experiment", "fig2", "--reps", "10")
    assert code == 0
    payload = json.loads(out)
    manifest = json.loads((out_dir / "fig2_manifest.json").read_text())
    assert manifest["schema_version"] == "1"
    assert (out_dir / "fig2.csv").exists()
    assert payload["rows"] == manifest["rows"]


def test_error_reporting(capsys, tmp_path):
    code = main(["ecp", "--model", str(tmp_path / "missing.json"),
                 "--sites", str(tmp_path / "missing.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_method_choices_shared(capsys):
    # estimate, matrix and cells take the same estimator names
    for command in ("estimate", "matrix", "cells"):
        with pytest.raises(SystemExit):
            main([command, "--input", "x.csv", "--method", "bogus"])
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


MATRIX = "id1,id2,estimate,stderr,n_pairs\nA,A,1,0,5\nA,B,0.5,0.1,5\nB,B,1,0,5\n"
STATIONS_CSV = "station_id,lat,lon\nA,40,-100\nB,41,-101\n"
EXTREMES = ("station_id,season,year,value,coverage,polarity\n"
            "A,JJA,2000,1.5,1.0,max\nB,JJA,2000,2.5,1.0,max\n")
GRID = "39:42:2,-101:-98:2"
MAP = ["map", "--matrix", "{matrix}", "--stations", "{stations}", "--anchor", "A",
       "--grid", GRID]


CELLS = ["cells", "--extremes", "{extremes}", "--stations", "{stations}", "--grid", GRID]
ESTIMATE = ["estimate", "--input", "{table}", "--method", "kendall"]
INGEST = ["ingest", "--input", "{records}"]
ECP = ["ecp", "--model", "{model}", "--sites", "{stations}"]
EXP10 = '"correlation": {"family": "exponential", "scale": 10.0}'
RECORDS = b"station_id,lat,lon,date,tmin,tmax\nA,40,-100,2000-01-01,1,2\n"
NETWORK_CSV = STATIONS_CSV + "C,42,-99\nD,39.5,-98.5\n"


def _extremes(seasons):
    """Extremes CSV text with the given seasons of each station."""
    return "station_id,season,year,value,coverage,polarity\n" + "".join(
        f"{sid},JJA,{y},{(3 * y + 5 * k) % 7}.5,1.0,max\n"
        for k, (sid, years) in enumerate(seasons.items()) for y in years)


# D has two seasons, below the default --min-overlap 3
D_SHORT = _extremes({"A": range(2000, 2005), "B": range(2000, 2005), "C": range(2000, 2005),
                     "D": (2001, 2003)})
D_SHORT_MATRIX = "id1,id2,estimate,stderr,n_pairs\n" + "".join(
    f"{a},{b},{1 if a == b else 'nan' if 'D' in (a, b) else 0.5},0,5\n"
    for a, b in itertools.combinations_with_replacement("ABCD", 2))
FIVE_YEARS = _extremes({"A": range(2000, 2005), "B": range(2000, 2005)})
NETWORK_YEARS = _extremes({sid: range(2000, 2005) for sid in "ABCD"})


@pytest.mark.parametrize("bad, text, argv, message", [
    ("matrix", "id1,id2,stderr,n_pairs\nA,B,0.1,5\n", MAP, "line 1"),
    ("stations", "station_id,lat,lon\nA,40,-100\nB,north,-101\n", MAP, "line 3"),
    ("extremes", EXTREMES + "A,JJA,2001,abc,1.0,max\n", ["matrix", "--input", "{extremes}"],
     "line 4"),
    ("strata", "year,label\n2000,nino\nabc,nada\n", CELLS + ["--strata", "{strata}"], "line 3"),
    ("strata", "year,label\n2000,nino\n2001,nina\n2000,nina\n", CELLS + ["--strata", "{strata}"],
     "line 4: duplicate year 2000"),
    ("matrix", MATRIX + "B,A,0.9,0.1,5\n", MAP, "line 5: duplicate pair A,B"),
    ("table", "a,b\n1,2\n3,x\n", ESTIMATE, "line 3"),
    ("table", "a,b\n1,2\n3\n", ESTIMATE, "line 3"),
    ("sites", "x\n0.0\nabc\n", ["ecp", "--model", "{model}", "--sites", "{sites}"], "line 3"),
    ("sites", "0.0\n1.0,2.0\n", ["ecp", "--model", "{model}", "--sites", "{sites}"], "line 2"),
    ("stations", "station_id,lat,lon\nA,40,-100\n", MAP, "no coordinates for stations ['B']"),
    ("stations", "station_id,lat,lon\nA,40,-100\n", CELLS,
     "no coordinates for stations ['B']"),
    ("table", "a,b\n1,2\n3,4\n", ESTIMATE + ["--pairs", "a,bogus"], "'bogus'"),
    ("table", "a,b\n1,2\n3,4\n", ESTIMATE + ["--pairs", "0,2"], "'2'"),
    ("stations", STATIONS_CSV, MAP[:-1] + ["39:x:2,-101:-98:2"], "grid '39:x:2,-101:-98:2'"),
    ("stations", STATIONS_CSV, MAP[:-1] + ["nan:44:3,-101:-98:2"],
     "grid 'nan:44:3,-101:-98:2': latitude nan outside [-90, 90]"),
    ("stations", STATIONS_CSV, CELLS[:-1] + ["39:42:2,-102:inf:3"],
     "grid '39:42:2,-102:inf:3': longitude inf outside [-180, 180]"),
    ("stations", STATIONS_CSV, MAP[:-1] + ["80:100:3,-101:-98:2"],
     "grid '80:100:3,-101:-98:2': latitude 100.0 outside [-90, 90]"),
    ("stations", STATIONS_CSV, CELLS[:-1] + ["39:42:2,-190:-98:2"],
     "grid '39:42:2,-190:-98:2': longitude -190.0 outside [-180, 180]"),
    # a station's coordinates follow ingest's rule
    ("stations", "station_id,lat,lon\nA,40,-100\nB,nan,-101\n", MAP,
     "line 3: latitude nan outside [-90, 90]"),
    ("stations", "station_id,lat,lon\nA,95,-100\nB,41,-101\n", MAP,
     "line 2: latitude 95.0 outside [-90, 90]"),
    ("stations", "station_id,lat,lon\nA,40,-100\nB,nan,-101\n", CELLS,
     "line 3: latitude nan outside [-90, 90]"),
    ("stations", "station_id,lat,lon\nA,95,-100\nB,41,-101\n", CELLS,
     "line 2: latitude 95.0 outside [-90, 90]"),
    # the reader's own failures: a byte that is not UTF-8, a field over the
    # csv module's size limit (131 072 characters)
    ("records", RECORDS + b"B\xff,40,-100,2000-01-01,1,2\n", INGEST, "line 3: not utf-8 text"),
    ("records", RECORDS + b"A,40,-100,2000-01-02," + b"9" * 140_000 + b",2\n", INGEST,
     "line 3: field larger than field limit"),
    ("stations", STATIONS_CSV.encode() + b"C,\xe9,-99\n", MAP, "line 4: not utf-8 text"),
    ("sites", b"x\n0.0\n1\xfe\n", ["ecp", "--model", "{model}", "--sites", "{sites}"],
     "line 3: not utf-8 text"),
    ("model", b'{"model": "logistic",\n "alpha": 0.5, "note": "\xff"}',
     ["ecp", "--model", "{model}", "--sites", "{stations}"], "line 2: not utf-8 text"),
    # a bad byte is an ordinary bad field: an earlier bad row comes first,
    # and a header, even one that would be skipped, is read as text too
    ("records", RECORDS + b"A,40\nB\xff,40,-100,2000-01-01,1,2\n", INGEST,
     "line 3: 2 fields, 6 expected"),
    ("table", b"a,\xffb\n1,2\n", ESTIMATE, "line 1: not utf-8 text (byte 0xff)"),
    ("sites", b"x\xff\n0.0\n", ["ecp", "--model", "{model}", "--sites", "{sites}"],
     "line 1: not utf-8 text (byte 0xff)"),
    # a number with a digit-group underscore, which float() and int() take
    ("stations", "station_id,lat,lon\nA,40,-100\nB,4_1,-101\n", MAP,
     "line 3: number '4_1' holds an underscore"),
    ("extremes", EXTREMES + "A,JJA,2_001,1.5,1.0,max\n", ["matrix", "--input", "{extremes}"],
     "line 4: number '2_001' holds an underscore"),
    ("matrix", MATRIX.replace("A,B,0.5,0.1,5", "A,B,0.5,0.1,5_0"), MAP,
     "line 3: number '5_0' holds an underscore"),
    ("strata", "year,label\n2000,nino\n2_001,nada\n", CELLS + ["--strata", "{strata}"],
     "line 3: number '2_001' holds an underscore"),
    ("table", "a,b\n1,2\n3,1_0\n", ESTIMATE, "line 3: number '1_0' holds an underscore"),
    ("stations", STATIONS_CSV, MAP[:-1] + ["3_9:42:2,-101:-98:2"], "grid '3_9:42:2,-101:-98:2'"),
    ("stations", STATIONS_CSV, CELLS[:-1] + ["39:42:1_0,-101:-98:2"],
     "grid '39:42:1_0,-101:-98:2'"),
    # an axis has one node exactly when its bounds are equal
    ("stations", STATIONS_CSV, MAP[:-1] + ["40:40:3,-101:-98:2"],
     "grid '40:40:3,-101:-98:2': latitude axis from 40.0 to 40.0 needs a count of 1, got 3"),
    ("stations", STATIONS_CSV, MAP[:-1] + ["39:42:2,-101:-98:1"],
     "grid '39:42:2,-101:-98:1': longitude axis from -101.0 to -98.0 needs a count above 1"),
    ("stations", STATIONS_CSV, CELLS[:-1] + ["39:42:2,-99:-99:4"],
     "grid '39:42:2,-99:-99:4': longitude axis from -99.0 to -99.0 needs a count of 1, got 4"),
    ("stations", STATIONS_CSV, CELLS[:-1] + ["39:42:1,-101:-98:2"],
     "grid '39:42:1,-101:-98:2': latitude axis from 39.0 to 42.0 needs a count above 1"),
    # a model file is read field by field, by each field's declared kind
    ("model", '{"model": "logistic"}', ECP, "logistic needs 'alpha'"),
    ("model", '{"model": "logistic", "alpha": "0.5"}', ECP,
     'logistic alpha must be a finite number, got "0.5"'),
    ("model", '{"model": "logistic", "alpha": null}', ECP,
     "logistic alpha must be a finite number, got null"),
    ("model", '{"model": "ball_indicator", "radius": 1.0, "dim": 2.5}', ECP,
     "ball_indicator dim must be a whole number, got 2.5"),
    ("model", '{"model": "extremal_t", %s, "NU": 5}' % EXP10, ECP,
     "extremal_t has no field 'NU'"),
    ("model", '{"model": "brown_resnick", "variogram": {"family": "exponential", "scale": 1}}',
     ECP, "unknown variogram family 'exponential'; choose one of ('fractional', 'quadratic')"),
    ("model", '{"model": "brown_resnick", "variogram": "fractional"}', ECP,
     "brown_resnick variogram must be an object with a 'family' field"),
    ("model", '{"model": "brown_resnick", "variogram": {"family": "fractional", '
              '"scale": "1", "exponent": 1}}', ECP,
     'brown_resnick variogram scale must be a finite number, got "1"'),
    ("model", '{"model": "smith", "sigma": [[1.0, 0.0], [0.0]]}', ECP,
     "smith sigma must be a list of equal-length rows of numbers"),
    ("model", '{"model": "extremal_t", %s, "nu": Infinity}' % EXP10, ECP,
     "extremal_t nu must be a finite number, got Infinity"),
    ("model", '{"model": "logistic", "alpha": 1%s}' % ("0" * 5000), ECP, "error: "),
    ("model", '{"model": "logistic", "alpha": 0.5', ECP, "error: Expecting ',' delimiter"),
    # a standard error needs two replicates; a block size its method's least
    ("sites", "0.0\n1.0\n", ["cells", "--model", "{model}", "--grid-sites", "{sites}",
                             "--reps", "1"], "reps must be a whole number >= 2, got 1"),
    # 1-d grid sites need rectangle weights, so even spacing; the CLI takes no weights
    ("sites", "0.0\n0.5\n1.7\n", ["cells", "--model", "{model}", "--grid-sites", "{sites}"],
     "--grid-sites takes two or more increasing, evenly spaced 1-d sites, or 2-d sites"),
    ("table", "a,b\n1,2\n3,4\n", ESTIMATE[:-1] + ["bootstrap", "--block-size", "0"],
     "block size must be a whole number >= 2, got 0"),
    ("extremes", EXTREMES, ["matrix", "--input", "{extremes}", "--method", "block",
                            "--block-size", "0"],
     "block size must be a whole number >= 1, got 0"),
    # Kendall's tau and the log estimator use no block size, so none is taken
    ("table", "a,b\n1,2\n3,4\n5,1\n", ESTIMATE + ["--block-size", "3"],
     "method 'kendall' takes no block size, got 3"),
    ("table", "a,b\n1,2\n3,4\n5,1\n", ESTIMATE[:-1] + ["mvlog", "--block-size", "3"],
     "method 'mvlog' takes no block size, got 3"),
    ("extremes", EXTREMES, ["matrix", "--input", "{extremes}", "--block-size", "3"],
     "method 'kendall' takes no block size, got 3"),
    ("extremes", EXTREMES, CELLS + ["--method", "mvlog", "--block-size", "3"],
     "method 'mvlog' takes no block size, got 3"),
    # the jackknife bias reduction is the log estimator's alone
    ("table", "a,b\n1,2\n3,4\n5,1\n", ESTIMATE + ["--jackknife"],
     "the jackknife bias reduction applies to method 'mvlog' only, not 'kendall'"),
    # cells takes --block-size as matrix does; a block size above a pair's
    # common years names the pair
    ("extremes", EXTREMES, CELLS + ["--method", "block"], "method 'block' requires a block size"),
    ("extremes", FIVE_YEARS, ["matrix", "--input", "{extremes}", "--method", "bootstrap",
                              "--block-size", "8"],
     "stations A and B share 5 years, fewer than the block size 8; raise --min-overlap to 8"),
    ("extremes", FIVE_YEARS, CELLS + ["--method", "unbiased", "--block-size", "8"],
     "stratum 'all': stations A and B share 5 years, fewer than the block size 8"),
    # a station with too few estimates for a map is named
    ("extremes", D_SHORT, ["cells", "--extremes", "{extremes}", "--stations", "{network}",
                           "--grid", GRID],
     "stratum 'all': station D has estimates at only 1 of the 4 stations, itself included"),
    ("matrix", D_SHORT_MATRIX, ["map", "--matrix", "{matrix}", "--stations", "{network}",
                                "--anchor", "D", "--grid", GRID],
     "station D has estimates at only 1 of the 4 stations, itself included"),
    # an option outside its range is refused, not turned into a silent result
    ("matrix", D_SHORT_MATRIX, ["map", "--matrix", "{matrix}", "--stations", "{network}",
                                "--anchor", "A", "--grid", GRID, "--idw-power", "nan"],
     "idw_power must be a finite number in (0, inf), got nan"),
    ("extremes", NETWORK_YEARS, ["cells", "--extremes", "{extremes}", "--stations", "{network}",
                                 "--grid", GRID, "--idw-power", "-1"],
     "stratum 'all': idw_power must be a finite number in (0, inf), got -1.0"),
    ("sites", "0.0\n1.0\n", ["ecp", "--model", "{model}", "--sites", "{sites}",
                             "--draws", "-5"], "n_draws must be a whole number >= 2, got -5"),
    ("extremes", EXTREMES, ["matrix", "--input", "{extremes}", "--min-overlap", "-5"],
     "min_overlap must be a whole number >= 0, got -5"),
    ("records", RECORDS, ["blocks", "--input", "{records}", "--season", "JJA",
                          "--min-coverage", "2"],
     "min_coverage must be a finite number in [0, 1], got 2.0"),
    ("sites", "0.0\n1.0\n", ["study", "--experiment", "table1", "--n", "0", "--reps", "3"],
     "sample size must be a whole number >= 10, got 0"),
    ("sites", "0.0\n1.0\n", ["study", "--experiment", "fig3", "--n", "30", "--n", "1"],
     "sample size must be a whole number >= 10, got 1"),
    ("sites", "0.0\n1.0\n", ["study", "--experiment", "fig2", "--n", "30", "--n", "1"],
     "sample size must be a whole number >= 2, got 1"),
    # antithetic pairing is a Monte-Carlo option: without draws it has nothing to pair
    ("sites", "0.0\n1.0\n", ["ecp", "--model", "{model}", "--sites", "{sites}",
                             "--antithetic"], "--antithetic needs --draws"),
    ("sites", "0.0\n1.0\n", ["plan", "--n", "60", "--p", "0.5", "--c-r", "inf"],
     "c_r must be a finite number in (0, inf), got inf"),
    # an extremes row is checked at its line: these used to be read, and the
    # last two failed later, in the matrix, with no line
    ("extremes", EXTREMES + "A,XYZ,2001,1.5,1.0,max\n", ["matrix", "--input", "{extremes}"],
     "line 4: season 'XYZ' is not one of ('DJF', 'MAM', 'JJA', 'SON')"),
    ("extremes", EXTREMES + "A,JJA,2001,1.5,1.0,sideways\n", ["matrix", "--input", "{extremes}"],
     "line 4: polarity 'sideways' is not one of ('max', 'negated_min')"),
    ("extremes", EXTREMES + "A,JJA,2001,1.5,7.5,max\n", ["matrix", "--input", "{extremes}"],
     "line 4: coverage 7.5 outside [0, 1]"),
    ("extremes", EXTREMES + "A,JJA,2001,1.5,-1,max\n", CELLS,
     "line 4: coverage -1.0 outside [0, 1]"),
    ("extremes", EXTREMES + "B,JJA,2001,inf,1.0,max\n", ["matrix", "--input", "{extremes}"],
     "line 4: value inf is not finite"),
    ("extremes", EXTREMES + "A,JJA,2001,1.5,1.0,max\nB,JJA,2000,3.5,1.0,max\n",
     ["matrix", "--input", "{extremes}"],
     "line 5: duplicate station B in 2000 (first seen on line 3)"),
    # so is a matrix row; the writer's nan (an absent pair, no stderr) is read
    ("matrix", MATRIX.replace("A,B,0.5,0.1,5", "A,B,inf,0.1,5"), MAP,
     "line 3: estimate inf is neither finite nor nan"),
    ("matrix", MATRIX.replace("A,B,0.5,0.1,5", "A,B,0.5,-3,5"), MAP,
     "line 3: stderr -3.0 is neither nan nor in [0, inf)"),
    ("matrix", MATRIX.replace("A,B,0.5,0.1,5", "A,B,0.5,inf,5"), MAP,
     "line 3: stderr inf is neither nan nor in [0, inf)"),
    ("matrix", MATRIX.replace("A,B,0.5,0.1,5", "A,B,0.5,0.1,-7"), MAP,
     "line 3: n_pairs -7 is negative"),
    # a count past int64 used to end in an OverflowError traceback
    ("matrix", MATRIX.replace("A,B,0.5,0.1,5", "A,B,0.5,0.1,100000000000000000000000"), MAP,
     "line 3: n_pairs 100000000000000000000000 is above 2**63 - 1"),
    ("matrix", MATRIX.replace("A,B,0.5,0.1,5", "A,B,0.5,0.1,5.0"), MAP,
     "line 3: invalid literal for int()"),
    # a base stratum means nothing without strata; it used to be ignored
    ("extremes", EXTREMES, CELLS + ["--base-label", "nada"],
     "base stratum 'nada' given without strata"),
    # a table holds one season and one polarity
    ("extremes", EXTREMES + "B,DJF,2001,2.5,1.0,negated_min\n",
     ["matrix", "--input", "{extremes}"],
     "line 4: DJF negated_min extreme of station B in 2001 among JJA max extremes"),
    ("extremes", EXTREMES + "A,JJA,2001,1.5,1.0,negated_min\n", CELLS,
     "line 4: JJA negated_min extreme of station A in 2001 among JJA max extremes"),
    # a stratum has a name
    ("strata", "year,label\n2000,\n", CELLS + ["--strata", "{strata}"],
     "line 2: stratum label of 2000 is empty"),
], ids=["matrix", "stations", "extremes", "strata", "strata_repeated_year",
        "matrix_repeated_pair", "table", "table_ragged", "sites",
        "sites_ragged", "map_station_missing", "cells_station_missing", "pairs_unknown_name",
        "pairs_column_out_of_range", "grid_not_a_number", "grid_nan_bound",
        "grid_infinite_bound", "grid_latitude_over_90", "grid_longitude_under_180",
        "map_station_nan", "map_station_latitude_95", "cells_station_nan",
        "cells_station_latitude_95", "records_not_utf8",
        "records_field_too_large", "stations_not_utf8", "sites_not_utf8", "model_not_utf8",
        "records_bad_row_before_bad_byte", "table_header_not_utf8", "sites_header_not_utf8",
        "stations_underscore", "extremes_underscore", "matrix_underscore", "strata_underscore",
        "table_underscore", "grid_bound_underscore", "grid_count_underscore",
        "map_grid_equal_bounds", "map_grid_one_node", "cells_grid_equal_bounds",
        "cells_grid_one_node", "model_missing_field", "model_text_number", "model_null",
        "model_fractional_dim", "model_misspelt_key", "model_correlation_as_variogram",
        "model_variogram_not_object", "model_nested_text_number", "model_ragged_sigma",
        "model_infinite_nu", "model_integer_over_digit_limit", "model_not_json",
        "cells_model_one_rep", "cells_model_irregular_sites", "estimate_block_size_0",
        "matrix_block_size_0", "estimate_kendall_block_size", "estimate_mvlog_block_size",
        "matrix_kendall_block_size", "cells_mvlog_block_size", "estimate_jackknife_kendall",
        "cells_block_size_missing",
        "matrix_block_size_above_pair",
        "cells_block_size_above_pair", "cells_station_short", "map_anchor_short",
        "map_idw_power_nan", "cells_idw_power_negative", "ecp_negative_draws",
        "matrix_min_overlap_negative", "blocks_min_coverage_above_1", "study_n_0", "study_n_1",
        "study_fig2_n_1",
        "ecp_antithetic_without_draws", "plan_c_r_inf", "extremes_season_unknown",
        "extremes_polarity_unknown", "extremes_coverage_above_1", "extremes_coverage_negative",
        "extremes_value_inf", "extremes_repeated_station_year", "matrix_estimate_inf",
        "matrix_stderr_negative", "matrix_stderr_inf", "matrix_n_pairs_negative",
        "matrix_n_pairs_above_int64",
        "matrix_n_pairs_not_whole", "cells_base_label_without_strata",
        "matrix_extremes_season_mixed", "cells_extremes_polarity_mixed", "strata_label_empty"])
def test_bad_input_is_a_typed_error(capsys, tmp_path, bad, text, argv, message):
    # every other file the command reads is well formed; no case may end in
    # a traceback, and a malformed file names its line
    files = {"matrix": MATRIX, "stations": STATIONS_CSV, "extremes": EXTREMES,
             "network": NETWORK_CSV,
             "model": json.dumps({"model": "logistic", "alpha": 0.5}), bad: text}
    paths = {}
    for name, content in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_bytes(content if isinstance(content, bytes) else content.encode())
    code = main(["--out", str(tmp_path / "out.csv")]
                + [a.format(**paths) for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("error: ") and err.count("\n") == 1


DATA_FLAGS = [("--extremes", "{extremes}"), ("--stations", "{stations}"), ("--grid", GRID),
              ("--strata", "nonexistent.csv"), ("--base-label", "nada"), ("--method", "kendall"),
              ("--block-size", "3"), ("--min-overlap", "3"), ("--idw-power", "-3")]


@pytest.mark.parametrize("argv, flag, value", [
    *((["cells", "--model", "{model}", "--grid-sites", "{sites}"], f, v) for f, v in DATA_FLAGS),
    *((CELLS, f, v) for f, v in [("--grid-sites", "{sites}"), ("--reps", "1000")])],
    ids=[f[2:] for f, _ in DATA_FLAGS] + ["grid-sites", "reps"])
def test_cells_refuses_the_other_modes_flags(capsys, tmp_path, argv, flag, value):
    # each used to be ignored unchecked, the value its mode's default or not
    files = {"extremes": EXTREMES, "stations": STATIONS_CSV, "sites": "0.0\n1.0\n",
             "model": json.dumps({"model": "logistic", "alpha": 0.5})}
    paths = {}
    for name, content in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(content)
    out = tmp_path / "out.csv"
    code = main(["--out", str(out)] + [a.format(**paths) for a in argv + [flag, value]])
    assert code == 2 and not out.exists()
    mode, other = ("model", "data") if "--model" in argv else ("data", "model")
    assert capsys.readouterr().err == (
        f"error: {flag} is a {other}-mode flag, and cells with{'' if mode == 'model' else 'out'} "
        f"--model runs in {mode} mode\n")


@pytest.mark.parametrize("grid", ["42:39:4,-101:-98:4", "39:42:4,-98:-101:4",
                                  "42:39:4,-98:-101:4"])
def test_cells_grid_axes_run_either_way(capsys, tmp_path, grid):
    # the same nodes in another order: the same areas, to rounding
    raw, stations = tmp_path / "raw.csv", tmp_path / "stations.csv"
    synthesize_station_csv(raw, Logistic(0.5), STATIONS, COORDS,
                           years=range(1980, 2000), rng=SeededRng(8), season="JJA")
    records, extremes = tmp_path / "records.csv", tmp_path / "extremes.csv"
    assert main(["--out", str(records), "ingest", "--input", str(raw),
                 "--stations-out", str(stations)]) == 0
    assert main(["--out", str(extremes), "blocks", "--input", str(records),
                 "--season", "JJA"]) == 0
    areas = {}
    for spec in ("39:42:4,-101:-98:4", grid):
        cells = tmp_path / "cells.csv"
        code, _ = run_cli(capsys, "--out", str(cells), "cells", "--extremes", str(extremes),
                          "--stations", str(stations), "--grid", spec)
        assert code == 0
        areas[spec] = np.loadtxt(cells, delimiter=",", skiprows=1, usecols=2)
    assert areas[grid] == pytest.approx(areas["39:42:4,-101:-98:4"], rel=1e-12)
