"""CLI subcommands, exercised in-process."""

import json

import numpy as np
import pytest

from concur import Logistic, SeededRng
from concur.cli import main
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
