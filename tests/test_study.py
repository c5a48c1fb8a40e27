"""Simulation-study harness: determinism and spot checks at reduced scale."""

import csv
import json

import numpy as np
import pytest
from conftest import spread_workers

from concur.cli import main

import concur.study
from concur import DomainError, SeededRng, concurrence_probability
from concur.estimators import (
    _as_stack,
    _below,
    _bootstrap,
    _kendall,
    _kendall_stderr,
    ecp_kendall,
    sample_cp_bootstrap,
    sample_cp_unbiased,
    unbiased_modification,
)
from concur.study import (
    _P_TARGETS,
    _TARGET_LAGS,
    StudyConfig,
    _pair_rows,
    _pair_sites,
    _simulate_block,
    _summaries,
    extremal_t_benchmark,
    study_harness,
)


def test_unknown_experiment():
    with pytest.raises(DomainError):
        StudyConfig(experiment="fig9", out_dir="/tmp/x")


# each experiment's least sample size is the largest block size it takes
LEAST = {"table1": 10, "fig1": 40, "fig2": 2, "fig3": 10}


@pytest.mark.parametrize("experiment, least", LEAST.items())
def test_sample_sizes_below_the_least_refused_before_any_work(tmp_path, experiment, least):
    for sizes in [(0,), (least - 1,), (100, least - 1), (2.5,), (True,)]:
        with pytest.raises(DomainError, match=f"sample size must be a whole number >= {least}"):
            StudyConfig(experiment=experiment, out_dir=tmp_path / "out", sample_sizes=sizes)
    StudyConfig(experiment=experiment, out_dir=tmp_path / "out", sample_sizes=(least,))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, n", [("fig1", 30), ("table1", 5), ("fig3", 5)])
def test_a_size_below_a_block_size_fails_before_any_work(tmp_path, capsys, experiment, n):
    # it used to draw and estimate part of the grid, then name a block size
    # ("block size must be at most n = 30, got 32") the user never set
    assert main(["--out", str(tmp_path / "out"), "study", "--experiment", experiment,
                 "--n", str(n)]) == 2
    assert capsys.readouterr().err == (f"error: sample size must be a whole number >= "
                                       f"{LEAST[experiment]}, got {n}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sizes", [["25", "25"], ["25", "50", "25"]])
def test_a_repeated_sample_size_is_refused_before_any_work(tmp_path, capsys, sizes):
    # fig2 with --n 25 --n 25 wrote 30 rows for 15 cells, each key twice
    # with a different mean
    sizes = [arg for n in sizes for arg in ("--n", n)]
    assert main(["--out", str(tmp_path / "out"), "study", "--experiment", "fig2",
                 "--reps", "4", *sizes]) == 2
    assert capsys.readouterr().err == "error: sample size 25 is given twice\n"
    assert not (tmp_path / "out").exists()


def test_the_least_sample_sizes_run(tmp_path):
    # table1 at n = 10 with seed 1 has a replicate whose delete-one tau is
    # 0/0; the study takes tau alone, so no jackknife stops it
    assert main(["--seed", "1", "--out", str(tmp_path), "study", "--experiment", "table1",
                 "--n", "10"]) == 0
    assert len(study_harness(StudyConfig("fig1", tmp_path, seed=1, reps=3,
                                         sample_sizes=(40,)))["rows"]) == 40


@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_n_leaves_undefined_taus_out_of_the_kendall_rows(tmp_path, seed, n):
    # at n0 = 1 about half the DOA draws are 0, so at n = 10 or 12 a
    # replicate can hold a constant coordinate, whose tau_b is 0/0
    assert main(["--seed", str(seed), "--out", str(tmp_path), "study", "--experiment",
                 "table1", "--n", str(n)]) == 0
    with open(tmp_path / "table1.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 27
    for row in rows:
        reps = int(row["reps"])
        assert reps == 200 if row["estimator"] != "kendall" else 2 <= reps <= 200
        assert np.isfinite(float(row["mean"]))
    if (seed, n) in ((2, 10), (2, 12)):  # seen to hold such a replicate
        assert any(int(row["reps"]) < 200 for row in rows)


def test_a_cell_without_two_defined_taus_is_refused(tmp_path, monkeypatch):
    def constant(model, sites, n0, reps, n, rng):
        x = np.zeros((reps, n, 2))
        x[:, :, 1] = np.arange(n)
        x[0, :, 0] = np.arange(n)  # one replicate with a defined tau
        return x

    monkeypatch.setattr(concur.study, "_simulate_block", constant)
    cfg = StudyConfig(experiment="fig2", out_dir=tmp_path, reps=3)
    cell = ({"n": 5}, extremal_t_benchmark(), _pair_sites(3.0), 0.5, 5, 1)
    with pytest.raises(DomainError, match="fig2 cell 1: 1 of 3 replicates have a defined "
                                          "Kendall tau, 2 are needed"):
        _pair_rows(cfg, SeededRng(1), 0, [cell], ("kendall",))


def test_the_study_takes_tau_without_its_jackknife():
    # leaving out the third row leaves x constant: ecp_kendall's jackknife
    # is 0/0 there, but tau_b = 2 / sqrt(2 * 3) is defined
    x = np.array([[[1.0, 1.0], [1.0, 2.0], [2.0, 3.0]]])
    with pytest.raises(DomainError, match="leaving out row 2 makes coordinate 0 constant"):
        ecp_kendall(x, tie_adjusted=True)
    assert _kendall(x, _below(x), tie_adjusted=True)[0] == pytest.approx([2 / 6 ** 0.5])


def test_a_max_stable_cell_runs_at_n_2(tmp_path):
    model, sites = extremal_t_benchmark(), _pair_sites(3.0)
    cfg = StudyConfig(experiment="fig2", out_dir=tmp_path, reps=3)
    rows = _pair_rows(cfg, SeededRng(1), 0, [({"n": 2}, model, sites, 0.5, 2, None)], ("kendall",))
    assert len(rows) == 1 and np.isfinite(rows[0]["mean"])


def _bisection_reference(model, target: float) -> float:
    """The lag h in (1e-4, 60) with p(0, h) = target for a model whose p
    never rises with h: the midpoint after 30 halvings of that bracket, each
    evaluating p at its midpoint."""
    lo, hi = 1e-4, 60.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if concurrence_probability(model, _pair_sites(mid)).value > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_the_target_lags_are_the_bisection_lags():
    # the table1 and fig2 lags are constants of the design: each is the
    # float bisection returns for its target, and p there is the target
    model = extremal_t_benchmark()
    for target, lag in zip(_P_TARGETS, _TARGET_LAGS, strict=True):
        assert lag == _bisection_reference(model, target)
        assert abs(concurrence_probability(model, _pair_sites(lag)).value - target) < 1e-6


def test_fig3_brown_resnick_median_matches_mc(tmp_path):
    cfg = StudyConfig(experiment="fig3", out_dir=tmp_path, seed=41, reps=300,
                      sample_sizes=(100,))
    rows = study_harness(cfg)["rows"]
    br_kendall = [r for r in rows
                  if r["family"] == "brown_resnick" and r["estimator"] == "kendall"]
    assert [r["lag"] for r in br_kendall] == [1.0, 2.0, 3.0, 4.0]
    # the Kendall estimator is unbiased on max-stable data: median near truth
    for row in br_kendall:
        assert abs(row["median"] - row["theoretical_p"]) < 0.02


def test_fig1_rmse_near_prediction(tmp_path):
    cfg = StudyConfig(experiment="fig1", out_dir=tmp_path, seed=42, reps=120,
                      sample_sizes=(1000,))
    rows = study_harness(cfg)["rows"]
    assert {r["optimal_m"] for r in rows} == {13}
    # the even block sizes on either side of the planned optimum
    for m in (12, 14):
        block, boot = (next(r for r in rows if r["m"] == m and r["estimator"] == name)
                       for name in ("block", "bootstrap"))
        # k=2 bias is exactly (1-p)/m, so the MSE model is exact up to MC noise
        assert abs(block["rmse"] - block["predicted_rmse"]) < 0.25 * block["predicted_rmse"]
        assert boot["rmse"] <= block["rmse"]


def test_outputs_deterministic(tmp_path):
    digests = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        cfg = StudyConfig(experiment="fig2", out_dir=out, seed=5, reps=10,
                          sample_sizes=(25,))
        res = study_harness(cfg)
        digests.append((open(res["csv"], "rb").read(),
                        json.loads(open(res["manifest"]).read())))
    assert digests[0][0] == digests[1][0]
    assert digests[0][1] == digests[1][1]
    assert digests[0][1]["schema_version"] == "1"


@pytest.mark.parametrize("experiment", ["table1", "fig2"])
def test_outputs_identical_whatever_the_workers(tmp_path, experiment):
    # each cell draws on the calling thread from its own substream and is
    # estimated wherever a thread is free: the bytes do not depend on where
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / str(workers)
        with spread_workers(workers):
            assert main(["--seed", "3", "--out", str(out), "study", "--experiment", experiment,
                         "--reps", "12", "--n", "30", "--n", "40"]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in (f"{experiment}.csv", f"{experiment}_manifest.json")])
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("n0", [1, 10, None])
def test_a_cell_counts_once_and_matches_the_estimators(tmp_path, n0):
    # the cell's three estimators share one dominance count; at n0 = 1 about
    # half the draws are 0, so the stacks are heavily tied
    model, sites, reps, n, m = extremal_t_benchmark(), _pair_sites(3.0), 40, 60, 10
    data = _simulate_block(model, sites, n0, reps, n, SeededRng(7).substream(1))
    if n0 == 1:
        assert 0.4 < (data == 0.0).mean() < 0.6
    d = _below(_as_stack(data)[0])
    star = sample_cp_bootstrap(data, m)
    want = {"bootstrap": star, "unbiased": sample_cp_unbiased(data, m).value,
            "kendall": ecp_kendall(data, tie_adjusted=True)}
    assert np.array_equal(_bootstrap(d, m), star)
    assert np.array_equal(unbiased_modification(_bootstrap(d, m), m), want["unbiased"])
    tau, kendall_rows, ties = _kendall(data, d, tie_adjusted=True)
    assert np.array_equal(tau, want["kendall"].estimate)
    assert np.array_equal(_kendall_stderr(kendall_rows, ties), want["kendall"].stderr)
    want["kendall"] = want["kendall"].estimate
    cfg = StudyConfig(experiment="table1", out_dir=tmp_path, reps=reps)
    rows = _pair_rows(cfg, SeededRng(7), 0, [({"n0": n0}, model, sites, 0.5, n, n0)])
    assert [r["estimator"] for r in rows] == ["bootstrap", "unbiased", "kendall"]
    for row in rows:
        assert row == {"experiment": "table1", "n0": n0, "m": m, "estimator": row["estimator"],
                       "reps": reps, **_summaries(want[row["estimator"]], 0.5)}
