"""Simulation-study harness: determinism and spot checks at reduced scale."""

import json

import numpy as np
import pytest

from concur import DomainError, SeededRng, concurrence_probability
from concur.estimators import (
    _as_stack,
    _below,
    _bootstrap,
    _kendall,
    ecp_kendall,
    sample_cp_bootstrap,
    sample_cp_unbiased,
    unbiased_modification,
)
from concur.study import (
    StudyConfig,
    _pair_rows,
    _pair_sites,
    _simulate_block,
    _summaries,
    extremal_t_benchmark,
    lag_for_target_p,
    study_harness,
)


def test_unknown_experiment():
    with pytest.raises(DomainError):
        StudyConfig(experiment="fig9", out_dir="/tmp/x")


@pytest.mark.parametrize("sizes", [(0,), (1,), (30, 1), (2.5,), (True,)])
def test_sample_sizes_below_two_refused_before_any_work(tmp_path, sizes):
    with pytest.raises(DomainError, match="sample size must be a whole number >= 2"):
        StudyConfig(experiment="table1", out_dir=tmp_path / "out", sample_sizes=sizes)
    assert not (tmp_path / "out").exists()


def test_smallest_sample_size_runs(tmp_path):
    cfg = StudyConfig(experiment="fig2", out_dir=tmp_path, seed=1, reps=3, sample_sizes=(2,),
                      n0_levels=(None,), p_targets=(0.5,))
    assert len(study_harness(cfg)["rows"]) == 1


def test_lag_bisection_monotone_targets():
    model = extremal_t_benchmark()
    h_50 = lag_for_target_p(model, 0.5)
    h_25 = lag_for_target_p(model, 0.25)
    assert h_25 > h_50 > 0
    p_50 = concurrence_probability(model, [[0.0], [h_50]]).value
    assert abs(p_50 - 0.5) < 1e-6
    with pytest.raises(DomainError):
        lag_for_target_p(model, 0.5, lo=30.0, hi=60.0)


def test_fig3_brown_resnick_median_matches_mc(tmp_path):
    cfg = StudyConfig(experiment="fig3", out_dir=tmp_path, seed=41, reps=300,
                      sample_sizes=(100,), lags=(1.0,))
    rows = study_harness(cfg)["rows"]
    br_kendall = [r for r in rows
                  if r["family"] == "brown_resnick" and r["estimator"] == "kendall"]
    assert len(br_kendall) == 1
    row = br_kendall[0]
    # the Kendall estimator is unbiased on max-stable data: median near truth
    assert abs(row["median"] - row["theoretical_p"]) < 0.02


def test_fig1_rmse_near_prediction(tmp_path):
    cfg = StudyConfig(experiment="fig1", out_dir=tmp_path, seed=42, reps=120,
                      sample_sizes=(1000,), m_grid=(13,))
    rows = study_harness(cfg)["rows"]
    block = next(r for r in rows if r["estimator"] == "block")
    boot = next(r for r in rows if r["estimator"] == "bootstrap")
    assert block["optimal_m"] == 13
    # k=2 bias is exactly (1-p)/m, so the MSE model is exact up to MC noise
    assert abs(block["rmse"] - block["predicted_rmse"]) < 0.25 * block["predicted_rmse"]
    assert boot["rmse"] <= block["rmse"]


def test_outputs_deterministic(tmp_path):
    digests = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        cfg = StudyConfig(experiment="fig2", out_dir=out, seed=5, reps=10,
                          sample_sizes=(25,), n0_levels=(1, 5),
                          p_targets=(0.5,))
        res = study_harness(cfg)
        digests.append((open(res["csv"], "rb").read(),
                        json.loads(open(res["manifest"]).read())))
    assert digests[0][0] == digests[1][0]
    assert digests[0][1] == digests[1][1]
    assert digests[0][1]["schema_version"] == "1"


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
    got = _kendall(data, d, tie_adjusted=True)
    assert np.array_equal(got.estimate, want["kendall"].estimate)
    assert np.array_equal(got.stderr, want["kendall"].stderr)
    want["kendall"] = want["kendall"].estimate
    cfg = StudyConfig(experiment="table1", out_dir=tmp_path, reps=reps)
    rows = _pair_rows(cfg, SeededRng(7), 0, [({"n0": n0}, model, sites, 0.5, n, n0)])
    assert [r["estimator"] for r in rows] == ["bootstrap", "unbiased", "kendall"]
    for row in rows:
        assert row == {"experiment": "table1", "n0": n0, "m": m, "estimator": row["estimator"],
                       "reps": reps, **_summaries(want[row["estimator"]], 0.5)}
