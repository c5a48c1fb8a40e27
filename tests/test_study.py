"""Simulation-study harness: determinism and spot checks at reduced scale."""

import contextlib
import csv
import json

import numpy as np
import pytest
from conftest import spread_workers
from hypothesis import assume, given
from hypothesis import strategies as st

from concur.cli import main

import concur.study
from concur import (
    BallIndicator,
    BrownResnick,
    DomainError,
    ExponentialCorrelation,
    ExtremalT,
    FractionalVariogram,
    PoweredExponentialCorrelation,
    SeededRng,
    concurrence_probability,
)
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
    _BISECT_STEPS,
    _FALSI_STEPS,
    _P_TARGETS,
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
    """Slow reference of ``lag_for_target_p``: the 30 halvings of (1e-4, 60),
    each evaluating p at its midpoint, as the search ran before it found
    (L, U) by regula falsi and replayed the halvings."""
    lo, hi = 1e-4, 60.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if concurrence_probability(model, _pair_sites(mid)).value > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@contextlib.contextmanager
def _counted_evaluations():
    """Count the p evaluations of lag_for_target_p: the site sets it passes
    to ``_concurrences``, each one row of the tanh-sinh rule for Brown-Resnick
    and extremal-t pairs, and one closed form for the ball indicator."""
    count = [0]
    evaluate = concur.study._concurrences

    def counting(model, site_sets):
        count[0] += len(site_sets)
        return evaluate(model, site_sets)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concur.study, "_concurrences", counting)
        yield count


@st.composite
def lag_models(draw):
    """A stationary model on the line and its scale s: the correlation range,
    the lag where the variogram reaches 1, or the ball radius."""
    s = draw(st.floats(0.5, 30.0))
    kind = draw(st.sampled_from(["extremal_t", "powered", "brown_resnick", "ball"]))
    nu = draw(st.sampled_from([1.0, 1.5, 2.0, 5.0, 20.0, 50.0]))
    if kind == "extremal_t":
        return ExtremalT(ExponentialCorrelation(s), nu=nu), s
    if kind == "powered":
        return ExtremalT(PoweredExponentialCorrelation(s, draw(st.floats(0.5, 2.0))), nu=nu), s
    if kind == "brown_resnick":
        exponent = draw(st.floats(0.3, 1.9))
        return BrownResnick(FractionalVariogram(s ** -exponent, exponent)), s
    return BallIndicator(radius=s), s


class TestLagSearch:
    """``lag_for_target_p`` returns the float plain bisection returns."""

    @given(lag_models(), st.floats(-2.0, 0.0))
    def test_equals_bisection_in_at_most_16_evaluations(self, case, u):
        # targets p(h) at lags from s / 100 to s, where p still falls steadily
        model, s = case
        target = concurrence_probability(model, _pair_sites(s * 10.0 ** u)).value
        with _counted_evaluations() as evals:
            try:
                lag = lag_for_target_p(model, target)
            except DomainError:  # p(h) at the lag equals p(60) or p(1e-4)
                assume(False)
        assert lag == _bisection_reference(model, target)
        assert evals[0] <= 16

    @given(lag_models(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_equals_bisection_over_the_whole_range(self, case, u):
        # on the tail, where p(h) settles towards p(60) faster than any power
        # of h, falsi is no faster than the halvings: it stops after
        # _FALSI_STEPS, and the halvings evaluate what is left inside (L, U)
        model, _ = case
        p_hi, p_lo = (concurrence_probability(model, _pair_sites(h)).value for h in (60.0, 1e-4))
        target = p_hi + u * (p_lo - p_hi)
        assume(p_hi < target < p_lo)
        with _counted_evaluations() as evals:
            lag = lag_for_target_p(model, target)
        assert lag == _bisection_reference(model, target)
        assert evals[0] <= 2 + _FALSI_STEPS + 2 + _BISECT_STEPS

    def test_targets_in_lockstep(self):
        model = extremal_t_benchmark()
        with _counted_evaluations() as evals:
            lags = lag_for_target_p(model, _P_TARGETS)
        # bisection evaluates 3 x 32
        assert evals[0] <= 30
        assert lags == [_bisection_reference(model, t) for t in _P_TARGETS]
        assert lags == [lag_for_target_p(model, t) for t in _P_TARGETS]
        assert lag_for_target_p(model, [0.5]) == [lags[1]]


def test_lag_bisection_monotone_targets():
    model = extremal_t_benchmark()
    h_50 = lag_for_target_p(model, 0.5)
    h_25 = lag_for_target_p(model, 0.25)
    assert h_25 > h_50 > 0
    p_50 = concurrence_probability(model, [[0.0], [h_50]]).value
    assert abs(p_50 - 0.5) < 1e-6
    # the bracket (1e-4, 60) holds the p from about 0.994 down to about 0.038
    with pytest.raises(DomainError, match="outside the bracketed range"):
        lag_for_target_p(model, 0.01)


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
