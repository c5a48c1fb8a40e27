"""Golden outputs: exact fingerprints of every model's entry points, of the
pairwise matrix per estimator, and of small study runs.

Floats are compared through ``repr`` (which round-trips exactly) and arrays
and files through a SHA-256 digest of their bytes, so any change in a value,
or in the order in which a path draws its random numbers, fails the test.
The expected values live in ``golden_outputs.json`` next to this file.
Regenerate them only for an intended output change, and record it:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_outputs.json

The script also lists on stderr every key (and model entry) whose
fingerprint differs from the committed file, read through ``git show``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from concur import (
    BallIndicator,
    BrownResnick,
    CovarianceMatrix,
    ExponentialCorrelation,
    ExtremalProcess,
    ExtremalT,
    FractionalVariogram,
    Logistic,
    MaxLinear,
    PoweredExponentialCorrelation,
    QuadraticVariogram,
    SeededRng,
    Smith,
    concurrence_probability,
    ecp_mc,
    exponent_V,
    extremal_coefficient,
    model_to_dict,
    simulate_doa,
    simulate_max_stable_batch,
    spectral_sample,
)
from concur.pipeline import (
    ingest_csv,
    pairwise_matrix,
    seasonal_blocks,
    write_extremes_csv,
    write_records_csv,
)
from concur.simulate import simulate_pair_batch
from concur.study import StudyConfig, study_harness
from concur.synthetic import synthesize_station_csv

GOLDEN = Path(__file__).with_name("golden_outputs.json")

CASES = {
    "logistic": (Logistic(0.35), [[0.0], [1.0], [2.5]]),
    "logistic_independent": (Logistic(1.0), [[0.0], [1.0]]),
    "max_linear": (MaxLinear(np.array([[0.5, 0.2, 0.1], [0.3, 0.3, 0.6], [0.2, 0.5, 0.3]])),
                   [0, 2]),
    "brown_resnick": (BrownResnick(FractionalVariogram(scale=0.8, exponent=1.0)),
                      [[0.0], [1.0]]),
    # k = 4 tilts at a first, two middle and a last site
    "brown_resnick_k4": (BrownResnick(FractionalVariogram(scale=0.8, exponent=1.5)),
                         [[0.0], [0.6], [1.3], [2.0]]),
    "brown_resnick_quadratic": (
        BrownResnick(QuadraticVariogram(np.array([[2.0, 0.3], [0.3, 1.0]]))),
        [[0.0, 0.0], [0.7, 0.4]]),
    "extremal_t": (ExtremalT(ExponentialCorrelation(scale=4.0), nu=3.0), [[0.0], [1.0]]),
    "schlather_2d": (ExtremalT(PoweredExponentialCorrelation(scale=2.0, power=1.5), nu=1.0),
                     [[0.0, 0.0], [0.9, 0.4]]),
    "smith": (Smith(CovarianceMatrix(np.array([[1.5]]))), [[0.0], [1.0]]),
    "smith_2d": (Smith(CovarianceMatrix(np.array([[1.0, 0.2], [0.2, 2.0]]))),
                 [[0.0, 0.0], [0.8, 0.5]]),
    "extremal_process": (ExtremalProcess(), [0.3, 0.55, 0.8]),
    "ball": (BallIndicator(radius=1.2, dim=1), [[0.0], [1.0], [1.8]]),
    "ball_2d": (BallIndicator(radius=0.9, dim=2), [[0.0, 0.0], [0.6, 0.5]]),
}

# exponent_V arguments: a batch of positive z rows, trimmed to k columns
Z_ROWS = np.array([[1.0, 1.0, 1.0, 1.0], [0.5, 2.0, 1.3, 0.8], [3.0, 0.7, 0.2, 1.6],
                   [1.1, 1.1, 4.0, 0.4]])


def _array(a) -> str:
    a = np.ascontiguousarray(a)
    return f"{a.dtype}{list(a.shape)}:{hashlib.sha256(a.tobytes()).hexdigest()[:24]}"


def _file(path: Path) -> str:
    return _array(np.frombuffer(path.read_bytes(), np.uint8))


def _estimate(est) -> list:
    return [repr(est.value), repr(est.stderr), est.n_draws, est.method]


def _guard(fn):
    """fn(), or the name of the error it raises."""
    try:
        return fn()
    except Exception as exc:  # the error type is part of the golden output
        return f"raises {type(exc).__name__}"


def model_fingerprints(model, sites) -> dict:
    k = len(sites)
    return {
        "exponent_V": _guard(lambda: [repr(float(v))
                                      for v in exponent_V(model, sites, Z_ROWS[:, :k])]),
        "extremal_coefficient": _guard(lambda: repr(extremal_coefficient(model, sites))),
        "spectral_sample": _guard(lambda: _array(spectral_sample(model, sites, SeededRng(11),
                                                                 size=64))),
        "simulate_max_stable_batch": _guard(lambda: [_array(a) for a in simulate_max_stable_batch(
            model, sites, 40, SeededRng(12))]),
        "simulate_doa": _guard(lambda: _array(simulate_doa(model, sites, 3, SeededRng(14),
                                                           size=32))),
        "simulate_pair_batch": _guard(lambda: _array(simulate_pair_batch(
            model, sites, 3, 20, SeededRng(15)))),
        "concurrence_probability": _guard(lambda: _estimate(
            concurrence_probability(model, sites))),
        "ecp_mc": _guard(lambda: _estimate(ecp_mc(model, sites, 2000, rng=SeededRng(13)))),
        "ecp_mc_antithetic": _guard(lambda: _estimate(
            ecp_mc(model, sites, 2000, antithetic=True, rng=SeededRng(13)))),
        "model_to_dict": json.dumps(model_to_dict(model)),
    }


def pipeline_fingerprints(work: Path) -> dict:
    out = {}
    latlon = np.array([[40.0, -100.0], [40.5, -99.0], [41.0, -101.0], [39.5, -98.5]])
    ids = ["A", "B", "C", "D"]
    for name, model in (("logistic", Logistic(0.5)),
                        ("brown_resnick", CASES["brown_resnick"][0])):
        path = work / f"synthetic_{name}.csv"
        planted = synthesize_station_csv(path, model, ids, latlon, range(2001, 2013),
                                         SeededRng(16), season="JJA")
        out[f"synthesize_station_csv[{name}]"] = [_array(planted), _file(path)]
        records = work / f"records_{name}.csv"
        write_records_csv(ingest_csv(path).records, records)
        out[f"write_records_csv[{name}]"] = _file(records)
    extremes = seasonal_blocks(ingest_csv(work / "synthetic_logistic.csv"), "JJA")
    write_extremes_csv(extremes, work / "extremes_logistic.csv")
    out["write_extremes_csv[logistic]"] = _file(work / "extremes_logistic.csv")
    for method in ("kendall", "mvlog", "block", "bootstrap", "unbiased"):
        m = pairwise_matrix(extremes, method=method,
                            block_size=3 if method in ("block", "bootstrap", "unbiased") else None)
        out[f"pairwise_matrix[{method}]"] = [_array(m.estimates), _array(m.stderr),
                                             _array(m.n_pairs)]
    return out


def study_fingerprints(work: Path) -> dict:
    out = {}
    for experiment in ("table1", "fig1", "fig2", "fig3"):
        res = study_harness(StudyConfig(experiment=experiment, out_dir=work, seed=3, reps=4))
        out[f"study[{experiment}]"] = [_file(Path(res[key])) for key in ("csv", "manifest")]
    # several sample sizes pin the order in which cells take their substreams
    for experiment in ("table1", "fig3"):
        res = study_harness(StudyConfig(experiment=experiment, out_dir=work, seed=3, reps=3,
                                        sample_sizes=(20, 30)))
        out[f"study[{experiment},grid]"] = [_file(Path(res[key])) for key in ("csv", "manifest")]
    return out


def blocked_fingerprints() -> dict:
    """Spectral draws large enough that their Gaussian product runs in
    several row blocks (see ``specfun._matmul_t``)."""
    out = {}
    for name, size, n0, doa_size in (("extremal_t", 200_000, 10, 20_000),
                                     ("brown_resnick_k4", 100_000, 3, 40_000)):
        model, sites = CASES[name]
        out[f"spectral_sample[{name},blocked]"] = _array(
            spectral_sample(model, sites, SeededRng(17), size=size))
        out[f"simulate_doa[{name},blocked]"] = _array(
            simulate_doa(model, sites, n0, SeededRng(18), size=doa_size))
    return out


def all_fingerprints(work: Path) -> dict:
    out = {f"model[{name}]": model_fingerprints(model, sites)
           for name, (model, sites) in CASES.items()}
    out.update(blocked_fingerprints())
    out.update(pipeline_fingerprints(work))
    out.update(study_fingerprints(work))
    return out


@pytest.fixture(scope="module")
def fingerprints(tmp_path_factory):
    return all_fingerprints(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_keys(fingerprints, golden):
    assert sorted(fingerprints) == sorted(golden)


@pytest.mark.parametrize("name", [f"model[{n}]" for n in CASES])
def test_model_outputs(fingerprints, golden, name):
    got, want = fingerprints[name], golden[name]
    assert sorted(got) == sorted(want)
    for entry in want:
        assert got[entry] == want[entry], entry


def test_pipeline_and_study_outputs(fingerprints, golden):
    for name, want in golden.items():
        if not name.startswith("model["):
            assert fingerprints[name] == want, name


def moved(got: dict, want: dict) -> list[str]:
    """The keys, and within a model its entries, whose fingerprints differ."""
    out = []
    for name in sorted(set(got) | set(want)):
        a, b = got.get(name), want.get(name)
        if isinstance(a, dict) and isinstance(b, dict):
            out += [f"{name} {e}" for e in sorted(set(a) | set(b)) if a.get(e) != b.get(e)]
        elif a != b:
            out.append(name)
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = all_fingerprints(Path(tmp))
    json.dump(got, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    # read the committed file from git: a redirect to golden_outputs.json empties it first
    committed = subprocess.run(["git", "show", f"HEAD:./{GOLDEN.name}"], cwd=GOLDEN.parent,
                               capture_output=True, text=True)
    if committed.returncode:
        sys.exit(f"no committed {GOLDEN.name} to compare: {committed.stderr.strip()}")
    changed = moved(got, json.loads(committed.stdout))
    print(f"{len(changed)} fingerprints differ from the committed file", file=sys.stderr)
    for key in changed:
        print(f"  {key}", file=sys.stderr)
