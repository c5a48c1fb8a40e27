"""The benchmark's own tests: tiny runs of every workload and the tracer.

    python3 -m pytest benchmarks/test_benchmarks.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Span, Tracer, covered, layer_metrics, self_time

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    parent = Span(0, None, "p", 0.0, 10.0)
    kids = [Span(1, 0, "a", 1.0, 3.0), Span(2, 0, "b", 2.0, 5.0),
            Span(3, 0, "c", 7.0, 8.0), Span(4, 0, "d", 9.5, 12.0)]
    # union inside the parent: [1, 5] + [7, 8] + [9.5, 10] = 5.5
    assert covered([(k.start, k.end) for k in kids], 0.0, 10.0) == pytest.approx(5.5)
    assert self_time(parent, kids) == pytest.approx(4.5)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_layer_metrics_count_outermost_spans_and_self_time():
    spans = [
        Span(0, None, "pass", 0.0, 20.0),
        Span(1, 0, "cli.matrix", 0.0, 10.0),
        Span(2, 1, "pipeline.pairwise_matrix", 1.0, 9.0, {"pairs": 3}),
        Span(3, 2, "estimators.ecp_kendall", 2.0, 3.0),
        Span(4, 2, "estimators.ecp_kendall", 4.0, 6.0),
        Span(5, 0, "estimators.dominance", 11.0, 15.0),
        Span(6, 5, "estimators.dominance", 12.0, 14.0),   # nested: not counted again
    ]
    m = layer_metrics(spans)
    assert m["cli.matrix.wall_s"] == 10.0
    assert m["cli.self_s"] == 2.0
    assert m["pipeline.pairwise_matrix.pairs"] == 3
    assert m["pipeline.pairwise_matrix.self_s"] == 5.0
    assert m["estimators.ecp_kendall.calls"] == 2
    assert m["estimators.ecp_kendall.busy_s"] == 3.0
    assert m["estimators.dominance.calls"] == 1
    assert m["estimators.dominance.busy_s"] == 4.0


def test_absent_name_records_zero_calls_with_a_note():
    sys.path.insert(0, str(HERE.parent / "src"))
    import concur.estimators

    t = Tracer()
    t.target("concur.estimators", "no_such_estimator", "estimators.ecp_kendall")
    t.target("concur.estimators", "ecp_kendall", "estimators.ecp_kendall")
    t.install()
    try:
        concur.estimators.ecp_kendall([[1.0, 2.0], [2.0, 1.0], [3.0, 4.0]])
    finally:
        t.uninstall()
    assert any("no_such_estimator" in note for note in t.notes)
    assert layer_metrics(t.spans)["estimators.ecp_kendall.calls"] == 1
    assert not hasattr(concur.estimators.ecp_kendall, "__wrapped__")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_and_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
