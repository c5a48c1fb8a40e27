"""Measure a baseline: every workload over several seeds, plus traced runs.

    python3 benchmarks/baseline.py --seeds 1-10 --out benchmarks/BENCH_seed.json

Each run is ``run.py`` in its own process with the benchmark's run length
from BENCHMARK.json.  The file records, per workload and end-to-end metric,
every value, the median and the quartile spread (Q3 - Q1) / median as
``statistics.quantiles(values, n=4)`` gives them; and the per-layer metrics
of one traced run per workload (first seed), with the machine they ran on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import run_one

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    ok, result, machine, stderr = run_one(workload, seed, SPEC["run_seconds"], trace)
    if not ok:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{stderr}")
    return result, machine


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--label", default="", help="which code was measured")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()

    report = {"label": args.label, "run_seconds": SPEC["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    for name in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in SPEC["end_to_end"]}
        for seed in args.seeds:
            result, report["machine"] = run(name, seed, 0)
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v[-1]:.6g}" for m, v in values.items()), flush=True)
        entry = {"end_to_end": {}}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            entry["end_to_end"][metric] = {"median": med, "q1": q[0], "q3": q[2],
                                           "spread": (q[2] - q[0]) / med if med else 0.0,
                                           "values": vals}
            print(f"  {metric}: median {med:.6g} spread {entry['end_to_end'][metric]['spread']:.4f}",
                  flush=True)
        traced, _ = run(name, args.seeds[0], 1)
        entry["per_layer"] = {"seed": args.seeds[0],
                              **{m: v["value"] for m, v in traced["metrics"].items()}}
        report["workloads"][name] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
