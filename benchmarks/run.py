"""Run one benchmark workload (or all four) against the concur sources.

    python3 benchmarks/run.py --workload station_pipeline --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all

The package is imported from ``src/`` next to this directory; the run fails
(exit code 2) when that source tree is absent.  A run sets its inputs up
five times and reports the median set-up time, then repeats whole passes
of the workload until ``--seconds`` have passed (at least one), checks each
pass's outputs, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untimed untraced pass, then alternates untraced and traced passes and
reports the per-layer metrics of the traced ones; it also writes every span
to ``.bench_out/`` at the repository root.
The exit code is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_TRIALS = 5
WORKLOAD_NAMES = ("study_table1", "station_pipeline", "estimate_large_n", "model_cells")

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' exists for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def machine() -> dict:
    """The hardware and numerical stack every result is measured on."""
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = dict(numpy.show_config(mode="dicts")["Build Dependencies"]["blas"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" not in Path(path).name.lower():
                continue
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def import_seconds() -> float:
    """Time ``import concur`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import concur, concur.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int, size: str = "full"):
    """Run one workload in its own process.

    Returns ``(ok, result, machine, stderr)``: ``result`` is the parsed last
    line and ``machine`` the recorded machine, each None when the run printed
    none; ``ok`` is true when the run exited 0 with a correct result.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    result = info = None
    for line in proc.stdout.splitlines():
        if line.startswith("machine: "):
            info = json.loads(line.split(": ", 1)[1])
    with contextlib.suppress(IndexError, json.JSONDecodeError):
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode == 0 and result is not None and result["correct"]
    return ok, result, info, proc.stderr


def run_all(args) -> int:
    """Every workload in its own process; a table of the metrics."""
    all_ok = True
    for name in WORKLOAD_NAMES:
        ok, result, _, stderr = run_one(name, args.seed, args.seconds, args.trace, args.size)
        all_ok &= ok
        if result is None:
            print(f"{name}: no result\n{stderr}")
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:44s} {m['value']:>14.6g} {m['unit']}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "concur" / "__init__.py").is_file():
        print(f"error: no concur sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import concur
    if Path(concur.__file__).resolve().parent != SRC / "concur":
        print(f"error: imported concur from {concur.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.size)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.register_concur(tracer)

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    work_root = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        # set-up: import, inputs and warm-up, SETUP_TRIALS times; the last inputs are used
        setup_times = []
        for trial in range(SETUP_TRIALS):
            work = work_root / f"setup{trial}"
            work.mkdir(parents=True)
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            with span("setup"):
                inputs = wl.setup(work, args.seed)
                wl.warm_up(inputs)
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
            setup_times.append(import_seconds() + elapsed)

        attempted = failed = 0
        walls = {False: [], True: []}
        cpus = []
        first = None
        pass_metrics = []
        # a traced run's first pass is untraced and untimed, so that first-pass
        # costs fall on neither side of the traced/untraced comparison
        warm = bool(tracer)
        start = time.perf_counter()
        while True:
            traced = bool(tracer) and not warm and len(walls[False]) > len(walls[True])
            if (walls[traced] and time.perf_counter() - start >= args.seconds
                    and (not tracer or walls[True])):
                break
            ops = workloads.Ops(span if traced else lambda name: contextlib.nullcontext())
            if traced:
                tracer.install()
                root = len(tracer.spans)
            t0, c0 = time.perf_counter(), time.process_time()
            with (tracer.span("pass") if traced else contextlib.nullcontext()):
                outputs = wl.run(inputs, ops)
            if warm:
                warm = False
                start = time.perf_counter()
            else:
                walls[traced].append(time.perf_counter() - t0)
                cpus.append(time.process_time() - c0)
            if traced:
                tracer.uninstall()
                pass_metrics.append(tracing.layer_metrics(
                    tracing.subtree(tracer.spans, tracer.spans[root])))
            ref_err, summary = wl.check(inputs, outputs, ops)
            if first is None:
                first = (ref_err, summary)
            elif summary != first[1]:
                ops.fail("repeat", "pass outputs differ from the first pass's")
            attempted += ops.attempted
            failed += min(len(ops.failed), ops.attempted)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()

    info = machine()
    print("machine: " + json.dumps(info, sort_keys=True))
    if tracer:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": wl.name, "seed": args.seed, "machine": info})
        for note in tracer.notes:
            print(f"note: {note}")
        setup_spans = [s for s in tracer.spans if s.name == "setup" and s.parent is None]
        values = {}
        for metric, unit in tracing.PER_LAYER:
            if metric == "trace.overhead_frac":
                v = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
            elif metric == "synthetic.busy_s":
                v = statistics.median(
                    tracing.layer_metrics(tracing.subtree(tracer.spans, s))[metric]
                    for s in setup_spans)
            elif metric in tracing.COUNT_METRICS:
                v = int(pass_metrics[0][metric])
                if any(m[metric] != v for m in pass_metrics):
                    print(f"note: {metric} differs between traced passes")
            else:
                v = statistics.median(m[metric] for m in pass_metrics)
            values[metric] = (v, unit)
    else:
        ref_err = first[0]
        values = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ref_err": (ref_err if math.isfinite(ref_err) else None, "probability"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
        }
    for metric, (v, unit) in values.items():
        print(f"{metric:44s} {v!s:>24} {unit}")
    print("passes: " + json.dumps({"untraced_wall_s": walls[False],
                                   "traced_wall_s": walls[True], "cpu_s": cpus}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in values.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
