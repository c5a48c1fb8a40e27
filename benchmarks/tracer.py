"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``concur`` package at every place
the function object is bound: its defining module and each module that
imported it by name.  Each call records one span (name, start, end, parent
id, counts) in memory; :func:`layer_metrics` turns the spans of one pass
into the per-layer metrics.  Untraced runs never install it.

A wrapped name that does not exist (renamed or deleted by a later change)
is skipped with a note, so its metrics read zero instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children) -> float:
    """A span's duration minus the part of it its direct children cover."""
    return span.duration - covered([(c.start, c.end) for c in children], span.start, span.end)


class Tracer:
    """Records spans; ``install`` swaps traced wrappers into the package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: list[str] = []
        self._stack: list[int] = []
        self._targets: list[tuple] = []   # (module, name, layer, counter, post)
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str, **counts):
        s = Span(len(self.spans), self._stack[-1] if self._stack else None, name,
                 time.perf_counter(), counts=counts)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    # -- wrapping ---------------------------------------------------------

    def target(self, module: str, name: str, layer: str, counter=None, post=None):
        """Register ``module.name`` to be traced as a span named ``layer``.

        ``counter(bound_args, result)`` returns counts stored on the span;
        ``post(result)`` may replace the result (used to trace the samplers
        that factory functions return).
        """
        self._targets.append((module, name, layer, counter, post))

    def _wrapper(self, fn, layer, counter, post):
        sig = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            with self.span(layer) as s:
                result = fn(*args, **kwargs)
                if counter:
                    try:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        s.counts.update(counter(bound.arguments, result))
                    except (KeyError, TypeError, ValueError) as exc:
                        note = f"{layer}: counts unreadable ({exc!r}); they read zero"
                        if note not in self.notes:
                            self.notes.append(note)
            return post(result) if post else result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._undo:
            return
        pkg = {m: mod for m, mod in sys.modules.items()
               if m == "concur" or m.startswith("concur.")}
        for module, name, layer, counter, post in self._targets:
            original = getattr(pkg.get(module), name, None)
            if original is None:
                note = f"{module}.{name} is absent; {layer} records zero calls"
                if note not in self.notes:
                    self.notes.append(note)
                continue
            wrapped = self._wrapper(original, layer, counter, post)
            for mod in pkg.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def trace_sampler(self, sampler):
        """Copy of a spectral sampler whose ``draw`` records spans."""
        draw = getattr(sampler, "draw", None)
        if draw is None or not dataclasses.is_dataclass(sampler):
            return sampler

        def traced_draw(g, n):
            with self.span("models.sampler", draws=int(n)):
                return draw(g, n)

        return dataclasses.replace(sampler, draw=traced_draw)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "notes": self.notes}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "counts": s.counts}) + "\n")


# ---------------------------------------------------------------------------
# the concur layers the benchmark traces

def _finite_pairs(result) -> int:
    est = np.asarray(getattr(result, "estimates", np.empty((0, 0))))
    if est.ndim != 2:
        return 0
    return int(np.isfinite(est[np.triu_indices(est.shape[0], 1)]).sum())


def _flags(result) -> dict:
    if isinstance(result, tuple) and len(result) == 3:
        flags = np.asarray(result[2])
        return {"truncated": int(flags.sum())}
    return {}


def register_concur(tracer: Tracer) -> None:
    """Register every traced public function of the package, by layer."""
    t = tracer.target
    t("concur.study", "study_harness", "study")
    t("concur.pipeline", "ingest_csv", "pipeline.ingest_csv",
      lambda a, r: {"rows": len(getattr(r, "records", ()))})
    t("concur.pipeline", "seasonal_blocks", "pipeline.seasonal_blocks")
    t("concur.pipeline", "pairwise_matrix", "pipeline.pairwise_matrix",
      lambda a, r: {"pairs": _finite_pairs(r)})
    t("concur.pipeline", "grid_map", "pipeline.grid_map",
      lambda a, r: {"nodes": int(np.shape(r)[0])})
    t("concur.pipeline", "cell_area_report", "pipeline.cell_area_report")
    t("concur.pipeline", "expected_cell_area_model", "pipeline.expected_cell_area_model")
    t("concur.estimators", "ecp_kendall", "estimators.ecp_kendall")
    for name in ("dominance_counts", "sample_cp_bootstrap", "sample_cp_unbiased"):
        t("concur.estimators", name, "estimators.dominance")
    t("concur.estimators", "ecp_multivariate_log", "estimators.mvlog")
    for name in ("block_cp_batch", "dominance_counts_batch", "bootstrap_cp_batch",
                 "kendall_batch"):
        t("concur.estimators", name, "estimators.batch")
    t("concur.concurrence", "ecp_mc", "concurrence.ecp_mc",
      lambda a, r: {"draws": int(a["n_draws"])})
    t("concur.specfun", "student_cdf", "specfun.student_cdf",
      lambda a, r: {"evals": int(np.size(a["x"]))})
    t("concur.simulate", "simulate_max_stable_batch", "simulate.batch",
      lambda a, r: {"realizations": int(a["reps"]), **_flags(r)})
    t("concur.simulate", "simulate_doa", "simulate.doa",
      lambda a, r: {"draws": int(np.size(r)) // max(1, int(np.shape(r)[-1])) * int(a["n0"])})
    for name in ("spectral_sampler", "logistic_angular_sampler"):
        t("concur.models", name, "models.sampler_factory", post=tracer.trace_sampler)
    t("concur.synthetic", "synthesize_station_csv", "synthetic")


CLI_COMMANDS = ("ingest", "blocks", "matrix", "map", "cells", "study")

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    *((f"cli.{c}.wall_s", "s") for c in CLI_COMMANDS),
    ("cli.self_s", "s"),
    ("study.self_s", "s"),
    ("pipeline.ingest_csv.calls", "count"),
    ("pipeline.ingest_csv.busy_s", "s"),
    ("pipeline.ingest_csv.rows_per_s", "1/s"),
    ("pipeline.seasonal_blocks.busy_s", "s"),
    ("pipeline.pairwise_matrix.calls", "count"),
    ("pipeline.pairwise_matrix.pairs", "count"),
    ("pipeline.pairwise_matrix.busy_s", "s"),
    ("pipeline.pairwise_matrix.self_s", "s"),
    ("pipeline.grid_map.calls", "count"),
    ("pipeline.grid_map.nodes", "count"),
    ("pipeline.grid_map.busy_s", "s"),
    ("pipeline.cell_area_report.busy_s", "s"),
    ("pipeline.expected_cell_area_model.busy_s", "s"),
    ("estimators.ecp_kendall.calls", "count"),
    ("estimators.ecp_kendall.busy_s", "s"),
    ("estimators.dominance.calls", "count"),
    ("estimators.dominance.busy_s", "s"),
    ("estimators.mvlog.busy_s", "s"),
    ("estimators.batch.busy_s", "s"),
    ("concurrence.ecp_mc.calls", "count"),
    ("concurrence.ecp_mc.draws", "count"),
    ("concurrence.ecp_mc.busy_s", "s"),
    ("specfun.student_cdf.evals", "count"),
    ("specfun.student_cdf.busy_s", "s"),
    ("simulate.batch.calls", "count"),
    ("simulate.batch.realizations", "count"),
    ("simulate.batch.busy_s", "s"),
    ("simulate.truncated_frac", "frac"),
    ("simulate.doa.draws", "count"),
    ("simulate.doa.busy_s", "s"),
    ("models.sampler.draws", "count"),
    ("models.sampler.busy_s", "s"),
    ("synthetic.busy_s", "s"),
    ("trace.overhead_frac", "frac"),
)

COUNT_METRICS = frozenset(m for m, unit in PER_LAYER if unit == "count")


def subtree(spans, root: Span) -> list[Span]:
    """``root`` and all its descendants, in recording order."""
    keep = {root.id}
    out = [root]
    for s in spans[root.id + 1:]:
        if s.parent in keep:
            keep.add(s.id)
            out.append(s)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (root span first).

    A layer's calls and busy time count only its outermost spans, so a
    public function that calls another of the same layer is not counted
    twice.  Self times subtract the direct children's coverage.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    outer: dict[str, list[Span]] = {}
    for s in spans:
        p = by_id.get(s.parent)
        while p is not None and p.name != s.name:
            p = by_id.get(p.parent)
        if p is None:
            outer.setdefault(s.name, []).append(s)

    def calls(layer):
        return float(len(outer.get(layer, ())))

    def busy(layer):
        return float(sum(s.duration for s in outer.get(layer, ())))

    def total(layer, key):
        return float(sum(s.counts.get(key, 0) for s in outer.get(layer, ())))

    def self_sum(pred):
        return float(sum(self_time(s, children.get(s.id, ())) for s in spans if pred(s)))

    m: dict[str, float] = {}
    for c in CLI_COMMANDS:
        m[f"cli.{c}.wall_s"] = busy(f"cli.{c}")
    m["cli.self_s"] = self_sum(lambda s: s.name.startswith("cli."))
    m["study.self_s"] = self_sum(lambda s: s.name == "study")
    m["pipeline.ingest_csv.calls"] = calls("pipeline.ingest_csv")
    m["pipeline.ingest_csv.busy_s"] = busy("pipeline.ingest_csv")
    rows = total("pipeline.ingest_csv", "rows")
    m["pipeline.ingest_csv.rows_per_s"] = rows / m["pipeline.ingest_csv.busy_s"] if rows else 0.0
    m["pipeline.seasonal_blocks.busy_s"] = busy("pipeline.seasonal_blocks")
    m["pipeline.pairwise_matrix.calls"] = calls("pipeline.pairwise_matrix")
    m["pipeline.pairwise_matrix.pairs"] = total("pipeline.pairwise_matrix", "pairs")
    m["pipeline.pairwise_matrix.busy_s"] = busy("pipeline.pairwise_matrix")
    m["pipeline.pairwise_matrix.self_s"] = self_sum(lambda s: s.name == "pipeline.pairwise_matrix")
    m["pipeline.grid_map.calls"] = calls("pipeline.grid_map")
    m["pipeline.grid_map.nodes"] = total("pipeline.grid_map", "nodes")
    m["pipeline.grid_map.busy_s"] = busy("pipeline.grid_map")
    m["pipeline.cell_area_report.busy_s"] = busy("pipeline.cell_area_report")
    m["pipeline.expected_cell_area_model.busy_s"] = busy("pipeline.expected_cell_area_model")
    for layer in ("ecp_kendall", "dominance"):
        m[f"estimators.{layer}.calls"] = calls(f"estimators.{layer}")
        m[f"estimators.{layer}.busy_s"] = busy(f"estimators.{layer}")
    m["estimators.mvlog.busy_s"] = busy("estimators.mvlog")
    m["estimators.batch.busy_s"] = busy("estimators.batch")
    m["concurrence.ecp_mc.calls"] = calls("concurrence.ecp_mc")
    m["concurrence.ecp_mc.draws"] = total("concurrence.ecp_mc", "draws")
    m["concurrence.ecp_mc.busy_s"] = busy("concurrence.ecp_mc")
    m["specfun.student_cdf.evals"] = total("specfun.student_cdf", "evals")
    m["specfun.student_cdf.busy_s"] = busy("specfun.student_cdf")
    m["simulate.batch.calls"] = calls("simulate.batch")
    m["simulate.batch.realizations"] = total("simulate.batch", "realizations")
    m["simulate.batch.busy_s"] = busy("simulate.batch")
    real = m["simulate.batch.realizations"]
    m["simulate.truncated_frac"] = total("simulate.batch", "truncated") / real if real else 0.0
    m["simulate.doa.draws"] = total("simulate.doa", "draws")
    m["simulate.doa.busy_s"] = busy("simulate.doa")
    m["models.sampler.draws"] = total("models.sampler", "draws")
    m["models.sampler.busy_s"] = busy("models.sampler")
    m["synthetic.busy_s"] = busy("synthetic")
    return m
