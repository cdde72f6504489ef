"""Spans around the calls into each pearl_floer layer, for the traced run.

Wrappers are installed by name: each span lists the module attributes
(the public names one layer imports from another) that it rebinds.  A name
that no longer exists is skipped and recorded, and the metrics that need
it are reported as unmeasured instead of crashing the run.  ``uninstall``
restores every original, so traced and untraced passes can alternate in
one process.

Two kinds of record are kept in memory and written when the run ends:

* a span per call of a layer entry point: name, start, end, parent span
  and job id;
* a folded record per (parent span, name) for the high-frequency leaf
  calls (model callbacks and geom frames / angles): call count, points
  evaluated and total seconds.  One span per callback would hold millions
  of records per run.

A span's self time is its duration minus the time its child spans and
folded leaf calls cover.  Spans nest strictly (one thread), so children
never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import time
from typing import Any, Callable, Optional

#: span name -> locations "module:attribute" (attribute may be dotted).
SPANS: dict[str, tuple[str, ...]] = {
    "models.get_model": ("pearl_floer.cli:get_model",),
    "immersion.sample": ("pearl_floer.cli:sample_immersion",),
    "immersion.primitive": ("pearl_floer.cli:compute_primitive",),
    "immersion.grading": ("pearl_floer.cli:compute_grading",),
    "immersion.double_points": ("pearl_floer.cli:find_double_points",),
    "immersion.emit": ("pearl_floer.cli:emit_datum",),
    "immersion.probe": ("pearl_floer.cli:probe_frame_invariance",),
    "floer.validate": (
        "pearl_floer.cli:validate_datum",
        "pearl_floer.floer:validate_datum",
        "pearl_floer.immersion:validate_datum",
    ),
    "floer.assemble": (
        "pearl_floer.cli:floer_cohomology",
        "pearl_floer.cli:assemble_differential",
        "pearl_floer.cli:action_filtration",
    ),
    "floer.rank_inequality": ("pearl_floer.cli:rank_inequality_report",),
    "gf2.cohomology": ("pearl_floer.gf2:GradedComplex.cohomology_ranks",),
    "gf2.spectral": ("pearl_floer.floer:spectral_pages",),
    "gf2.chain_map": ("pearl_floer.cli:verify_chain_map",),
    "gf2.cone": ("pearl_floer.cli:is_quasi_iso",),
    "fileformat.load": ("pearl_floer.cli:load_datum",),
    "fileformat.save": ("pearl_floer.cli:save_datum",),
}

#: folded leaf name -> locations.  Callbacks are wrapped on the spec that
#: ``get_model`` returns, not by name.
LEAVES: dict[str, tuple[str, ...]] = {
    "geom.frame": ("pearl_floer.immersion:make_unitary_frame",),
    "geom.angles": ("pearl_floer.immersion:kahler_angles",),
}

CALLBACK_FIELDS = ("position", "differential", "intrinsic")


def _resolve(location: str) -> tuple[Any, str, Callable]:
    """(owner, attribute, current value) for "module:attr[.attr...]"."""
    module_name, _, path = location.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if not callable(value):
        raise TypeError(f"{location} is not callable")
    return owner, attr, value


def _points(args: tuple) -> int:
    """Points in one callback call: params is (d,) today, (m, d) if batched."""
    params = args[1] if len(args) > 1 else None
    if getattr(params, "ndim", 1) >= 2:
        return len(params)
    return 1


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.leaves: dict[tuple[int, str], list] = {}  # -> [calls, seconds, points]
        self.in_leaf = False
        self.job: Optional[int] = None
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()  # span/leaf/count names not measured
        self.skipped: list[str] = []  # locations that could not be wrapped
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                # Counting is the tracer's own work: file it as a folded
                # record so that no span's self time includes it.
                result = after(args, result)
                key = (record[3], "trace.bookkeeping")
                stats = self.leaves.setdefault(key, [0, 0.0, 0])
                stats[0] += 1
                stats[1] += clock() - record[2]
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable, points: bool = False) -> Callable:
        leaves, stack, clock = self.leaves, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (stack[-1] if stack else -1, name)
            stats = leaves.get(key)
            if stats is None:
                stats = leaves[key] = [0, 0.0, 0]
            stats[0] += 1
            stats[2] += _points(args) if points else 1
            if self.in_leaf:  # its time is inside the enclosing leaf call
                return fn(*args, **kwargs)
            self.in_leaf = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stats[1] += clock() - start
                self.in_leaf = False

        return wrapper

    # -- counts taken at span boundaries ------------------------------------

    def _wrap_callbacks(self, args: tuple, result: Any) -> Any:
        try:
            spec, morse = result
            changes = {
                f: self.leaf(f"callbacks.{f}", getattr(spec, f), points=True)
                for f in CALLBACK_FIELDS
                if getattr(spec, f) is not None
            }
            return dataclasses.replace(spec, **changes), morse
        except (TypeError, ValueError, AttributeError):
            self.missing.add("callbacks")
            return result

    def _complex_size(self, args: tuple, result: Any) -> Any:
        try:
            cx = args[0]
            n = len(cx)
            entries = sum(1 for _ in cx.differential.entries())
        except (TypeError, AttributeError, IndexError):
            self.missing.add("gf2.size")
            return result
        self.count("gf2.generators", n)
        self.count("gf2.entries", entries)
        self.count("gf2.dense_bits", n * n)
        return result

    def _file_bytes(self, index: int) -> Callable:
        def after(args: tuple, result: Any) -> Any:
            try:
                self.count("fileformat.bytes", os.path.getsize(args[index]))
            except (OSError, TypeError, IndexError):
                self.missing.add("fileformat.bytes")
            return result

        return after

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        self.skipped = []
        after = {
            "models.get_model": self._wrap_callbacks,
            "gf2.cohomology": self._complex_size,
            "fileformat.load": self._file_bytes(0),
            "fileformat.save": self._file_bytes(1),
        }
        for table, is_span in ((SPANS, True), (LEAVES, False)):
            for name, locations in table.items():
                wrapped = 0
                for location in locations:
                    try:
                        owner, attr, original = _resolve(location)
                    except (ImportError, AttributeError, KeyError, TypeError):
                        self.skipped.append(location)
                        continue
                    if is_span:
                        wrapper = self.span(name, original, after.get(name))
                    else:
                        wrapper = self.leaf(name, original)
                    setattr(owner, attr, wrapper)
                    self._installed.append((owner, attr, original))
                    wrapped += 1
                if not wrapped:
                    self.missing.add(name)
        if "models.get_model" in self.missing:
            self.missing.add("callbacks")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, list]]:
        """(self seconds by span name, [calls, seconds, points] by leaf name)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        leaf_totals: dict[str, list] = {}
        for (parent, name), (calls, seconds, points) in self.leaves.items():
            if parent >= 0:
                covered[parent] += seconds
            total = leaf_totals.setdefault(name, [0, 0.0, 0])
            total[0] += calls
            total[1] += seconds
            total[2] += points
        own: dict[str, float] = {}
        for k, (name, start, end, _parent, _job) in enumerate(self.spans):
            own[name] = own.get(name, 0.0) + (end - start) - covered[k]
        return own, leaf_totals

    def span_totals(self, name: str, jobs: Optional[set] = None) -> float:
        return sum(
            end - start
            for n, start, end, _p, job in self.spans
            if n == name and (jobs is None or job in jobs)
        )

    def leaf_calls_under(self, prefix: str, parent_name: str, jobs: Optional[set] = None) -> int:
        """Leaf calls named ``prefix...`` whose parent span is ``parent_name``,
        optionally only in the given jobs."""
        total = 0
        for (parent, name), (calls, _s, _p) in self.leaves.items():
            if not name.startswith(prefix) or parent < 0:
                continue
            span = self.spans[parent]
            if span[0] == parent_name and (jobs is None or span[4] in jobs):
                total += calls
        return total

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans
            ],
            "leaves": [
                {"parent": parent, "name": name, "calls": c, "seconds": t, "points": pts}
                for (parent, name), (c, t, pts) in sorted(self.leaves.items())
            ],
            "counts": self.counts,
            "missing": sorted(self.missing),
            "skipped": self.skipped,
        }


# ---------------------------------------------------------------------------
# per-layer metrics


def _per_pass(value: float, passes: int) -> float:
    return value / passes if passes else 0.0


def layer_metrics(
    tracer: Tracer,
    passes: int,
    mesh_counts: dict[str, Optional[float]],
    mesh_jobs: set,
    inputs_s: float,
    overhead_frac: float,
) -> dict[str, Optional[float]]:
    """Per-layer metrics of ``passes`` traced passes; None means unmeasured.

    Self times and counts are per pass of the job list.  ``mesh_counts``
    holds the samples, edges and double points summed from the reports of
    the analyze jobs ``mesh_jobs`` (None when a report lacks them); jobs
    that stop at a gate report no mesh.
    """
    own, leaves = tracer.self_times()
    missing = tracer.missing
    out: dict[str, Optional[float]] = {}

    def span_self(metric: str, span: str) -> None:
        out[metric] = None if span in missing else _per_pass(own.get(span, 0.0), passes)

    def leaf(metric_calls: Optional[str], metric_self: str, name: str) -> None:
        calls, seconds, _points = leaves.get(name, (0, 0.0, 0))
        if metric_calls:
            out[metric_calls] = None if name in missing else _per_pass(calls, passes)
        out[metric_self] = None if name in missing else _per_pass(seconds, passes)

    for stage in ("sample", "primitive", "grading", "double_points", "emit", "probe"):
        span_self(f"immersion.{stage}.self_s", f"immersion.{stage}")
    edges = mesh_counts.get("edges")
    primitive_s = tracer.span_totals("immersion.primitive", mesh_jobs)
    if "immersion.primitive" in missing or edges is None:
        out["immersion.edges_per_s"] = None
    else:
        out["immersion.edges_per_s"] = edges / primitive_s if primitive_s > 0 else 0.0
    for name in ("samples", "edges", "double_points"):
        value = mesh_counts.get(name)
        out[f"immersion.{name}"] = None if value is None else _per_pass(value, passes)

    callbacks_missing = "callbacks" in missing
    for stage in ("sample", "primitive", "double_points", "probe"):
        span = f"immersion.{stage}"
        calls = tracer.leaf_calls_under("callbacks.", span)
        measured = not callbacks_missing and span not in missing
        out[f"callbacks.calls.{stage}"] = _per_pass(calls, passes) if measured else None
    cb = [v for k, v in leaves.items() if k.startswith("callbacks.")]
    out["callbacks.points"] = None if callbacks_missing else _per_pass(sum(v[2] for v in cb), passes)
    calls_primitive = tracer.leaf_calls_under("callbacks.", "immersion.primitive", mesh_jobs)
    if callbacks_missing or "immersion.primitive" in missing or edges is None:
        out["callbacks.calls_per_edge"] = None
    else:
        out["callbacks.calls_per_edge"] = calls_primitive / edges if edges else 0.0
    out["callbacks.self_s"] = None if callbacks_missing else _per_pass(sum(v[1] for v in cb), passes)

    leaf("geom.frames", "geom.frame.self_s", "geom.frame")
    leaf("geom.angles.calls", "geom.angles.self_s", "geom.angles")

    validations = sum(1 for span in tracer.spans if span[0] == "floer.validate")
    out["floer.validate.calls"] = None if "floer.validate" in missing else _per_pass(validations, passes)
    span_self("floer.validate.self_s", "floer.validate")
    span_self("floer.assemble.self_s", "floer.assemble")
    span_self("floer.rank_inequality.self_s", "floer.rank_inequality")

    for name in ("cohomology", "spectral", "chain_map", "cone"):
        span_self(f"gf2.{name}.self_s", f"gf2.{name}")
    sized = "gf2.cohomology" not in missing and "gf2.size" not in missing
    for name in ("generators", "entries", "dense_bits"):
        key = f"gf2.{name}"
        out[key] = _per_pass(tracer.counts.get(key, 0), passes) if sized else None

    span_self("fileformat.load_s", "fileformat.load")
    span_self("fileformat.save_s", "fileformat.save")
    measured = not missing & {"fileformat.load", "fileformat.save", "fileformat.bytes"}
    out["fileformat.bytes"] = _per_pass(tracer.counts.get("fileformat.bytes", 0), passes) if measured else None

    span_self("cli.self_s", "cli.main")
    out["bench.inputs_s"] = inputs_s
    out["trace.overhead_frac"] = overhead_frac
    return out
