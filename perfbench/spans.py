"""Span tracing for the benchmark's traced run.

The tracer wraps the program's public functions at every binding the
program calls them through: a function imported by name into another
module (``from .simulate import run_scenario``) is a second binding of the
same object, so every module of the package is searched for it. Each call
records a span (id, name, start, end, parent) in memory; self time is a
span's duration minus the time its child spans cover. ``installed()``
restores every binding on exit.

A span's name is ``<module>.<function>``; the module is the layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("simulate", "lifting", "geometry", "ukf", "association", "tracker", "io", "evaluation")

# A traced run alternates this many untraced and traced passes (pipelines)
# and compares their medians, so that a slow stretch of a shared machine
# lands on both sides.
OVERHEAD_PAIRS = 3

# Each per-unit metric and the count it is taken over. Where the count is
# 0 the workload did none of that work, and the per-unit metric reads 0 too.
PER_UNIT = {
    "simulate.render_us_per_person_frame": "simulate.person_frames",
    "lifting.lift_us_per_skeleton": "lifting.skeletons",
    "geometry.median_depth_us": "geometry.median_depth_calls",
    "ukf.predict_us": "ukf.predict_calls",
    "ukf.update_us": "ukf.update_calls",
    "association.us_per_set": "association.sets",
    "association.us_per_cost_cell": "association.cost_cells",
    "association.munkres_us": "association.munkres_calls",
    "association.gate_accept_ratio": "association.solver_assignments",
    "tracker.ingest_self_us_per_set": "tracker.sets",
    "tracker.snapshot_us_per_track": "tracker.snapshot_tracks",
    "io.parse_us_per_set": "io.sets_parsed",
    "io.write_us_per_record": "io.records_written",
    "evaluation.self_s_per_seed": "evaluation.seeds",
}


def _materialize_records(args, kwargs):
    # write_jsonl takes any iterable; a list lets the record count be read.
    args = list(args)
    if len(args) > 1:
        args[1] = list(args[1])
    elif "records" in kwargs:
        kwargs["records"] = list(kwargs["records"])
    return tuple(args), kwargs


class Tracer:
    """In-memory spans and per-name time and counts for one traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0
        self._tracker_seen = weakref.WeakKeyDictionary()  # tracker -> (latest stamp, stale drops)

    # -- hooks that count units of work from a call's arguments and result --

    def _count_render(self, args, kwargs, result):
        if result is not None:
            self.counts["simulate.person_frames"] += len(result[0])

    def _count_cost_cells(self, args, kwargs, result):
        self.counts["association.cost_cells"] += int(result.size)

    def _count_assignments(self, args, kwargs, result):
        self.counts["association.solver_assignments"] += len(result)

    def _count_matches(self, args, kwargs, result):
        self.counts["association.gated_matches"] += len(result.matches)

    def _count_ingest(self, args, kwargs, result):
        tracker, dets = args[0], args[1] if len(args) > 1 else kwargs["dets"]
        latest, drops = self._tracker_seen.get(tracker, (None, 0))
        if latest is not None and dets.stamp < latest:
            self.counts["tracker.out_of_order_sets"] += 1
        self.counts["tracker.stale_drops"] += tracker.stale_rejections - drops
        for ev in result:
            if ev.kind == "created":
                self.counts["tracker.births"] += 1
            elif ev.kind == "retired":
                self.counts["tracker.retirements"] += 1
        latest = dets.stamp if latest is None else max(latest, dets.stamp)
        self._tracker_seen[tracker] = (latest, tracker.stale_rejections)

    def _count_snapshot(self, args, kwargs, result):
        self.counts["tracker.snapshot_tracks"] += len(result.tracks)

    def _count_parsed(self, args, kwargs, result):
        self.counts["io.sets_parsed"] += len(result)

    def _count_written(self, args, kwargs, result):
        records = args[1] if len(args) > 1 else kwargs["records"]
        self.counts["io.records_written"] += len(records)

    def _count_evaluated(self, args, kwargs, result):
        seeds = kwargs.get("seeds")
        self.counts["evaluation.seeds"] += 1 if seeds is None else len(seeds)
        self.counts["evaluation.samples"] += sum(c.n_samples for c in result.cells.values())

    def targets(self):
        """(module, attribute path, hook, argument transform) of every traced function."""
        return (
            ("simulate", "run_scenario", None, None),
            ("simulate", "render_detection", self._count_render, None),
            ("lifting", "lift_skeleton", None, None),
            ("geometry", "median_depth", None, None),
            ("ukf", "predict", None, None),
            ("ukf", "update", None, None),
            ("ukf", "init_filter", None, None),
            ("association", "data_association", self._count_matches, None),
            ("association", "build_cost_matrix", self._count_cost_cells, None),
            ("association", "munkres", self._count_assignments, None),
            ("tracker", "PoseTracker.ingest", self._count_ingest, None),
            ("tracker", "PoseTracker.snapshot", self._count_snapshot, None),
            ("io", "read_detections", self._count_parsed, None),
            ("io", "write_jsonl", self._count_written, _materialize_records),
            ("evaluation", "evaluate", self._count_evaluated, None),
        )

    # -- wrapping --

    def _wrap(self, fn, name, hook, prepare):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                self.spans.append((span_id, name, start, end, parent))
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every target; restore all of them on exit."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "skelfuse" or n.startswith("skelfuse."))]
        patched = []
        try:
            for mod_name, attr_path, hook, prepare in self.targets():
                module = importlib.import_module(f"skelfuse.{mod_name}")
                name = f"{mod_name}.{attr_path.split('.')[-1]}"
                if "." in attr_path:  # a method: the class is its one binding
                    cls_name, meth = attr_path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    patched.append((owner, meth, original))
                    setattr(owner, meth, self._wrap(original, name, hook, prepare))
                    continue
                original = getattr(module, attr_path)
                wrapper = self._wrap(original, name, hook, prepare)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def alternate(self, run_once):
        """Call ``run_once()`` untraced and traced, alternating, ``OVERHEAD_PAIRS``
        times each; return (untraced results, traced results)."""
        untraced, traced = [], []
        for _ in range(OVERHEAD_PAIRS):
            untraced.append(run_once())
            with self.installed():
                traced.append(run_once())
        return untraced, traced

    # -- results --

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == layer) / 1e9

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name: (value, unit); see ``PER_UNIT`` for zero counts."""
        def us(ns, n):
            return ns / 1e3 / n if n else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        c, calls, own, total = self.counts, self.calls, self.self_ns, self.total_ns
        assoc_self_ns = sum(own[f"association.{f}"]
                            for f in ("data_association", "build_cost_matrix", "munkres"))
        m = {f"{layer}.self_s": (self.layer_self_s(layer), "s") for layer in LAYERS}
        m.update({
            "simulate.render_us_per_person_frame": (
                us(own["simulate.render_detection"], c["simulate.person_frames"]), "us"),
            "simulate.person_frames": (c["simulate.person_frames"], "count"),
            "lifting.lift_us_per_skeleton": (
                us(own["lifting.lift_skeleton"], calls["lifting.lift_skeleton"]), "us"),
            "lifting.skeletons": (calls["lifting.lift_skeleton"], "count"),
            "geometry.median_depth_us": (
                us(total["geometry.median_depth"], calls["geometry.median_depth"]), "us"),
            "geometry.median_depth_calls": (calls["geometry.median_depth"], "count"),
            "ukf.predict_us": (us(total["ukf.predict"], calls["ukf.predict"]), "us"),
            "ukf.predict_calls": (calls["ukf.predict"], "count"),
            "ukf.update_us": (us(total["ukf.update"], calls["ukf.update"]), "us"),
            "ukf.update_calls": (calls["ukf.update"], "count"),
            "ukf.init_calls": (calls["ukf.init_filter"], "count"),
            "association.us_per_set": (us(assoc_self_ns, calls["association.data_association"]), "us"),
            "association.sets": (calls["association.data_association"], "count"),
            "association.cost_cells": (c["association.cost_cells"], "count"),
            "association.us_per_cost_cell": (
                us(own["association.build_cost_matrix"], c["association.cost_cells"]), "us"),
            "association.munkres_us": (
                us(total["association.munkres"], calls["association.munkres"]), "us"),
            "association.munkres_calls": (calls["association.munkres"], "count"),
            "association.gate_accept_ratio": (
                ratio(c["association.gated_matches"], c["association.solver_assignments"]), "ratio"),
            "association.solver_assignments": (c["association.solver_assignments"], "count"),
            "tracker.ingest_self_us_per_set": (
                us(own["tracker.ingest"], calls["tracker.ingest"]), "us"),
            "tracker.sets": (calls["tracker.ingest"], "count"),
            "tracker.snapshot_us_per_track": (
                us(total["tracker.snapshot"], c["tracker.snapshot_tracks"]), "us"),
            "tracker.snapshot_tracks": (c["tracker.snapshot_tracks"], "count"),
            "tracker.births": (c["tracker.births"], "count"),
            "tracker.retirements": (c["tracker.retirements"], "count"),
            "tracker.stale_drops": (c["tracker.stale_drops"], "count"),
            "tracker.out_of_order_sets": (c["tracker.out_of_order_sets"], "count"),
            "io.parse_us_per_set": (us(total["io.read_detections"], c["io.sets_parsed"]), "us"),
            "io.sets_parsed": (c["io.sets_parsed"], "count"),
            "io.write_us_per_record": (us(total["io.write_jsonl"], c["io.records_written"]), "us"),
            "io.records_written": (c["io.records_written"], "count"),
            "evaluation.self_s_per_seed": (
                ratio(own["evaluation.evaluate"] / 1e9, c["evaluation.seeds"]), "s"),
            "evaluation.samples": (c["evaluation.samples"], "count"),
            "evaluation.seeds": (c["evaluation.seeds"], "count"),
            "trace.spans": (len(self.spans), "count"),
        })
        return m

    @staticmethod
    def overhead_metrics(untraced_s, traced_s) -> dict[str, tuple[float, str]]:
        """Traced over untraced median wall time, minus one, and its base."""
        base = statistics.median(untraced_s)
        return {"trace.overhead_ratio": (statistics.median(traced_s) / base - 1.0, "ratio"),
                "trace.untraced_s": (base, "s")}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "workload": self.workload,
                }, separators=(",", ":")) + "\n")
