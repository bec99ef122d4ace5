"""Spans around the public calls of each tetcontour layer, from outside.

`Tracer.install()` wraps the functions listed in TARGETS in every
tetcontour module that holds them, so both `cli`'s own imported names and
the module attributes other layers call through are covered. Each call
records a span (name, start, end, parent id, thread) in memory. With
memory on, tracemalloc runs inside the spans of PEAK_METRICS only and
gives their peak allocation; it slows Python-heavy calls such as
merge_trees several times over, so times come from runs with memory off.
`layer_metrics()` turns a finished span list into the per-layer metrics.
Nothing inside the program changes.
"""
from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
import tracemalloc

import numpy as np


def _mesh_counts(args, mesh):
    per_vertex = np.bincount(mesh.tets.ravel(), minlength=mesh.vertex_count)
    return {"vertices": mesh.vertex_count, "tets": mesh.tet_count,
            "max_tets_per_vertex": int(per_vertex.max())}


def _graph_counts(args, graph):
    degree = graph.neighbor_offsets[1:] - graph.neighbor_offsets[:-1]
    return {"edges": int(graph.neighbor_indices.size // 2),
            "max_degree": int(degree.max())}


def _tree_counts(args, tree):
    return {"supernodes": tree.supernode_count,
            "superarcs": tree.superarc_count}


def _unlabeled(args, result):
    soup = args[2]
    return {"unlabeled_tris": int((soup.superarc < 0).sum())}


# span name, module, function, counts taken from (args, result) at the end
TARGETS = (
    ("mesh.load", "tetcontour.mesh", "load_tetgen", _mesh_counts),
    ("mesh.load", "tetcontour.mesh", "load_raw_grid", _mesh_counts),
    ("mesh.order", "tetcontour.mesh", "build_vertex_order", None),
    ("mesh.graph", "tetcontour.mesh", "build_topology_graph", _graph_counts),
    ("mesh.volume", "tetcontour.mesh", "tet_volumes", None),
    ("contourtree.build", "tetcontour.contourtree", "build_contour_tree",
     _tree_counts),
    ("contourtree.join", "tetcontour.contourtree", "build_join_tree", None),
    ("contourtree.split", "tetcontour.contourtree", "build_split_tree", None),
    ("contourtree.merge", "tetcontour.contourtree", "merge_trees", None),
    ("hypersweep.deltas", "tetcontour.hypersweep", "compute_deltas", None),
    ("geometry.kernel", "tetcontour.geometry", "batch_spline_coefficients",
     None),
    ("hypersweep.sweep", "tetcontour.hypersweep", "sweep_volumes", None),
    ("hypersweep.weights", "tetcontour.hypersweep", "volume_weights", None),
    ("decomposition.decompose", "tetcontour.decomposition", "decompose",
     lambda args, branches: {"branches": len(branches)}),
    ("isosurface.extract", "tetcontour.isosurface",
     "extract_superarc_contour",
     lambda args, soup: {"kept_tris": soup.triangle_count}),
    ("isosurface.march", "tetcontour.isosurface", "march_tets",
     lambda args, soup: {"marched_tris": soup.triangle_count}),
    ("isosurface.label", "tetcontour.isosurface", "label_superarcs",
     _unlabeled),
    ("isosurface.write", "tetcontour.isosurface", "write_obj", None),
)

# functions called too often for a span each: only their calls are counted
CALL_COUNTS = (
    ("tree_walks", "tetcontour.contourtree", "straddling_arcs"),
)

ROOT = "cli.main"

# peak-allocation metric -> the span tracemalloc runs in
PEAK_METRICS = {
    "mesh.graph_peak_mb": "mesh.graph",
    "contourtree.merge_peak_mb": "contourtree.merge",
    "hypersweep.deltas_peak_mb": "hypersweep.deltas",
    "isosurface.march_peak_mb": "isosurface.march",
}

# name, unit, the end-to-end metric it should move and on which workload
LAYER_METRICS = (
    ("mesh.load_s", "s", "setup_s; delaunay-smooth (TetGen text parse)"),
    ("mesh.order_s", "s", "run_s; small everywhere, expected flat"),
    ("mesh.graph_s", "s", "run_s; delaunay-smooth, grid-smooth"),
    ("mesh.graph_peak_mb", "MB", "peak_rss_mb; delaunay-smooth, grid-smooth"),
    ("mesh.volume_s", "s",
     "run_s; delaunay-smooth (tet_volumes outside the loader)"),
    ("mesh.volume_calls", "count",
     "run_s; every workload (tet_volumes calls outside the loader)"),
    ("contourtree.join_s", "s", "run_s; delaunay-smooth, grid-smooth"),
    ("contourtree.split_s", "s", "run_s; delaunay-smooth, grid-smooth"),
    ("contourtree.merge_s", "s", "run_s; delaunay-smooth, grid-smooth"),
    ("contourtree.merge_peak_mb", "MB",
     "peak_rss_mb; delaunay-smooth, grid-smooth"),
    ("hypersweep.deltas_s", "s",
     "run_s; delaunay-smooth (unchunked), grid-smooth (chunked)"),
    ("hypersweep.deltas_peak_mb", "MB",
     "peak_rss_mb; delaunay-smooth (unchunked), grid-smooth (chunked)"),
    ("geometry.kernel_s", "s",
     "run_s; delaunay-smooth (1 call), grid-smooth (chunks on 2 threads)"),
    ("geometry.kernel_calls", "count", "run_s; grid-smooth"),
    ("hypersweep.accumulate_s", "s", "run_s; delaunay-smooth, grid-smooth"),
    ("hypersweep.sweep_s", "s", "run_s; noisy-grid"),
    ("hypersweep.weights_s", "s", "run_s; noisy-grid"),
    ("decomposition.decompose_s", "s", "run_s; noisy-grid"),
    ("isosurface.extract_s", "s", "run_s; noisy-grid"),
    ("isosurface.march_s", "s", "run_s; noisy-grid"),
    ("isosurface.label_s", "s", "run_s; noisy-grid (most of the run)"),
    ("isosurface.filter_s", "s", "run_s; noisy-grid"),
    ("isosurface.write_s", "s", "run_s; noisy-grid"),
    ("isosurface.march_peak_mb", "MB", "peak_rss_mb; noisy-grid"),
    ("cli.self_s", "s", "run_s; small everywhere"),
    ("mesh.vertices", "count", "explains every time"),
    ("mesh.tets", "count", "explains every time"),
    ("mesh.edges", "count", "explains mesh.graph_s"),
    ("mesh.max_degree", "count", "explains join/split time"),
    ("mesh.max_tets_per_vertex", "count",
     "sets the Neumaier lockstep rounds of hypersweep.accumulate_s"),
    ("contourtree.supernodes", "count", "explains sweep and label time"),
    ("contourtree.superarcs", "count", "explains sweep and label time"),
    ("decomposition.branches", "count", "explains decompose time"),
    ("isosurface.marched_tris", "count", "explains march and label time"),
    ("isosurface.kept_tris", "count", "explains write time"),
    ("isosurface.kept_frac", "ratio",
     "useful work of extraction: kept / marched triangles"),
    ("isosurface.unlabeled_tris", "count",
     "triangles label_superarcs left at -1; a known defect when > 0"),
    ("isosurface.tree_walks", "count", "sets isosurface.label_s"),
    ("cli.output_bytes", "B", "explains isosurface.write_s"),
    ("trace.overhead_frac", "ratio",
     "(traced run_s - untraced run_s) / untraced run_s"),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, memory=False):
        self.memory_spans = set(PEAK_METRICS.values()) if memory else set()
        self.spans = []
        self._ids = itertools.count()   # next() is atomic across threads
        self.calls = {key: 0 for key, *_ in CALL_COUNTS}
        self.missing = []
        self._main_stack = []
        self._local = threading.local()
        self._pending = []          # (span, counts fn, args, result)

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, counts=None):
        track = name in self.memory_spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs off the main thread's
            # current span, the call that handed out the work
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = {"id": next(self._ids), "name": name,
                    "parent": parent["id"] if parent else None,
                    "thread": threading.get_ident()}
            self.spans.append(span)
            stack.append(span)
            if track:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if track:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                stack.pop()
            if counts is not None:
                self._pending.append((span, counts, args, result))
            return result
        return traced

    def _count_calls(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every target; a target that no longer exists is recorded
        in `missing` and skipped."""
        for name, module, attr, counts in TARGETS:
            fn = self._find(name, module, attr)
            if fn is not None:
                _replace(fn, self.wrap(name, fn, counts))
        for key, module, attr in CALL_COUNTS:
            fn = self._find(key, module, attr)
            if fn is not None:
                _replace(fn, self._count_calls(key, fn))

    def _find(self, label, module, attr):
        fn = getattr(sys.modules.get(module), attr, None)
        if fn is None:
            self.missing.append(f"{label} ({module}.{attr})")
        return fn

    def finish(self):
        """Spans as plain JSON data, with the deferred counts filled in."""
        for span, counts, args, result in self._pending:
            span["counts"] = counts(args, result)
        self._pending.clear()
        return {"spans": self.spans, "calls": dict(self.calls),
                "missing": list(self.missing)}


def _replace(original, wrapper):
    """Rebind every tetcontour module name that holds `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "tetcontour":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def layer_metrics(trace):
    """Per-layer values of one traced run, keyed as in LAYER_METRICS.

    `trace` is the output of Tracer.finish(). A metric whose span was
    missing or never called reads 0; `missing` says which.
    """
    spans = trace["spans"]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    own = self_times(spans)
    ids = {s["id"]: s for s in spans}

    def total(name, pick=lambda s: True):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ())
                   if pick(s))

    def peak(name):
        return max((s.get("peak_mb", 0.0) for s in by_name.get(name, ())),
                   default=0.0)

    def count(name, key):
        return sum(s.get("counts", {}).get(key, 0)
                   for s in by_name.get(name, ()))

    def outside_load(s):
        parent = ids.get(s["parent"])
        return parent is None or parent["name"] != "mesh.load"

    root = by_name.get(ROOT, [None])[0]
    loads = by_name.get("mesh.load", ())
    run_start = max((s["end"] for s in loads), default=None)
    cli_self = 0.0
    if root is not None and run_start is not None:
        top_level = [(s["start"], s["end"]) for s in spans
                     if s["parent"] == root["id"]]
        cli_self = (root["end"] - run_start) - _covered(
            top_level, run_start, root["end"])
    marched = count("isosurface.march", "marched_tris")
    kept = count("isosurface.extract", "kept_tris")
    metrics = {key: peak(name) for key, name in PEAK_METRICS.items()}
    metrics.update({
        "mesh.load_s": total("mesh.load"),
        "mesh.order_s": total("mesh.order"),
        "mesh.graph_s": total("mesh.graph"),
        "mesh.volume_s": total("mesh.volume", outside_load),
        "mesh.volume_calls": sum(map(outside_load,
                                     by_name.get("mesh.volume", ()))),
        "contourtree.join_s": total("contourtree.join"),
        "contourtree.split_s": total("contourtree.split"),
        "contourtree.merge_s": total("contourtree.merge"),
        "hypersweep.deltas_s": total("hypersweep.deltas"),
        "geometry.kernel_s": total("geometry.kernel"),
        "geometry.kernel_calls": len(by_name.get("geometry.kernel", ())),
        "hypersweep.accumulate_s": sum(
            own[s["id"]] for s in by_name.get("hypersweep.deltas", ())),
        "hypersweep.sweep_s": total("hypersweep.sweep"),
        "hypersweep.weights_s": total("hypersweep.weights"),
        "decomposition.decompose_s": total("decomposition.decompose"),
        "isosurface.extract_s": total("isosurface.extract"),
        "isosurface.march_s": total("isosurface.march"),
        "isosurface.label_s": total("isosurface.label"),
        "isosurface.filter_s": sum(
            own[s["id"]] for s in by_name.get("isosurface.extract", ())),
        "isosurface.write_s": total("isosurface.write"),
        "cli.self_s": cli_self,
        "mesh.vertices": count("mesh.load", "vertices"),
        "mesh.tets": count("mesh.load", "tets"),
        "mesh.edges": count("mesh.graph", "edges"),
        "mesh.max_degree": count("mesh.graph", "max_degree"),
        "mesh.max_tets_per_vertex": count("mesh.load", "max_tets_per_vertex"),
        "contourtree.supernodes": count("contourtree.build", "supernodes"),
        "contourtree.superarcs": count("contourtree.build", "superarcs"),
        "decomposition.branches": count("decomposition.decompose",
                                        "branches"),
        "isosurface.marched_tris": marched,
        "isosurface.kept_tris": kept,
        "isosurface.kept_frac": kept / marched if marched else 0.0,
        "isosurface.unlabeled_tris": count("isosurface.label",
                                           "unlabeled_tris"),
        "isosurface.tree_walks": trace["calls"].get("tree_walks", 0),
    })
    return metrics


def median_metrics(runs):
    """Median of each metric over several runs' metric dicts."""
    return {key: statistics.median(run[key] for run in runs)
            for key in runs[0]}
