"""Outside-in span recorder for ``vaxclust.pipeline.run_pipeline``.

Nothing inside the package is edited: :func:`instrument` swaps the public
functions that ``pipeline`` and ``evaluation`` look up at call time for
wrappers, and restores them on exit. Each wrapper records one span (name,
layer, start, end, parent, request id) on a per-thread stack and keeps the
call's arguments and result, from which :func:`layer_metrics` derives work
counts after the run. A span's request id is its (year, k) cell, written
``2021_k2``; ingest-time spans carry the year alone.

This module imports only the standard library at load time, so importing it
does not move numpy's import cost out of the benchmark's set-up time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "layer", "parent", "request", "start", "end", "self_s")

    def __init__(self, name, layer, parent, request):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.request = request
        self.start = self.end = self.self_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Recorder:
    """In-memory spans and captured calls; safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root: Span | None = None  # first span opened; parent of worker-thread spans
        self.captured: dict[str, list[tuple]] = defaultdict(list)  # name -> [(request, args, result)]
        self.ingest_year: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def call(self, name, layer, request, fn, args, kwargs=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.root
        if request is None and parent is not None:
            request = parent.request
        span = Span(name, layer, parent, request)
        if self.root is None:
            self.root = span
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        with self._lock:
            self.captured[name].append((request, args, result))
        return result

    def wrap(self, name, layer, request_of, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = request_of(self, args) if request_of else None
            return self.call(name, layer, request, fn, args, kwargs)

        return wrapper

    def year_of(self, dendrogram) -> str | None:
        with self._lock:
            made = list(self.captured["agglomerate"])
        return next((request for request, _, result in made if result is dendrogram), None)

    def finish(self) -> None:
        """Set each span's self time: its duration minus the part its children cover.

        Children on other threads (cells run by the pool) can overlap, so the
        covered part is the union of the children's intervals.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
        for span in self.spans:
            span.self_s = span.duration - _covered(children[id(span)])

    def self_s(self, *names) -> float:
        return sum(s.self_s for s in self.spans if s.name in names)


def _cell(year, k) -> str:
    return f"{year}_k{k}"


def _ingest(recorder, args):
    recorder.ingest_year = str(args[2])
    return recorder.ingest_year


# (module, attribute, layer, request id from the call's arguments; None inherits the parent's)
TARGETS = (
    ("pipeline", "load_year", "dataset", _ingest),
    ("pipeline", "pairwise_distances", "hcluster", lambda rec, a: rec.ingest_year),
    ("pipeline", "agglomerate", "hcluster", lambda rec, a: rec.ingest_year),
    ("pipeline", "cut_at_k", "hcluster", lambda rec, a: _cell(rec.year_of(a[0]), a[1])),
    ("pipeline", "label_by_coverage", "hcluster", lambda rec, a: _cell(a[1].year, a[2])),
    ("pipeline", "analyze_cell", "pipeline", lambda rec, a: _cell(a[0].year, a[1].k)),
    ("pipeline", "cross_validate", "evaluation", None),
    ("evaluation", "fit", "gbdt", None),
    ("evaluation", "predict_class", "gbdt", None),
    ("gbdt", "TreeEnsemble.encode_features", "gbdt", None),
    ("pipeline", "global_importance", "shapley", None),
    ("pipeline", "mann_whitney_u", "stats", None),
    ("pipeline", "welch_t", "stats", None),
    ("pipeline", "box_stats", "stats", None),
    ("pipeline", "write_cell_artifacts", "pipeline", lambda rec, a: _cell(a[0].year, a[0].k)),
)

LAYERS = ("dataset", "hcluster", "evaluation", "gbdt", "shapley", "stats", "pipeline")


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Route every call in :data:`TARGETS` through ``recorder`` until exit."""
    saved = []
    try:
        for module, attribute, layer, request_of in TARGETS:
            owner = importlib.import_module(f"vaxclust.{module}")
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, recorder.wrap(name, layer, request_of, original))
        yield recorder
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def tree_size(out_dir: str) -> tuple[int, int]:
    """(files, bytes) under ``out_dir``."""
    files = size = 0
    for dirpath, _, filenames in os.walk(out_dir):
        for filename in filenames:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, filename))
    return files, size


def layer_metrics(recorder: Recorder, run_s: float, out_dir: str) -> dict[str, tuple[float, str]]:
    """Per-layer self times, work counts and ratios of one traced call."""
    import numpy as np

    recorder.finish()
    captured = recorder.captured
    rows = lookups = patterns = 0
    for _, (model, design), _ in captured["global_importance"]:
        design = np.atleast_2d(np.asarray(design, dtype=np.float64))
        rows += design.shape[0]
        lookups += design.shape[0] * len(model.trees)
        patterns += sum(np.unique(tree.leaf_indices(design)).size for tree in model.trees)

    models = [model for _, _, cv in captured["cross_validate"] for model in cv.models]
    trees = [(tree, model) for model in models for tree in model.trees]
    levels_tried = sum(
        min(tree.n_levels + 1, model.config.depth) * model.n_features for tree, model in trees
    )
    exact = [r for _, _, r in captured["mann_whitney_u"] if r.method == "exact"]
    cell_spans = [s for s in recorder.spans if s.name == "analyze_cell"]
    files, size = tree_size(out_dir)

    metrics = {
        "shapley.importance_s": (recorder.self_s("global_importance"), "s"),
        "shapley.distinct_patterns": (patterns, "count"),
        "shapley.tree_lookups": (lookups, "count"),
        "shapley.pattern_hit_ratio": (1.0 - patterns / lookups if lookups else 0.0, "ratio"),
        "shapley.rows_explained": (rows, "count"),
        "gbdt.fit_s": (recorder.self_s("fit"), "s"),
        "gbdt.predict_s": (recorder.self_s("predict_class"), "s"),
        "gbdt.encode_s": (recorder.self_s("encode_features"), "s"),
        "gbdt.trees": (len(trees), "count"),
        "gbdt.zero_split_trees": (sum(tree.n_levels == 0 for tree, _ in trees), "count"),
        "gbdt.levels": (sum(tree.n_levels for tree, _ in trees), "count"),
        "gbdt.split_scans": (levels_tried, "count"),
        "evaluation.cv_self_s": (recorder.self_s("cross_validate"), "s"),
        "evaluation.folds": (len(models), "count"),
        "stats.mwu_s": (recorder.self_s("mann_whitney_u"), "s"),
        "stats.mwu_exact_tests": (len(exact), "count"),
        "stats.mwu_exact_arrangements": (sum(math.comb(r.n_low + r.n_high, r.n_low) for r in exact), "count"),
        "stats.welch_s": (recorder.self_s("welch_t"), "s"),
        "stats.box_s": (recorder.self_s("box_stats"), "s"),
        "hcluster.distances_s": (recorder.self_s("pairwise_distances"), "s"),
        "hcluster.agglomerate_s": (recorder.self_s("agglomerate"), "s"),
        "hcluster.merges": (sum(len(d.merges) for _, _, d in captured["agglomerate"]), "count"),
        "hcluster.cut_s": (recorder.self_s("cut_at_k", "label_by_coverage"), "s"),
        "dataset.load_s": (recorder.self_s("load_year"), "s"),
        "dataset.rows": (sum(len(d) for _, _, d in captured["load_year"]), "count"),
        "pipeline.write_s": (recorder.self_s("write_cell_artifacts"), "s"),
        "pipeline.bytes_written": (size, "bytes"),
        "pipeline.files_written": (files, "count"),
        "pipeline.analyze_self_s": (recorder.self_s("analyze_cell"), "s"),
        "pipeline.run_self_s": (recorder.self_s("run_pipeline"), "s"),
        "pipeline.cells": (len(cell_spans), "count"),
        "pipeline.cell_overlap": (sum(s.duration for s in cell_spans) / run_s, "ratio"),
    }
    # shares of busy thread time, so they sum to 1 at any thread count
    busy = sum(s.self_s for s in recorder.spans)
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (sum(s.self_s for s in recorder.spans if s.layer == layer) / busy, "ratio")
    return metrics
