"""Span tracer that wraps the public functions of the ``rise`` modules.

Wrappers are installed at the names callers look up, so a function imported
into several modules is wrapped at every binding. One binding can carry its
own span name: ``rise.kmeans.kmeans`` is what ``select_anchors`` calls and
``rise.optimizer.kmeans`` is the final clustering. Each thread keeps its own
span stack, so sweep pool workers nest correctly. Spans are held in memory;
``Tracer.dump`` writes them out once the traced work is over.

A wrapped name that the program no longer defines is skipped, and its
metrics then read 0 calls.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# (module, attribute, span name). A site listed in SITE_NAMES overrides the
# span name at one binding; every other binding of the same function object
# gets the name given here.
WRAPPED = [
    ("rise.kmeans", "select_anchors", "kmeans.select_anchors"),
    ("rise.kmeans", "kmeans", "kmeans.anchor"),
    ("rise.graph", "build_bipartite", "graph.build"),
    ("rise.graph", "normalize", "graph.normalize"),
    ("rise.linalg", "trunc_svd_left", "linalg.trunc_svd"),
    ("rise.linalg", "sym_eigh", "linalg.sym_eigh"),
    ("rise.optimizer", "run_rise", "optimizer.run_rise"),
    ("rise.optimizer", "init_embeddings", "optimizer.init"),
    ("rise.optimizer", "update_consensus", "optimizer.update_consensus"),
    ("rise.optimizer", "update_embedding", "optimizer.update_embedding"),
    ("rise.optimizer", "objective", "optimizer.objective"),
    ("rise.masking", "scatter", "masking.scatter"),
    ("rise.masking", "gather", "masking.gather"),
    ("rise.masking", "generate_mask", "masking.generate_mask"),
    ("rise.masking", "apply_mask", "masking.apply_mask"),
    ("rise.datagen", "generate_blobs", "datagen.generate_blobs"),
    ("rise.dataset_io", "read_matrix", "dataset_io.read_matrix"),
    ("rise.dataset_io", "read_labels", "dataset_io.read_labels"),
    ("rise.dataset_io", "write_matrix", "dataset_io.write_matrix"),
    ("rise.dataset_io", "write_labels", "dataset_io.write_labels"),
    ("rise.metrics", "clustering_accuracy", "metrics.accuracy"),
    ("rise.metrics", "nmi", "metrics.nmi"),
    ("rise.metrics", "purity", "metrics.purity"),
    ("rise.cli", "load_inputs", "cli.load_inputs"),
    ("rise.cli", "run_loaded", "cli.cell"),
]
SITE_NAMES = {("rise.optimizer", "kmeans"): "kmeans.final"}
# Methods are wrapped on their class: (module, class, method, span name).
WRAPPED_METHODS = [("rise.graph", "BipartiteGraph", "toarray", "graph.toarray")]

# spans whose counts read the call's arguments or result
_NEEDS_ARGUMENTS = {"kmeans.anchor", "kmeans.final", "linalg.trunc_svd", "graph.toarray",
                    "dataset_io.read_matrix", "kmeans.select_anchors", "optimizer.run_rise"}

LAYERS = ("kmeans", "graph", "linalg", "optimizer", "masking", "datagen", "dataset_io", "metrics", "cli")


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.anchor_keys: set = set()
        self.run_rise_results: list = []
        self._dense_seen: dict[int, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "rise" or name.startswith("rise.")}
        for (mod_name, attr), span_name in SITE_NAMES.items():
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if callable(fn):
                self._patch(mod, attr, self._wrap(fn, span_name))
        for mod_name, attr, span_name in WRAPPED:
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if not callable(fn):
                continue
            wrapper = self._wrap(fn, span_name)
            for other in modules.values():
                for other_attr, value in list(vars(other).items()):
                    if value is fn:
                        self._patch(other, other_attr, wrapper)
        for mod_name, cls_name, attr, span_name in WRAPPED_METHODS:
            cls = getattr(modules.get(mod_name), cls_name, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if callable(fn):
                self._patch(cls, attr, self._wrap(fn, span_name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer._count(name, signature, args, kwargs, result)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------
    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- counts at the boundaries ---------------------------------------
    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def _count(self, name: str, signature, args, kwargs, result) -> None:
        self._add(name + ".calls", 1)
        if name not in _NEEDS_ARGUMENTS:
            return
        params = {}
        if signature is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                params = bound.arguments
            except TypeError:
                pass
        if name in ("kmeans.anchor", "kmeans.final"):
            iters = int(getattr(result, "iterations", 0))
            self._add(name + ".iters", iters)
            max_iters = params.get("max_iters")
            if max_iters is not None and iters >= int(max_iters):
                self._add(name + ".cap_hits", 1)
        elif name == "linalg.trunc_svd":
            matrix = params.get("matrix", args[0] if args else None)
            rows, cols = np.shape(matrix)
            self._add("linalg.trunc_svd.flops", 2.0 * rows * cols * cols)
            self._add("linalg.trunc_svd.bytes_in", 8.0 * rows * cols)
        elif name == "graph.toarray":
            graph = args[0]
            with self._lock:
                first = id(graph) not in self._dense_seen
                # hold the graph so its id cannot be reused by another graph
                self._dense_seen[id(graph)] = graph
            if first:
                self._add("graph.dense_bytes", 8.0 * graph.rows * graph.n_anchors)
        elif name == "dataset_io.read_matrix":
            path = params.get("path", args[0] if args else None)
            self._add("dataset_io.read_matrix.bytes", float(os.path.getsize(path)))
        elif name == "kmeans.select_anchors":
            view = np.ascontiguousarray(params.get("view", args[0] if args else None))
            digest = hashlib.blake2b(view.tobytes(), digest_size=16).hexdigest()
            key = (digest, view.shape, params.get("strategy"), params.get("n_anchors"), params.get("seed"))
            with self._lock:
                self.anchor_keys.add(key)
        elif name == "optimizer.run_rise":
            with self._lock:
                self.run_rise_results.append((result, params.get("cfg")))

    # -- derived metrics ------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer busy/self times and the named layer metrics."""
        by_id = {s.sid: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        busy: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        layer_busy: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for s in self.spans:
            duration = s.end - s.start
            layer = s.name.split(".")[0]
            busy[s.name] += duration
            self_time[s.name] += duration - child_time[s.sid]
            layer_self[layer] += duration - child_time[s.sid]
            parent = by_id.get(s.parent)
            if parent is None or parent.name.split(".")[0] != layer:
                layer_busy[layer] += duration

        c = self.counts
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = layer_busy[layer]
            out[f"{layer}.self_s"] = layer_self[layer]
        for name in ("kmeans.anchor", "kmeans.final", "linalg.trunc_svd",
                     "linalg.sym_eigh", "graph.build", "graph.normalize", "graph.toarray",
                     "optimizer.run_rise", "optimizer.init", "optimizer.update_consensus",
                     "optimizer.update_embedding", "optimizer.objective", "masking.scatter",
                     "dataset_io.read_matrix", "datagen.generate_blobs", "cli.cell"):
            out[f"{name}.busy_s"] = busy[name]
        out["linalg.trunc_svd.self_s"] = self_time["linalg.trunc_svd"]
        for name in ("kmeans.anchor", "linalg.trunc_svd", "linalg.sym_eigh", "graph.toarray",
                     "masking.scatter", "masking.gather"):
            out[f"{name}.calls"] = c[f"{name}.calls"]
        out["kmeans.anchor.iters"] = c["kmeans.anchor.iters"]
        out["kmeans.anchor.cap_hits"] = c["kmeans.anchor.cap_hits"]
        out["kmeans.final.iters"] = c["kmeans.final.iters"]
        for key in ("linalg.trunc_svd.flops", "linalg.trunc_svd.bytes_in", "graph.dense_bytes",
                    "dataset_io.read_matrix.bytes"):
            out[key] = c[key]
        out["metrics.score.busy_s"] = busy["metrics.accuracy"] + busy["metrics.nmi"] + busy["metrics.purity"]

        # the ROADMAP stage split: anchors, graphs, init, optimize, final k-means
        out["stage.anchors_s"] = busy["kmeans.select_anchors"]
        out["stage.graphs_s"] = busy["graph.build"] + busy["graph.normalize"]
        out["stage.optimize_s"] = busy["optimizer.run_rise"] - busy["optimizer.init"] - busy["kmeans.final"]

        iterations, iter_ms, converged = [], [], []
        for result, cfg in self.run_rise_results:
            trace = list(result.objective_trace)
            iterations.append(result.iterations)
            iter_ms.extend(result.iteration_ms)
            stopped = len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= cfg.rel_tol * (abs(trace[-2]) + 1.0)
            converged.append(1.0 if stopped or result.iterations < cfg.max_iters else 0.0)
        out["optimizer.iterations"] = float(sum(iterations))
        out["optimizer.iter_ms_p50"] = float(np.median(iter_ms)) if iter_ms else 0.0
        out["optimizer.converged"] = float(np.mean(converged)) if converged else 0.0

        selects = c["kmeans.select_anchors.calls"]
        out["cli.anchor_useful_ratio"] = len(self.anchor_keys) / selects if selects else 0.0
        loaded = [s.end for s in self.spans if s.name == "cli.load_inputs"]
        out["cli.cell.wait_s"] = (
            sum(max(0.0, s.start - max(loaded)) for s in self.spans if s.name == "cli.cell")
            if loaded else 0.0
        )
        out["trace.spans"] = float(len(self.spans))
        return out

    def dump(self, path: str) -> None:
        rows = [[s.sid, s.parent, s.name, s.thread, s.start, s.end] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "thread", "start", "end"], "spans": rows}, fh)


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        stack = self.tracer._stack()
        self.span = Span(next(self.tracer._ids), stack[-1] if stack else None, self.name,
                         threading.get_ident(), time.perf_counter())
        stack.append(self.span.sid)
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(self.span)
