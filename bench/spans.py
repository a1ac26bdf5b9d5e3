"""Span tracing of poseboot from outside the program.

Tracer.install() replaces every plain function named in a poseboot module's
__all__ (plus cli._load_corpus) with a wrapper that records a span, and does
so in every poseboot.* namespace that binds it, because callers use
`from .x import y`. A public function added later is therefore timed without
editing this file; only the counts below name functions.

A span is (name, parent, start, end, outer): outer is true when no span of
the same layer encloses it, so a layer's time is the sum of its outer spans.
Self time is a span's duration minus its children's.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("synth", "heatmaps", "features", "svm", "dpmm", "metrics", "fileio", "pipeline", "cli")
# functions outside __all__ that a layer metric needs
EXTRA = {"cli": ("_load_corpus",)}
STAGES = ("synth", "pipeline", "candidates", "train-svm", "select", "outliers", "eval")

# name -> (unit, better); the traced run prints exactly these
PER_LAYER = {
    "heatmaps.enumerate_s": ("s", "lower"),
    "heatmaps.candidates": ("count", "lower"),
    "heatmaps.candidates_annotated": ("count", "lower"),
    "heatmaps.us_per_candidate": ("us", "lower"),
    "features.s": ("s", "lower"),
    "features.vectors": ("count", "lower"),
    "features.distinct_poses": ("count", "lower"),
    "features.vectors_per_pose": ("ratio", "lower"),
    "features.us_per_vector": ("us", "lower"),
    "svm.train_s": ("s", "lower"),
    "svm.models_trained": ("count", "lower"),
    "svm.models_used": ("count", "higher"),
    "svm.epochs": ("count", "lower"),
    "svm.models_at_cap": ("count", "lower"),
    "svm.coord_steps": ("count", "lower"),
    "svm.ns_per_coord_step": ("ns", "lower"),
    "svm.select_s": ("s", "lower"),
    "svm.decisions": ("count", "lower"),
    "dpmm.gibbs_s": ("s", "lower"),
    "dpmm.point_updates": ("count", "lower"),
    "dpmm.us_per_update": ("us", "lower"),
    "dpmm.project_s": ("s", "lower"),
    "dpmm.clusters": ("count", "higher"),
    "dpmm.screen_s": ("s", "lower"),
    "dpmm.merges_evaluated": ("count", "lower"),
    "dpmm.screens_accepted": ("count", "higher"),
    "dpmm.recovered": ("count", "higher"),
    "metrics.selection_stats_s": ("s", "lower"),
    "fileio.read_s": ("s", "lower"),
    "fileio.write_s": ("s", "lower"),
    "fileio.bytes_read": ("B", "lower"),
    "fileio.bytes_written": ("B", "lower"),
    "fileio.files_written": ("count", "lower"),
    "cli.load_corpus_s": ("s", "lower"),
    **{f"cli.{s.replace('-', '_')}_s": ("s", "lower") for s in STAGES},
    "pipeline.iterations": ("count", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "synth.corpus_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("count", "lower"),
}


class Tracer:
    def __init__(self):
        self.annotated: set[str] = set()  # annotated image ids, for heatmaps.candidates_annotated
        self.spans: list = []
        self.counts: Counter = Counter()
        self.models: dict[int, object] = {}  # kept alive so ids stay unique
        self.poses: set[int] = set()
        self.cluster_counts: list[int] = []
        self._stack: list[int] = []
        self._active = Counter()
        self._undo: list = []

    # --- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "poseboot"]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"poseboot.{layer}"]
            for name in (*getattr(mod, "__all__", ()), *EXTRA.get(layer, ())):
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self._wrap(fn, layer, f"{layer}.{name.lstrip('_')}")
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
                    self._undo.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter
        hook = _HOOKS.get(name) or _LAYER_HOOKS.get(layer)
        params = list(inspect.signature(fn).parameters.values())

        def arg(args, kwargs, key):
            """The call's value for parameter `key`; None means the first one."""
            key = params[0].name if key is None else key
            for i, p in enumerate(params):
                if p.name == key:
                    if i < len(args):
                        return args[i]
                    return kwargs.get(key, p.default)
            raise KeyError(f"{name} has no parameter {key!r}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = active[layer] == 0
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            active[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[layer] -= 1
                stack.pop()
                spans[sid] = (name, stack[-1] if stack else -1, start, end, outer)
            if hook is not None:
                hook(self, name, outer, lambda key=None: arg(args, kwargs, key), result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Records one span around benchmark code."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, self._stack[-1] if self._stack else -1, start, end, True)

    # --- results --------------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.models.clear()
        self.poses.clear()
        self.cluster_counts.clear()

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def outer_time(layer):
            return sum(e - s for n, _, s, e, outer in spans if outer and n.startswith(layer + "."))

        def time_in(*names):
            # spans of these functions not nested inside one another
            total = 0.0
            for name, parent, start, end, _ in spans:
                if name in names:
                    while parent >= 0 and spans[parent][0] not in names:
                        parent = spans[parent][1]
                    if parent < 0:
                        total += end - start
            return total

        def fileio_time(prefixes):
            return sum(
                e - s
                for n, _, s, e, outer in spans
                if outer and n.startswith("fileio.") and n[7:].startswith(prefixes)
            )

        def per(a, b, scale):
            return scale * a / b if b else 0.0

        c = self.counts
        m = {
            "heatmaps.enumerate_s": time_in("heatmaps.enumerate_candidates"),
            "heatmaps.candidates": c["candidates"],
            "heatmaps.candidates_annotated": c["candidates_annotated"],
            "features.s": outer_time("features"),
            "features.vectors": c["vectors"],
            "features.distinct_poses": len(self.poses),
            "svm.train_s": time_in("svm.train"),
            "svm.models_trained": c["models_trained"],
            "svm.models_used": len(self.models),
            "svm.epochs": c["epochs"],
            "svm.models_at_cap": c["models_at_cap"],
            "svm.coord_steps": c["coord_steps"],
            "svm.select_s": time_in("svm.select"),
            "svm.decisions": c["decisions"],
            "dpmm.gibbs_s": time_in("dpmm.gibbs_cluster", "dpmm.sample_partitions"),
            "dpmm.point_updates": c["point_updates"],
            "dpmm.project_s": time_in("dpmm.project"),
            "dpmm.clusters": float(np.mean(self.cluster_counts)) if self.cluster_counts else 0.0,
            "dpmm.screen_s": time_in("dpmm.detect_outliers"),
            "dpmm.merges_evaluated": c["merges_evaluated"],
            "dpmm.screens_accepted": c["screens_accepted"],
            "dpmm.recovered": c["recovered"],
            "metrics.selection_stats_s": time_in("metrics.selection_stats"),
            "fileio.read_s": fileio_time(("read_", "load_")),
            "fileio.write_s": fileio_time(("write_", "save_", "atomic_write")),
            "fileio.bytes_read": c["bytes_read"],
            "fileio.bytes_written": c["bytes_written"],
            "fileio.files_written": c["files_written"],
            "cli.load_corpus_s": time_in("cli.load_corpus"),
            "pipeline.iterations": c["iterations"],
            "pipeline.self_s": sum(
                e - s - child[i] for i, (n, _, s, e, _) in enumerate(spans) if n.startswith("pipeline.")
            ),
            "synth.corpus_s": time_in("synth.synth_corpus"),
            "trace.spans": len(spans),
        }
        for stage in STAGES:
            m[f"cli.{stage.replace('-', '_')}_s"] = time_in(f"cli.main:{stage}")
        m["heatmaps.us_per_candidate"] = per(m["heatmaps.enumerate_s"], m["heatmaps.candidates"], 1e6)
        m["features.vectors_per_pose"] = per(m["features.vectors"], m["features.distinct_poses"], 1.0)
        m["features.us_per_vector"] = per(m["features.s"], m["features.vectors"], 1e6)
        m["svm.ns_per_coord_step"] = per(m["svm.train_s"], m["svm.coord_steps"], 1e9)
        m["dpmm.us_per_update"] = per(m["dpmm.gibbs_s"], m["dpmm.point_updates"], 1e6)
        return m

    def write(self, path, run_id: str, round_no: int) -> None:
        """Append this round's spans to a gzipped JSONL file."""
        with gzip.open(path, "at") as f:
            for i, (name, parent, start, end, _) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"run": run_id, "round": round_no, "id": i, "parent": parent,
                         "name": name, "start": start, "end": end},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# --- counts taken at the same boundaries as the spans ----------------------------------


def _on_enumerate(t, name, outer, arg, result):
    t.counts["candidates"] += len(result)
    if arg("image_id") in t.annotated:
        t.counts["candidates_annotated"] += len(result)


def _on_train(t, name, outer, arg, result):
    epochs = len(result.objective_history)
    t.counts["models_trained"] += 1
    t.counts["epochs"] += epochs
    t.counts["coord_steps"] += epochs * arg("ts").features.shape[0]
    # the solver stops early only once the gap is within tol
    if result.gap_history and result.gap_history[-1] > arg("tol"):
        t.counts["models_at_cap"] += 1


def _on_select(t, name, outer, arg, result):
    model = arg("model")
    t.models[id(model)] = model
    t.counts["decisions"] += len(arg("candidates"))


def _on_sample(t, name, outer, arg, result):
    n = np.atleast_2d(np.asarray(arg("features"))).shape[0]
    t.counts["point_updates"] += n * arg("cfg").gibbs_iters


def _on_gibbs(t, name, outer, arg, result):
    t.cluster_counts.append(result.n_clusters)


def _on_screen(t, name, outer, arg, result):
    t.counts["merges_evaluated"] += len(result.per_merge)
    t.counts["screens_accepted"] += int(result.accepted)


def _on_recover(t, name, outer, arg, result):
    t.counts["recovered"] += len(result)


def _on_iteration(t, name, outer, arg, result):
    t.counts["iterations"] += 1


def _on_features(t, name, outer, arg, result):
    if not outer or not isinstance(result, np.ndarray):
        return
    t.counts["vectors"] += 1 if result.ndim == 1 else result.shape[0]
    pose = arg()
    kp = np.ascontiguousarray(getattr(pose, "keypoints", pose), dtype=np.float64)
    for one in kp.reshape(-1, kp.shape[-2] * kp.shape[-1]):
        t.poses.add(hash(one.tobytes()))


def _on_fileio(t, name, outer, arg, result):
    short = name[len("fileio."):]
    if short == "atomic_write":
        data = arg("data")
        t.counts["bytes_written"] += len(data.encode("utf-8") if isinstance(data, str) else data)
        t.counts["files_written"] += 1
    elif outer and short.startswith(("read_", "load_")):
        t.counts["bytes_read"] += os.path.getsize(arg())


_HOOKS = {
    "heatmaps.enumerate_candidates": _on_enumerate,
    "svm.train": _on_train,
    "svm.select": _on_select,
    "dpmm.sample_partitions": _on_sample,
    "dpmm.gibbs_cluster": _on_gibbs,
    "dpmm.detect_outliers": _on_screen,
    "dpmm.recover_poses": _on_recover,
    "pipeline.run_iteration": _on_iteration,
}
_LAYER_HOOKS = {"features": _on_features, "fileio": _on_fileio}
