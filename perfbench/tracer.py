"""Span tracing from outside the program.

While a ``Tracer`` is active, the public functions of each layer are
replaced, at the module attribute their callers look up, by wrappers that
record one span per call: a name, a start, an end and the enclosing span.
Spans are kept in flat arrays in memory and written out once, when the
run ends. A layer's self time is its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _count_report(counts: Counter, args, kwargs, report) -> None:
    counts["mapgraph.update_calls"] += 1
    counts["mapgraph.sweeps"] += report.sweeps
    counts["mapgraph.messages"] += report.messages
    counts["mapgraph.meas_used"] += report.n_measurements


def _count_rows(counts: Counter, args, kwargs, parsed) -> None:
    counts["cli.rows_parsed"] += parsed.n_total_rows


def _count_mh(counts: Counter, args, kwargs, result) -> None:
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    counts["oracle.mh_iterations"] += config.n_samples


# (module, attribute, span name, call counter, result hook, only under).
# A dotted attribute names a method on a class. A span with an "only under"
# name is recorded only when called directly inside that span, so surfel
# beliefs rebuilt while a map is constructed stay map set-up.
PATCHES = [
    ("stmmap.geometry", "TriGrid.triangle", "geometry.grid", None, None, None),
    ("stmmap.geometry", "TriGrid.locate", "geometry.locate", "geometry.locate_calls", None, None),
    ("stmmap.geometry", "TriGrid.normalize_to_element", "geometry.locate", None, None, None),
    ("stmmap.mapgraph", "STMMap.__init__", "mapgraph.map_init", None, None, None),
    ("stmmap.mapgraph", "enforce_rip", "mapgraph.enforce_rip", None, None, None),
    ("stmmap.mapgraph", "incremental_update", "mapgraph.update", None, _count_report, None),
    ("stmmap.cli", "incremental_update", "mapgraph.update", None, _count_report, None),
    ("stmmap.mapgraph", "run_inference", "mapgraph.inference", None, None, None),
    ("stmmap.mapgraph", "neighbor_out_message", "mapgraph.lbp", "mapgraph.lbp_messages", None, None),
    ("stmmap.mapgraph", "query_map", "mapgraph.query", None, None, None),
    ("stmmap.cli", "query_map", "mapgraph.query", None, None, None),
    ("stmmap.mapgraph", "init_likelihood_cluster", "surfel.cluster_init", "surfel.cluster_inits", None, None),
    ("stmmap.mapgraph", "apportion_nu_scales", "surfel.cluster_init", None, None, None),
    ("stmmap.surfel", "SurfelState.recompute_beliefs", "surfel.cluster_init", None, None,
     "mapgraph.inference"),
    ("stmmap.mapgraph", "update_mean_plane_factor", "surfel.mean_plane", "surfel.mean_plane_refits", None, None),
    ("stmmap.mapgraph", "update_planar_deviation_factor", "surfel.deviation", "surfel.deviation_refits",
     None, None),
    ("stmmap.mapgraph", "kl_gaussian", "distributions.kl", "distributions.kl_calls", None, None),
    ("stmmap.mapgraph", "gauss_product", "distributions.product", "distributions.product_calls", None, None),
    ("stmmap.surfel", "gauss_product", "distributions.product", "distributions.product_calls", None, None),
    ("stmmap.mapgraph", "gauss_divide", "distributions.divide", "distributions.divide_calls", None, None),
    ("stmmap.surfel", "gauss_divide", "distributions.divide", "distributions.divide_calls", None, None),
    ("stmmap.mapgraph", "gauss_marginalize", "distributions.marginalize", "distributions.marginalize_calls",
     None, None),
    ("stmmap.distributions", "solve_psd", "distributions.solve_psd", "distributions.solve_psd_calls", None, None),
    ("stmmap.surfel", "solve_psd", "distributions.solve_psd", "distributions.solve_psd_calls", None, None),
    ("stmmap.cli", "main", "cli.main", None, None, None),
    ("stmmap.cli", "parse_points_csv", "cli.parse", None, _count_rows, None),
    ("stmmap.cli", "export_ply", "cli.export_ply", None, None, None),
    ("stmmap.cli", "export_map_json", "cli.export_json", None, None, None),
    ("stmmap.oracle", "run_mh", "oracle.mh", None, _count_mh, None),
    ("stmmap.oracle", "compare_marginals", "oracle.compare", None, None, None),
]

# The call-boundary clock of untraced runs: one span per update call.
UPDATE_CLOCK = [
    ("stmmap.mapgraph", "incremental_update", "mapgraph.update", None, _count_report, None),
    ("stmmap.cli", "incremental_update", "mapgraph.update", None, _count_report, None),
]


class Tracer:
    """Records spans of the patched functions between ``start()`` and ``stop()``."""

    def __init__(self, patches=PATCHES):
        self.patches = patches
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []
        self.wall = 0.0
        self._started = 0.0

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _wrap(self, fn, span: str, counter, hook, only_under):
        sid = self._id(span)
        under = None if only_under is None else self._id(only_under)
        tr = self

        def traced(*args, **kwargs):
            stack = tr._stack
            if under is not None and (not stack or tr.name[stack[-1]] != under):
                return fn(*args, **kwargs)
            if counter is not None:
                tr.counts[counter] += 1
            idx = len(tr.t0)
            tr.name.append(sid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.t1.append(0.0)
            stack.append(idx)
            tr.t0.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.t1[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tr.counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def start(self) -> None:
        for mod_name, attr, span, counter, hook, only_under in self.patches:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._saved.append((owner, leaf, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span, counter, hook, only_under))
            else:
                wrapped = self._wrap(raw, span, counter, hook, only_under)
            setattr(owner, leaf, wrapped)
        self._started = perf_counter()

    def stop(self) -> None:
        self.wall += perf_counter() - self._started
        for owner, leaf, raw in reversed(self._saved):
            setattr(owner, leaf, raw)
        self._saved.clear()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        t0 = np.frombuffer(self.t0, dtype=float)
        t1 = np.frombuffer(self.t1, dtype=float)
        dur = t1 - t0
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_t = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return {n: float(self_t[i]) for i, n in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        """Inclusive durations of every span with this name, in seconds."""
        t0 = np.frombuffer(self.t0, dtype=float)
        t1 = np.frombuffer(self.t1, dtype=float)
        sel = np.frombuffer(self.name, dtype=np.int32) == self._name_id.get(name, -1)
        return (t1 - t0)[sel]

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.t0, dtype=float),
            end=np.frombuffer(self.t1, dtype=float),
        )
