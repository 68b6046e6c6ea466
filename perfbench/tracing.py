"""Benchmark-side tracing: spans around calls into each layer's public functions.

The wrappers live here, not in the program: :meth:`Tracer.install` patches
each traced function where its callers look it up, and :meth:`Tracer
.uninstall` restores the originals.  A span records its name, layer,
start, end, parent span and the id of the benchmark operation or wire
request it belongs to; spans stay in memory until :meth:`Tracer.export`.

Functions called hundreds of thousands of times per run (the geometry
kernels, the kNN counts, the R-tree union merge) are *leaves*: instead of
a span per call they add their call count, time and notes to per-name
totals, and their time to the enclosing span.  That keeps the tracing
overhead small where a span per call would dominate the run.

A span's *self time* is its duration minus the time of the spans and
leaves of other layers nested in it, so each layer's figures exclude the
layers it calls.  Only the installing process records: a forked worker
inherits the patched functions but runs them as plain pass-throughs.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

try:
    import numpy
except ImportError:  # the scalar kernels return lists
    numpy = None

# Span fields, as list positions (spans are lists to keep recording cheap).
# LEAF is the time of other-layer leaf calls made directly inside the span.
NAME, LAYER, START, END, PARENT, RID, INFO, LEAF = range(8)

#: Layers whose spans count as covering an operation's time.  ``api`` (the
#: processor entry points) wraps whole operations, so it is left out.
NOT_A_LAYER = ("op", "api")

#: ``QueryStatistics`` counters summed into the span info of query calls.
STAT_FIELDS = (
    "route_nodes_visited",
    "transition_nodes_visited",
    "nodes_pruned",
    "filter_points",
    "candidates",
    "confirmed_points",
)


class Tracer:
    """Records spans and leaf totals for the process that installed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: name -> [calls, seconds, summed notes]
        self.leaves: Dict[str, list] = {}
        self.rid: Any = None
        self.subscriptions: List[Any] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.recording = True
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self) -> None:
        self.recording = False

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn: Callable, note=None) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``note(args, kwargs, result)`` may return a JSON-able value stored
        as the span's info.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [name, layer, time.perf_counter(), None,
                    stack[-1] if stack else None, tracer.rid, None, 0.0]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[INFO] = note(args, kwargs, result)
            return result

        return traced

    def wrap_leaf(
        self, name: str, layer: str, fn: Callable, note=None, note_every: int = 1
    ) -> Callable:
        """``fn`` wrapped to add to the totals of ``name``: calls, seconds
        and the two numbers ``note(args, kwargs, result)`` returns, taken
        on every ``note_every``-th call (a cheap sample for ratios)."""
        tracer = self
        local = self._local
        total = self.leaves.setdefault(name, [0, 0.0, 0, 0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            total[0] += 1
            total[1] += elapsed
            if note is not None and total[0] % note_every == 0:
                first, second = note(args, kwargs, result)
                total[2] += first
                total[3] += second
            stack = getattr(local, "stack", None)
            if stack and stack[-1][LAYER] != layer:
                stack[-1][LEAF] += elapsed
            return result

        return traced

    @contextmanager
    def op(self, name: str, rid: Any):
        """A benchmark operation: the end-to-end interval layer spans sit in."""
        self.rid = rid
        stack = self._stack()
        span = [name, "op", time.perf_counter(), None, None, rid, None, 0.0]
        self.spans.append(span)
        stack.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            stack.pop()
            self.rid = None

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attr: str, name: str, layer: str, note=None,
               leaf=False, **options) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrap = self.wrap_leaf if leaf else self.wrap
        if isinstance(raw, classmethod):
            patched = classmethod(wrap(name, layer, raw.__func__, note, **options))
        else:
            patched = wrap(name, layer, raw, note, **options)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def install(self) -> None:
        """Wrap every traced entry point of every layer."""
        from repro.core import knn
        from repro.core.rknnt import RkNNTProcessor
        from repro.engine import context, continuous, executor, parallel, protocol
        from repro.geometry import kernels
        from repro.index import route_index, rtree, transition_index

        p = self._patch
        p(route_index.RouteIndex, "__init__", "index.RouteIndex", "index")
        p(transition_index.TransitionIndex, "__init__", "index.TransitionIndex", "index")
        p(transition_index.TransitionIndex, "add_transition", "index.add_transition", "index")
        p(transition_index.TransitionIndex, "remove_transition", "index.remove_transition", "index")
        p(rtree.RTree, "insert", "rtree.insert", "index")
        p(rtree.RTree, "remove", "rtree.remove", "index")
        p(rtree.RTreeNode, "recompute_payload_union", "rtree.payload_union", "index", leaf=True)

        p(executor.QueryExecutor, "filter_routes", "executor.filter", "executor")
        p(executor.QueryExecutor, "prune_transitions", "executor.prune", "executor")
        p(executor.QueryExecutor, "verify", "executor.verify", "executor")

        p(kernels, "boxes_halfplane_tensor", "kernels.halfplane", "kernels", leaf=True)
        # Called ~30,000 times per query: the verdict share is sampled.
        p(kernels, "routes_dominate_boxes", "kernels.voronoi", "kernels", leaf=True,
          note=lambda a, kw, r: (_count_true(r), len(r)), note_every=16)
        p(kernels, "count_closer_routes", "kernels.closer", "kernels", leaf=True,
          note=lambda a, kw, r: (len(a[0]) * len(a[2]), 0))

        # The kNN counts, patched where their callers look them up.
        p(executor, "count_routes_within_sq", "knn.count", "knn", leaf=True)
        p(continuous, "closer_route_count", "knn.count", "knn", leaf=True)
        p(knn, "closer_route_count", "knn.count", "knn", leaf=True)

        p(context.ExecutionContext, "route_matrix", "context.route_matrix", "context", leaf=True)

        p(RkNNTProcessor, "watch", "continuous.watch", "continuous",
          note=lambda a, kw, r: self.subscriptions.append(r))
        p(continuous.Subscription, "apply", "continuous.apply", "continuous")

        p(RkNNTProcessor, "from_store", "store.from_store", "store")
        p(parallel.ShardedExecutor, "run", "parallel.run", "parallel")

        def stats_of(results):
            return [sum(getattr(r.stats, f) for r in results) for f in STAT_FIELDS]

        p(RkNNTProcessor, "query_batch", "api.query_batch", "api",
          note=lambda a, kw, r: stats_of(r))
        p(RkNNTProcessor, "query", "api.query", "api", note=lambda a, kw, r: stats_of([r]))
        p(protocol, "decode_request", "protocol.decode", "protocol", note=lambda a, kw, r: r.id)
        p(protocol, "encode_line", "protocol.encode", "protocol")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- output ---------------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """Spans (parents as list indexes), leaf totals and watch statistics."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        spans = [
            [s[NAME], s[LAYER], s[START], s[END],
             None if s[PARENT] is None else index[id(s[PARENT])], s[RID], s[INFO], s[LEAF]]
            for s in self.spans
            if s[END] is not None
        ]
        return {"spans": spans, "leaves": self.leaves,
                "verified_share": verified_share(self.subscriptions)}


def verified_share(subscriptions: Iterable[Any]) -> float:
    """Share of inserted endpoints that needed exact verification."""
    filtered = verified = 0
    for subscription in subscriptions:
        filtered += subscription.delta_stats.endpoints_filtered
        verified += subscription.delta_stats.endpoints_verified
    return _ratio(verified, filtered + verified)


def _count_true(verdicts) -> int:
    if isinstance(verdicts, list):
        return sum(map(bool, verdicts))
    return int(verdicts.sum()) if numpy is None else int(numpy.count_nonzero(verdicts))


# ----------------------------------------------------------------------
# Turning spans into per-layer metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus its nested spans and leaves of other layers."""
    children: List[List[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    result = []
    for span, kids in zip(spans, children):
        covered = span[LEAF]
        pending = list(kids)
        while pending:
            c = pending.pop()
            child = spans[c]
            if child[LAYER] != span[LAYER]:
                covered += child[END] - child[START]
            else:
                covered += child[LEAF]
                pending.extend(children[c])
        result.append(span[END] - span[START] - covered)
    return result


def _merged(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def uncovered_share(op_intervals: List[Tuple[float, float]], spans: List[list]) -> float:
    """Share of the operations' wall time that no layer span covers."""
    ops = _merged(op_intervals)
    layers = _merged((s[START], s[END]) for s in spans if s[LAYER] not in NOT_A_LAYER)
    op_time = sum(b - a for a, b in ops)
    covered, i, j = 0.0, 0, 0
    while i < len(ops) and j < len(layers):
        low = max(ops[i][0], layers[j][0])
        high = min(ops[i][1], layers[j][1])
        if low < high:
            covered += high - low
        if ops[i][1] < layers[j][1]:
            i += 1
        else:
            j += 1
    return max(0.0, 1.0 - covered / op_time) if op_time > 0 else 0.0


def layer_metrics(trace: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from one process's export (see :meth:`Tracer.export`)."""
    spans, leaves = trace["spans"], trace["leaves"]
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def pick(name: str) -> List[int]:
        return by_name.get(name, [])

    def inside(i: int, name: str) -> bool:
        parent = spans[i][PARENT]
        while parent is not None:
            if spans[parent][NAME] == name:
                return True
            parent = spans[parent][PARENT]
        return False

    def total(ids: Iterable[int], times: Optional[List[float]] = None) -> float:
        return sum(times[i] if times else spans[i][END] - spans[i][START] for i in ids)

    def leaf(name: str) -> list:
        return leaves.get(name, [0, 0.0, 0, 0])

    metrics: Dict[str, Tuple[float, str]] = {}
    metrics["index.build_s"] = (
        total(pick("index.RouteIndex") + pick("index.TransitionIndex")), "s")
    inserts = [own[i] * 1000 for i in pick("index.add_transition")]
    removes = [own[i] * 1000 for i in pick("index.remove_transition")]
    metrics["index.tr_insert_ms_p50"] = (statistics.median(inserts) if inserts else 0.0, "ms")
    metrics["index.tr_remove_ms_p50"] = (statistics.median(removes) if removes else 0.0, "ms")
    metrics["index.tr_remove_ms_max"] = (max(removes, default=0.0), "ms")
    metrics["rtree.payload_union_s"] = (leaf("rtree.payload_union")[1], "s")
    metrics["rtree.condense_reinserts"] = (
        float(sum(1 for i in pick("rtree.insert") if inside(i, "rtree.remove"))), "count")

    for stage in ("filter", "prune", "verify"):
        metrics[f"executor.{stage}_s"] = (total(pick(f"executor.{stage}"), own), "s")
    counters = [0] * len(STAT_FIELDS)
    for i in pick("api.query_batch") + pick("api.query"):
        for j, value in enumerate(spans[i][INFO] or ()):
            counters[j] += value
    for field, value in zip(STAT_FIELDS, counters):
        metrics[f"executor.{field}"] = (float(value), "count")
    metrics["executor.confirmed_share"] = (
        _ratio(counters[STAT_FIELDS.index("confirmed_points")],
               counters[STAT_FIELDS.index("candidates")]), "share")

    for kernel in ("halfplane", "voronoi", "closer"):
        calls, seconds = leaf(f"kernels.{kernel}")[:2]
        metrics[f"kernels.{kernel}_calls"] = (float(calls), "count")
        metrics[f"kernels.{kernel}_s"] = (seconds, "s")
    _, _, decided, verdicts = leaf("kernels.voronoi")
    metrics["kernels.voronoi_decided_share"] = (_ratio(decided, verdicts), "share")
    pairs = leaf("kernels.closer")[2]
    metrics["kernels.closer_pairs"] = (float(pairs), "count")
    # dx, dy and d2: three float64 (P, N) temporaries per pair block.
    metrics["kernels.closer_bytes"] = (float(24 * pairs), "bytes")

    calls, seconds = leaf("knn.count")[:2]
    metrics["knn.count_calls"] = (float(calls), "count")
    metrics["knn.count_s"] = (seconds, "s")
    metrics["context.route_matrix_s"] = (leaf("context.route_matrix")[1], "s")

    applies = pick("continuous.apply")
    metrics["continuous.watch_s"] = (total(pick("continuous.watch")), "s")
    metrics["continuous.apply_calls"] = (float(len(applies)), "count")
    metrics["continuous.apply_s"] = (total(applies), "s")
    metrics["continuous.verified_share"] = (trace["verified_share"], "share")

    metrics["store.attach_s"] = (total(pick("store.from_store")), "s")
    metrics["parallel.run_s"] = (total(pick("parallel.run")), "s")
    metrics["protocol.decode_s"] = (total(pick("protocol.decode")), "s")
    metrics["protocol.encode_s"] = (total(pick("protocol.encode")), "s")
    return metrics
