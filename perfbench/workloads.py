"""The in-process ``churn`` workload and what the workloads share.

A workload function runs one pass: it builds its seeded inputs, sets
up (several times when asked, keeping the last), measures for the given
number of seconds, then checks every answer against the brute-force
oracle outside the timed region.  It returns a :class:`Pass`.
"""

from __future__ import annotations

import gc
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import RkNNTProcessor, TransitionDataset, rknnt_bruteforce

from inputs import (
    K,
    QueryStream,
    fresh_transitions,
    make_dataset,
    oracle_sample,
    sub_seed,
)

#: Transitions sampled per oracle check.
ORACLE_SAMPLE = 24


@dataclass
class Pass:
    """What one pass of a workload measured."""

    setup_s: List[float] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)
    update_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    peak_rss_mb: float = 0.0
    #: Wall interval of every measured operation (for trace coverage).
    op_intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: Workload-specific figures printed beside the gated metrics.
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Workload and dataset sizes, for the result stamp.
    sizes: Dict[str, int] = field(default_factory=dict)
    #: Layer metrics a workload gathers itself (store, server, loadgen).
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: False when the load generator itself fell behind its schedule.
    valid: bool = True
    #: perf_counter bounds of the measured window.
    window: Tuple[float, float] = (0.0, 0.0)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def agrees(routes, sample, query, answer) -> bool:
    """Does ``answer`` agree with the oracle on the transitions of ``sample``?"""
    expected = rknnt_bruteforce(routes, TransitionDataset(sample), query, K)
    sampled = {t.transition_id for t in sample}
    return set(expected.transition_ids) == sampled.intersection(answer)


def check_answer(routes, live, query, answer, seed: int) -> bool:
    """Does ``answer`` agree with the oracle on a seeded sample of ``live``?"""
    return agrees(routes, oracle_sample(live, query, answer, seed, ORACLE_SAMPLE), query, answer)


class _Ops:
    """Times operations, and records them as op spans when tracing."""

    def __init__(self, result: Pass, tracer) -> None:
        self.result = result
        self.tracer = tracer
        self.count = 0

    def run(self, name: str, fn, *args, **kwargs):
        self.count += 1
        scope = self.tracer.op(name, self.count) if self.tracer else nullcontext()
        self.result.attempted += 1
        with scope:
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            except Exception:
                self.result.failed += 1
                value = None
            end = time.perf_counter()
        self.result.op_intervals.append((start, end))
        return value, (end - start) * 1000.0


def _setup(build, setups: int, result: Pass):
    """Run ``build`` ``setups`` times, timing each; keep the last product."""
    product = None
    for _ in range(setups):
        product = None
        gc.collect()
        start = time.perf_counter()
        product = build()
        result.setup_s.append(time.perf_counter() - start)
    return product


# ----------------------------------------------------------------------
# churn: sliding-window update stream under standing queries, with reads
# ----------------------------------------------------------------------
CHURN_SCALE = 4
CHURN_WATCHES = 4
#: One fresh read every this many insert+expire rounds.
CHURN_READ_EVERY = 3
CHURN_READ_ROUND = 16
#: Every this many reads, one is checked against the oracle.
CHURN_CHECK_EVERY = 6


def run_churn(seed: int, seconds: float, setups: int, tracer=None) -> Pass:
    routes, base = make_dataset("la", CHURN_SCALE, seed)
    # One stratified round covers the watches of all set-ups; each set-up
    # takes its own 4 of the (shuffled) strata, so the median set-up is
    # taken over query sets that together span the whole city.
    watch_round = QueryStream(
        routes, sub_seed(seed, "watches"), CHURN_WATCHES * max(setups, 1)
    ).next_round()
    watched: List[list] = []
    reads = QueryStream(routes, sub_seed(seed, "queries"), CHURN_READ_ROUND)
    inserts = fresh_transitions(routes, seed, start_id=len(base))
    live = {t.transition_id: t for t in base}
    result = Pass(sizes={
        "scale": CHURN_SCALE, "routes": len(routes), "transitions": len(base),
        "watches": CHURN_WATCHES, "read_every_rounds": CHURN_READ_EVERY,
    })

    def build():
        watched[:] = watch_round[:CHURN_WATCHES]
        del watch_round[:CHURN_WATCHES]
        processor = RkNNTProcessor(routes, TransitionDataset(iter(base)))
        return processor, [processor.watch(q, k=K) for q in watched]

    if tracer:
        tracer.install()
    processor, subscriptions = _setup(build, setups, result)
    ops = _Ops(result, tracer)
    pending_reads: List[Tuple[list, frozenset, list]] = []
    read_queue: List[list] = []
    end = time.perf_counter() + seconds
    expire_id = rounds = 0
    while time.perf_counter() < end:
        transition = next(inserts)
        _, ms = ops.run("insert", processor.add_transition, transition)
        result.update_ms.append(ms)
        live[transition.transition_id] = transition
        _, ms = ops.run("expire", processor.remove_transition, expire_id)
        result.update_ms.append(ms)
        live.pop(expire_id)
        expire_id += 1
        rounds += 1
        if rounds % CHURN_READ_EVERY == 0:
            if not read_queue:
                read_queue = reads.next_round()
            query = read_queue.pop()
            answers, ms = ops.run("query", processor.query_batch, [query], k=K)
            if answers is None:
                continue
            result.query_ms.append(ms)
            if len(result.query_ms) % CHURN_CHECK_EVERY == 1:
                # Sampled now, from the transitions live at the read.
                answer = answers[0].transition_ids
                sample = oracle_sample(live, query, answer,
                                       sub_seed(seed, f"oracle{rounds}"), ORACLE_SAMPLE)
                pending_reads.append((query, answer, sample))
    if tracer:
        tracer.uninstall()
    result.peak_rss_mb = self_peak_rss_mb()
    result.sizes.update(rounds=rounds, updates=len(result.update_ms),
                        reads=len(result.query_ms))

    for query, answer, sample in pending_reads:
        if not agrees(routes, sample, query, answer):
            result.mismatches += 1
    # Standing results must equal fresh queries, and the oracle.
    fresh = processor.query_batch(watched, k=K)
    for n, (query, subscription, again) in enumerate(zip(watched, subscriptions, fresh)):
        standing = subscription.result().transition_ids
        if standing != again.transition_ids or not check_answer(
            routes, live, query, standing, sub_seed(seed, f"standing{n}")
        ):
            result.mismatches += 1
    return result
