"""The ``serve`` workload: the TCP server, driven open loop over a rate ladder.

The server runs as a subprocess (``repro.cli server --store``, or
``serve_traced.py`` for a traced pass) on a store file packed while the
inputs are generated.  One asyncio generator drives two connections with
seeded Poisson arrivals: 80 % queries, 20 % writes alternating between
inserting a new transition and expiring the oldest base one.  Latency is
timed from each operation's *scheduled* send time, so a stall also
charges the operations queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import RkNNTProcessor
from repro.engine import store as store_module

from inputs import K, QueryStream, fresh_transitions, make_dataset, poisson_schedule, sub_seed
from workloads import Pass, check_answer

HERE = Path(__file__).resolve().parent

SERVE_SCALE = 1
WORKERS = 1
CONNECTIONS = 2
WATCHES = 2
#: The ladder: offered rate (ops/s) and share of the measured window of
#: each step.  The first is the reference step.
LADDER = ((4.0, 0.5), (8.0, 0.1), (16.0, 0.1), (32.0, 0.1))
#: The gated latencies come from queries and writes sent one at a time,
#: shared out over the boots: the serving path without queueing.  The
#: ladder's open-loop latencies swing with how arrivals bunch and how
#: busy the host is (the reference-step median ranged 58-115 ms over ten
#: seeds), so they are printed, not gated.
QUERY_PROBES = 100
WRITE_PROBES = 150
#: Query routes per stratified round; each boot draws its own rounds.
QUERY_ROUND = 32
QUERY_SHARE = 0.8
#: A step meets the limit when its query p90 is at most this.
LATENCY_LIMIT_MS = 500.0
#: A step is stopped, and fails, once more than this many seconds of
#: offered load are waiting for replies: long enough to ride out one
#: slow update, short enough to catch a queue that keeps growing.
BACKLOG_SECONDS = 5.0
#: A run whose generator sent any operation later than this is invalid.
LATE_LIMIT_MS = 100.0
PROBES = 3
STARTUP_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0


class Client:
    """Newline-JSON connections to one server, with replies matched by id."""

    def __init__(self) -> None:
        self.writers: List[asyncio.StreamWriter] = []
        self.pending: Dict[int, Tuple[asyncio.Future, float]] = {}
        self.events = 0
        self._ids = 0
        self._readers: List[asyncio.Task] = []

    async def connect(self, host: str, port: int, count: int) -> None:
        for _ in range(count):
            reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
            self.writers.append(writer)
            self._readers.append(asyncio.ensure_future(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            message = json.loads(line)
            if "event" in message:
                self.events += 1
                continue
            future, _ = self.pending.pop(message["id"])
            if not future.done():
                future.set_result((message, now))

    def send(self, connection: int, request: dict) -> asyncio.Future:
        """Send without waiting; the future resolves to ``(reply, time)``."""
        self._ids += 1
        request = dict(request, id=self._ids)
        future = asyncio.get_running_loop().create_future()
        self.pending[self._ids] = (future, time.perf_counter())
        self.writers[connection].write((json.dumps(request) + "\n").encode("utf-8"))
        return future

    async def call(self, connection: int, request: dict) -> dict:
        reply, _ = await asyncio.wait_for(self.send(connection, request), REPLY_TIMEOUT_S)
        return reply

    async def close(self) -> None:
        for writer in self.writers:
            writer.close()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int
    spans_path: Optional[str] = None
    client: Client = field(default_factory=Client)


def _points(query) -> list:
    return [[x, y] for x, y in query]


def _transition_request(transition) -> dict:
    return {
        "op": "insert",
        "transition": {
            "id": transition.transition_id,
            "origin": list(transition.origin),
            "destination": list(transition.destination),
        },
    }


def _start(store_path: str, workdir: str, traced: bool, src: str) -> Server:
    args = ["server", "--store", store_path, "--workers", str(WORKERS), "--k", str(K)]
    spans_path = None
    if traced:
        spans_path = os.path.join(workdir, "spans.json")
        command = [sys.executable, str(HERE / "serve_traced.py"), spans_path] + args
    else:
        command = [sys.executable, "-m", "repro.cli"] + args
    env = dict(os.environ, PYTHONPATH=src)
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True
    )
    ready, _, _ = select.select([process.stdout], [], [], STARTUP_TIMEOUT_S)
    line = process.stdout.readline() if ready else ""
    if not line.startswith("serving RkNNT on "):
        process.kill()
        process.wait()
        raise RuntimeError(f"server did not start: {line!r}")
    host, port = line.split()[3].rsplit(":", 1)
    return Server(process, host, int(port), spans_path)


def _process_tree(pid: int) -> List[int]:
    """``pid`` and its descendants (Linux /proc)."""
    tree, pending = [], [pid]
    while pending:
        current = pending.pop()
        tree.append(current)
        try:
            with open(f"/proc/{current}/task/{current}/children", encoding="ascii") as handle:
                pending.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return tree


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _stop(server: Server) -> None:
    """Stop the server, then wait for the pool workers it started to end."""
    workers = _process_tree(server.process.pid)[1:]
    if server.process.poll() is None:
        server.process.send_signal(signal.SIGTERM)
        try:
            server.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.process.kill()
            server.process.wait()
    server.process.stdout.close()
    deadline = time.monotonic() + 10
    for pid in workers:
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _alive(pid):
            os.kill(pid, signal.SIGKILL)


def _tree_peak_rss_mb(pid: int) -> float:
    """Peak RSS of a process plus its descendants (Linux /proc)."""
    total = 0.0
    for current in _process_tree(pid):
        try:
            with open(f"/proc/{current}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            continue
    return total


@dataclass
class Step:
    rate: float
    sent: int = 0
    failed: int = 0
    overloaded: bool = False
    late_ms_max: float = 0.0
    backlog_max: int = 0
    query_ms: List[float] = field(default_factory=list)
    update_ms: List[float] = field(default_factory=list)

    def query_p90_ms(self) -> float:
        if len(self.query_ms) < 2:
            return float("inf")
        return statistics.quantiles(self.query_ms, n=10)[-1]

    def passed(self) -> bool:
        return (not self.overloaded and self.failed == 0
                and self.query_p90_ms() <= LATENCY_LIMIT_MS)


class _Stream:
    """The workload's seeded operation sequence and the live transition set.

    Every boot's warm-up inserts the first fresh transition and expires
    base transition 0, so the measured stream starts after both.
    """

    def __init__(self, routes, base, seed: int) -> None:
        self.live = {t.transition_id: t for t in base}
        self.inserts = fresh_transitions(routes, seed, start_id=len(base))
        self.queries = QueryStream(routes, sub_seed(seed, "queries"), QUERY_ROUND)
        self.kinds = random.Random(sub_seed(seed, "mix"))
        self.warm_insert = next(self.inserts)
        self.warm_expire = 0
        self.live[self.warm_insert.transition_id] = self.warm_insert
        self.live.pop(self.warm_expire)
        self.expire_id = 1
        self.writes = 0
        self._round: List[list] = []

    def query(self) -> list:
        if not self._round:
            self._round = self.queries.next_round()
        return self._round.pop()

    def next_write(self):
        """The next write request and how to apply it to ``live`` on success."""
        self.writes += 1
        if self.writes % 2:
            transition = next(self.inserts)
            return _transition_request(transition), lambda: self.live.__setitem__(
                transition.transition_id, transition)
        expired = self.expire_id
        self.expire_id += 1
        return {"op": "delete", "transition_id": expired}, lambda: self.live.pop(expired)


async def _boot(store_path, workdir, traced, src, stream: _Stream, watched):
    """Start a server and bring it to ready; returns it and the expiry time."""
    server = _start(store_path, workdir, traced, src)
    client = server.client
    try:
        await client.connect(server.host, server.port, CONNECTIONS)
        for n, query in enumerate(watched):
            _require_ok(await client.call(
                n % CONNECTIONS, {"op": "watch", "points": _points(query), "k": K}))
        _require_ok(await client.call(0, {"op": "query", "points": _points(watched[0]), "k": K}))
        _require_ok(await client.call(0, _transition_request(stream.warm_insert)))
        start = time.perf_counter()
        _require_ok(await client.call(0, {"op": "delete", "transition_id": stream.warm_expire}))
    except BaseException:
        await client.close()
        _stop(server)
        raise
    return server, time.perf_counter() - start


def _require_ok(reply: dict) -> None:
    if not reply.get("ok"):
        raise RuntimeError(f"server refused a set-up request: {reply}")


async def _run_step(client: Client, stream: _Stream, step: Step, duration: float,
                    seed: int, outcomes: list) -> None:
    offsets = poisson_schedule(step.rate, duration, seed)
    backlog_limit = max(10, int(step.rate * BACKLOG_SECONDS))
    in_flight: List[asyncio.Future] = []
    start = time.perf_counter()
    for n, offset in enumerate(offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        backlog = sum(1 for f in in_flight if not f.done())
        step.backlog_max = max(step.backlog_max, backlog)
        if backlog > backlog_limit:
            step.overloaded = True
            break
        step.late_ms_max = max(step.late_ms_max, (time.perf_counter() - due) * 1000.0)
        if stream.kinds.random() < QUERY_SHARE:
            query = stream.query()
            future = client.send(n % CONNECTIONS, {"op": "query", "points": _points(query), "k": K})
            kind, apply = "query", None
        else:
            request, apply = stream.next_write()
            future = client.send(n % CONNECTIONS, request)
            kind = "update"
        step.sent += 1
        in_flight.append(future)
        outcomes.append((step, kind, due, future, apply))
    if in_flight:
        await asyncio.wait(in_flight, timeout=REPLY_TIMEOUT_S)


def _settle(outcomes: list, op_intervals: list) -> None:
    """Record each operation's outcome and latency from its due time."""
    for step, kind, due, future, apply in outcomes:
        if not future.done():
            step.failed += 1
            continue
        reply, received = future.result()
        if not reply.get("ok"):
            step.failed += 1
            continue
        if apply is not None:
            apply()
        latency = (received - due) * 1000.0
        (step.query_ms if kind == "query" else step.update_ms).append(latency)
        op_intervals.append((due, received))


async def _probes(client: Client, stream: _Stream, queries: int, writes: int,
                  result: Pass) -> None:
    """Send queries, then writes, one at a time, timing each round trip."""
    for n in range(queries + writes):
        if n < queries:
            request = {"op": "query", "points": _points(stream.query()), "k": K}
            apply, latencies = None, result.query_ms
        else:
            (request, apply), latencies = stream.next_write(), result.update_ms
        start = time.perf_counter()
        reply = await client.call(0, request)
        end = time.perf_counter()
        result.attempted += 1
        if reply.get("ok"):
            if apply is not None:
                apply()
            latencies.append((end - start) * 1000.0)
            result.op_intervals.append((start, end))
        else:
            result.failed += 1


async def _serve_pass(seed: int, seconds: float, setups: int, traced: bool,
                      src: str, workdir: str) -> Tuple[Pass, Optional[str]]:
    """One pass over ``setups`` server boots.

    Latency depends on the server process as well as the load: the same
    writes ran at 4-5 ms median on one boot and 6-9 ms on the next.  So
    every boot, after its timed set-up, takes an equal share of the
    reference step and of the probes, each with its own op stream; the
    last boot also climbs the rest of the ladder.
    """
    routes, base = make_dataset("la", SERVE_SCALE, seed)
    store_path = os.path.join(workdir, "city.store")
    packer = RkNNTProcessor(routes, base)
    store_module.save_indexes(store_path, packer.route_index, packer.transition_index)
    del packer
    watch_stream = QueryStream(routes, sub_seed(seed, "watches"), WATCHES)
    result = Pass(sizes={
        "scale": SERVE_SCALE, "routes": len(routes), "transitions": len(base),
        "workers": WORKERS, "connections": CONNECTIONS, "watches": WATCHES,
        "boots": setups, "query_probes": QUERY_PROBES, "write_probes": WRITE_PROBES,
    })
    (reference_rate, reference_share), higher = LADDER[0], LADDER[1:]
    reference = Step(reference_rate)
    steps = [reference]
    expiries = []
    window = [None, None]
    for boot in range(setups):
        stream = _Stream(routes, base, sub_seed(seed, f"boot{boot}"))
        start = time.perf_counter()
        server, first_expiry = await _boot(
            store_path, workdir, traced, src, stream, watch_stream.next_round())
        result.setup_s.append(time.perf_counter() - start)
        expiries.append(first_expiry)
        client = server.client
        try:
            outcomes: list = []
            window[0] = window[0] or time.perf_counter()
            await _run_step(client, stream, reference, seconds * reference_share / setups,
                            sub_seed(seed, f"reference{boot}"), outcomes)
            if boot == setups - 1 and not reference.overloaded:
                for n, (rate, share) in enumerate(higher):
                    step = Step(rate)
                    steps.append(step)
                    await _run_step(client, stream, step, seconds * share,
                                    sub_seed(seed, f"step{n}"), outcomes)
                    if step.overloaded:
                        break
            window[1] = time.perf_counter()
            _settle(outcomes, result.op_intervals)
            await _probes(client, stream, QUERY_PROBES // setups, WRITE_PROBES // setups, result)
            if boot == setups - 1:
                probes = [stream.query() for _ in range(PROBES)]
                answers = [await client.call(0, {"op": "query", "points": _points(q), "k": K})
                           for q in probes]
                stats = (await client.call(0, {"op": "stats"}))["stats"]
                result.peak_rss_mb = _tree_peak_rss_mb(server.process.pid)
        finally:
            await client.close()
            _stop(server)

    result.attempted += sum(s.sent for s in steps) + len(probes)
    result.failed += sum(s.failed for s in steps)
    for n, (query, reply) in enumerate(zip(probes, answers)):
        if not reply.get("ok"):
            result.failed += 1
        elif not check_answer(routes, stream.live, query, reply["result"]["transitions"],
                              sub_seed(seed, f"probe{n}")):
            result.mismatches += 1

    max_rate = 0.0
    for s in steps:
        if not s.passed():
            break
        max_rate = s.rate
    result.extra["max_rate_ops"] = (max_rate, "ops/s")
    result.extra["reference_query_p50_ms"] = (statistics.median(reference.query_ms), "ms")
    result.extra["reference_query_p90_ms"] = (reference.query_p90_ms(), "ms")
    result.extra["reference_queries"] = (float(len(reference.query_ms)), "count")
    result.extra["reference_update_p50_ms"] = (
        statistics.median(reference.update_ms) if reference.update_ms else 0.0, "ms")
    result.extra["loadgen_late_ms_max"] = (max(s.late_ms_max for s in steps), "ms")
    for s in steps:
        result.extra[f"step{s.rate:g}.query_p90_ms"] = (s.query_p90_ms(), "ms")
        result.extra[f"step{s.rate:g}.backlog_max"] = (float(s.backlog_max), "count")
    result.sizes.update(ladder_steps_run=len(steps),
                        steps_passed=sum(1 for s in steps if s.passed()))
    result.valid = reference.late_ms_max <= LATE_LIMIT_MS

    result.layers.update({
        "store.first_expiry_s": (statistics.median(expiries), "s"),
        "parallel.pools_spawned": (float(stats["pools_spawned"]), "count"),
        "parallel.store_seeds": (float(stats["store_seeds"]), "count"),
        "parallel.last_seed_nbytes": (float(stats["last_seed_nbytes"]), "bytes"),
        "server.batches": (float(stats["batches"]), "count"),
        "server.coalesced_mean": (stats["queries"] / stats["batches"] if stats["batches"] else 0.0, "count"),
        "loadgen.late_ms_max": (max(s.late_ms_max for s in steps), "ms"),
        "loadgen.backlog_max": (float(max(s.backlog_max for s in steps)), "count"),
    })
    result.window = tuple(window)
    return result, server.spans_path if traced else None


def run_serve(seed: int, seconds: float, setups: int, traced: bool, src: str,
              work_root: str) -> Tuple[Pass, Optional[list]]:
    """One pass of ``serve``; with ``traced`` also the server's span dump."""
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=work_root)
    try:
        result, spans_path = asyncio.run(
            _serve_pass(seed, seconds, setups, traced, src, workdir))
        dump = None
        if spans_path is not None:
            with open(spans_path, encoding="utf-8") as handle:
                dump = json.load(handle)
        return result, dump
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
