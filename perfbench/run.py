#!/usr/bin/env python3
"""The repository benchmark: seeded ``churn`` and ``serve`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the same inputs twice, untraced and then traced, for
half the time each, and reports the per-layer metrics of the traced pass
with the tracing overhead between the two.  Each run checks the program's
answers against the brute-force oracle and exits non-zero on a mismatch.
The last line of standard output is one JSON object; the lines before it
print every metric by name with its unit, and ``perfbench/results/`` keeps
a stamped copy of each result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import platform
import signal
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("churn", "serve")

#: Gated metrics of the untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("query_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: Metrics of the traced run: (name, unit).  A layer a workload never
#: reaches reports 0.
PER_LAYER = (
    ("index.build_s", "s"),
    ("index.tr_insert_ms_p50", "ms"),
    ("index.tr_remove_ms_p50", "ms"),
    ("index.tr_remove_ms_max", "ms"),
    ("rtree.payload_union_s", "s"),
    ("rtree.condense_reinserts", "count"),
    ("executor.filter_s", "s"),
    ("executor.prune_s", "s"),
    ("executor.verify_s", "s"),
    ("executor.route_nodes_visited", "count"),
    ("executor.transition_nodes_visited", "count"),
    ("executor.nodes_pruned", "count"),
    ("executor.filter_points", "count"),
    ("executor.candidates", "count"),
    ("executor.confirmed_points", "count"),
    ("executor.confirmed_share", "share"),
    ("kernels.halfplane_calls", "count"),
    ("kernels.halfplane_s", "s"),
    ("kernels.voronoi_calls", "count"),
    ("kernels.voronoi_s", "s"),
    ("kernels.voronoi_decided_share", "share"),
    ("kernels.closer_calls", "count"),
    ("kernels.closer_s", "s"),
    ("kernels.closer_pairs", "count"),
    ("kernels.closer_bytes", "bytes"),
    ("knn.count_calls", "count"),
    ("knn.count_s", "s"),
    ("context.route_matrix_s", "s"),
    ("continuous.watch_s", "s"),
    ("continuous.apply_calls", "count"),
    ("continuous.apply_s", "s"),
    ("continuous.verified_share", "share"),
    ("store.attach_s", "s"),
    ("store.first_expiry_s", "s"),
    ("parallel.run_s", "s"),
    ("parallel.pools_spawned", "count"),
    ("parallel.store_seeds", "count"),
    ("parallel.last_seed_nbytes", "bytes"),
    ("server.batches", "count"),
    ("server.coalesced_mean", "count"),
    ("server.flush_s", "s"),
    ("server.busy_share", "share"),
    ("protocol.decode_s", "s"),
    ("protocol.encode_s", "s"),
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_share", "share"),
    ("trace.uncovered_share", "share"),
)

#: Set-ups per untraced run; ``setup_s`` is their median.  Each ``serve``
#: set-up boots a server process that then carries a share of the
#: measurement, and latency varies from one server process to the next,
#: so ``serve`` boots more of them.
SETUPS = {"churn": 3, "serve": 5}


def percentile_line(name: str, values: List[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    if not values:
        return f"{name}: no samples"
    parts = [f"p50={statistics.median(values):.3f} ms"]
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[q - 1]
            parts.append(f"p{q}={cut:.3f} ms")
            break
    return f"{name}: {' '.join(parts)} (n={len(values)})"


def stamp(workload: str, seed: int, passes) -> Dict[str, object]:
    """Where and on what a result was taken."""
    import numpy

    from repro.core.rknnt import RkNNTProcessor
    from repro.engine.parallel import available_cpu_count
    from repro.engine.server import RkNNTServer
    from repro.geometry.kernels import resolve_backend

    def defaults(fn) -> Dict[str, str]:
        params = inspect.signature(fn).parameters
        return {
            "method": params["method"].default,
            "backend": resolve_backend(params["backend"].default),
        }

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "cpus": available_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sizes": passes[0].sizes,
        "defaults": {
            "query": defaults(RkNNTProcessor.query),
            "query_batch": defaults(RkNNTProcessor.query_batch),
            "watch": defaults(RkNNTProcessor.watch),
            "server": defaults(RkNNTServer.__init__),
        },
    }


def end_to_end(result) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(result.setup_s),
        # The mean: the query routes are a stratified sample, and the mean
        # of each round is what stratification steadies.
        "query_ms": statistics.fmean(result.query_ms),
        "update_p50_ms": statistics.median(result.update_ms),
        "peak_rss_mb": result.peak_rss_mb,
    }


def overhead_share(plains, traced) -> float:
    """Traced pass's op time against the untraced passes', by op kind.

    The passes replay the same seeded op sequence, so each kind compares
    its first ``n`` ops across passes; the untraced passes run before and
    after the traced one, so a drift of the host between passes cancels.
    """
    weighted = weight = 0.0
    for kind in ("query_ms", "update_ms"):
        series = [getattr(p, kind) for p in plains] + [getattr(traced, kind)]
        n = min(len(s) for s in series)
        if n == 0:
            continue
        base = statistics.fmean(statistics.fmean(s[:n]) for s in series[:-1])
        ratio = statistics.fmean(series[-1][:n]) / base
        weighted += base * n * (ratio - 1.0)
        weight += base * n
    return weighted / weight if weight else 0.0


def run_pass(workload: str, seed: int, seconds: float, setups: int, tracer):
    """One pass; returns the Pass and (for serve) the server's trace dump."""
    if workload == "serve":
        from serve import run_serve

        return run_serve(seed, seconds, setups, tracer is not None, str(SRC),
                         str(HERE / ".work"))
    from workloads import run_churn

    return run_churn(seed, seconds, setups, tracer), None


def per_layer(workload: str, seed: int, seconds: float) -> Tuple[dict, list]:
    """Untraced, traced and untraced passes on the same inputs, a third of
    the time each; per-layer metrics come from the traced pass."""
    from tracing import Tracer, layer_metrics, uncovered_share

    before, _ = run_pass(workload, seed, seconds / 3, 1, None)
    tracer = Tracer()
    traced, dump = run_pass(workload, seed, seconds / 3, 1, tracer)
    after, _ = run_pass(workload, seed, seconds / 3, 1, None)
    trace = dump if dump is not None else tracer.export()
    metrics = {name: (0.0, unit) for name, unit in PER_LAYER}
    metrics.update(layer_metrics(trace))
    metrics.update(traced.layers)
    if workload == "serve":
        start, end = traced.window
        flush = sum(
            max(0.0, min(s[3], end) - max(s[2], start))
            for s in trace["spans"] if s[0] == "api.query_batch"
        )
        metrics["server.flush_s"] = (flush, "s")
        metrics["server.busy_share"] = (flush / (end - start), "share")
    metrics["trace.overhead_share"] = (overhead_share([before, after], traced), "share")
    metrics["trace.uncovered_share"] = (
        uncovered_share(traced.op_intervals, trace["spans"]), "share")
    return {name: metrics[name] for name, _ in PER_LAYER}, [before, after, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Unwind on SIGTERM too, so a stopped run still stops its servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.trace:
        metrics, passes = per_layer(args.workload, args.seed, args.seconds)
    else:
        result, _ = run_pass(args.workload, args.seed, args.seconds, SETUPS[args.workload], None)
        passes = [result]
        units = dict(END_TO_END)
        metrics = {name: (value, units[name]) for name, value in end_to_end(result).items()}

    main_pass = passes[-1]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed + p.mismatches for p in passes)
    correct = all(p.mismatches == 0 for p in passes)
    valid = all(p.valid for p in passes)
    record = {
        "stamp": stamp(args.workload, args.seed, passes),
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in main_pass.extra.items()},
        "failed_ratio": failed / attempted if attempted else 0.0,
        "valid": valid,
    }
    print(json.dumps(record["stamp"], sort_keys=True))
    for name, (value, unit) in list(metrics.items()) + list(main_pass.extra.items()):
        print(f"{name}: {value:.6g} {unit}")
    print(percentile_line("query latency", main_pass.query_ms))
    print(percentile_line("update latency", main_pass.update_ms))
    print(f"failed_ratio: {record['failed_ratio']:.6g} share "
          f"({failed} of {attempted} ops; {sum(p.mismatches for p in passes)} oracle mismatches)")
    if not valid:
        print("invalid run: the load generator fell behind its schedule")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": correct and valid,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct and valid else 1


if __name__ == "__main__":
    sys.exit(main())
