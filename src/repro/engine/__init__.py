"""The unified query-execution engine.

Every RkNNT evaluation strategy in the paper — basic filter–refine
(Section 4), the Voronoi optimisation (Section 5.1) and divide & conquer
(Section 5.2) — is the same three-stage pipeline with different knobs:

    filter  (build the filtering set from the RR-tree)
      → prune  (discard TR-tree nodes/endpoints dominated by ≥ k routes)
      → verify (exactly check the survivors)

This package factors that pipeline out of the per-method modules:

* :mod:`repro.engine.plan` — :class:`QueryPlan`, the declarative description
  of a strategy (which filter to use, whether to decompose per query point,
  which geometry backend to run on);
* :mod:`repro.engine.context` — :class:`ExecutionContext`, the per-dataset
  caches shared across queries of a workload (flattened route matrices for
  vectorized verification, memoised single-point sub-query answers);
* :mod:`repro.engine.filterset` — the filtering set ``S_filter`` with packed
  array views for the vectorized kernels;
* :mod:`repro.engine.executor` — :class:`QueryExecutor` (the staged
  pipeline), the :func:`execute` entry point and :func:`execute_batch`,
  the serial batch loop (one :func:`execute` call per query);
* :mod:`repro.engine.parallel` — :class:`ShardedExecutor`, which shards
  batch workloads across a process pool with one private context per
  worker and deterministic result re-ordering; reusable as the processor's
  persistent *serving pool* (transition churn is delta-synced into the
  workers, route churn reseeds);
* :mod:`repro.engine.arena` — shared-memory dataset arenas: the flattened
  route matrix and packed R-tree box blocks published once into a
  :mod:`multiprocessing.shared_memory` segment that workers attach
  read-only views of in O(1), instead of rebuilding per worker;
* :mod:`repro.engine.continuous` — :class:`ContinuousRkNNT` and
  :class:`Subscription`, delta-maintained standing queries over the
  transition index's typed mutation stream;
* :mod:`repro.engine.resilience` — the typed failure taxonomy
  (:class:`RkNNTError` and friends), deadlines, bounded backoff retries
  and admission control for the serving runtime;
* :mod:`repro.engine.faults` — deterministic fault injection: named
  injection points threaded through the serving stack, driven by the
  ``RKNNT_FAULTS`` spec so every chaos run reproduces.

The geometry kernels themselves live in :mod:`repro.geometry.kernels`; the
engine is backend-agnostic and produces element-wise identical answers on
the numpy and pure-Python backends.
"""

from repro.engine.arena import ArenaHandle, DatasetArena, publish_arena
from repro.engine.context import ExecutionContext
from repro.engine.continuous import (
    ContinuousRkNNT,
    DeltaStatistics,
    ResultDelta,
    Subscription,
)
from repro.engine.executor import QueryExecutor, execute, execute_batch
from repro.engine.filterset import FilterSet
from repro.engine.parallel import ShardedExecutor
from repro.engine.resilience import (
    ArenaAttachError,
    Deadline,
    DeadlineExceeded,
    PoolSaturated,
    ReseedError,
    RkNNTError,
    SyncLogError,
    UpdateStreamError,
    WorkerCrashError,
)
from repro.engine.plan import (
    DIVIDE_CONQUER,
    FILTER_REFINE,
    METHODS,
    QueryPlan,
    VORONOI,
)

__all__ = [
    "ArenaAttachError",
    "ArenaHandle",
    "ContinuousRkNNT",
    "DIVIDE_CONQUER",
    "DatasetArena",
    "Deadline",
    "DeadlineExceeded",
    "publish_arena",
    "DeltaStatistics",
    "ExecutionContext",
    "FILTER_REFINE",
    "FilterSet",
    "METHODS",
    "PoolSaturated",
    "QueryExecutor",
    "QueryPlan",
    "ReseedError",
    "ResultDelta",
    "RkNNTError",
    "ShardedExecutor",
    "Subscription",
    "SyncLogError",
    "UpdateStreamError",
    "VORONOI",
    "WorkerCrashError",
    "execute",
    "execute_batch",
]
