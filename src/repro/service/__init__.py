"""Sharded streaming solve service.

The traffic-serving layer above :mod:`repro.engine`, in pieces each
usable alone:

* :mod:`repro.service.kinds` — the traffic classes, one table entry
  each: how a submission is admitted and keyed, the solver fields its
  flush adds, the batched-engine call, and the result arrays.  The
  pieces below read the entry of a request's kind instead of
  branching on it.
* :mod:`repro.service.pool` — :class:`ShardedExecutor` fans ensemble
  work units (and oversized batches) out across spawn-safe worker
  processes with per-worker schedule-cache warm-up and a deterministic
  merge; :func:`run_ensemble_sharded` / :func:`run_svd_ensemble_sharded`
  are the sharded forms of :func:`repro.engine.run_ensemble` /
  :func:`repro.engine.run_svd_ensemble` (reachable as
  ``run_ensemble(workers=N)`` / ``run_svd_ensemble(workers=N)``), one
  plan/map/merge core over :class:`ShardTask` units of either class;
  :func:`solve_batch_remote` is the one worker entry of service
  flushes.
* :mod:`repro.service.batcher` — :class:`MicroBatcher` groups streaming
  submissions by key and releases micro-batches by size, deadline,
  idle solver or drain.
* :mod:`repro.service.admission` — :class:`AdmissionGate` bounds the
  service backlog: a ``max_queue`` limit over queued plus in-flight
  items, enforced at submit time under one of three overload policies
  (synchronous rejection, blocking-with-timeout admission, or
  deadline-based shedding).
* :mod:`repro.service.transport` — the pluggable batch data plane:
  :class:`PickleTransport` ships flush payloads through the pool's
  pickle pipe (the default), :class:`SharedMemoryTransport` places each
  flush in a reusable shared-memory segment that workers read and write
  in place — zero pickled array bytes — selected per service via
  ``JacobiService(transport=...)``.
* :mod:`repro.service.tracing` — :class:`Tracer`, the bounded,
  lock-safe per-request event recorder the other pieces emit lifecycle
  events into when the service is built with ``trace=True``;
  :meth:`JacobiService.trace` exports the recorded
  :class:`~repro.analysis.events.EventTimeline`.
* :mod:`repro.service.api` — :class:`JacobiService`, the facade serving
  two traffic classes: ``submit(A) -> Future[SolveResult]`` for
  symmetric eigenproblems and ``submit(A, kind="svd") ->
  Future[SvdResult]`` for tall/square thin SVDs, with separate eigen/SVD
  micro-batches, work-conserving dispatch (a free solver slot takes
  the oldest queued group at once; ``max_delay`` bounds the wait only
  while every slot is busy), ``solve_many``, queue/throughput stats per
  kind, and bounded admission (``max_queue`` / ``admission`` /
  ``default_deadline``).
* :mod:`repro.service.tenancy` / :mod:`repro.service.gateway` — the
  multi-tenant control plane: :class:`AsyncGateway` fronts one shared
  service for many tenants with per-tenant :class:`TokenBucket`
  quotas, weighted :data:`PRIORITY_CLASSES` headroom over the
  admission bound, deterministic scoped configuration
  (:class:`GatewayConfig`: request > tenant > global), per-tenant
  ledgers (:meth:`AsyncGateway.stats`) and ``tenant=``-stamped trace
  events.

Results are bit-identical to the in-process engines — and through them
to the sequential per-matrix solvers (``ParallelOneSidedJacobi`` for
eigen traffic, ``onesided_svd`` for SVD traffic) — for every worker
count, shard size and batching schedule.  Parallelism here is purely a
throughput knob, never an accuracy trade.
"""

from ..errors import AdmissionError, QueueFull, QuotaExceeded, ShedError
from .admission import ADMISSION_POLICIES, AdmissionDecision, AdmissionGate
from .api import KINDS, JacobiService, ServiceStats, SolveResult, SvdResult
from .batcher import FlushEvent, MicroBatcher
from .gateway import AsyncGateway, GatewayStats, TenantStats
from .tenancy import (
    GLOBAL_DEFAULTS,
    PRIORITY_CLASSES,
    GatewayConfig,
    ResolvedTenantConfig,
    TokenBucket,
)
from .tracing import (
    DEFAULT_TRACE_CAPACITY,
    NULL_TRACER,
    NullTracer,
    Tracer,
    resolve_tracer,
)
from .transport import (
    TRANSPORTS,
    PickleTransport,
    SharedMemoryTransport,
    Transport,
    TransportStats,
    resolve_transport,
)
from .pool import (
    ExecutorStats,
    ShardTask,
    ShardedExecutor,
    default_worker_count,
    plan_shards,
    run_ensemble_sharded,
    run_svd_ensemble_sharded,
    solve_batch_remote,
    solve_ensemble_shard,
)

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionDecision",
    "AdmissionError",
    "AdmissionGate",
    "QueueFull",
    "QuotaExceeded",
    "ShedError",
    "KINDS",
    "JacobiService",
    "ServiceStats",
    "SolveResult",
    "SvdResult",
    "FlushEvent",
    "MicroBatcher",
    "AsyncGateway",
    "GatewayStats",
    "TenantStats",
    "GLOBAL_DEFAULTS",
    "PRIORITY_CLASSES",
    "GatewayConfig",
    "ResolvedTenantConfig",
    "TokenBucket",
    "DEFAULT_TRACE_CAPACITY",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "resolve_tracer",
    "TRANSPORTS",
    "Transport",
    "TransportStats",
    "PickleTransport",
    "SharedMemoryTransport",
    "resolve_transport",
    "ShardTask",
    "ShardedExecutor",
    "ExecutorStats",
    "default_worker_count",
    "plan_shards",
    "run_ensemble_sharded",
    "run_svd_ensemble_sharded",
    "solve_batch_remote",
    "solve_ensemble_shard",
]
