"""The solve-service facade: submit matrices, receive futures.

:class:`JacobiService` is the traffic-serving front of the repo: callers
:meth:`~JacobiService.submit` matrices as they arrive and get back a
:class:`~concurrent.futures.Future` resolving to a per-matrix result.
Two traffic classes share one service, each declared once as an entry
of :data:`~repro.service.kinds.TRAFFIC_CLASSES` (admission, solver
fields, engine call, result arrays) that every step below reads:

* ``kind="eigen"`` (default) — symmetric matrices, resolving to a
  :class:`~repro.service.kinds.SolveResult`, solved by
  :class:`~repro.engine.batched.BatchedOneSidedJacobi` (bit-identical to
  a sequential :class:`~repro.jacobi.parallel.ParallelOneSidedJacobi`
  solve of the same matrix);
* ``kind="svd"`` — tall or square general matrices, resolving to a
  :class:`~repro.jacobi.svd.SvdResult`, solved by
  :class:`~repro.engine.svd.BatchedOneSidedSVD` (bit-identical to
  :func:`~repro.jacobi.svd.onesided_svd` of the same matrix).

Behind the facade,

* a :class:`~repro.service.batcher.MicroBatcher` groups submissions by
  the kind-tagged keys their class's admission returns —
  ``("eigen", m, ordering, d)`` / ``("svd", n, m)`` — so eigen and SVD
  micro-batches flush separately;
* every flush is exactly one batched-engine call through the one
  worker entry :func:`~repro.service.pool.solve_batch_remote` — run
  inline by the dispatcher thread, or fanned out to a
  :class:`~repro.service.pool.ShardedExecutor` worker pool when the
  service was built with ``workers >= 2``;
* dispatch is work-conserving: whenever a solver slot is free and no
  group is full or past ``max_delay``, the dispatcher releases the
  oldest group at once (an ``"idle"`` flush), so ``max_delay`` only
  bounds the wait while every slot is busy and batches form from what
  arrives during a solve;
* per-matrix results are bit-identical to the sequential twin of their
  kind (the engines' contract), so batching and sharding are pure
  throughput knobs.

A convergence miss is service data, not an exception: the future
resolves to a result with ``converged=False``.  Invalid submissions
(complex, non-numeric or non-finite entries, non-symmetric eigen input,
wide SVD input, too small for the cube) are rejected synchronously at
:meth:`~JacobiService.submit` so one bad matrix can never poison a
micro-batch.

The service can also bound its own backlog: ``max_queue`` caps queued
plus in-flight items, and the ``admission`` policy decides what happens
at capacity — synchronous :class:`~repro.errors.QueueFull` rejection,
blocking-with-timeout admission, or deadline-based shedding where a
queued item whose per-request ``deadline`` lapses resolves to
:class:`~repro.errors.ShedError` instead of occupying a batch (see
:mod:`repro.service.admission`).  Admission only decides *whether* work
runs, never *how*: every admitted matrix stays bit-identical to its
sequential twin.

Every request moves through the one lifecycle table,
:data:`~repro.analysis.events.LIFECYCLE` — ``submit ->
admitted/rejected -> enqueued -> expired/shed | flushed -> dispatched
-> solved -> merged -> resolved/failed/cancelled`` — and each move
(``JacobiService._move``) both updates the ledger :meth:`~JacobiService.stats`
reads and, built with ``trace=True`` (or an explicit
:class:`~repro.service.tracing.Tracer`), records one typed event per
request; :meth:`JacobiService.trace` exports them as an
:class:`~repro.analysis.events.EventTimeline` (JSON-serialisable,
analysable with the same toolchain as the simulator's communication
traces).  Tracing off (the default) costs one ``is not None`` check
per move.

Example
-------
>>> import numpy as np
>>> from repro.jacobi import make_symmetric_test_matrix
>>> from repro.service import JacobiService
>>> with JacobiService(d=1, max_batch=4, max_delay=0.01) as svc:
...     futures = [svc.submit(make_symmetric_test_matrix(8, rng=k))
...                for k in range(4)]
...     fsvd = svc.submit(np.arange(12.0).reshape(4, 3), kind="svd")
...     sweeps = [f.result().sweeps for f in futures]
...     S = fsvd.result().S
>>> len(sweeps), S.shape
(4, (3,))
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import Future, InvalidStateError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import repeat
from typing import (Any, Callable, Dict, Hashable, Iterable, List,
                    Optional, Sequence, Tuple)

import numpy as np

from ..analysis.events import LIFECYCLE, EventTimeline
from ..errors import QueueFull, ShedError, SimulationError
from ..jacobi.convergence import DEFAULT_TOL
from ..jacobi.svd import SvdResult
from ..orderings.base import get_ordering
from .admission import AdmissionDecision, AdmissionGate
from .batcher import FLUSH_CAUSES, FlushEvent, MicroBatcher
from .kinds import KINDS, TRAFFIC_CLASSES, SolveResult
from .pool import ShardedExecutor, solve_batch_remote
from .tracing import DEFAULT_TRACE_CAPACITY, Tracer, resolve_tracer
from .transport import Transport, resolve_transport

__all__ = ["KINDS", "SolveResult", "SvdResult", "ServiceStats",
           "JacobiService"]


@dataclass(frozen=True)
class ServiceStats:
    """Queue/throughput counters of a :class:`JacobiService`.

    ``submitted`` / ``completed`` / ``failed`` / ``cancelled`` are
    lifetime item counters — ``submitted`` counts every submission
    that passed validation, *including* ones the admission policy then
    rejected, so the ledger identity ``submitted == completed + failed
    + cancelled + rejected + shed + inflight + queue_depth`` (see
    :attr:`accounted`) holds at every instant; ``cancelled`` counts
    futures the *caller* cancelled before their result landed — they
    are not throughput;
    ``queue_depth`` is the items queued in the batcher awaiting a
    flush, and ``inflight`` the dispatched-but-unsettled items (their
    batch is being solved but the futures have not resolved) — an
    item counts toward exactly one of the two, and admission counts
    both against ``max_queue``;
    ``flushes`` counts released micro-batches by cause — ``size`` (a
    full ``max_batch``), ``deadline`` (``max_delay`` ran out while every
    solver slot was busy), ``idle`` (released at once to a free slot) and
    ``forced`` (:meth:`~JacobiService.flush` / :meth:`~JacobiService.close`)
    — and ``batches`` is their sum;
    ``submitted_by_kind`` splits the submission counter per traffic
    class (``eigen`` / ``svd``); ``mean_batch_size`` is flushed items
    per flush; ``workers`` echoes the service's worker count;
    ``elapsed`` is seconds since the first submission and
    ``throughput`` completed solves per second over it (0.0 before any
    work completes); ``solve_latency_by_kind`` is the mean wall-clock
    seconds per flushed batch solve, per traffic class (0.0 before any
    flush of that kind completes), measured inside the solve call
    itself.

    The admission fields expose saturation (see
    :mod:`repro.service.admission`):

    * ``rejected`` — submissions turned away at the admission bound:
      with :class:`~repro.errors.QueueFull` (immediately, or after a
      ``"block"`` wait timed out), or with
      :class:`~repro.errors.SimulationError` when
      :meth:`~JacobiService.close` ended a ``"block"`` wait;
    * ``shed`` — queued items whose per-request deadline lapsed before
      their flush (futures resolved with
      :class:`~repro.errors.ShedError`);
    * ``queue_limit`` — the service's ``max_queue`` (0 = unbounded);
    * ``saturation`` — occupancy ratio ``(queue_depth + inflight) /
      queue_limit`` (0.0 when unbounded): 1.0 means the next submit
      hits the overload policy.

    The transport fields expose the batch data plane (see
    :mod:`repro.service.transport`):

    * ``transport`` — the active transport's name (``"pickle"`` /
      ``"shm"``);
    * ``transport_counters`` — that transport's
      :meth:`~repro.service.transport.TransportStats.counters`
      snapshot (batches carried, bytes each way, and — for shared
      memory — segment created/reused/unlinked/live counts).

    ``submitted_by_tenant`` splits the submission counter per tenant
    label (submissions without a tenant are not listed); the gateway's
    own :meth:`~repro.service.gateway.AsyncGateway.stats` adds the
    full per-tenant outcome ledger on top of this service-side view.

    The whole snapshot is taken under the service's dispatch lock, so
    the :attr:`accounted` identity holds for *every* returned value —
    a reader hammering :meth:`JacobiService.stats` mid-burst can never
    observe a half-moved ledger entry.
    """

    submitted: int
    completed: int
    failed: int
    cancelled: int
    queue_depth: int
    inflight: int
    rejected: int
    shed: int
    queue_limit: int
    saturation: float
    flushes: Dict[str, int]
    submitted_by_kind: Dict[str, int]
    batches: int
    mean_batch_size: float
    workers: int
    elapsed: float
    throughput: float
    solve_latency_by_kind: Dict[str, float]
    transport: str
    transport_counters: Dict[str, int]
    submitted_by_tenant: Dict[str, int] = field(default_factory=dict)

    @property
    def accounted(self) -> int:
        """Every submission's current ledger entry summed — completed,
        failed, cancelled, rejected, shed, in-flight or still queued.
        Always equals :attr:`submitted` (the self-consistency
        regression tests pin this at every point of an overload
        run)."""
        return (self.completed + self.failed + self.cancelled
                + self.rejected + self.shed + self.inflight
                + self.queue_depth)


@dataclass
class _Item:
    matrix: np.ndarray
    future: "Future[Any]"
    req: int = -1
    kind: str = "eigen"
    tenant: Optional[str] = None


#: The ledger: ``submitted`` and every bucket of the lifecycle table
#: (``"open"``: the queued and in-flight items admission counts).
_LEDGER = ("submitted",) + tuple(
    bucket for _, bucket in LIFECYCLE.values() if bucket is not None)

#: Bucket moves up to this rank admit a submission; later ones settle.
_ADMISSION_RANK = LIFECYCLE["enqueued"][0]


class JacobiService:
    """Streaming eigen/SVD solve service over the batched engines.

    Parameters
    ----------
    d:
        Default hypercube dimension (``2**d`` simulated nodes) of the
        eigen traffic class.
    ordering:
        Default ordering family name (any registered family) of the
        eigen traffic class.
    tol, max_sweeps:
        Convergence tolerance and per-matrix sweep budget (shared by
        both traffic classes).
    max_batch, max_delay:
        Micro-batching knobs (see
        :class:`~repro.service.batcher.MicroBatcher`).  ``max_batch``
        caps every flush.  Dispatch is work-conserving: while a solver
        slot is free, the oldest queued group is released at once, so
        ``max_delay`` (finite, >= 0) only bounds how long a group
        waits while every slot is busy.
    max_queue:
        Service-wide admission bound, counting queued **and**
        in-flight items (``0`` = unbounded, the default).  When the
        bound is reached, :meth:`submit` applies the ``admission``
        policy instead of queueing.
    admission:
        Overload policy at capacity — ``"reject"`` (synchronous
        :class:`~repro.errors.QueueFull`), ``"block"`` (wait up to
        ``admission_timeout`` seconds for capacity, then
        :class:`~repro.errors.QueueFull`), or ``"shed"`` (shed expired
        queued items to make room, else reject).  See
        :mod:`repro.service.admission`.
    admission_timeout:
        Seconds a ``"block"``-policy submission may wait for capacity
        (finite, > 0).
    default_deadline:
        Default per-request deadline in seconds (> 0; ``inf`` never
        expires): a queued item older than its deadline is shed
        (future resolves with :class:`~repro.errors.ShedError`)
        instead of occupying a batch.  ``None`` (default) means only
        submissions with an explicit ``deadline`` expire.
    workers:
        ``0``/``1`` solves flushes on the dispatcher thread, which is
        then the service's one solver slot (free whenever it is not
        solving); ``>= 2`` fans them out to that many worker processes,
        one slot per worker, so a worker that finishes a flush takes
        the oldest queued group at once.
    compute_eigenvectors:
        Accumulate eigenvectors for eigen traffic (disable for
        sweep-count-only traffic; results then carry eigenvalue
        magnitudes, not signs — see
        :class:`~repro.service.kinds.SolveResult`).  SVD traffic
        always carries its full (U, S, Vt) factors.
    executor:
        Optionally share a pre-built
        :class:`~repro.service.pool.ShardedExecutor` (or any pool with
        its ``submit``, ``shutdown``, ``uses_processes`` and
        ``workers``); it is then not shut down by :meth:`close`.  Its
        ``workers`` count is the number of solver slots (one when it
        reports none), and only this service's own in-flight flushes
        count as busy.
    transport:
        The batch data plane (see :mod:`repro.service.transport`):
        ``None``/``"pickle"`` ships payloads through the pool's pickle
        pipe (the default), ``"shm"`` places each flush in a
        shared-memory segment that workers read and write in place
        (zero pickled array bytes), and a ready
        :class:`~repro.service.transport.Transport` instance is used
        as-is — the caller then owns its :meth:`close`.  Bit-identity
        is transport-independent: only the bytes' route changes, never
        the merge order or the arithmetic.
    clock:
        Monotonic time source (injectable for tests), shared by the
        batcher, the admission gate and the tracer — under a fake
        clock every traced timestamp is exactly pinnable.
    trace:
        Record one event per lifecycle edge of every request (see
        :meth:`trace`).  ``False`` (default) keeps the zero-overhead
        untraced paths.
    tracer:
        Share an explicit :class:`~repro.service.tracing.Tracer`
        instead of letting ``trace=True`` build one (pass
        :data:`~repro.service.tracing.NULL_TRACER` to force tracing
        off).  Takes precedence over ``trace``.
    trace_capacity:
        Ring-buffer size in events of the tracer ``trace=True`` builds
        (oldest events drop first; ignored when ``tracer`` is given).

    The service is a context manager; :meth:`close` drains the queue
    (every submitted future resolves) before stopping the dispatcher.
    """

    def __init__(self, d: int = 2, ordering: str = "degree4",
                 tol: float = DEFAULT_TOL, max_sweeps: int = 60,
                 max_batch: int = 16, max_delay: float = 0.02,
                 max_queue: int = 0, admission: str = "reject",
                 admission_timeout: float = 1.0,
                 default_deadline: Optional[float] = None,
                 workers: int = 0, compute_eigenvectors: bool = True,
                 executor: Optional[ShardedExecutor] = None,
                 transport: Optional[Any] = None,
                 clock: Callable[[], float] = time.monotonic,
                 trace: bool = False,
                 tracer: Optional[Any] = None,
                 trace_capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        self.d = int(d)
        self.ordering = str(ordering)
        get_ordering(self.ordering, self.d)  # validate eagerly
        self.tol = float(tol)
        self.max_sweeps = int(max_sweeps)
        self.compute_eigenvectors = bool(compute_eigenvectors)
        self.workers = int(workers)
        self._clock = clock
        if tracer is not None:
            self._tracer: Optional[Tracer] = resolve_tracer(tracer)
        elif trace:
            self._tracer = Tracer(clock=clock, capacity=trace_capacity)
        else:
            self._tracer = None
        self._cond = threading.Condition()
        self._gate = AdmissionGate(max_queue=max_queue, policy=admission,
                                   block_timeout=admission_timeout,
                                   default_deadline=default_deadline,
                                   clock=self._clock,
                                   tracer=self._tracer)
        self._batcher = MicroBatcher(max_batch=max_batch,
                                     max_delay=max_delay,
                                     clock=self._clock,
                                     tracer=self._tracer)
        self._solve_seconds = {kind: 0.0 for kind in KINDS}
        self._solved_batches = {kind: 0 for kind in KINDS}
        # An instance passed in stays caller-owned (mirrors executor).
        self._own_transport = not isinstance(transport, Transport)
        self._transport = resolve_transport(transport)
        self._own_executor = executor is None and self.workers >= 2
        if executor is not None:
            self._executor: Optional[ShardedExecutor] = executor
        elif self.workers >= 2:
            self._executor = ShardedExecutor(
                self.workers, warm=[(self.ordering, self.d)])
        else:
            self._executor = None
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._force = False
        self._ledger = dict.fromkeys(_LEDGER, 0)
        self._pending_remote: Dict["Future[Any]", List["_Item"]] = {}
        self._flushes = {cause: 0 for cause in FLUSH_CAUSES}
        self._submitted_by_kind = {kind: 0 for kind in KINDS}
        self._submitted_by_tenant: Dict[str, int] = defaultdict(int)
        self._batched_items = 0
        self._first_submit: Optional[float] = None
        self._next_request = 0

    # ------------------------------------------------------------------
    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run, name="jacobi-service-dispatch",
                daemon=True)
            self._thread.start()

    def submit(self, A: np.ndarray, *, kind: str = "eigen",
               ordering: Optional[str] = None,
               d: Optional[int] = None,
               deadline: Optional[float] = None,
               tenant: Optional[str] = None) -> "Future[Any]":
        """Queue one matrix; resolve to its per-matrix result.

        Parameters
        ----------
        A:
            The matrix (copied on entry; validated synchronously
            against its traffic class).
        kind:
            A key of :data:`~repro.service.kinds.TRAFFIC_CLASSES`:
            ``"eigen"`` (default) queues a symmetric matrix and
            resolves to a :class:`~repro.service.kinds.SolveResult`;
            ``"svd"`` queues a
            tall/square general matrix and resolves to an
            :class:`~repro.jacobi.svd.SvdResult` bit-identical to
            :func:`~repro.jacobi.svd.onesided_svd`.
        ordering, d:
            Per-submission overrides of the eigen traffic class's
            service defaults (do not apply to SVD traffic and are
            rejected there).
        deadline:
            Per-request deadline in seconds (overrides the service's
            ``default_deadline``): if the item is still queued this
            long after submission, it is shed — the future resolves
            with :class:`~repro.errors.ShedError` instead of the item
            occupying a batch.  ``None`` keeps the service default;
            when both are set the tighter of the two wins.
        tenant:
            Optional tenant label for multi-tenant accounting: counted
            in ``ServiceStats.submitted_by_tenant`` and stamped as
            ``tenant=`` on every trace event of this request, so
            :class:`~repro.analysis.events.EventTimeline` (and
            ``repro-jacobi trace-report``) can slice by tenant.  The
            label never influences batching or solving — QoS policy
            (quotas, priorities) lives in the
            :class:`~repro.service.gateway.AsyncGateway` above.

        Returns
        -------
        concurrent.futures.Future
            Resolves to the per-matrix result.  Matrices are
            micro-batched by kind-tagged keys — ``("eigen", m,
            ordering, d)`` / ``("svd", n, m)`` — so mixed traffic
            coexists on one service and the two classes never share a
            flush.

        Raises
        ------
        SimulationError
            The matrix is invalid for its kind: complex, not numeric,
            non-finite, not symmetric (eigen), wide (SVD) or too small
            for the cube — or the service is closed, including by a
            :meth:`close` that ends a ``"block"`` wait (counted as
            ``rejected``).
        QueueFull
            The service is at its ``max_queue`` bound and the
            admission policy rejected the submission (immediately
            under ``"reject"``, after the wait timed out under
            ``"block"``, or because shedding freed no room under
            ``"shed"``).
        """
        traffic = TRAFFIC_CLASSES.get(kind)
        if traffic is None:
            raise SimulationError(
                f"unknown traffic kind {kind!r}; known: {KINDS}")
        A, key = traffic.admit(self, A, ordering, d)
        key = (kind,) + key
        # A bad deadline fails here, with the matrix: before any trace
        # event, counter move or "block" wait.
        ttl = self._gate.ttl(deadline)
        item = _Item(matrix=A, future=Future(), kind=kind, tenant=tenant)
        traced = self._tracer is not None
        ledger = self._ledger
        shed: List[_Item] = []
        try:
            with self._cond:
                if self._closed:
                    raise SimulationError("service is closed")
                item.req = self._next_request
                self._next_request += 1
                # n/m record the arrival's shape so a trace-driven
                # replay can regenerate an equivalent workload.
                self._move((item,), "submit", key=key, meta={
                    "deadline": deadline, "n": int(A.shape[0]),
                    "m": int(A.shape[1])} if traced else None)
                decision = self._gate.decide(ledger["open"])
                if decision.action == "shed":
                    # At capacity under the shed policy: drop expired
                    # queued items to make room before giving up.
                    shed = self._pop_expired_locked()
                    decision = AdmissionDecision(
                        "admit" if ledger["open"] < self._gate.max_queue
                        else "reject")
                elif decision.action == "block":
                    while (not self._closed
                           and ledger["open"] >= self._gate.max_queue):
                        remaining = decision.give_up - self._clock()
                        if remaining <= 0:
                            break
                        self._cond.wait(min(remaining,
                                            threading.TIMEOUT_MAX))
                    # close() during the wait gives up like a timeout:
                    # a rejection on the ledger, raised as closed below.
                    decision = AdmissionDecision(
                        "admit" if (not self._closed and ledger["open"]
                                    < self._gate.max_queue)
                        else "reject")
                if decision.action == "reject":
                    self._move((item,), "rejected", key=key, meta={
                        "used": ledger["open"],
                        "max_queue": self._gate.max_queue,
                        "policy": self._gate.policy,
                        "closed": self._closed} if traced else None)
                    if self._closed:
                        raise SimulationError("service is closed")
                    raise QueueFull(
                        f"service queue full: {ledger['open']} items "
                        f"queued or in flight at max_queue="
                        f"{self._gate.max_queue} "
                        f"({self._gate.policy} policy)")
                self._move((item,), "admitted", key=key)
                # Queue first, then move the ledger: an exception from
                # the batcher must not leak a phantom in-flight item
                # that close() would wait on forever.
                self._batcher.submit(
                    key, item,
                    expires=None if ttl is None else self._clock() + ttl)
                self._move((item,), "enqueued", key=key, meta={
                    "queued": self._batcher.pending(),  # with this item
                    "inflight": ledger["open"] + 1} if traced else None)
                self._ensure_thread()
                self._cond.notify_all()
        finally:
            self._resolve_shed(shed)
        return item.future

    def solve_many(self, matrices: Sequence[np.ndarray], *,
                   kind: str = "eigen",
                   ordering: Optional[str] = None,
                   d: Optional[int] = None) -> List[Any]:
        """Submit a whole sequence of ``matrices`` (with the same
        ``kind``/``ordering``/``d`` semantics as :meth:`submit`), force
        a flush, and wait for the results, in input order.

        The sequence is queued in one critical section, so an idle
        dispatcher cannot take its first matrix alone: the forced flush
        makes one engine call per ``max_batch`` chunk."""
        with self._cond:  # re-entrant: submit() takes it again
            futures = [self.submit(A, kind=kind, ordering=ordering, d=d)
                       for A in matrices]
            self.flush()
        return [f.result() for f in futures]

    def flush(self) -> None:
        """Ask the dispatcher to release every queued micro-batch now
        (the pending futures resolve as the flushed solves finish)."""
        with self._cond:
            if self._batcher.pending():
                self._force = True
                self._cond.notify_all()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                # Shed stale work before it can occupy a batch; the
                # futures are resolved outside the lock (a done-callback
                # re-entering submit() must not deadlock on _cond).
                shed = self._pop_expired_locked()
                if self._force:
                    events = self._batcher.drain()
                    self._force = False
                else:
                    events = self._batcher.pop_ready()
                if not events:
                    # Work-conserving: each free solver slot takes the
                    # oldest group now rather than idle out max_delay.
                    for _ in range(self._free_slots_locked()):
                        event = self._batcher.pop_idle()
                        if event is None:
                            break
                        events.append(event)
                if not events and not shed:
                    if self._closed and not self._batcher.pending():
                        return
                    # Asleep, every slot is busy (or nothing is queued);
                    # _settle/_fail notify when a slot frees up.
                    deadline = self._batcher.next_deadline()
                    timeout = (None if deadline is None
                               else min(max(0.0, deadline - self._clock()),
                                        threading.TIMEOUT_MAX))
                    self._cond.wait(timeout)
                    continue
            self._resolve_shed(shed)
            for event in events:
                self._dispatch(event)

    def _free_slots_locked(self) -> int:
        """Solver slots free for an idle release (caller holds
        ``_cond``).  Inline, the dispatcher thread is the one slot, and
        it is free whenever it asks; a pool has one slot per worker
        (one if the executor reports no ``workers``), less the flushes
        it is still solving."""
        if not (self._executor is not None
                and getattr(self._executor, "uses_processes", False)):
            return 1
        return (getattr(self._executor, "workers", 1)
                - len(self._pending_remote))

    def _pop_expired_locked(self) -> List[_Item]:
        """Drop every expired queued item (caller holds ``_cond``).

        Moves each drop through ``expired`` to ``shed`` — or to
        ``cancelled`` when the caller already cancelled its future —
        so the freed capacity counts at once, and wakes any
        ``"block"``-policy waiter.  The shed items' futures are marked
        running, so they can no longer be cancelled, but are still
        unresolved; the caller must hand them to :meth:`_resolve_shed`
        *after* releasing the lock.
        """
        dropped = self._batcher.pop_expired()
        if not dropped:
            return []
        shed: List[_Item] = []
        cancelled: List[_Item] = []
        for key, item in dropped:
            self._move((item,), "expired", key=key)
            running = item.future.set_running_or_notify_cancel()
            (shed if running else cancelled).append(item)
        self._move(shed, "shed")
        self._move(cancelled, "cancelled")
        self._cond.notify_all()
        return shed

    def _resolve_shed(self, items: List[_Item]) -> None:
        """Resolve shed items' futures to ShedError (without ``_cond``
        held — future done-callbacks run inline here)."""
        for item in items:
            item.future.set_exception(ShedError(
                "request deadline lapsed before its micro-batch "
                "flushed; the item was shed, not solved"))

    def _move(self, items: Sequence[_Item], stage: str, *,
              key: Optional[Hashable] = None, batch: Optional[int] = None,
              worker: Optional[str] = None,
              meta: Optional[Dict[str, Any]] = None) -> None:
        """Move ``items`` to lifecycle ``stage``: the ledger update its
        :data:`~repro.analysis.events.LIFECYCLE` row declares (under
        ``_cond``), then one trace event per item, sharing ``meta``.
        ``flushed`` also counts one flush of ``meta["cause"]``."""
        rank, bucket = LIFECYCLE[stage]
        if bucket is not None:
            n = len(items)
            ledger = self._ledger
            ledger[bucket] += n
            if rank > _ADMISSION_RANK:
                ledger["open"] -= n
            else:
                if self._first_submit is None:
                    self._first_submit = self._clock()
                ledger["submitted"] += n
                for item in items:
                    self._submitted_by_kind[item.kind] += 1
                    if item.tenant is not None:
                        self._submitted_by_tenant[item.tenant] += 1
        elif stage == "flushed":
            self._flushes[meta["cause"]] += 1
            self._batched_items += len(items)
        if self._tracer is not None:
            for item in items:
                self._tracer.emit(stage, request=item.req, kind=item.kind,
                                  key=key, batch=batch, worker=worker,
                                  tenant=item.tenant, meta=meta)

    def _dispatch(self, event: FlushEvent) -> None:
        # Every exit of this method must settle or fail the items: an
        # escaped exception would kill the dispatcher thread and leave
        # the pending futures (and close()) hanging forever.
        kind = event.key[0]
        items = list(event.items)
        with self._cond:
            self._move(items, "flushed", key=event.key, batch=event.batch,
                       meta={"cause": event.cause, "size": event.size})
        handle: Optional[Any] = None
        try:
            payload = {
                "kind": kind,
                "matrices": np.stack([item.matrix for item in items]),
                "tol": self.tol, "max_sweeps": self.max_sweeps,
                **TRAFFIC_CLASSES[kind].spec(self, event.key),
            }
            use_pool = (self._executor is not None
                        and self._executor.uses_processes)
            wire, handle = self._transport.prepare(payload, kind)
            if self._tracer is not None and handle is not None:
                self._tracer.emit("attached", kind=kind,
                                  batch=event.batch,
                                  meta={"segment": handle.segment_name,
                                        "bytes": handle.nbytes,
                                        "reused": handle.reused})
            self._move(items, "dispatched", batch=event.batch,
                       meta={"mode": "pool" if use_pool else "inline"})
            if use_pool:
                fut = self._executor.submit(solve_batch_remote, wire)
                # Register before wiring the callback: if the pool
                # breaks mid-flush, close() sweeps this registry and
                # fails the stranded items instead of waiting forever;
                # whoever pops the entry first (callback or sweep)
                # owns settling it.
                with self._cond:
                    self._pending_remote[fut] = items
                fut.add_done_callback(
                    lambda f, its=items, ev=event, h=handle:
                        self._complete_remote(its, ev, h, f))
                return
            out = self._finalize(solve_batch_remote(wire), handle,
                                 event)
        except BaseException as exc:  # noqa: BLE001 - futures carry it
            try:
                self._transport.release(handle)
            except Exception:  # pragma: no cover - cleanup best-effort
                pass
            self._fail(items, exc, event)
            return
        self._settle(items, out, event)

    def _finalize(self, out: Dict[str, Any], handle: Optional[Any],
                  event: FlushEvent) -> Dict[str, Any]:
        """Decode one flush's wire result through the transport
        (releasing its segment, if any) and trace the detach."""
        result = self._transport.finalize(out, handle)
        if self._tracer is not None and handle is not None:
            self._tracer.emit("detached", kind=event.key[0],
                              batch=event.batch,
                              meta={"segment": handle.segment_name})
        return result

    def _complete_remote(self, items: List[_Item], event: FlushEvent,
                         handle: Optional[Any],
                         fut: "Future[Dict[str, np.ndarray]]") -> None:
        """Resolve one remotely-solved flush (runs on a pool callback
        thread): failures release the transport handle and fail the
        futures, successes settle them."""
        with self._cond:
            claimed = self._pending_remote.pop(fut, None)
        if claimed is None:
            # close() already swept and failed these items; give the
            # segment back so the ring (or close) can reclaim it.
            self._transport.release(handle)
            return
        exc = fut.exception()
        if exc is not None:
            self._transport.release(handle)
            self._fail(items, exc, event)
            return
        try:
            out = self._finalize(fut.result(), handle, event)
        except BaseException as exc:  # noqa: BLE001 - futures carry it
            try:
                self._transport.release(handle)
            except Exception:  # pragma: no cover - cleanup best-effort
                pass
            self._fail(items, exc, event)
            return
        self._settle(items, out, event)

    def _settle(self, items: List[_Item], out: Dict[str, np.ndarray],
                event: Optional[FlushEvent] = None) -> None:
        batch = event.batch if event is not None else None
        elapsed = out.get("elapsed")
        if elapsed is not None and items:
            # Account the solve before any future resolves, so a caller
            # woken by its result reads it in stats().
            with self._cond:
                self._solve_seconds[items[0].kind] += float(elapsed)
                self._solved_batches[items[0].kind] += 1
        worker = out.get("worker")
        self._move(items, "solved", batch=batch,
                   worker=None if worker is None else str(worker),
                   meta={"elapsed": elapsed})
        results: List[Any] = []
        error: Optional[Exception] = None
        for k, item in enumerate(items):
            # Build the results before resolving: a malformed backend
            # payload must fail the future loudly, never be swallowed.
            try:
                results.append(TRAFFIC_CLASSES[item.kind].member(out, k))
            except Exception as exc:
                error = exc
                break
        merged = items[:len(results)]
        self._move(merged, "merged", batch=batch)
        self._resolve(merged, results, "resolved", batch)
        if error is not None:
            self._fail(items[len(results):], error, event)

    def _fail(self, items: List[_Item], exc: BaseException,
              event: Optional[FlushEvent] = None) -> None:
        if items:
            self._resolve(items, repeat(exc), "failed",
                          event.batch if event is not None else None,
                          meta={"error": type(exc).__name__})

    def _resolve(self, items: List[_Item], values: Iterable[Any],
                 stage: str, batch: Optional[int],
                 meta: Optional[Dict[str, Any]] = None) -> None:
        """Resolve each future with its value (the exception when
        ``stage`` is ``"failed"``) outside ``_cond``, then move the
        items in one acquisition: to ``stage``, or to ``cancelled``
        where the caller cancelled the future first."""
        settled: List[_Item] = []
        cancelled: List[_Item] = []
        for item, value in zip(items, values):
            try:
                if stage == "failed":
                    item.future.set_exception(value)
                else:
                    item.future.set_result(value)
                settled.append(item)
            except InvalidStateError:
                cancelled.append(item)
        with self._cond:
            self._move(settled, stage, batch=batch, meta=meta)
            self._move(cancelled, "cancelled", batch=batch)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    @property
    def clock(self) -> Callable[[], float]:
        """The service's monotonic time source — share it with
        front-end layers (the async gateway's quota buckets) so one
        fake clock pins every QoS decision end to end."""
        return self._clock

    @property
    def tracer(self) -> Optional[Tracer]:
        """The service's tracer, or ``None`` when tracing is off —
        front-end layers emit their own request-less stages (the
        gateway's ``"throttled"`` and ``"rejected"`` refusals) into the
        same timeline."""
        return self._tracer

    @property
    def admission(self) -> str:
        """The active admission policy name (``"reject"`` /
        ``"block"`` / ``"shed"``) — the gateway keeps a ``"block"``
        service's potentially-blocking submits off the event loop."""
        return self._gate.policy

    def occupancy(self) -> Tuple[int, int]:
        """Current ``(used, bound)`` against the admission gate:
        queued-plus-in-flight items versus ``max_queue`` (0 means
        unbounded).  Taken under the dispatch lock; the gateway's
        priority headroom reads this without touching internals."""
        with self._cond:
            return self._ledger["open"], self._gate.max_queue

    def stats(self) -> ServiceStats:
        """Snapshot the service counters.

        Returns
        -------
        ServiceStats
            Queue/throughput counters plus the transport's data-plane
            counters (see :class:`ServiceStats`).  The snapshot is
            consistent: every field is read in one critical section of the
            dispatch lock (a mid-flush ``stats()`` call can never
            violate the :attr:`ServiceStats.accounted` identity).
        """
        with self._cond:
            # The transport snapshot participates in the critical
            # section: reading it outside would let a flush land
            # between the two reads and skew counters against each
            # other.  Lock order _cond -> transport lock is safe — the
            # transport never takes the service lock.
            tstats = self._transport.stats()
            ledger = self._ledger
            elapsed = (0.0 if self._first_submit is None
                       else self._clock() - self._first_submit)
            batches = sum(self._flushes.values())
            queued = self._batcher.pending()
            return ServiceStats(
                **{name: ledger[name] for name in (
                    "submitted", "completed", "failed", "cancelled",
                    "rejected", "shed")},
                queue_depth=queued,
                inflight=ledger["open"] - queued,
                queue_limit=self._gate.max_queue,
                saturation=(ledger["open"] / self._gate.max_queue
                            if self._gate.bounded else 0.0),
                flushes=dict(self._flushes),
                submitted_by_kind=dict(self._submitted_by_kind),
                batches=batches,
                mean_batch_size=(self._batched_items / batches
                                 if batches else 0.0),
                workers=self.workers,
                elapsed=elapsed,
                throughput=(ledger["completed"] / elapsed
                            if elapsed > 0 else 0.0),
                solve_latency_by_kind={
                    kind: (self._solve_seconds[kind]
                           / self._solved_batches[kind]
                           if self._solved_batches[kind] else 0.0)
                    for kind in KINDS},
                transport=tstats.name,
                transport_counters=tstats.counters(),
                submitted_by_tenant=dict(self._submitted_by_tenant))

    def trace(self) -> EventTimeline:
        """Export the recorded per-request event timeline.

        Only available on a service built with ``trace=True`` or an
        enabled ``tracer``.  The timeline's ``meta`` records the
        service configuration (dimensions, batching limits, admission
        settings, workers) plus the tracer's retention counters, so an
        exported trace is self-describing — which is what lets
        ``repro-jacobi load-bench --replay`` reconstruct a recorded
        run (see :mod:`repro.analysis.loadgen`).

        Returns
        -------
        EventTimeline
            The retained events, oldest first (see
            :class:`~repro.analysis.events.EventTimeline`).

        Raises
        ------
        SimulationError
            The service was built without tracing.
        """
        if self._tracer is None:
            raise SimulationError(
                "service was built without tracing; pass trace=True "
                "(or an enabled tracer) to record events")
        with self._cond:
            meta = {
                "d": self.d, "ordering": self.ordering, "tol": self.tol,
                "max_sweeps": self.max_sweeps, "workers": self.workers,
                "max_batch": self._batcher.max_batch,
                "max_delay": self._batcher.max_delay,
                "max_queue": self._gate.max_queue,
                "admission": self._gate.policy,
                "default_deadline": self._gate.default_deadline,
                "transport": self._transport.name,
                "requests": self._next_request,
            }
        return self._tracer.timeline(source="service", meta=meta)

    def close(self) -> None:
        """Drain the queue, resolve every future, stop the dispatcher.

        Overload-safe: if a worker process dies mid-flush (the pool
        reports itself broken), the stranded in-flight futures are
        failed with :class:`~concurrent.futures.process.BrokenProcessPool`
        instead of being waited on forever.  A service-owned transport
        is closed last, unlinking every shared-memory segment still
        allocated — including one a killed worker was holding — so no
        ``/dev/shm`` space outlives the service.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._force = self._batcher.pending() > 0
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
        while True:
            stranded: List[List[_Item]] = []
            with self._cond:
                if not self._ledger["open"]:
                    break
                self._cond.wait(timeout=0.25)
                if not self._ledger["open"]:
                    break
                if (self._executor is not None
                        and getattr(self._executor, "broken", False)):
                    stranded = [self._pending_remote.pop(f)
                                for f in list(self._pending_remote)]
            if stranded:
                exc = BrokenProcessPool(
                    "a worker process died mid-flush; failing its "
                    "in-flight futures")
                for items in stranded:
                    self._fail(items, exc)
        if self._own_executor and self._executor is not None:
            self._executor.shutdown()
        if self._own_transport:
            self._transport.close()

    def __enter__(self) -> "JacobiService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
