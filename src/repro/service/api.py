"""The solve-service facade: submit matrices, receive futures.

:class:`JacobiService` is the traffic-serving front of the repo: callers
:meth:`~JacobiService.submit` matrices as they arrive and get back a
:class:`~concurrent.futures.Future` resolving to a per-matrix result.
Two traffic classes share one service:

* ``kind="eigen"`` (default) — symmetric matrices, resolving to a
  :class:`SolveResult`, solved by
  :class:`~repro.engine.batched.BatchedOneSidedJacobi` (bit-identical to
  a sequential :class:`~repro.jacobi.parallel.ParallelOneSidedJacobi`
  solve of the same matrix);
* ``kind="svd"`` — tall or square general matrices, resolving to a
  :class:`~repro.jacobi.svd.SvdResult`, solved by
  :class:`~repro.engine.svd.BatchedOneSidedSVD` (bit-identical to
  :func:`~repro.jacobi.svd.onesided_svd` of the same matrix).

Behind the facade,

* a :class:`~repro.service.batcher.MicroBatcher` groups submissions by
  kind-tagged keys — ``("eigen", m, ordering, d)`` /
  ``("svd", n, m)`` — so eigen and SVD micro-batches flush separately,
  each by size or deadline;
* every flush is exactly one batched-engine call — run inline by the
  dispatcher thread, or fanned out to a
  :class:`~repro.service.pool.ShardedExecutor` worker pool when the
  service was built with ``workers >= 2``;
* per-matrix results are bit-identical to the sequential twin of their
  kind (the engines' contract), so batching and sharding are pure
  throughput knobs.

A convergence miss is service data, not an exception: the future
resolves to a result with ``converged=False``.  Invalid submissions
(non-finite entries, non-symmetric eigen input, wide SVD input, too
small for the cube) are rejected synchronously at
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

Built with ``trace=True`` (or an explicit
:class:`~repro.service.tracing.Tracer`), the service records one typed
event per lifecycle edge of every request — ``submit ->
admitted/rejected -> enqueued -> expired/shed | flushed -> dispatched
-> solved -> merged -> resolved/failed`` — and :meth:`JacobiService.trace`
exports them as an :class:`~repro.analysis.events.EventTimeline`
(JSON-serialisable, analysable with the same toolchain as the
simulator's communication traces).  Tracing off (the default) costs
nothing: the instrumented paths reduce to one ``is not None`` check.

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
from concurrent.futures import Future, InvalidStateError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.events import EventTimeline
from ..errors import QueueFull, ShedError, SimulationError
from ..jacobi.convergence import DEFAULT_TOL
from ..jacobi.svd import SvdResult
from ..orderings.base import get_ordering
from .adaptive import AdaptiveController, TuningBounds, TuningEvent
from .admission import AdmissionDecision, AdmissionGate
from .batcher import FLUSH_CAUSES, FlushEvent, MicroBatcher
from .pool import ShardedExecutor, solve_batch_remote, solve_svd_batch_remote
from .tracing import DEFAULT_TRACE_CAPACITY, Tracer, resolve_tracer
from .transport import Transport, resolve_transport

__all__ = ["KINDS", "SolveResult", "SvdResult", "ServiceStats",
           "JacobiService"]

#: Traffic classes understood by :meth:`JacobiService.submit`.
KINDS = ("eigen", "svd")


@dataclass(frozen=True)
class SolveResult:
    """Per-matrix outcome handed back by the service.

    Attributes
    ----------
    eigenvalues:
        ``(m,)`` ascending eigenvalues.  When the service was built
        with ``compute_eigenvectors=False`` these are the ascending
        eigenvalue *magnitudes* ``|lambda|`` (the one-sided iterate's
        column norms — signs need the accumulated transformations; the
        sequential solver has the same contract).
    eigenvectors:
        ``(m, m)`` eigenvector columns (``(m, 0)`` when the service was
        built with ``compute_eigenvectors=False``).
    sweeps:
        Sweeps this matrix needed.
    converged:
        Whether the tolerance was met within the sweep budget.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int
    converged: bool


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
    ``flushes`` counts released micro-batches by cause (``size`` /
    ``deadline`` / ``forced``) and ``batches`` is their sum;
    ``submitted_by_kind`` splits the submission counter per traffic
    class (``eigen`` / ``svd``); ``mean_batch_size`` is submitted items
    per flush; ``workers`` echoes the service's worker count;
    ``elapsed`` is seconds since the first submission and
    ``throughput`` completed solves per second over it (0.0 before any
    work completes).

    The admission fields expose saturation (see
    :mod:`repro.service.admission`):

    * ``rejected`` — submissions turned away with
      :class:`~repro.errors.QueueFull` (immediately, or after a
      ``"block"`` wait timed out);
    * ``shed`` — queued items whose per-request deadline lapsed before
      their flush (futures resolved with
      :class:`~repro.errors.ShedError`);
    * ``queue_limit`` — the service's ``max_queue`` (0 = unbounded);
    * ``saturation`` — occupancy ratio ``(queue_depth + inflight) /
      queue_limit`` (0.0 when unbounded): 1.0 means the next submit
      hits the overload policy.

    The adaptive fields expose the tuning loop:

    * ``adaptive`` — whether the service tunes its own batching;
    * ``limits`` — the per-key ``(max_batch, max_delay)`` overrides
      currently applied to the batcher (empty until the controller
      retunes something);
    * ``tuning`` — the applied
      :class:`~repro.service.adaptive.TuningEvent` trace, oldest
      first (always empty when ``adaptive`` is false);
    * ``solve_latency_by_kind`` — mean wall-clock seconds per flushed
      batch solve, per traffic class (0.0 before any flush of that
      kind completes), measured inside the solve call itself — the
      per-kind latency feedback the controller consumes.

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
    adaptive: bool
    limits: Dict[Any, Tuple[int, float]]
    tuning: Tuple[TuningEvent, ...]
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
    future: "Future[SolveResult]"
    req: int = -1
    kind: str = "eigen"
    tenant: Optional[str] = None


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
        :class:`~repro.service.batcher.MicroBatcher`).  With
        ``adaptive=True`` these are only the *starting* values.
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
        Seconds a ``"block"``-policy submission may wait for capacity.
    default_deadline:
        Default per-request deadline in seconds: a queued item older
        than its deadline is shed (future resolves with
        :class:`~repro.errors.ShedError`) instead of occupying a
        batch.  ``None`` (default) means only submissions with an
        explicit ``deadline`` expire.
    workers:
        ``0``/``1`` solves flushes on the dispatcher thread; ``>= 2``
        fans them out to that many worker processes.
    adaptive:
        Let the service retune ``max_batch``/``max_delay`` per traffic
        key from its own flush/latency observations (see
        :class:`~repro.service.adaptive.AdaptiveController`):
        deadline-dominated keys shrink their delay, size-saturated keys
        grow their batch, within ``tuning_bounds``.  ``False``
        (default) keeps the fixed limits — behaviour is then exactly
        that of a service built without the adaptive machinery.
    tuning_bounds:
        :class:`~repro.service.adaptive.TuningBounds` envelope for the
        controller.  Defaults to ``[1, 8 * max_batch]`` for the batch
        and ``[max_delay / 32, max_delay]`` for the delay, so by
        default adaptation can only *lower* latency and *raise*
        throughput relative to the starting point.
    tuning_policy:
        Pluggable tuning policy (defaults to
        :class:`~repro.service.adaptive.HysteresisPolicy`).
    tuning_window:
        Flushes per key between policy evaluations (the hysteresis
        width; default 8).
    compute_eigenvectors:
        Accumulate eigenvectors for eigen traffic (disable for
        sweep-count-only traffic; results then carry eigenvalue
        magnitudes, not signs — see :class:`SolveResult`).  SVD traffic
        always carries its full (U, S, Vt) factors.
    executor:
        Optionally share a pre-built
        :class:`~repro.service.pool.ShardedExecutor`; it is then not
        shut down by :meth:`close`.
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
        batcher, the admission gate, the adaptive controller and the
        tracer — under a fake clock every traced timestamp is exactly
        pinnable.
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
                 adaptive: bool = False,
                 tuning_bounds: Optional[TuningBounds] = None,
                 tuning_policy: Optional[Any] = None,
                 tuning_window: int = 8,
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
        self.adaptive = bool(adaptive)
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
        if self.adaptive:
            bounds = tuning_bounds if tuning_bounds is not None else \
                TuningBounds(min_batch=1,
                             max_batch=max(1, 8 * int(max_batch)),
                             min_delay=float(max_delay) / 32.0,
                             max_delay=float(max_delay))
            self._controller: Optional[AdaptiveController] = \
                AdaptiveController(bounds=bounds, policy=tuning_policy,
                                   window=tuning_window,
                                   clock=self._clock,
                                   tracer=self._tracer)
        else:
            self._controller = None
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
        self._inflight = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._rejected = 0
        self._shed = 0
        self._pending_remote: Dict["Future[Any]", List["_Item"]] = {}
        self._flushes = {cause: 0 for cause in FLUSH_CAUSES}
        self._submitted_by_kind = {kind: 0 for kind in KINDS}
        self._submitted_by_tenant: Dict[str, int] = {}
        self._batched_items = 0
        self._first_submit: Optional[float] = None
        self._next_request = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _finite_copy(A: np.ndarray) -> np.ndarray:
        # Always copy: the matrix is held across an asynchronous boundary
        # (queued until a flush), so a caller reusing one buffer for
        # successive submits must not retroactively change queued work.
        A = np.array(A, dtype=np.float64, copy=True)
        # NaN or inf never converges: it would hold its whole batch for
        # the sweep budget before failing.
        if not np.isfinite(A).all():
            raise SimulationError("matrix has non-finite (NaN or inf) "
                                  "entries")
        return A

    def _validate(self, A: np.ndarray, d: int) -> np.ndarray:
        A = self._finite_copy(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise SimulationError(
                f"service expects one square matrix per submit, got "
                f"shape {A.shape}")
        m = A.shape[0]
        if m < (1 << (d + 1)):
            raise SimulationError(
                f"matrix dimension {m} too small for a {d}-cube "
                f"(need m >= {1 << (d + 1)})")
        if not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
            raise SimulationError(
                "one-sided Jacobi requires a symmetric matrix")
        return A

    def _validate_svd(self, A: np.ndarray) -> np.ndarray:
        A = self._finite_copy(A)
        if A.ndim != 2:
            raise SimulationError(
                f"service expects one matrix per submit, got shape "
                f"{A.shape}")
        if A.shape[0] < A.shape[1]:
            raise SimulationError(
                f"one-sided SVD expects n >= m (tall or square); got "
                f"{A.shape}; pass A.T and swap U/V for wide matrices")
        return A

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
            ``"eigen"`` (default) queues a symmetric matrix and
            resolves to a :class:`SolveResult`; ``"svd"`` queues a
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
            The matrix is invalid for its kind: non-finite, not
            symmetric (eigen), wide (SVD) or too small for the cube.
        QueueFull
            The service is at its ``max_queue`` bound and the
            admission policy rejected the submission (immediately
            under ``"reject"``, after the wait timed out under
            ``"block"``, or because shedding freed no room under
            ``"shed"``).
        """
        if kind not in KINDS:
            raise SimulationError(
                f"unknown traffic kind {kind!r}; known: {KINDS}")
        if kind == "svd":
            if ordering is not None or d is not None:
                raise SimulationError(
                    "SVD traffic runs the sequential-equivalent "
                    "round-robin engine; ordering/d do not apply")
            A = self._validate_svd(A)
            key = ("svd",) + A.shape
        else:
            name = self.ordering if ordering is None else str(ordering)
            dim = self.d if d is None else int(d)
            get_ordering(name, dim)  # validate before queueing
            A = self._validate(A, dim)
            key = ("eigen", A.shape[0], name, dim)
        future: "Future[Any]" = Future()
        shed: List[_Item] = []
        try:
            with self._cond:
                if self._closed:
                    raise SimulationError("service is closed")
                req = self._next_request
                self._next_request += 1
                if self._tracer is not None:
                    # n/m record the arrival's shape so a trace-driven
                    # replay can regenerate an equivalent workload.
                    self._tracer.emit("submit", request=req, kind=kind,
                                      key=key, tenant=tenant,
                                      meta={"deadline": deadline,
                                            "n": int(A.shape[0]),
                                            "m": int(A.shape[1])})
                decision = self._gate.decide(self._inflight)
                if decision.action == "shed":
                    # At capacity under the shed policy: drop expired
                    # queued items to make room before giving up.
                    shed = self._pop_expired_locked()
                    decision = AdmissionDecision(
                        "admit" if self._inflight < self._gate.max_queue
                        else "reject")
                elif decision.action == "block":
                    while (not self._closed
                           and self._inflight >= self._gate.max_queue):
                        remaining = decision.give_up - self._clock()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                    if self._closed:
                        raise SimulationError("service is closed")
                    decision = AdmissionDecision(
                        "admit" if self._inflight < self._gate.max_queue
                        else "reject")
                if decision.action == "reject":
                    # A rejected submission is still a submission: the
                    # ledger identity (submitted == accounted, see
                    # ServiceStats) needs both sides to move together.
                    if self._first_submit is None:
                        self._first_submit = self._clock()
                    self._submitted += 1
                    self._submitted_by_kind[kind] += 1
                    if tenant is not None:
                        self._submitted_by_tenant[tenant] = \
                            self._submitted_by_tenant.get(tenant, 0) + 1
                    self._rejected += 1
                    if self._tracer is not None:
                        self._tracer.emit(
                            "rejected", request=req, kind=kind, key=key,
                            tenant=tenant,
                            meta={"used": self._inflight,
                                  "max_queue": self._gate.max_queue,
                                  "policy": self._gate.policy})
                    raise QueueFull(
                        f"service queue full: {self._inflight} items "
                        f"queued or in flight at max_queue="
                        f"{self._gate.max_queue} "
                        f"({self._gate.policy} policy)")
                if self._tracer is not None:
                    self._tracer.emit("admitted", request=req, kind=kind,
                                      key=key, tenant=tenant)
                # Queue first, then move the counters: an exception
                # from the batcher must not leak a phantom in-flight
                # item that close() would wait on forever.
                self._batcher.submit(
                    key, _Item(matrix=A, future=future, req=req,
                               kind=kind, tenant=tenant),
                    expires=self._gate.expiry(deadline))
                if self._first_submit is None:
                    self._first_submit = self._clock()
                self._submitted += 1
                self._submitted_by_kind[kind] += 1
                if tenant is not None:
                    self._submitted_by_tenant[tenant] = \
                        self._submitted_by_tenant.get(tenant, 0) + 1
                self._inflight += 1
                if self._tracer is not None:
                    self._tracer.emit(
                        "enqueued", request=req, kind=kind, key=key,
                        tenant=tenant,
                        meta={"queued": self._batcher.pending(),
                              "inflight": self._inflight})
                self._ensure_thread()
                self._cond.notify_all()
        finally:
            self._resolve_shed(shed)
        return future

    def solve_many(self, matrices: Sequence[np.ndarray], *,
                   kind: str = "eigen",
                   ordering: Optional[str] = None,
                   d: Optional[int] = None) -> List[Any]:
        """Submit a whole sequence of ``matrices`` (with the same
        ``kind``/``ordering``/``d`` semantics as :meth:`submit`), force
        a flush, and wait for the results, in input order."""
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
                if not events and not shed:
                    if self._closed and not self._batcher.pending():
                        return
                    deadline = self._batcher.next_deadline()
                    timeout = (None if deadline is None
                               else max(0.0, deadline - self._clock()))
                    self._cond.wait(timeout)
                    continue
            self._resolve_shed(shed)
            for event in events:
                self._dispatch(event)

    def _pop_expired_locked(self) -> List[_Item]:
        """Drop every expired queued item (caller holds ``_cond``).

        Accounts the drop — ``shed`` counter up, in-flight down, the
        adaptive controller told per key so it does not read a shed
        backlog as demand — and wakes any ``"block"``-policy waiter.
        The returned items' futures are still unresolved; the caller
        must hand them to :meth:`_resolve_shed` *after* releasing the
        lock.
        """
        dropped = self._batcher.pop_expired()
        if not dropped:
            return []
        if self._tracer is not None:
            for key, item in dropped:
                self._tracer.emit("expired", request=item.req,
                                  kind=item.kind, key=key,
                                  tenant=item.tenant)
        self._shed += len(dropped)
        self._inflight -= len(dropped)
        if self._controller is not None:
            counts: Dict[Any, int] = {}
            for key, _ in dropped:
                counts[key] = counts.get(key, 0) + 1
            for key, count in counts.items():
                self._controller.record_shed(key, count)
        self._cond.notify_all()
        return [item for _, item in dropped]

    def _resolve_shed(self, items: List[_Item]) -> None:
        """Resolve shed items' futures to ShedError (without ``_cond``
        held — future done-callbacks run inline here)."""
        if not items:
            return
        for item in items:
            try:
                item.future.set_exception(ShedError(
                    "request deadline lapsed before its micro-batch "
                    "flushed; the item was shed, not solved"))
            except InvalidStateError:
                pass  # caller cancelled the future; shed anyway
            if self._tracer is not None:
                self._tracer.emit("shed", request=item.req,
                                  kind=item.kind, tenant=item.tenant)

    def _dispatch(self, event: FlushEvent) -> None:
        # Every exit of this method must settle or fail the items: an
        # escaped exception would kill the dispatcher thread and leave
        # the pending futures (and close()) hanging forever.
        kind = event.key[0]
        items = list(event.items)
        with self._cond:
            self._flushes[event.cause] += 1
            self._batched_items += len(items)
        if self._tracer is not None:
            for item in items:
                self._tracer.emit("flushed", request=item.req,
                                  kind=item.kind, key=event.key,
                                  batch=event.batch, tenant=item.tenant,
                                  meta={"cause": event.cause,
                                        "size": event.size})
        handle: Optional[Any] = None
        try:
            matrices = np.stack([item.matrix for item in items])
            if kind == "svd":
                solve = solve_svd_batch_remote
                payload = {
                    "matrices": matrices, "tol": self.tol,
                    "max_sweeps": self.max_sweeps,
                }
            else:
                _, _, name, dim = event.key
                solve = solve_batch_remote
                payload = {
                    "matrices": matrices, "ordering": name, "d": dim,
                    "tol": self.tol, "max_sweeps": self.max_sweeps,
                    "compute_eigenvectors": self.compute_eigenvectors,
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
            if self._tracer is not None:
                mode = "pool" if use_pool else "inline"
                for item in items:
                    self._tracer.emit("dispatched", request=item.req,
                                      kind=item.kind, batch=event.batch,
                                      tenant=item.tenant,
                                      meta={"mode": mode})
            if use_pool:
                fut = self._executor.submit(solve, wire)
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
            out = self._finalize(solve(wire), handle, event)
        except BaseException as exc:  # noqa: BLE001 - futures carry it
            try:
                self._transport.release(handle)
            except Exception:  # pragma: no cover - cleanup best-effort
                pass
            self._fail(items, exc, event)
            return
        self._observe(event, out.get("elapsed"))
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
        futures, successes feed the adaptive observation loop and
        settle them."""
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
        self._observe(event, out.get("elapsed"))
        self._settle(items, out, event)

    def _observe(self, event: FlushEvent,
                 elapsed: Optional[float]) -> None:
        """Feed one completed flush back into the tuning loop: account
        the per-kind solve latency and let the adaptive controller
        retune the flushed key's batcher limits."""
        with self._cond:
            kind = event.key[0]
            if elapsed is not None:
                self._solve_seconds[kind] += float(elapsed)
                self._solved_batches[kind] += 1
            if self._controller is None:
                return
            decision = self._controller.observe(event,
                                                solve_latency=elapsed)
            if decision is not None:
                self._batcher.set_limits(event.key, decision.batch_to,
                                         decision.delay_to)
                # Wake the dispatcher: a shrunk delay can pull the next
                # deadline earlier than its current wait timeout.
                self._cond.notify_all()

    def _settle(self, items: List[_Item], out: Dict[str, np.ndarray],
                event: Optional[FlushEvent] = None) -> None:
        batch = event.batch if event is not None else None
        if self._tracer is not None:
            worker = out.get("worker")
            worker = None if worker is None else str(worker)
            elapsed = out.get("elapsed")
            for item in items:
                self._tracer.emit("solved", request=item.req,
                                  kind=item.kind, batch=batch,
                                  worker=worker, tenant=item.tenant,
                                  meta={"elapsed": elapsed})
        completed = 0
        cancelled = 0
        for k, item in enumerate(items):
            # Build the result outside the guard: a malformed backend
            # payload must fail the future loudly, never be swallowed.
            try:
                if "S" in out:  # SVD traffic class
                    result: Any = SvdResult(
                        U=out["U"][k], S=out["S"][k], Vt=out["Vt"][k],
                        sweeps=int(out["sweeps"][k]),
                        converged=bool(out["converged"][k]))
                else:
                    result = SolveResult(
                        eigenvalues=out["eigenvalues"][k],
                        eigenvectors=out["eigenvectors"][k],
                        sweeps=int(out["sweeps"][k]),
                        converged=bool(out["converged"][k]))
            except Exception as exc:
                self._fail(items[k:], exc, event)
                break
            if self._tracer is not None:
                self._tracer.emit("merged", request=item.req,
                                  kind=item.kind, batch=batch,
                                  tenant=item.tenant)
            try:
                item.future.set_result(result)
                completed += 1
                if self._tracer is not None:
                    self._tracer.emit("resolved", request=item.req,
                                      kind=item.kind, batch=batch,
                                      tenant=item.tenant)
            except InvalidStateError:
                cancelled += 1  # caller cancelled; result discarded
                if self._tracer is not None:
                    self._tracer.emit("failed", request=item.req,
                                      kind=item.kind, batch=batch,
                                      tenant=item.tenant,
                                      meta={"error": "cancelled"})
        with self._cond:
            self._completed += completed
            self._cancelled += cancelled
            self._inflight -= completed + cancelled
            self._cond.notify_all()

    def _fail(self, items: List[_Item], exc: BaseException,
              event: Optional[FlushEvent] = None) -> None:
        if not items:
            return
        batch = event.batch if event is not None else None
        failed = 0
        cancelled = 0
        for item in items:
            try:
                item.future.set_exception(exc)
                failed += 1
            except InvalidStateError:
                cancelled += 1  # caller cancelled; error discarded
            if self._tracer is not None:
                self._tracer.emit("failed", request=item.req,
                                  kind=item.kind, batch=batch,
                                  tenant=item.tenant,
                                  meta={"error": type(exc).__name__})
        with self._cond:
            self._failed += failed
            self._cancelled += cancelled
            self._inflight -= failed + cancelled
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
        front-end layers emit their own stages (e.g. the gateway's
        ``"throttled"``) into the same timeline."""
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
            return self._inflight, self._gate.max_queue

    def stats(self) -> ServiceStats:
        """Snapshot the service counters.

        Returns
        -------
        ServiceStats
            Queue/throughput counters plus — when the service is
            adaptive — the per-key limit overrides and the applied
            tuning trace, and the transport's data-plane counters
            (see :class:`ServiceStats`).  The snapshot is consistent:
            every field is read in one critical section of the
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
            elapsed = (0.0 if self._first_submit is None
                       else self._clock() - self._first_submit)
            batches = sum(self._flushes.values())
            queued = self._batcher.pending()
            return ServiceStats(
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                cancelled=self._cancelled,
                queue_depth=queued,
                inflight=self._inflight - queued,
                rejected=self._rejected,
                shed=self._shed,
                queue_limit=self._gate.max_queue,
                saturation=(self._inflight / self._gate.max_queue
                            if self._gate.bounded else 0.0),
                flushes=dict(self._flushes),
                submitted_by_kind=dict(self._submitted_by_kind),
                batches=batches,
                mean_batch_size=(self._batched_items / batches
                                 if batches else 0.0),
                workers=self.workers,
                elapsed=elapsed,
                throughput=(self._completed / elapsed
                            if elapsed > 0 else 0.0),
                adaptive=self.adaptive,
                limits=self._batcher.overrides(),
                tuning=(self._controller.trace()
                        if self._controller is not None else ()),
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
                "adaptive": self.adaptive,
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
                if not self._inflight:
                    break
                self._cond.wait(timeout=0.25)
                if not self._inflight:
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
