"""The async multi-tenant QoS gateway over :class:`JacobiService`.

One shared service, many tenants: :class:`AsyncGateway` is the
control-plane layer that keeps them honest.  ``await
gateway.submit(A, tenant="acme", priority="bronze", deadline=0.2)``
walks one request through three QoS stages before any matrix touches
the shared queue:

1. **Scoped config** — the request's effective knobs resolve through
   :class:`~repro.service.tenancy.GatewayConfig` (request > tenant >
   global, per field — see :mod:`repro.service.tenancy`).
2. **Quota** — the tenant's :class:`~repro.service.tenancy.TokenBucket`
   (rate/burst) must yield a token, else the request is *throttled*:
   :class:`~repro.errors.QuotaExceeded` is raised, a request-less
   ``"throttled"`` trace event is emitted with the ``tenant=``
   attribute, and the shared service never sees the request.
3. **Priority headroom** — a submission of priority weight ``w`` may
   only occupy ``max(1, floor(max_queue * w / W))`` of the service's
   admission bound: bronze floods start bouncing off
   :class:`~repro.errors.QueueFull` (a request-less ``"rejected"``
   event with ``reason: "priority"``) while gold still has reserved
   queue headroom.  The shared service's own
   :class:`~repro.service.admission.AdmissionGate` policies
   (reject/block/shed) then apply unchanged to whatever the gateway
   lets through.

Requests that pass are handed to
:meth:`~repro.service.api.JacobiService.submit` with the resolved
deadline and the ``tenant=`` label (so service counters and every
trace event slice per tenant), and the returned
:class:`concurrent.futures.Future` is bridged to the caller's event
loop with :func:`asyncio.wrap_future`.

Each attempt lands in one bucket of the service's own lifecycle table
(:data:`~repro.analysis.events.LIFECYCLE`): the per-tenant
:class:`TenantStats` ledger uses its bucket names, a settled future
maps to its bucket through
:func:`~repro.analysis.events.settled_bucket`, and the request-less
refusals above enter the buckets their stages name — so
:func:`~repro.analysis.events.tenant_breakdown` of a trace reproduces
each tenant's ledger.

QoS only ever decides *whether* work runs, never *how*: an admitted
matrix is batched, solved and settled exactly as a direct
``service.submit`` — bit-identity against the sequential twin holds
through the gateway for every worker count and transport
(``tests/test_gateway.py`` pins this).

Determinism: the gateway holds no clock of its own — quota buckets
run on the *service's* injected clock, so one fake clock pins every
QoS decision end to end, and the asyncio side is pure bookkeeping
(no sleeps, no timers).  With the service's ``"block"`` admission
policy, the potentially-blocking ``submit`` call is pushed off the
event loop onto an executor the caller may inject.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from ..analysis.events import settled_bucket
from ..errors import QueueFull, QuotaExceeded
from .tenancy import (
    PRIORITY_CLASSES,
    GatewayConfig,
    ResolvedTenantConfig,
    TokenBucket,
)

__all__ = ["TenantStats", "GatewayStats", "AsyncGateway"]

#: The heaviest priority weight — the denominator of every headroom
#: slice.
_MAX_WEIGHT = max(PRIORITY_CLASSES.values())


@dataclass(frozen=True)
class TenantStats:
    """One tenant's gateway-side ledger.

    ``submitted`` counts every :meth:`AsyncGateway.submit` attempt for
    the tenant; each lands in exactly one bucket of the lifecycle
    table (:data:`~repro.analysis.events.LIFECYCLE`) —
    ``throttled`` (quota denied, service never saw it), ``rejected``
    (:class:`~repro.errors.QueueFull`: priority headroom or the
    service's admission policy), ``shed`` (deadline lapsed in queue),
    ``completed``, ``failed``, ``cancelled``, or still ``pending`` (the
    open bucket) — so :attr:`accounted` equals ``submitted`` at every
    instant, the same ledger identity the service's
    :attr:`~repro.service.api.ServiceStats.accounted` keeps
    (``tests/test_property_tenancy.py`` pins it under arbitrary
    interleavings).  These fields are the gateway's one declaration of
    its bucket names.
    """

    submitted: int = 0
    throttled: int = 0
    rejected: int = 0
    shed: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    pending: int = 0

    @property
    def accounted(self) -> int:
        """Sum of every outcome bucket; always ``== submitted``."""
        return sum(getattr(self, name) for name in _LEDGER[1:])


#: The :class:`TenantStats` fields: ``submitted``, then every bucket.
_LEDGER = tuple(f.name for f in fields(TenantStats))


@dataclass(frozen=True)
class GatewayStats:
    """Gateway-wide snapshot: per-tenant ledgers plus their totals.

    Attributes
    ----------
    tenants:
        One immutable :class:`TenantStats` ledger per tenant name that
        has ever submitted through the gateway.
    """

    tenants: Dict[str, TenantStats] = field(default_factory=dict)

    @property
    def total(self) -> TenantStats:
        """All tenants' ledgers summed into one."""
        return TenantStats(**{
            name: sum(getattr(stats, name)
                      for stats in self.tenants.values())
            for name in _LEDGER})


class _TenantState:
    """Mutable per-tenant state behind the gateway's lock."""

    __slots__ = ("bucket", "counters")

    def __init__(self) -> None:
        self.bucket: Optional[TokenBucket] = None
        self.counters: Dict[str, int] = dict.fromkeys(_LEDGER, 0)


class AsyncGateway:
    """Asyncio front end multiplexing tenants onto one service.

    Parameters
    ----------
    service:
        The shared :class:`~repro.service.api.JacobiService` (the
        gateway does not own it — closing the gateway never closes the
        service).
    config:
        The scoped :class:`~repro.service.tenancy.GatewayConfig`; a
        bare default config means "no QoS" — every request admitted
        straight through, which is what keeps the gateway path
        bit-identical to direct ``service.submit``.
    executor:
        Where a ``"block"``-admission service's (potentially blocking)
        ``submit`` runs so it cannot stall the event loop; ``None``
        uses the loop's default executor.  Ignored for the
        non-blocking ``reject``/``shed`` policies.

    The gateway is usable as an async context manager (``async with
    AsyncGateway(svc) as gw: ...``); exit is bookkeeping-only.
    """

    def __init__(self, service: Any,
                 config: Optional[GatewayConfig] = None,
                 executor: Optional[Any] = None) -> None:
        self._service = service
        self.config = config if config is not None else GatewayConfig()
        self._executor = executor
        self._clock = service.clock
        self._lock = threading.Lock()
        self._states: Dict[str, _TenantState] = {}

    # ------------------------------------------------------------------
    @property
    def service(self) -> Any:
        """The shared service behind the gateway."""
        return self._service

    def _state(self, tenant: str) -> _TenantState:
        state = self._states.get(tenant)
        if state is None:
            state = self._states.setdefault(tenant, _TenantState())
        return state

    def _bucket(self, state: _TenantState,
                cfg: ResolvedTenantConfig) -> Optional[TokenBucket]:
        """The tenant's quota bucket (built lazily; rebuilt when the
        tenant-scope rate/burst changed).  Quota is a *tenant* budget:
        request-scope overrides never swap the shared bucket."""
        if cfg.rate is None:
            return None
        bucket = state.bucket
        if (bucket is None or bucket.rate != cfg.rate
                or bucket.burst != cfg.burst):
            bucket = TokenBucket(rate=cfg.rate, burst=cfg.burst,
                                 clock=self._clock)
            state.bucket = bucket
        return bucket

    def _headroom(self, cfg: ResolvedTenantConfig) -> Tuple[bool, int, int]:
        """Whether the priority class still has queue headroom, plus
        the observed ``(used, allowed)`` occupancy.

        Top-weight (gold) traffic always passes: its slice is the
        whole queue, and whether a full queue rejects, blocks or
        sheds is the *service's* admission policy to decide — which
        is also what keeps the default (all-gold) gateway a pure
        pass-through."""
        used, bound = self._service.occupancy()
        if bound <= 0 or cfg.weight >= _MAX_WEIGHT:
            return True, used, bound
        allowed = max(1, (bound * cfg.weight) // _MAX_WEIGHT)
        return used < allowed, used, allowed

    def _count(self, tenant: str, **moves: int) -> None:
        with self._lock:
            counters = self._state(tenant).counters
            for name, delta in moves.items():
                counters[name] += delta

    def _emit(self, stage: str, tenant: str, kind: str,
              meta: Dict[str, Any]) -> None:
        tracer = self._service.tracer
        if tracer is not None:
            tracer.emit(stage, kind=kind, tenant=tenant, meta=meta)

    # ------------------------------------------------------------------
    async def submit(self, A: Any, *, tenant: str = "default",
                     kind: str = "eigen",
                     ordering: Optional[str] = None,
                     d: Optional[int] = None,
                     priority: Optional[str] = None,
                     deadline: Optional[float] = None) -> Any:
        """Submit one matrix on a tenant's behalf; await its result.

        Parameters
        ----------
        A, kind, ordering, d:
            Passed through to
            :meth:`~repro.service.api.JacobiService.submit` untouched.
        tenant:
            The tenant label; resolves that tenant's configured scope.
        priority, deadline:
            Request-scope overrides of the tenant's resolved
            ``priority`` / ``deadline`` knobs (``None`` = not set at
            this scope).

        Returns
        -------
        The per-matrix result (``SolveResult`` / ``SvdResult``),
        bit-identical to a direct ``service.submit`` of the same
        matrix.

        Raises
        ------
        QuotaExceeded
            The tenant's token bucket is empty (the service never saw
            the request).
        QueueFull
            The priority class's queue headroom is exhausted, or the
            service's own admission policy rejected the request.
        ShedError
            The request's deadline lapsed while queued.
        """
        tenant = str(tenant)
        cfg = self.config.resolve(
            tenant, {"priority": priority, "deadline": deadline})
        with self._lock:
            state = self._state(tenant)
            state.counters["submitted"] += 1
            bucket = self._bucket(state, cfg)
            admitted = bucket is None or bucket.try_take()
            if not admitted:
                state.counters["throttled"] += 1
                tokens = bucket.available()
        if not admitted:
            self._emit("throttled", tenant, kind,
                       {"reason": "quota", "rate": cfg.rate,
                        "burst": cfg.burst, "tokens": tokens,
                        "priority": cfg.priority})
            raise QuotaExceeded(
                f"tenant {tenant!r} is over its rate quota "
                f"({cfg.rate}/s, burst {cfg.burst}); retry later")
        ok, used, allowed = self._headroom(cfg)
        if not ok:
            self._count(tenant, rejected=1)
            self._emit("rejected", tenant, kind,
                       {"reason": "priority", "priority": cfg.priority,
                        "used": used, "allowed": allowed})
            raise QueueFull(
                f"priority {cfg.priority!r} headroom exhausted for "
                f"tenant {tenant!r}: {used} items occupy its "
                f"{allowed}-slot slice of the queue")
        try:
            if getattr(self._service, "admission", None) == "block":
                # A block-policy submit may sleep on the service's
                # condition variable; keep that off the event loop.
                loop = asyncio.get_running_loop()
                future = await loop.run_in_executor(
                    self._executor, lambda: self._service.submit(
                        A, kind=kind, ordering=ordering, d=d,
                        deadline=cfg.deadline, tenant=tenant))
            else:
                future = self._service.submit(
                    A, kind=kind, ordering=ordering, d=d,
                    deadline=cfg.deadline, tenant=tenant)
        except QueueFull:
            self._count(tenant, rejected=1)
            raise
        except BaseException:
            # Synchronous validation failures and the like: still one
            # submission, so it must land in an outcome bucket.
            self._count(tenant, failed=1)
            raise
        self._count(tenant, pending=1)
        future.add_done_callback(
            lambda fut, t=tenant: self._settled(t, fut))
        return await asyncio.wrap_future(future)

    def _settled(self, tenant: str, future: Any) -> None:
        """Move one service future from ``pending`` to the bucket its
        outcome settles it in (runs on whatever thread settled the
        future; called exactly once per pending item)."""
        self._count(tenant, pending=-1, **{settled_bucket(future): 1})

    # ------------------------------------------------------------------
    def stats(self) -> GatewayStats:
        """Snapshot every tenant's gateway ledger (consistent: taken
        in one critical section)."""
        with self._lock:
            return GatewayStats(tenants={
                tenant: TenantStats(**state.counters)
                for tenant, state in self._states.items()})

    async def __aenter__(self) -> "AsyncGateway":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        return None
