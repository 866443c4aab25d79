"""Unified event timelines: one schema for measured and simulated runs.

The paper argues by *accounting for where time goes* — per-stage link
timelines under the C-cube cost model.  This module is the shared
vocabulary that lets the repo make the same argument about the live
service: a :class:`TraceEvent` is one typed record of something
happening at a point in time, an :class:`EventTimeline` is an ordered
bundle of them plus provenance metadata, and both serialise to a stable
JSON schema (``repro-trace/v1``) so simulated communication traces
(:class:`~repro.simulator.trace.CommunicationTrace`) and measured
service traces (:meth:`~repro.service.api.JacobiService.trace`) are
analysable with one toolchain.

For service traces the module also derives the analyses the raw events
exist for:

* :data:`LIFECYCLE` — the request lifecycle, declared once: each
  stage's rank in the partial order ``submit -> admitted/rejected ->
  enqueued -> expired/shed | flushed -> dispatched -> solved -> merged
  -> resolved/failed/cancelled`` and the ledger bucket a request enters
  there.  The service's ``stats()`` counters, its trace events, the
  gateway's per-tenant ledger and every analysis below are moves
  through, or reads of, this one table;
* :func:`validate_lifecycles` — every request must follow that order
  with monotone timestamps and exactly one terminal stage;
* :func:`request_spans` / :func:`stage_percentiles` — per-request
  latency breakdowns (queue-wait vs dispatch vs solve vs merge) and
  their distribution;
* :func:`worker_utilisation` — per-worker busy time reconstructed from
  ``solved`` events;
* :func:`tenant_breakdown` — per-tenant ledger buckets and latency.

Simulator traces round-trip losslessly: :func:`comm_trace_to_timeline`
maps every :class:`~repro.simulator.trace.CommRecord` onto one event
(cumulative simulated cost as the timestamp) and
:func:`comm_records_from_timeline` rebuilds the records exactly.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import QueueFull, QuotaExceeded, ShedError, SimulationError
from ..simulator.trace import CommRecord, CommunicationTrace

__all__ = [
    "TRACE_SCHEMA",
    "LIFECYCLE",
    "REQUEST_STAGES",
    "TERMINAL_STAGES",
    "TRANSPORT_STAGES",
    "TraceEvent",
    "EventTimeline",
    "settled_bucket",
    "validate_lifecycles",
    "request_spans",
    "stage_percentiles",
    "worker_utilisation",
    "tenant_breakdown",
    "comm_trace_to_timeline",
    "comm_records_from_timeline",
]

#: JSON schema tag written by :meth:`EventTimeline.to_json` and required
#: by :meth:`EventTimeline.from_json`.
TRACE_SCHEMA = "repro-trace/v1"

#: The request lifecycle, declared once: stage -> (rank, the ledger
#: bucket a request enters there or ``None``).  A request's ranks never
#: decrease (stages share a rank when either may come first).
#: ``"enqueued"`` enters the open bucket; each other bucket is entered,
#: from it, at the one terminal stage that settles the request —
#: ``"shed"`` (``"cancelled"`` if the caller cancelled first) together
#: with ``"expired"``, so the freed capacity counts at once.  The gateway emits its refusals (``"throttled"``, and
#: ``"rejected"`` for priority headroom) without a request id;
#: ``"throttled"`` has no rank because it never belongs to a service
#: request.  Other stages (``"flush"``, ``"overload"``,
#: :data:`TRANSPORT_STAGES`, simulator records) are not request
#: lifecycle stages.
LIFECYCLE: Dict[str, Tuple[Optional[int], Optional[str]]] = {
    "submit": (0, None),
    "admitted": (1, None),
    "rejected": (1, "rejected"),
    "throttled": (None, "throttled"),
    "enqueued": (2, "open"),
    "expired": (3, None),
    "flushed": (3, None),
    "shed": (4, "shed"),
    "dispatched": (4, None),
    "solved": (5, None),
    "merged": (6, None),
    "resolved": (7, "completed"),
    "failed": (7, "failed"),
    "cancelled": (7, "cancelled"),
}

#: The ranked stages of :data:`LIFECYCLE` — the partial order
#: :func:`validate_lifecycles` checks.
REQUEST_STAGES: Dict[str, int] = {
    stage: rank for stage, (rank, _) in LIFECYCLE.items()
    if rank is not None}

#: Stages that end a request's lifecycle — those entering a settled
#: bucket; every traced request must reach exactly one of them.
TERMINAL_STAGES = frozenset(
    stage for stage in REQUEST_STAGES
    if LIFECYCLE[stage][1] not in (None, "open"))

#: Stage -> the ledger bucket it enters, for the stages that enter one.
_BUCKET_OF = {stage: bucket for stage, (_, bucket) in LIFECYCLE.items()
              if bucket is not None}

#: Batch-level data-plane edges emitted by a shared-memory transport
#: (see :mod:`repro.service.transport`): ``"attached"`` when a flush's
#: segment is filled and handed to the dispatch (meta carries the
#: segment name, its byte size and whether the ring reused a warm
#: buffer), ``"detached"`` when the results have been copied out and
#: the segment returned to the ring.  Not request lifecycle stages —
#: they carry a ``batch`` id, no ``request``.
TRANSPORT_STAGES = ("attached", "detached")


@dataclass(frozen=True)
class TraceEvent:
    """One typed, timestamped record of something happening.

    Attributes
    ----------
    seq:
        Global emission order (ties in ``t`` are broken by ``seq``; a
        fake clock can stand still while many events fire).
    t:
        Seconds since the timeline's epoch (the tracer's construction
        for service traces; cumulative simulated cost for simulator
        traces).
    stage:
        What happened — a :data:`REQUEST_STAGES` lifecycle edge, a
        batch-level ``"flush"`` or :data:`TRANSPORT_STAGES` edge, a
        gate ``"overload"``, or a simulator record kind.
    request:
        The request id the event belongs to (``None`` for events not
        tied to one request, e.g. batch-level flushes).
    kind:
        Traffic class (``"eigen"`` / ``"svd"``) or ``"comm"`` for
        simulator records.
    key:
        The batching key, stringified (``None`` when not applicable).
    batch:
        The micro-batch id the event belongs to (the simulator's sweep
        index for comm records; ``None`` when not applicable).
    worker:
        Worker attribution (stringified pid) for ``solved`` events of
        pool-dispatched batches; ``"inline"`` for dispatcher-thread
        solves; ``None`` elsewhere.
    tenant:
        Tenant label of the request under multi-tenant accounting (see
        :mod:`repro.service.gateway`); ``None`` for single-tenant
        traffic and non-request events.  Omitted from the serialised
        form when ``None``, so the ``repro-trace/v1`` schema is
        unchanged for existing traces.
    meta:
        Stage-specific details (flush cause, elapsed solve seconds,
        error type, ...).  Values must be JSON-serialisable.
    """

    seq: int
    t: float
    stage: str
    request: Optional[int] = None
    kind: Optional[str] = None
    key: Optional[str] = None
    batch: Optional[int] = None
    worker: Optional[str] = None
    tenant: Optional[str] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (compact: ``None`` fields and empty ``meta``
        are omitted)."""
        out: Dict[str, Any] = {"seq": self.seq, "t": self.t,
                               "stage": self.stage}
        for name in ("request", "kind", "key", "batch", "worker",
                     "tenant"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(seq=int(data["seq"]), t=float(data["t"]),
                   stage=str(data["stage"]),
                   request=data.get("request"),
                   kind=data.get("kind"), key=data.get("key"),
                   batch=data.get("batch"), worker=data.get("worker"),
                   tenant=data.get("tenant"),
                   meta=dict(data.get("meta", {})))


@dataclass(frozen=True)
class EventTimeline:
    """An ordered bundle of events plus provenance metadata.

    Attributes
    ----------
    source:
        Where the events came from (``"service"`` / ``"simulator"`` /
        free-form).
    events:
        The events, in ``seq`` order.
    meta:
        Run-level provenance (service settings, machine description,
        dropped-event count, ...); JSON-serialisable values only.
    """

    source: str
    events: Tuple[TraceEvent, ...]
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds between the first and last event (0.0 when fewer
        than two events)."""
        if len(self.events) < 2:
            return 0.0
        return self.events[-1].t - self.events[0].t

    def by_request(self) -> Dict[int, List[TraceEvent]]:
        """Events grouped per request id, each group in ``seq`` order
        (events with ``request=None`` are excluded)."""
        out: Dict[int, List[TraceEvent]] = {}
        for ev in self.events:
            if ev.request is not None:
                out.setdefault(ev.request, []).append(ev)
        return out

    def by_tenant(self) -> Dict[str, List[TraceEvent]]:
        """Events grouped per tenant label, each group in ``seq``
        order (events with ``tenant=None`` are excluded) — the
        timeline slice one tenant's requests drew on a shared
        service."""
        out: Dict[str, List[TraceEvent]] = {}
        for ev in self.events:
            if ev.tenant is not None:
                out.setdefault(ev.tenant, []).append(ev)
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, tagged with :data:`TRACE_SCHEMA`."""
        return {"schema": TRACE_SCHEMA, "source": self.source,
                "meta": self.meta,
                "events": [ev.to_dict() for ev in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EventTimeline":
        """Rebuild a timeline from :meth:`to_dict` output (validates
        the schema tag)."""
        schema = data.get("schema")
        if schema != TRACE_SCHEMA:
            raise SimulationError(
                f"not a {TRACE_SCHEMA} document (schema={schema!r})")
        return cls(source=str(data.get("source", "")),
                   events=tuple(TraceEvent.from_dict(e)
                                for e in data.get("events", [])),
                   meta=dict(data.get("meta", {})))

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise to JSON.

        Parameters
        ----------
        indent:
            Pretty-print indent (``None`` for compact output).
        """
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "EventTimeline":
        """Parse :meth:`to_json` output back into an equal timeline."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Service-trace analyses
# ----------------------------------------------------------------------
#: Exceptions that settle a request in a bucket other than ``failed``.
_ERROR_BUCKETS = ((ShedError, "shed"), (QueueFull, "rejected"),
                  (QuotaExceeded, "throttled"))


def settled_bucket(future: Any) -> str:
    """The ledger bucket a done (concurrent or asyncio) ``future``
    settles its request in: ``"cancelled"``, ``"completed"``, ``"shed"``
    (:class:`~repro.errors.ShedError`), ``"rejected"``
    (:class:`~repro.errors.QueueFull`), ``"throttled"``
    (:class:`~repro.errors.QuotaExceeded`) or ``"failed"``."""
    if future.cancelled():
        return "cancelled"
    exc = future.exception()
    if exc is None:
        return "completed"
    for error, bucket in _ERROR_BUCKETS:
        if isinstance(exc, error):
            return bucket
    return "failed"


def validate_lifecycles(timeline: EventTimeline) -> Dict[int, str]:
    """Check every traced request for a complete, ordered lifecycle.

    Parameters
    ----------
    timeline:
        A service timeline (events with ``request=None`` are ignored).

    Returns
    -------
    dict
        ``request -> problem`` for every request whose events are
        missing a ``submit``, reach no (or more than one) terminal
        stage, regress in the :data:`REQUEST_STAGES` partial order, or
        carry non-monotone timestamps.  Empty means every lifecycle is
        complete and ordered.
    """
    problems: Dict[int, str] = {}
    for req, events in timeline.by_request().items():
        stages = [ev.stage for ev in events
                  if ev.stage in REQUEST_STAGES]
        if not stages or stages[0] != "submit":
            problems[req] = f"does not start with submit: {stages}"
            continue
        terminals = [s for s in stages if s in TERMINAL_STAGES]
        if len(terminals) != 1 or stages[-1] not in TERMINAL_STAGES:
            problems[req] = (f"expected exactly one terminal stage at "
                             f"the end, got {stages}")
            continue
        ranks = [REQUEST_STAGES[s] for s in stages]
        if any(b < a for a, b in zip(ranks, ranks[1:])):
            problems[req] = f"stage order regressed: {stages}"
            continue
        ts = [ev.t for ev in events]
        if any(b < a for a, b in zip(ts, ts[1:])):
            problems[req] = f"timestamps regressed: {ts}"
    return problems


def request_spans(timeline: EventTimeline) -> Dict[int, Dict[str, Any]]:
    """Per-request latency breakdown.

    Parameters
    ----------
    timeline:
        A service timeline.

    Returns
    -------
    dict
        ``request -> {"outcome", "queue", "dispatch", "solve",
        "merge", "total"}``.  ``outcome`` is the terminal stage reached
        (``"open"`` when none); the spans are seconds between the
        stages bounding them — ``queue`` is enqueued->flushed,
        ``dispatch`` flushed->dispatched, ``solve`` the solved event's
        measured ``elapsed`` (falling back to dispatched->solved),
        ``merge`` solved->terminal, ``total`` submit->terminal — and
        ``None`` when the request never reached the bounding stages
        (e.g. a rejected request has only ``total``).
    """
    out: Dict[int, Dict[str, Any]] = {}
    for req, events in timeline.by_request().items():
        first: Dict[str, TraceEvent] = {}
        for ev in events:
            first.setdefault(ev.stage, ev)

        def _gap(a: str, b: str) -> Optional[float]:
            if a in first and b in first:
                return first[b].t - first[a].t
            return None

        terminal = next((ev.stage for ev in events
                         if ev.stage in TERMINAL_STAGES), "open")
        solve = None
        if "solved" in first:
            solve = first["solved"].meta.get("elapsed")
            if solve is None:
                solve = _gap("dispatched", "solved")
        out[req] = {
            "outcome": terminal,
            "queue": _gap("enqueued", "flushed"),
            "dispatch": _gap("flushed", "dispatched"),
            "solve": solve,
            "merge": _gap("solved", terminal),
            "total": _gap("submit", terminal),
        }
    return out


def stage_percentiles(timeline: EventTimeline,
                      percentiles: Tuple[float, ...] = (50.0, 99.0)
                      ) -> Dict[str, Dict[str, float]]:
    """Distribution of the per-request latency spans.

    Parameters
    ----------
    timeline:
        A service timeline.
    percentiles:
        Which percentiles to report (default p50 and p99).

    Returns
    -------
    dict
        ``span -> {"count", "mean", "p50", "p99", ...}`` in seconds,
        for each of the :func:`request_spans` spans (``queue`` /
        ``dispatch`` / ``solve`` / ``merge`` / ``total``) that at
        least one request completed.
    """
    samples: Dict[str, List[float]] = {}
    for spans in request_spans(timeline).values():
        for name, value in spans.items():
            if name != "outcome" and value is not None:
                samples.setdefault(name, []).append(float(value))
    out: Dict[str, Dict[str, float]] = {}
    for name in ("queue", "dispatch", "solve", "merge", "total"):
        values = samples.get(name)
        if not values:
            continue
        arr = np.asarray(values)
        row = {"count": float(arr.size), "mean": float(arr.mean())}
        for p in percentiles:
            row[f"p{p:g}"] = float(np.percentile(arr, p))
        out[name] = row
    return out


def worker_utilisation(timeline: EventTimeline
                       ) -> Dict[str, Dict[str, float]]:
    """Per-worker busy time reconstructed from ``solved`` events.

    Every solved batch carries its worker attribution and measured
    solve seconds; one batch is counted once per worker however many
    requests it contained.

    Parameters
    ----------
    timeline:
        A service timeline.

    Returns
    -------
    dict
        ``worker -> {"batches", "items", "busy", "utilisation"}`` —
        batches solved, items they contained, busy seconds, and busy
        seconds over the timeline's duration (0.0 when the duration
        is 0).
    """
    batches: Dict[Tuple[str, Optional[int]], float] = {}
    items: Dict[str, int] = {}
    for ev in timeline.events:
        if ev.stage != "solved" or ev.worker is None:
            continue
        items[ev.worker] = items.get(ev.worker, 0) + 1
        elapsed = float(ev.meta.get("elapsed") or 0.0)
        batches.setdefault((ev.worker, ev.batch), elapsed)
    duration = timeline.duration
    out: Dict[str, Dict[str, float]] = {}
    for (worker, _), elapsed in batches.items():
        row = out.setdefault(worker, {"batches": 0.0, "items": 0.0,
                                      "busy": 0.0, "utilisation": 0.0})
        row["batches"] += 1
        row["busy"] += elapsed
    for worker, row in out.items():
        row["items"] = float(items.get(worker, 0))
        row["utilisation"] = (row["busy"] / duration
                              if duration > 0 else 0.0)
    return out


def tenant_breakdown(timeline: EventTimeline,
                     percentiles: Tuple[float, ...] = (50.0, 99.0)
                     ) -> Dict[str, Dict[str, Any]]:
    """Per-tenant request accounting over a shared timeline.

    A request belongs to the tenant stamped on its events (its first
    tenant-carrying event wins; requests without one are excluded) and
    lands in the :data:`LIFECYCLE` bucket of its terminal stage
    (``"open"`` while it has none); a request-less gateway refusal
    lands in its stage's bucket.  The counts are thus the gateway's
    :class:`~repro.service.gateway.TenantStats` for the same run.

    Parameters
    ----------
    timeline:
        A service timeline with ``tenant=`` attributes (see
        :mod:`repro.service.gateway`).
    percentiles:
        Which total-latency percentiles to report per tenant.

    Returns
    -------
    dict
        ``tenant -> {"requests", "outcomes", <bucket>..., "total"}`` —
        service requests attributed to the tenant, their terminal stage
        (or ``open``) counts, one count per ledger bucket, and the
        solved-only (``resolved``) total-latency distribution
        ``{"count", "mean", "p50", "p99", ...}`` in seconds (absent
        when the tenant had no resolved request).
    """
    out: Dict[str, Dict[str, Any]] = defaultdict(lambda: {
        "requests": 0, "outcomes": {},
        **dict.fromkeys(_BUCKET_OF.values(), 0)})
    tenant_of: Dict[int, str] = {}
    for ev in timeline.events:
        if ev.tenant is None:
            continue
        if ev.request is not None:
            tenant_of.setdefault(ev.request, ev.tenant)
        elif ev.stage in _BUCKET_OF:
            out[ev.tenant][_BUCKET_OF[ev.stage]] += 1
    totals: Dict[str, List[float]] = {}
    spans = request_spans(timeline)
    for req, tenant in tenant_of.items():
        row = out[tenant]
        row["requests"] += 1
        span = spans[req]
        outcome = span["outcome"]
        row["outcomes"][outcome] = row["outcomes"].get(outcome, 0) + 1
        row[_BUCKET_OF.get(outcome, "open")] += 1
        if outcome == "resolved" and span["total"] is not None:
            totals.setdefault(tenant, []).append(float(span["total"]))
    for tenant, values in totals.items():
        arr = np.asarray(values)
        total = {"count": float(arr.size), "mean": float(arr.mean())}
        for p in percentiles:
            total[f"p{p:g}"] = float(np.percentile(arr, p))
        out[tenant]["total"] = total
    return dict(out)


# ----------------------------------------------------------------------
# Simulator-trace interchange
# ----------------------------------------------------------------------
def comm_trace_to_timeline(trace: CommunicationTrace) -> EventTimeline:
    """Export a simulated communication trace to the shared schema.

    Parameters
    ----------
    trace:
        The :class:`~repro.simulator.trace.CommunicationTrace` a
        simulator run accumulated.

    Returns
    -------
    EventTimeline
        One event per :class:`~repro.simulator.trace.CommRecord`:
        ``stage`` is the record kind, ``t`` the cumulative simulated
        cost after the step, ``batch`` the sweep index, and ``meta``
        the remaining record fields (tuples stored as lists so the
        timeline is JSON-round-trip stable).  The timeline ``meta``
        records the machine description and total cost.
    """
    events: List[TraceEvent] = []
    t = 0.0
    for seq, rec in enumerate(trace.records):
        t += rec.cost
        events.append(TraceEvent(
            seq=seq, t=t, stage=rec.kind, kind="comm",
            batch=rec.sweep,
            meta={"links": list(rec.links),
                  "packets_per_link": list(rec.packets_per_link),
                  "packet_elems": rec.packet_elems,
                  "cost": rec.cost, "phase": rec.phase}))
    return EventTimeline(
        source="simulator", events=tuple(events),
        meta={"machine": trace.machine.describe(),
              "total_cost": trace.total_cost,
              "num_steps": trace.num_steps})


def comm_records_from_timeline(timeline: EventTimeline
                               ) -> List[CommRecord]:
    """Rebuild the simulator records from an exported timeline.

    Parameters
    ----------
    timeline:
        A :func:`comm_trace_to_timeline` export (possibly after a JSON
        round trip).

    Returns
    -------
    list of CommRecord
        Field-identical to the records the export was built from.
    """
    records: List[CommRecord] = []
    for ev in timeline.events:
        meta = ev.meta
        records.append(CommRecord(
            kind=ev.stage,
            links=tuple(int(x) for x in meta["links"]),
            packets_per_link=tuple(int(x)
                                   for x in meta["packets_per_link"]),
            packet_elems=float(meta["packet_elems"]),
            cost=float(meta["cost"]),
            phase=int(meta["phase"]),
            sweep=int(ev.batch) if ev.batch is not None else 0))
    return records
