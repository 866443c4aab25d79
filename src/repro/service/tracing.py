"""Life-of-a-request tracing: a lock-safe, bounded, clock-injected tracer.

:class:`Tracer` is the service stack's single event sink.  Every
instrumented component — the facade
(:class:`~repro.service.api.JacobiService`, whose request events are
the moves through :data:`~repro.analysis.events.LIFECYCLE`), the
gateway's request-less refusals, the batcher, the admission gate, the
batch transport (segment ``"attached"``/``"detached"`` edges, see
:data:`~repro.analysis.events.TRANSPORT_STAGES`) — holds an optional
reference and calls
:meth:`Tracer.emit` at each lifecycle edge; the tracer stamps a global
sequence number and a timestamp from its injected clock and appends a
:class:`~repro.analysis.events.TraceEvent` to a bounded ring buffer
(oldest events drop first, so a long-running service never grows its
trace without bound — :meth:`Tracer.dropped` reports how many fell
off).

Zero overhead when disabled is a design contract, not an aspiration:
components normalise a disabled tracer to ``None`` via
:func:`resolve_tracer` at construction, so every emit site on the hot
path is literally one ``is not None`` check — the disabled service runs
the exact code the untraced service always ran
(``benchmarks/test_bench_tracing.py`` pins the resulting throughput to
the untraced baseline).

The tracer takes its *own* lock around the ring buffer (never the
service's condition lock), so events may be emitted from the submit
path, the dispatcher thread and pool callback threads concurrently;
``seq`` is the authoritative global order (a fake clock can stand still
across many events).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, Optional, Tuple

from ..analysis.events import EventTimeline, TraceEvent
from ..errors import SimulationError

__all__ = ["DEFAULT_TRACE_CAPACITY", "Tracer", "NullTracer",
           "NULL_TRACER", "resolve_tracer"]

#: Ring-buffer capacity a :class:`Tracer` retains by default — roughly
#: 6500 fully-traced requests (a request emits ~10 events).
DEFAULT_TRACE_CAPACITY = 65536


class Tracer:
    """Bounded, thread-safe event sink for the service stack.

    Parameters
    ----------
    clock:
        Monotonic time source (injectable for tests); event timestamps
        are seconds since the tracer's construction (its *epoch*).
    capacity:
        Ring-buffer size in events (>= 1); the oldest events drop
        first once full (see :meth:`dropped`).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if int(capacity) < 1:
            raise SimulationError(
                f"trace capacity must be >= 1, got {capacity}")
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._events: Deque[TraceEvent] = deque(maxlen=int(capacity))
        self._seq = 0
        self.capacity = int(capacity)

    @property
    def enabled(self) -> bool:
        """Always True — see :class:`NullTracer` for the disabled
        twin."""
        return True

    @property
    def epoch(self) -> float:
        """The clock value event timestamps are relative to."""
        return self._epoch

    def emit(self, stage: str, *, request: Optional[int] = None,
             kind: Optional[str] = None,
             key: Optional[Hashable] = None,
             batch: Optional[int] = None,
             worker: Optional[str] = None,
             tenant: Optional[str] = None,
             meta: Optional[Dict[str, Any]] = None) -> None:
        """Record one event.

        Parameters
        ----------
        stage:
            A stage of the request lifecycle table
            :data:`~repro.analysis.events.LIFECYCLE`, or a component
            event name (``"flush"``, ``"overload"``, the
            :data:`~repro.analysis.events.TRANSPORT_STAGES`).
        request:
            The request id the event belongs to, when any.
        kind:
            Traffic class (``"eigen"`` / ``"svd"``), when known.
        key:
            The batching key; stringified here so events stay
            JSON-serialisable whatever the key type.
        batch:
            The micro-batch id, when the event belongs to one.
        worker:
            Worker attribution (stringified pid or ``"inline"``) for
            solve events.
        tenant:
            Tenant label of the request, when multi-tenant accounting
            is in play — lets
            :meth:`~repro.analysis.events.EventTimeline.by_tenant`
            slice one shared timeline per tenant.
        meta:
            Stage-specific details; stored as given (callers pass
            fresh dicts).
        """
        now = self._clock() - self._epoch
        if key is not None and not isinstance(key, str):
            key = repr(key)
        with self._lock:
            self._events.append(TraceEvent(
                seq=self._seq, t=now, stage=stage, request=request,
                kind=kind, key=key, batch=batch, worker=worker,
                tenant=tenant,
                meta=meta if meta is not None else {}))
            self._seq += 1

    def events(self) -> Tuple[TraceEvent, ...]:
        """Snapshot the retained events, oldest first."""
        with self._lock:
            return tuple(self._events)

    def dropped(self) -> int:
        """Events lost to the ring bound so far."""
        with self._lock:
            return self._seq - len(self._events)

    def timeline(self, source: str = "service",
                 meta: Optional[Dict[str, Any]] = None) -> EventTimeline:
        """Snapshot the retained events as an
        :class:`~repro.analysis.events.EventTimeline`.

        Parameters
        ----------
        source:
            Provenance tag for the timeline.
        meta:
            Run-level metadata to attach; the tracer adds its own
            ``capacity`` and ``dropped`` counters.
        """
        with self._lock:
            events = tuple(self._events)
            dropped = self._seq - len(self._events)
        out_meta = dict(meta) if meta is not None else {}
        out_meta.setdefault("capacity", self.capacity)
        out_meta.setdefault("dropped", dropped)
        return EventTimeline(source=source, events=events, meta=out_meta)


class NullTracer:
    """The disabled tracer: accepts every call, records nothing.

    Useful as an explicit "tracing off" argument;
    :func:`resolve_tracer` normalises it (and ``None``) to ``None`` so
    instrumented components pay a single ``is not None`` check per
    potential event — the zero-overhead disabled path.
    """

    enabled = False
    capacity = 0

    def emit(self, stage: str, **kwargs: Any) -> None:
        """Discard one event.

        Parameters
        ----------
        stage:
            Ignored.
        kwargs:
            Ignored.
        """

    def events(self) -> Tuple[TraceEvent, ...]:
        """Always empty."""
        return ()

    def dropped(self) -> int:
        """Always 0."""
        return 0

    def timeline(self, source: str = "service",
                 meta: Optional[Dict[str, Any]] = None) -> EventTimeline:
        """An empty timeline.

        Parameters
        ----------
        source:
            Provenance tag for the (empty) timeline.
        meta:
            Metadata to attach verbatim.
        """
        return EventTimeline(source=source, events=(),
                             meta=dict(meta) if meta is not None else {})


#: A shared disabled tracer, for callers who want an explicit object.
NULL_TRACER = NullTracer()


def resolve_tracer(tracer: Optional[Any]) -> Optional[Tracer]:
    """Normalise a tracer argument to ``Tracer`` or ``None``.

    Parameters
    ----------
    tracer:
        ``None``, a :class:`Tracer`, or anything with a falsy
        ``enabled`` attribute (e.g. :data:`NULL_TRACER`).

    Returns
    -------
    Tracer or None
        ``None`` unless ``tracer`` is enabled — so instrumented
        components guard every emit with one ``is not None`` check and
        the disabled path costs nothing.
    """
    if tracer is None or not getattr(tracer, "enabled", False):
        return None
    return tracer
