"""Per-layer instrumentation for the traced run.

Everything here wraps the program from outside, through the seams its
public API already offers — a :class:`~repro.ScheduleCache` subclass
passed as ``cache=``, a :class:`~repro.service.Transport` passed as
``transport=``, a :class:`~repro.ShardedExecutor` subclass passed as
``executor=``, a delegating service handed to
:class:`~repro.service.AsyncGateway` — and records *spans* (name, start,
end, parent, request id) in the harness's own :class:`SpanLog`.  Spans
inside the program are a later change; the service's own
``repro-trace/v1`` events (``JacobiService(trace=True)``) supply the
in-service stages.

:func:`service_layers` turns a traced service phase into the ``service``
and ``engine`` per-layer metrics; :func:`self_times` gives each span
name's self time (its duration minus what its child spans cover).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import ScheduleCache, ShardedExecutor
from repro.analysis.events import EventTimeline, request_spans
from repro.errors import QueueFull
from repro.service import SharedMemoryTransport, Transport

from spec import percentile
from traffic import clock

#: ``[name, start, end, parent, request]``.
_Span = List[Any]


class SpanLog:
    """In-memory spans, written out when the run ends.

    A span is ``[name, start, end, parent, request]``; ``parent`` is the
    index of the enclosing span, ``request`` the service's request id
    (joined on submission order).  Appends are atomic under the GIL, so
    pool callback threads may record too.
    """

    def __init__(self) -> None:
        self.spans: List[_Span] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None,
            request: Optional[int] = None) -> int:
        """Record one span; returns its index (the id children use)."""
        self.spans.append([name, start, end, parent, request])
        return len(self.spans) - 1

    def open(self, name: str, parent: Optional[int] = None) -> int:
        """Start a span now; :meth:`close` ends it."""
        now = clock()
        return self.add(name, now, now, parent)

    def close(self, span: int) -> None:
        """End the span :meth:`open` returned."""
        self.spans[span][2] = clock()

    def to_list(self, epoch: float) -> List[Dict[str, Any]]:
        """The spans as JSON-ready dicts, times in seconds since
        ``epoch`` (the service tracer's, so they line up with its
        events)."""
        return [{"id": k, "name": name, "start": start - epoch,
                 "end": end - epoch, "parent": parent, "request": request}
                for k, (name, start, end, parent, request)
                in enumerate(self.spans)]


def self_times(spans: Sequence[_Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and median self time in ms.

    A span's self time is its duration minus the part of it covered by
    the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    per_name: Dict[str, List[float]] = {}
    for k, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(k, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        per_name.setdefault(name, []).append((end - start - covered) * 1e3)
    return {name: {"count": float(len(v)), "total_ms": sum(v),
                   "p50_ms": percentile(v, 50)}
            for name, v in per_name.items()}


class TimingScheduleCache(ScheduleCache):
    """A :class:`~repro.ScheduleCache` that times every miss (the
    schedule builds) and records each as an ``orderings.build`` span
    under :attr:`parent`."""

    def __init__(self, spans: SpanLog) -> None:
        super().__init__()
        self.spans = spans
        self.parent: Optional[int] = None
        self.build_s = 0.0

    def _timed(self, lookup: Any, *args: Any) -> Any:
        misses = self.cache_info().misses
        t0 = clock()
        out = lookup(*args)
        if self.cache_info().misses != misses:
            t1 = clock()
            self.build_s += t1 - t0
            self.spans.add("orderings.build", t0, t1, self.parent)
        return out

    def get_schedule(self, ordering: Any, sweep: int = 0) -> Any:
        return self._timed(super().get_schedule, ordering, sweep)

    def get_phase_sequences(self, ordering: Any) -> Any:
        return self._timed(super().get_phase_sequences, ordering)


class TimingTransport(Transport):
    """Delegates to a :class:`~repro.service.SharedMemoryTransport`,
    timing ``prepare`` and ``finalize`` as ``transport.*`` spans."""

    name = "shm"

    def __init__(self, spans: SpanLog) -> None:
        self.inner = SharedMemoryTransport()
        self.spans = spans
        self.prepare_s: List[float] = []
        self.finalize_s: List[float] = []

    def prepare(self, payload: Dict[str, Any], kind: str) -> Any:
        t0 = clock()
        out = self.inner.prepare(payload, kind)
        t1 = clock()
        self.prepare_s.append(t1 - t0)
        self.spans.add("transport.prepare", t0, t1)
        return out

    def finalize(self, out: Dict[str, Any], handle: Any) -> Dict[str, Any]:
        t0 = clock()
        result = self.inner.finalize(out, handle)
        t1 = clock()
        self.finalize_s.append(t1 - t0)
        self.spans.add("transport.finalize", t0, t1)
        return result

    def release(self, handle: Any) -> None:
        self.inner.release(handle)

    def close(self) -> None:
        self.inner.close()

    def stats(self) -> Any:
        return self.inner.stats()


class TimingExecutor(ShardedExecutor):
    """A :class:`~repro.ShardedExecutor` that records each pool round
    trip (dispatch to result back in this process) as a ``pool.roundtrip``
    span, and the part of it the worker did not spend solving."""

    def __init__(self, workers: int, spans: SpanLog, **kwargs: Any) -> None:
        super().__init__(workers, **kwargs)
        self.spans = spans
        self.ipc_s: List[float] = []

    def submit(self, fn: Any, *args: Any) -> Any:
        t0 = clock()
        fut = super().submit(fn, *args)
        fut.add_done_callback(lambda f, t0=t0: self._returned(t0, f))
        return fut

    def _returned(self, t0: float, fut: Any) -> None:
        t1 = clock()
        self.spans.add("pool.roundtrip", t0, t1)
        if fut.exception() is None:
            elapsed = fut.result().get("elapsed")
            if elapsed is not None:
                self.ipc_s.append(t1 - t0 - float(elapsed))


class AdmitTimingService:
    """Delegating service handed to the gateway in place of the real one.

    The harness sets :attr:`current` to the outcome it is about to
    ``await gateway.submit`` for; the gateway reaches :meth:`submit`
    synchronously within that call, so each proxied submit is joined to
    its outcome, and the gap from the outcome's ``sent`` to the entry
    here is the gateway's own admission work.  Each call that reaches
    the service's ledger gets the next request id (the service numbers
    submissions in the same order)."""

    def __init__(self, inner: Any, first_request: int = 0) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self.current: Any = None
        self.next_request = first_request
        #: ``(outcome, entry, exit, request id)`` per proxied submit.
        self.calls: List[Tuple[Any, float, float, Optional[int]]] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def submit(self, A: Any, **kwargs: Any) -> Any:
        entry = clock()
        request: Optional[int] = None
        try:
            future = self._inner.submit(A, **kwargs)
        except QueueFull:
            request = self._take_id()  # rejected, but on the ledger
            raise
        else:
            request = self._take_id()
            return future
        finally:
            self.calls.append((self.current, entry, clock(), request))

    def _take_id(self) -> int:
        with self._lock:
            request = self.next_request
            self.next_request += 1
        return request


def service_layers(timeline: EventTimeline, requests: range,
                   wall: float, workers: int) -> Dict[str, float]:
    """The ``service.*`` and ``engine.*`` metrics of one traced phase.

    Only requests whose id is in ``requests`` (the measured phase's) and
    the batches that carried them count; ``wall`` is the phase's length
    in seconds and ``workers`` the pool size (busy time is averaged over
    the workers that could have been busy).
    """
    spans = request_spans(timeline)
    queue, dispatch, settle, unattributed = [], [], [], []
    for req in requests:
        s = spans.get(req)
        if s is None or s["outcome"] != "resolved":
            continue
        queue.append(s["queue"] * 1e3)
        dispatch.append(s["dispatch"] * 1e3)
        settle.append(s["merge"] * 1e3)
        unattributed.append((s["total"] - s["queue"] - s["dispatch"]
                             - s["solve"] - s["merge"]) * 1e3)
    batches: Dict[int, Dict[str, Any]] = {}
    for ev in timeline.events:
        if ev.batch is None or ev.request not in requests:
            continue
        b = batches.setdefault(ev.batch, {"items": 0, "kind": ev.kind})
        if ev.stage == "flushed":
            b["items"] += 1
            b["cause"] = ev.meta.get("cause")
        elif ev.stage == "solved":
            b["elapsed"] = float(ev.meta.get("elapsed") or 0.0)
    solved = [b for b in batches.values() if "elapsed" in b]
    out = {
        "service.queue_ms_p50": percentile(queue, 50),
        "service.queue_ms_p99": percentile(queue, 99),
        "service.dispatch_ms_p50": percentile(dispatch, 50),
        "service.settle_ms_p50": percentile(settle, 50),
        "service.unattributed_ms_p50": percentile(unattributed, 50),
        "service.deadline_flush_frac": (
            sum(b.get("cause") == "deadline" for b in batches.values())
            / max(1, len(batches))),
        "engine.batch_size_mean": (sum(b["items"] for b in batches.values())
                                   / max(1, len(batches))),
        "engine.busy_frac": (sum(b["elapsed"] for b in solved)
                             / (wall * max(1, workers))),
    }
    for kind in ("eigen", "svd"):
        ms = [b["elapsed"] * 1e3 for b in solved if b["kind"] == kind]
        out[f"engine.{kind}.solve_ms_p50"] = percentile(ms, 50)
        out[f"engine.{kind}.solve_ms_p99"] = percentile(ms, 99)
    return out
