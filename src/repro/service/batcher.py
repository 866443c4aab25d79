"""Micro-batching: group streaming submissions, release them as batches.

The batched engine is fastest when it sees many same-shape matrices at
once, but a *service* receives matrices one at a time.
:class:`MicroBatcher` is the traffic shaper between the two: items are
queued per key — the service keys by kind-tagged tuples,
``("eigen", m, ordering, d)`` or ``("svd", n, m)``, so every flush is
exactly one batched-engine call of one traffic class
(:class:`~repro.engine.batched.BatchedOneSidedJacobi` or
:class:`~repro.engine.svd.BatchedOneSidedSVD`) — and a group is
released when it

* reaches ``max_batch`` items (a **size** flush — full batches, maximum
  throughput), or
* has waited ``max_delay`` seconds since its oldest item arrived (a
  **deadline** flush — bounded latency while every solver is busy), or
* is the oldest group when the owner has a solver free and nothing
  else is ready (an **idle** flush, :meth:`pop_idle` — a free solver
  never waits out a deadline), or
* is explicitly drained (a **forced** flush — e.g. on shutdown or
  :meth:`~repro.service.api.JacobiService.flush`).

One ``max_batch``/``max_delay`` pair applies to every key, and
``max_batch`` caps every release.

Releases are numbered: every :class:`FlushEvent` carries a
monotonically increasing ``batch`` id, which is what ties a request's
trace events (``flushed`` / ``dispatched`` / ``solved``) to the
micro-batch that carried it.  When the batcher is built with a
:class:`~repro.service.tracing.Tracer` it also emits one batch-level
``"flush"`` event per release (size, cause, wait).

Items can additionally carry a per-item *expiry* (an absolute clock
value): :meth:`pop_expired` removes and returns everything past its
expiry so the owner can shed stale work instead of batching it — the
hook behind the service's deadline-based admission policy
(:mod:`repro.service.admission`).  Expiries participate in
:meth:`next_deadline`, so a dispatcher sleeping on the batcher wakes in
time to shed.

The class is deliberately *passive*: it never spawns threads or sleeps.
Callers inject a ``clock`` and drive :meth:`pop_ready` and
:meth:`pop_idle` themselves — :class:`~repro.service.api.JacobiService`
does so from its dispatcher thread, and the unit tests do so with a
fake clock, which is what makes the release semantics exactly
pinnable.  It is **not** thread-safe; the owner serialises access (the
service holds its condition lock around every call).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..errors import SimulationError
from .tracing import resolve_tracer

__all__ = ["FLUSH_CAUSES", "FlushEvent", "MicroBatcher"]

#: Flush causes reported on :class:`FlushEvent` (and counted by the
#: service stats).
FLUSH_CAUSES = ("size", "deadline", "idle", "forced")


@dataclass(frozen=True)
class FlushEvent:
    """One released micro-batch.

    Attributes
    ----------
    key:
        The grouping key the items were queued under.
    items:
        The queued payloads, in arrival order.
    cause:
        One of :data:`FLUSH_CAUSES`: ``"size"`` (the group reached
        ``max_batch``), ``"deadline"`` (its oldest item waited
        ``max_delay``), ``"idle"`` (a solver was free, see
        :meth:`MicroBatcher.pop_idle`) or ``"forced"`` (a drain).
    waited:
        Seconds the oldest released item spent queued.
    batch:
        Monotonically increasing release id assigned by the batcher
        (-1 for events constructed outside one) — the join key between
        a request's trace events and its micro-batch.
    """

    key: Hashable
    items: Tuple[Any, ...]
    cause: str
    waited: float
    batch: int = -1

    @property
    def size(self) -> int:
        """Items released by this flush."""
        return len(self.items)


@dataclass
class _Group:
    items: List[Any] = field(default_factory=list)
    arrived: List[float] = field(default_factory=list)
    expires: List[Optional[float]] = field(default_factory=list)


class MicroBatcher:
    """Queue items per key; release micro-batches by size, deadline,
    idle solver or drain.

    Parameters
    ----------
    max_batch:
        Items per size-triggered flush (>= 1), and a hard ceiling on
        every release: oversized groups always come out as several
        full batches (the remainder waits for its deadline or an idle
        release, or is chunked on a drain).
    max_delay:
        Seconds a group's oldest item may wait before a deadline flush
        (finite and >= 0; ``0`` releases on the next poll).
    clock:
        Monotonic time source (injectable for tests).
    tracer:
        Optional :class:`~repro.service.tracing.Tracer`; when enabled,
        every release additionally emits a batch-level ``"flush"``
        event (``None`` or a disabled tracer costs nothing).
    """

    def __init__(self, max_batch: int = 16, max_delay: float = 0.02,
                 clock: Callable[[], float] = time.monotonic,
                 tracer: Optional[Any] = None) -> None:
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        if self.max_batch < 1:
            raise SimulationError(f"max_batch must be >= 1, got {max_batch}")
        if not (math.isfinite(self.max_delay) and self.max_delay >= 0):
            raise SimulationError(
                f"max_delay must be finite and >= 0, got {max_delay}")
        self._clock = clock
        self._tracer = resolve_tracer(tracer)
        self._groups: Dict[Hashable, _Group] = {}
        self._next_batch = 0

    # ------------------------------------------------------------------
    def submit(self, key: Hashable, item: Any,
               now: Optional[float] = None,
               expires: Optional[float] = None) -> bool:
        """Queue one item.

        Parameters
        ----------
        key:
            Grouping key; items only ever share a flush with their key.
        item:
            Opaque payload, handed back in the :class:`FlushEvent`.
        now:
            Clock override (defaults to the injected clock).
        expires:
            Absolute clock value past which the item is stale and
            should be shed via :meth:`pop_expired` rather than flushed
            (``None`` = never expires).

        Returns
        -------
        bool
            True when the group is now size-ready (the caller should
            :meth:`pop_ready` promptly).
        """
        now = self._clock() if now is None else now
        group = self._groups.setdefault(key, _Group())
        group.items.append(item)
        group.arrived.append(now)
        group.expires.append(None if expires is None else float(expires))
        return len(group.items) >= self.max_batch

    def pending(self) -> int:
        """Queued items across all groups."""
        return sum(len(g.items) for g in self._groups.values())

    def group_sizes(self) -> Dict[Hashable, int]:
        """Queue depth per key (insertion-ordered)."""
        return {key: len(g.items) for key, g in self._groups.items()}

    def next_deadline(self) -> Optional[float]:
        """Clock value at which the earliest group flushes *or the
        earliest item expires* (None when empty) — what a dispatcher
        thread should sleep until.  Item expiries (see :meth:`submit`)
        are folded in so the owner wakes in time to shed stale work."""
        deadlines = [g.arrived[0] + self.max_delay
                     for g in self._groups.values()]
        deadlines.extend(e for g in self._groups.values()
                         for e in g.expires if e is not None)
        if not deadlines:
            return None
        return min(deadlines)

    def pop_expired(self, now: Optional[float] = None
                    ) -> List[Tuple[Hashable, Any]]:
        """Remove and return every item past its expiry.

        Parameters
        ----------
        now:
            Clock override (defaults to the injected clock).

        Returns
        -------
        list of (key, item)
            The stale payloads in arrival order per key, removed from
            their groups — the caller sheds them (fails their futures)
            instead of ever batching them.  Items submitted without an
            expiry are never returned; every other item is either
            returned or kept, never lost.
        """
        now = self._clock() if now is None else now
        dropped: List[Tuple[Hashable, Any]] = []
        for key in list(self._groups):
            group = self._groups[key]
            stale = [e is not None and e <= now for e in group.expires]
            if not any(stale):
                continue
            dropped.extend((key, item)
                           for item, s in zip(group.items, stale) if s)
            keep = [k for k, s in enumerate(stale) if not s]
            group.items = [group.items[k] for k in keep]
            group.arrived = [group.arrived[k] for k in keep]
            group.expires = [group.expires[k] for k in keep]
            if not group.items:
                del self._groups[key]
        return dropped

    # ------------------------------------------------------------------
    def _release(self, key: Hashable, count: int, cause: str,
                 now: float) -> FlushEvent:
        group = self._groups[key]
        items = tuple(group.items[:count])
        waited = now - group.arrived[0]
        del group.items[:count]
        del group.arrived[:count]
        del group.expires[:count]
        if not group.items:
            del self._groups[key]
        batch_id = self._next_batch
        self._next_batch += 1
        if self._tracer is not None:
            self._tracer.emit(
                "flush", key=key, batch=batch_id,
                meta={"size": len(items), "cause": cause,
                      "waited": waited})
        return FlushEvent(key=key, items=items, cause=cause, waited=waited,
                          batch=batch_id)

    def pop_ready(self, now: Optional[float] = None) -> List[FlushEvent]:
        """Release every size-ready batch and every expired group.

        Parameters
        ----------
        now:
            Clock override (defaults to the injected clock).

        Returns
        -------
        list of FlushEvent
            Size flushes come out as full ``max_batch`` chunks in
            arrival order; a remainder below ``max_batch`` is released
            only once its oldest item has waited ``max_delay``.
        """
        now = self._clock() if now is None else now
        events: List[FlushEvent] = []
        for key in list(self._groups):
            while (key in self._groups
                   and len(self._groups[key].items) >= self.max_batch):
                events.append(self._release(key, self.max_batch, "size",
                                            now))
            if (key in self._groups
                    and now - self._groups[key].arrived[0]
                    >= self.max_delay):
                events.append(self._release(
                    key, len(self._groups[key].items), "deadline", now))
        return events

    def pop_idle(self, now: Optional[float] = None
                 ) -> Optional[FlushEvent]:
        """Release the oldest group now (cause ``"idle"``).

        The owner calls this when a solver is free and :meth:`pop_ready`
        had nothing to release, so queued work never waits out
        ``max_delay`` beside an idle solver.

        Parameters
        ----------
        now:
            Clock override (defaults to the injected clock).

        Returns
        -------
        FlushEvent or None
            The group whose oldest item arrived first (ties go to the
            key queued first), up to ``max_batch`` of its items; the
            remainder stays queued.  ``None`` when nothing is queued.
        """
        if not self._groups:
            return None
        now = self._clock() if now is None else now
        key = min(self._groups, key=lambda k: self._groups[k].arrived[0])
        count = min(len(self._groups[key].items), self.max_batch)
        return self._release(key, count, "idle", now)

    def drain(self, now: Optional[float] = None) -> List[FlushEvent]:
        """Release everything immediately (cause ``"forced"``).

        Parameters
        ----------
        now:
            Clock override (defaults to the injected clock).

        Returns
        -------
        list of FlushEvent
            Every queued item, chunked: ``max_batch`` stays a hard
            ceiling, so an oversized group comes out as several chunks,
            never one giant batch.
        """
        now = self._clock() if now is None else now
        events: List[FlushEvent] = []
        for key in list(self._groups):
            while key in self._groups:
                count = min(len(self._groups[key].items), self.max_batch)
                events.append(self._release(key, count, "forced", now))
        return events
