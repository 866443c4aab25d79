"""Shared deterministic testkit for the service-layer suites.

The admission, tracing, gateway and tenancy suites all pin
time-dependent behaviour without sleeping: every component under test
is clock-injected, so a :class:`FakeClock` advanced by hand makes every
deadline, expiry, quota refill and trace timestamp exactly reproducible.
Before this module each suite carried its own copy of the clock, the
matrix factory and the stub executors; they are extracted here so the
copies cannot drift and so new suites (the async gateway ones) start
from the same vocabulary.

Contents
--------
* :class:`FakeClock` — a callable monotonic clock advanced explicitly.
* :func:`make_matrices` — seeded symmetric test matrices (the ``_mats``
  helper the service suites share).
* :class:`ManualExecutor` — a pool stand-in whose futures the test
  resolves by hand: a held flush keeps its solver slot busy, as
  production load does, and makes dispatcher sleep/wake behaviour
  observable.
* :class:`HangingExecutor` — a pool stand-in whose futures never
  resolve (for overload-safe shutdown tests).
* :class:`StubService` — a deterministic :class:`JacobiService` stand-in
  for gateway/tenancy tests: records submissions, enforces an optional
  queue bound, and lets the test settle each future explicitly
  (solve / shed / fail / cancel) in any interleaving.
* :func:`stages_by_request` — trace-collection helper: the lifecycle
  stage sequence per traced request.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, InvalidStateError
from typing import Any, Dict, List, Optional

from repro.errors import QueueFull, ShedError
from repro.jacobi import make_symmetric_test_matrix

__all__ = [
    "FakeClock",
    "make_matrices",
    "ManualExecutor",
    "HangingExecutor",
    "StubService",
    "stages_by_request",
]


class FakeClock:
    """A callable monotonic clock the test advances explicitly."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_matrices(m: int, count: int, seed: int = 0) -> List[Any]:
    """``count`` seeded symmetric ``(m, m)`` test matrices."""
    return [make_symmetric_test_matrix(m, rng=(seed, k))
            for k in range(count)]


class ManualExecutor:
    """Pool stand-in whose futures the test resolves by hand, making
    the dispatcher's sleep/wake behaviour observable: a dispatched
    flush sits unresolved until the test computes it, exactly like a
    busy worker process.

    ``workers`` is the worker count the service reads to count its
    free solver slots (left unset, the executor reports none, like a
    duck-typed pool).  ``workers=0`` models a pool whose every worker
    is busy with other work: queued items then wait for their size or
    deadline flush.  Use it as a context manager inside the service's
    ``with`` block — leaving it calls :meth:`release`, so a failing
    test cannot hang ``close()`` on a held flush.  A flush that raises
    fails its future, as a worker pool's does.
    """

    uses_processes = True
    broken = False

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None:
            self.workers = workers
        self.calls: List[Any] = []
        self.auto = False  # released: resolve on submit
        self._held: List[Any] = []
        self._cond = threading.Condition()

    def submit(self, fn: Any, *args: Any) -> "Future[Any]":
        fut: "Future[Any]" = Future()
        with self._cond:
            self.calls.append((fn, args, fut))
            run_now = self.auto
            if not run_now:
                self._held.append((fn, args, fut))
            self._cond.notify_all()
        if run_now:
            _run_into(fut, fn, args)
        return fut

    def wait_for_calls(self, n: int, timeout: float) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: len(self.calls) >= n,
                                       timeout)

    def resolve_all(self) -> None:
        """Compute every held flush inline (runs the service's
        completion callbacks on this thread)."""
        with self._cond:
            held, self._held = self._held, []
        for fn, args, fut in held:
            _run_into(fut, fn, args)

    def release(self) -> None:
        """Stop holding: resolve every held flush now and every later
        one as it is submitted."""
        with self._cond:
            self.auto = True
        self.resolve_all()

    def shutdown(self, wait: bool = True) -> None:
        pass

    def __enter__(self) -> "ManualExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


def _run_into(fut: "Future[Any]", fn: Any, args: Any) -> None:
    """Settle ``fut`` with ``fn(*args)``, or with the error it raised."""
    try:
        result = fn(*args)
    except Exception as exc:
        fut.set_exception(exc)
    else:
        fut.set_result(result)


class HangingExecutor:
    """Pool stand-in whose futures never resolve — for pinning
    overload-safe shutdown (a broken pool must not hang ``close()``)."""

    uses_processes = True
    broken = False

    def submit(self, fn: Any, *args: Any) -> "Future[Any]":
        return Future()  # never resolves

    def shutdown(self, wait: bool = True) -> None:
        pass


class StubService:
    """Deterministic :class:`~repro.service.api.JacobiService` stand-in.

    The gateway and tenancy property tests need to drive arbitrary
    interleavings of submit / solve / cancel / shed without threads or
    real solves.  ``submit`` records the call and hands back an
    unresolved future; the test then settles futures explicitly, in any
    order, via :meth:`resolve` / :meth:`shed` / :meth:`fail`.  An
    optional ``max_queue`` makes ``submit`` raise
    :class:`~repro.errors.QueueFull` at capacity (counting unsettled
    futures, like the real service counts queued plus in-flight).
    """

    def __init__(self, clock: Optional[Any] = None,
                 max_queue: int = 0) -> None:
        self._clock = clock if clock is not None else FakeClock()
        self.max_queue = int(max_queue)
        #: One record per accepted submission:
        #: ``{"matrix", "kind", "deadline", "tenant", "future"}``.
        self.calls: List[Dict[str, Any]] = []

    @property
    def clock(self) -> Any:
        return self._clock

    @property
    def tracer(self) -> Optional[Any]:
        return None

    def occupancy(self) -> tuple:
        """(used, bound): unsettled futures vs ``max_queue``."""
        used = sum(1 for c in self.calls if not c["future"].done())
        return used, self.max_queue

    def submit(self, A: Any, *, kind: str = "eigen",
               ordering: Optional[str] = None, d: Optional[int] = None,
               deadline: Optional[float] = None,
               tenant: Optional[str] = None) -> "Future[Any]":
        used, bound = self.occupancy()
        if bound and used >= bound:
            raise QueueFull(
                f"stub queue full: {used} at max_queue={bound}")
        fut: "Future[Any]" = Future()
        self.calls.append({"matrix": A, "kind": kind,
                           "deadline": deadline, "tenant": tenant,
                           "future": fut})
        return fut

    def _settle(self, i: int, *, result: Any = None,
                exc: Optional[BaseException] = None) -> None:
        fut = self.calls[i]["future"]
        try:
            if exc is not None:
                fut.set_exception(exc)
            else:
                fut.set_result(result)
        except InvalidStateError:
            pass  # caller cancelled first; that interleaving is legal

    def resolve(self, i: int, result: Any = "solved") -> None:
        """Settle submission ``i`` with a result."""
        self._settle(i, result=result)

    def shed(self, i: int) -> None:
        """Settle submission ``i`` with :class:`ShedError`."""
        self._settle(i, exc=ShedError("stub shed"))

    def fail(self, i: int,
             exc: Optional[BaseException] = None) -> None:
        """Settle submission ``i`` with an error."""
        self._settle(i, exc=exc if exc is not None
                     else RuntimeError("stub failure"))

    def stats(self) -> None:  # pragma: no cover - parity placeholder
        raise NotImplementedError("StubService keeps no ServiceStats")


def stages_by_request(timeline: Any) -> Dict[int, List[str]]:
    """Lifecycle stage sequence per traced request, in ``seq`` order."""
    return {req: [ev.stage for ev in events]
            for req, events in timeline.by_request().items()}
