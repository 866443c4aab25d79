"""Load generation: seeded arrival schedules and the drivers that replay them.

All load comes from one thread of one process (the asyncio driver runs
on one event loop), so the generator never asks for more cores than the
2-core host has beside the service it measures.

* :func:`open_loop` / :func:`open_loop_async` send each request at its
  scheduled instant whether or not earlier ones have finished.  Latency
  runs from the *scheduled* send time to the future resolving, so when
  the service stalls, every request due during the stall is charged the
  wait instead of being sent late and timed from then.  How late the
  generator itself ran is kept per request (:attr:`Outcome.lag`).
* :func:`closed_loop` keeps a fixed window of requests outstanding and
  sends the next one only when one completes.

The program only ever sees the generated matrices: the seed stays here.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, List, Optional, Sequence, Set

import numpy as np

from repro.errors import AdmissionError, ReproError

#: The clock behind every harness timestamp.  It is also the service
#: tracer's default clock, so harness spans and service trace events
#: share one time base.
clock = time.monotonic


@dataclass(frozen=True)
class Request:
    """One generated request: the matrix, its traffic class and tenant,
    and whether it is a non-finite correctness probe."""

    matrix: np.ndarray
    kind: str = "eigen"
    tenant: Optional[str] = None
    probe: bool = False


@dataclass
class Outcome:
    """What happened to one sent request.

    ``due`` is the scheduled send time, ``sent`` when the generator
    actually called the program, ``submit_s`` how long that call took
    and ``done`` when the result (or error) arrived.  ``ok`` is set by
    the output checks.
    """

    request: Request
    due: float
    sent: float = 0.0
    submit_s: float = 0.0
    done: Optional[float] = None
    result: Any = None
    error: Optional[BaseException] = None
    future: Optional[Future] = None
    ok: bool = False

    @property
    def refused(self) -> bool:
        """Turned away by admission or quota, not failed."""
        return isinstance(self.error, AdmissionError)

    @property
    def latency(self) -> Optional[float]:
        """Seconds from the scheduled send to the result."""
        return None if self.done is None else self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent this request late."""
        return self.sent - self.due


def poisson_offsets(rate: float, seconds: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Send offsets of a Poisson process at ``rate`` per second over
    ``seconds``, conditioned on exactly ``round(rate * seconds)``
    arrivals (sorted uniform times), so every run of a workload sends
    the same number of requests whatever the seed."""
    count = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=count))


def _keep(exc: BaseException) -> BaseException:
    # A kept traceback pins its frames; tens of thousands of refusals
    # would then load the garbage collector, whose pauses the latency
    # samples would charge to the service.
    return exc.with_traceback(None)


def _settle(out: Outcome, fut: Future) -> None:
    out.done = clock()
    exc = fut.exception()
    if exc is None:
        out.result = fut.result()
    else:
        out.error = _keep(exc)


def _send(submit: Callable[[Request], Future], request: Request,
          due: float) -> Outcome:
    out = Outcome(request=request, due=due)
    out.sent = clock()
    try:
        fut = submit(request)
    except ReproError as exc:  # refused or rejected at submit()
        out.submit_s = clock() - out.sent
        out.done = out.sent + out.submit_s
        out.error = _keep(exc)
        return out
    out.submit_s = clock() - out.sent
    out.future = fut
    fut.add_done_callback(functools.partial(_settle, out))
    return out


def open_loop(submit: Callable[[Request], Future],
              requests: Sequence[Request],
              offsets: Sequence[float]) -> List[Outcome]:
    """Send ``requests[k]`` at ``offsets[k]`` seconds from now through
    ``submit`` (which returns a future); returns the outcomes in send
    order.  Results keep arriving after this returns: :func:`wait_all`."""
    outcomes = []
    start = clock()
    for request, offset in zip(requests, offsets):
        due = start + float(offset)
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        outcomes.append(_send(submit, request, due))
    return outcomes


def closed_loop(submit: Callable[[Request], Future],
                make_request: Callable[[int], Request],
                window: int, count: int) -> List[Outcome]:
    """Send ``count`` requests keeping ``window`` outstanding; returns
    their outcomes once all are sent.  A request is sent the moment a
    slot frees, so ``due == sent``.  The work is fixed, not the time, so
    a slower program takes longer rather than doing (and keeping) less."""
    slots = threading.Semaphore(window)
    outcomes: List[Outcome] = []
    for i in range(count):
        slots.acquire()
        out = _send(submit, make_request(i), clock())
        outcomes.append(out)
        if out.future is None:
            slots.release()
        else:
            out.future.add_done_callback(lambda _f: slots.release())
    return outcomes


def completion_rates(outcomes: Sequence[Outcome], segments: int,
                     ramp: float = 0.1) -> List[float]:
    """Successful completions per second over ``segments`` equal runs of
    consecutive completions, after dropping the first ``ramp`` share.

    Each segment is timed from the completion before it to its last
    one; results land a batch at a time, so counting completions in
    fixed time slices would quantise the rate by the batch size."""
    done = sorted(o.done for o in outcomes
                  if o.done is not None and o.error is None)
    skip = max(1, int(len(done) * ramp))
    size = (len(done) - skip) // segments
    return [size / (done[skip + (k + 1) * size - 1]
                    - done[skip + k * size - 1])
            for k in range(segments)]


def wait_all(outcomes: Sequence[Outcome], timeout: float = 60.0) -> int:
    """Wait for every outcome's future; returns how many never resolved.

    ``concurrent.futures.wait`` can return before a future's done
    callbacks have run, so this also waits, briefly, for :func:`_settle`
    to have stamped every resolved outcome."""
    futures = [o.future for o in outcomes if o.future is not None]
    _, pending = wait(futures, timeout=timeout)
    deadline = clock() + 5.0
    while clock() < deadline and any(
            o.done is None for o in outcomes
            if o.future is not None and o.future.done()):
        time.sleep(0.001)
    return len(pending)


async def _call(call: Callable[[Outcome], Awaitable[Any]],
                out: Outcome) -> None:
    out.sent = clock()
    try:
        out.result = await call(out)
    except ReproError as exc:
        out.error = _keep(exc)
    out.done = clock()
    out.submit_s = out.done - out.sent


async def open_loop_async(call: Callable[[Outcome], Awaitable[Any]],
                          requests: Sequence[Request],
                          offsets: Sequence[float]) -> List[Outcome]:
    """The asyncio twin of :func:`open_loop`: at each offset, start one
    task awaiting ``call(outcome)`` for the outcome of that request;
    returns once every task finished.  ``submit_s`` is then the whole
    await (the result or the refusal).

    Only unfinished tasks stay referenced (finished ones would pile up
    for the garbage collector); an unexpected exception in any task is
    re-raised at the end."""
    outcomes: List[Outcome] = []
    running: Set[asyncio.Task] = set()
    errors: List[BaseException] = []

    def finished(task: asyncio.Task) -> None:
        running.discard(task)
        if not task.cancelled() and task.exception() is not None:
            errors.append(task.exception())

    start = clock()
    for request, offset in zip(requests, offsets):
        due = start + float(offset)
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        out = Outcome(request=request, due=due)
        outcomes.append(out)
        task = asyncio.ensure_future(_call(call, out))
        running.add(task)
        task.add_done_callback(finished)
    while running:
        await asyncio.wait(set(running))
    if errors:
        raise errors[0]
    return outcomes
