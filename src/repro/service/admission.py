"""Bounded admission: decide *whether* queued work runs, never *how*.

The load generator (:mod:`repro.analysis.loadgen`) demonstrates the
failure mode of an unbounded service: whenever arrivals outrun solve
capacity, backlog — and with it every later item's latency — grows
without bound.  The paper's whole point is keeping every resource
productively busy rather than letting one saturated stage stall the
sweep; a queue that accepts work it can never finish is the software
version of that stall.  This module is the bound.

:class:`AdmissionGate` encapsulates the service-wide ``max_queue``
limit (counting queued **and** in-flight items) and the three overload
policies :class:`~repro.service.api.JacobiService` exposes:

* ``"reject"`` — a submission at capacity raises
  :class:`~repro.errors.QueueFull` synchronously, the classic
  fail-fast backpressure signal;
* ``"block"`` — a submission at capacity waits up to ``block_timeout``
  seconds for capacity to free, then raises
  :class:`~repro.errors.QueueFull`: producer-paced admission;
* ``"shed"`` — submissions carry a per-request deadline; a queued item
  whose deadline lapses before its flush is shed (its future resolves
  to :class:`~repro.errors.ShedError` instead of occupying a batch),
  and a submission at capacity first sheds expired queued items to
  make room before falling back to rejection.

The gate is *passive* and clock-injected, exactly like
:class:`~repro.service.batcher.MicroBatcher`: it holds no lock, spawns
no threads and never sleeps.  :meth:`AdmissionGate.decide` returns an
:class:`AdmissionDecision` and the owning service executes it under
its own condition lock (blocking on the condition variable for
``"block"``, popping expired batcher items for ``"shed"``) — which is
what makes every policy pinnable with a fake clock in
``tests/test_service_admission.py``.

Admission is deliberately orthogonal to solving: an admitted matrix is
batched, solved and settled exactly as on an unbounded service, so the
bit-identity contract (service result ≡ sequential twin) is untouched
by any ``max_queue``/policy choice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .tracing import resolve_tracer

__all__ = ["ADMISSION_POLICIES", "AdmissionDecision", "AdmissionGate"]

#: Overload policies understood by the gate (and by
#: :class:`~repro.service.api.JacobiService`'s ``admission`` argument).
ADMISSION_POLICIES = ("reject", "block", "shed")


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict, for the owner to execute.

    Attributes
    ----------
    action:
        ``"admit"`` — queue the item now; ``"reject"`` — raise
        :class:`~repro.errors.QueueFull` synchronously; ``"block"`` —
        wait for capacity until ``give_up``, then re-decide; ``"shed"``
        — shed expired queued items first, then retry (a retry at
        capacity rejects).
    give_up:
        For ``"block"`` only: the clock value at which waiting stops
        and the submission is rejected (``None`` otherwise).
    """

    action: str
    give_up: Optional[float] = None


class AdmissionGate:
    """The service-wide queue bound and its overload policy.

    Parameters
    ----------
    max_queue:
        Capacity in items, counting queued **and** in-flight (dispatched
        but unsettled) work.  ``0`` (default) means unbounded — every
        :meth:`decide` admits, exactly the pre-admission service.
    policy:
        One of :data:`ADMISSION_POLICIES`; what happens to a submission
        arriving at capacity (see the module docstring).
    block_timeout:
        Seconds a ``"block"``-policy submission may wait for capacity
        before it is rejected (finite and > 0).
    default_deadline:
        Default per-request deadline in seconds for the ``"shed"``
        policy — every submission without an explicit ``deadline``
        expires this long after it is queued (> 0; ``inf`` never
        expires).  ``None`` (default) means items only expire when the
        caller passed a deadline.
    clock:
        Monotonic time source (injectable for tests).
    tracer:
        Optional :class:`~repro.service.tracing.Tracer`; when enabled,
        every non-admit verdict emits a gate-level ``"overload"``
        event (the occupancy, bound, policy and action taken), so a
        trace shows *when* the service was saturated, not only which
        requests paid for it.  ``None`` or a disabled tracer costs
        nothing.
    """

    def __init__(self, max_queue: int = 0, policy: str = "reject",
                 block_timeout: float = 1.0,
                 default_deadline: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 tracer: Optional[Any] = None) -> None:
        self.max_queue = int(max_queue)
        if self.max_queue < 0:
            raise SimulationError(
                f"max_queue must be >= 0 (0 = unbounded), got {max_queue}")
        self.policy = str(policy)
        if self.policy not in ADMISSION_POLICIES:
            raise SimulationError(
                f"unknown admission policy {policy!r}; known: "
                f"{ADMISSION_POLICIES}")
        self.block_timeout = float(block_timeout)
        if not (math.isfinite(self.block_timeout)
                and self.block_timeout > 0):
            raise SimulationError(
                f"block_timeout must be finite and > 0, got "
                f"{block_timeout}")
        self.default_deadline = _check_deadline("default_deadline",
                                                default_deadline)
        self._clock = clock
        self._tracer = resolve_tracer(tracer)

    @property
    def bounded(self) -> bool:
        """Whether a queue limit is in force (``max_queue > 0``)."""
        return self.max_queue > 0

    def decide(self, used: int, now: Optional[float] = None
               ) -> AdmissionDecision:
        """Judge one submission against the current occupancy.

        Parameters
        ----------
        used:
            Items currently counted against the bound (queued plus
            in-flight).
        now:
            Clock override (defaults to the injected clock).

        Returns
        -------
        AdmissionDecision
            ``"admit"`` below capacity (or when unbounded); otherwise
            the policy's overload action — ``"reject"``, ``"block"``
            (with its ``give_up`` clock value), or ``"shed"``.
        """
        if not self.bounded or used < self.max_queue:
            return AdmissionDecision("admit")
        if self._tracer is not None:
            self._tracer.emit("overload",
                              meta={"used": used,
                                    "max_queue": self.max_queue,
                                    "policy": self.policy})
        if self.policy == "block":
            now = self._clock() if now is None else now
            return AdmissionDecision("block",
                                     give_up=now + self.block_timeout)
        if self.policy == "shed":
            return AdmissionDecision("shed")
        return AdmissionDecision("reject")

    def ttl(self, deadline: Optional[float] = None) -> Optional[float]:
        """Validated seconds-to-live of one submission, or ``None``.

        Parameters
        ----------
        deadline:
            The caller's per-request deadline in seconds from now
            (> 0; ``inf`` never expires).  ``None`` falls back to
            ``default_deadline``; when both are set the *tighter*
            (smaller) of the two wins — a per-request override can only
            shorten the gate-wide deadline, never extend an item's life
            past the service's shed policy.

        Returns
        -------
        float or None
            Seconds the item may stay queued, or ``None`` when it never
            expires.

        Raises
        ------
        SimulationError
            ``deadline`` is NaN or not positive.  The service calls
            this before it records or queues anything, so a bad
            deadline leaves no trace event and moves no counter.
        """
        deadline = _check_deadline("deadline", deadline)
        if deadline is None:
            deadline = self.default_deadline
        elif self.default_deadline is not None:
            deadline = min(deadline, self.default_deadline)
        if deadline is None or math.isinf(deadline):
            return None
        return deadline


def _check_deadline(name: str, value: Optional[float]
                    ) -> Optional[float]:
    """``value`` as a float deadline: ``None`` passes through, NaN and
    non-positive values raise, ``inf`` means never expires."""
    if value is None:
        return None
    value = float(value)
    if not value > 0:
        raise SimulationError(
            f"{name} must be > 0 seconds (inf = never), got {value}")
    return value
