"""Bounded admission: policies, shedding, and overload-safe shutdown.

The :class:`~repro.service.admission.AdmissionGate` and the batcher's
expiry machinery are pinned with fake clocks (no sleeps, no races); the
service-level integration tests then exercise the real dispatcher
thread with generous delays, the same split as the batcher/service
test modules.  Dispatch is work-conserving — a free solver takes queued
work at once — so tests that need work to pile up first occupy the
solver, as production load does: a :class:`testkit.ManualExecutor`
with one worker holds the first flush, and one with no free worker
keeps every item queued until its deadline or a forced flush.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from testkit import (
    FakeClock,
    HangingExecutor,
    ManualExecutor,
    make_matrices as _mats,
)

from repro.analysis.events import validate_lifecycles
from repro.errors import AdmissionError, QueueFull, ShedError, SimulationError
from repro.jacobi import ParallelOneSidedJacobi
from repro.orderings import get_ordering
from repro.service import (
    ADMISSION_POLICIES,
    AdmissionGate,
    JacobiService,
    MicroBatcher,
    Tracer,
)


# ----------------------------------------------------------------------
class TestAdmissionGate:
    def test_validation(self):
        with pytest.raises(SimulationError, match="max_queue"):
            AdmissionGate(max_queue=-1)
        with pytest.raises(SimulationError, match="unknown admission"):
            AdmissionGate(policy="nope")
        with pytest.raises(SimulationError, match="block_timeout"):
            AdmissionGate(policy="block", block_timeout=0.0)
        with pytest.raises(SimulationError, match="default_deadline"):
            AdmissionGate(default_deadline=0.0)

    def test_unbounded_always_admits(self):
        gate = AdmissionGate(max_queue=0, clock=FakeClock())
        assert not gate.bounded
        for used in (0, 1, 10**6):
            assert gate.decide(used).action == "admit"

    def test_reject_policy_at_capacity(self):
        gate = AdmissionGate(max_queue=3, policy="reject",
                             clock=FakeClock())
        assert gate.bounded
        assert gate.decide(2).action == "admit"
        assert gate.decide(3).action == "reject"
        assert gate.decide(4).action == "reject"

    def test_block_policy_carries_give_up_instant(self):
        clock = FakeClock(100.0)
        gate = AdmissionGate(max_queue=2, policy="block",
                             block_timeout=0.5, clock=clock)
        assert gate.decide(1).action == "admit"
        decision = gate.decide(2)
        assert decision.action == "block"
        assert decision.give_up == pytest.approx(100.5)
        clock.advance(7.0)  # give_up tracks the clock at decision time
        assert gate.decide(2).give_up == pytest.approx(107.5)

    def test_shed_policy_at_capacity(self):
        gate = AdmissionGate(max_queue=1, policy="shed",
                             default_deadline=0.1, clock=FakeClock())
        assert gate.decide(0).action == "admit"
        assert gate.decide(1).action == "shed"

    def test_expiry_stamping(self):
        """The service stamps ``clock() + gate.ttl(deadline)`` onto each
        queued item: the default deadline, an override, a bad deadline
        raising, and no expiry without a default."""
        clock = FakeClock(10.0)
        gate = AdmissionGate(max_queue=2, policy="shed",
                             default_deadline=0.5, clock=clock)
        assert clock() + gate.ttl() == pytest.approx(10.5)  # default
        assert clock() + gate.ttl(deadline=0.1) == pytest.approx(10.1)
        with pytest.raises(SimulationError, match="deadline"):
            gate.ttl(deadline=-1.0)
        no_default = AdmissionGate(clock=clock)
        assert no_default.ttl() is None

    def test_expiry_honours_tighter_of_default_and_override(self):
        """Regression: a per-request deadline *looser* than the gate's
        default used to replace it wholesale, letting one request
        outlive the service-wide shed policy.  The tighter of the two
        must win, in either direction."""
        clock = FakeClock(10.0)
        gate = AdmissionGate(max_queue=2, policy="shed",
                             default_deadline=0.5, clock=clock)
        assert clock() + gate.ttl(deadline=2.0) == pytest.approx(10.5)  # default tighter
        assert clock() + gate.ttl(deadline=0.1) == pytest.approx(10.1)  # override tighter
        assert clock() + gate.ttl(deadline=0.5) == pytest.approx(10.5)  # tie

    def test_loose_override_still_sheds_at_default_deadline(self):
        """End to end through the batcher: an item submitted with a
        loose per-request deadline expires at the gate default."""
        clock = FakeClock()
        gate = AdmissionGate(policy="shed", default_deadline=1.0,
                             clock=clock)
        b = MicroBatcher(max_batch=10, max_delay=60.0, clock=clock)
        b.submit("k", "loose", expires=clock() + gate.ttl(deadline=30.0))
        b.submit("k", "tight", expires=clock() + gate.ttl(deadline=0.25))
        clock.advance(0.5)
        assert b.pop_expired() == [("k", "tight")]
        clock.advance(1.0)  # past the 1.0s default, well before 30.0
        assert b.pop_expired() == [("k", "loose")]

    def test_policies_registry_matches_errors(self):
        assert ADMISSION_POLICIES == ("reject", "block", "shed")
        assert issubclass(QueueFull, AdmissionError)
        assert issubclass(ShedError, AdmissionError)


# ----------------------------------------------------------------------
class TestBatcherExpiry:
    def test_pop_expired_removes_only_stale_items(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch=10, max_delay=60.0, clock=clock)
        b.submit("k", "eternal")
        b.submit("k", "stale", expires=1.0)
        b.submit("k", "fresh", expires=5.0)
        assert b.pop_expired() == []
        clock.advance(2.0)
        assert b.pop_expired() == [("k", "stale")]
        assert b.pending() == 2
        clock.advance(10.0)  # "eternal" never expires
        assert b.pop_expired() == [("k", "fresh")]
        assert b.pending() == 1

    def test_empty_group_is_garbage_collected(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch=10, max_delay=60.0, clock=clock)
        b.submit("k", "a", expires=1.0)
        clock.advance(2.0)
        assert b.pop_expired() == [("k", "a")]
        assert b.group_sizes() == {}
        assert b.next_deadline() is None

    def test_next_deadline_folds_in_expiries(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch=10, max_delay=60.0, clock=clock)
        b.submit("k", "a")
        assert b.next_deadline() == pytest.approx(60.0)  # group delay
        b.submit("k", "b", expires=0.5)
        assert b.next_deadline() == pytest.approx(0.5)  # expiry is sooner

    def test_flush_forgets_expiries(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch=2, max_delay=60.0, clock=clock)
        b.submit("k", "a", expires=1.0)
        b.submit("k", "b", expires=1.0)
        (ev,) = b.pop_ready()
        assert ev.items == ("a", "b")
        clock.advance(5.0)
        assert b.pop_expired() == []  # flushed items can't be shed


# ----------------------------------------------------------------------
class TestRejectPolicy:
    def test_queue_full_raises_and_counts(self):
        pool = ManualExecutor(workers=1)  # the first flush holds it
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           max_queue=2, executor=pool) as svc, pool:
            futures = [svc.submit(A) for A in _mats(8, 2)]
            with pytest.raises(QueueFull, match="max_queue=2"):
                svc.submit(_mats(8, 1, seed=9)[0])
            st = svc.stats()
            assert st.rejected == 1
            assert st.queue_limit == 2
            assert st.saturation == pytest.approx(1.0)
            svc.flush()
            pool.release()
            for f in futures:
                assert f.result(timeout=30.0).converged

    def test_rejection_stays_on_the_ledger(self):
        """A rejected submission is still a submission: it counts in
        ``submitted`` and lands in ``rejected``, so the stats identity
        ``submitted == accounted`` holds (it enqueues nothing)."""
        pool = ManualExecutor(workers=1)  # the first flush holds it
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           max_queue=1, executor=pool) as svc, pool:
            svc.submit(_mats(8, 1)[0])
            with pytest.raises(QueueFull):
                svc.submit(_mats(8, 1, seed=1)[0])
            st = svc.stats()
            assert st.submitted == 2
            assert st.rejected == 1
            assert st.queue_depth + st.inflight == 1
            assert st.accounted == st.submitted
            svc.flush()

    def test_admitted_matrices_stay_bit_identical(self):
        """Admission decides *whether*, never *how*: every admitted
        matrix under a saturated bounded service still matches its
        sequential twin bit for bit."""
        mats = _mats(8, 30, seed=3)
        solved = []
        with JacobiService(d=1, max_batch=2, max_delay=0.005,
                           max_queue=4) as svc:
            for A in mats:
                try:
                    solved.append((A, svc.submit(A)))
                except QueueFull:
                    pass
        assert solved  # saturated or not, something got through
        seq = ParallelOneSidedJacobi(get_ordering("degree4", 1))
        for A, fut in solved:
            r = fut.result(timeout=30.0)
            s = seq.solve(A)
            assert np.array_equal(s.eigenvalues, r.eigenvalues)
            assert np.array_equal(s.eigenvectors, r.eigenvectors)
            assert s.sweeps == r.sweeps


class TestBlockPolicy:
    def test_block_admits_once_capacity_frees(self):
        """With a draining queue, block-policy submissions never
        reject — each waits for the previous item to settle."""
        with JacobiService(d=1, max_batch=1, max_delay=0.0,
                           max_queue=1, admission="block",
                           admission_timeout=30.0) as svc:
            futures = [svc.submit(A) for A in _mats(8, 4)]
            for f in futures:
                assert f.result(timeout=30.0).converged
            assert svc.stats().rejected == 0

    def test_block_times_out_to_queue_full(self):
        pool = ManualExecutor(workers=1)  # the first flush holds it
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           max_queue=1, admission="block",
                           admission_timeout=0.15,
                           executor=pool) as svc, pool:
            svc.submit(_mats(8, 1)[0])
            t0 = time.monotonic()
            with pytest.raises(QueueFull):
                svc.submit(_mats(8, 1, seed=1)[0])
            assert time.monotonic() - t0 >= 0.1  # actually waited
            assert svc.stats().rejected == 1
            svc.flush()

    def test_close_during_wait_is_a_rejection(self):
        """close() ends a blocked submit the way a timeout would: a
        rejection on the ledger and in the trace, raised as closed."""
        blocked = threading.Event()

        class SignallingTracer(Tracer):
            def emit(self, stage, **fields):
                super().emit(stage, **fields)
                if stage == "submit" and fields.get("request") == 1:
                    blocked.set()

        pool = ManualExecutor(workers=0)  # the first item stays queued
        svc = JacobiService(d=1, max_batch=100, max_delay=60.0,
                            max_queue=1, admission="block",
                            admission_timeout=30.0,
                            tracer=SignallingTracer(), executor=pool)
        first = svc.submit(_mats(8, 1)[0])
        errors = []

        def second():
            try:
                svc.submit(_mats(8, 1, seed=1)[0])
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        waiter = threading.Thread(target=second)
        waiter.start()
        # The submit event is emitted under the service lock, which the
        # waiter only releases inside its wait: close() lands mid-wait.
        assert blocked.wait(30.0)
        pool.release()  # close() may now solve the queued item
        svc.close()
        waiter.join(30.0)
        assert len(errors) == 1
        assert isinstance(errors[0], SimulationError)
        assert "closed" in str(errors[0])
        assert first.result(timeout=30.0).converged
        st = svc.stats()
        assert (st.submitted, st.completed, st.rejected) == (2, 1, 1)
        assert st.accounted == st.submitted
        assert validate_lifecycles(svc.trace()) == {}


class TestShedPolicy:
    def test_deadline_lapse_resolves_to_shed_error(self):
        pool = ManualExecutor(workers=0)  # no free solver: it queues
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           default_deadline=0.05,
                           executor=pool) as svc, pool:
            fut = svc.submit(_mats(8, 1)[0])
            exc = fut.exception(timeout=30.0)
            assert isinstance(exc, ShedError)
            st = svc.stats()
            assert st.shed == 1
            assert st.completed == 0
            assert st.queue_depth == 0

    def test_per_request_deadline_overrides_default(self):
        pool = ManualExecutor(workers=0)  # no free solver: both queue
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           executor=pool) as svc, pool:
            doomed = svc.submit(_mats(8, 1)[0], deadline=0.05)
            safe = svc.submit(_mats(8, 1, seed=1)[0])  # no deadline
            assert isinstance(doomed.exception(timeout=30.0), ShedError)
            svc.flush()
            pool.release()
            assert safe.result(timeout=30.0).converged

    def test_shedding_makes_room_at_capacity(self):
        pool = ManualExecutor(workers=0)  # no free solver: it queues
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           max_queue=1, admission="shed",
                           default_deadline=0.05,
                           executor=pool) as svc, pool:
            doomed = svc.submit(_mats(8, 1)[0])
            time.sleep(0.2)  # let the queued item expire
            admitted = svc.submit(_mats(8, 1, seed=1)[0])
            assert isinstance(doomed.exception(timeout=30.0), ShedError)
            svc.flush()
            pool.release()
            assert admitted.result(timeout=30.0).converged
            assert svc.stats().shed == 1

    def test_shed_without_expiries_rejects_at_capacity(self):
        pool = ManualExecutor(workers=0)  # no free solver: it queues
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           max_queue=1, admission="shed",
                           executor=pool) as svc, pool:
            svc.submit(_mats(8, 1)[0])  # no deadline: never expires
            with pytest.raises(QueueFull):
                svc.submit(_mats(8, 1, seed=1)[0])
            svc.flush()


# ----------------------------------------------------------------------
def _close_within(svc, timeout=10.0):
    """close() on a daemon thread: a hung close fails the test instead
    of hanging the suite."""
    closer = threading.Thread(target=svc.close, daemon=True)
    closer.start()
    closer.join(timeout)
    assert not closer.is_alive(), "close() hung"


class TestNonFiniteSettings:
    """Regression: NaN and infinite time settings lost requests or
    killed threads.  Each is now a typed error at construction or
    ``submit()``, except a ``+inf`` deadline, which never expires."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_max_delay_must_be_finite(self, bad):
        with pytest.raises(SimulationError, match="max_delay"):
            JacobiService(d=1, max_delay=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_admission_timeout_must_be_finite(self, bad):
        with pytest.raises(SimulationError, match="timeout"):
            JacobiService(d=1, max_queue=1, admission="block",
                          admission_timeout=bad)

    def test_default_deadline_must_not_be_nan(self):
        with pytest.raises(SimulationError, match="default_deadline"):
            JacobiService(d=1, default_deadline=float("nan"))

    def test_nan_deadline_is_rejected_at_submit(self):
        svc = JacobiService(d=1, max_batch=100, max_delay=60.0)
        try:
            with pytest.raises(SimulationError, match="deadline"):
                svc.submit(_mats(8, 1)[0], deadline=float("nan"))
            st = svc.stats()
            assert (st.submitted, st.queue_depth, st.inflight) == (0, 0, 0)
        finally:
            _close_within(svc)

    @pytest.mark.parametrize("where", ["deadline", "default_deadline"])
    def test_infinite_deadline_never_expires(self, where):
        inf = float("inf")
        svc = JacobiService(d=1, max_batch=100, max_delay=0.01,
                            **({where: inf} if where != "deadline"
                               else {}))
        try:
            fut = svc.submit(_mats(8, 1)[0],
                             **({where: inf} if where == "deadline"
                                else {}))
            assert fut.result(timeout=30.0).converged
        finally:
            _close_within(svc)

    def test_huge_finite_delay_keeps_the_dispatcher_alive(self):
        """A finite ``max_delay`` beyond ``threading.TIMEOUT_MAX`` must
        not overflow the dispatcher's wait while every slot is busy."""
        pool = ManualExecutor(workers=0)  # no free solver: it queues
        svc = JacobiService(d=1, max_batch=100, max_delay=1e300,
                            executor=pool)
        try:
            fut = svc.submit(_mats(8, 1)[0])
            time.sleep(0.1)  # let the dispatcher go to sleep on it
            pool.release()
            svc.flush()
            assert fut.result(timeout=30.0).converged
        finally:
            pool.release()
            _close_within(svc)

    def test_huge_finite_block_timeout_waits_for_capacity(self):
        """Likewise a ``"block"`` wait longer than ``TIMEOUT_MAX`` must
        wait for capacity, not raise ``OverflowError``."""
        pool = ManualExecutor(workers=1)  # the first flush holds it
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           max_queue=1, admission="block",
                           admission_timeout=1e300,
                           executor=pool) as svc, pool:
            first = svc.submit(_mats(8, 1)[0])
            freer = threading.Timer(0.1, pool.release)
            freer.start()
            second = svc.submit(_mats(8, 1, seed=1)[0])  # waits first
            freer.join(30.0)
            assert first.result(timeout=30.0).converged
            assert second.result(timeout=30.0).converged


# ----------------------------------------------------------------------
class TestStatsSplit:
    def test_queue_depth_vs_inflight(self, monkeypatch):
        """stats() must not hide dispatched-but-unsettled work:
        ``queue_depth`` is batcher-queued, ``inflight`` is dispatched."""
        import repro.service.api as api

        real = api.solve_batch_remote
        started, release = threading.Event(), threading.Event()

        def slow(payload):
            started.set()
            assert release.wait(30.0)
            return real(payload)

        monkeypatch.setattr(api, "solve_batch_remote", slow)
        with JacobiService(d=1, max_batch=1, max_delay=0.0) as svc:
            fut = svc.submit(_mats(8, 1)[0])
            assert started.wait(30.0)  # the flush is mid-solve
            st = svc.stats()
            assert (st.queue_depth, st.inflight) == (0, 1)
            release.set()
            assert fut.result(timeout=30.0).converged
        st = svc.stats()
        assert (st.queue_depth, st.inflight) == (0, 0)

    def test_saturation_ratio(self):
        pool = ManualExecutor(workers=1)  # the first flush holds it
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           max_queue=4, executor=pool) as svc, pool:
            for A in _mats(8, 2):
                svc.submit(A)
            st = svc.stats()
            assert st.saturation == pytest.approx(0.5)
            svc.flush()
        assert JacobiService(d=1).stats().saturation == 0.0

    def test_cancelled_futures_are_not_completed(self):
        """Regression: a caller-cancelled future must count as
        ``cancelled``, not silently inflate ``completed``."""
        pool = ManualExecutor(workers=1)  # the first flush holds it
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           executor=pool) as svc, pool:
            doomed = svc.submit(_mats(8, 1)[0])
            kept = svc.submit(_mats(8, 1, seed=1)[0])
            assert doomed.cancel()
            svc.flush()
            pool.release()
            assert kept.result(timeout=30.0).converged
            st = svc.stats()
        assert st.completed == 1
        assert st.cancelled == 1
        assert st.failed == 0

    def test_failed_submit_leaks_no_counters(self, monkeypatch):
        """Regression: counters moved *before* the batcher accepted the
        item, so a batcher failure left a phantom in-flight item that
        close() would wait on forever."""
        svc = JacobiService(d=1, max_batch=100, max_delay=60.0)

        def boom(*args, **kwargs):
            raise RuntimeError("batcher refused")

        monkeypatch.setattr(svc._batcher, "submit", boom)
        with pytest.raises(RuntimeError, match="batcher refused"):
            svc.submit(_mats(8, 1)[0])
        st = svc.stats()
        assert st.submitted == 0
        assert st.queue_depth + st.inflight == 0
        closer = threading.Thread(target=svc.close)
        closer.start()
        closer.join(timeout=30.0)
        assert not closer.is_alive()  # close() terminated, no phantom


# ----------------------------------------------------------------------
class TestStatsIdentity:
    def test_ledger_balances_throughout_an_overload_run(self):
        """At *every* observation point of an overloaded run, each
        submission sits in exactly one bucket: ``submitted ==
        completed + failed + cancelled + rejected + shed + inflight +
        queued`` (:attr:`ServiceStats.accounted`).  Sampled after
        every submit — while rejections, sheds and solves interleave —
        and again after the drain."""
        mats = _mats(16, 40, seed=7)
        with JacobiService(d=1, max_batch=4, max_delay=0.002,
                           max_queue=6, admission="shed",
                           default_deadline=0.01) as svc:
            for A in mats:
                try:
                    svc.submit(A)
                except QueueFull:
                    pass
                st = svc.stats()
                assert st.accounted == st.submitted, (
                    f"ledger off mid-run: {st}")
        st = svc.stats()
        assert st.accounted == st.submitted
        assert st.queue_depth == 0 and st.inflight == 0
        assert st.submitted == 40  # every attempt counted somewhere
        assert st.rejected + st.shed > 0  # the run actually overloaded

    def test_stats_hammered_from_another_thread_stays_consistent(self):
        """Regression: the snapshot must be taken in *one* critical
        section of the dispatch lock.  The transport counters used to
        be read outside it, so a concurrent reader could observe a
        flush landing between the two reads.  Hammer ``stats()`` from
        a separate thread through a whole burst: every snapshot must
        satisfy the ledger identity, and the transport's batch count
        must never exceed the flush count seen in the same snapshot."""
        stop = threading.Event()
        problems: list = []

        def hammer(svc):
            while not stop.is_set():
                st = svc.stats()
                if st.accounted != st.submitted:
                    problems.append(("ledger", st))
                if st.transport_counters.get("batches", 0) > st.batches:
                    problems.append(("transport-ahead", st))

        with JacobiService(d=1, max_batch=4, max_delay=0.002,
                           max_queue=8, admission="shed",
                           default_deadline=0.01) as svc:
            reader = threading.Thread(target=hammer, args=(svc,))
            reader.start()
            try:
                for A in _mats(16, 60, seed=13):
                    try:
                        svc.submit(A)
                    except QueueFull:
                        pass
            finally:
                stop.set()
                reader.join(timeout=30.0)
        assert not reader.is_alive()
        assert not problems, problems[:3]
        st = svc.stats()
        assert st.accounted == st.submitted


# ----------------------------------------------------------------------
class TestOverloadSafeShutdown:
    def test_close_sweeps_stranded_remote_futures(self):
        """Regression: close() waited on ``_inflight`` with no timeout,
        so a pool whose future never resolves hung it forever.  A
        broken executor's stranded in-flight items must instead fail
        with BrokenProcessPool."""
        pool = HangingExecutor()
        svc = JacobiService(d=1, max_batch=1, max_delay=0.0,
                            workers=2, executor=pool)
        fut = svc.submit(_mats(8, 1)[0])
        # the flush is dispatched to the pool and now stranded
        deadline = time.monotonic() + 30.0
        while not svc._pending_remote and time.monotonic() < deadline:
            time.sleep(0.005)
        assert svc._pending_remote
        pool.broken = True
        closer = threading.Thread(target=svc.close)
        closer.start()
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        assert isinstance(fut.exception(timeout=1.0), BrokenProcessPool)
        assert svc.stats().failed == 1

    def test_killed_worker_does_not_hang_close(self):
        """End to end: SIGKILL every pool worker mid-flush; close()
        must still terminate, resolving every future (result or
        error), instead of hanging on the lost batch."""
        import os
        import signal

        svc = JacobiService(d=1, max_batch=4, max_delay=0.005, workers=2)
        futures = [svc.submit(A) for A in _mats(24, 12, seed=5)]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            with svc._cond:
                pending = bool(svc._pending_remote)
            pool = svc._executor._pool
            if pending and pool is not None:
                break
            time.sleep(0.005)
        assert pool is not None
        for pid in list(pool._processes):
            os.kill(pid, signal.SIGKILL)
        closer = threading.Thread(target=svc.close)
        closer.start()
        closer.join(timeout=120.0)
        assert not closer.is_alive()
        for f in futures:
            assert f.done()
