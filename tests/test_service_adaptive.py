"""Batching guarantees of a service whose limits never move.

One ``max_batch``/``max_delay`` pair applies to every key (the module
keeps the name of the adaptive controller that once retuned them per
key).  The tests pin that:

* each key's size and deadline releases count over its own group, and
  every release reports its own wait and batch id;
* a service keeps its limits and stats shape, and dispatch timing
  changes *when* a flush happens, never *what* it computes;
* trickle traffic never waits out ``max_delay``, a burst behind a busy
  solver leaves as one grown batch, and ``max_batch`` caps every
  release;
* a solver slot that frees up wakes a dispatcher asleep on a far
  deadline.

The batcher tests are passive and clock-injected; the service tests
hold the solver busy with :class:`~testkit.ManualExecutor` wherever the
outcome would otherwise depend on thread timing.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from testkit import FakeClock, ManualExecutor, make_matrices as _mats

from repro.jacobi import ParallelOneSidedJacobi
from repro.orderings import get_ordering
from repro.service import JacobiService, MicroBatcher
from repro.service.batcher import FLUSH_CAUSES


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


class TestPerKeyLimits:
    """MicroBatcher: each key flushes at the one max_batch/max_delay
    pair, counted over its own group."""

    def test_size_flush_uses_key_limit(self, clock):
        """A key's size count covers only its own queued items and
        starts again once its group is released."""
        mb = MicroBatcher(max_batch=2, max_delay=1.0, clock=clock)
        assert mb.submit("k", 1) is False
        assert mb.submit("other", "x") is False
        assert mb.submit("k", 2) is True
        (event,) = mb.pop_ready()
        assert (event.key, event.items, event.cause) == ("k", (1, 2),
                                                         "size")
        assert mb.submit("k", 3) is False
        assert mb.pop_ready() == []
        assert mb.group_sizes() == {"other": 1, "k": 1}

    def test_deadline_uses_key_limit(self, clock):
        """A key's deadline runs from its own oldest item."""
        mb = MicroBatcher(max_batch=10, max_delay=1.0, clock=clock)
        mb.submit("early", "a")
        clock.advance(0.5)
        mb.submit("late", "b")
        assert mb.next_deadline() == pytest.approx(1.0)
        clock.advance(0.5)
        (event,) = mb.pop_ready()
        assert (event.key, event.cause) == ("early", "deadline")
        assert mb.next_deadline() == pytest.approx(1.5)
        clock.advance(0.5)
        (event,) = mb.pop_ready()
        assert (event.key, event.cause) == ("late", "deadline")

    def test_flush_event_signals(self, clock):
        """One poll's size flushes carry consecutive batch ids, their
        size, and the wait of the oldest item each one released."""
        mb = MicroBatcher(max_batch=2, max_delay=1.0, clock=clock)
        for x in range(2):
            mb.submit("k", x)
        clock.advance(0.25)
        for x in range(2, 5):
            mb.submit("k", x)
        clock.advance(0.25)
        events = mb.pop_ready()
        assert [(e.cause, e.size, e.batch) for e in events] == [
            ("size", 2, 0), ("size", 2, 1)]
        assert [e.waited for e in events] == pytest.approx([0.5, 0.25])
        assert mb.pending() == 1


class TestNonAdaptiveRegression:
    """A service has fixed limits: no tuning state, no moving knobs,
    results independent of when flushes happen."""

    def test_stats_shape_when_disabled(self):
        with JacobiService(d=1, max_delay=0.01) as svc:
            svc.solve_many(_mats(8, 3))
            st = svc.stats()
        assert tuple(st.flushes) == FLUSH_CAUSES
        assert set(st.solve_latency_by_kind) == {"eigen", "svd"}
        for name in ("adaptive", "limits", "tuning"):
            assert not hasattr(st, name)

    def test_limits_never_move_when_disabled(self):
        """Whatever the traffic, the batcher keeps the constructor's
        limits and no release exceeds ``max_batch``."""
        with JacobiService(d=1, max_batch=2, max_delay=0.01) as svc:
            svc.solve_many(_mats(8, 10))
            for A in _mats(8, 3, seed=1):
                assert svc.submit(A).result(timeout=30.0).converged
            assert (svc._batcher.max_batch, svc._batcher.max_delay) \
                == (2, 0.01)
            st = svc.stats()
        assert st.flushes["forced"] == 5
        assert st.mean_batch_size <= 2.0

    def test_fixed_and_adaptive_results_bit_identical(self):
        """Dispatch timing changes *when* flushes happen, never *what*
        a flush computes: forced ``max_batch`` chunks and one idle
        release per submission resolve to byte-identical results."""
        mats = _mats(16, 8, seed=11)
        with JacobiService(d=2, max_batch=4, max_delay=0.02) as svc:
            chunked = svc.solve_many(mats)
            assert svc.stats().flushes["forced"] == 2
        with JacobiService(d=2, max_batch=4, max_delay=60.0) as svc:
            streamed = [svc.submit(A).result(timeout=30.0) for A in mats]
            assert svc.stats().flushes["idle"] == len(mats)
        for a, b in zip(chunked, streamed):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.eigenvectors, b.eigenvectors)
            assert a.sweeps == b.sweeps


class TestServiceIntegration:
    """Dispatch on the real service: trickle latency, burst batching
    and the ``max_batch`` ceiling, results bit-identical throughout."""

    def test_trickle_shrinks_delay_and_stays_bit_identical(self):
        """Each lone trickle submission leaves as an idle release, so a
        30 s ``max_delay`` adds no wait, and every result matches the
        sequential solver bit for bit."""
        mats = _mats(16, 14, seed=7)
        with JacobiService(d=2, max_batch=16, max_delay=30.0) as svc:
            results = [svc.submit(A).result(timeout=10.0) for A in mats]
            st = svc.stats()
        assert st.flushes == {"size": 0, "deadline": 0, "idle": 14,
                              "forced": 0}
        assert st.solve_latency_by_kind["eigen"] > 0.0
        seq = ParallelOneSidedJacobi(get_ordering("degree4", 2))
        for A, r in zip(mats, results):
            assert np.array_equal(seq.solve(A).eigenvalues, r.eigenvalues)

    def test_burst_grows_batch(self):
        """A burst that lands while the only solver is busy queues up
        and leaves as one batch when the slot frees."""
        mats = _mats(16, 11, seed=8)
        pool = ManualExecutor(workers=1)
        with JacobiService(d=2, max_batch=16, max_delay=60.0,
                           executor=pool) as svc, pool:
            futures = [svc.submit(mats[0])]
            assert pool.wait_for_calls(1, 30.0)  # idle: the slot was free
            futures += [svc.submit(A) for A in mats[1:]]
            assert not pool.wait_for_calls(2, 0.2)  # the slot is busy
            assert svc.stats().queue_depth == 10
            pool.resolve_all()
            assert pool.wait_for_calls(2, 30.0)
            pool.release()
            results = [f.result(timeout=30.0) for f in futures]
            st = svc.stats()
        assert st.flushes == {"size": 0, "deadline": 0, "idle": 2,
                              "forced": 0}
        assert st.mean_batch_size == pytest.approx(5.5)  # 1, then 10
        seq = ParallelOneSidedJacobi(get_ordering("degree4", 2))
        for A, r in zip(mats, results):
            assert np.array_equal(seq.solve(A).eigenvalues, r.eigenvalues)

    def test_bounds_cap_the_service_tuning(self):
        """``max_batch`` bounds every release: a burst behind a busy
        solver leaves as full size flushes plus an idle remainder."""
        mats = _mats(8, 11, seed=9)
        pool = ManualExecutor(workers=1)
        with JacobiService(d=1, max_batch=4, max_delay=60.0,
                           executor=pool, trace=True) as svc, pool:
            futures = [svc.submit(mats[0])]
            assert pool.wait_for_calls(1, 30.0)
            futures += [svc.submit(A) for A in mats[1:]]
            assert pool.wait_for_calls(3, 30.0)  # size-ready go anyway
            assert svc.stats().queue_depth == 2
            pool.resolve_all()
            assert pool.wait_for_calls(4, 30.0)
            pool.release()
            for f in futures:
                assert f.result(timeout=30.0).converged
            st = svc.stats()
        assert st.flushes == {"size": 2, "deadline": 0, "idle": 2,
                              "forced": 0}
        sizes = [e.meta["size"] for e in svc.trace().events
                 if e.stage == "flush"]
        assert sizes == [1, 4, 4, 2]


class TestRetuneWakesDispatcher:
    """A dispatcher asleep on a far deadline must wake as soon as a
    solver slot frees up.  ``_settle`` notifies the service condition,
    so the woken dispatcher takes the queued group as an idle release
    instead of sleeping out the stale timeout."""

    def test_shrunk_delay_wakes_sleeping_dispatcher(self):
        # Frozen fake clock: the dispatcher computes its wait timeout
        # as next_deadline - clock(), so the queued item's deadline
        # stands a full max_delay (5 real seconds) away and never
        # drifts closer.  Only a condition notify can release the
        # dispatcher early, which is what a settled flush must do.
        clock = FakeClock()
        pool = ManualExecutor(workers=1)
        first, second = _mats(8, 2)
        with JacobiService(d=1, max_batch=4, max_delay=5.0,
                           executor=pool, clock=clock) as svc, pool:
            futures = [svc.submit(first)]
            assert pool.wait_for_calls(1, 30.0)
            futures.append(svc.submit(second))
            # Give the dispatcher time to park on the 5-second deadline.
            # A real sleep, not a handshake: the service condition is
            # the very thing under test.
            time.sleep(0.3)
            assert len(pool.calls) == 1  # every slot is busy
            pool.resolve_all()
            assert pool.wait_for_calls(2, timeout=2.0), \
                "dispatcher slept through the freed slot: the settled " \
                "flush did not wake it off the stale deadline"
            pool.release()
            for f in futures:
                assert f.result(timeout=10.0).converged
            assert svc.stats().flushes["idle"] == 2
