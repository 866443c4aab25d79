"""Life-of-a-request tracing: the tracer unit and the traced service.

The :class:`~repro.service.tracing.Tracer` unit tests run under fake
clocks (no sleeps); the service integration tests check that every
submitted request — solved, rejected or shed — marches through a
complete, ordered lifecycle, with timestamps pinned by an injected
clock where timing matters.
"""

from __future__ import annotations

import os

import pytest
from testkit import FakeClock, ManualExecutor, make_matrices as _mats

from repro.analysis.events import validate_lifecycles
from repro.errors import QueueFull, ShedError, SimulationError
from repro.service import (
    DEFAULT_TRACE_CAPACITY,
    NULL_TRACER,
    JacobiService,
    NullTracer,
    Tracer,
    resolve_tracer,
)


# ----------------------------------------------------------------------
class TestTracerUnit:
    def test_ring_bound_drops_oldest_and_counts(self):
        tr = Tracer(clock=FakeClock(), capacity=4)
        for k in range(10):
            tr.emit("submit", request=k)
        evs = tr.events()
        assert [e.request for e in evs] == [6, 7, 8, 9]
        assert [e.seq for e in evs] == [6, 7, 8, 9]  # seq never resets
        assert tr.dropped() == 6
        tl = tr.timeline()
        assert tl.meta["capacity"] == 4
        assert tl.meta["dropped"] == 6

    def test_capacity_validated(self):
        with pytest.raises(SimulationError, match="capacity"):
            Tracer(clock=FakeClock(), capacity=0)
        assert DEFAULT_TRACE_CAPACITY >= 1

    def test_timestamps_are_relative_to_epoch(self):
        clock = FakeClock(100.0)
        tr = Tracer(clock=clock)
        tr.emit("submit")
        clock.advance(1.5)
        tr.emit("admitted")
        t0, t1 = (e.t for e in tr.events())
        assert t0 == pytest.approx(0.0)
        assert t1 == pytest.approx(1.5)
        assert tr.epoch == pytest.approx(100.0)

    def test_keys_are_stringified_for_json(self):
        tr = Tracer(clock=FakeClock())
        key = ("eigen", 8, "degree4", 1)
        tr.emit("flush", key=key)
        assert tr.events()[0].key == repr(key)

    def test_null_tracer_records_nothing(self):
        null = NullTracer()
        null.emit("submit", request=1, meta={"x": 1})
        assert null.events() == ()
        assert null.dropped() == 0
        assert null.timeline().events == ()
        assert null.enabled is False

    def test_resolve_tracer_normalises_disabled_to_none(self):
        assert resolve_tracer(None) is None
        assert resolve_tracer(NULL_TRACER) is None
        tr = Tracer(clock=FakeClock())
        assert resolve_tracer(tr) is tr


# ----------------------------------------------------------------------
class TestServiceTracing:
    def test_tracing_is_off_by_default(self):
        with JacobiService(d=1) as svc:
            assert svc._tracer is None  # the zero-overhead path
            with pytest.raises(SimulationError, match="without tracing"):
                svc.trace()

    def test_fake_clock_lifecycles_complete_and_ordered(self):
        """Every submitted request marches submit -> admitted ->
        enqueued -> flushed -> dispatched -> solved -> merged ->
        resolved, with non-decreasing fake-clock timestamps."""
        clock = FakeClock(50.0)
        with JacobiService(d=1, max_batch=2, max_delay=60.0,
                           clock=clock, trace=True) as svc:
            futures = []
            for A in _mats(8, 4):
                futures.append(svc.submit(A))
                clock.advance(0.01)
            for f in futures:
                assert f.result(timeout=30.0).converged
        tl = svc.trace()
        assert validate_lifecycles(tl) == {}
        grouped = tl.by_request()
        assert sorted(grouped) == [0, 1, 2, 3]
        for events in grouped.values():
            stages = [e.stage for e in events]
            assert stages[0] == "submit"
            assert stages[-1] == "resolved"
            assert {"admitted", "enqueued", "flushed", "dispatched",
                    "solved", "merged"} <= set(stages)
            ts = [e.t for e in events]
            assert ts == sorted(ts)

    def test_rejected_request_lifecycle(self):
        pool = ManualExecutor(workers=1)  # the first flush holds it
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           max_queue=1, trace=True,
                           executor=pool) as svc, pool:
            fut = svc.submit(_mats(8, 1)[0])
            with pytest.raises(QueueFull):
                svc.submit(_mats(8, 1, seed=1)[0])
            svc.flush()
            pool.release()
            assert fut.result(timeout=30.0).converged
        tl = svc.trace()
        assert validate_lifecycles(tl) == {}
        stages = [e.stage for e in tl.by_request()[1]]
        assert stages == ["submit", "rejected"]
        # the gate also logged the overload observation itself
        assert any(e.stage == "overload" for e in tl.events)

    def test_rejected_deadline_records_nothing(self):
        """Regression: a bad ``deadline=`` raised only after the
        ``submit`` and ``admitted`` events, leaving an orphan lifecycle.
        It is now validated with the matrix, before any event."""
        with JacobiService(d=1, trace=True) as svc:
            with pytest.raises(SimulationError, match="deadline"):
                svc.submit(_mats(8, 1)[0], deadline=-1)
            assert svc.stats().submitted == 0
        tl = svc.trace()
        assert [e.stage for e in tl.events] == []
        assert validate_lifecycles(tl) == {}

    def test_shed_request_lifecycle(self):
        pool = ManualExecutor(workers=0)  # no free solver: it queues
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           default_deadline=0.05, trace=True,
                           executor=pool) as svc, pool:
            fut = svc.submit(_mats(8, 1)[0])
            assert isinstance(fut.exception(timeout=30.0), ShedError)
        tl = svc.trace()
        assert validate_lifecycles(tl) == {}
        stages = [e.stage for e in tl.by_request()[0]]
        assert stages[-1] == "shed"
        assert "expired" in stages

    def test_inline_solves_attribute_the_service_process(self):
        with JacobiService(d=1, max_batch=1, max_delay=0.0,
                           trace=True) as svc:
            svc.submit(_mats(8, 1)[0]).result(timeout=30.0)
        tl = svc.trace()
        (solved,) = [e for e in tl.events if e.stage == "solved"]
        assert solved.worker == str(os.getpid())
        assert solved.meta.get("elapsed") is not None
        (dispatched,) = [e for e in tl.events
                         if e.stage == "dispatched"]
        assert dispatched.meta["mode"] == "inline"
        assert dispatched.batch == solved.batch

    def test_trace_meta_describes_the_service(self):
        with JacobiService(d=2, max_batch=7, max_delay=0.5,
                           trace=True) as svc:
            svc.submit(_mats(8, 1)[0]).result(timeout=30.0)
        tl = svc.trace()
        assert tl.source == "service"
        assert tl.meta["d"] == 2
        assert tl.meta["max_batch"] == 7
        assert tl.meta["requests"] == 1
        assert tl.meta["dropped"] == 0

    def test_trace_capacity_bounds_retention(self):
        with JacobiService(d=1, max_batch=1, max_delay=0.0, trace=True,
                           trace_capacity=8) as svc:
            for f in [svc.submit(A) for A in _mats(8, 5)]:
                assert f.result(timeout=30.0).converged
        tl = svc.trace()
        assert len(tl.events) == 8
        assert tl.meta["dropped"] > 0

    def test_explicit_tracer_is_shared(self):
        tr = Tracer()
        with JacobiService(d=1, max_batch=1, max_delay=0.0,
                           tracer=tr) as svc:
            svc.submit(_mats(8, 1)[0]).result(timeout=30.0)
            tl = svc.trace()
        assert any(e.stage == "submit" for e in tr.events())
        assert tl.events == tr.events()

    def test_batch_ids_are_monotone(self):
        with JacobiService(d=1, max_batch=2, max_delay=0.002,
                           trace=True) as svc:
            for f in [svc.submit(A) for A in _mats(8, 6)]:
                assert f.result(timeout=30.0).converged
        tl = svc.trace()
        flushes = [e.batch for e in tl.events if e.stage == "flush"]
        assert flushes == sorted(flushes)
        assert len(set(flushes)) == len(flushes)
        assert all(b >= 0 for b in flushes)
