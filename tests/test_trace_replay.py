"""Trace-driven replay: record -> replay -> re-record equivalence.

A traced run's timeline carries everything needed to reconstruct its
load: per-request offsets, kinds, shapes and deadlines
(:func:`~repro.analysis.loadgen.arrivals_from_timeline`), with matrix
content regenerated from the seed.  These tests pin that loop on a
deliberately deterministic scenario — a single instantaneous burst
against a bounded rejecting queue, where admission arithmetic (not
timing) decides every outcome — so recorded and replayed per-request
outcome sequences must be *equal*, not merely similar.

Dispatch is work-conserving: an idle solver takes an admitted matrix at
once, and on a fast host could settle it before the burst ends.  Under
production load the solver is busy, so the fixtures here keep it busy:
the burst tests hold each replay's solves until its whole burst is
submitted, and the deadline test replays on a pool with no free worker.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from testkit import ManualExecutor

import repro.analysis.loadgen as loadgen
import repro.service.api as api
from repro.analysis.events import EventTimeline, validate_lifecycles
from repro.analysis.loadgen import (
    TRACE_BUNDLE_SCHEMA,
    Arrival,
    arrivals_from_timeline,
    build_matrices,
    outcomes_from_timeline,
    replay_recorded,
    replay_traced,
    trace_bundle_to_json,
)
from repro.errors import SimulationError
from repro.service import JacobiService

#: One instantaneous burst of identical eigen requests against a
#: 4-deep rejecting queue with batching limits no burst can trigger:
#: exactly the first 4 submissions are admitted (queued+inflight is 0,
#: 1, 2, 3 as they arrive) and the remaining 8 are rejected, whatever
#: the machine's timing does.
BURST = 12
ADMITTED = 4
SETTINGS = dict(max_batch=32, max_delay=0.5, max_queue=ADMITTED,
                admission="reject", d=1, warmup_frac=0.0)


def _burst():
    return [Arrival(at=0.0, kind="eigen", n=8, m=8)
            for _ in range(BURST)]


@pytest.fixture
def busy_solver(monkeypatch):
    """Hold every solve while a burst is part-way submitted: each
    replay's first solve waits until all ``BURST`` submissions (admitted
    or rejected) are in, so queued + inflight reads 0, 1, 2, 3 as the
    burst arrives, whatever the timing."""
    cond = threading.Condition()
    attempts = [0]
    real_submit = JacobiService.submit
    real_solve = api.solve_batch_remote

    def submit(self, *args, **kwargs):
        try:
            return real_submit(self, *args, **kwargs)
        finally:
            with cond:
                attempts[0] += 1
                cond.notify_all()

    def solve(payload):
        with cond:
            assert cond.wait_for(lambda: attempts[0] % BURST == 0, 30.0)
        return real_solve(payload)

    monkeypatch.setattr(JacobiService, "submit", submit)
    monkeypatch.setattr(api, "solve_batch_remote", solve)


@pytest.fixture
def no_free_solver(monkeypatch):
    """Replay on a pool with no free worker: queued work waits for its
    deadline (or is shed first) instead of being solved at once."""
    real = loadgen.JacobiService

    def build(**kwargs):
        pool = ManualExecutor(workers=0)
        pool.release()  # flushes are solved as they arrive
        return real(executor=pool, **kwargs)

    monkeypatch.setattr(loadgen, "JacobiService", build)


class TestRecordReplayEquivalence:
    @pytest.mark.usefixtures("busy_solver")
    def test_outcomes_are_deterministic_and_reconstructible(self):
        arrivals = _burst()
        matrices = build_matrices(arrivals, seed=11)
        res1, tl1 = replay_traced(arrivals, matrices, scenario="burst",
                                  label="bounded", **SETTINGS)
        assert res1.outcomes == (["solved"] * ADMITTED
                                 + ["rejected"] * (BURST - ADMITTED))
        assert validate_lifecycles(tl1) == {}
        assert outcomes_from_timeline(tl1) == res1.outcomes

        arr2 = arrivals_from_timeline(tl1)
        assert len(arr2) == BURST
        assert all(a.kind == "eigen" and (a.n, a.m) == (8, 8)
                   for a in arr2)
        mats2 = build_matrices(arr2, seed=11)
        for A, B in zip(matrices, mats2):
            assert np.array_equal(A, B)  # same seed, same matrices

        res2, tl2 = replay_traced(arr2, mats2, scenario="burst",
                                  label="bounded", **SETTINGS)
        assert res2.outcomes == res1.outcomes
        assert outcomes_from_timeline(tl2) == outcomes_from_timeline(tl1)

    @pytest.mark.usefixtures("busy_solver")
    def test_bundle_record_replay_rerecord(self):
        arrivals = _burst()
        matrices = build_matrices(arrivals, seed=11)
        _, tl = replay_traced(arrivals, matrices, scenario="burst",
                              label="bounded", **SETTINGS)
        record = {"scenario": "burst", "label": "bounded",
                  "settings": dict(SETTINGS), "timeline": tl}
        bundle = json.loads(
            trace_bundle_to_json([record], seed=11, warmup_frac=0.0))
        assert bundle["schema"] == TRACE_BUNDLE_SCHEMA

        [(rec, res2, tl2)] = replay_recorded(bundle, trace=True)
        recorded = outcomes_from_timeline(
            EventTimeline.from_dict(rec["timeline"]))
        assert res2.outcomes == recorded
        assert outcomes_from_timeline(tl2) == recorded
        # re-record: a second replay of the same bundle agrees again
        [(_, res3, _)] = replay_recorded(bundle)
        assert res3.outcomes == res2.outcomes

    @pytest.mark.usefixtures("no_free_solver")
    def test_recorded_deadlines_are_carried(self):
        arrivals = [Arrival(at=0.0, kind="eigen", n=8, m=8,
                            deadline=0.01)]
        matrices = build_matrices(arrivals, seed=0)
        res, tl = replay_traced(arrivals, matrices, scenario="s",
                                label="l", max_batch=32, max_delay=0.5,
                                d=1)
        assert res.outcomes == ["shed"]  # expired long before the flush
        arr2 = arrivals_from_timeline(tl)
        assert arr2[0].deadline == pytest.approx(0.01)
        res2, _ = replay_traced(arr2, build_matrices(arr2, seed=0),
                                scenario="s", label="l", max_batch=32,
                                max_delay=0.5, d=1)
        assert res2.outcomes == ["shed"]

    def test_mixed_kinds_reconstruct_shapes(self):
        arrivals = [Arrival(at=0.0, kind="eigen", n=8, m=8),
                    Arrival(at=0.0, kind="svd", n=12, m=6)]
        matrices = build_matrices(arrivals, seed=2)
        _, tl = replay_traced(arrivals, matrices, scenario="s",
                              label="l", max_batch=1, max_delay=0.0,
                              d=1)
        arr2 = arrivals_from_timeline(tl)
        assert [(a.kind, a.n, a.m) for a in arr2] \
            == [("eigen", 8, 8), ("svd", 12, 6)]

    def test_tenant_labels_survive_replay(self):
        """Regression: the sync replay submitted without ``tenant=``, so
        a replayed ``tenants`` bundle lost its per-tenant slicing."""
        arrivals = [Arrival(at=0.0, kind="eigen", n=8, m=8, tenant="a"),
                    Arrival(at=0.0, kind="eigen", n=8, m=8, tenant="b")]
        _, tl = replay_traced(arrivals, build_matrices(arrivals, seed=3),
                              scenario="s", label="l", max_batch=4,
                              max_delay=0.0, d=1)
        assert set(tl.by_tenant()) == {"a", "b"}
        assert [a.tenant for a in arrivals_from_timeline(tl)] \
            == ["a", "b"]

    def test_replay_recorded_rejects_wrong_schema(self):
        with pytest.raises(SimulationError, match="bundle"):
            replay_recorded({"schema": "nope", "seed": 0, "traces": []})

    def test_arrivals_require_submit_events(self):
        empty = EventTimeline(source="service", events=(), meta={})
        with pytest.raises(SimulationError, match="submit"):
            arrivals_from_timeline(empty)
