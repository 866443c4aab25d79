"""The async multi-tenant QoS gateway: quotas, priorities, ledgers.

Every QoS decision here is pinned without wall-clock sleeps: the
gateway runs on the service's injected clock (one
:class:`testkit.FakeClock` drives quota refill, deadlines and trace
timestamps end to end), and the deterministic tests drive a
:class:`testkit.StubService` whose futures the test settles by hand.
The integration tests at the bottom use the real service, including
the bit-identity sweep over worker counts and transports.

No pytest-asyncio dependency: each test runs its coroutine to
completion with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from testkit import (
    FakeClock,
    ManualExecutor,
    StubService,
    make_matrices as _mats,
)

from repro.analysis.events import (
    LIFECYCLE,
    TERMINAL_STAGES,
    tenant_breakdown,
    validate_lifecycles,
)
from repro.errors import (
    QueueFull,
    QuotaExceeded,
    ShedError,
    SimulationError,
)
from repro.jacobi import ParallelOneSidedJacobi
from repro.orderings import get_ordering
from repro.service import (
    PRIORITY_CLASSES,
    AsyncGateway,
    GatewayConfig,
    GatewayStats,
    JacobiService,
    TenantStats,
    TokenBucket,
)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        clock = FakeClock()
        b = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [b.try_take() for _ in range(4)] == [True] * 3 + [False]
        clock.advance(0.5)  # one token back at 2/s
        assert b.try_take()
        assert not b.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        b = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(60.0)
        assert b.available() == pytest.approx(2.0)

    def test_deny_spends_nothing(self):
        clock = FakeClock()
        b = TokenBucket(rate=1.0, burst=1, clock=clock)
        assert b.try_take()
        before = b.available()
        assert not b.try_take()
        assert b.available() == pytest.approx(before)

    def test_validation(self):
        with pytest.raises(SimulationError, match="rate"):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(SimulationError, match="burst"):
            TokenBucket(rate=1.0, burst=0)


# ----------------------------------------------------------------------
class TestScopedConfig:
    def test_scope_precedence_per_field(self):
        cfg = GatewayConfig(
            defaults={"burst": 4, "deadline": 1.0},
            tenants={"acme": {"rate": 10.0, "priority": "silver"}})
        r = cfg.resolve("acme", {"deadline": 0.2})
        assert (r.rate, r.burst, r.priority, r.deadline) \
            == (10.0, 4, "silver", 0.2)
        assert dict(r.sources) == {"rate": "tenant", "burst": "global",
                                   "priority": "tenant",
                                   "deadline": "request"}

    def test_unconfigured_tenant_gets_globals(self):
        r = GatewayConfig().resolve("anyone")
        assert r.rate is None and r.priority == "gold"
        assert set(r.sources.values()) == {"global"}

    def test_none_request_values_mean_not_set(self):
        cfg = GatewayConfig(tenants={"t": {"priority": "bronze"}})
        r = cfg.resolve("t", {"priority": None, "deadline": None})
        assert r.priority == "bronze"  # None did not mask the tenant scope

    def test_configure_tenant_merges_fields(self):
        cfg = GatewayConfig()
        cfg.configure_tenant("t", rate=5.0)
        cfg.configure_tenant("t", priority="silver")
        r = cfg.resolve("t")
        assert (r.rate, r.priority) == (5.0, "silver")

    def test_validation_is_eager_at_every_scope(self):
        with pytest.raises(SimulationError, match="unknown gateway knob"):
            GatewayConfig(defaults={"nope": 1})
        with pytest.raises(SimulationError, match="priority"):
            GatewayConfig(tenants={"t": {"priority": "platinum"}})
        with pytest.raises(SimulationError, match="burst"):
            GatewayConfig().resolve("t", {"burst": 0})

    def test_priority_classes_are_weighted(self):
        assert PRIORITY_CLASSES["gold"] > PRIORITY_CLASSES["silver"] \
            > PRIORITY_CLASSES["bronze"] >= 1


# ----------------------------------------------------------------------
class TestGatewayQuota:
    def test_quota_throttles_then_refills_on_the_fake_clock(self):
        clock = FakeClock()
        svc = StubService(clock=clock)
        gw = AsyncGateway(svc, GatewayConfig(
            tenants={"t": {"rate": 10.0, "burst": 2}}))

        async def main():
            t1 = asyncio.ensure_future(gw.submit("A", tenant="t"))
            t2 = asyncio.ensure_future(gw.submit("B", tenant="t"))
            await asyncio.sleep(0)  # both past the quota check
            with pytest.raises(QuotaExceeded):
                await gw.submit("C", tenant="t")
            clock.advance(0.1)  # one token back at 10/s
            t4 = asyncio.ensure_future(gw.submit("D", tenant="t"))
            await asyncio.sleep(0)
            assert len(svc.calls) == 3  # C never reached the service
            for i in range(3):
                svc.resolve(i, result=f"r{i}")
            assert await t1 == "r0"
            assert await t2 == "r1"
            assert await t4 == "r2"

        run(main())
        st = gw.stats().tenants["t"]
        assert st.submitted == 4
        assert st.throttled == 1
        assert st.completed == 3
        assert st.accounted == st.submitted

    def test_tenants_have_independent_buckets(self):
        clock = FakeClock()
        svc = StubService(clock=clock)
        gw = AsyncGateway(svc, GatewayConfig(
            defaults={"rate": 1.0, "burst": 1}))

        async def main():
            a = asyncio.ensure_future(gw.submit("A", tenant="a"))
            await asyncio.sleep(0)  # let A spend tenant a's only token
            with pytest.raises(QuotaExceeded):
                await gw.submit("A2", tenant="a")
            b = asyncio.ensure_future(gw.submit("B", tenant="b"))
            await asyncio.sleep(0)
            svc.resolve(0)
            svc.resolve(1)
            await asyncio.gather(a, b)

        run(main())
        stats = gw.stats()
        assert stats.tenants["a"].throttled == 1
        assert stats.tenants["b"].throttled == 0
        assert stats.total.submitted == 3

    def test_unconfigured_gateway_admits_everything(self):
        svc = StubService()
        gw = AsyncGateway(svc)

        async def main():
            tasks = [asyncio.ensure_future(
                gw.submit(f"m{i}", tenant="t")) for i in range(50)]
            await asyncio.sleep(0)
            for i in range(50):
                svc.resolve(i)
            await asyncio.gather(*tasks)

        run(main())
        st = gw.stats().tenants["t"]
        assert (st.submitted, st.completed, st.throttled) == (50, 50, 0)


# ----------------------------------------------------------------------
class TestPriorityHeadroom:
    def test_bronze_bounces_while_gold_still_admits(self):
        svc = StubService(max_queue=4)
        gw = AsyncGateway(svc, GatewayConfig(
            tenants={"noisy": {"priority": "bronze"}}))

        async def main():
            # bronze slice of 4 slots = max(1, 4*1//4) = 1
            t1 = asyncio.ensure_future(gw.submit("N1", tenant="noisy"))
            await asyncio.sleep(0)
            with pytest.raises(QueueFull):
                await gw.submit("N2", tenant="noisy")
            # gold still has headroom on the very same queue
            t3 = asyncio.ensure_future(gw.submit("G1", tenant="vip"))
            await asyncio.sleep(0)
            svc.resolve(0)
            svc.resolve(1)
            await asyncio.gather(t1, t3)

        run(main())
        assert gw.stats().tenants["noisy"].rejected == 1
        assert gw.stats().tenants["vip"].rejected == 0

    def test_request_priority_override_wins(self):
        svc = StubService(max_queue=4)
        gw = AsyncGateway(svc, GatewayConfig(
            tenants={"t": {"priority": "bronze"}}))

        async def main():
            t1 = asyncio.ensure_future(gw.submit("A", tenant="t"))
            await asyncio.sleep(0)
            # bronze slice (1 slot) is full, but a gold request-scope
            # override gets the full bound
            t2 = asyncio.ensure_future(
                gw.submit("B", tenant="t", priority="gold"))
            await asyncio.sleep(0)
            svc.resolve(0)
            svc.resolve(1)
            await asyncio.gather(t1, t2)

        run(main())
        assert gw.stats().tenants["t"].rejected == 0

    def test_unbounded_service_ignores_priorities(self):
        svc = StubService(max_queue=0)
        gw = AsyncGateway(svc, GatewayConfig(
            defaults={"priority": "bronze"}))

        async def main():
            tasks = [asyncio.ensure_future(gw.submit(i, tenant="t"))
                     for i in range(20)]
            await asyncio.sleep(0)
            for i in range(20):
                svc.resolve(i)
            await asyncio.gather(*tasks)

        run(main())
        assert gw.stats().tenants["t"].rejected == 0


# ----------------------------------------------------------------------
class TestOutcomeLedger:
    def test_every_outcome_lands_in_one_bucket(self):
        svc = StubService()
        gw = AsyncGateway(svc)

        async def main():
            tasks = [asyncio.ensure_future(gw.submit(i, tenant="t"))
                     for i in range(4)]
            await asyncio.sleep(0)
            st = gw.stats().tenants["t"]
            assert st.pending == 4
            assert st.accounted == st.submitted == 4
            svc.resolve(0)
            svc.shed(1)
            svc.fail(2)
            svc.calls[3]["future"].cancel()
            results = await asyncio.gather(*tasks,
                                           return_exceptions=True)
            assert results[0] == "solved"
            assert isinstance(results[1], ShedError)
            assert isinstance(results[2], RuntimeError)
            assert isinstance(results[3], asyncio.CancelledError)

        run(main())
        st = gw.stats().tenants["t"]
        assert (st.completed, st.shed, st.failed, st.cancelled) \
            == (1, 1, 1, 1)
        assert st.pending == 0
        assert st.accounted == st.submitted

    def test_sync_validation_failure_counts_as_failed(self):
        with JacobiService(d=1, max_batch=4, max_delay=0.01) as svc:
            gw = AsyncGateway(svc)

            async def main():
                with pytest.raises(SimulationError):
                    await gw.submit(np.ones((3, 4)), tenant="t")

            run(main())
        st = gw.stats().tenants["t"]
        assert st.failed == 1
        assert st.accounted == st.submitted == 1

    def test_deadline_override_resolves_through_scopes(self):
        clock = FakeClock()
        svc = StubService(clock=clock)
        gw = AsyncGateway(svc, GatewayConfig(
            tenants={"t": {"deadline": 0.5}}))

        async def main():
            t1 = asyncio.ensure_future(gw.submit("A", tenant="t"))
            t2 = asyncio.ensure_future(
                gw.submit("B", tenant="t", deadline=0.1))
            t3 = asyncio.ensure_future(gw.submit("C", tenant="other"))
            await asyncio.sleep(0)
            assert [c["deadline"] for c in svc.calls] == [0.5, 0.1, None]
            assert [c["tenant"] for c in svc.calls] \
                == ["t", "t", "other"]
            for i in range(3):
                svc.resolve(i)
            await asyncio.gather(t1, t2, t3)

        run(main())

    def test_stats_types_round_trip(self):
        stats = GatewayStats(tenants={"t": TenantStats(submitted=2,
                                                       completed=1,
                                                       pending=1)})
        assert stats.total.submitted == 2
        assert stats.total.accounted == 2


# ----------------------------------------------------------------------
class TestGatewayTracing:
    def test_throttle_events_carry_tenant_and_lifecycles_stay_clean(self):
        with JacobiService(d=1, max_batch=8, max_delay=0.01,
                           trace=True) as svc:
            gw = AsyncGateway(svc, GatewayConfig(
                tenants={"noisy": {"rate": 0.001, "burst": 1},
                         "good": {"priority": "gold"}}))

            async def main():
                await asyncio.gather(
                    gw.submit(_mats(8, 1)[0], tenant="good"),
                    gw.submit(_mats(8, 1, seed=1)[0], tenant="noisy"))
                with pytest.raises(QuotaExceeded):
                    await gw.submit(_mats(8, 1, seed=2)[0],
                                    tenant="noisy")

            run(main())
        tl = svc.trace()  # after close(): every event has landed
        assert validate_lifecycles(tl) == {}
        throttles = [ev for ev in tl.events if ev.stage == "throttled"]
        assert len(throttles) == 1
        assert throttles[0].tenant == "noisy"
        assert throttles[0].request is None  # never a service request
        assert throttles[0].meta["reason"] == "quota"
        by_tenant = tl.by_tenant()
        assert set(by_tenant) == {"good", "noisy"}
        breakdown = tenant_breakdown(tl)
        assert breakdown["noisy"]["throttled"] == 1
        assert breakdown["good"]["outcomes"] == {"resolved": 1}
        assert breakdown["good"]["total"]["count"] == 1.0

    def test_tenant_survives_json_round_trip(self):
        from repro.analysis.events import EventTimeline

        with JacobiService(d=1, max_batch=4, max_delay=0.01,
                           trace=True) as svc:
            gw = AsyncGateway(svc)

            async def main():
                await gw.submit(_mats(8, 1)[0], tenant="acme")

            run(main())
        tl = svc.trace()  # after close(): every event has landed
        back = EventTimeline.from_json(tl.to_json())
        assert {ev.tenant for ev in back.events if ev.tenant} == {"acme"}
        # untenanted events serialise without the field at all
        plain = [ev.to_dict() for ev in back.events if ev.tenant is None]
        assert plain and all("tenant" not in d for d in plain)

    def test_service_counts_submissions_per_tenant(self):
        with JacobiService(d=1, max_batch=8, max_delay=0.01) as svc:
            gw = AsyncGateway(svc)

            async def main():
                await asyncio.gather(
                    gw.submit(_mats(8, 1)[0], tenant="a"),
                    gw.submit(_mats(8, 1, seed=1)[0], tenant="a"),
                    gw.submit(_mats(8, 1, seed=2)[0], tenant="b"))

            run(main())
            st = svc.stats()
        assert st.submitted_by_tenant == {"a": 2, "b": 1}
        assert st.accounted == st.submitted


# ----------------------------------------------------------------------
class _Recording:
    """Duck-typed service proxy that keeps every future it hands out."""

    def __init__(self, inner):
        self._inner = inner
        self.futures = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def submit(self, A, **kwargs):
        future = self._inner.submit(A, **kwargs)
        self.futures.append(future)
        return future


def _boom(payload):
    raise RuntimeError("solver crashed")


def _wait_drained(svc):
    deadline = time.monotonic() + 30.0
    while svc.occupancy()[0]:
        assert time.monotonic() < deadline, svc.stats()
        time.sleep(0.001)


#: The ledger buckets every view of one run must agree on.
BUCKETS = ("completed", "failed", "cancelled", "rejected", "shed",
           "throttled")


class TestLedgerViewsAgree:
    def test_tenant_ledger_uses_the_lifecycle_buckets(self):
        names = {f.name for f in fields(TenantStats)}
        table = {bucket for _, bucket in LIFECYCLE.values() if bucket}
        assert names - {"submitted", "pending"} == table - {"open"}
        assert set(BUCKETS) == table - {"open"}
        assert {LIFECYCLE[s][1] for s in TERMINAL_STAGES} \
            == table - {"open", "throttled"}

    def test_stats_trace_and_tenant_ledgers_agree(self, monkeypatch):
        """One lifecycle, three views.  A traced run behind a gateway
        produces every outcome — solves, cancellations while queued
        (settled at expiry), in ``_settle`` and in ``_fail``, a shed, a
        service rejection, a quota throttle and a headroom refusal.
        Afterwards the trace's terminal stages, mapped through
        ``LIFECYCLE``, equal the ``ServiceStats`` buckets, and
        ``tenant_breakdown`` equals every tenant's ``TenantStats``."""
        import repro.service.api as api

        clock = FakeClock()
        pool = ManualExecutor(workers=0)  # batches form only on flush()
        svc = JacobiService(d=1, max_batch=100, max_delay=60.0,
                            max_queue=5, admission="shed", clock=clock,
                            trace=True, executor=pool)
        proxy = _Recording(svc)
        gw = AsyncGateway(proxy, GatewayConfig(tenants={
            "quota": {"rate": 0.001, "burst": 1},
            "bronze": {"priority": "bronze"}}))
        mats = iter(_mats(8, 12, seed=5))

        async def main():
            tasks = []

            async def submit(tenant, **kwargs):
                tasks.append(asyncio.ensure_future(
                    gw.submit(next(mats), tenant=tenant, **kwargs)))
                await asyncio.sleep(0)  # up to the service's future

            await submit("gold")                # request 0
            await submit("bronze")              # headroom: 1 of 1 used
            await submit("quota")               # request 1
            await submit("quota")               # throttled
            await submit("gold", deadline=0.5)  # request 2: shed below
            await submit("gold", deadline=0.5)  # request 3
            proxy.futures[3].cancel()           # ... expires cancelled
            await submit("gold")                # request 4
            await submit("gold")                # request 5: queue full
            clock.advance(1.0)
            await submit("gold")                # request 6: sheds 2, 3
            proxy.futures[4].cancel()           # request 4
            svc.flush()
            assert pool.wait_for_calls(1, 30.0)
            pool.resolve_all()                  # _settle cancels 4
            _wait_drained(svc)
            monkeypatch.setattr(api, "solve_batch_remote", _boom)
            await submit("gold")                # request 7
            await submit("gold")                # request 8
            proxy.futures[-1].cancel()
            svc.flush()
            assert pool.wait_for_calls(2, 30.0)
            pool.resolve_all()                  # _fail cancels 8
            await asyncio.gather(*tasks, return_exceptions=True)

        run(main())
        svc.close()
        tl = svc.trace()
        assert validate_lifecycles(tl) == {}

        st = svc.stats()
        ends = Counter(LIFECYCLE[ev.stage][1] for ev in tl.events
                       if ev.request is not None
                       and ev.stage in TERMINAL_STAGES)
        assert ends == Counter({b: getattr(st, b) for b in BUCKETS
                                if b != "throttled"})
        assert (st.completed, st.failed, st.cancelled, st.rejected,
                st.shed) == (3, 1, 3, 1, 1)

        ledgers = gw.stats().tenants
        breakdown = tenant_breakdown(tl)
        assert set(breakdown) == set(ledgers) == {"gold", "bronze",
                                                   "quota"}
        for tenant, ts in ledgers.items():
            assert ts.pending == 0 and ts.accounted == ts.submitted
            assert {b: breakdown[tenant][b] for b in BUCKETS} \
                == {b: getattr(ts, b) for b in BUCKETS}, tenant
        assert ledgers["bronze"].rejected == 1
        assert ledgers["quota"].throttled == 1
        assert ledgers["gold"].cancelled == 3


# ----------------------------------------------------------------------
class TestGatewayIntegration:
    def test_block_admission_runs_off_the_event_loop(self):
        with JacobiService(d=1, max_batch=1, max_delay=0.0,
                           max_queue=1, admission="block",
                           admission_timeout=30.0) as svc:
            gw = AsyncGateway(svc)

            async def main():
                mats = _mats(8, 4)
                results = await asyncio.gather(
                    *[gw.submit(A, tenant="t") for A in mats])
                return results

            results = run(main())
        assert all(r.converged for r in results)
        st = gw.stats().tenants["t"]
        assert st.completed == 4
        assert st.rejected == 0

    def test_service_shed_lands_in_the_tenant_ledger(self):
        pool = ManualExecutor(workers=0)  # no free solver: it queues
        with JacobiService(d=1, max_batch=100, max_delay=60.0,
                           default_deadline=0.05,
                           executor=pool) as svc, pool:
            gw = AsyncGateway(svc)

            async def main():
                with pytest.raises(ShedError):
                    await gw.submit(_mats(8, 1)[0], tenant="t")

            run(main())
        st = gw.stats().tenants["t"]
        assert st.shed == 1
        assert st.accounted == st.submitted == 1

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_gateway_path_stays_bit_identical(self, workers, transport):
        """QoS decides *whether*, never *how*: a matrix admitted
        through the gateway resolves bit-identically to a direct
        ``service.submit`` and to the sequential twin, for every
        worker count and transport."""
        mats = _mats(8, 3, seed=21)
        with JacobiService(d=1, max_batch=4, max_delay=0.01,
                           workers=workers, transport=transport) as svc:
            direct = [svc.submit(A).result(timeout=60.0) for A in mats]
            gw = AsyncGateway(svc, GatewayConfig(
                tenants={"t": {"rate": 1000.0, "burst": 100,
                               "priority": "silver"}}))

            async def main():
                return await asyncio.gather(
                    *[gw.submit(A, tenant="t") for A in mats])

            gated = run(main())
        seq = ParallelOneSidedJacobi(get_ordering("degree4", 1))
        for A, dr, gr in zip(mats, direct, gated):
            s = seq.solve(A)
            for r in (dr, gr):
                assert np.array_equal(s.eigenvalues, r.eigenvalues)
                assert np.array_equal(s.eigenvectors, r.eigenvectors)
                assert s.sweeps == r.sweeps

    def test_gateway_svd_traffic_passes_through(self):
        from repro.jacobi.svd import onesided_svd

        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 4))
        with JacobiService(d=1, max_batch=4, max_delay=0.01) as svc:
            gw = AsyncGateway(svc)

            async def main():
                return await gw.submit(A, kind="svd", tenant="t")

            r = run(main())
        s = onesided_svd(A)
        assert np.array_equal(s.S, r.S)
        assert np.array_equal(s.U, r.U)
