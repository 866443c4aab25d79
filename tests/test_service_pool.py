"""Sharded executor layer: shard planning, deterministic merge,
bit-identity of ``run_ensemble(workers=N)`` across worker counts.

The acceptance contract of the service layer is that parallelism is a
pure throughput knob: every worker count and shard size must reproduce
the in-process engine's sweep counts bit for bit.  The multi-process
cases spawn real worker processes (``spawn`` start method), so they are
kept small.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ENGINES, run_ensemble, run_svd_ensemble
from repro.engine.cache import GLOBAL_SCHEDULE_CACHE
from repro.errors import SimulationError
from repro.service import (
    ShardedExecutor,
    plan_shards,
    run_svd_ensemble_sharded,
    solve_ensemble_shard,
)
from repro.service.pool import _warm_worker, default_worker_count

#: The equivalence grid shared with the engine tests: mixed dimensions,
#: mixed cube sizes.
GRID = [(16, 2), (16, 4), (8, 2)]

#: The SVD equivalence grid: tall, square and small shapes mixed.
SVD_GRID = [(24, 16), (16, 16), (12, 8)]


def _assert_same_svd(a, b):
    assert [(x.n, x.m) for x in a] == [(y.n, y.m) for y in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.sweeps, y.sweeps), \
            f"sweep counts diverged at (n={x.n}, m={x.m})"


def _assert_same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.m, x.P) == (y.m, y.P)
        assert list(x.sweeps) == list(y.sweeps)
        for name in x.sweeps:
            assert np.array_equal(x.sweeps[name], y.sweeps[name]), \
                f"sweep counts diverged at (m={x.m}, P={x.P}, {name})"


class TestPlanShards:
    def test_one_unit_per_config_ordering_by_default(self):
        plan = plan_shards(GRID, ["br", "degree4"], num_matrices=6,
                           workers=1)
        assert len(plan) == len(GRID) * 2
        assert all(task.lo == 0 and task.hi == 6 for _, task in plan)

    def test_splits_when_fewer_units_than_workers(self):
        plan = plan_shards([(16, 2)], ["br"], num_matrices=8, workers=4)
        assert [(t.lo, t.hi) for _, t in plan] == [(0, 2), (2, 4),
                                                   (4, 6), (6, 8)]

    def test_explicit_shard_size_partitions_exactly(self):
        plan = plan_shards([(16, 2)], ["br"], num_matrices=7, workers=1,
                           shard_size=3)
        assert [(t.lo, t.hi) for _, t in plan] == [(0, 3), (3, 6), (6, 7)]

    def test_plan_order_is_config_then_ordering_then_chunk(self):
        plan = plan_shards(GRID, ["br", "degree4"], num_matrices=4,
                           workers=1, shard_size=2)
        keys = [(ci, t.ordering, t.lo) for ci, t in plan]
        assert keys == sorted(keys, key=lambda k: (
            k[0], ["br", "degree4"].index(k[1]), k[2]))

    def test_rejects_bad_sizes(self):
        with pytest.raises(SimulationError):
            plan_shards(GRID, ["br"], num_matrices=0, workers=1)
        with pytest.raises(SimulationError):
            plan_shards(GRID, ["br"], num_matrices=4, workers=1,
                        shard_size=0)

    def test_svd_one_unit_per_shape(self):
        plan = plan_shards(SVD_GRID, [None], num_matrices=6, workers=1,
                           kind="svd")
        assert [(ci, t.config) for ci, t in plan] == list(
            enumerate(SVD_GRID))
        assert all(t.kind == "svd" and t.ordering is None
                   and (t.lo, t.hi) == (0, 6) for _, t in plan)

    def test_svd_splits_when_fewer_units_than_workers(self):
        plan = plan_shards([(24, 16)], [None], num_matrices=8, workers=4,
                           kind="svd")
        assert [(t.lo, t.hi) for _, t in plan] == [(0, 2), (2, 4),
                                                   (4, 6), (6, 8)]

    def test_svd_explicit_shard_size_partitions_exactly(self):
        plan = plan_shards(SVD_GRID, [None], num_matrices=5, workers=1,
                           shard_size=2, kind="svd")
        assert [(ci, t.lo, t.hi) for ci, t in plan] == [
            (ci, lo, min(lo + 2, 5)) for ci in range(3)
            for lo in (0, 2, 4)]


class TestShardTask:
    def test_shard_solve_matches_ensemble_slice(self):
        full = run_ensemble([(16, 4)], num_matrices=6, seed=3,
                            orderings=["degree4"])
        plan = plan_shards([(16, 4)], ["degree4"], num_matrices=6,
                           workers=1, shard_size=4, seed=3)
        parts = [solve_ensemble_shard(task) for _, task in plan]
        assert np.array_equal(np.concatenate(parts),
                              full[0].sweeps["degree4"])

    def test_sequential_engine_shard(self):
        full = run_ensemble([(8, 2)], num_matrices=3, seed=5,
                            orderings=["br"], engine="sequential")
        plan = plan_shards([(8, 2)], ["br"], num_matrices=3, workers=1,
                           seed=5, engine="sequential")
        (_, task), = plan
        assert np.array_equal(solve_ensemble_shard(task),
                              full[0].sweeps["br"])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_svd_shard_solve_matches_ensemble_slice(self, engine):
        full = run_svd_ensemble([(12, 8)], num_matrices=5, seed=3,
                                engine=engine)
        plan = plan_shards([(12, 8)], [None], num_matrices=5, workers=1,
                           shard_size=2, kind="svd", seed=3,
                           engine=engine)
        parts = [solve_ensemble_shard(task) for _, task in plan]
        assert [len(p) for p in parts] == [2, 2, 1]
        assert np.array_equal(np.concatenate(parts), full[0].sweeps)


class TestShardedExecutorInline:
    def test_inline_future_completes_immediately(self):
        with ShardedExecutor(1) as ex:
            fut = ex.submit(lambda x: x * 2, 21)
            assert fut.done() and fut.result() == 42
            assert not ex.uses_processes

    def test_inline_future_carries_exception(self):
        def boom(_):
            raise ValueError("nope")

        with ShardedExecutor(0) as ex:
            fut = ex.submit(boom, 1)
            with pytest.raises(ValueError):
                fut.result()

    def test_map_ordered_preserves_item_order(self):
        with ShardedExecutor(1) as ex:
            assert ex.map_ordered(lambda x: -x, [3, 1, 2]) == [-3, -1, -2]

    def test_inline_keyboard_interrupt_propagates(self):
        """Regression (ISSUE 8): the inline arm used to stuff *every*
        BaseException into the returned future, so a Ctrl-C during an
        inline solve was silently parked on a future the caller might
        never resolve.  Non-Exception BaseExceptions must re-raise."""
        def interrupt(_):
            raise KeyboardInterrupt

        with ShardedExecutor(1) as ex:
            with pytest.raises(KeyboardInterrupt):
                ex.submit(interrupt, 1)

    def test_inline_system_exit_propagates(self):
        def leave(_):
            raise SystemExit(3)

        with ShardedExecutor(0) as ex:
            with pytest.raises(SystemExit):
                ex.submit(leave, 1)

    def test_inline_plain_exception_stays_on_future(self):
        """The flip side: ordinary Exceptions still ride the future —
        callers handle them per item, and the dispatcher must never
        die on one bad batch."""
        def boom(_):
            raise RuntimeError("per-item failure")

        with ShardedExecutor(1) as ex:
            fut = ex.submit(boom, 1)
            assert fut.done()
            with pytest.raises(RuntimeError, match="per-item failure"):
                fut.result()

    def test_stats_count_inline_dispatches(self):
        ex = ShardedExecutor(1)
        ex.map_ordered(lambda x: x, [1, 2, 3])
        st = ex.stats()
        assert st.tasks_inline == 3
        assert st.tasks_dispatched == 0
        assert not st.pool_started

    def test_negative_workers_rejected(self):
        with pytest.raises(SimulationError):
            ShardedExecutor(-1)


class TestBrokenPoolShutdown:
    """A worker the pool spawned while it was breaking never receives
    its stop signal, and the pool's teardown joins every worker: without
    stopping them first, shutdown (and so ``JacobiService.close``) hangs
    forever."""

    class _Worker:
        def __init__(self) -> None:
            self.killed = False

        def kill(self) -> None:
            self.killed = True

    class _Pool:
        def __init__(self, broken) -> None:
            self._broken = broken
            self._processes = {1: TestBrokenPoolShutdown._Worker(),
                               2: TestBrokenPoolShutdown._Worker()}

        def shutdown(self, wait: bool = True) -> None:
            pass

    def _shutdown(self, broken):
        ex = ShardedExecutor(2)
        ex._pool = self._Pool(broken)
        workers = list(ex._pool._processes.values())
        ex.shutdown()
        return [w.killed for w in workers]

    def test_broken_pool_workers_are_stopped_before_the_join(self):
        assert self._shutdown("a worker died") == [True, True]

    def test_healthy_pool_workers_finish_their_tasks(self):
        assert self._shutdown(False) == [False, False]


class TestWarmup:
    def test_warm_worker_fills_schedule_cache(self):
        GLOBAL_SCHEDULE_CACHE.clear()
        _warm_worker((("br", 2), ("degree4", 3)), warm_sweeps=4)
        info = GLOBAL_SCHEDULE_CACHE.cache_info()
        # 4 schedules + 1 phase-sequence tuple per (name, d) pair
        assert info.size == 10
        assert info.misses == 10

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1


class TestDefaultWorkerCount:
    """Regression (ISSUE 8): ``default_worker_count`` used to read
    ``os.cpu_count()``, oversubscribing cpuset-restricted containers —
    it must prefer the scheduling affinity mask when the platform has
    one."""

    def test_prefers_affinity_over_cpu_count(self, monkeypatch):
        import repro.service.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "sched_getaffinity",
                            lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 64)
        assert default_worker_count() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        import repro.service.pool as pool_mod

        monkeypatch.delattr(pool_mod.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 7)
        assert default_worker_count() == 7

    def test_floors_at_one(self, monkeypatch):
        import repro.service.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "sched_getaffinity",
                            lambda pid: set(), raising=False)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: None)
        assert default_worker_count() == 1


class TestRunEnsembleSharded:
    """The acceptance bit-identity grid."""

    def _baseline(self):
        return run_ensemble(GRID, num_matrices=6, seed=11)

    def test_workers1_equals_in_process(self):
        _assert_same(self._baseline(),
                     run_ensemble(GRID, num_matrices=6, seed=11,
                                  workers=1))

    def test_chunked_shards_equal_in_process(self):
        _assert_same(self._baseline(),
                     run_ensemble(GRID, num_matrices=6, seed=11,
                                  workers=1, shard_size=2))

    def test_workers1_equals_sequential_engine(self):
        _assert_same(run_ensemble(GRID, num_matrices=6, seed=11,
                                  engine="sequential"),
                     run_ensemble(GRID, num_matrices=6, seed=11,
                                  workers=1))

    def test_workers4_equals_workers1_spawn(self):
        """Real spawned worker processes reproduce the counts bit for
        bit (the ISSUE's equivalence requirement)."""
        _assert_same(run_ensemble(GRID, num_matrices=6, seed=11,
                                  workers=1),
                     run_ensemble(GRID, num_matrices=6, seed=11,
                                  workers=4, shard_size=2))

    def test_executor_reuse_across_calls(self):
        with ShardedExecutor(1) as ex:
            from repro.service import run_ensemble_sharded

            a = run_ensemble_sharded(GRID, num_matrices=4, seed=11,
                                     workers=1, executor=ex)
            b = run_ensemble_sharded(GRID, num_matrices=4, seed=11,
                                     workers=1, executor=ex)
        _assert_same(a, b)

    def test_shared_executor_drives_the_shard_plan(self):
        """Regression: planning used to follow the `workers` argument
        even when a wider shared executor was passed, leaving its
        workers idle on single-unit runs."""
        from repro.service import run_ensemble_sharded

        with ShardedExecutor(4) as ex:
            res = run_ensemble_sharded([(16, 2)], num_matrices=8,
                                       seed=11, orderings=["br"],
                                       executor=ex)
            # one (config, ordering) unit split across the pool
            assert ex.stats().tasks_dispatched >= 4
        _assert_same(res, run_ensemble([(16, 2)], num_matrices=8,
                                       seed=11, orderings=["br"]))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_ensemble(GRID, num_matrices=2, engine="warp", workers=1)

    def test_explicit_cache_honoured_inline(self):
        """Regression: run_ensemble(workers=1, cache=...) used to drop
        the cache and read/pollute the process-global one."""
        from repro.engine import ScheduleCache

        cache = ScheduleCache()
        GLOBAL_SCHEDULE_CACHE.clear()
        res = run_ensemble([(8, 2)], num_matrices=2, seed=5,
                           orderings=["br"], workers=1, cache=cache)
        assert res[0].sweeps["br"].shape == (2,)
        assert cache.cache_info().misses > 0
        assert GLOBAL_SCHEDULE_CACHE.cache_info().size == 0

    def test_explicit_cache_rejected_with_worker_processes(self):
        from repro.engine import ScheduleCache

        with pytest.raises(ValueError, match="cache"):
            run_ensemble([(8, 2)], num_matrices=2, workers=2,
                         cache=ScheduleCache())

    def test_svd_workers1_equals_in_process(self):
        _assert_same_svd(run_svd_ensemble(SVD_GRID, num_matrices=4,
                                          seed=11),
                         run_svd_ensemble(SVD_GRID, num_matrices=4,
                                          seed=11, workers=1))

    def test_svd_chunked_shards_equal_in_process(self):
        _assert_same_svd(run_svd_ensemble(SVD_GRID, num_matrices=5,
                                          seed=11),
                         run_svd_ensemble(SVD_GRID, num_matrices=5,
                                          seed=11, workers=1,
                                          shard_size=2))

    def test_svd_workers1_equals_sequential_engine(self):
        _assert_same_svd(run_svd_ensemble(SVD_GRID, num_matrices=3,
                                          seed=11, engine="sequential"),
                         run_svd_ensemble(SVD_GRID, num_matrices=3,
                                          seed=11, workers=1,
                                          engine="sequential"))
        _assert_same_svd(run_svd_ensemble(SVD_GRID, num_matrices=3,
                                          seed=11, engine="sequential"),
                         run_svd_ensemble(SVD_GRID, num_matrices=3,
                                          seed=11, workers=1))

    def test_svd_executor_reuse_across_calls(self):
        with ShardedExecutor(1) as ex:
            a = run_svd_ensemble_sharded(SVD_GRID, num_matrices=3,
                                         seed=11, executor=ex)
            b = run_svd_ensemble_sharded(SVD_GRID, num_matrices=3,
                                         seed=11, shard_size=1,
                                         executor=ex)
            assert ex.stats().tasks_inline == 3 + 9
        _assert_same_svd(a, b)
        _assert_same_svd(a, run_svd_ensemble(SVD_GRID, num_matrices=3,
                                              seed=11))

    def test_svd_workers2_equals_in_process_spawn(self):
        """Real spawned worker processes reproduce the SVD counts bit
        for bit."""
        _assert_same_svd(run_svd_ensemble(SVD_GRID, num_matrices=4,
                                          seed=11),
                         run_svd_ensemble(SVD_GRID, num_matrices=4,
                                          seed=11, workers=2,
                                          shard_size=3))

    def test_default_orderings_match_run_ensemble(self):
        """run_ensemble_sharded's default column set is the runner's
        ENSEMBLE_ORDERINGS constant, not a drifting copy."""
        from repro.engine import ENSEMBLE_ORDERINGS
        from repro.service import run_ensemble_sharded

        res = run_ensemble_sharded([(8, 2)], num_matrices=2, seed=5,
                                   workers=1)
        assert tuple(res[0].sweeps) == ENSEMBLE_ORDERINGS


@pytest.mark.parametrize("num_matrices", (0, -1))
@pytest.mark.parametrize("workers", (0, 1))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("runner, grid", ((run_ensemble, [(8, 2)]),
                                          (run_svd_ensemble, [(8, 4)])),
                         ids=("eigen", "svd"))
def test_num_matrices_below_one_is_one_typed_error(runner, grid, engine,
                                                   workers, num_matrices):
    """Every runner, engine and worker count refuses an empty or
    negative ensemble the same way (in-process runs used to raise a
    bare ValueError or report an empty success)."""
    with pytest.raises(SimulationError, match="num_matrices must be >= 1"):
        runner(grid, num_matrices=num_matrices, engine=engine,
               workers=workers)
