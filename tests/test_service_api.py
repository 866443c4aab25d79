"""JacobiService facade: futures, batching behaviour, stats, validation.

Per-matrix results must be bit-identical to the sequential
:class:`~repro.jacobi.parallel.ParallelOneSidedJacobi` — batching and
sharding are throughput knobs only.  Deadline timing itself is pinned in
``test_service_batcher.py`` with a fake clock; here the real dispatcher
thread is exercised with generous delays to stay robust on slow boxes.
"""

from __future__ import annotations

from concurrent.futures import wait

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.jacobi import ParallelOneSidedJacobi, make_symmetric_test_matrix
from repro.jacobi.svd import onesided_svd
from repro.orderings import get_ordering
from repro.service import JacobiService


def _mats(m, count, seed=0):
    return [make_symmetric_test_matrix(m, rng=(seed, k))
            for k in range(count)]


def _rect_mats(n, m, count, seed=0):
    rng = np.random.default_rng((seed, n, m))
    return [rng.normal(size=(n, m)) for _ in range(count)]


def _assert_svd_identical(A, r, **solver_kwargs):
    s = onesided_svd(A, raise_on_no_convergence=False, **solver_kwargs)
    assert np.array_equal(s.U, r.U)
    assert np.array_equal(s.S, r.S)
    assert np.array_equal(s.Vt, r.Vt)
    assert s.sweeps == r.sweeps
    assert s.converged == r.converged


class TestBitIdentity:
    def test_solve_many_matches_sequential_solver(self):
        mats = _mats(16, 5)
        with JacobiService(d=2, max_batch=3, max_delay=0.01) as svc:
            results = svc.solve_many(mats)
        seq = ParallelOneSidedJacobi(get_ordering("degree4", 2))
        for A, r in zip(mats, results):
            s = seq.solve(A)
            assert np.array_equal(s.eigenvalues, r.eigenvalues)
            assert np.array_equal(s.eigenvectors, r.eigenvectors)
            assert s.sweeps == r.sweeps
            assert r.converged

    def test_mixed_keys_coexist(self):
        """Different (m, ordering) traffic shares one service and still
        resolves each matrix against its own sequential reference."""
        small, large = _mats(8, 2, seed=1), _mats(16, 2, seed=2)
        with JacobiService(d=1, ordering="br", max_delay=0.01) as svc:
            fs = [svc.submit(A) for A in small]
            fl = [svc.submit(A, ordering="degree4", d=2) for A in large]
            svc.flush()
            rs = [f.result() for f in fs]
            rl = [f.result() for f in fl]
        seq_s = ParallelOneSidedJacobi(get_ordering("br", 1))
        seq_l = ParallelOneSidedJacobi(get_ordering("degree4", 2))
        for A, r in zip(small, rs):
            assert np.array_equal(seq_s.solve(A).eigenvalues,
                                  r.eigenvalues)
        for A, r in zip(large, rl):
            assert np.array_equal(seq_l.solve(A).eigenvalues,
                                  r.eigenvalues)

    def test_worker_pool_matches_in_process(self):
        mats = _mats(16, 6, seed=3)
        with JacobiService(d=2, max_delay=0.01) as svc:
            ref = svc.solve_many(mats)
        with JacobiService(d=2, workers=2, max_batch=2,
                           max_delay=0.5) as svc:
            out = svc.solve_many(mats)
        for r, s in zip(ref, out):
            assert np.array_equal(r.eigenvalues, s.eigenvalues)
            assert np.array_equal(r.eigenvectors, s.eigenvectors)
            assert r.sweeps == s.sweeps


class TestSvdTraffic:
    """The second traffic class: submit(A, kind="svd") must be
    bit-identical to onesided_svd for every worker count, shard size
    and micro-batch schedule — including when eigen and SVD
    submissions interleave on one service instance."""

    def test_solve_many_matches_onesided_svd(self):
        mats = _rect_mats(24, 16, 5)
        with JacobiService(d=2, max_batch=3, max_delay=0.01) as svc:
            results = svc.solve_many(mats, kind="svd")
        for A, r in zip(mats, results):
            _assert_svd_identical(A, r)

    @pytest.mark.parametrize("max_batch", (1, 2, 100))
    def test_bit_identical_across_micro_batch_schedules(self, max_batch):
        mats = _rect_mats(16, 8, 5, seed=1)
        with JacobiService(d=1, max_batch=max_batch,
                           max_delay=60.0) as svc:
            results = svc.solve_many(mats, kind="svd")
        for A, r in zip(mats, results):
            _assert_svd_identical(A, r)

    def test_mixed_eigen_and_svd_interleaved(self):
        """The acceptance grid: eigen and SVD submissions interleave on
        one service; each resolves against its own sequential twin."""
        eig = _mats(16, 3, seed=2)
        svd = _rect_mats(24, 16, 3, seed=2)
        sq = _rect_mats(8, 8, 2, seed=3)
        with JacobiService(d=2, max_batch=4, max_delay=0.01) as svc:
            futures = []
            for k in range(3):  # interleave the kinds submission by
                futures.append((svc.submit(eig[k]), "eigen", eig[k]))
                futures.append((svc.submit(svd[k], kind="svd"), "svd",
                                svd[k]))
            for A in sq:
                futures.append((svc.submit(A, kind="svd"), "svd", A))
            svc.flush()
            resolved = [(f.result(), kind, A) for f, kind, A in futures]
            st = svc.stats()
        seq = ParallelOneSidedJacobi(get_ordering("degree4", 2))
        for r, kind, A in resolved:
            if kind == "eigen":
                s = seq.solve(A)
                assert np.array_equal(s.eigenvalues, r.eigenvalues)
                assert np.array_equal(s.eigenvectors, r.eigenvectors)
            else:
                _assert_svd_identical(A, r)
        assert st.submitted_by_kind == {"eigen": 3, "svd": 5}
        assert st.completed == 8 and st.failed == 0

    @pytest.mark.parametrize("workers", (0, 2))
    def test_worker_pool_bit_identical(self, workers):
        mats = _rect_mats(24, 16, 4, seed=4)
        eig = _mats(16, 2, seed=4)
        with JacobiService(d=2, workers=workers, max_batch=2,
                           max_delay=0.5) as svc:
            fs = [svc.submit(A, kind="svd") for A in mats]
            fe = [svc.submit(A) for A in eig]
            svc.flush()
            rs = [f.result() for f in fs]
            re = [f.result() for f in fe]
        for A, r in zip(mats, rs):
            _assert_svd_identical(A, r)
        seq = ParallelOneSidedJacobi(get_ordering("degree4", 2))
        for A, r in zip(eig, re):
            assert np.array_equal(seq.solve(A).eigenvalues, r.eigenvalues)

    def test_convergence_miss_is_data_not_exception(self):
        with JacobiService(d=1, max_sweeps=1, tol=1e-15,
                           max_delay=0.01) as svc:
            (res,) = svc.solve_many(_rect_mats(12, 8, 1), kind="svd")
        assert not res.converged
        assert res.sweeps == 1
        _assert_svd_identical(_rect_mats(12, 8, 1)[0], res,
                              tol=1e-15, max_sweeps=1)

    def test_rejects_wide_matrix(self):
        with JacobiService(d=1) as svc:
            with pytest.raises(SimulationError, match="n >= m"):
                svc.submit(np.zeros((4, 8)), kind="svd")

    def test_rejects_ordering_override(self):
        with JacobiService(d=1) as svc:
            with pytest.raises(SimulationError, match="do not apply"):
                svc.submit(np.zeros((8, 4)), kind="svd", ordering="br")
            with pytest.raises(SimulationError, match="do not apply"):
                svc.submit(np.zeros((8, 4)), kind="svd", d=1)

    def test_rejects_unknown_kind(self):
        with JacobiService(d=1) as svc:
            with pytest.raises(SimulationError, match="unknown traffic"):
                svc.submit(np.eye(8), kind="schur")

    def test_svd_submit_copies_the_matrix(self):
        buf = _rect_mats(12, 8, 1, seed=5)[0]
        expected = onesided_svd(buf).S
        with JacobiService(d=1, max_batch=100, max_delay=60.0) as svc:
            fut = svc.submit(buf, kind="svd")
            buf[:] = 0.0  # clobber before the flush
            svc.flush()
            assert np.array_equal(fut.result(timeout=30.0).S, expected)


class TestFlushTriggers:
    def test_size_trigger_resolves_without_explicit_flush(self):
        mats = _mats(8, 2)
        with JacobiService(d=1, max_batch=2, max_delay=60.0) as svc:
            futures = [svc.submit(A) for A in mats]
            done, _ = wait(futures, timeout=30.0)
            assert len(done) == 2

    def test_deadline_trigger_resolves_single_submission(self):
        with JacobiService(d=1, max_batch=100, max_delay=0.05) as svc:
            fut = svc.submit(_mats(8, 1)[0])
            assert fut.result(timeout=30.0).converged

    def test_close_drains_pending(self):
        svc = JacobiService(d=1, max_batch=100, max_delay=60.0)
        futures = [svc.submit(A) for A in _mats(8, 3)]
        svc.close()
        assert all(f.done() for f in futures)
        assert all(f.result().converged for f in futures)


class TestValidation:
    def test_rejects_non_symmetric(self):
        with JacobiService(d=1) as svc:
            with pytest.raises(SimulationError):
                svc.submit(np.arange(64.0).reshape(8, 8))

    def test_rejects_non_square(self):
        with JacobiService(d=1) as svc:
            with pytest.raises(SimulationError):
                svc.submit(np.zeros((4, 6)))

    def test_rejects_matrix_too_small_for_cube(self):
        with JacobiService(d=2) as svc:
            with pytest.raises(SimulationError):
                svc.submit(np.eye(4))  # needs m >= 8 on a 2-cube

    @pytest.mark.parametrize("kind", ("eigen", "svd"))
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_rejects_non_finite(self, kind, bad):
        A = _mats(8, 1)[0]
        A[0, 0] = bad
        with JacobiService(d=1) as svc:
            with pytest.raises(SimulationError, match="non-finite"):
                svc.submit(A, kind=kind)
            assert svc.stats().submitted == 0

    def test_rejects_unknown_ordering_eagerly(self):
        with pytest.raises(Exception):
            JacobiService(d=1, ordering="no-such-family")

    def test_submit_after_close_raises(self):
        svc = JacobiService(d=1)
        svc.close()
        with pytest.raises(SimulationError):
            svc.submit(_mats(8, 1)[0])
        svc.close()  # idempotent

    def test_bad_matrix_does_not_poison_the_batch(self):
        """The invalid submission fails synchronously; queued neighbours
        still resolve."""
        with JacobiService(d=1, max_batch=10, max_delay=60.0) as svc:
            good = svc.submit(_mats(8, 1)[0])
            with pytest.raises(SimulationError):
                svc.submit(np.arange(64.0).reshape(8, 8))
            svc.flush()
            assert good.result(timeout=30.0).converged


class TestRobustness:
    def test_submit_copies_the_matrix(self):
        """Regression: a caller reusing one buffer across submits must
        not retroactively change queued work."""
        buf = _mats(8, 1)[0]
        expected = ParallelOneSidedJacobi(
            get_ordering("degree4", 1)).solve(buf).eigenvalues
        with JacobiService(d=1, max_batch=100, max_delay=60.0) as svc:
            fut = svc.submit(buf)
            buf[:] = 0.0  # clobber before the flush
            svc.flush()
            assert np.array_equal(fut.result(timeout=30.0).eigenvalues,
                                  expected)

    def test_broken_executor_fails_futures_instead_of_hanging(self):
        """Regression: a dispatch-time executor failure (e.g. a broken
        process pool) must fail the flushed futures and leave the
        dispatcher alive — not kill the thread and deadlock close()."""

        class BrokenExecutor:
            uses_processes = True

            def submit(self, fn, *args):
                raise RuntimeError("pool is broken")

            def shutdown(self, wait=True):
                pass

        svc = JacobiService(d=1, max_batch=100, max_delay=60.0,
                            workers=2, executor=BrokenExecutor())
        fut = svc.submit(_mats(8, 1)[0])
        svc.flush()
        with pytest.raises(RuntimeError, match="pool is broken"):
            fut.result(timeout=30.0)
        # the dispatcher survived: the service still drains and closes
        fut2 = svc.submit(_mats(8, 1)[0])
        svc.close()
        assert fut2.done()
        assert svc.stats().failed == 2


    def test_malformed_backend_payload_fails_futures(self):
        """Regression: a mis-shaped solver payload must fail the
        affected futures loudly, not leave them unresolved forever."""
        from concurrent.futures import Future

        from repro.service.api import _Item

        svc = JacobiService(d=1)
        items = [_Item(matrix=np.eye(8), future=Future())
                 for _ in range(2)]
        with svc._cond:
            svc._inflight = 2
        out = {  # arrays for only one of the two items
            "eigenvalues": np.zeros((1, 8)),
            "eigenvectors": np.zeros((1, 8, 8)),
            "sweeps": np.zeros(1, dtype=np.int64),
            "converged": np.ones(1, dtype=bool),
        }
        svc._settle(items, out)
        assert items[0].future.result(timeout=1.0).sweeps == 0
        with pytest.raises(IndexError):
            items[1].future.result(timeout=1.0)
        st = svc.stats()
        assert (st.completed, st.failed) == (1, 1)
        svc.close()


class TestOutcomes:
    def test_convergence_miss_is_data_not_exception(self):
        with JacobiService(d=1, max_sweeps=1, tol=1e-15,
                           max_delay=0.01) as svc:
            (res,) = svc.solve_many(_mats(8, 1))
        assert not res.converged
        assert res.sweeps == 1

    def test_eigenvectors_optional(self):
        with JacobiService(d=1, compute_eigenvectors=False,
                           max_delay=0.01) as svc:
            (res,) = svc.solve_many(_mats(8, 1))
        assert res.eigenvectors.shape == (8, 0)
        assert res.eigenvalues.shape == (8,)


class TestStats:
    def test_counters_add_up(self):
        mats = _mats(8, 5)
        with JacobiService(d=1, max_batch=2, max_delay=60.0) as svc:
            results = svc.solve_many(mats)
            st = svc.stats()
        assert len(results) == 5
        assert st.submitted == 5
        assert st.completed == 5
        assert st.failed == 0
        assert st.queue_depth == 0
        assert sum(st.flushes.values()) == st.batches
        # max_batch=2 is a hard ceiling: 5 items need >= 3 batches
        assert st.batches >= 3
        assert st.mean_batch_size <= 2.0
        assert st.throughput > 0.0

    def test_stats_before_any_traffic(self):
        with JacobiService(d=1) as svc:
            st = svc.stats()
        assert st.submitted == 0
        assert st.elapsed == 0.0
        assert st.throughput == 0.0
        assert st.mean_batch_size == 0.0
