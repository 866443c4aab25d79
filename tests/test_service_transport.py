"""Transport layer: unit tests, differential bit-identity, leak proofs.

The contract under test (see ``src/repro/service/transport.py``):

* ``resolve_transport`` normalises specs; unknown names are errors.
* Both transports carry payloads and results without changing a bit —
  pickle and shm are differentially identical to each other and to the
  inline baseline, for eigen and SVD traffic, at every worker count.
* The shm ring reuses size-classed segments, bounds its free list, and
  ``close()`` unlinks everything — including segments a SIGKILL'd
  worker was holding — so ``/dev/shm`` never leaks past the service.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.analysis.events import TRANSPORT_STAGES, validate_lifecycles
from repro.errors import SimulationError
from repro.jacobi import make_symmetric_test_matrix
from repro.service import JacobiService
from repro.service.kinds import TRAFFIC_CLASSES
from repro.service.transport import (
    SEGMENT_PREFIX,
    PickleTransport,
    SharedMemoryTransport,
    Transport,
    open_payload,
    resolve_transport,
    seal_result,
)


def _mats(m, count, seed=0):
    return [make_symmetric_test_matrix(m, rng=(seed, k))
            for k in range(count)]


def _shm_segments():
    """Names of this machine's live repro segments (Linux /dev/shm)."""
    if not os.path.isdir("/dev/shm"):
        return None  # non-Linux: skip filesystem-level assertions
    return {p for p in os.listdir("/dev/shm")
            if p.startswith(SEGMENT_PREFIX)}


def _eigen_payload(num=3, m=8, seed=0, vectors=True):
    return {
        "matrices": np.stack(_mats(m, num, seed=seed)),
        "ordering": "degree4", "d": 1, "tol": 1e-12, "max_sweeps": 60,
        "compute_eigenvectors": vectors,
    }


def _svd_payload(num=3, n=6, m=4, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "matrices": rng.standard_normal((num, n, m)),
        "tol": 1e-12, "max_sweeps": 60,
    }


class TestResolveTransport:
    def test_default_is_pickle(self):
        t = resolve_transport(None)
        assert isinstance(t, PickleTransport)
        assert t.name == "pickle"

    def test_names(self):
        assert isinstance(resolve_transport("pickle"), PickleTransport)
        assert isinstance(resolve_transport("shm"), SharedMemoryTransport)

    def test_instance_passthrough(self):
        t = SharedMemoryTransport()
        try:
            assert resolve_transport(t) is t
        finally:
            t.close()

    def test_unknown_rejected(self):
        with pytest.raises(SimulationError, match="unknown transport"):
            resolve_transport("carrier-pigeon")
        with pytest.raises(SimulationError, match="unknown transport"):
            resolve_transport(42)


class TestResultFields:
    def test_eigen_shapes(self):
        fields = TRAFFIC_CLASSES["eigen"].layout(_eigen_payload(num=5, m=8))
        assert fields["eigenvalues"][0] == (5, 8)
        assert fields["eigenvectors"][0] == (5, 8, 8)
        assert fields["sweeps"][0] == (5,)
        assert fields["converged"][0] == (5,)

    def test_eigen_no_vectors(self):
        payload = _eigen_payload(num=2, m=8, vectors=False)
        fields = TRAFFIC_CLASSES["eigen"].layout(payload)
        assert fields["eigenvectors"][0] == (2, 8, 0)

    def test_svd_shapes(self):
        fields = TRAFFIC_CLASSES["svd"].layout(_svd_payload(num=4, n=6, m=3))
        assert fields["U"][0] == (4, 6, 3)
        assert fields["S"][0] == (4, 3)
        assert fields["Vt"][0] == (4, 3, 3)


class TestPickleTransport:
    def test_prepare_is_identity(self):
        t = PickleTransport()
        payload = _eigen_payload()
        wire, handle = t.prepare(payload, "eigen")
        assert wire is payload
        assert handle is None

    def test_finalize_is_passthrough_and_counts(self):
        t = PickleTransport()
        payload = _svd_payload()
        t.prepare(payload, "svd")
        out = {"S": np.ones((3, 4)), "elapsed": 0.1}
        assert t.finalize(out, None) is out
        st = t.stats()
        assert st.name == "pickle"
        assert st.batches == 1
        assert st.bytes_in == payload["matrices"].nbytes
        assert st.bytes_out == out["S"].nbytes
        assert st.live_segments == 0

    def test_release_and_close_are_noops(self):
        t = PickleTransport()
        t.release(None)
        t.close()
        t.prepare(_svd_payload(), "svd")  # still usable after close


class TestSharedMemoryRoundtrip:
    def test_in_process_roundtrip_bit_identical(self):
        """prepare -> open_payload -> seal_result -> finalize carries
        every array bit-for-bit."""
        t = SharedMemoryTransport()
        try:
            payload = _eigen_payload(num=2, m=8, seed=3)
            wire, handle = t.prepare(payload, "eigen")
            assert wire["transport"] == "shm"
            assert "matrices" not in wire
            decoded, seg = open_payload(wire)
            assert seg is not None
            assert np.array_equal(decoded["matrices"],
                                  payload["matrices"])
            assert decoded["tol"] == payload["tol"]
            out = {"eigenvalues": np.arange(16.0).reshape(2, 8),
                   "eigenvectors": np.arange(128.0).reshape(2, 8, 8),
                   "sweeps": np.array([3, 4], dtype=np.int64),
                   "converged": np.array([True, False]),
                   "elapsed": 0.5, "worker": 123}
            back = seal_result(out, seg)
            decoded.clear()
            seg.close()
            assert back["transport"] == "shm"
            assert all(not isinstance(v, np.ndarray)
                       for v in back.values())
            result = t.finalize(back, handle)
            for name in ("eigenvalues", "eigenvectors", "sweeps",
                         "converged"):
                assert np.array_equal(result[name], out[name]), name
                assert result[name].dtype == out[name].dtype, name
            assert result["elapsed"] == 0.5
            assert result["worker"] == 123
        finally:
            t.close()

    def test_pickle_payload_passes_through_worker_helpers(self):
        payload = _svd_payload()
        decoded, seg = open_payload(payload)
        assert decoded is payload
        assert seg is None
        out = {"S": np.ones(3)}
        assert seal_result(out, None) is out

    def test_ring_reuses_segments(self):
        t = SharedMemoryTransport()
        try:
            for expect_reused in (False, True, True):
                wire, handle = t.prepare(_eigen_payload(), "eigen")
                assert handle.reused is expect_reused
                t.finalize({"elapsed": 0.0, "worker": 0,
                            "transport": "shm"}, handle)
            st = t.stats()
            assert st.segments_created == 1
            assert st.segments_reused == 2
            assert st.live_segments == 1
        finally:
            t.close()
        assert t.stats().live_segments == 0

    def test_size_classes_are_powers_of_two(self):
        t = SharedMemoryTransport(min_bytes=1 << 10)
        try:
            assert t._size_class(1) == 1 << 10
            assert t._size_class(1 << 10) == 1 << 10
            assert t._size_class((1 << 10) + 1) == 1 << 11
            assert t._size_class(3 << 16) == 1 << 18
        finally:
            t.close()

    def test_ring_capacity_bounds_free_segments(self):
        t = SharedMemoryTransport(ring_size=1)
        try:
            _, h1 = t.prepare(_eigen_payload(seed=1), "eigen")
            _, h2 = t.prepare(_eigen_payload(seed=2), "eigen")
            t.release(h1)  # ring now holds 1 free segment (its cap)
            t.release(h2)  # over capacity: unlinked instead
            st = t.stats()
            assert st.segments_created == 2
            assert st.segments_unlinked == 1
            assert st.live_segments == 1
        finally:
            t.close()

    def test_release_is_idempotent(self):
        t = SharedMemoryTransport()
        try:
            _, handle = t.prepare(_eigen_payload(), "eigen")
            t.release(handle)
            t.release(handle)
            t.release(None)
            assert t.stats().live_segments == 1
        finally:
            t.close()

    def test_close_unlinks_everything_including_inflight(self):
        before = _shm_segments()
        t = SharedMemoryTransport()
        _, inflight = t.prepare(_eigen_payload(seed=1), "eigen")
        _, returned = t.prepare(_eigen_payload(seed=2), "eigen")
        t.release(returned)
        t.close()
        st = t.stats()
        assert st.live_segments == 0
        assert st.segments_unlinked == 2
        if before is not None:
            assert _shm_segments() == before
        # a straggling callback releasing after close stays safe
        t.release(inflight)
        assert t.stats().live_segments == 0

    def test_close_is_idempotent_and_prepare_refuses_after(self):
        t = SharedMemoryTransport()
        t.close()
        t.close()
        with pytest.raises(SimulationError, match="closed"):
            t.prepare(_eigen_payload(), "eigen")

    def test_constructor_validation(self):
        with pytest.raises(SimulationError, match="ring_size"):
            SharedMemoryTransport(ring_size=-1)
        with pytest.raises(SimulationError, match="min_bytes"):
            SharedMemoryTransport(min_bytes=0)


def _run_service(transport, workers, eig_mats, svd_mats):
    with JacobiService(d=1, max_batch=4, max_delay=0.005,
                       workers=workers, transport=transport) as svc:
        futs = [svc.submit(A) for A in eig_mats]
        fsvd = [svc.submit(A, kind="svd") for A in svd_mats]
        return ([f.result(timeout=120.0) for f in futs],
                [f.result(timeout=120.0) for f in fsvd])


class TestServiceDifferential:
    """shm and pickle are bit-identical on both traffic classes, for
    every worker count (ISSUE 8 acceptance criterion)."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_transports_bit_identical(self, workers):
        eig_mats = _mats(10, 6, seed=11)
        rng = np.random.default_rng(11)
        svd_mats = [rng.standard_normal((6, 4)) for _ in range(4)]
        base_e, base_s = _run_service("pickle", workers,
                                      eig_mats, svd_mats)
        shm_e, shm_s = _run_service("shm", workers, eig_mats, svd_mats)
        for a, b in zip(shm_e, base_e):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.eigenvectors, b.eigenvectors)
            assert a.sweeps == b.sweeps
            assert a.converged == b.converged
        for a, b in zip(shm_s, base_s):
            assert np.array_equal(a.U, b.U)
            assert np.array_equal(a.S, b.S)
            assert np.array_equal(a.Vt, b.Vt)
            assert a.sweeps == b.sweeps

    def test_shm_without_eigenvectors(self):
        mats = _mats(8, 3, seed=7)
        with JacobiService(d=1, max_batch=4, max_delay=0.005,
                           compute_eigenvectors=False,
                           transport="shm") as svc:
            results = [f.result(timeout=60.0)
                       for f in [svc.submit(A) for A in mats]]
        with JacobiService(d=1, max_batch=4, max_delay=0.005,
                           compute_eigenvectors=False) as svc:
            base = [f.result(timeout=60.0)
                    for f in [svc.submit(A) for A in mats]]
        for a, b in zip(results, base):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert a.eigenvectors.shape == (8, 0)


class TestServiceIntegration:
    def test_stats_report_transport(self):
        with JacobiService(d=1, max_batch=4, max_delay=0.005,
                           transport="shm") as svc:
            for f in [svc.submit(A) for A in _mats(8, 4)]:
                f.result(timeout=60.0)
            st = svc.stats()
        assert st.transport == "shm"
        assert st.transport_counters["batches"] >= 1
        assert st.transport_counters["bytes_in"] >= 4 * 8 * 8 * 8
        assert st.transport_counters["segments_created"] >= 1

    def test_default_transport_is_pickle(self):
        with JacobiService(d=1) as svc:
            st = svc.stats()
        assert st.transport == "pickle"
        assert st.transport_counters["segments_created"] == 0

    def test_trace_has_attach_detach_edges(self):
        with JacobiService(d=1, max_batch=4, max_delay=0.005,
                           transport="shm", trace=True) as svc:
            for f in [svc.submit(A) for A in _mats(8, 4)]:
                f.result(timeout=60.0)
            timeline = svc.trace()
        assert timeline.meta["transport"] == "shm"
        stages = [ev.stage for ev in timeline.events]
        for stage in TRANSPORT_STAGES:
            assert stage in stages, stage
        attached = [ev for ev in timeline.events
                    if ev.stage == "attached"]
        assert all(ev.request is None for ev in attached)
        assert all(ev.meta["segment"].startswith(SEGMENT_PREFIX)
                   for ev in attached)
        assert all(ev.meta["bytes"] > 0 for ev in attached)
        # transport edges never disturb the request lifecycles
        assert validate_lifecycles(timeline) == {}

    def test_pickle_trace_has_no_transport_edges(self):
        with JacobiService(d=1, max_batch=4, max_delay=0.005,
                           trace=True) as svc:
            svc.submit(_mats(8, 1)[0]).result(timeout=60.0)
            timeline = svc.trace()
        stages = {ev.stage for ev in timeline.events}
        assert not stages.intersection(TRANSPORT_STAGES)

    def test_close_leaves_no_segments_service_owned(self):
        before = _shm_segments()
        svc = JacobiService(d=1, max_batch=4, max_delay=0.005,
                            transport="shm")
        for f in [svc.submit(A) for A in _mats(8, 6)]:
            f.result(timeout=60.0)
        svc.close()
        assert svc._transport.stats().live_segments == 0
        if before is not None:
            assert _shm_segments() == before

    def test_caller_owned_transport_survives_service_close(self):
        t = SharedMemoryTransport()
        try:
            with JacobiService(d=1, max_batch=4, max_delay=0.005,
                               transport=t) as svc:
                svc.submit(_mats(8, 1)[0]).result(timeout=60.0)
            # the service closed; the caller's transport did not
            t.prepare(_eigen_payload(), "eigen")
        finally:
            t.close()
        assert t.stats().live_segments == 0

    def test_killed_workers_leak_no_segments(self):
        """SIGKILL every pool worker mid-flush: close() must still
        terminate AND the transport must unlink every segment the dead
        workers were holding (ISSUE 8 acceptance criterion)."""
        before = _shm_segments()
        t = SharedMemoryTransport()
        svc = JacobiService(d=1, max_batch=4, max_delay=0.005,
                            workers=2, transport=t)
        futures = [svc.submit(A) for A in _mats(12, 24, seed=5)]
        deadline = time.monotonic() + 60.0
        pool = None
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
        t.close()
        assert t.stats().live_segments == 0
        if before is not None:
            assert _shm_segments() == before
