"""Pluggable batch-payload transports: pickle vs zero-copy shared memory.

Every flush of the solve service is one batched-engine call executed by
a worker process (or inline).  *How the batch's bytes travel* is this
module's concern, and nothing else's: the default
:class:`PickleTransport` ships the stacked matrices through the process
pool's pickle pipe (two serialisations and two copies each way), while
:class:`SharedMemoryTransport` places each flush's inputs **and** its
result arrays in one :mod:`multiprocessing.shared_memory` segment so
workers read the matrices in place and write the result arrays their
traffic class declares (:data:`~repro.service.kinds.TRAFFIC_CLASSES`)
straight back into the same segment — only a small descriptor ever
crosses the pipe.  This is the service-scale remedy for the serial
gather bottleneck the paper attributes to communication, not
arithmetic.

Transports never change *what* is solved or the order results merge in,
only the bytes' route — so both transports are bit-identical to each
other and to the sequential twins by construction (pinned by the
differential tests in ``tests/test_service_transport.py``).

Segment life cycle
------------------
Segments come from a small ring of reusable, size-classed buffers:

* :meth:`SharedMemoryTransport.prepare` sizes one segment for the
  flush's input stack plus its result layout (precomputed by
  :meth:`~repro.service.kinds.TrafficClass.layout`), takes a
  free segment of that size class from the ring — or creates one — and
  copies the matrices in.  Ownership passes to the flush: the handle
  rides the dispatch and nobody else may touch the segment.
* The worker attaches read-only-by-convention, solves, writes the
  result arrays into the segment's output regions
  (:func:`seal_result`), closes its mapping and returns scalars only.
* :meth:`SharedMemoryTransport.finalize` copies the results out (so
  settled futures never alias a reusable buffer) and hands the segment
  back to the ring — or unlinks it when the ring is full.
* :meth:`SharedMemoryTransport.close` unlinks **every** segment the
  transport ever created and has not yet unlinked — free or in flight —
  so a worker dying mid-flush (even SIGKILL) can never leak ``/dev/shm``
  space past the owning service's ``close()``.

Worker processes are spawned :mod:`multiprocessing` children, so they
share the parent's ``resource_tracker``: the creating process registers
each segment once, attach-side registration is an idempotent set-add,
and the single ``unlink`` here unregisters cleanly — no tracker
workarounds, no spurious unlink-at-worker-exit.

The transport API is deliberately backend-agnostic — ``prepare`` /
``finalize`` on the service side, :func:`open_payload` /
:func:`seal_result` on the worker side, with plain dict payloads in
between — so a future kernel backend (threads+BLAS, numba) can slot in
behind the same seam without touching the dispatch paths.

Example
-------
>>> import numpy as np
>>> from repro.service.kinds import TRAFFIC_CLASSES
>>> from repro.service.transport import (SharedMemoryTransport,
...                                      open_payload, seal_result)
>>> t = SharedMemoryTransport()
>>> payload = {"matrices": np.zeros((2, 4, 4)), "tol": 1e-9,
...            "max_sweeps": 60}
>>> wire, handle = t.prepare(payload, kind="svd")
>>> sorted(k for k in wire if k not in payload)
['fields', 'segment', 'transport']
>>> decoded, seg = open_payload(wire)          # what a worker does
>>> bool(np.array_equal(decoded["matrices"], payload["matrices"]))
True
>>> layout = TRAFFIC_CLASSES["svd"].layout(payload)
>>> out = {name: np.ones(shape, dtype)
...        for name, (shape, dtype) in layout.items()}
>>> back = seal_result(dict(out, elapsed=0.0, worker=1), seg)
>>> seg.close()
>>> result = t.finalize(back, handle)          # and the service again
>>> all(result[name].all() for name in layout), result["worker"]
(True, 1)
>>> t.close()
"""

from __future__ import annotations

import os
import threading
import uuid
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .kinds import TRAFFIC_CLASSES

__all__ = [
    "TRANSPORTS",
    "SEGMENT_PREFIX",
    "TransportStats",
    "Transport",
    "PickleTransport",
    "SharedMemoryTransport",
    "resolve_transport",
    "open_payload",
    "seal_result",
]

#: Transport names :func:`resolve_transport` (and therefore
#: ``JacobiService(transport=...)``) understands.
TRANSPORTS = ("pickle", "shm")

#: Shared-memory segment name prefix — what the leak tests scan
#: ``/dev/shm`` for.
SEGMENT_PREFIX = "rjac"

#: Field alignment inside a segment (bytes) — keeps every array region
#: cache-line aligned regardless of the fields before it.
_ALIGN = 64

#: A field table: name -> (byte offset, shape, dtype string).
_Fields = Dict[str, Tuple[int, Tuple[int, ...], str]]


def _layout(payload: Dict[str, Any], kind: str) -> Tuple[_Fields, int]:
    """Lay the flush's input and result arrays out in one buffer,
    ``_ALIGN``-aligned; returns the field table and the total bytes."""
    fields: _Fields = {}
    offset = 0

    def _add(name: str, shape: Tuple[int, ...], dtype: Any) -> None:
        nonlocal offset
        offset = -(-offset // _ALIGN) * _ALIGN
        dt = np.dtype(dtype)
        fields[name] = (offset, tuple(int(s) for s in shape), dt.str)
        offset += int(np.prod(shape, dtype=np.int64)) * dt.itemsize

    _add("matrices", payload["matrices"].shape, np.float64)
    for name, (shape, dtype) in TRAFFIC_CLASSES[kind].layout(
            payload).items():
        _add(name, shape, dtype)
    return fields, max(offset, 1)


@dataclass(frozen=True)
class TransportStats:
    """Data-plane counters of a :class:`Transport`.

    Attributes
    ----------
    name:
        The transport's registry name (``"pickle"`` / ``"shm"``).
    batches:
        Flushes carried (one :meth:`Transport.prepare` each).
    bytes_in:
        Input-matrix bytes shipped toward workers.
    bytes_out:
        Result-array bytes brought back from workers.
    segments_created, segments_reused:
        Shared-memory segments allocated fresh vs taken from the ring
        (both 0 for the pickle transport).
    segments_unlinked:
        Segments destroyed — on ring overflow or :meth:`Transport.close`.
    live_segments:
        Segments currently allocated (free in the ring or riding a
        flush); 0 after a clean :meth:`Transport.close`, which is what
        the leak tests pin.
    """

    name: str
    batches: int
    bytes_in: int
    bytes_out: int
    segments_created: int
    segments_reused: int
    segments_unlinked: int
    live_segments: int

    def counters(self) -> Dict[str, int]:
        """The integer counters as a plain dict (everything except
        :attr:`name`) — the form :meth:`repro.service.api.JacobiService.stats`
        exports."""
        return {"batches": self.batches,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "segments_created": self.segments_created,
                "segments_reused": self.segments_reused,
                "segments_unlinked": self.segments_unlinked,
                "live_segments": self.live_segments}


class Transport:
    """Backend-agnostic transport seam for one flush's payload.

    The service calls :meth:`prepare` before dispatch and
    :meth:`finalize` (or :meth:`release`, on failure) after; whatever
    rides between them is the transport's *handle* — opaque to the
    service beyond the ``segment_name`` / ``nbytes`` / ``reused``
    attributes it may surface in trace events.  Subclasses must keep
    one contract: ``finalize(worker_result, handle)`` returns exactly
    the plain dict of arrays the worker entry point computed, so the
    settle path (and therefore bit-identity) is transport-independent.
    """

    #: Registry name, matching an entry of :data:`TRANSPORTS`.
    name = "base"

    def prepare(self, payload: Dict[str, Any], kind: str
                ) -> Tuple[Dict[str, Any], Optional[Any]]:
        """Encode one flush ``payload`` of traffic class ``kind`` for
        dispatch; returns the wire payload and the transport handle
        (``None`` when nothing needs releasing)."""
        raise NotImplementedError

    def finalize(self, out: Dict[str, Any], handle: Optional[Any]
                 ) -> Dict[str, Any]:
        """Decode the worker's wire result ``out`` for the flush that
        produced ``handle``, releasing the handle; returns the plain
        result dict the settle path consumes."""
        raise NotImplementedError

    def release(self, handle: Optional[Any]) -> None:
        """Release ``handle`` without a result (the flush failed);
        idempotent, and a no-op for ``None``."""
        raise NotImplementedError

    def close(self) -> None:
        """Reclaim every resource the transport still holds
        (idempotent); afterwards :meth:`prepare` refuses new work."""
        raise NotImplementedError

    def stats(self) -> TransportStats:
        """Snapshot the transport's :class:`TransportStats`."""
        raise NotImplementedError


class PickleTransport(Transport):
    """Today's behaviour, made explicit: payloads and results ride the
    process pool's pickle pipe unchanged.

    ``prepare`` is the identity (plus counters) and ``finalize`` hands
    the worker's dict straight through — there is nothing to own, so
    handles are ``None`` and :meth:`close` is a no-op.  Still the right
    choice for tiny matrices, where a segment round-trip costs more
    than pickling a few hundred bytes (see ``docs/tuning.md``).
    """

    name = "pickle"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._batches = 0
        self._bytes_in = 0
        self._bytes_out = 0

    def prepare(self, payload: Dict[str, Any], kind: str
                ) -> Tuple[Dict[str, Any], Optional[Any]]:
        """Count the flush ``payload`` (of traffic class ``kind``) and
        pass it through unchanged, with no handle."""
        with self._lock:
            self._batches += 1
            self._bytes_in += int(payload["matrices"].nbytes)
        return payload, None

    def finalize(self, out: Dict[str, Any], handle: Optional[Any]
                 ) -> Dict[str, Any]:
        """Count the result arrays in ``out`` and pass it through
        (``handle`` is always ``None`` here)."""
        with self._lock:
            self._bytes_out += sum(
                int(v.nbytes) for v in out.values()
                if isinstance(v, np.ndarray))
        return out

    def release(self, handle: Optional[Any]) -> None:
        """Nothing to release — ``handle`` is always ``None`` because
        pickle flushes own no resources."""

    def close(self) -> None:
        """Nothing to reclaim — pickle flushes own no resources."""

    def stats(self) -> TransportStats:
        """Snapshot the transport's :class:`TransportStats` (the
        segment counters are always 0 here)."""
        with self._lock:
            return TransportStats(
                name=self.name, batches=self._batches,
                bytes_in=self._bytes_in, bytes_out=self._bytes_out,
                segments_created=0, segments_reused=0,
                segments_unlinked=0, live_segments=0)


@dataclass
class _Segment:
    """One shared-memory buffer owned by a :class:`SharedMemoryTransport`."""

    shm: shared_memory.SharedMemory
    capacity: int

    @property
    def name(self) -> str:
        return self.shm.name


@dataclass
class _Handle:
    """Ownership token for one in-flight shm flush (service side)."""

    segment: _Segment
    fields: _Fields
    nbytes: int
    reused: bool
    done: bool = False

    @property
    def segment_name(self) -> str:
        return self.segment.name


def _destroy(segment: _Segment) -> None:
    """Close and unlink one segment, tolerating both a mapping that
    still has exported views (worker-death races) and a name someone
    already unlinked."""
    try:
        segment.shm.close()
    except BufferError:  # pragma: no cover - stray view; unmap at exit
        pass
    try:
        segment.shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


class SharedMemoryTransport(Transport):
    """Zero-copy data plane over ``multiprocessing.shared_memory``.

    Parameters
    ----------
    ring_size:
        Free segments kept per size class for reuse; releasing beyond
        it unlinks the segment instead (bounds idle ``/dev/shm``
        footprint while letting steady traffic hit a warm buffer).
    min_bytes:
        Smallest segment ever allocated; requests are rounded up to
        the next power of two at or above this, so mixed batch sizes
        share a few size classes instead of fragmenting the ring.

    One segment carries a whole flush — the input stack *and* every
    result array, at aligned offsets precomputed from the traffic
    class's :meth:`~repro.service.kinds.TrafficClass.layout` — so each
    flush costs at most one segment creation, one descriptor
    over the pipe, and zero pickled array bytes.  See the module
    docstring for the ownership/cleanup protocol.

    Thread safety: ``prepare`` runs on the service's dispatcher thread
    while ``finalize``/``release`` run on pool callback threads, so all
    ring and counter state is lock-guarded here.
    """

    name = "shm"

    def __init__(self, ring_size: int = 4,
                 min_bytes: int = 1 << 16) -> None:
        if int(ring_size) < 0:
            raise SimulationError(
                f"ring_size must be >= 0, got {ring_size}")
        if int(min_bytes) < 1:
            raise SimulationError(
                f"min_bytes must be >= 1, got {min_bytes}")
        self.ring_size = int(ring_size)
        self.min_bytes = int(min_bytes)
        self._lock = threading.Lock()
        self._free: Dict[int, List[_Segment]] = {}
        self._live: Dict[str, _Segment] = {}
        self._closed = False
        self._tag = uuid.uuid4().hex[:6]
        self._seq = 0
        self._batches = 0
        self._bytes_in = 0
        self._bytes_out = 0
        self._created = 0
        self._reused = 0
        self._unlinked = 0

    # ------------------------------------------------------------------
    def _size_class(self, nbytes: int) -> int:
        return 1 << max(self.min_bytes - 1, nbytes - 1).bit_length()

    def _acquire(self, nbytes: int) -> Tuple[_Segment, bool]:
        """Take a free segment of the right size class, or create one
        (caller owns it either way)."""
        capacity = self._size_class(nbytes)
        with self._lock:
            if self._closed:
                raise SimulationError(
                    "shared-memory transport is closed")
            free = self._free.get(capacity)
            if free:
                self._reused += 1
                return free.pop(), True
            name = (f"{SEGMENT_PREFIX}{os.getpid():x}"
                    f"{self._tag}{self._seq:x}")
            self._seq += 1
            segment = _Segment(
                shm=shared_memory.SharedMemory(
                    name=name, create=True, size=capacity),
                capacity=capacity)
            self._created += 1
            self._live[segment.name] = segment
            return segment, False

    def prepare(self, payload: Dict[str, Any], kind: str
                ) -> Tuple[Dict[str, Any], Optional[Any]]:
        """Place the flush ``payload``'s matrices (traffic class
        ``kind``) into a segment sized for inputs plus results; returns
        the descriptor wire payload and the owning handle."""
        fields, nbytes = _layout(payload, kind)
        segment, reused = self._acquire(nbytes)
        matrices = payload["matrices"]
        off, shape, dt = fields["matrices"]
        view = np.ndarray(shape, dtype=dt, buffer=segment.shm.buf,
                          offset=off)
        view[...] = matrices
        del view
        wire = {k: v for k, v in payload.items() if k != "matrices"}
        wire["transport"] = self.name
        wire["segment"] = segment.name
        wire["fields"] = fields
        with self._lock:
            self._batches += 1
            self._bytes_in += int(matrices.nbytes)
        return wire, _Handle(segment=segment, fields=fields,
                             nbytes=nbytes, reused=reused)

    def finalize(self, out: Dict[str, Any], handle: Optional[Any]
                 ) -> Dict[str, Any]:
        """Copy the flush's result arrays out of ``handle``'s segment
        (so settled futures never alias a reusable buffer), merge the
        worker's scalars from ``out``, and hand the segment back to
        the ring."""
        if handle is None:
            return out
        result: Dict[str, Any] = {}
        copied = 0
        buf = handle.segment.shm.buf
        for name, (off, shape, dt) in handle.fields.items():
            if name == "matrices":
                continue
            view = np.ndarray(shape, dtype=dt, buffer=buf, offset=off)
            result[name] = np.array(view, copy=True)
            copied += int(result[name].nbytes)
            del view
        del buf
        for k, v in out.items():
            if k not in ("transport", "segment", "fields"):
                result[k] = v
        self.release(handle)
        with self._lock:
            self._bytes_out += copied
        return result

    def release(self, handle: Optional[Any]) -> None:
        """Hand ``handle``'s segment back to the ring (or unlink it
        when the ring is full or the transport closed); idempotent."""
        if handle is None or handle.done:
            return
        handle.done = True
        segment = handle.segment
        destroy = False
        with self._lock:
            if segment.name not in self._live:
                return  # close() already swept it
            free = self._free.setdefault(segment.capacity, [])
            if self._closed or len(free) >= self.ring_size:
                del self._live[segment.name]
                self._unlinked += 1
                destroy = True
            else:
                free.append(segment)
        if destroy:
            _destroy(segment)

    def close(self) -> None:
        """Unlink every segment still allocated — free *or* in flight —
        so nothing survives in ``/dev/shm`` even when a worker died
        holding a buffer; idempotent, and afterwards :meth:`prepare`
        raises."""
        with self._lock:
            self._closed = True
            doomed = list(self._live.values())
            self._live.clear()
            self._free.clear()
            self._unlinked += len(doomed)
        for segment in doomed:
            _destroy(segment)

    def stats(self) -> TransportStats:
        """Snapshot the transport's :class:`TransportStats`."""
        with self._lock:
            return TransportStats(
                name=self.name, batches=self._batches,
                bytes_in=self._bytes_in, bytes_out=self._bytes_out,
                segments_created=self._created,
                segments_reused=self._reused,
                segments_unlinked=self._unlinked,
                live_segments=len(self._live))


def resolve_transport(transport: Optional[Any]) -> Transport:
    """Normalise a transport spec to a :class:`Transport` instance.

    Parameters
    ----------
    transport:
        ``None`` (the default :class:`PickleTransport`), a name from
        :data:`TRANSPORTS`, or a ready :class:`Transport` instance
        (returned as-is — the caller keeps ownership).

    Returns
    -------
    Transport
        The instance the service should dispatch through.

    Raises
    ------
    SimulationError
        ``transport`` is neither ``None``, a known name, nor a
        :class:`Transport`.
    """
    if transport is None:
        return PickleTransport()
    if isinstance(transport, Transport):
        return transport
    if transport == "pickle":
        return PickleTransport()
    if transport == "shm":
        return SharedMemoryTransport()
    raise SimulationError(
        f"unknown transport {transport!r}; known: {TRANSPORTS} "
        f"or a Transport instance")


# ----------------------------------------------------------------------
# Worker side: module-level helpers, importable in spawned children.
@dataclass
class _WorkerSegment:
    """A worker's attachment to one flush's segment."""

    shm: shared_memory.SharedMemory
    fields: _Fields = field(default_factory=dict)

    def close(self) -> None:
        """Drop this process's mapping (the creator's segment and name
        live on); the caller must have deleted its array views first."""
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - stray view; exit unmaps
            pass


def open_payload(payload: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], Optional[_WorkerSegment]]:
    """Worker-side decode of a flush payload.

    Parameters
    ----------
    payload:
        What crossed the pipe: either a plain payload (pickle
        transport — returned unchanged, no segment) or a
        shared-memory descriptor (``transport`` / ``segment`` /
        ``fields``), in which case the named segment is attached and
        ``matrices`` becomes a zero-copy view into it.

    Returns
    -------
    (payload, segment)
        The solver-ready payload and the attachment to close after the
        solve (``None`` on the pickle path).  Callers must drop the
        payload's ``matrices`` view (e.g. ``payload.clear()``) before
        closing the segment.
    """
    if payload.get("transport") != "shm":
        return payload, None
    shm = shared_memory.SharedMemory(name=payload["segment"])
    fields = payload["fields"]
    off, shape, dt = fields["matrices"]
    decoded = {k: v for k, v in payload.items()
               if k not in ("transport", "segment", "fields")}
    decoded["matrices"] = np.ndarray(shape, dtype=dt, buffer=shm.buf,
                                     offset=off)
    return decoded, _WorkerSegment(shm=shm, fields=fields)


def echo_flush(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Loopback worker entry point: decode an eigen-shaped flush
    ``payload``, fill every result array of the eigen class's layout
    with a deterministic function of the input matrices (an array
    shaped like the stack takes the matrices themselves, one shaped
    like their diagonals the diagonals, the rest zeros), and seal the
    result — the complete data-plane round trip with no solver in the
    loop.

    Importable in spawned workers like the real entry points in
    :mod:`repro.service.pool`; ``benchmarks/test_bench_transport.py``
    ships it across a real process boundary to time the transports in
    isolation, and the moved bytes double as an integrity check.
    """
    decoded, segment = open_payload(payload)
    try:
        mats = decoded["matrices"]
        out: Dict[str, Any] = {}
        for name, (shape, dtype) in TRAFFIC_CLASSES["eigen"].layout(
                decoded).items():
            if shape == mats.shape:
                out[name] = mats.astype(dtype)
            elif shape == mats.shape[:2]:
                out[name] = np.einsum("bii->bi", mats).astype(dtype)
            else:
                out[name] = np.zeros(shape, dtype=dtype)
        out["elapsed"] = 0.0
        return seal_result(out, segment)
    finally:
        if segment is not None:
            decoded.clear()
            segment.close()


def seal_result(out: Dict[str, Any],
                segment: Optional[_WorkerSegment]) -> Dict[str, Any]:
    """Worker-side encode of a flush result.

    Parameters
    ----------
    out:
        The plain result dict the worker computed (arrays plus
        scalars like ``elapsed`` / ``worker``).
    segment:
        The attachment from :func:`open_payload`.  ``None`` (pickle
        path) returns ``out`` unchanged; otherwise every array field
        is written in place into the segment's precomputed result
        region and only the scalars cross the pipe back.

    Returns
    -------
    dict
        The wire result — ``out`` itself, or a small scalars-only
        descriptor tagged ``transport="shm"``.
    """
    if segment is None:
        return out
    for name, (off, shape, dt) in segment.fields.items():
        if name == "matrices":
            continue
        view = np.ndarray(shape, dtype=dt, buffer=segment.shm.buf,
                          offset=off)
        view[...] = out[name]
        del view
    wire: Dict[str, Any] = {k: v for k, v in out.items()
                            if not isinstance(v, np.ndarray)}
    wire["transport"] = "shm"
    return wire
