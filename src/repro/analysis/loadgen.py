"""Load-generator harness: the solve service under live load.

The service benchmarks elsewhere in the repo measure *closed* loops —
hand the engine an ensemble, time the run.  This module measures the
:class:`~repro.service.JacobiService` the way production traffic hits
it: **open-loop** replay of a seeded arrival trace.  Each scenario is a
deterministic schedule of ``(arrival time, traffic kind, shape)``
tuples; the replayer submits every matrix at its scheduled instant
(never waiting for earlier results, so a slow service accumulates
backlog exactly like a real queue) and measures, per item, the time
from *scheduled arrival* to future resolution — which charges
coordinated omission to the service, not the generator.

Six traffic shapes are bundled, chosen to pull the batching and QoS
knobs in opposite directions:

* ``trickle`` — sparse arrivals; batches never fill, so every flush is
  an idle release and ``max_delay`` never binds;
* ``bursty`` — arrival spikes above the small-batch solve capacity, so
  a small ``max_batch`` caps throughput;
* ``bimodal`` — the matrix shape flips between regimes, so two batch
  keys alternate;
* ``mixed`` — interleaved eigen and SVD submissions, exercising both
  traffic classes at once;
* ``overload`` — sustained arrivals *above* solve capacity, exercising
  the admission layer rather than the batching knobs;
* ``tenants`` — one noisy neighbour flooding many small tenants
  through the :class:`~repro.service.gateway.AsyncGateway`, exercising
  per-tenant quotas and priorities rather than the batching knobs.

:func:`compute_load_bench` replays every scenario against each fixed
setting (same seeded matrices, same trace), reporting post-warm-up
p50/p99 latency and overall throughput — this is what
``repro-jacobi load-bench`` renders and what CI uploads as an
artifact.  Percentiles exclude a leading warm-up fraction of the trace
(default 20%), so first-call costs (schedule builds, thread start-up)
stay out of the steady-state comparison.  Throughput is measured over
the whole run, warm-up included.

The ``overload`` scenario runs a different settings grid
(:data:`OVERLOAD_SETTINGS`): an uncontended stretched replay of the
same bursts, the unbounded baseline, and two bounded admission
configurations (``max_queue`` with the ``"reject"`` / ``"shed"``
policies of :mod:`repro.service.admission`).  Its rows additionally
report how many items were solved / rejected / shed and the sampled
backlog trace — the unbounded baseline's backlog grows without bound
while the bounded services' latency stays flat, which is the whole
argument for admission control.  Latency percentiles always cover
*solved* items only; rejected and shed items resolve in microseconds
and would make an overloaded service look absurdly fast.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueueFull, SimulationError
from ..jacobi.convergence import DEFAULT_TOL
from ..jacobi.onesided import make_symmetric_test_matrix
from ..service import AsyncGateway, GatewayConfig, JacobiService
from ..service.batcher import FLUSH_CAUSES
from .events import LIFECYCLE, TERMINAL_STAGES, EventTimeline, settled_bucket
from .report import render_table

__all__ = [
    "Arrival",
    "Scenario",
    "SCENARIOS",
    "FixedSetting",
    "FIXED_SETTINGS",
    "AdmissionSetting",
    "OVERLOAD_SETTINGS",
    "TENANTS_NOISY",
    "TENANTS_SMALL",
    "TENANTS_QOS",
    "LoadResult",
    "TRACE_BUNDLE_SCHEMA",
    "build_trace",
    "build_matrices",
    "replay",
    "replay_traced",
    "compute_load_bench",
    "render_load_bench",
    "render_tenant_bench",
    "results_to_json",
    "arrivals_from_timeline",
    "outcomes_from_timeline",
    "trace_bundle_to_json",
    "replay_recorded",
]


@dataclass(frozen=True)
class Arrival:
    """One scheduled submission of a load trace.

    Attributes
    ----------
    at:
        Seconds after the replay starts at which the submission fires.
    kind:
        Traffic class (``"eigen"`` or ``"svd"``).
    n, m:
        Matrix shape: eigen matrices are ``(m, m)`` symmetric, SVD
        matrices are ``(n, m)`` tall/square.
    deadline:
        Per-request deadline in seconds handed to
        :meth:`~repro.service.api.JacobiService.submit` (``None`` =
        the service default) — carried so a trace-driven replay
        reproduces recorded deadlines.
    tenant:
        Tenant label of a multi-tenant trace (``None`` = untenanted).
        The ``tenants`` scenario routes tenanted arrivals through an
        :class:`~repro.service.gateway.AsyncGateway`.
    """

    at: float
    kind: str
    n: int
    m: int
    deadline: Optional[float] = None
    tenant: Optional[str] = None


@dataclass(frozen=True)
class Scenario:
    """A named, seeded arrival-trace generator.

    Attributes
    ----------
    name:
        CLI-facing identifier (``trickle`` / ``bursty`` / ...).
    description:
        One line on the traffic shape and what it stresses.
    default_items:
        Trace length when the caller does not override it.
    build:
        ``(items, rng) -> list of Arrival`` — must be a pure function
        of its arguments so a seed pins the whole trace.
    """

    name: str
    description: str
    default_items: int
    build: Callable[[int, np.random.Generator], List[Arrival]]


def _trickle(items: int, rng: np.random.Generator) -> List[Arrival]:
    """Sparse eigen arrivals: exponential gaps (mean 30 ms) longer than
    a solve, so batches never fill."""
    t, out = 0.0, []
    for _ in range(items):
        t += float(rng.exponential(0.03))
        out.append(Arrival(at=t, kind="eigen", n=16, m=16))
    return out


def _bursty(items: int, rng: np.random.Generator) -> List[Arrival]:
    """Arrival spikes: bursts of 32 eigen matrices every 60 ms — above
    the small-batch solve capacity, so backlog builds unless batches
    grow."""
    out = []
    burst = 32
    for k in range(items):
        out.append(Arrival(at=(k // burst) * 0.06, kind="eigen",
                           n=24, m=24))
    return out


def _bimodal(items: int, rng: np.random.Generator) -> List[Arrival]:
    """Shape regimes: blocks of 10 arrivals alternate between small
    (8x8) and large (24x24) eigen matrices — two batch keys."""
    t, out = 0.0, []
    for k in range(items):
        t += float(rng.exponential(0.008))
        m = 8 if (k // 10) % 2 == 0 else 24
        out.append(Arrival(at=t, kind="eigen", n=m, m=m))
    return out


def _mixed(items: int, rng: np.random.Generator) -> List[Arrival]:
    """Both traffic classes on one service: eigen 16x16 and SVD 24x12
    submissions interleave with exponential gaps (mean 15 ms)."""
    t, out = 0.0, []
    for k in range(items):
        t += float(rng.exponential(0.015))
        if k % 2 == 0:
            out.append(Arrival(at=t, kind="eigen", n=16, m=16))
        else:
            out.append(Arrival(at=t, kind="svd", n=24, m=12))
    return out


#: Overload trace shape: bursts of this many heavy eigen matrices ...
OVERLOAD_BURST = 8
#: ... every this many seconds — well above one-core solve capacity.
OVERLOAD_PERIOD = 0.012
#: Stretch factor of the uncontended twin replay (same bursts, period
#: multiplied by this, so the service fully drains between bursts).
OVERLOAD_STRETCH = 12.0


def _overload(items: int, rng: np.random.Generator) -> List[Arrival]:
    """Sustained overload: bursts of heavy (32x32) eigen matrices
    arriving faster than they can be solved, so an unbounded queue
    grows without bound for as long as the trace lasts."""
    return [Arrival(at=(k // OVERLOAD_BURST) * OVERLOAD_PERIOD,
                    kind="eigen", n=32, m=32) for k in range(items)]


#: The multi-tenant cast: one flooding neighbour ...
TENANTS_NOISY = "noisy"
#: ... and several small, well-behaved tenants.
TENANTS_SMALL: Tuple[str, ...] = ("small0", "small1", "small2")
#: Noisy-neighbour flood shape: bursts of this many matrices ...
TENANTS_BURST = 8
#: ... every this many seconds.
TENANTS_PERIOD = 0.03
#: Share of the trace the noisy neighbour fires (the rest is split
#: round-robin over the small tenants).
TENANTS_NOISY_SHARE = 0.75
#: The QoS knobs the ``tenants`` scenario's gated row applies to the
#: noisy neighbour: a tight token-bucket quota plus bottom priority.
TENANTS_QOS: Dict[str, Dict[str, Any]] = {
    TENANTS_NOISY: {"rate": 20.0, "burst": 4, "priority": "bronze"},
}


def _tenants(items: int, rng: np.random.Generator) -> List[Arrival]:
    """One noisy neighbour against many small tenants, all on the same
    traffic class (16x16 eigen, one batch key): the noisy tenant fires
    bursts well above its fair share while the small tenants trickle —
    whether the smalls' latency survives is a QoS question, not a
    batching one."""
    noisy_items = int(items * TENANTS_NOISY_SHARE)
    out = [Arrival(at=(k // TENANTS_BURST) * TENANTS_PERIOD,
                   kind="eigen", n=16, m=16, tenant=TENANTS_NOISY)
           for k in range(noisy_items)]
    t = 0.0
    for k in range(items - noisy_items):
        t += float(rng.exponential(0.01))
        out.append(Arrival(
            at=t, kind="eigen", n=16, m=16,
            tenant=TENANTS_SMALL[k % len(TENANTS_SMALL)]))
    return sorted(out, key=lambda a: a.at)


#: The bundled scenarios, in report order.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("trickle",
             "sparse arrivals; batches never fill",
             40, _trickle),
    Scenario("bursty",
             "32-wide spikes above small-batch capacity; fixed "
             "max_batch caps throughput",
             160, _bursty),
    Scenario("bimodal",
             "matrix shape flips between regimes; two batch keys",
             60, _bimodal),
    Scenario("mixed",
             "interleaved eigen and SVD traffic classes",
             40, _mixed),
    Scenario("overload",
             "sustained arrivals above solve capacity; admission "
             "policies vs the unbounded baseline",
             96, _overload),
    Scenario("tenants",
             "one noisy neighbour floods many small tenants; gateway "
             "QoS vs the ungated baseline",
             96, _tenants),
)


@dataclass(frozen=True)
class FixedSetting:
    """One fixed ``(max_batch, max_delay)`` baseline.

    Attributes
    ----------
    label:
        Report label.
    max_batch, max_delay:
        The batcher limits, held constant for the whole replay.
    """

    label: str
    max_batch: int
    max_delay: float


#: Fixed settings every scenario is replayed against: a
#: throughput-tuned setting (large batches, long deadline) and a
#: latency-tuned one (small batches, short deadline).
FIXED_SETTINGS: Tuple[FixedSetting, ...] = (
    FixedSetting("fixed b=16 d=50ms", 16, 0.05),
    FixedSetting("fixed b=2 d=2ms", 2, 0.002),
)


@dataclass(frozen=True)
class AdmissionSetting:
    """One admission configuration of the ``overload`` scenario grid.

    Attributes
    ----------
    label:
        Report label.
    max_queue:
        The service's queue bound (0 = unbounded).
    admission:
        Overload policy (see :mod:`repro.service.admission`).
    default_deadline:
        Per-request deadline in seconds for the ``"shed"`` policy
        (``None`` for the others).
    """

    label: str
    max_queue: int
    admission: str
    default_deadline: Optional[float] = None


#: Batching limits shared by every overload replay — admission, not
#: batching, is the variable under test.
OVERLOAD_BATCH = 8
OVERLOAD_DELAY = 0.01

#: The overload scenario's settings grid: the unbounded baseline
#: (backlog and latency grow without bound), fail-fast rejection with a
#: one-batch queue, and deadline-based shedding with a deeper queue.
#: The shed deadline must stay below the time a full queue takes to
#: drain (two to three 8-matrix 32x32 batch solves), or no queued item
#: ever lapses and the policy degenerates into plain rejection.
OVERLOAD_SETTINGS: Tuple[AdmissionSetting, ...] = (
    AdmissionSetting("unbounded", 0, "reject"),
    AdmissionSetting("reject q=8", 8, "reject"),
    AdmissionSetting("shed q=24 dl=40ms", 24, "shed", 0.04),
)


@dataclass(frozen=True)
class LoadResult:
    """One (scenario, setting) replay outcome.

    Attributes
    ----------
    scenario, label:
        Which trace, which batching setting.
    items:
        Submissions replayed.
    measured:
        Items in the post-warm-up latency sample.
    p50_ms, p99_ms:
        Latency percentiles (scheduled arrival -> future resolution) of
        the post-warm-up sample, in milliseconds.
    throughput:
        Completed solves per second over the whole replay (first
        scheduled arrival to last resolution).
    flushes:
        Released micro-batches by cause.
    mean_batch_size:
        Flushed items per flush.
    solved, rejected, shed:
        Per-item outcomes: futures resolving to a result / submissions
        refused with :class:`~repro.errors.QueueFull` / futures
        resolving to :class:`~repro.errors.ShedError`.  On an
        unbounded service ``solved == items``.  Latency percentiles
        cover solved items only.
    peak_backlog:
        Largest sampled backlog (batcher queue plus in-flight items)
        observed at any submission instant.
    backlog:
        The backlog samples (one per submission instant), downsampled
        to at most 64 evenly-spaced points — the unbounded baseline's
        grows monotonically under overload, the bounded settings' stay
        capped at ``max_queue``.
    outcomes:
        Per-arrival outcome in trace order (``"solved"`` /
        ``"rejected"`` / ``"shed"`` / ``"failed"``, plus
        ``"throttled"`` on gateway rows) — what the record->replay
        determinism tests compare.
    tenants:
        Per-tenant accounting of a ``tenants``-scenario row: gateway
        ledger counters plus the tenant's solved-only post-warm-up
        latency sample (``latencies_ms`` with its ``p50_ms`` /
        ``p99_ms``).  Empty for untenanted rows.
    """

    scenario: str
    label: str
    items: int
    measured: int
    p50_ms: float
    p99_ms: float
    throughput: float
    flushes: Dict[str, int]
    mean_batch_size: float
    solved: int = 0
    rejected: int = 0
    shed: int = 0
    peak_backlog: int = 0
    backlog: List[int] = field(default_factory=list)
    outcomes: List[str] = field(default_factory=list)
    tenants: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def _outcome(bucket: str) -> str:
    """The :attr:`LoadResult.outcomes` word for a ledger bucket: a
    ``completed`` request is ``"solved"``, every other bucket keeps its
    name."""
    return "solved" if bucket == "completed" else bucket


def build_trace(scenario: Scenario, items: Optional[int] = None,
                seed: int = 0) -> List[Arrival]:
    """Generate one scenario's deterministic arrival trace.

    Parameters
    ----------
    scenario:
        The :class:`Scenario` to expand.
    items:
        Trace length override (``None`` uses the scenario default).
    seed:
        RNG seed; the same ``(scenario, items, seed)`` always yields
        the same trace.

    Returns
    -------
    list of Arrival
        Sorted by scheduled time.
    """
    items = scenario.default_items if items is None else int(items)
    if items < 1:
        raise SimulationError(f"items must be >= 1, got {items}")
    rng = np.random.default_rng((seed,) + tuple(scenario.name.encode()))
    return scenario.build(items, rng)


def build_matrices(arrivals: Sequence[Arrival],
                   seed: int = 0) -> List[np.ndarray]:
    """Pre-generate the seeded matrix per arrival.

    Parameters
    ----------
    arrivals:
        The trace to materialise matrices for.
    seed:
        Matrix RNG seed (independent of the trace's timing seed).

    Returns
    -------
    list of ndarray
        One matrix per arrival — symmetric ``(m, m)`` for eigen
        entries, Gaussian ``(n, m)`` for SVD entries.  Generating up
        front keeps matrix construction out of the timed replay loop,
        and every setting replays the *same* matrices.
    """
    mats: List[np.ndarray] = []
    for i, a in enumerate(arrivals):
        if a.kind == "eigen":
            mats.append(make_symmetric_test_matrix(a.m, rng=(seed, i)))
        else:
            rng = np.random.default_rng((seed, i))
            mats.append(rng.normal(size=(a.n, a.m)))
    return mats


def replay(arrivals: Sequence[Arrival], matrices: Sequence[np.ndarray],
           *, scenario: str, label: str, max_batch: int, max_delay: float,
           max_queue: int = 0, admission: str = "reject",
           default_deadline: Optional[float] = None,
           warmup_frac: float = 0.2, d: int = 2,
           tol: float = DEFAULT_TOL, timeout: float = 120.0,
           transport: Optional[str] = None,
           tracer: Optional[Any] = None) -> LoadResult:
    """Open-loop replay of one trace against one service configuration.

    Parameters
    ----------
    arrivals, matrices:
        The trace and its pre-generated matrices (same length).
    scenario, label:
        Report tags carried into the :class:`LoadResult`.
    max_batch, max_delay:
        The service's batching limits.
    max_queue:
        The service's admission bound (0 = unbounded, the default —
        exactly the pre-admission replay).
    admission:
        The service's overload policy at capacity (see
        :mod:`repro.service.admission`).  Rejected submissions are
        counted, not raised: an open-loop generator keeps firing the
        trace regardless.
    default_deadline:
        Per-request deadline in seconds handed to the service
        (``"shed"`` policy); ``None`` disables expiry.  An arrival's
        own ``deadline`` field wins over this.
    warmup_frac:
        Leading fraction of the trace excluded from the latency
        percentiles (steady-state measurement; throughput still covers
        the whole run).
    d:
        Hypercube dimension of the eigen traffic class.
    tol:
        Convergence tolerance.
    timeout:
        Seconds to wait for the replay's futures before giving up.
    transport:
        Batch data plane handed to the service — ``None``/``"pickle"``
        for the pickle pipe, ``"shm"`` for the zero-copy
        shared-memory plane (see :mod:`repro.service.transport`).
    tracer:
        Explicit tracer handed to the service (e.g. a shared
        :class:`~repro.service.tracing.Tracer`, or
        :data:`~repro.service.tracing.NULL_TRACER` to pin the
        explicitly-disabled path); for a traced replay with the
        timeline returned, use :func:`replay_traced` instead.

    Returns
    -------
    LoadResult
        Post-warm-up p50/p99 latency over *solved* items, overall
        throughput, flush counters, per-item outcome counts and the
        sampled backlog trace.
    """
    result, _ = _replay(
        arrivals, matrices, scenario=scenario, label=label,
        max_batch=max_batch, max_delay=max_delay, max_queue=max_queue, admission=admission,
        default_deadline=default_deadline, warmup_frac=warmup_frac,
        d=d, tol=tol, timeout=timeout, transport=transport,
        trace=False, tracer=tracer)
    return result


def replay_traced(arrivals: Sequence[Arrival],
                  matrices: Sequence[np.ndarray], *, scenario: str,
                  label: str, max_batch: int, max_delay: float,
                  max_queue: int = 0, admission: str = "reject",
                  default_deadline: Optional[float] = None,
                  warmup_frac: float = 0.2, d: int = 2,
                  tol: float = DEFAULT_TOL, timeout: float = 120.0,
                  transport: Optional[str] = None
                  ) -> Tuple[LoadResult, EventTimeline]:
    """:func:`replay` with per-request tracing on.

    Same parameters as :func:`replay`; additionally returns the
    service's exported :class:`~repro.analysis.events.EventTimeline`
    (captured after the drain, so every lifecycle is complete).
    """
    result, timeline = _replay(
        arrivals, matrices, scenario=scenario, label=label,
        max_batch=max_batch, max_delay=max_delay, max_queue=max_queue, admission=admission,
        default_deadline=default_deadline, warmup_frac=warmup_frac,
        d=d, tol=tol, timeout=timeout, transport=transport, trace=True)
    assert timeline is not None
    return result, timeline


def _replay(arrivals: Sequence[Arrival], matrices: Sequence[np.ndarray],
            *, scenario: str, label: str, max_batch: int,
            max_delay: float, max_queue: int = 0, admission: str = "reject",
            default_deadline: Optional[float] = None,
            warmup_frac: float = 0.2, d: int = 2,
            tol: float = DEFAULT_TOL, timeout: float = 120.0,
            transport: Optional[str] = None,
            trace: bool = False, tracer: Optional[Any] = None
            ) -> Tuple[LoadResult, Optional[EventTimeline]]:
    if len(arrivals) != len(matrices):
        raise SimulationError(
            f"trace and matrices disagree: {len(arrivals)} arrivals, "
            f"{len(matrices)} matrices")
    n = len(arrivals)
    done_at: List[Optional[float]] = [None] * n
    futures: List[Optional[Any]] = [None] * n
    # Completion is tracked through the callbacks, not wait(futures):
    # a future notifies waiters *before* running its callbacks, so
    # waiting on the futures could observe done_at entries still None.
    remaining = [n]
    remaining_lock = threading.Lock()
    all_marked = threading.Event()

    def _done(i: Optional[int] = None) -> None:
        if i is not None:
            done_at[i] = time.monotonic()
        with remaining_lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                all_marked.set()

    def _mark(i: int) -> Callable[[Any], None]:
        return lambda _fut: _done(i)

    backlog: List[int] = []
    with JacobiService(d=d, tol=tol, max_batch=max_batch,
                       max_delay=max_delay, max_queue=max_queue, admission=admission,
                       default_deadline=default_deadline,
                       transport=transport,
                       trace=trace, tracer=tracer) as svc:
        t0 = time.monotonic()
        for i, (a, A) in enumerate(zip(arrivals, matrices)):
            lag = t0 + a.at - time.monotonic()
            if lag > 0:
                time.sleep(lag)
            st = svc.stats()
            backlog.append(st.queue_depth + st.inflight)
            try:
                fut = svc.submit(A, kind=a.kind, deadline=a.deadline,
                                 tenant=a.tenant)
            except QueueFull:
                _done()  # no future: the submission never existed
                continue
            futures[i] = fut
            fut.add_done_callback(_mark(i))
        if not all_marked.wait(timeout):
            raise SimulationError(
                f"{remaining[0]} of {n} futures unresolved after "
                f"{timeout:.0f}s")
        stats = svc.stats()
    # The timeline is read after close(): the dispatcher has drained,
    # so every admitted request's lifecycle has reached its terminal
    # event (a future resolves *before* its terminal event is emitted,
    # so reading at all_marked could still miss trailing events).
    timeline = svc.trace() if trace else None

    outcomes = ["rejected" if f is None else _outcome(settled_bucket(f))
                for f in futures]
    solved_idx = [i for i, o in enumerate(outcomes) if o == "solved"]
    shed = outcomes.count("shed")
    skip = int(np.ceil(warmup_frac * n)) if n > 1 else 0
    sample = np.array([done_at[i] - (t0 + arrivals[i].at)
                       for i in solved_idx if i >= skip])
    if not sample.size:  # all solved items fell in the warm-up window
        sample = np.array([done_at[i] - (t0 + arrivals[i].at)
                           for i in solved_idx])
    resolved = [t for t in done_at if t is not None]
    makespan = (max(resolved) - t0 - arrivals[0].at) if resolved else 0.0
    step = max(1, -(-len(backlog) // 64))  # downsample to <= 64 points
    return LoadResult(
        scenario=scenario, label=label, items=n, measured=int(sample.size),
        p50_ms=(float(np.percentile(sample, 50) * 1e3)
                if sample.size else 0.0),
        p99_ms=(float(np.percentile(sample, 99) * 1e3)
                if sample.size else 0.0),
        throughput=(len(solved_idx) / makespan if makespan > 0 else 0.0),
        flushes=dict(stats.flushes),
        mean_batch_size=stats.mean_batch_size,
        solved=len(solved_idx), rejected=outcomes.count("rejected"),
        shed=shed,
        peak_backlog=max(backlog) if backlog else 0,
        backlog=backlog[::step], outcomes=outcomes), timeline


#: The replay keyword arguments a trace record's ``settings`` dict may
#: carry — everything needed to re-run the replay from its own record
#: (:func:`replay_recorded`); keys left unset fall back to the
#: :func:`replay` defaults, which are the same both times.
_SETTING_KEYS = ("max_batch", "max_delay", "max_queue", "admission",
                 "default_deadline", "warmup_frac", "d", "tol",
                 "transport")


def _run_setting(arrivals: Sequence[Arrival],
                 matrices: Sequence[np.ndarray], *, scenario: str,
                 label: str,
                 trace_sink: Optional[List[Dict[str, Any]]] = None,
                 **kwargs: Any) -> LoadResult:
    """Run one replay; when a sink is given, run it traced and append
    its trace record (scenario, label, settings, timeline)."""
    result, timeline = _replay(arrivals, matrices, scenario=scenario,
                               label=label,
                               trace=trace_sink is not None, **kwargs)
    if trace_sink is not None:
        trace_sink.append({
            "scenario": scenario, "label": label,
            "settings": {k: kwargs[k] for k in _SETTING_KEYS
                         if k in kwargs},
            "timeline": timeline})
    return result


def compute_load_bench(scenario_names: Optional[Sequence[str]] = None,
                       items: Optional[int] = None,
                       seed: int = 0,
                       warmup_frac: float = 0.2,
                       trace_sink: Optional[List[Dict[str, Any]]] = None,
                       transport: Optional[str] = None,
                       ) -> List[LoadResult]:
    """Replay the scenario grid against every setting.

    Parameters
    ----------
    scenario_names:
        Scenario subset to run (``None`` = all of :data:`SCENARIOS`).
    items:
        Per-scenario trace-length override (``None`` = scenario
        defaults).
    seed:
        Seed for both trace timing and matrix content.
    warmup_frac:
        Warm-up fraction excluded from the latency percentiles.
    trace_sink:
        When a list is given, every replay runs with per-request
        tracing on and appends a trace record — a dict of
        ``scenario`` / ``label`` / ``settings`` /
        :class:`~repro.analysis.events.EventTimeline` — to it; this is
        what ``repro-jacobi load-bench --trace-out`` serialises (see
        :func:`trace_bundle_to_json`).  ``None`` (the default) traces
        nothing.
    transport:
        Batch data plane for every replayed service —
        ``None``/``"pickle"`` or ``"shm"`` (what ``repro-jacobi
        load-bench --transport`` passes for A/B runs; see
        :mod:`repro.service.transport`).

    Returns
    -------
    list of LoadResult
        Scenario-major, settings in :data:`FIXED_SETTINGS` order —
        what :func:`render_load_bench` tabulates.  The ``overload``
        scenario instead contributes an uncontended stretched replay
        followed by the :data:`OVERLOAD_SETTINGS` grid.
    """
    by_name = {s.name: s for s in SCENARIOS}
    if scenario_names is None:
        chosen = list(SCENARIOS)
    else:
        unknown = [name for name in scenario_names if name not in by_name]
        if unknown:
            raise SimulationError(
                f"unknown scenario(s) {unknown}; known: "
                f"{sorted(by_name)}")
        chosen = [by_name[name] for name in scenario_names]
    results: List[LoadResult] = []
    for scenario in chosen:
        arrivals = build_trace(scenario, items=items, seed=seed)
        matrices = build_matrices(arrivals, seed=seed)
        if scenario.name == "overload":
            results.extend(_replay_overload(arrivals, matrices,
                                            warmup_frac=warmup_frac,
                                            trace_sink=trace_sink,
                                            transport=transport))
            continue
        if scenario.name == "tenants":
            results.extend(_replay_tenants(arrivals, matrices,
                                           warmup_frac=warmup_frac,
                                           trace_sink=trace_sink,
                                           transport=transport))
            continue
        for setting in FIXED_SETTINGS:
            results.append(_run_setting(
                arrivals, matrices, scenario=scenario.name,
                label=setting.label, trace_sink=trace_sink,
                max_batch=setting.max_batch,
                max_delay=setting.max_delay, warmup_frac=warmup_frac,
                transport=transport))
    return results


def _replay_overload(arrivals: Sequence[Arrival],
                     matrices: Sequence[np.ndarray],
                     warmup_frac: float,
                     trace_sink: Optional[List[Dict[str, Any]]] = None,
                     transport: Optional[str] = None,
                     ) -> List[LoadResult]:
    """The overload scenario's settings grid: an uncontended stretched
    twin (same bursts at 1/``OVERLOAD_STRETCH`` the rate, on half the
    trace — the latency floor every bounded setting is judged
    against), then every :data:`OVERLOAD_SETTINGS` admission
    configuration on the full overload trace."""
    half = max(OVERLOAD_BURST, len(arrivals) // 2)
    stretched = [Arrival(at=a.at * OVERLOAD_STRETCH, kind=a.kind,
                         n=a.n, m=a.m, deadline=a.deadline)
                 for a in arrivals[:half]]
    results = [_run_setting(
        stretched, matrices[:half], scenario="overload",
        label="uncontended", trace_sink=trace_sink,
        max_batch=OVERLOAD_BATCH, max_delay=OVERLOAD_DELAY,
        warmup_frac=warmup_frac, transport=transport)]
    for setting in OVERLOAD_SETTINGS:
        results.append(_run_setting(
            arrivals, matrices, scenario="overload",
            label=setting.label, trace_sink=trace_sink,
            max_batch=OVERLOAD_BATCH, max_delay=OVERLOAD_DELAY,
            max_queue=setting.max_queue, admission=setting.admission,
            default_deadline=setting.default_deadline,
            warmup_frac=warmup_frac, transport=transport))
    return results


#: Batching limits shared by every tenants replay — all three rows ride
#: one traffic class (16x16 eigen), so QoS, not batching, is the
#: variable under test.
TENANTS_BATCH = 8
TENANTS_DELAY = 0.01


def _replay_tenants_row(arrivals: Sequence[Arrival],
                        matrices: Sequence[np.ndarray], *, label: str,
                        config: Optional[GatewayConfig],
                        warmup_frac: float,
                        trace_sink: Optional[List[Dict[str, Any]]],
                        transport: Optional[str]) -> LoadResult:
    """Open-loop asyncio replay of one tenanted trace through an
    :class:`~repro.service.gateway.AsyncGateway` over one service."""
    n = len(arrivals)
    done_at: List[Optional[float]] = [None] * n
    trace = trace_sink is not None
    with JacobiService(d=2, max_batch=TENANTS_BATCH,
                       max_delay=TENANTS_DELAY, transport=transport,
                       trace=trace) as svc:
        gateway = AsyncGateway(svc, config)
        start = [0.0]

        def _mark(i: int) -> Callable[[Any], None]:
            return lambda _task: done_at.__setitem__(i, time.monotonic())

        async def _drive() -> List["asyncio.Task[Any]"]:
            start[0] = time.monotonic()
            tasks = []
            for i, (a, A) in enumerate(zip(arrivals, matrices)):
                lag = start[0] + a.at - time.monotonic()
                if lag > 0:
                    await asyncio.sleep(lag)
                task = asyncio.ensure_future(gateway.submit(
                    A, kind=a.kind, tenant=a.tenant or "default",
                    deadline=a.deadline))
                task.add_done_callback(_mark(i))
                tasks.append(task)
            await asyncio.gather(*tasks, return_exceptions=True)
            return tasks

        outcomes = [_outcome(settled_bucket(task))
                    for task in asyncio.run(_drive())]
        gw_stats = gateway.stats()
        stats = svc.stats()
    timeline = svc.trace() if trace else None
    if trace_sink is not None:
        trace_sink.append({
            "scenario": "tenants", "label": label,
            "settings": {"d": 2, "max_batch": TENANTS_BATCH,
                         "max_delay": TENANTS_DELAY,
                         "transport": transport},
            "timeline": timeline})

    t0 = start[0]
    skip = int(np.ceil(warmup_frac * n)) if n > 1 else 0
    latency_ms: Dict[str, List[float]] = {}
    all_sample: List[float] = []
    for i, a in enumerate(arrivals):
        if outcomes[i] != "solved" or i < skip:
            continue
        ms = (done_at[i] - (t0 + a.at)) * 1e3
        latency_ms.setdefault(a.tenant or "default", []).append(ms)
        all_sample.append(ms)

    def _pcts(values: Sequence[float]) -> Dict[str, float]:
        arr = np.asarray(values)
        if not arr.size:
            return {"p50_ms": 0.0, "p99_ms": 0.0}
        return {"p50_ms": float(np.percentile(arr, 50)),
                "p99_ms": float(np.percentile(arr, 99))}

    tenants: Dict[str, Dict[str, Any]] = {}
    for tenant, ts in gw_stats.tenants.items():
        sample = latency_ms.get(tenant, [])
        row = {**asdict(ts), "measured": len(sample),
               "latencies_ms": [round(v, 3) for v in sample]}
        row.update(_pcts(sample))
        tenants[tenant] = row

    solved = outcomes.count("solved")
    resolved = [t for t in done_at if t is not None]
    makespan = (max(resolved) - t0 - arrivals[0].at) if resolved else 0.0
    sample_arr = np.asarray(all_sample)
    return LoadResult(
        scenario="tenants", label=label, items=n,
        measured=int(sample_arr.size),
        p50_ms=(float(np.percentile(sample_arr, 50))
                if sample_arr.size else 0.0),
        p99_ms=(float(np.percentile(sample_arr, 99))
                if sample_arr.size else 0.0),
        throughput=(solved / makespan if makespan > 0 else 0.0),
        flushes=dict(stats.flushes),
        mean_batch_size=stats.mean_batch_size,
        solved=solved,
        rejected=outcomes.count("rejected")
        + outcomes.count("throttled"),
        shed=outcomes.count("shed"),
        outcomes=outcomes, tenants=tenants)


def _replay_tenants(arrivals: Sequence[Arrival],
                    matrices: Sequence[np.ndarray],
                    warmup_frac: float,
                    trace_sink: Optional[List[Dict[str, Any]]] = None,
                    transport: Optional[str] = None,
                    ) -> List[LoadResult]:
    """The tenants scenario's grid: the small tenants replayed alone
    (their latency floor), the full trace through an ungated gateway
    (the noisy-neighbour baseline), and the full trace with
    :data:`TENANTS_QOS` applied — quota plus bottom priority on the
    noisy tenant, which is the isolation the tenants benchmark pins."""
    small = [(a, A) for a, A in zip(arrivals, matrices)
             if a.tenant != TENANTS_NOISY]
    rows = [_replay_tenants_row(
        [a for a, _ in small], [A for _, A in small],
        label="small alone", config=None, warmup_frac=warmup_frac,
        trace_sink=trace_sink, transport=transport)]
    rows.append(_replay_tenants_row(
        arrivals, matrices, label="no QoS", config=None,
        warmup_frac=warmup_frac, trace_sink=trace_sink,
        transport=transport))
    rows.append(_replay_tenants_row(
        arrivals, matrices,
        label="QoS noisy r=20 b=4 bronze",
        config=GatewayConfig(tenants=TENANTS_QOS),
        warmup_frac=warmup_frac, trace_sink=trace_sink,
        transport=transport))
    return rows


def render_load_bench(rows: Sequence[LoadResult]) -> str:
    """ASCII table of a load-bench run.

    Parameters
    ----------
    rows:
        The :func:`compute_load_bench` results.

    Returns
    -------
    str
        One table row per (scenario, setting) replay.
    """
    body = [[r.scenario, r.label, r.items,
             f"{r.solved}/{r.rejected}/{r.shed}",
             f"{r.p50_ms:,.1f}", f"{r.p99_ms:,.1f}",
             f"{r.throughput:,.1f}",
             "/".join(str(r.flushes.get(c, 0)) for c in FLUSH_CAUSES),
             f"{r.mean_batch_size:.1f}", r.peak_backlog]
            for r in rows]
    return render_table(
        ["scenario", "setting", "items", "ok/rej/shed", "p50 ms",
         "p99 ms", "solves/s", "flushes s/d/i/f", "mean b", "peak q"],
        body, title="Micro-batching under live load")


def render_tenant_bench(rows: Sequence[LoadResult]) -> str:
    """ASCII table of the per-tenant accounting of ``tenants`` rows.

    Parameters
    ----------
    rows:
        A :func:`compute_load_bench` result list; rows without
        per-tenant data are skipped, so passing a mixed-scenario run
        is fine.

    Returns
    -------
    str
        One row per (setting, tenant), or an empty string when no row
        carried per-tenant data.
    """
    body = []
    for r in rows:
        for tenant in sorted(r.tenants):
            t = r.tenants[tenant]
            body.append([
                r.label, tenant, t["submitted"],
                f"{t['completed']}/{t['throttled']}"
                f"/{t['rejected']}/{t['shed']}",
                f"{t['p50_ms']:,.1f}", f"{t['p99_ms']:,.1f}"])
    if not body:
        return ""
    return render_table(
        ["setting", "tenant", "subs", "ok/thr/rej/shed", "p50 ms",
         "p99 ms"],
        body, title="Per-tenant QoS under a noisy neighbour")


def results_to_json(rows: Sequence[LoadResult], *, seed: int,
                    warmup_frac: float,
                    transport: Optional[str] = None) -> str:
    """Serialise a load-bench run for persistence.

    Parameters
    ----------
    rows:
        The :func:`compute_load_bench` results.
    seed, warmup_frac:
        The run parameters, recorded alongside the rows so a report is
        reproducible from its own header.
    transport:
        The batch data plane the run used (``None`` = the pickle
        default), recorded in the header for the same reason.

    Returns
    -------
    str
        Pretty-printed JSON (this is what the CI artifact contains).
    """
    return json.dumps({
        "benchmark": "load-bench",
        "seed": seed,
        "warmup_frac": warmup_frac,
        "transport": transport,
        "fixed_settings": [asdict(s) for s in FIXED_SETTINGS],
        "overload_settings": [asdict(s) for s in OVERLOAD_SETTINGS],
        "results": [asdict(r) for r in rows],
    }, indent=2)


#: Schema tag of a serialised trace bundle (one record per traced
#: replay) — what ``repro-jacobi load-bench --trace-out`` writes and
#: ``--replay`` reads back.
TRACE_BUNDLE_SCHEMA = "repro-trace-bundle/v1"


def arrivals_from_timeline(timeline: EventTimeline) -> List[Arrival]:
    """Reconstruct a replay's arrival trace from its event timeline.

    Every submission — admitted or rejected — emits a ``submit`` event
    carrying the traffic kind, the matrix shape and the raw deadline
    argument, which is exactly an :class:`Arrival`; offsets are taken
    relative to the first submission, so the reconstructed trace
    replays with the recorded inter-arrival gaps.

    Parameters
    ----------
    timeline:
        A traced service run (see
        :meth:`~repro.service.api.JacobiService.trace` or
        :func:`replay_traced`).

    Returns
    -------
    list of Arrival
        In submission order, one per recorded request.
    """
    subs = [ev for ev in timeline.events if ev.stage == "submit"]
    if not subs:
        raise SimulationError(
            "timeline holds no submit events; nothing to replay")
    base = subs[0].t
    out: List[Arrival] = []
    for ev in subs:
        if "n" not in ev.meta or "m" not in ev.meta:
            raise SimulationError(
                f"submit event for request {ev.request} lacks the "
                f"matrix shape (meta keys {sorted(ev.meta)})")
        out.append(Arrival(at=ev.t - base, kind=ev.kind or "eigen",
                           n=int(ev.meta["n"]), m=int(ev.meta["m"]),
                           deadline=ev.meta.get("deadline"),
                           tenant=ev.tenant))
    return out


def outcomes_from_timeline(timeline: EventTimeline) -> List[str]:
    """Per-request outcomes of a traced run, in submission order.

    Parameters
    ----------
    timeline:
        A traced service run.

    Returns
    -------
    list of str
        ``"solved"`` / ``"rejected"`` / ``"shed"`` / ``"failed"`` per
        request — directly comparable to
        :attr:`LoadResult.outcomes`, which is how the record->replay
        determinism tests check equivalence.
    """
    outcome: Dict[int, str] = {}
    for ev in timeline.events:
        if ev.request is not None and ev.stage in TERMINAL_STAGES:
            outcome[ev.request] = _outcome(LIFECYCLE[ev.stage][1])
    return [outcome[req] for req in sorted(outcome)]


def trace_bundle_to_json(records: Sequence[Dict[str, Any]], *,
                         seed: int, warmup_frac: float) -> str:
    """Serialise a traced load-bench run for persistence.

    Parameters
    ----------
    records:
        The trace records collected through
        :func:`compute_load_bench`'s ``trace_sink``.
    seed, warmup_frac:
        The run parameters — the seed pins the matrices, so a replay
        of the bundle regenerates them identically.

    Returns
    -------
    str
        Pretty-printed JSON under :data:`TRACE_BUNDLE_SCHEMA` (the
        ``--trace-out`` artifact).
    """
    return json.dumps({
        "schema": TRACE_BUNDLE_SCHEMA,
        "seed": seed,
        "warmup_frac": warmup_frac,
        "traces": [{
            "scenario": r["scenario"],
            "label": r["label"],
            "settings": r["settings"],
            "timeline": (r["timeline"].to_dict()
                         if isinstance(r["timeline"], EventTimeline)
                         else r["timeline"]),
        } for r in records],
    }, indent=2)


def replay_recorded(bundle: Dict[str, Any], trace: bool = False
                    ) -> List[Tuple[Dict[str, Any], LoadResult,
                                    Optional[EventTimeline]]]:
    """Re-run every traced replay of a recorded bundle.

    Reconstructs each record's arrival trace from its timeline
    (:func:`arrivals_from_timeline`), regenerates the matrices from
    the bundle's seed (matrix content depends only on ``(seed, index,
    shape)``, so the replay solves the *same* matrices the recording
    did) and replays it against the recorded settings.

    Parameters
    ----------
    bundle:
        A parsed :data:`TRACE_BUNDLE_SCHEMA` document (see
        :func:`trace_bundle_to_json`).
    trace:
        Trace the replays too — a re-recorded bundle of a replayed
        bundle must reproduce the per-request outcome sequences, which
        is the record->replay equivalence the tests pin.

    Returns
    -------
    list of (record, LoadResult, EventTimeline or None)
        One entry per bundle record, in bundle order.
    """
    if bundle.get("schema") != TRACE_BUNDLE_SCHEMA:
        raise SimulationError(
            f"not a trace bundle: schema "
            f"{bundle.get('schema')!r} != {TRACE_BUNDLE_SCHEMA!r}")
    seed = int(bundle["seed"])
    out: List[Tuple[Dict[str, Any], LoadResult,
                    Optional[EventTimeline]]] = []
    for record in bundle["traces"]:
        timeline = record["timeline"]
        if not isinstance(timeline, EventTimeline):
            timeline = EventTimeline.from_dict(timeline)
        arrivals = arrivals_from_timeline(timeline)
        matrices = build_matrices(arrivals, seed=seed)
        settings = {k: v for k, v in record["settings"].items()
                    if k in _SETTING_KEYS}
        result, replayed = _replay(
            arrivals, matrices, scenario=record["scenario"],
            label=record["label"], trace=trace, **settings)
        out.append((record, result, replayed))
    return out
