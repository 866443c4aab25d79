"""The benchmark's four workloads.

Each workload is a function of :class:`Settings` returning a
:class:`Report`.  It makes its inputs from the seed, sends a warm-up that
is not recorded, runs its measured phases and only then checks every
output (:mod:`oracle`), so checking costs no timed work.  Set-up is
timed apart, by :data:`SETUPS`, once per fresh process (see ``run.py``).

The untraced run yields the end-to-end metrics.  The traced run
(``Settings.traced``) spends ``seconds / 2`` untraced, as the reference
the tracing overhead is measured against (on ``svc-*`` half of it is a
closed loop), then sends the same traffic for ``seconds / 2`` with
``trace=True`` and the timing wrappers of :mod:`layers`, which yields
the per-layer metrics.  Per-layer metrics a
workload cannot observe are left out here and reported as 0.

Why each workload exists is recorded in ``bench/README.md``.
"""

from __future__ import annotations

import asyncio
import statistics
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    GLOBAL_SCHEDULE_CACHE,
    BatchedOneSidedJacobi,
    JacobiService,
    get_ordering,
    make_symmetric_test_matrix,
    run_ensemble,
)
from repro.analysis.events import EventTimeline
from repro.engine import generate_ensemble
from repro.jacobi import DEFAULT_TOL
from repro.service import AsyncGateway, GatewayConfig

import layers
import oracle
import traffic
from spec import percentile
from traffic import Outcome, Request, clock

#: Unrecorded traffic before each measured phase (caches, BLAS
#: first-touch, the pool's workers).
WARMUP_S = 3.0

#: Closed-loop throughput is the median over this many equal segments.
SEGMENTS = 5


@dataclass
class Settings:
    """How one run is measured."""

    seed: int
    seconds: float
    traced: bool = False
    warmup: float = WARMUP_S
    #: Latency samples an end-to-end p99 needs (>= 10 beyond it).
    min_samples: int = 1000


@dataclass
class Report:
    """What one workload run measured and what its checks found.

    ``invalid`` lists measurement problems of the harness itself (too
    few samples, dropped trace events); a run with any is not correct.
    ``trace`` is the traced run's service timeline plus harness spans.
    """

    tally: oracle.Tally = field(default_factory=oracle.Tally)
    metrics: Dict[str, float] = field(default_factory=dict)
    phases: List[Dict[str, Any]] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)
    trace: Optional[Dict[str, Any]] = None

    def phase(self, name: str, seconds: float, samples: int) -> None:
        """Record one measured phase's length and sample count."""
        self.phases.append({"name": name, "seconds": seconds,
                            "samples": samples})


# ----------------------------------------------------------------------
# Shared pieces
def _sym(m: int, rng: np.random.Generator) -> np.ndarray:
    return make_symmetric_test_matrix(m, rng)


def _solver(svc: JacobiService) -> Dict[str, Any]:
    return {"ordering": svc.ordering, "d": svc.d, "tol": svc.tol,
            "max_sweeps": svc.max_sweeps}


def _submit_to(svc: JacobiService) -> Callable[[Request], Any]:
    return lambda r: svc.submit(r.matrix, kind=r.kind)


def _open_phase(submit: Callable[[Request], Any], rate: float,
                seconds: float, rng: np.random.Generator,
                make: Callable[[int], Request]) -> List[Outcome]:
    offsets = traffic.poisson_offsets(rate, seconds, rng)
    requests = [make(i) for i in range(len(offsets))]
    outcomes = traffic.open_loop(submit, requests, offsets)
    traffic.wait_all(outcomes)
    return outcomes


def _reference(svc: JacobiService, rate: float, s: Settings,
               rng: np.random.Generator, make: Callable[[int], Request],
               window: int, per_s: float) -> Tuple[List[Outcome], ...]:
    """The untraced half of a traced ``svc-*`` run: a warm-up, an open
    loop for ``seconds / 4``, then a closed loop of a fixed
    ``per_s * seconds / 4`` requests with ``window`` outstanding.
    Returns the two phases' outcomes."""
    submit = _submit_to(svc)
    _open_phase(submit, rate, s.warmup, rng, make)
    reference = _open_phase(submit, rate, s.seconds / 4, rng, make)
    requests = [make(i) for i in range(256)]
    closed = traffic.closed_loop(submit, lambda i: requests[i % 256],
                                 window, int(per_s * s.seconds / 4))
    traffic.wait_all(closed)
    return reference, closed


def _ok_ms(outcomes: Sequence[Outcome]) -> List[float]:
    return [o.latency * 1e3 for o in outcomes if o.ok]


def _latency(rep: Report, outcomes: Sequence[Outcome], slo_s: float,
             s: Settings) -> Dict[str, float]:
    """``p50_ms``, ``p99_ms`` and ``slo_frac`` over judged, non-probe
    outcomes; refused and failed requests miss the SLO."""
    regular = [o for o in outcomes if not o.request.probe]
    ms = _ok_ms(regular)
    if len(ms) < s.min_samples:
        rep.invalid.append(f"{len(ms)} latency samples; p99 needs "
                           f">= {s.min_samples}")
    return {"p50_ms": percentile(ms, 50), "p99_ms": percentile(ms, 99),
            "slo_frac": (sum(o.ok and o.latency <= slo_s for o in regular)
                         / max(1, len(regular)))}


def _throughput(outcomes: Sequence[Outcome], start: float) -> float:
    """Correct results per second from ``start`` to the last one."""
    done = [o.done for o in outcomes if o.ok]
    return len(done) / (max(done) - start) if done else 0.0


def _wall(outcomes: Sequence[Outcome], start: float) -> float:
    return max(o.done for o in outcomes if o.done is not None) - start


def _capacity(requests: float) -> int:
    """A trace ring large enough that nothing drops: a request emits
    about ten events, batches and refusals a few more."""
    return int(16 * requests) + 4096


def _sweeps_mean(outcomes: Sequence[Outcome]) -> float:
    sweeps = [o.result.sweeps for o in outcomes if o.ok]
    return float(np.mean(sweeps)) if sweeps else 0.0


def _cache_delta(before: Any, after: Any) -> Dict[str, float]:
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    return {"orderings.schedule_misses": misses,
            "orderings.schedule_hit_ratio": hits / max(1, hits + misses)}


def _join_requests(spans: layers.SpanLog, outcomes: Sequence[Outcome],
                   first_request: int) -> int:
    """Record each outcome's ``harness.request`` span (scheduled send to
    result) and its ``service.submit`` child, numbering the requests
    that reached the service's ledger in submission order, as the
    service does; returns the next unused id."""
    request = first_request
    for o in outcomes:
        rid = None
        if o.future is not None or o.refused:
            rid = request
            request += 1
        if o.done is None:
            continue  # never resolved: a failure, with no end to draw
        parent = spans.add("harness.request", o.due, o.done, request=rid)
        spans.add("service.submit", o.sent, o.sent + o.submit_s, parent,
                  rid)
    return request


def _traced_service(rep: Report, svc: JacobiService,
                    outcomes: Sequence[Outcome], reference: Sequence[Outcome],
                    ids: range, wall: float, workers: int,
                    submit_s: Sequence[float], before: Any, after: Any
                    ) -> None:
    """The per-layer metrics every traced service workload shares."""
    dropped = svc.tracer.dropped()
    if dropped:
        rep.invalid.append(f"the trace dropped {dropped} events")
    lag_ms = [o.lag * 1e3 for o in outcomes]
    submit_us = [t * 1e6 for t in submit_s]
    base = percentile(_ok_ms(reference), 50)
    rep.metrics.update(layers.service_layers(svc.trace(), ids, wall,
                                             workers))
    rep.metrics.update({
        "service.submit_us_p50": percentile(submit_us, 50),
        "service.submit_us_p99": percentile(submit_us, 99),
        "service.rejected": after.rejected - before.rejected,
        "service.shed": after.shed - before.shed,
        "engine.sweeps_mean": _sweeps_mean(outcomes),
        "harness.gen_lag_ms_p99": percentile(lag_ms, 99),
        "harness.gen_lag_ms_max": max(lag_ms),
        "harness.trace_overhead_frac": (
            percentile(_ok_ms(outcomes), 50) / base - 1 if base else 0.0),
        "harness.trace_dropped": dropped,
    })


def _closed_rate(closed: Sequence[Outcome]) -> Dict[str, float]:
    return {"service.closed_solves_per_s": statistics.median(
        traffic.completion_rates(closed, SEGMENTS))}


def _trace_doc(timeline: EventTimeline, spans: layers.SpanLog,
               epoch: float) -> Dict[str, Any]:
    """The service's ``repro-trace/v1`` timeline with the harness spans
    beside it (``repro-jacobi trace-report`` reads the file as is)."""
    doc = timeline.to_dict()
    doc["harness_spans"] = spans.to_list(epoch)
    doc["harness_self_ms"] = layers.self_times(spans.spans)
    return doc


# ----------------------------------------------------------------------
# svc-small
SVC_SMALL = {"d": 2, "ordering": "degree4", "max_batch": 32,
             "max_delay": 0.02}
SVC_SMALL_RATE = 250.0
SVC_SMALL_SLO_S = 0.100
SVC_SMALL_WINDOW = 64
#: Closed-loop requests per second of the phase: the ~1,600/s a 2-core
#: host sustains then fills about the time the phase is given.
SVC_SMALL_CLOSED_PER_S = 1500

#: One submission in this many is a non-finite probe.
PROBE_EVERY = 200


def _probe(A: np.ndarray, k: int) -> Request:
    """The ``k``-th probe: a NaN off-diagonal pair, then a ``+inf``
    diagonal entry, alternately (both keep the matrix symmetric)."""
    A = A.copy()
    if k % 2 == 0:
        A[0, 1] = A[1, 0] = np.nan
    else:
        A[0, 0] = np.inf
    return Request(A, probe=True)


def svc_small(s: Settings) -> Report:
    """16x16 eigen traffic on an inline service, open loop at 250/s."""
    rep = Report()
    rng = np.random.default_rng([s.seed, 1])

    def build(**kwargs: Any) -> JacobiService:
        return JacobiService(**SVC_SMALL, **kwargs)

    def regular(_i: int) -> Request:
        return Request(_sym(16, rng))

    def with_probes(i: int) -> Request:
        if i % PROBE_EVERY == PROBE_EVERY - 1:
            return _probe(_sym(16, rng), i // PROBE_EVERY)
        return regular(i)

    if not s.traced:
        svc = build()
        try:
            submit = _submit_to(svc)
            _open_phase(submit, SVC_SMALL_RATE, s.warmup, rng, regular)
            start = clock()
            opened = _open_phase(submit, SVC_SMALL_RATE, s.seconds, rng,
                                 with_probes)
        finally:
            svc.close()
        rep.tally.judge(opened, _solver(svc))
        rep.metrics.update(_latency(rep, opened, SVC_SMALL_SLO_S, s))
        rep.metrics["solves_per_s"] = _throughput(opened, start)
        rep.phase("open", s.seconds, len(opened))
        return rep

    half = s.seconds / 2
    svc = build()
    try:
        reference, closed = _reference(svc, SVC_SMALL_RATE, s, rng, regular,
                                       SVC_SMALL_WINDOW,
                                       SVC_SMALL_CLOSED_PER_S)
    finally:
        svc.close()
    spans = layers.SpanLog()
    svc = build(trace=True, trace_capacity=_capacity(
        SVC_SMALL_RATE * (s.warmup + half)))
    try:
        submit = _submit_to(svc)
        _open_phase(submit, SVC_SMALL_RATE, s.warmup, rng, regular)
        before, cache0 = svc.stats(), GLOBAL_SCHEDULE_CACHE.cache_info()
        start = clock()
        traced = _open_phase(submit, SVC_SMALL_RATE, half, rng, with_probes)
        after, cache1 = svc.stats(), GLOBAL_SCHEDULE_CACHE.cache_info()
    finally:
        svc.close()
    rep.tally.judge(reference + closed + traced, _solver(svc))
    if _join_requests(spans, traced, before.submitted) != after.submitted:
        rep.invalid.append("request ids did not join the trace")
    _traced_service(rep, svc, traced, reference,
                    range(before.submitted, after.submitted),
                    _wall(traced, start), 0,
                    [o.submit_s for o in traced], before, after)
    rep.metrics.update(_cache_delta(cache0, cache1))
    rep.metrics.update(_closed_rate(closed))
    rep.trace = _trace_doc(svc.trace(), spans, svc.tracer.epoch)
    rep.phase("reference", half / 2, len(reference))
    rep.phase("closed", _wall(closed, closed[0].sent), len(closed))
    rep.phase("traced", half, len(traced))
    return rep


# ----------------------------------------------------------------------
# svc-pool
SVC_POOL = {"d": 2, "ordering": "degree4", "workers": 2, "max_batch": 16,
            "max_delay": 0.02}
SVC_POOL_RATE = 60.0
SVC_POOL_SLO_S = 0.150
SVC_POOL_WINDOW = 32
#: Closed-loop requests per second of the phase: the pool sustains
#: 400-550/s, so the fixed work ends within the time the phase is given.
SVC_POOL_CLOSED_PER_S = 300


def svc_pool(s: Settings) -> Report:
    """32x32 eigen alternating with 64x32 SVD, open loop at 60/s, on a
    two-worker pool over the shared-memory transport."""
    rep = Report()
    rng = np.random.default_rng([s.seed, 2])

    def build(**kwargs: Any) -> JacobiService:
        return JacobiService(**SVC_POOL, **kwargs)

    def mixed(i: int) -> Request:
        if i % 2 == 0:
            return Request(_sym(32, rng))
        return Request(rng.uniform(-1.0, 1.0, size=(64, 32)), kind="svd")

    if not s.traced:
        svc = build(transport="shm")
        try:
            submit = _submit_to(svc)
            _open_phase(submit, SVC_POOL_RATE, s.warmup, rng, mixed)
            start = clock()
            opened = _open_phase(submit, SVC_POOL_RATE, s.seconds, rng, mixed)
        finally:
            svc.close()
        rep.tally.judge(opened, _solver(svc))
        rep.metrics.update(_latency(rep, opened, SVC_POOL_SLO_S, s))
        rep.metrics["solves_per_s"] = _throughput(opened, start)
        rep.phase("open", s.seconds, len(opened))
        return rep

    half = s.seconds / 2
    svc = build(transport="shm")
    try:
        reference, closed = _reference(svc, SVC_POOL_RATE, s, rng, mixed,
                                       SVC_POOL_WINDOW, SVC_POOL_CLOSED_PER_S)
    finally:
        svc.close()
    spans = layers.SpanLog()
    transport = layers.TimingTransport(spans)
    executor = layers.TimingExecutor(SVC_POOL["workers"], spans,
                                     warm=[(SVC_POOL["ordering"],
                                            SVC_POOL["d"])])
    svc = build(transport=transport, executor=executor, trace=True,
                trace_capacity=_capacity(SVC_POOL_RATE * (s.warmup + half)))
    try:
        submit = _submit_to(svc)
        _open_phase(submit, SVC_POOL_RATE, s.warmup, rng, mixed)
        before, bytes0 = svc.stats(), transport.stats()
        marks = (len(transport.prepare_s), len(transport.finalize_s),
                 len(executor.ipc_s))
        start = clock()
        traced = _open_phase(submit, SVC_POOL_RATE, half, rng, mixed)
        after, bytes1 = svc.stats(), transport.stats()
    finally:
        try:
            svc.close()
        finally:
            executor.shutdown()
            transport.close()
    rep.tally.judge(reference + closed + traced, _solver(svc))
    if _join_requests(spans, traced, before.submitted) != after.submitted:
        rep.invalid.append("request ids did not join the trace")
    _traced_service(rep, svc, traced, reference,
                    range(before.submitted, after.submitted),
                    _wall(traced, start), SVC_POOL["workers"],
                    [o.submit_s for o in traced], before, after)
    batches = max(1, bytes1.batches - bytes0.batches)
    ipc_ms = [t * 1e3 for t in executor.ipc_s[marks[2]:]]
    rep.metrics.update({
        "transport.prepare_us_p50":
            percentile(transport.prepare_s[marks[0]:], 50) * 1e6,
        "transport.finalize_us_p50":
            percentile(transport.finalize_s[marks[1]:], 50) * 1e6,
        "transport.ipc_ms_p50": percentile(ipc_ms, 50),
        "transport.ipc_ms_p99": percentile(ipc_ms, 99),
        "transport.bytes_per_batch":
            (bytes1.bytes_in - bytes0.bytes_in + bytes1.bytes_out
             - bytes0.bytes_out) / batches,
        "transport.segment_reuse_ratio":
            (bytes1.segments_reused - bytes0.segments_reused) / batches,
    })
    rep.metrics.update(_closed_rate(closed))
    rep.trace = _trace_doc(svc.trace(), spans, svc.tracer.epoch)
    rep.phase("reference", half / 2, len(reference))
    rep.phase("closed", _wall(closed, closed[0].sent), len(closed))
    rep.phase("traced", half, len(traced))
    return rep


# ----------------------------------------------------------------------
# ensemble
CONFIGS = ((32, 2), (32, 4), (32, 8), (64, 2), (64, 4), (64, 8), (64, 16))
ORDERINGS = ("br", "permuted-br", "degree4")
MATRICES = 8
SOLVES = len(CONFIGS) * len(ORDERINGS) * MATRICES

#: A pass (all 168 solves) within this limit meets the SLO.
ENSEMBLE_SLO_S = 5.0

_Sweeps = Dict[tuple, tuple]


def _sweep_table(results: Sequence[Any]) -> _Sweeps:
    return {(r.m, r.P, name): tuple(int(x) for x in counts)
            for r in results for name, counts in r.sweeps.items()}


def _passes(run_pass: Callable[[], _Sweeps], seconds: float) -> List[Any]:
    """Back-to-back passes until ``seconds`` have elapsed (at least
    one); returns ``(seconds, sweep table)`` per pass."""
    out = []
    end = clock() + seconds
    while not out or clock() < end:
        t0 = clock()
        sweeps = run_pass()
        out.append((clock() - t0, sweeps))
    return out


def _judge_passes(rep: Report, passes: Sequence[Any], first: _Sweeps,
                  sequential: Optional[_Sweeps]) -> List[bool]:
    """Every pass must repeat ``first`` exactly; with ``sequential``,
    the first two matrices of each config must also match the sequential
    engine's sweeps.  Returns each pass's verdict."""
    verdicts = []
    for k, (_, sweeps) in enumerate(passes):
        rep.tally.attempted += SOLVES
        bad = 0
        for key, counts in sweeps.items():
            want = first[key]
            if sequential is not None and k == 0:
                want = sequential[key] + counts[2:]
            for a, b in zip(counts, want):
                if a != b:
                    bad += 1
                    rep.tally.fail(f"ensemble {key}: sweeps {a} != {b}")
        verdicts.append(bad == 0)
    return verdicts


def ensemble(s: Settings) -> Report:
    """The paper's Table-2 experiment: back-to-back ``run_ensemble``
    passes over 7 configs x 3 orderings x 8 matrices."""
    rep = Report()

    def run_pass() -> _Sweeps:
        return _sweep_table(run_ensemble(CONFIGS, num_matrices=MATRICES,
                                         seed=s.seed, orderings=ORDERINGS))

    if not s.traced:
        _passes(run_pass, s.warmup)
        passes = _passes(run_pass, s.seconds)
        sequential = _sweep_table(run_ensemble(
            CONFIGS, num_matrices=2, seed=s.seed, orderings=ORDERINGS,
            engine="sequential"))
        ok = _judge_passes(rep, passes, passes[0][1], sequential)
        seconds = [t for t, _ in passes]
        ms = [t * 1e3 for t in seconds]
        rep.metrics.update({
            "p50_ms": percentile(ms, 50),
            "p99_ms": percentile(ms, 99),
            "solves_per_s": SOLVES / statistics.median(seconds),
            "slo_frac": (sum(good and t <= ENSEMBLE_SLO_S
                             for good, t in zip(ok, seconds)) / len(passes)),
        })
        rep.phase("passes", sum(seconds), len(passes))
        return rep

    half = s.seconds / 2
    _passes(run_pass, s.warmup)
    reference = _passes(run_pass, half)
    spans = layers.SpanLog()
    cache = layers.TimingScheduleCache(spans)
    solve_s: List[float] = []
    rotations: List[int] = []
    solved: List[Any] = []

    def traced_pass() -> _Sweeps:
        # Mirrors run_ensemble's batched path call for call, so the
        # engine and the schedule cache can be timed one by one.
        pass_span = spans.open("ensemble.pass")
        sweeps: _Sweeps = {}
        applied = 0
        for m, P in CONFIGS:
            span = spans.open("ensemble.generate", pass_span)
            matrices = generate_ensemble(m, P, MATRICES, s.seed)
            spans.close(span)
            for name in ORDERINGS:
                engine = BatchedOneSidedJacobi(
                    get_ordering(name, P.bit_length() - 1), cache=cache)
                span = spans.open("engine.solve", pass_span)
                cache.parent = span
                res = engine.solve(matrices)
                spans.close(span)
                start, end = spans.spans[span][1:3]
                solve_s.append(end - start)
                applied += res.stats.rotations_applied
                sweeps[(m, P, name)] = tuple(int(x) for x in res.sweeps)
                if not rotations:
                    solved.append((matrices, res))
        spans.close(pass_span)
        rotations.append(applied)
        return sweeps

    epoch = clock()
    traced = _passes(traced_pass, half)
    wall = clock() - epoch
    _judge_passes(rep, reference, reference[0][1], None)
    _judge_passes(rep, traced, reference[0][1], None)
    for matrices, res in solved:
        for k, A in enumerate(matrices):
            why = oracle.eigen_problem(A, SimpleNamespace(
                eigenvalues=res.eigenvalues[k],
                eigenvectors=res.eigenvectors[k],
                converged=bool(res.converged[k])), DEFAULT_TOL)
            if why is not None:
                rep.tally.fail(why)
    if len(set(rotations)) != 1:
        rep.invalid.append(f"rotation counts differ across passes: "
                           f"{rotations}")
    info = cache.cache_info()
    ms = [t * 1e3 for t in solve_s]
    ref_median = statistics.median(t for t, _ in reference)
    rep.metrics.update({
        "orderings.schedule_misses": info.misses,
        "orderings.schedule_build_ms": cache.build_s * 1e3,
        "orderings.schedule_hit_ratio":
            info.hits / max(1, info.hits + info.misses),
        "engine.eigen.solve_ms_p50": percentile(ms, 50),
        "engine.eigen.solve_ms_p99": percentile(ms, 99),
        "engine.batch_size_mean": MATRICES,
        "engine.busy_frac": sum(solve_s) / wall,
        "engine.rotations": rotations[0],
        "engine.sweeps_mean": float(np.mean(
            [c for counts in traced[0][1].values() for c in counts])),
        "engine.ns_per_rotation": sum(solve_s) * 1e9 / sum(rotations),
        "harness.trace_overhead_frac":
            statistics.median(t for t, _ in traced) / ref_median - 1,
    })
    timeline = EventTimeline(source="bench-ensemble", events=(),
                             meta={"configs": [list(c) for c in CONFIGS],
                                   "orderings": list(ORDERINGS),
                                   "matrices": MATRICES, "seed": s.seed})
    rep.trace = _trace_doc(timeline, spans, epoch)
    rep.phase("reference", sum(t for t, _ in reference), len(reference))
    rep.phase("traced", wall, len(traced))
    return rep


# ----------------------------------------------------------------------
# tenants-overload
TENANT_SERVICE = {"d": 2, "ordering": "degree4", "max_batch": 32,
                  "max_delay": 0.02, "max_queue": 64,
                  "admission": "reject"}
NOISY = "noisy"
SMALL_TENANTS = ("small0", "small1", "small2")
NOISY_BURST = 32
NOISY_PERIOD_S = 0.02
SMALL_RATE = 150.0
TENANT_SLO_S = 0.100


def _gateway_config() -> GatewayConfig:
    tenants: Dict[str, Dict[str, Any]] = {
        NOISY: {"rate": 400, "burst": 64, "priority": "bronze"}}
    tenants.update({t: {"priority": "gold"} for t in SMALL_TENANTS})
    return GatewayConfig(tenants=tenants)


def _tenant_traffic(seconds: float, rng: np.random.Generator,
                    noisy_matrices: Sequence[np.ndarray]):
    """``noisy`` bursts of 32 every 20 ms beside Poisson traffic of the
    small tenants; returns the requests and their send offsets."""
    timed = []
    for k, t in enumerate(np.arange(0.0, seconds, NOISY_PERIOD_S)):
        for j in range(NOISY_BURST):
            A = noisy_matrices[(k * NOISY_BURST + j) % len(noisy_matrices)]
            timed.append((float(t), Request(A, tenant=NOISY)))
    offsets = traffic.poisson_offsets(SMALL_RATE, seconds, rng)
    owners = rng.integers(len(SMALL_TENANTS), size=len(offsets))
    for t, owner in zip(offsets, owners):
        timed.append((float(t), Request(_sym(16, rng),
                                        tenant=SMALL_TENANTS[owner])))
    timed.sort(key=lambda item: item[0])
    return [r for _, r in timed], [t for t, _ in timed]


def tenants_overload(s: Settings) -> Report:
    """A bronze ``noisy`` tenant flooding the gateway beside three gold
    small tenants, on an inline service with a bounded queue."""
    return asyncio.run(_tenants_overload(s))


async def _tenants_overload(s: Settings) -> Report:
    rep = Report()
    rng = np.random.default_rng([s.seed, 4])
    noisy_matrices = [_sym(16, rng) for _ in range(256)]

    async def run(gateway: AsyncGateway, seconds: float,
                  proxy: Optional[layers.AdmitTimingService] = None
                  ) -> List[Outcome]:
        requests, offsets = _tenant_traffic(seconds, rng, noisy_matrices)

        async def call(out: Outcome) -> Any:
            if proxy is not None:
                proxy.current = out
            return await gateway.submit(out.request.matrix,
                                        tenant=out.request.tenant)

        return await traffic.open_loop_async(call, requests, offsets)

    def small(outcomes: Sequence[Outcome]) -> List[Outcome]:
        return [o for o in outcomes if o.request.tenant != NOISY]

    if not s.traced:
        svc = JacobiService(**TENANT_SERVICE)
        try:
            gateway = AsyncGateway(svc, _gateway_config())
            await run(gateway, s.warmup)
            start = clock()
            outcomes = await run(gateway, s.seconds)
        finally:
            svc.close()
        rep.tally.judge(outcomes, _solver(svc))
        rep.metrics.update(_latency(rep, small(outcomes), TENANT_SLO_S, s))
        rep.metrics["solves_per_s"] = _throughput(outcomes, start)
        rep.phase("open", s.seconds, len(outcomes))
        return rep

    half = s.seconds / 2
    svc = JacobiService(**TENANT_SERVICE)
    try:
        gateway = AsyncGateway(svc, _gateway_config())
        await run(gateway, s.warmup)
        reference = await run(gateway, half)
    finally:
        svc.close()
    spans = layers.SpanLog()
    offered = NOISY_BURST / NOISY_PERIOD_S + SMALL_RATE
    svc = JacobiService(**TENANT_SERVICE, trace=True,
                        trace_capacity=_capacity(offered
                                                 * (s.warmup + half)))
    proxy = layers.AdmitTimingService(svc)
    gateway = AsyncGateway(proxy, _gateway_config())
    try:
        await run(gateway, s.warmup, proxy)
        before, ledger0 = svc.stats(), gateway.stats().total
        cache0 = GLOBAL_SCHEDULE_CACHE.cache_info()
        first_call = len(proxy.calls)
        start = clock()
        traced = await run(gateway, half, proxy)
        after, ledger1 = svc.stats(), gateway.stats().total
        cache1 = GLOBAL_SCHEDULE_CACHE.cache_info()
    finally:
        svc.close()
    rep.tally.judge(reference + traced, _solver(svc))
    calls = {id(c[0]): c for c in proxy.calls[first_call:]}
    if proxy.next_request != after.submitted:
        rep.invalid.append("request ids did not join the trace")
    for o in traced:
        _, entry, leave, rid = calls.get(id(o), (None, None, None, None))
        parent = spans.add("harness.request", o.due, o.done, request=rid)
        outer = spans.add("gateway.submit", o.sent, o.done, parent, rid)
        if entry is not None:
            spans.add("gateway.admit", o.sent, entry, outer, rid)
            spans.add("service.submit", entry, leave, outer, rid)
    _traced_service(rep, svc, small(traced), small(reference),
                    range(before.submitted, after.submitted),
                    _wall(traced, start), 0,
                    [leave - entry for _, entry, leave, _ in calls.values()],
                    before, after)
    refuse_us = [o.submit_s * 1e6 for o in traced if o.refused]
    rep.metrics.update(_cache_delta(cache0, cache1))
    rep.metrics.update({
        "gateway.refuse_us_p50": percentile(refuse_us, 50),
        "gateway.refuse_us_p99": percentile(refuse_us, 99),
        "gateway.admit_us_p50": percentile(
            [(entry - out.sent) * 1e6 for out, entry, _, _ in calls.values()],
            50),
        "gateway.throttled": ledger1.throttled - ledger0.throttled,
        "gateway.headroom_rejected":
            (ledger1.rejected - ledger0.rejected)
            - (after.rejected - before.rejected),
        # Generator lag covers every tenant, not only the small ones.
        "harness.gen_lag_ms_p99": percentile(
            [o.lag * 1e3 for o in traced], 99),
        "harness.gen_lag_ms_max": max(o.lag for o in traced) * 1e3,
    })
    rep.trace = _trace_doc(svc.trace(), spans, svc.tracer.epoch)
    rep.phase("reference", half, len(reference))
    rep.phase("traced", half, len(traced))
    return rep


#: Workload name -> function, in the order ``BENCHMARK.json`` declares.
WORKLOADS: Dict[str, Callable[[Settings], Report]] = {
    "svc-small": svc_small,
    "svc-pool": svc_pool,
    "ensemble": ensemble,
    "tenants-overload": tenants_overload,
}


# ----------------------------------------------------------------------
# Set-up: seconds from construction to the first result, run once per
# fresh process.  Within one process every set-up shares the threads'
# placement on the CPUs, and on a 2-core host about one process in four
# pays ~5 ms more for each first result's thread handoff; so ``run.py``
# takes the median over processes.  A fresh process also starts with
# empty schedule caches, so work moved into set-up shows.
def _first_result(build: Callable[[], JacobiService],
                  first: Callable[[JacobiService], Any]) -> float:
    t0 = clock()
    svc = build()
    try:
        first(svc)
        return clock() - t0
    finally:
        svc.close()


def _setup_svc_small(seed: int) -> float:
    A = _sym(16, np.random.default_rng([seed, 0]))
    return _first_result(lambda: JacobiService(**SVC_SMALL),
                         lambda svc: svc.solve_many([A]))


def _setup_svc_pool(seed: int) -> float:
    A = _sym(32, np.random.default_rng([seed, 0]))
    return _first_result(lambda: JacobiService(**SVC_POOL, transport="shm"),
                         lambda svc: svc.solve_many([A]))


def _setup_ensemble(seed: int) -> float:
    t0 = clock()
    run_ensemble(CONFIGS, num_matrices=1, seed=seed, orderings=ORDERINGS)
    return clock() - t0


def _setup_tenants(seed: int) -> float:
    A = _sym(16, np.random.default_rng([seed, 0]))

    async def first() -> float:
        t0 = clock()
        svc = JacobiService(**TENANT_SERVICE)
        try:
            gateway = AsyncGateway(svc, _gateway_config())
            task = asyncio.ensure_future(
                gateway.submit(A, tenant=SMALL_TENANTS[0]))
            await asyncio.sleep(0)  # let the request reach the service
            svc.flush()
            await task
            return clock() - t0
        finally:
            svc.close()

    return asyncio.run(first())


#: Workload name -> its set-up: one fresh service to its first result
#: (through the gateway on ``tenants-overload``), or one one-matrix
#: ``run_ensemble`` pass.
SETUPS: Dict[str, Callable[[int], float]] = {
    "svc-small": _setup_svc_small,
    "svc-pool": _setup_svc_pool,
    "ensemble": _setup_ensemble,
    "tenants-overload": _setup_tenants,
}
