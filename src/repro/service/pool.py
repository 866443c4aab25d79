"""Sharded process-pool execution of ensemble work units.

The Monte-Carlo workloads behind Table 2 and the SVD bench are
embarrassingly parallel twice over: the configurations (or SVD shapes)
are independent, and within one the matrices are independent too (the
batched engines' bit-identity contract guarantees that solving any
sub-batch yields exactly the per-matrix results of solving the whole
ensemble).  This module exploits both axes, for both traffic classes:

* :func:`plan_shards` decomposes an ensemble run into an ordered list of
  :class:`ShardTask` work units — one per ``(config, ordering)`` by
  default, with oversized batches split into chunks when there are fewer
  units than workers;
* :class:`ShardedExecutor` fans the units out across worker processes
  (or runs them inline when ``workers <= 1``), collecting results in
  submission order so the merge is deterministic;
* :func:`run_ensemble_sharded` / :func:`run_svd_ensemble_sharded` wrap
  one plan, map and merge core as drop-in forms of
  :func:`repro.engine.runner.run_ensemble` /
  :func:`repro.engine.runner.run_svd_ensemble` — same arguments, same
  results, bit-identical for every worker count and shard size;
* :func:`solve_batch_remote` is the one worker entry of service
  flushes, whatever their traffic class.

Spawn safety
------------
Workers are created with the ``spawn`` start method by default: every
work unit is a small picklable descriptor (matrices are *regenerated*
from their seeded stream inside the worker, never shipped), and the
module-level worker entry points (:func:`solve_ensemble_shard`,
:func:`solve_batch_remote`) are resolved by import in the child.  Each
worker's process-level :data:`~repro.engine.cache.GLOBAL_SCHEDULE_CACHE`
is pre-warmed by the pool initializer with the sweep schedules the run
will need, so no worker rebuilds schedules mid-solve.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.batched import BatchedOneSidedJacobi
from ..engine.runner import (
    ENGINES,
    ENSEMBLE_ORDERINGS,
    EnsembleConfigResult,
    SvdEnsembleResult,
    _check_config,
    _check_num_matrices,
    _check_shape,
    generate_ensemble,
    generate_svd_ensemble,
)
from ..engine.svd import BatchedOneSidedSVD
from ..errors import SimulationError
from ..jacobi.convergence import DEFAULT_TOL
from ..jacobi.parallel import ParallelOneSidedJacobi
from ..jacobi.svd import onesided_svd
from ..orderings.base import get_ordering
from .kinds import TRAFFIC_CLASSES
from .transport import open_payload, seal_result

__all__ = [
    "DEFAULT_WARM_SWEEPS",
    "ShardTask",
    "ExecutorStats",
    "ShardedExecutor",
    "plan_shards",
    "solve_ensemble_shard",
    "solve_batch_remote",
    "run_ensemble_sharded",
    "run_svd_ensemble_sharded",
    "default_worker_count",
]

#: Sweep schedules pre-built per (ordering, d) in every worker; typical
#: ensembles converge well inside this horizon, later sweeps fall back
#: to the worker's own cache misses.
DEFAULT_WARM_SWEEPS = 8


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardTask:
    """One picklable work unit: a slice of one seeded ensemble.

    The matrices are *not* carried by the task — the worker regenerates
    the grid entry's full seeded ensemble (cheap next to the solve) and
    slices ``[lo:hi]``, so every shard sees exactly the matrices the
    in-process path would have given it.

    Attributes
    ----------
    kind:
        The traffic class, ``"eigen"`` or ``"svd"``.
    config:
        The grid entry: ``(m, P)`` (matrix dimension, simulated node
        count) for eigen work, ``(n, m)`` (matrix shape) for SVD work.
    ordering:
        Ordering family name; ``None`` for SVD work, which runs the
        round-robin engine.
    lo, hi:
        The slice of the ensemble this shard solves.
    num_matrices, seed:
        Full ensemble size and RNG seed (the regeneration inputs).
    tol, max_sweeps:
        Convergence tolerance and per-matrix sweep budget.
    engine:
        ``"batched"`` or ``"sequential"``.
    """

    kind: str
    config: Tuple[int, int]
    ordering: Optional[str]
    lo: int
    hi: int
    num_matrices: int
    seed: int
    tol: float
    max_sweeps: int
    engine: str


def solve_ensemble_shard(task: ShardTask,
                         cache: Optional[Any] = None) -> np.ndarray:
    """Worker entry point: sweep counts of one shard (``(hi-lo,)`` ints).

    Solves the :class:`ShardTask` ``task``, bit-identical to the
    corresponding slice of the in-process
    :func:`~repro.engine.runner.run_ensemble` (eigen) or
    :func:`~repro.engine.runner.run_svd_ensemble` (SVD) result.
    ``cache`` is a :class:`~repro.engine.cache.ScheduleCache` for the
    batched eigen engine — only meaningful when the shard runs inline
    (worker processes use their own pre-warmed process cache).
    """
    if task.kind == "svd":
        n, m = task.config
        matrices = generate_svd_ensemble(n, m, task.num_matrices,
                                         task.seed)[task.lo:task.hi]
        if task.engine == "batched":
            return BatchedOneSidedSVD(
                tol=task.tol,
                max_sweeps=task.max_sweeps).count_sweeps(matrices)
        return np.array([onesided_svd(A, tol=task.tol,
                                      max_sweeps=task.max_sweeps).sweeps
                         for A in matrices], dtype=np.int64)
    m, P = task.config
    matrices = generate_ensemble(m, P, task.num_matrices,
                                 task.seed)[task.lo:task.hi]
    ordering = get_ordering(task.ordering, int(P).bit_length() - 1)
    if task.engine == "batched":
        solver = BatchedOneSidedJacobi(ordering, tol=task.tol,
                                       max_sweeps=task.max_sweeps,
                                       cache=cache)
        return solver.count_sweeps(matrices)
    seq = ParallelOneSidedJacobi(ordering, tol=task.tol,
                                 max_sweeps=task.max_sweeps)
    return np.array([seq.count_sweeps(A) for A in matrices],
                    dtype=np.int64)


def solve_batch_remote(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point for service flushes: solve a shipped batch.

    Serves every traffic class: the payload's ``kind`` selects its
    :data:`~repro.service.kinds.TRAFFIC_CLASSES` entry, which builds
    the batched-engine call and names the result arrays.

    Parameters
    ----------
    payload:
        The ``kind``, the stacked ``matrices``, ``tol`` /
        ``max_sweeps``, and the solver fields the class's ``spec``
        added (the eigen class's ``ordering`` / ``d`` /
        ``compute_eigenvectors``).

    Returns
    -------
    dict
        The class's result ``arrays``
        (:class:`~repro.service.kinds.TrafficClass`) so the result
        pickles cheaply, plus ``elapsed`` — the wall-clock seconds of
        the solve, measured *here* (inside the worker when dispatched
        remotely) so the service's per-kind latency feedback reflects
        solve cost, not queueing or pickling — and ``worker``, the
        solving process's pid, which is what the tracing layer uses
        for per-worker attribution.  When the payload is a
        shared-memory descriptor (:func:`~repro.service.transport.open_payload`),
        the matrices are read from the segment in place, the result
        arrays are written back into it
        (:func:`~repro.service.transport.seal_result`), and only the
        scalars cross the pipe.  Convergence failures are reported per
        matrix (``converged`` flags), never raised — the service
        decides what a miss means.
    """
    payload, segment = open_payload(payload)
    try:
        traffic = TRAFFIC_CLASSES[payload["kind"]]
        solve = traffic.solver(payload)
        t0 = time.perf_counter()
        res = solve(payload["matrices"])
        elapsed = time.perf_counter() - t0
        out: Dict[str, Any] = {name: getattr(res, name)
                               for name, _, _ in traffic.arrays}
        out["elapsed"] = elapsed
        out["worker"] = os.getpid()
        return seal_result(out, segment)
    finally:
        if segment is not None:
            # Drop the matrices view before unmapping the segment.
            payload.clear()
            segment.close()


def _warm_worker(specs: Tuple[Tuple[str, int], ...],
                 warm_sweeps: int) -> None:
    """Pool initializer: pre-build schedules into this worker's cache."""
    from ..engine.cache import GLOBAL_SCHEDULE_CACHE

    for name, d in specs:
        ordering = get_ordering(name, d)
        GLOBAL_SCHEDULE_CACHE.get_phase_sequences(ordering)
        for sweep in range(warm_sweeps):
            GLOBAL_SCHEDULE_CACHE.get_schedule(ordering, sweep=sweep)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutorStats:
    """Dispatch counters of a :class:`ShardedExecutor`.

    Attributes
    ----------
    workers:
        The executor's configured worker count.
    tasks_dispatched, tasks_inline:
        Calls sent to the process pool vs run in the calling process.
    pool_started:
        Whether the lazy pool has actually been created.
    """

    workers: int
    tasks_dispatched: int
    tasks_inline: int
    pool_started: bool


class ShardedExecutor:
    """Fan work units out across worker processes, merge deterministically.

    Parameters
    ----------
    workers:
        Worker processes.  ``0`` or ``1`` means *inline*: tasks run in
        the calling process (same code path, no pool) — useful both as a
        baseline and for debugging; results are identical either way.
    mp_context:
        Multiprocessing start method (default ``"spawn"``, the portable
        and safest choice; ``"fork"`` trades safety for startup time on
        POSIX).
    warm:
        ``(ordering_name, d)`` pairs whose sweep schedules every worker
        pre-builds at startup (see :func:`_warm_worker`).
    warm_sweeps:
        Schedules per pair to pre-build (default
        :data:`DEFAULT_WARM_SWEEPS`).

    The pool is started lazily on first dispatch and is reusable across
    calls; use as a context manager (or call :meth:`shutdown`) to
    release the workers.
    """

    def __init__(self, workers: int, *,
                 mp_context: str = "spawn",
                 warm: Sequence[Tuple[str, int]] = (),
                 warm_sweeps: int = DEFAULT_WARM_SWEEPS) -> None:
        self.workers = int(workers)
        if self.workers < 0:
            raise SimulationError(f"workers must be >= 0, got {workers}")
        self.mp_context = mp_context
        self.warm = tuple((str(name), int(d)) for name, d in warm)
        self.warm_sweeps = int(warm_sweeps)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._dispatched = 0
        self._inline = 0

    # ------------------------------------------------------------------
    @property
    def uses_processes(self) -> bool:
        """Whether dispatch goes to a process pool (``workers >= 2``)."""
        return self.workers >= 2

    @property
    def broken(self) -> bool:
        """Whether the underlying process pool is broken (a worker died
        and the pool can no longer accept work).  ``False`` for inline
        executors and pools that were never started.  Waiters use this
        to fail stranded work instead of blocking forever — see
        :meth:`repro.service.api.JacobiService.close`."""
        pool = self._pool
        return bool(pool is not None and getattr(pool, "_broken", False))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            ctx = multiprocessing.get_context(self.mp_context)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx,
                initializer=_warm_worker,
                initargs=(self.warm, self.warm_sweeps))
        return self._pool

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Dispatch one ``fn(*args)`` call; inline mode runs it here
        and returns an already-done future."""
        if self.uses_processes:
            self._dispatched += 1
            return self._ensure_pool().submit(fn, *args)
        self._inline += 1
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        except BaseException:
            # KeyboardInterrupt/SystemExit must reach the caller — a
            # future nobody resolves would swallow the interrupt.
            raise
        return future

    def map_ordered(self, fn: Callable[[Any], Any],
                    items: Sequence[Any]) -> List[Any]:
        """Run ``fn`` over ``items``, returning results in *item order*
        regardless of completion order — the deterministic-merge
        primitive."""
        futures = [self.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    def stats(self) -> ExecutorStats:
        """Dispatch counters (inline vs pooled)."""
        return ExecutorStats(workers=self.workers,
                             tasks_dispatched=self._dispatched,
                             tasks_inline=self._inline,
                             pool_started=self._pool is not None)

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker processes (idempotent), blocking until
        running tasks finish unless ``wait`` is false."""
        if self._pool is not None:
            if self.broken:
                # A worker spawned while the pool was breaking can miss
                # its stop signal and idle forever, and the pool's own
                # teardown waits for every worker: stop them all first.
                for proc in list((self._pool._processes or {}).values()):
                    proc.kill()
            self._pool.shutdown(wait=wait)
            self._pool = None

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
def _resolve_shard_size(units: int, num_matrices: int, workers: int,
                        shard_size: Optional[int]) -> int:
    """Matrices per work unit: whole ensembles unless splitting is
    needed to occupy the workers (or the caller forces a size)."""
    if shard_size is None:
        if workers >= 2 and 0 < units < workers:
            pieces = math.ceil(workers / units)
            shard_size = max(1, math.ceil(num_matrices / pieces))
        else:
            shard_size = num_matrices
    if shard_size < 1:
        raise SimulationError(f"shard_size must be >= 1, got {shard_size}")
    return shard_size


def plan_shards(configs: Sequence[Tuple[int, int]],
                orderings: Sequence[Optional[str]],
                num_matrices: int,
                workers: int,
                shard_size: Optional[int] = None,
                *,
                kind: str = "eigen",
                seed: int = 1998,
                tol: float = DEFAULT_TOL,
                max_sweeps: int = 60,
                engine: str = "batched"
                ) -> List[Tuple[int, ShardTask]]:
    """Decompose an ensemble run into ordered ``(config_index, task)``
    work units.

    One unit per ``(config, ordering)`` by default; when there are fewer
    units than workers (or ``shard_size`` forces it), each unit's batch
    is split into contiguous ``[lo:hi)`` chunks so every worker has
    work.  The plan order — configs, then orderings, then chunks — is
    the merge order, which is what keeps sharded results bit-identical
    to the in-process path.

    Parameters
    ----------
    configs:
        The grid: ``(m, P)`` configurations for eigen work, ``(n, m)``
        shapes for SVD work.
    orderings:
        Ordering family names, in column order; ``[None]`` for SVD
        work, which has no ordering.
    num_matrices:
        Ensemble size per configuration.
    workers:
        The parallelism the plan should occupy.
    shard_size:
        Forced matrices-per-unit (``None`` = whole ensembles unless
        splitting is needed).
    kind:
        The traffic class of the work, ``"eigen"`` (default) or
        ``"svd"``.
    seed, tol, max_sweeps, engine:
        Solver spec baked into every :class:`ShardTask`.
    """
    _check_num_matrices(num_matrices)
    shard_size = _resolve_shard_size(len(configs) * len(orderings),
                                     num_matrices, workers, shard_size)
    plan: List[Tuple[int, ShardTask]] = []
    for ci, (a, b) in enumerate(configs):
        for name in orderings:
            for lo in range(0, num_matrices, shard_size):
                hi = min(lo + shard_size, num_matrices)
                plan.append((ci, ShardTask(
                    kind=kind, config=(int(a), int(b)), ordering=name,
                    lo=lo, hi=hi, num_matrices=num_matrices, seed=seed,
                    tol=tol, max_sweeps=max_sweeps, engine=engine)))
    return plan


def _run_sharded(kind: str, configs: Sequence[Tuple[int, int]],
                 orderings: Sequence[Optional[str]], num_matrices: int,
                 seed: int, tol: float, engine: str, max_sweeps: int,
                 workers: int, shard_size: Optional[int],
                 mp_context: str, executor: Optional[ShardedExecutor],
                 warm: Sequence[Tuple[str, int]] = (),
                 cache: Optional[Any] = None
                 ) -> List[Dict[Optional[str], np.ndarray]]:
    """Plan, map and merge one sharded ensemble run: per config, each
    ordering's sweep counts concatenated back in plan order."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    # Plan for the parallelism that will actually execute: a shared
    # executor's worker count wins over the `workers` argument.
    plan_workers = executor.workers if executor is not None else workers
    plan = plan_shards(configs, orderings, num_matrices, plan_workers,
                       shard_size, kind=kind, seed=seed, tol=tol,
                       max_sweeps=max_sweeps, engine=engine)
    own = executor is None
    executor = executor if executor is not None else ShardedExecutor(
        workers, mp_context=mp_context, warm=warm)
    if cache is not None and executor.uses_processes:
        if own:
            executor.shutdown()
        raise ValueError(
            "an explicit schedule cache cannot be used with worker "
            "processes (each worker has its own process cache); drop "
            "the cache argument or use workers<=1")
    solve = (functools.partial(solve_ensemble_shard, cache=cache)
             if cache is not None else solve_ensemble_shard)
    try:
        outs = executor.map_ordered(solve, [task for _, task in plan])
    finally:
        if own:
            executor.shutdown()
    chunks: Dict[Tuple[int, Optional[str]], List[np.ndarray]] = {}
    for (ci, task), arr in zip(plan, outs):
        chunks.setdefault((ci, task.ordering), []).append(arr)
    return [{name: np.concatenate(chunks[ci, name]) for name in orderings}
            for ci in range(len(configs))]


def run_ensemble_sharded(configs: Sequence[Tuple[int, int]],
                         num_matrices: int = 30,
                         seed: int = 1998,
                         tol: float = DEFAULT_TOL,
                         orderings: Optional[Sequence[str]] = None,
                         engine: str = "batched",
                         max_sweeps: int = 60,
                         workers: int = 1,
                         shard_size: Optional[int] = None,
                         mp_context: str = "spawn",
                         executor: Optional[ShardedExecutor] = None,
                         cache: Optional[Any] = None
                         ) -> List[EnsembleConfigResult]:
    """Sharded form of :func:`repro.engine.runner.run_ensemble`.

    Fans the run's shard plan across ``workers`` processes (inline when
    ``workers <= 1``) and merges the per-shard sweep counts back into
    per-configuration results in plan order.  Bit-identical to the
    in-process path for every ``workers``/``shard_size`` choice.

    Parameters
    ----------
    configs:
        ``(m, P)`` configuration grid.
    num_matrices, seed:
        Ensemble size per configuration and RNG seed.
    tol, max_sweeps:
        Convergence tolerance and per-matrix sweep budget.
    orderings:
        Ordering family names; defaults to the runner's
        :data:`~repro.engine.runner.ENSEMBLE_ORDERINGS` (Table 2's
        column order) so the two entry points can never drift apart.
    engine:
        ``"batched"`` or ``"sequential"``.
    workers, shard_size:
        Parallelism and forced shard size (see :func:`plan_shards`).
    mp_context:
        Multiprocessing start method for a pool built here.
    executor:
        Reuse a warm pool across calls; it is then *not* shut down
        here (and its worker count wins over ``workers``).
    cache:
        Explicit schedule cache, honoured on the inline path and
        rejected when worker processes would be used (their caches
        live in other processes; silently ignoring the argument would
        be worse).
    """
    names = list(dict.fromkeys(
        ENSEMBLE_ORDERINGS if orderings is None else orderings))
    warm = sorted({(name, _check_config(m, P))
                   for (m, P) in configs for name in names})
    merged = _run_sharded("eigen", configs, names, num_matrices, seed, tol,
                          engine, max_sweeps, workers, shard_size,
                          mp_context, executor, warm=warm, cache=cache)
    return [EnsembleConfigResult(m=int(m), P=int(P), sweeps=sweeps)
            for (m, P), sweeps in zip(configs, merged)]


def run_svd_ensemble_sharded(shapes: Sequence[Tuple[int, int]],
                             num_matrices: int = 30,
                             seed: int = 1998,
                             tol: float = DEFAULT_TOL,
                             engine: str = "batched",
                             max_sweeps: int = 60,
                             workers: int = 1,
                             shard_size: Optional[int] = None,
                             mp_context: str = "spawn",
                             executor: Optional[ShardedExecutor] = None
                             ) -> List[SvdEnsembleResult]:
    """Sharded form of :func:`repro.engine.runner.run_svd_ensemble`.

    :func:`run_ensemble_sharded` over an ``(n, m)`` ``shapes`` grid of
    SVD work (one column, ordering ``None``; no schedule warm-up, no
    ``cache``): ``num_matrices``, ``seed``, ``tol``, ``engine``,
    ``max_sweeps``, ``workers``, ``shard_size``, ``mp_context`` and
    ``executor`` mean the same there, and the sweep counts are
    bit-identical to the in-process path for every choice.
    """
    for n, m in shapes:
        _check_shape(n, m)
    merged = _run_sharded("svd", shapes, [None], num_matrices, seed, tol,
                          engine, max_sweeps, workers, shard_size,
                          mp_context, executor)
    return [SvdEnsembleResult(n=int(n), m=int(m), sweeps=sweeps[None])
            for (n, m), sweeps in zip(shapes, merged)]


def default_worker_count() -> int:
    """A sensible worker count for this machine, floored at 1 — what
    CLI callers get from ``--workers -1``.  Prefers the CPUs this
    process may actually run on (``os.sched_getaffinity``) over the
    raw ``os.cpu_count()``, so cpuset-restricted containers and CI
    runners aren't oversubscribed."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - affinity query denied
            pass
    return max(1, os.cpu_count() or 1)
