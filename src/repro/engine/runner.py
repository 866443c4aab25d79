"""Ensemble driver: many matrices × many (m, P) configurations.

:func:`run_ensemble` is the single entry point behind every Monte-Carlo
convergence experiment in the repo — Table 2
(:mod:`repro.analysis.table2`), the convergence-robustness study and
``examples/convergence_study.py`` all call it.  It generates the seeded
matrix ensembles (every ordering sees the same matrices, exactly the
streams the sequential Table-2 driver always used) and dispatches each
configuration to one of two engines:

* ``engine="batched"`` (default) — one
  :class:`~repro.engine.batched.BatchedOneSidedJacobi` solve per
  ``(config, ordering)``: the whole ensemble rides a shared sweep
  schedule in a handful of large NumPy calls.
* ``engine="sequential"`` — the historical loop of per-matrix
  :class:`~repro.jacobi.parallel.ParallelOneSidedJacobi` solves.

Both engines count sweeps through their ``count_sweeps``, which solves
without eigenvectors: the rotation angles and the convergence check read
the iterate alone.  The two are bit-identical in sweep counts (asserted
by the equivalence tests), so the engine choice is purely a performance
knob; ``benchmarks/test_bench_engine.py`` tracks the speedup.

Passing ``workers >= 1`` routes the run through the service layer
(:func:`repro.service.pool.run_ensemble_sharded`): the ``(config,
ordering)`` work units — and, when that still leaves workers idle, the
matrix batches themselves — are fanned out across worker processes and
merged deterministically, so the results stay bit-identical to the
in-process path; ``benchmarks/test_bench_service.py`` tracks the
multi-process scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..jacobi.convergence import DEFAULT_TOL
from ..jacobi.onesided import make_symmetric_test_matrix
from ..jacobi.parallel import ParallelOneSidedJacobi
from ..jacobi.svd import onesided_svd
from ..orderings.base import get_ordering
from .batched import BatchedOneSidedJacobi
from .cache import GLOBAL_SCHEDULE_CACHE, ScheduleCache
from .svd import BatchedOneSidedSVD

__all__ = [
    "ENGINES",
    "ENSEMBLE_ORDERINGS",
    "EnsembleConfigResult",
    "SvdEnsembleResult",
    "generate_ensemble",
    "generate_svd_ensemble",
    "run_ensemble",
    "run_svd_ensemble",
]

#: Engines understood by :func:`run_ensemble`.
ENGINES: Tuple[str, ...] = ("sequential", "batched")

#: The ordering families compared by the paper's convergence experiment,
#: in Table 2's column order.
ENSEMBLE_ORDERINGS: Tuple[str, ...] = ("br", "permuted-br", "degree4")


@dataclass(frozen=True)
class EnsembleConfigResult:
    """Per-matrix sweep counts of one (m, P) configuration.

    Attributes
    ----------
    m:
        Matrix dimension.
    P:
        Number of processors (``2**d``).
    sweeps:
        Ordering name -> ``(num_matrices,)`` int array of sweeps to
        convergence, matrix-aligned across orderings (matrix ``k`` is the
        same matrix in every array).
    """

    m: int
    P: int
    sweeps: Dict[str, np.ndarray]

    def mean_sweeps(self) -> Dict[str, float]:
        """Mean sweep count per ordering (a Table-2 row's payload)."""
        return {name: float(np.mean(counts))
                for name, counts in self.sweeps.items()}

    def spread(self) -> float:
        """``max - min`` of the per-ordering means (the paper's claim is
        that this is small).

        A degenerate result — no orderings, or a single one — has no
        cross-ordering disagreement to report, so the spread is 0.0.
        """
        means = list(self.mean_sweeps().values())
        if len(means) < 2:
            return 0.0
        return max(means) - min(means)


def _check_config(m: int, P: int) -> int:
    d = int(P).bit_length() - 1
    if (1 << d) != P:
        raise ValueError(f"P={P} is not a power of two")
    return d


def generate_ensemble(m: int, P: int, num_matrices: int,
                      seed: int) -> np.ndarray:
    """The seeded ``(num_matrices, m, m)`` test ensemble of one config.

    Matches the historical Table-2 streams exactly: an independent
    ``default_rng((seed, m, P))`` per configuration, matrices drawn in
    order, entries uniform in ``[-1, 1]`` and symmetrised.
    """
    _check_config(m, P)
    rng = np.random.default_rng((seed, m, P))
    return np.stack([make_symmetric_test_matrix(m, rng)
                     for _ in range(num_matrices)])


def run_ensemble(configs: Sequence[Tuple[int, int]],
                 num_matrices: int = 30,
                 seed: int = 1998,
                 tol: float = DEFAULT_TOL,
                 orderings: Sequence[str] = ENSEMBLE_ORDERINGS,
                 engine: str = "batched",
                 max_sweeps: int = 60,
                 cache: Optional[ScheduleCache] = None,
                 workers: int = 0,
                 shard_size: Optional[int] = None
                 ) -> List[EnsembleConfigResult]:
    """Sweeps-to-convergence of seeded random ensembles per (m, P).

    Parameters
    ----------
    configs:
        ``(m, P)`` pairs; ``P`` must be a power of two.
    num_matrices:
        Matrices per configuration (the paper used 30).
    seed:
        Base RNG seed; every configuration uses an independent seeded
        stream, and *all orderings see the same matrices*.
    tol:
        Convergence tolerance of the sweep loop.
    orderings:
        Ordering family names to compare.
    engine:
        ``"batched"`` (default) or ``"sequential"`` — bit-identical
        results, very different wall clock.
    max_sweeps:
        Per-matrix sweep budget.
    cache:
        Schedule memo for the batched engine (defaults to the process
        cache).
    workers:
        ``0`` (default) runs in-process; ``>= 1`` routes through the
        sharded service layer — ``1`` executes the same shard plan
        inline, ``>= 2`` fans it out across that many worker processes.
        Results are bit-identical for every choice.
    shard_size:
        Matrices per shard when sharding (``None`` = automatic: whole
        ensembles unless splitting is needed to occupy the workers).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    if workers:
        # Imported lazily: repro.service sits above this module.
        from ..service.pool import run_ensemble_sharded

        return run_ensemble_sharded(
            configs, num_matrices=num_matrices, seed=seed, tol=tol,
            orderings=orderings, engine=engine, max_sweeps=max_sweeps,
            workers=workers, shard_size=shard_size, cache=cache)
    cache = cache if cache is not None else GLOBAL_SCHEDULE_CACHE
    results: List[EnsembleConfigResult] = []
    for m, P in configs:
        d = _check_config(m, P)
        matrices = generate_ensemble(m, P, num_matrices, seed)
        sweeps: Dict[str, np.ndarray] = {}
        for name in orderings:
            ordering = get_ordering(name, d)
            if engine == "batched":
                solver = BatchedOneSidedJacobi(ordering, tol=tol,
                                               max_sweeps=max_sweeps,
                                               cache=cache)
                sweeps[name] = solver.count_sweeps(matrices)
            else:
                seq = ParallelOneSidedJacobi(ordering, tol=tol,
                                             max_sweeps=max_sweeps)
                sweeps[name] = np.array([seq.count_sweeps(A)
                                         for A in matrices],
                                        dtype=np.int64)
        results.append(EnsembleConfigResult(m=m, P=P, sweeps=sweeps))
    return results


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SvdEnsembleResult:
    """Per-matrix sweep counts of one (n, m) SVD shape.

    Attributes
    ----------
    n, m:
        Matrix shape (``n`` rows, ``m`` columns, ``n >= m``).
    sweeps:
        ``(num_matrices,)`` int array of sweeps to convergence.
    """

    n: int
    m: int
    sweeps: np.ndarray

    def mean_sweeps(self) -> float:
        """Mean sweep count of the shape's ensemble."""
        return float(np.mean(self.sweeps))


def _check_shape(n: int, m: int) -> None:
    if m < 1 or n < m:
        raise ValueError(
            f"SVD shapes need n >= m >= 1 (tall or square), got "
            f"({n}, {m})")


def generate_svd_ensemble(n: int, m: int, num_matrices: int,
                          seed: int) -> np.ndarray:
    """The seeded ``(num_matrices, n, m)`` test ensemble of one shape.

    The rectangular twin of :func:`generate_ensemble`: an independent
    ``default_rng((seed, n, m))`` per shape, matrices drawn in order,
    entries uniform in ``[-1, 1]`` (no symmetrisation — SVD inputs are
    general).
    """
    _check_shape(n, m)
    rng = np.random.default_rng((seed, n, m))
    return rng.uniform(-1.0, 1.0, size=(num_matrices, n, m))


def run_svd_ensemble(shapes: Sequence[Tuple[int, int]],
                     num_matrices: int = 30,
                     seed: int = 1998,
                     tol: float = DEFAULT_TOL,
                     engine: str = "batched",
                     max_sweeps: int = 60,
                     workers: int = 0,
                     shard_size: Optional[int] = None
                     ) -> List[SvdEnsembleResult]:
    """Sweeps-to-convergence of seeded random SVD ensembles per (n, m).

    The SVD twin of :func:`run_ensemble`: every shape's seeded ensemble
    runs through :class:`~repro.engine.svd.BatchedOneSidedSVD` in one
    batch (``engine="batched"``, default) or through the historical loop
    of per-matrix :func:`~repro.jacobi.svd.onesided_svd` solves
    (``engine="sequential"``) — bit-identical sweep counts either way.
    ``workers >= 1`` routes the run through the sharded service layer
    (:func:`repro.service.pool.run_svd_ensemble_sharded`), still
    bit-identical for every worker count and shard size.

    Parameters
    ----------
    shapes:
        ``(n, m)`` shape grid, one seeded ensemble per entry.
    num_matrices:
        Ensemble size per shape.
    seed:
        Ensemble RNG seed (see :func:`generate_svd_ensemble`).
    tol, max_sweeps:
        Convergence tolerance and per-matrix sweep budget.
    engine:
        ``"batched"`` or ``"sequential"``.
    workers, shard_size:
        Sharding knobs forwarded to the service layer (``workers=0``
        stays in-process).

    Returns
    -------
    list of SvdEnsembleResult
        One per shape, in input order.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    if workers:
        # Imported lazily: repro.service sits above this module.
        from ..service.pool import run_svd_ensemble_sharded

        return run_svd_ensemble_sharded(
            shapes, num_matrices=num_matrices, seed=seed, tol=tol,
            engine=engine, max_sweeps=max_sweeps, workers=workers,
            shard_size=shard_size)
    results: List[SvdEnsembleResult] = []
    for n, m in shapes:
        matrices = generate_svd_ensemble(n, m, num_matrices, seed)
        if engine == "batched":
            solver = BatchedOneSidedSVD(tol=tol, max_sweeps=max_sweeps)
            sweeps = solver.count_sweeps(matrices)
        else:
            sweeps = np.array([onesided_svd(A, tol=tol,
                                            max_sweeps=max_sweeps).sweeps
                               for A in matrices], dtype=np.int64)
        results.append(SvdEnsembleResult(n=int(n), m=int(m),
                                         sweeps=sweeps))
    return results
