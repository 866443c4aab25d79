"""SVD ensemble benchmark: the batched SVD engine across a shape grid.

The SVD analogue of the Table-2 driver: seeded random ensembles of
tall/square matrices per ``(n, m)`` shape run through
:func:`repro.engine.run_svd_ensemble` (batched or sequential engine,
optionally sharded across workers), reporting per-shape convergence and
throughput plus a LAPACK cross-check of the first seeded matrix.  This
is what ``repro-jacobi svd-bench`` renders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engine.runner import generate_svd_ensemble, run_svd_ensemble
from ..engine.svd import BatchedOneSidedSVD
from ..jacobi.convergence import DEFAULT_TOL
from .report import render_table

__all__ = [
    "DEFAULT_SVD_SHAPES",
    "SvdBenchRow",
    "compute_svd_bench",
    "render_svd_bench",
    "parse_shapes",
]

#: Default (n, m) shape grid — tall and square, spanning the paper's
#: Table-2 column-count range.
DEFAULT_SVD_SHAPES: Tuple[Tuple[int, int], ...] = (
    (32, 8), (32, 16), (64, 16), (64, 32), (96, 32),
)


def parse_shapes(text: str) -> List[Tuple[int, int]]:
    """Parse a ``"32x8,64x16"``-style CLI shape list.

    Raises :class:`ValueError` for a malformed entry and for a shape the
    one-sided SVD cannot solve (it needs ``n >= m >= 1``), before any
    ensemble runs.
    """
    shapes: List[Tuple[int, int]] = []
    for part in text.split(","):
        part = part.strip().lower()
        try:
            n_str, m_str = part.split("x")
            n, m = int(n_str), int(m_str)
        except ValueError:
            raise ValueError(
                f"bad shape {part!r}: expected NxM, e.g. 64x16") from None
        if not n >= m >= 1:
            raise ValueError(
                f"bad shape {part!r}: expected NxM with N >= M >= 1 "
                f"(tall or square), e.g. 64x16")
        shapes.append((n, m))
    return shapes


@dataclass(frozen=True)
class SvdBenchRow:
    """One shape's ensemble outcome.

    Attributes
    ----------
    n, m:
        Matrix shape.
    matrices:
        Ensemble size.
    mean_sweeps, min_sweeps, max_sweeps:
        Sweeps-to-convergence statistics over the ensemble.
    wall:
        Wall-clock seconds of the shape's ensemble solve.
    sigma_dev:
        ``max |S - S_lapack|`` of the first seeded matrix (the
        correctness column: the engine vs ``numpy.linalg.svd``).
    """

    n: int
    m: int
    matrices: int
    mean_sweeps: float
    min_sweeps: int
    max_sweeps: int
    wall: float
    sigma_dev: float

    @property
    def throughput(self) -> float:
        """Solves per second of the shape's ensemble run."""
        return self.matrices / self.wall if self.wall > 0 else 0.0


def compute_svd_bench(shapes: Optional[Sequence[Tuple[int, int]]] = None,
                      num_matrices: int = 10,
                      seed: int = 1998,
                      tol: float = DEFAULT_TOL,
                      engine: str = "batched",
                      max_sweeps: int = 60,
                      workers: int = 0,
                      shard_size: Optional[int] = None
                      ) -> List[SvdBenchRow]:
    """Run the SVD ensemble grid and assemble the benchmark rows.

    With ``workers >= 2`` one worker pool is started up front and shared
    by every shape (the first row's wall clock still includes the
    one-time pool startup; per-shape pools would charge it to every
    row).
    """
    shapes = list(DEFAULT_SVD_SHAPES if shapes is None else shapes)
    executor = None
    if workers >= 2:
        # Imported lazily: repro.service sits above the engine layer
        # this module otherwise consumes.
        from ..service.pool import ShardedExecutor

        executor = ShardedExecutor(workers)
    rows: List[SvdBenchRow] = []
    try:
        for n, m in shapes:
            rows.append(_bench_one_shape(
                n, m, num_matrices, seed, tol, engine, max_sweeps,
                workers, shard_size, executor))
    finally:
        if executor is not None:
            executor.shutdown()
    return rows


def _bench_one_shape(n, m, num_matrices, seed, tol, engine, max_sweeps,
                     workers, shard_size, executor) -> SvdBenchRow:
    t0 = time.perf_counter()
    if executor is not None:
        from ..service.pool import run_svd_ensemble_sharded

        (res,) = run_svd_ensemble_sharded(
            [(n, m)], num_matrices=num_matrices, seed=seed, tol=tol,
            engine=engine, max_sweeps=max_sweeps, workers=workers,
            shard_size=shard_size, executor=executor)
    else:
        (res,) = run_svd_ensemble([(n, m)], num_matrices=num_matrices,
                                  seed=seed, tol=tol, engine=engine,
                                  max_sweeps=max_sweeps, workers=workers,
                                  shard_size=shard_size)
    wall = time.perf_counter() - t0
    first = generate_svd_ensemble(n, m, 1, seed)[0]
    S = BatchedOneSidedSVD(tol=tol, max_sweeps=max_sweeps).solve(
        first[None]).S[0]
    dev = float(np.abs(S - np.linalg.svd(first, compute_uv=False)).max())
    return SvdBenchRow(
        n=int(n), m=int(m), matrices=num_matrices,
        mean_sweeps=res.mean_sweeps(),
        min_sweeps=int(res.sweeps.min()),
        max_sweeps=int(res.sweeps.max()),
        wall=wall, sigma_dev=dev)


def render_svd_bench(rows: Sequence[SvdBenchRow]) -> str:
    """ASCII table of the SVD ensemble benchmark."""
    body = [[f"{r.n}x{r.m}", r.matrices, f"{r.mean_sweeps:.2f}",
             f"{r.min_sweeps}-{r.max_sweeps}", f"{r.throughput:,.1f}",
             f"{r.sigma_dev:.1e}"] for r in rows]
    return render_table(
        ["shape", "matrices", "mean sweeps", "range", "solves/s",
         "max |sigma - lapack|"],
        body, title="Batched one-sided Jacobi SVD ensembles")
