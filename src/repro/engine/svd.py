"""Batched multi-matrix one-sided Jacobi SVD engine.

The one-sided method is natively an SVD algorithm (the BR ordering
descends from Gao & Thomas's parallel Jacobi SVD, paper ref [7]), and
everything that made the eigenpath batchable applies verbatim: the
pairing rounds are shared by every matrix of an ensemble, and
convergence is judged per matrix at sweep boundaries.
:class:`BatchedOneSidedSVD` stacks a list of same-shape tall (or square)
matrices on a leading batch dimension and runs them all through the
eigen engine's :func:`~repro.engine.batched.run_batched_sweeps` and its
backends.  Those store rows ``[A column (n) | V column (m)]`` and reduce
over the ``n``-long iterate half, so a rectangular iterate needs no
backend of its own.  The ``ordering`` picks the sequential twin:

* ``ordering=None`` (default) replays
  :func:`~repro.jacobi.svd.onesided_svd` — the full round-robin circle
  of :func:`~repro.jacobi.blocks.round_robin_rounds` over all ``m``
  columns per sweep — on the indexed backend.  This is the service's
  SVD traffic path.
* ``ordering=<JacobiOrdering>`` replays the *simulated-machine*
  :func:`~repro.jacobi.svd.parallel_svd`: the intra-block and
  cross-block pairing rounds of the ordering's sweep schedule (pulled
  from the shared :class:`~repro.engine.cache.ScheduleCache`), on split
  planes for balanced blocks and on the indexed backend otherwise — the
  same choice as the eigen engine's.

Bit-identical by construction
-----------------------------
Both modes are the *same arithmetic* as their per-matrix twin: identical
pairing rounds, identical row-kernel reductions and elementwise updates
(pinned by the eigen engine's equivalence tests), identical per-matrix
convergence checks at sweep boundaries, and a thin-SVD
extraction vectorised across the batch whose every step (column norms,
descending argsort, gathers, divides) is elementwise-equal to
:func:`repro.jacobi.svd._extract_svd`.  Consequently ``U``, ``S``,
``Vt``, sweep counts and convergence flags match
``onesided_svd``/``parallel_svd`` bit for bit —
``tests/test_svd_differential.py`` asserts exactly that.

Rank-deficient matrices complete their zero-singular-value left vectors
with a *fresh* seeded RNG per matrix (``fill_seed``), so the completion
is independent of where the matrix sits in a batch — the same
caller-seeded contract as :func:`~repro.jacobi.svd.onesided_svd`'s
``fill_rng``.

Like the eigen engine, the batch is *compacted* between sweeps:
converged matrices are extracted into the result and stop paying for
further rounds, while the survivors' columns are left bit-for-bit
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import ConvergenceError, SimulationError
from ..jacobi.convergence import DEFAULT_TOL
from ..jacobi.rotations import RotationStats
from ..jacobi.svd import _complete_left_vectors
from ..orderings.base import JacobiOrdering
from .batched import run_batched_sweeps
from .cache import GLOBAL_SCHEDULE_CACHE, ScheduleCache

__all__ = ["BatchedSvdResult", "BatchedOneSidedSVD", "stack_rect_matrices"]


def stack_rect_matrices(matrices: Union[np.ndarray, Sequence[np.ndarray]]
                        ) -> np.ndarray:
    """Stack same-shape tall/square matrices into ``(B, n, m)``.

    Accepts an already-stacked 3-D array (returned as float64, copied
    only if a cast is needed) or any sequence of 2-D arrays.  Every
    matrix must satisfy ``n >= m`` (the one-sided SVD's orientation;
    pass ``A.T`` and swap U/V for wide matrices).
    """
    if isinstance(matrices, np.ndarray) and matrices.ndim == 3:
        A = np.asarray(matrices, dtype=np.float64)
    else:
        mats = [np.asarray(M, dtype=np.float64) for M in matrices]
        if not mats:
            raise SimulationError("cannot solve an empty batch")
        shapes = {M.shape for M in mats}
        if len(shapes) != 1:
            raise SimulationError(
                f"batch requires same-shape matrices, got {sorted(shapes)}")
        A = np.stack(mats)
    if A.ndim != 3:
        raise SimulationError(
            f"batch of matrices expected, got shape {A.shape}")
    if A.shape[0] == 0:
        raise SimulationError("cannot solve an empty batch")
    if A.shape[1] < A.shape[2]:
        raise SimulationError(
            f"one-sided SVD expects n >= m (tall or square); got batch "
            f"shape {A.shape}; pass A.T and swap U/V for wide matrices")
    return A


@dataclass
class BatchedSvdResult:
    """Outcome of a batched thin-SVD solve.

    Attributes
    ----------
    U:
        ``(B, n, m)`` left singular vectors per matrix (thin SVD).
    S:
        ``(B, m)`` singular values, descending per matrix (LAPACK
        convention), bit-identical to the per-matrix solver's.
    Vt:
        ``(B, m, m)`` transposed right singular vectors per matrix.
    sweeps:
        ``(B,)`` sweeps each matrix needed until convergence.
    converged:
        ``(B,)`` whether each matrix met the tolerance in budget.
    off_history:
        Per-matrix orthogonality defect after each of *its* sweeps.
    stats:
        Rotation work, summed over the batch.
    """

    U: np.ndarray
    S: np.ndarray
    Vt: np.ndarray
    sweeps: np.ndarray
    converged: np.ndarray
    off_history: List[List[float]]
    stats: RotationStats

    @property
    def batch_size(self) -> int:
        """Number of matrices solved."""
        return int(self.sweeps.shape[0])

    def __len__(self) -> int:
        return self.batch_size

    def reconstruct(self) -> np.ndarray:
        """``U @ diag(S) @ Vt`` per matrix — for testing round-trips."""
        return (self.U * self.S[:, None, :]) @ self.Vt


# ----------------------------------------------------------------------
class BatchedOneSidedSVD:
    """One-sided Jacobi SVD over a stack of matrices, one shared schedule.

    Parameters
    ----------
    ordering:
        ``None`` (default) replays the sequential
        :func:`~repro.jacobi.svd.onesided_svd` round-robin sweeps;
        a :class:`~repro.orderings.base.JacobiOrdering` replays the
        simulated-machine :func:`~repro.jacobi.svd.parallel_svd` sweeps
        of that ordering (requires ``m >= 2**(d+1)``).
    tol:
        Scaled column-orthogonality stopping tolerance, judged per
        matrix.
    max_sweeps:
        Sweep budget per matrix.
    cache:
        Schedule memo for ordering mode; defaults to the process-level
        :data:`~repro.engine.cache.GLOBAL_SCHEDULE_CACHE`.
    fill_seed:
        Seed of the *per-matrix* RNG completing zero-singular-value left
        vectors of rank-deficient inputs (default 0, matching
        :func:`~repro.jacobi.svd.onesided_svd`'s default).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> mats = [rng.normal(size=(12, 6)) for _ in range(3)]
    >>> res = BatchedOneSidedSVD().solve(mats)
    >>> ref = np.linalg.svd(mats[0], compute_uv=False)
    >>> bool(np.allclose(res.S[0], ref, atol=1e-8))
    True
    """

    def __init__(self, ordering: Optional[JacobiOrdering] = None,
                 tol: float = DEFAULT_TOL,
                 max_sweeps: int = 60,
                 cache: Optional[ScheduleCache] = None,
                 fill_seed: int = 0) -> None:
        self.ordering = ordering
        self.tol = float(tol)
        self.max_sweeps = int(max_sweeps)
        if self.max_sweeps < 1:
            raise ConvergenceError("max_sweeps must be >= 1")
        self.cache = cache if cache is not None else GLOBAL_SCHEDULE_CACHE
        self.fill_seed = int(fill_seed)

    def solve(self, matrices: Union[np.ndarray, Sequence[np.ndarray]],
              raise_on_no_convergence: bool = True) -> BatchedSvdResult:
        """Thin-SVD a batch of tall (or square) matrices.

        Parameters
        ----------
        matrices:
            ``(B, n, m)`` stack or sequence of ``B`` matrices with
            ``n >= m`` (and ``m >= 2**(d+1)`` in ordering mode).
        raise_on_no_convergence:
            Raise if any matrix fails to converge within the budget.
        """
        A0 = stack_rect_matrices(matrices)
        stats = RotationStats()
        final_A, final_V, sweeps, converged, off_history = \
            run_batched_sweeps(A0, self.ordering, self.cache, self.tol,
                               self.max_sweeps, True, stats,
                               raise_on_no_convergence)
        U, S, Vt = self._extract_batch(final_A, final_V)
        return BatchedSvdResult(U=U, S=S, Vt=Vt, sweeps=sweeps,
                                converged=converged,
                                off_history=off_history, stats=stats)

    # ------------------------------------------------------------------
    def _extract_batch(self, AV: np.ndarray, V: np.ndarray):
        """Thin-SVD extraction vectorised across the batch.

        Every step — column norms, descending argsort, gathers, the
        masked divide, the per-matrix orthonormal completion — performs
        the same elementwise arithmetic on the same data as
        :func:`repro.jacobi.svd._extract_svd` does per matrix, so the
        factors are bit-identical to extracting one matrix at a time.
        """
        num, n, m = AV.shape
        norms = np.linalg.norm(AV, axis=1)
        order = np.argsort(norms, axis=1)[:, ::-1]  # descending S
        S = np.take_along_axis(norms, order, axis=1)
        V_sorted = np.take_along_axis(V, order[:, None, :], axis=2)
        AV_sorted = np.take_along_axis(AV, order[:, None, :], axis=2)
        scale = np.where(S[:, :1] > 0, S[:, :1], 1.0)
        nonzero = S > scale * 1e-14
        U = np.zeros((num, n, m))
        np.divide(AV_sorted, S[:, None, :], out=U,
                  where=nonzero[:, None, :])
        # Rank-deficient matrices (rare) complete their zero columns one
        # at a time, each with a fresh seeded RNG: the completion cannot
        # depend on the batch layout.
        for k in np.flatnonzero(nonzero.sum(axis=1) < m):
            _complete_left_vectors(U[k], int(nonzero[k].sum()),
                                   np.random.default_rng(self.fill_seed))
        Vt = np.ascontiguousarray(np.transpose(V_sorted, (0, 2, 1)))
        return U, S, Vt

    def count_sweeps(self, matrices: Union[np.ndarray, Sequence[np.ndarray]]
                     ) -> np.ndarray:
        """Per-matrix sweeps to convergence of ``matrices`` (a ``(B, n,
        m)`` stack or sequence; V still accumulated, as the real
        algorithm would) — the SVD ensemble-bench primitive."""
        return self.solve(matrices).sweeps
