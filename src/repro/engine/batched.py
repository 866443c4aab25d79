"""Batched multi-matrix one-sided Jacobi engine.

The repo's dominant workload is Monte-Carlo ensembles: Table 2 and the
convergence studies push 30 independent random matrices per ``(m, P)``
configuration through :class:`~repro.jacobi.parallel.ParallelOneSidedJacobi`
one at a time.  Every kernel in :mod:`repro.jacobi.rotations` is already
vectorised over disjoint pairs, so the natural next axis is the *matrix*
axis: :class:`BatchedOneSidedJacobi` stacks a list of same-shape matrices
on a leading batch dimension and executes one shared
:class:`~repro.orderings.sweep.SweepSchedule` across the whole batch,
turning thousands of tiny NumPy calls into a handful of large ones.

Two backends implement the batch:

* ``_SplitBackend`` (balanced block distributions — every paper
  configuration) stores the stationary and moving column blocks of all
  nodes as two contiguous ``(B, V, b, W)`` planes *in transposed layout*:
  each row is one column of the iterate followed by the matching column
  of ``U`` (``W = 2m``; ``W = m`` without eigenvectors), so one set of
  in-place ufunc calls through preallocated buffers rotates both.  The
  moving plane is kept rolled by the round index, which makes a
  cross-block pairing round a row-for-row rotation of the two planes
  followed by one roll-by-one copy — no gather/scatter indexing at all —
  and a block transition a pair of slice swaps.  This is what delivers
  the engine's speedup: the sequential path spends most of its time in
  fancy-indexed column gathers and scatters.
* ``_IndexedBackend`` (uneven blocks) drives the same index rounds as
  the sequential solver through the batched
  :func:`~repro.jacobi.rotations.rotate_pairs`.

Convergence is judged per matrix at sweep boundaries (exactly like the
sequential loop); matrices that have converged stop rotating while the
rest of the batch continues.  The engine realises this by *compacting*
the batch between sweeps — a converged matrix's columns are extracted
into the result and the planes shrink — so trailing sweeps don't pay
for already-finished matrices, and the survivors' columns are left
bit-for-bit untouched.

Bit-identical by construction
-----------------------------
The batched engine is not an approximation of the sequential solver — it
is the *same arithmetic*:

* the pairing rounds are the identical
  :func:`~repro.jacobi.blocks.cross_block_rounds` /
  :func:`~repro.jacobi.blocks.round_robin_rounds` coverage, only
  realised as rolls instead of index gathers;
* every dot-product reduction runs over the unit-stride ``[..., :m]``
  view of the iterate's columns, in the same order as the sequential
  kernel's gathered operands (NumPy's einsum picks its inner kernel by
  operand stride, so the transposed layout reproduces the sequential
  path's unit-stride reduction bit for bit — the equivalence tests pin
  this);
* the rotation updates are the same elementwise expressions
  (``c*x - s*y`` / ``s*x + c*y``), evaluated in place on the ``A`` and
  ``U`` halves at once, and the roll copies move bits unchanged;
* convergence is judged per matrix by the very same
  :func:`~repro.jacobi.convergence.offdiag_measure` call on a C-ordered
  2-D slice.

Consequently eigenvalues, eigenvectors, sweep counts, defect histories
and rotation statistics match the sequential path bit for bit — the
equivalence tests (``tests/test_engine_batched.py``) assert exactly
that.

The engine reports no per-matrix communication trace: the simulated
machine runs the batch in lockstep, so the communication story is the
sequential solver's (one trace per sweep count), not one per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import ConvergenceError, SimulationError
from ..jacobi.blocks import (
    BlockDistribution,
    intra_block_rounds,
    pairing_step_rounds,
    round_robin_rounds,
)
from ..jacobi.convergence import (
    DEFAULT_TOL,
    extract_eigenpairs,
    offdiag_measure,
)
from ..jacobi.rotations import (
    DEFAULT_PAIR_TOL,
    RotationStats,
    rotate_pairs,
    rotation_angles,
)
from ..orderings.base import JacobiOrdering
from ..orderings.sweep import SweepSchedule, TransitionKind
from ..orderings.validate import apply_transition, default_layout
from .cache import GLOBAL_SCHEDULE_CACHE, ScheduleCache

__all__ = ["BatchedResult", "BatchedOneSidedJacobi", "stack_matrices",
           "run_batched_sweeps"]


def stack_matrices(matrices: Union[np.ndarray, Sequence[np.ndarray]]
                   ) -> np.ndarray:
    """Stack a sequence of same-shape square matrices into ``(B, m, m)``.

    Accepts an already-stacked 3-D array (returned as float64, copied only
    if a cast is needed) or any sequence of 2-D arrays.
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
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise SimulationError(
            f"batch of square matrices expected, got shape {A.shape}")
    if A.shape[0] == 0:
        raise SimulationError("cannot solve an empty batch")
    return A


@dataclass
class BatchedResult:
    """Outcome of a batched eigensolve.

    Attributes
    ----------
    eigenvalues:
        ``(B, m)`` ascending eigenvalues per matrix (bit-identical to the
        sequential solver's).
    eigenvectors:
        ``(B, m, m)`` eigenvector columns per matrix (``(B, m, 0)`` when
        eigenvector accumulation was disabled).
    sweeps:
        ``(B,)`` sweeps each matrix needed until convergence.
    converged:
        ``(B,)`` whether each matrix met the tolerance in budget.
    off_history:
        Per-matrix orthogonality defect after each of *its* sweeps (inner
        list lengths equal the per-matrix sweep counts).
    stats:
        Rotation work, summed over the batch; identical to summing the
        sequential per-matrix stats.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
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


# ----------------------------------------------------------------------
class _IndexedBackend:
    """Generic batch backend: canonical column layout + index rounds.

    Consumes exactly the rounds of
    :func:`~repro.jacobi.blocks.pairing_step_rounds` /
    :func:`~repro.jacobi.blocks.intra_block_rounds` through the batched
    :func:`~repro.jacobi.rotations.rotate_pairs`.  Handles every block
    distribution, including uneven ones, and rectangular ``(B, n, m)``
    iterates (the batched SVD engine drives tall iterates through the
    very same rounds; the accumulated transformation is always the
    ``m x m`` of the column space).
    """

    def __init__(self, A0: np.ndarray, d: int,
                 compute_eigenvectors: bool) -> None:
        num, m = A0.shape[0], A0.shape[2]
        self.dist = BlockDistribution(m=m, d=d)
        self.A = A0.copy()
        if compute_eigenvectors:
            self.U: Optional[np.ndarray] = np.broadcast_to(
                np.eye(m), (num, m, m)).copy()
        else:
            self.U = None
        self.layout = default_layout(d)

    def run_sweep(self, schedule: SweepSchedule,
                  stats: RotationStats) -> None:
        A, U, dist = self.A, self.U, self.dist
        for ii, jj in intra_block_rounds(dist):
            stats.merge(rotate_pairs(A, U, ii, jj))
        if schedule.d == 0:
            for ii, jj in pairing_step_rounds(dist, self.layout):
                stats.merge(rotate_pairs(A, U, ii, jj))
            return
        for t in schedule:
            for ii, jj in pairing_step_rounds(dist, self.layout):
                stats.merge(rotate_pairs(A, U, ii, jj))
            self.layout = apply_transition(self.layout, t.link, t.kind)

    def canonical(self) -> np.ndarray:
        """The iterate in canonical column order, C-contiguous per slice."""
        return self.A

    def extract_u(self, positions: np.ndarray) -> Optional[np.ndarray]:
        """Canonical accumulated transformations of given batch positions."""
        return None if self.U is None else self.U[positions]

    def compact(self, keep: np.ndarray) -> None:
        """Shrink the batch to the matrices flagged in ``keep``."""
        self.A = np.ascontiguousarray(self.A[keep])
        if self.U is not None:
            self.U = np.ascontiguousarray(self.U[keep])


class _SplitBackend:
    """Fast batch backend for balanced distributions: one plane per slot.

    Stores the machine's stationary and moving blocks as two contiguous
    planes of shape ``(B, V, b, W)``.  Row ``plane[:, v, i]`` is column
    ``i`` of the block resident at node ``v`` in that slot, stored as a
    contiguous row (transposed layout) and followed by the matching
    column of the accumulated transformation: ``[A column | U column]``,
    so ``W = 2m`` (``W = m`` without eigenvectors) and one set of ufunc
    calls rotates A and U together.  With every block the same size:

    * a cross-block pairing round ``t`` pairs stationary column ``i``
      with moving column ``(i + t) % b``.  The moving plane is stored
      *rolled by the round index*, so round ``t`` rotates row ``i``
      against row ``i`` and ends with one roll-by-one copy; after the
      ``b`` rounds of a pairing step it is back in block order;
    * a transition moves whole half-planes between subcubes — two slice
      swaps;
    * the intra-block round-robin rounds gather contiguous rows.

    A round copies its cosines and sines once into plane-shaped buffers
    shared by the A and U halves, so every update ufunc runs over
    contiguous operands.  The dot products reduce over the ``[..., :m]``
    view, whose unit-stride last axis makes NumPy's einsum use the same
    inner kernel (same summation order) as the sequential solver's
    gathered column pairs — the root of the engine's bit-for-bit
    equivalence.
    """

    def __init__(self, A0: np.ndarray, d: int,
                 compute_eigenvectors: bool) -> None:
        num, m = A0.shape[0], A0.shape[1]
        self.dist = BlockDistribution(m=m, d=d)
        if not self.dist.is_balanced:
            raise SimulationError("_SplitBackend requires balanced blocks")
        self.num, self.m = num, m
        self.V = 1 << d
        self.b = m // self.dist.num_blocks
        self.W = 2 * m if compute_eigenvectors else m
        XT = np.empty((num, m, self.W))
        XT[:, :, :m] = np.transpose(A0, (0, 2, 1))
        if compute_eigenvectors:
            XT[:, :, m:] = np.eye(m)
        view = XT.reshape(num, self.V, 2, self.b, self.W)
        self.stat = np.ascontiguousarray(view[:, :, 0])
        self.mov = np.ascontiguousarray(view[:, :, 1])
        self.layout = default_layout(d)
        self._alloc_buffers()

    def _alloc_buffers(self) -> None:
        shape = self.stat.shape
        self._t1, self._t2, self._c, self._s = (
            np.empty(shape) for _ in range(4))

    # ------------------------------------------------------------------
    def _rotate_chunk_rows(self, plane: np.ndarray, li: np.ndarray,
                           ri: np.ndarray, stats: RotationStats) -> None:
        """Rotate row pairs ``(li[k], ri[k])`` within every chunk of one
        plane (the intra-block pairing rounds)."""
        if li.size == 0:
            return
        m = self.m
        Ai = plane[:, :, li, :]
        Aj = plane[:, :, ri, :]
        x, y = Ai[..., :m], Aj[..., :m]
        a = np.einsum("bvkm,bvkm->bvk", x, x)
        b_ = np.einsum("bvkm,bvkm->bvk", y, y)
        g = np.einsum("bvkm,bvkm->bvk", x, y)
        c, s, applied = rotation_angles(a, b_, g, DEFAULT_PAIR_TOL)
        stats.merge(RotationStats(
            pairs_seen=int(li.size) * self.V * self.num,
            rotations_applied=int(applied.sum())))
        if not applied.any():
            return
        cb = c[..., None]
        sb = s[..., None]
        plane[:, :, li, :] = cb * Ai - sb * Aj
        plane[:, :, ri, :] = sb * Ai + cb * Aj

    def _cross_round(self, stats: RotationStats) -> None:
        """One round of a pairing step: stationary row ``i`` against
        moving row ``i`` at every node, which in round ``t`` holds moving
        column ``(i + t) % b`` (the balanced
        :func:`~repro.jacobi.blocks.cross_block_rounds` coverage).

        In-place ``L' = c L - s R`` and ``R' = s L + c R`` — the same
        elementwise expressions as
        :func:`~repro.jacobi.rotations.rotate_pairs` — then ``R'`` is
        stored rolled by one row for the next round.
        """
        L, R, m = self.stat, self.mov, self.m
        x, y = L[..., :m], R[..., :m]
        a = np.einsum("bvcm,bvcm->bvc", x, x)
        b_ = np.einsum("bvcm,bvcm->bvc", y, y)
        g = np.einsum("bvcm,bvcm->bvc", x, y)
        c, s, applied = rotation_angles(a, b_, g, DEFAULT_PAIR_TOL)
        stats.merge(RotationStats(
            pairs_seen=self.V * self.b * self.num,
            rotations_applied=int(applied.sum())))
        if not applied.any():
            # Nothing rotates, but the moving plane still advances.
            self.mov = np.roll(R, -1, axis=2)
            return
        T1, T2, C, S = self._t1, self._t2, self._c, self._s
        np.copyto(C, c[..., None])
        np.copyto(S, s[..., None])
        np.multiply(S, L, out=T1)        # s * L      (old L)
        np.multiply(L, C, out=L)         # c * L
        np.multiply(C, R, out=T2)        # c * R
        np.multiply(S, R, out=R)         # s * R
        np.subtract(L, R, out=L)         # L' = c L - s R
        np.add(T1, T2, out=T1)           # R' = s L + c R
        # R' rolled by one row: row i meets moving column (i + t + 1) % b.
        R[:, :, :-1] = T1[:, :, 1:]
        R[:, :, -1] = T1[:, :, 0]

    def _transition(self, link: int, kind: TransitionKind) -> None:
        """Physically move half-planes so that the (stationary, moving)
        plane invariant survives the transition; the logical block ids
        follow via :func:`~repro.orderings.validate.apply_transition`."""
        self.layout = apply_transition(self.layout, link, kind)
        num, V, b, W = self.stat.shape
        low = 1 << link
        shape = (num, V >> (link + 1), 2, low, b, W)
        Sg = self.stat.reshape(shape)
        Mg = self.mov.reshape(shape)
        if kind in (TransitionKind.EXCHANGE, TransitionKind.LAST):
            tmp = Mg[:, :, 0].copy()
            Mg[:, :, 0] = Mg[:, :, 1]
            Mg[:, :, 1] = tmp
        elif kind is TransitionKind.DIVISION:
            # lower nodes' moving slot <- upper partners' stationary
            # block; upper nodes' stationary slot <- lower partners'
            # moving block (the recursive split).
            tmp = Mg[:, :, 0].copy()
            Mg[:, :, 0] = Sg[:, :, 1]
            Sg[:, :, 1] = tmp
        else:  # pragma: no cover - exhaustive enum
            raise SimulationError(f"unknown transition kind {kind!r}")

    # ------------------------------------------------------------------
    def run_sweep(self, schedule: SweepSchedule,
                  stats: RotationStats) -> None:
        for li, ri in round_robin_rounds(self.b):
            self._rotate_chunk_rows(self.stat, li, ri, stats)
            self._rotate_chunk_rows(self.mov, li, ri, stats)
        if schedule.d == 0:
            for _ in range(self.b):
                self._cross_round(stats)
            return
        for tr in schedule:
            for _ in range(self.b):
                self._cross_round(stats)
            self._transition(tr.link, tr.kind)

    def _gather_canonical(self, stat: np.ndarray, mov: np.ndarray,
                          cols: slice) -> np.ndarray:
        num, b, m = stat.shape[0], self.b, self.m
        XT = np.empty((num, m, m))
        for v in range(self.V):
            for slot, plane in ((0, stat), (1, mov)):
                blk = int(self.layout[v, slot])
                XT[:, blk * b:(blk + 1) * b, :] = plane[:, v, :, cols]
        return np.ascontiguousarray(np.transpose(XT, (0, 2, 1)))

    def canonical(self) -> np.ndarray:
        """The iterate in canonical column order, C-contiguous per slice."""
        return self._gather_canonical(self.stat, self.mov,
                                      slice(None, self.m))

    def extract_u(self, positions: np.ndarray) -> Optional[np.ndarray]:
        """Canonical accumulated transformations of given batch positions."""
        if self.W == self.m:
            return None
        # Gather only the requested matrices: extraction happens at every
        # sweep boundary where something converges, and usually for a
        # small fraction of the surviving batch.
        return self._gather_canonical(self.stat[positions],
                                      self.mov[positions],
                                      slice(self.m, None))

    def compact(self, keep: np.ndarray) -> None:
        """Shrink the batch to the matrices flagged in ``keep``."""
        self.stat = np.ascontiguousarray(self.stat[keep])
        self.mov = np.ascontiguousarray(self.mov[keep])
        self.num = self.stat.shape[0]
        self._alloc_buffers()


# ----------------------------------------------------------------------
def run_batched_sweeps(A0, make_backend, get_schedule, extract_transform,
                       tol, max_sweeps, with_transform, stats,
                       raise_on_no_convergence):
    """The shared per-matrix convergence/compaction driver of the
    batched engines (eigen and SVD).

    Runs ``max_sweeps`` schedule-shared sweeps over the batch, judging
    convergence per matrix at sweep boundaries exactly like the
    sequential loops: matrices already converged at entry finish at
    sweep 0, converged matrices are extracted into the result and the
    batch *compacts* so survivors stop paying for them, and an exhausted
    budget extracts everything with per-matrix ``converged`` flags.
    Keeping this loop in one place is what keeps the two engines'
    bit-identity contracts from drifting apart.

    Parameters
    ----------
    A0:
        ``(B, n, m)`` stacked iterates (``n == m`` for the eigenpath).
    make_backend:
        ``(B', n, m) array -> backend`` with the ``run_sweep`` /
        ``canonical`` / ``compact`` protocol.
    get_schedule:
        ``sweep_index -> schedule`` (``None`` for schedule-free
        backends).
    extract_transform:
        ``(backend, positions) -> (len(positions), m, m) array or None``
        — the accumulated transformations of the given batch positions.
    tol, max_sweeps:
        Per-matrix convergence tolerance and sweep budget.
    with_transform:
        Whether the accumulated transformation is tracked (identity for
        matrices converged at entry).
    stats:
        :class:`~repro.jacobi.rotations.RotationStats` accumulator.
    raise_on_no_convergence:
        Raise :class:`~repro.errors.ConvergenceError` if any matrix
        exhausts the budget (otherwise the miss is data in the
        ``converged`` flags).

    Returns
    -------
    (final_A, final_T, sweeps, converged, off_history)
        Canonical iterates, accumulated transformations (``None`` when
        ``with_transform`` is false), per-matrix sweep counts,
        convergence flags and defect histories.
    """
    num, m = A0.shape[0], A0.shape[2]
    sweeps = np.zeros(num, dtype=np.int64)
    converged = np.ones(num, dtype=bool)
    off_history: List[List[float]] = [[] for _ in range(num)]
    # NaN-filled, so a slot the loop below never wrote is detectable.
    final_A = np.full_like(A0, np.nan)
    final_T = np.full((num, m, m), np.nan) if with_transform else None
    # Matrices already orthogonal at entry converge at sweep 0, like
    # the sequential solvers' pre-loop check.  A non-finite defect is
    # not converged: that matrix sweeps to the budget, as it does there.
    at_entry = np.array([offdiag_measure(A0[k])
                         for k in range(num)]) <= tol
    alive = np.flatnonzero(~at_entry)
    for k in np.flatnonzero(at_entry):
        final_A[k] = A0[k]
        if final_T is not None:
            final_T[k] = np.eye(m)
    backend = make_backend(A0[alive]) if alive.size else None
    sweep_index = 0
    while alive.size and sweep_index < max_sweeps:
        schedule = get_schedule(sweep_index)
        backend.run_sweep(schedule, stats)
        sweep_index += 1
        Acan = backend.canonical()
        offs = np.array([offdiag_measure(Acan[p])
                         for p in range(alive.size)])
        for pos, k in enumerate(alive):
            off_history[k].append(float(offs[pos]))
            sweeps[k] += 1
        done = offs <= tol
        out_of_budget = sweep_index >= max_sweeps
        if done.any() or out_of_budget:
            take = (np.arange(alive.size) if out_of_budget
                    else np.flatnonzero(done))
            Tcan = extract_transform(backend, take)
            for idx, pos in enumerate(take):
                k = int(alive[pos])
                final_A[k] = Acan[pos]
                if final_T is not None:
                    final_T[k] = Tcan[idx]
            if out_of_budget:
                converged[alive[~done]] = False
            alive = alive[~done]
            if alive.size and not out_of_budget:
                backend.compact(~done)
    if not converged.all() and raise_on_no_convergence:
        bad = np.flatnonzero(~converged)
        worst = max(off_history[k][-1] for k in bad)
        raise ConvergenceError(
            f"{bad.size} of {num} matrices did not converge in "
            f"{max_sweeps} sweeps (indices {bad.tolist()[:8]}, "
            f"worst defect {worst:.3e})",
            sweeps=max_sweeps, off_norm=worst)
    return final_A, final_T, sweeps, converged, off_history


# ----------------------------------------------------------------------
class BatchedOneSidedJacobi:
    """One-sided Jacobi over a stack of matrices, one shared schedule.

    Parameters
    ----------
    ordering:
        The Jacobi ordering (fixes ``d`` and the sweep schedules, shared
        by the whole batch).
    tol:
        Scaled-orthogonality stopping tolerance, judged per matrix.
    max_sweeps:
        Sweep budget per matrix.
    cache:
        Schedule memo; defaults to the process-level
        :data:`~repro.engine.cache.GLOBAL_SCHEDULE_CACHE`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.orderings import get_ordering
    >>> from repro.jacobi import make_symmetric_test_matrix
    >>> mats = [make_symmetric_test_matrix(16, rng=k) for k in range(4)]
    >>> engine = BatchedOneSidedJacobi(get_ordering("degree4", 2))
    >>> res = engine.solve(mats)
    >>> bool(np.allclose(res.eigenvalues[0], np.linalg.eigh(mats[0])[0]))
    True
    """

    def __init__(self, ordering: JacobiOrdering,
                 tol: float = DEFAULT_TOL,
                 max_sweeps: int = 60,
                 cache: Optional[ScheduleCache] = None) -> None:
        self.ordering = ordering
        self.tol = float(tol)
        self.max_sweeps = int(max_sweeps)
        if self.max_sweeps < 1:
            raise ConvergenceError("max_sweeps must be >= 1")
        self.cache = cache if cache is not None else GLOBAL_SCHEDULE_CACHE

    def solve(self, matrices: Union[np.ndarray, Sequence[np.ndarray]],
              compute_eigenvectors: bool = True,
              raise_on_no_convergence: bool = True) -> BatchedResult:
        """Eigen-decompose a batch of symmetric matrices.

        Parameters
        ----------
        matrices:
            ``(B, m, m)`` stack or sequence of ``B`` symmetric ``(m, m)``
            matrices with ``m >= 2**(d+1)``.
        compute_eigenvectors:
            Accumulate ``U`` for every matrix of the batch.
        raise_on_no_convergence:
            Raise if any matrix fails to converge within the budget.
        """
        A0 = stack_matrices(matrices)
        num, m = A0.shape[0], A0.shape[1]
        for k in range(num):
            Ak = A0[k]
            if not np.allclose(Ak, Ak.T,
                               atol=1e-12 * max(1.0, np.abs(Ak).max())):
                raise SimulationError(
                    f"one-sided Jacobi requires symmetric matrices "
                    f"(batch item {k} is not)")
        d = self.ordering.d
        dist = BlockDistribution(m=m, d=d)
        backend_cls = _SplitBackend if dist.is_balanced else _IndexedBackend
        stats = RotationStats()
        final_A, final_U, sweeps, converged, off_history = \
            run_batched_sweeps(
                A0,
                lambda stack: backend_cls(stack, d, compute_eigenvectors),
                lambda sweep: self.cache.get_schedule(self.ordering,
                                                      sweep=sweep),
                lambda backend, take: backend.extract_u(take),
                self.tol, self.max_sweeps, compute_eigenvectors, stats,
                raise_on_no_convergence)
        lam = np.empty((num, m))
        if final_U is None:
            for k in range(num):
                lam[k] = np.sort(np.sqrt(
                    np.einsum("ij,ij->j", final_A[k], final_A[k])))
            vec = np.empty((num, m, 0))
        else:
            vec = np.empty((num, m, m))
            for k in range(num):
                # Same per-matrix extraction call as the sequential path,
                # on the same C-ordered 2-D data — bit-identical pairs.
                lam[k], vec[k] = extract_eigenpairs(final_A[k], final_U[k])
        return BatchedResult(eigenvalues=lam, eigenvectors=vec,
                             sweeps=sweeps, converged=converged,
                             off_history=off_history, stats=stats)

    def count_sweeps(self, matrices: Union[np.ndarray, Sequence[np.ndarray]]
                     ) -> np.ndarray:
        """Per-matrix sweeps to convergence of ``matrices`` (a ``(B, m,
        m)`` stack or sequence) — the batched Table-2 primitive.

        The rotation angles and the convergence check read the iterate
        alone, so the sweep counts are those of :meth:`solve` with
        eigenvectors; they are counted without accumulating any.
        """
        return self.solve(matrices, compute_eigenvectors=False).sweeps
