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

Every backend stores the batch in one row layout: one row per column,
``[iterate column (n) | transform column (m)]`` (``W = n + m``; ``W = n``
without the transformation), built by :func:`_rows`.  Index rounds go
through one row kernel, :func:`_rotate_rows`, which reduces over the
iterate half ``[..., :n]`` and updates both halves with one set of
ufunc calls.  The eigen engine (``n == m``) and the SVD engine
(:mod:`repro.engine.svd`, ``n >= m``) share the two backends, and
:func:`_make_backend` chooses between them for both:

* ``_SplitBackend`` (an ordering over balanced block distributions —
  every paper configuration) stores the stationary and moving column
  blocks of all nodes as two contiguous ``(B, V, b, W)`` planes.  The
  moving plane is kept rolled by the round index, which makes a
  cross-block pairing round a row-for-row rotation of the two planes,
  in place through preallocated buffers, followed by one roll-by-one
  copy — no gather/scatter indexing at all — and a block transition a
  pair of slice swaps.  This is what delivers the engine's speedup: the
  sequential path spends most of its time in fancy-indexed column
  gathers and scatters.
* ``_IndexedBackend`` (uneven blocks, and the SVD engine's sequential
  circle) keeps one canonical-order ``(B, 1, m, W)`` plane and drives
  the sequential solver's own index rounds through the row kernel.

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
  :func:`~repro.jacobi.blocks.round_robin_rounds` coverage — the
  indexed backend consumes the sequential solver's very index rounds,
  the split backend realises the cross rounds as rolls;
* every dot-product reduction runs over the unit-stride ``[..., :n]``
  view of a row's iterate half, in the same order as the sequential
  kernel's gathered operands (NumPy's einsum picks its inner kernel by
  operand stride, and a gathered ``A[:, idx]`` is itself a transposed
  view of contiguous rows, so the row layout reproduces the sequential
  path's unit-stride reduction bit for bit — the equivalence tests pin
  this, and ``TestBatchedRotatePairs`` pins the row kernel itself);
* the rotation updates are the same elementwise expressions
  (``c*x - s*y`` / ``s*x + c*y``), evaluated on the iterate and
  transform halves at once, and the roll copies move bits unchanged;
* convergence is judged per matrix by the very same
  :func:`~repro.jacobi.convergence.offdiag_measure` call on a C-ordered
  2-D slice.

Consequently eigenvalues, eigenvectors, sweep counts, defect histories
and rotation statistics match the sequential path bit for bit — the
equivalence tests (``tests/test_engine_batched.py`` and
``tests/test_svd_differential.py``) assert exactly that.

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
def _rows(A0: np.ndarray, with_transform: bool) -> np.ndarray:
    """The ``(B, m, W)`` rows of a ``(B, n, m)`` stack: row ``j`` is
    column ``j`` of the iterate followed by column ``j`` of the
    accumulated transformation, which starts as the identity
    (``W = n + m``; ``W = n`` without the transformation)."""
    num, n, m = A0.shape
    rows = np.empty((num, m, n + m if with_transform else n))
    rows[:, :, :n] = np.transpose(A0, (0, 2, 1))
    if with_transform:
        rows[:, :, n:] = np.eye(m)
    return rows


def _row_angles(x: np.ndarray, y: np.ndarray, stats: RotationStats):
    """Rotation angles of the row pairs ``(x[..., k, :], y[..., k, :])``
    of two ``(B, V, k, n)`` iterate views, counted into ``stats``."""
    a = np.einsum("bvkn,bvkn->bvk", x, x)
    b = np.einsum("bvkn,bvkn->bvk", y, y)
    g = np.einsum("bvkn,bvkn->bvk", x, y)
    c, s, applied = rotation_angles(a, b, g, DEFAULT_PAIR_TOL)
    stats.merge(RotationStats(pairs_seen=a.size,
                              rotations_applied=int(applied.sum())))
    return c, s, applied


def _rotate_rows(plane: np.ndarray, li: np.ndarray, ri: np.ndarray,
                 n: int, stats: RotationStats) -> None:
    """Rotate row pairs ``(li[k], ri[k])`` within every chunk of a
    ``(B, V, rows, W)`` plane, reducing over the iterate half
    ``[..., :n]`` — the index rounds of every batch backend."""
    if li.size == 0:
        return
    Ai = plane[:, :, li, :]
    Aj = plane[:, :, ri, :]
    c, s, applied = _row_angles(Ai[..., :n], Aj[..., :n], stats)
    if not applied.any():
        return
    # In place on the gathered copies: c*x - s*y and c*y + s*x are the
    # sequential kernel's expressions (IEEE products and sums commute).
    cb = c[..., None]
    sb = s[..., None]
    sx = sb * Ai
    Ai *= cb
    Ai -= sb * Aj
    Aj *= cb
    Aj += sx
    plane[:, :, li, :] = Ai
    plane[:, :, ri, :] = Aj


def _make_backend(A0: np.ndarray, d: Optional[int], with_transform: bool):
    """The one backend choice of both engines: split planes for an
    ordering over balanced blocks, otherwise one indexed row plane
    (uneven blocks, or ``d=None`` for the sequential circle)."""
    if d is not None and BlockDistribution(m=A0.shape[2], d=d).is_balanced:
        return _SplitBackend(A0, d, with_transform)
    return _IndexedBackend(A0, d, with_transform)


class _IndexedBackend:
    """Generic batch backend: one canonical-order row plane, index rounds.

    Stores the batch as a single ``(B, 1, m, W)`` plane of
    ``[iterate column | transform column]`` rows in canonical column
    order and rotates it through :func:`_rotate_rows` with exactly the
    sequential solvers' index rounds:

    * with an ordering (``d`` given), the
      :func:`~repro.jacobi.blocks.intra_block_rounds` and
      :func:`~repro.jacobi.blocks.pairing_step_rounds` of
      :class:`~repro.jacobi.parallel.ParallelOneSidedJacobi` and
      :func:`~repro.jacobi.svd.parallel_svd` — every block distribution,
      uneven ones included;
    * with ``d=None``, the full circle
      :func:`~repro.jacobi.blocks.round_robin_rounds` over all ``m``
      columns of :func:`~repro.jacobi.svd.onesided_svd`.
    """

    def __init__(self, A0: np.ndarray, d: Optional[int],
                 with_transform: bool) -> None:
        self.n, m = A0.shape[1], A0.shape[2]
        self.plane = _rows(A0, with_transform)[:, None]
        if d is None:
            # The circle is the round robin of one block of all m columns.
            self.dist = None
            self._intra = round_robin_rounds(m)
        else:
            self.dist = BlockDistribution(m=m, d=d)
            self._intra = intra_block_rounds(self.dist)
            self.layout = default_layout(d)

    def _rotate(self, rounds, stats: RotationStats) -> None:
        for li, ri in rounds:
            _rotate_rows(self.plane, li, ri, self.n, stats)

    def run_sweep(self, schedule: Optional[SweepSchedule],
                  stats: RotationStats) -> None:
        self._rotate(self._intra, stats)
        if self.dist is None:
            return
        if schedule.d == 0:
            # Single node, two blocks: one pairing step, no transitions.
            self._rotate(pairing_step_rounds(self.dist, self.layout), stats)
            return
        for t in schedule:
            self._rotate(pairing_step_rounds(self.dist, self.layout), stats)
            self.layout = apply_transition(self.layout, t.link, t.kind)

    def _gather(self, plane: np.ndarray, cols: slice) -> np.ndarray:
        return np.ascontiguousarray(
            np.transpose(plane[:, 0, :, cols], (0, 2, 1)))

    def canonical(self) -> np.ndarray:
        """The iterate in canonical column order, C-contiguous per slice."""
        return self._gather(self.plane, slice(None, self.n))

    def extract_u(self, positions: np.ndarray) -> Optional[np.ndarray]:
        """Canonical accumulated transformations of given batch positions."""
        if self.plane.shape[3] == self.n:
            return None
        return self._gather(self.plane[positions], slice(self.n, None))

    def compact(self, keep: np.ndarray) -> None:
        """Shrink the batch to the matrices flagged in ``keep``."""
        self.plane = np.ascontiguousarray(self.plane[keep])


class _SplitBackend:
    """Fast batch backend for balanced distributions: one plane per slot.

    Stores the machine's stationary and moving blocks as two contiguous
    planes of shape ``(B, V, b, W)``.  Row ``plane[:, v, i]`` is column
    ``i`` of the block resident at node ``v`` in that slot, in the
    shared ``[iterate column | transform column]`` row layout (see
    :func:`_rows`), so one set of ufunc calls rotates both halves.  With
    every block the same size:

    * a cross-block pairing round ``t`` pairs stationary column ``i``
      with moving column ``(i + t) % b``.  The moving plane is stored
      *rolled by the round index*, so round ``t`` rotates row ``i``
      against row ``i`` and ends with one roll-by-one copy; after the
      ``b`` rounds of a pairing step it is back in block order;
    * a transition moves whole half-planes between subcubes — two slice
      swaps;
    * the intra-block round-robin rounds go through :func:`_rotate_rows`
      on each plane.

    A cross round copies its cosines and sines once into plane-shaped
    buffers shared by both halves, so every update ufunc runs over
    contiguous operands.
    """

    def __init__(self, A0: np.ndarray, d: int,
                 with_transform: bool) -> None:
        num, n, m = A0.shape
        self.dist = BlockDistribution(m=m, d=d)
        if not self.dist.is_balanced:
            raise SimulationError("_SplitBackend requires balanced blocks")
        self.n, self.m = n, m
        self.V = 1 << d
        self.b = m // self.dist.num_blocks
        rows = _rows(A0, with_transform)
        self.W = rows.shape[2]
        view = rows.reshape(num, self.V, 2, self.b, self.W)
        self.stat = np.ascontiguousarray(view[:, :, 0])
        self.mov = np.ascontiguousarray(view[:, :, 1])
        self._intra = round_robin_rounds(self.b)
        self.layout = default_layout(d)
        self._alloc_buffers()

    def _alloc_buffers(self) -> None:
        shape = self.stat.shape
        self._t1, self._t2, self._c, self._s = (
            np.empty(shape) for _ in range(4))

    # ------------------------------------------------------------------
    def _cross_round(self, stats: RotationStats) -> None:
        """One round of a pairing step: stationary row ``i`` against
        moving row ``i`` at every node, which in round ``t`` holds moving
        column ``(i + t) % b`` (the balanced
        :func:`~repro.jacobi.blocks.cross_block_rounds` coverage).

        In-place ``L' = c L - s R`` and ``R' = s L + c R`` — the same
        elementwise expressions as :func:`_rotate_rows` — then ``R'`` is
        stored rolled by one row for the next round.
        """
        L, R, n = self.stat, self.mov, self.n
        c, s, applied = _row_angles(L[..., :n], R[..., :n], stats)
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
        for li, ri in self._intra:
            _rotate_rows(self.stat, li, ri, self.n, stats)
            _rotate_rows(self.mov, li, ri, self.n, stats)
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
        b = self.b
        XT = np.empty((stat.shape[0], self.m, len(range(self.W)[cols])))
        for v in range(self.V):
            for slot, plane in ((0, stat), (1, mov)):
                blk = int(self.layout[v, slot])
                XT[:, blk * b:(blk + 1) * b, :] = plane[:, v, :, cols]
        return np.ascontiguousarray(np.transpose(XT, (0, 2, 1)))

    def canonical(self) -> np.ndarray:
        """The iterate in canonical column order, C-contiguous per slice."""
        return self._gather_canonical(self.stat, self.mov,
                                      slice(None, self.n))

    def extract_u(self, positions: np.ndarray) -> Optional[np.ndarray]:
        """Canonical accumulated transformations of given batch positions."""
        if self.W == self.n:
            return None
        # Gather only the requested matrices: extraction happens at every
        # sweep boundary where something converges, and usually for a
        # small fraction of the surviving batch.
        return self._gather_canonical(self.stat[positions],
                                      self.mov[positions],
                                      slice(self.n, None))

    def compact(self, keep: np.ndarray) -> None:
        """Shrink the batch to the matrices flagged in ``keep``."""
        self.stat = np.ascontiguousarray(self.stat[keep])
        self.mov = np.ascontiguousarray(self.mov[keep])
        self._alloc_buffers()


# ----------------------------------------------------------------------
def run_batched_sweeps(A0, ordering, cache, tol, max_sweeps,
                       with_transform, stats, raise_on_no_convergence):
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
    ordering:
        The :class:`~repro.orderings.base.JacobiOrdering` whose sweep
        schedules the batch shares, or ``None`` for the sequential
        round-robin circle over all ``m`` columns (the SVD engine's
        default mode).
    cache:
        :class:`~repro.engine.cache.ScheduleCache` the schedules come
        from.
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
    d = None if ordering is None else ordering.d
    if d is not None:
        BlockDistribution(m=m, d=d)  # validates the size
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
    backend = (_make_backend(A0[alive], d, with_transform) if alive.size
               else None)
    sweep_index = 0
    while alive.size and sweep_index < max_sweeps:
        schedule = (None if ordering is None
                    else cache.get_schedule(ordering, sweep=sweep_index))
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
            Tcan = backend.extract_u(take)
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
        stats = RotationStats()
        final_A, final_U, sweeps, converged, off_history = \
            run_batched_sweeps(A0, self.ordering, self.cache, self.tol,
                               self.max_sweeps, compute_eigenvectors,
                               stats, raise_on_no_convergence)
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
