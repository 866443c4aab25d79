"""Parallel one-sided Jacobi on a simulated multi-port hypercube.

:class:`ParallelOneSidedJacobi` executes the block algorithm of §2.3.1
exactly as a ``2**d``-node machine would — blocks of columns live at
nodes, pairing steps rotate column pairs across each node's two resident
blocks, transitions move blocks between link partners — while the actual
floating-point work is carried out in *globally vectorised* NumPy calls
(all nodes' disjoint rotations of a round in one :func:`rotate_pairs`).
A :class:`~repro.simulator.trace.CommunicationTrace` charges every
transition under the machine cost model, so the solver reports both the
numerical result and the simulated communication time.

The numerical result is bit-for-bit a valid one-sided Jacobi iteration
(every sweep zeroes each Gram off-diagonal exactly once; the ordering only
changes *in which order*), which is why Table 2's convergence comparison
across orderings is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..ccube.machine import MachineParams, PAPER_MACHINE
from ..errors import ConvergenceError, SimulationError
from ..orderings.base import JacobiOrdering
from ..orderings.sweep import SweepSchedule
from ..orderings.validate import apply_transition, default_layout
from ..simulator.trace import CommunicationTrace
from .blocks import BlockDistribution, intra_block_rounds, pairing_step_rounds
from .convergence import DEFAULT_TOL, extract_eigenpairs, offdiag_measure
from .rotations import RotationStats, rotate_pairs

__all__ = ["ParallelResult", "ParallelOneSidedJacobi"]


@dataclass
class ParallelResult:
    """Outcome of a simulated parallel eigensolve.

    Attributes
    ----------
    eigenvalues, eigenvectors:
        Ascending eigenpairs (comparable with ``numpy.linalg.eigh``).
    sweeps:
        Sweeps executed until convergence.
    converged:
        Whether the tolerance was met within the budget.
    off_history:
        Orthogonality defect after each sweep.
    trace:
        Communication record with simulated costs.
    stats:
        Rotation work counters.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int
    converged: bool
    off_history: List[float]
    trace: CommunicationTrace
    stats: RotationStats


class ParallelOneSidedJacobi:
    """Simulated-parallel one-sided Jacobi eigensolver.

    Parameters
    ----------
    ordering:
        The Jacobi ordering (fixes ``d`` and the sweep schedules).
    machine:
        Communication cost parameters (defaults to the paper's machine).
    tol:
        Scaled-orthogonality stopping tolerance.
    max_sweeps:
        Sweep budget.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.orderings import get_ordering
    >>> solver = ParallelOneSidedJacobi(get_ordering("degree4", 2))
    >>> A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    >>> res = solver.solve(A)
    >>> np.allclose(res.eigenvalues, np.arange(1.0, 9.0))
    True
    """

    def __init__(self, ordering: JacobiOrdering,
                 machine: MachineParams = PAPER_MACHINE,
                 tol: float = DEFAULT_TOL,
                 max_sweeps: int = 60) -> None:
        self.ordering = ordering
        self.machine = machine
        self.tol = float(tol)
        self.max_sweeps = int(max_sweeps)
        if self.max_sweeps < 1:
            raise ConvergenceError("max_sweeps must be >= 1")

    # ------------------------------------------------------------------
    def _pair_blocks(self, A: np.ndarray, U: Optional[np.ndarray],
                     dist: BlockDistribution, layout: np.ndarray,
                     stats: RotationStats) -> None:
        """One pairing step: every node rotates all pairs across its two
        resident blocks, in rounds of machine-wide disjoint pairs."""
        for ii, jj in pairing_step_rounds(dist, layout):
            stats.merge(rotate_pairs(A, U, ii, jj))

    def _pair_within_blocks(self, A: np.ndarray, U: Optional[np.ndarray],
                            dist: BlockDistribution,
                            stats: RotationStats) -> None:
        """The intra-block pairing performed once per sweep (step "1)" of
        the paper's algorithm) — no communication involved."""
        for ii, jj in intra_block_rounds(dist):
            stats.merge(rotate_pairs(A, U, ii, jj))

    # ------------------------------------------------------------------
    def run_sweep(self, A: np.ndarray, U: Optional[np.ndarray],
                  dist: BlockDistribution, layout: np.ndarray,
                  schedule: SweepSchedule, trace: CommunicationTrace,
                  stats: RotationStats) -> np.ndarray:
        """Execute one sweep; returns the updated block layout."""
        self._pair_within_blocks(A, U, dist, stats)
        if schedule.d == 0:
            # Single node, two blocks: one pairing step, no transitions.
            self._pair_blocks(A, U, dist, layout, stats)
            return layout
        # A transition ships one block of the iterate (rows = A.shape[0])
        # and, when accumulated, one block of U/V (rows = U.shape[0]).
        # For the symmetric eigenproblem both are m, giving the paper's
        # 2 * b * m; for the rectangular SVD iterate this prices the tall
        # block exactly.
        rows = A.shape[0] + (U.shape[0] if U is not None else 0)
        message_elems = float(dist.max_block_size) * rows
        for t in schedule:
            self._pair_blocks(A, U, dist, layout, stats)
            layout = apply_transition(layout, t.link, t.kind)
            trace.charge_transition(t.link, message_elems, t.kind.value,
                                    t.phase, schedule.sweep)
        return layout

    def solve(self, A0: np.ndarray,
              compute_eigenvectors: bool = True,
              raise_on_no_convergence: bool = True) -> ParallelResult:
        """Eigen-decompose a symmetric matrix on the simulated machine.

        Parameters
        ----------
        A0:
            Symmetric ``(m, m)`` matrix with ``m >= 2**(d+1)`` (at least
            one column per block).
        compute_eigenvectors:
            Accumulate ``U`` (adds the U-block traffic a real machine
            would also ship).
        raise_on_no_convergence:
            Raise instead of returning a non-converged result.
        """
        A0 = np.asarray(A0, dtype=np.float64)
        if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
            raise SimulationError(f"square matrix expected, got {A0.shape}")
        if not np.allclose(A0, A0.T,
                           atol=1e-12 * max(1.0, np.abs(A0).max())):
            raise SimulationError(
                "one-sided Jacobi requires a symmetric matrix")
        m = A0.shape[0]
        d = self.ordering.d
        dist = BlockDistribution(m=m, d=d)
        A = A0.copy()
        U = np.eye(m) if compute_eigenvectors else None
        layout = default_layout(d)
        trace = CommunicationTrace(machine=self.machine)
        stats = RotationStats()
        off_history: List[float] = []
        converged = offdiag_measure(A) <= self.tol
        sweeps = 0
        while not converged and sweeps < self.max_sweeps:
            schedule = self.ordering.sweep_schedule(sweep=sweeps)
            layout = self.run_sweep(A, U, dist, layout, schedule, trace,
                                    stats)
            sweeps += 1
            off = offdiag_measure(A)
            off_history.append(off)
            converged = off <= self.tol
        if not converged and raise_on_no_convergence:
            raise ConvergenceError(
                f"no convergence in {self.max_sweeps} sweeps "
                f"(defect {off_history[-1]:.3e})",
                sweeps=sweeps, off_norm=off_history[-1])
        if U is None:
            lam = np.sort(np.sqrt(np.einsum("ij,ij->j", A, A)))
            vec = np.empty((m, 0))
        else:
            lam, vec = extract_eigenpairs(A, U)
        return ParallelResult(eigenvalues=lam, eigenvectors=vec,
                              sweeps=sweeps, converged=converged,
                              off_history=off_history, trace=trace,
                              stats=stats)

    def count_sweeps(self, A0: np.ndarray) -> int:
        """Convenience for the Table-2 experiment: sweeps to convergence.

        The rotation angles and the convergence check read the iterate
        alone, so the count is that of :meth:`solve` with eigenvectors;
        it is taken without accumulating any.
        """
        return self.solve(A0, compute_eigenvectors=False).sweeps
