"""The solve service's traffic classes, each declared once.

The paper's one-sided Jacobi method serves two problem classes here:
the symmetric eigenproblem under a hypercube ordering
(``kind="eigen"``) and the thin SVD of a tall or square matrix
(``kind="svd"``, round-robin one-sided Jacobi).  They differ only in
how a submission is admitted, the solver fields its flush adds, the
batched-engine call and the result arrays, and one
:class:`TrafficClass` entry of :data:`TRAFFIC_CLASSES` declares exactly
those.  The service's submit, dispatch and settle paths, the one worker
entry :func:`~repro.service.pool.solve_batch_remote` and the
shared-memory layout all read the entry of a request's kind instead of
branching on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..engine.batched import BatchedOneSidedJacobi
from ..engine.svd import BatchedOneSidedSVD
from ..errors import SimulationError
from ..jacobi.svd import SvdResult
from ..orderings.base import get_ordering

__all__ = ["KINDS", "TRAFFIC_CLASSES", "TrafficClass", "SolveResult"]


@dataclass(frozen=True)
class SolveResult:
    """Per-matrix outcome of eigen traffic handed back by the service.

    Attributes
    ----------
    eigenvalues:
        ``(m,)`` ascending eigenvalues.  When the service was built
        with ``compute_eigenvectors=False`` these are the ascending
        eigenvalue *magnitudes* ``|lambda|`` (the one-sided iterate's
        column norms — signs need the accumulated transformations; the
        sequential solver has the same contract).
    eigenvectors:
        ``(m, m)`` eigenvector columns (``(m, 0)`` when the service was
        built with ``compute_eigenvectors=False``).
    sweeps:
        Sweeps this matrix needed.
    converged:
        Whether the tolerance was met within the sweep budget.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int
    converged: bool


#: One result array: name, per-matrix shape in named dimensions, dtype.
_Array = Tuple[str, Tuple[str, ...], Any]


@dataclass(frozen=True)
class TrafficClass:
    """Everything that tells one traffic class apart from another.

    Attributes
    ----------
    result:
        The per-matrix result type a future resolves to; its fields are
        the names in :attr:`arrays`.
    admit:
        ``admit(service, A, ordering, d) -> (copy, key)``: validate one
        submission against the class (the matrix is copied, so queued
        work never aliases a caller's buffer) and return the copy with
        its micro-batch key, less the leading kind.  Raises
        :class:`~repro.errors.SimulationError` for invalid input.
    spec:
        ``spec(service, key) -> dict``: the solver fields a flush of
        ``key`` adds to its payload beyond the matrices, ``tol`` and
        ``max_sweeps``.
    solver:
        ``solver(payload) -> solve``: build the batched-engine call for
        a flush payload; ``solve(matrices)`` returns the engine's
        result, reporting a convergence miss per matrix, never raising
        it.
    arrays:
        The result arrays, each ``(name, dims, dtype)``: ``name`` is a
        field of both the engine result and :attr:`result`, and
        ``dims`` the per-matrix shape in named dimensions — ``"n"`` and
        ``"m"`` of an ``(n, m)`` input, and ``"vectors"``, which is
        ``m``, or 0 when the payload sets ``compute_eigenvectors`` off.
        An empty ``dims`` is one scalar per matrix.
    """

    result: type
    admit: Callable[..., Tuple[np.ndarray, Tuple[Any, ...]]]
    spec: Callable[[Any, Tuple[Any, ...]], Dict[str, Any]]
    solver: Callable[[Dict[str, Any]], Callable[[np.ndarray], Any]]
    arrays: Tuple[_Array, ...]

    def layout(self, payload: Dict[str, Any]
               ) -> Dict[str, Tuple[Tuple[int, ...], Any]]:
        """The result arrays one flush will produce: name -> (shape,
        dtype), knowable before the solve from the ``payload``'s
        stacked ``matrices`` (and its ``compute_eigenvectors`` flag) —
        which is what lets the shared-memory transport size one segment
        for a flush's inputs and outputs together."""
        num, n, m = payload["matrices"].shape
        dims = {"n": n, "m": m,
                "vectors": m if payload.get("compute_eigenvectors", True)
                else 0}
        return {name: ((num,) + tuple(dims[d] for d in shape), dtype)
                for name, shape, dtype in self.arrays}

    def member(self, out: Dict[str, Any], k: int) -> Any:
        """Matrix ``k``'s :attr:`result`, sliced out of a flush's result
        arrays ``out`` (per-matrix scalars become Python scalars)."""
        return self.result(**{
            name: out[name][k] if shape else out[name][k].item()
            for name, shape, _ in self.arrays})


# ----------------------------------------------------------------------
def _finite_copy(A: Any) -> np.ndarray:
    # Always copy: the matrix is held across an asynchronous boundary
    # (queued until a flush), so a caller reusing one buffer for
    # successive submits must not retroactively change queued work.
    try:
        A = np.asarray(A)
        # Casting would drop an imaginary part behind a mere warning.
        if A.dtype.kind == "c":
            raise SimulationError(
                "matrix is complex; the solvers are real-only")
        A = np.array(A, dtype=np.float64, copy=True)
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"matrix is not numeric: {exc}") from None
    # NaN or inf never converges: it would hold its whole batch for
    # the sweep budget before failing.
    if not np.isfinite(A).all():
        raise SimulationError("matrix has non-finite (NaN or inf) "
                              "entries")
    return A


def _admit_eigen(svc: Any, A: Any, ordering: Optional[str],
                 d: Optional[int]) -> Tuple[np.ndarray, Tuple[Any, ...]]:
    name = svc.ordering if ordering is None else str(ordering)
    dim = svc.d if d is None else int(d)
    get_ordering(name, dim)  # validate before queueing
    A = _finite_copy(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SimulationError(
            f"service expects one square matrix per submit, got "
            f"shape {A.shape}")
    m = A.shape[0]
    if m < (1 << (dim + 1)):
        raise SimulationError(
            f"matrix dimension {m} too small for a {dim}-cube "
            f"(need m >= {1 << (dim + 1)})")
    if not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise SimulationError(
            "one-sided Jacobi requires a symmetric matrix")
    return A, (m, name, dim)


def _admit_svd(svc: Any, A: Any, ordering: Optional[str],
               d: Optional[int]) -> Tuple[np.ndarray, Tuple[Any, ...]]:
    if ordering is not None or d is not None:
        raise SimulationError(
            "SVD traffic runs the sequential-equivalent round-robin "
            "engine; ordering/d do not apply")
    A = _finite_copy(A)
    if A.ndim != 2:
        raise SimulationError(
            f"service expects one matrix per submit, got shape "
            f"{A.shape}")
    if A.shape[0] < A.shape[1]:
        raise SimulationError(
            f"one-sided SVD expects n >= m (tall or square); got "
            f"{A.shape}; pass A.T and swap U/V for wide matrices")
    return A, A.shape


def _eigen_solver(payload: Dict[str, Any]) -> Callable[[np.ndarray], Any]:
    engine = BatchedOneSidedJacobi(
        get_ordering(payload["ordering"], payload["d"]),
        tol=payload["tol"], max_sweeps=payload["max_sweeps"])
    return functools.partial(
        engine.solve, compute_eigenvectors=payload["compute_eigenvectors"],
        raise_on_no_convergence=False)


def _svd_solver(payload: Dict[str, Any]) -> Callable[[np.ndarray], Any]:
    engine = BatchedOneSidedSVD(tol=payload["tol"],
                                max_sweeps=payload["max_sweeps"])
    return functools.partial(engine.solve, raise_on_no_convergence=False)


#: The per-matrix convergence report both classes end their results with.
_CONVERGENCE: Tuple[_Array, ...] = (("sweeps", (), np.int64),
                                    ("converged", (), np.bool_))

#: Traffic class name -> its :class:`TrafficClass` entry.
TRAFFIC_CLASSES: Dict[str, TrafficClass] = {
    # Symmetric matrices, solved by BatchedOneSidedJacobi under the
    # submission's ordering: bit-identical to ParallelOneSidedJacobi.
    "eigen": TrafficClass(
        result=SolveResult,
        admit=_admit_eigen,
        spec=lambda svc, key: {
            "ordering": key[2], "d": key[3],
            "compute_eigenvectors": svc.compute_eigenvectors},
        solver=_eigen_solver,
        arrays=(("eigenvalues", ("m",), np.float64),
                ("eigenvectors", ("m", "vectors"), np.float64))
        + _CONVERGENCE),
    # Tall or square matrices, solved by BatchedOneSidedSVD's
    # round-robin mode: bit-identical to onesided_svd.
    "svd": TrafficClass(
        result=SvdResult,
        admit=_admit_svd,
        spec=lambda svc, key: {},
        solver=_svd_solver,
        arrays=(("U", ("n", "m"), np.float64),
                ("S", ("m",), np.float64),
                ("Vt", ("m", "m"), np.float64))
        + _CONVERGENCE),
}

#: Traffic classes understood by
#: :meth:`~repro.service.api.JacobiService.submit`.
KINDS = tuple(TRAFFIC_CLASSES)
