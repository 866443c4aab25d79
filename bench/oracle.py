"""Output checks: every result the benchmark receives is judged here.

The checks run after each timed phase, so they cost no timed work.

* An eigen result must have converged, be finite, have eigenvalues that
  agree with ``numpy.linalg.eigvalsh`` to ``1e-8 ||A||_F`` and a residual
  ``||A V - V diag(lam)||_F <= max(1e-8, tol * f) ||A||_F`` with
  ``f = max(m**1.5, ||A||_2 / g)``, where ``g`` is the smallest gap
  between the sorted ``|lam|``.  The bound follows the solver's stopping
  rule: it stops once the columns of ``A U`` are orthogonal to ``tol``,
  which leaves each of the ``m`` residuals up to about ``m tol ||A||``,
  and it orthogonalises columns, so it tells the eigenvectors of ``lam``
  and ``-lam'`` apart only as well as ``|lam|`` and ``|lam'|`` differ.
  A flat ``1e-8`` fails about one random 16x16 input in 3,500 at the
  service's ``tol = 1e-9``, on answers bit-identical to the sequential
  solver's (residuals up to 1.7e-6 where two ``|lam|`` differ by 1e-4;
  eigenvalues still exact to 1e-11).
* An SVD result must have converged, be finite, reconstruct ``A`` to
  ``1e-8 ||A||_F`` and have singular values that agree with
  ``numpy.linalg.svd``.
* Every :data:`TWIN_EVERY`-th judged request must also be bit-identical
  to its sequential twin (``ParallelOneSidedJacobi`` / ``onesided_svd``
  at the service's ``tol`` and sweep budget) — the service's contract.
* A non-finite probe passes when the program refuses it with a typed
  :class:`~repro.errors.ReproError` (at ``submit()`` or on the future) or
  reports ``converged=False``; any "converged" answer to a matrix holding
  NaN or inf is a failure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import ParallelOneSidedJacobi, get_ordering
from repro.errors import ReproError
from repro.jacobi import onesided_svd

#: Relative tolerance of the residual, reconstruction and spectrum checks.
RTOL = 1e-8

#: Every this-many-th judged request is compared with its sequential twin.
TWIN_EVERY = 50


def _finite(*arrays: np.ndarray) -> bool:
    return all(bool(np.isfinite(a).all()) for a in arrays)


def eigen_problem(A: np.ndarray, res: Any, tol: float) -> Optional[str]:
    """Why ``res`` is not a correct eigendecomposition of ``A`` by a
    solver stopping at ``tol`` (``None`` when it is)."""
    if not res.converged:
        return "eigen: not converged"
    lam, V = res.eigenvalues, res.eigenvectors
    if not _finite(lam, V):
        return "eigen: non-finite result"
    norm = np.linalg.norm(A)
    ref = np.linalg.eigvalsh(A)
    if np.abs(lam - ref).max() > RTOL * norm:
        return "eigen: eigenvalues disagree with numpy.linalg.eigvalsh"
    mags = np.sort(np.abs(ref))
    gap = np.diff(mags).min()
    factor = max(A.shape[0] ** 1.5,
                 mags[-1] / gap if gap > 0 else np.inf)
    residual = max(RTOL, factor * tol) * norm
    if V.shape[1] and np.linalg.norm(A @ V - V * lam) > residual:
        return "eigen: residual ||AV - V diag(lam)|| too large"
    return None


def svd_problem(A: np.ndarray, res: Any) -> Optional[str]:
    """Why ``res`` is not a correct thin SVD of ``A`` (``None`` when it
    is)."""
    if not res.converged:
        return "svd: not converged"
    if not _finite(res.U, res.S, res.Vt):
        return "svd: non-finite result"
    scale = RTOL * np.linalg.norm(A)
    if np.linalg.norm((res.U * res.S) @ res.Vt - A) > scale:
        return "svd: reconstruction U diag(S) Vt too far from A"
    if np.abs(res.S - np.linalg.svd(A, compute_uv=False)).max() > scale:
        return "svd: singular values disagree with numpy.linalg.svd"
    return None


def twin_problem(A: np.ndarray, res: Any, kind: str,
                 solver: Dict[str, Any]) -> Optional[str]:
    """Why ``res`` differs from the sequential solver's answer for ``A``
    (``None`` when bit-identical).  ``solver`` holds the service's
    ``ordering``, ``d``, ``tol`` and ``max_sweeps``."""
    if kind == "svd":
        ref = onesided_svd(A, tol=solver["tol"],
                           max_sweeps=solver["max_sweeps"],
                           raise_on_no_convergence=False)
        same = (res.sweeps == ref.sweeps and np.array_equal(res.S, ref.S)
                and np.array_equal(res.U, ref.U)
                and np.array_equal(res.Vt, ref.Vt))
    else:
        seq = ParallelOneSidedJacobi(
            get_ordering(solver["ordering"], solver["d"]),
            tol=solver["tol"], max_sweeps=solver["max_sweeps"])
        ref = seq.solve(A, raise_on_no_convergence=False)
        same = (res.sweeps == ref.sweeps
                and np.array_equal(res.eigenvalues, ref.eigenvalues)
                and np.array_equal(res.eigenvectors, ref.eigenvectors))
    return None if same else f"{kind}: not bit-identical to the sequential twin"


def probe_failed(out: Any) -> bool:
    """Whether the program gave a non-finite probe a wrong answer."""
    if isinstance(out.error, ReproError):
        return False
    if out.error is not None or out.done is None:
        return True  # an untyped exception or a lost future
    return bool(out.result.converged)


class Tally:
    """Running verdicts over every judged output of one run.

    ``failed`` counts wrong results, unexpected exceptions and futures
    that never resolved, against ``attempted``; refusals
    (``QueueFull``/``QuotaExceeded``/``ShedError``) are counted apart in
    ``refused``, and non-finite probes in ``probes``/``probe_failed``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.probes = 0
        self.probe_failed = 0
        self.problems: List[str] = []
        self._judged = 0

    def fail(self, why: str) -> None:
        """Count one failed operation and keep the first reasons."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(why)

    def judge(self, outcomes: Sequence[Any], solver: Dict[str, Any]) -> None:
        """Judge service outcomes (see :class:`traffic.Outcome`), setting
        each one's ``ok``."""
        for out in outcomes:
            self.attempted += 1
            req = out.request
            if req.probe:
                self.probes += 1
                self.probe_failed += probe_failed(out)
                continue
            if out.refused:
                self.refused += 1
                continue
            if out.error is not None:
                self.fail(f"{req.kind}: {type(out.error).__name__}: "
                          f"{out.error}")
                continue
            if out.done is None:
                self.fail(f"{req.kind}: future never resolved")
                continue
            if req.kind == "svd":
                why = svd_problem(req.matrix, out.result)
            else:
                why = eigen_problem(req.matrix, out.result, solver["tol"])
            if why is None and self._judged % TWIN_EVERY == 0:
                why = twin_problem(req.matrix, out.result, req.kind, solver)
            self._judged += 1
            if why is None:
                out.ok = True
            else:
                self.fail(why)
