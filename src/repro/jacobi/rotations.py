"""One-sided (Hestenes) Jacobi rotation kernels.

The one-sided method works on columns: the similarity transformation that
zeroes elements (i, j) and (j, i) of the implicit Gram matrix ``A^T A``
touches only columns ``i`` and ``j`` of the iterate ``A`` (and of the
accumulated transformation ``U``).  For a column pair with

* ``a = a_i . a_i``, ``b = a_j . a_j``, ``g = a_i . a_j``,

the classical stable rotation (Rutishauser / Wilkinson [15]) is

* ``zeta = (b - a) / (2 g)``,
* ``t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2))``  (``tan`` of the angle),
* ``c = 1 / sqrt(1 + t^2)``, ``s = t * c``,
* ``a_i' = c a_i - s a_j``, ``a_j' = s a_i + c a_j``,

which makes ``a_i' . a_j' = 0`` exactly (in exact arithmetic) while
choosing the *small* rotation angle (|theta| <= pi/4), the choice that
guarantees convergence of the cyclic method.

Everything here is **vectorised over disjoint column pairs**: a parallel
Jacobi step rotates ``m/2`` independent pairs, and a simulated multi-node
step rotates ``2**d * b`` pairs at once; :func:`rotate_pairs` performs any
number of disjoint rotations in a handful of NumPy calls, exactly the
vectorise-don't-loop idiom of the HPC guides.

The kernels also accept a **leading batch axis**: a ``(B, m, n)`` iterate
rotates the same column pairs of ``B`` independent matrices in one call
(the :mod:`repro.engine` batched solver's workhorse).  Per-element
arithmetic is identical to the 2-D path — the batched reductions contract
over the same axis with the same strides — so batched results are
bit-for-bit equal to solving each matrix alone, a property the
equivalence tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import SimulationError

__all__ = [
    "DEFAULT_PAIR_TOL",
    "rotation_angles",
    "rotate_pairs",
    "RotationStats",
]

#: Pairs with ``|g| <= DEFAULT_PAIR_TOL * sqrt(a * b)`` are already
#: numerically orthogonal and are skipped (identity rotation).
DEFAULT_PAIR_TOL = 1e-15


def rotation_angles(a: np.ndarray, b: np.ndarray, g: np.ndarray,
                    pair_tol: float = DEFAULT_PAIR_TOL
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosines and sines for a batch of column pairs.

    Parameters
    ----------
    a, b, g:
        Arrays of ``a_i.a_i``, ``a_j.a_j`` and ``a_i.a_j`` per pair.
    pair_tol:
        Relative orthogonality threshold below which a pair is skipped.

    Returns
    -------
    c, s, applied:
        Rotation cosines/sines (identity where skipped) and a boolean mask
        of the pairs actually rotated.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    norm = np.sqrt(np.maximum(a * b, 0.0))
    applied = np.abs(g) > pair_tol * np.maximum(norm, np.finfo(np.float64).tiny)
    # Avoid divide-by-zero on skipped pairs: substitute g=1 there; the
    # results are overwritten by the identity anyway.
    g_safe = np.where(applied, g, 1.0)
    zeta = (b - a) / (2.0 * g_safe)
    t = np.sign(zeta)
    t = np.where(t == 0.0, 1.0, t)
    t = t / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    c = np.where(applied, c, 1.0)
    s = np.where(applied, s, 0.0)
    return c, s, applied


@dataclass
class RotationStats:
    """Running totals of rotation work (for reports and tests).

    Attributes
    ----------
    pairs_seen:
        Column pairs examined.
    rotations_applied:
        Pairs that actually needed a rotation (non-orthogonal).
    """

    pairs_seen: int = 0
    rotations_applied: int = 0

    def merge(self, other: "RotationStats") -> None:
        """Accumulate another stats object into this one."""
        self.pairs_seen += other.pairs_seen
        self.rotations_applied += other.rotations_applied


def rotate_pairs(A: np.ndarray, U: Optional[np.ndarray],
                 idx_i: np.ndarray, idx_j: np.ndarray,
                 pair_tol: float = DEFAULT_PAIR_TOL,
                 check_disjoint: bool = False) -> RotationStats:
    """Apply one-sided rotations to a batch of **disjoint** column pairs.

    Updates ``A`` (and ``U``, when given) in place: columns ``idx_i[k]``
    and ``idx_j[k]`` are rotated against each other for every ``k``.
    Disjointness (no column appears twice across ``idx_i + idx_j``) is the
    caller's responsibility — it is what makes a parallel Jacobi step
    parallel — but can be asserted with ``check_disjoint=True`` in tests.

    Parameters
    ----------
    A:
        ``(m, n)`` iterate matrix — or a ``(B, m, n)`` stack of ``B``
        iterates rotated through the same column pairs — modified in
        place.
    U:
        Optional accumulated transformation of the same shape as ``A``,
        same rotations applied (pass ``None`` to skip eigenvector
        accumulation).
    idx_i, idx_j:
        Integer arrays of equal length: the column pairs.
    pair_tol:
        Orthogonality threshold forwarded to :func:`rotation_angles`.
    check_disjoint:
        Raise :class:`~repro.errors.SimulationError` if a column appears
        in more than one pair.

    Returns
    -------
    RotationStats
        Pairs seen and rotations actually applied (in batched mode,
        summed over the batch).
    """
    idx_i = np.asarray(idx_i, dtype=np.intp)
    idx_j = np.asarray(idx_j, dtype=np.intp)
    if idx_i.shape != idx_j.shape or idx_i.ndim != 1:
        raise SimulationError("idx_i and idx_j must be 1-D of equal length")
    if idx_i.size == 0:
        return RotationStats()
    if check_disjoint:
        allidx = np.concatenate([idx_i, idx_j])
        if np.unique(allidx).size != allidx.size:
            raise SimulationError(
                "rotate_pairs requires disjoint column pairs")
    if A.ndim == 3:
        return _rotate_pairs_batch(A, U, idx_i, idx_j, pair_tol)
    Ai = A[:, idx_i]
    Aj = A[:, idx_j]
    a = np.einsum("ij,ij->j", Ai, Ai)
    b = np.einsum("ij,ij->j", Aj, Aj)
    g = np.einsum("ij,ij->j", Ai, Aj)
    c, s, applied = rotation_angles(a, b, g, pair_tol)
    if not applied.any():
        return RotationStats(pairs_seen=idx_i.size, rotations_applied=0)
    A[:, idx_i] = c * Ai - s * Aj
    A[:, idx_j] = s * Ai + c * Aj
    if U is not None:
        Ui = U[:, idx_i]
        Uj = U[:, idx_j]
        U[:, idx_i] = c * Ui - s * Uj
        U[:, idx_j] = s * Ui + c * Uj
    return RotationStats(pairs_seen=idx_i.size,
                         rotations_applied=int(applied.sum()))


def _rotate_pairs_batch(A: np.ndarray, U: Optional[np.ndarray],
                        idx_i: np.ndarray, idx_j: np.ndarray,
                        pair_tol: float) -> RotationStats:
    """Batched body of :func:`rotate_pairs` for a ``(B, m, n)`` iterate.

    The per-pair reductions contract over the row axis with the same
    strides as the 2-D path, and the column updates are the same
    elementwise expressions, so every matrix of the batch evolves
    bit-for-bit as it would solved alone.
    """
    pairs_seen = idx_i.size * A.shape[0]
    Ai = A[:, :, idx_i]
    Aj = A[:, :, idx_j]
    a = np.einsum("bij,bij->bj", Ai, Ai)
    b = np.einsum("bij,bij->bj", Aj, Aj)
    g = np.einsum("bij,bij->bj", Ai, Aj)
    c, s, applied = rotation_angles(a, b, g, pair_tol)
    if not applied.any():
        return RotationStats(pairs_seen=pairs_seen, rotations_applied=0)
    cb = c[:, None, :]
    sb = s[:, None, :]
    A[:, :, idx_i] = cb * Ai - sb * Aj
    A[:, :, idx_j] = sb * Ai + cb * Aj
    if U is not None:
        Ui = U[:, :, idx_i]
        Uj = U[:, :, idx_j]
        U[:, :, idx_i] = cb * Ui - sb * Uj
        U[:, :, idx_j] = sb * Ui + cb * Uj
    return RotationStats(pairs_seen=pairs_seen,
                         rotations_applied=int(applied.sum()))
