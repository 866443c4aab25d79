"""Unit tests for the one-sided rotation kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.jacobi import rotate_pairs, rotation_angles


class TestRotationAngles:
    def test_orthogonalises(self, rng):
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        aa, bb, g = a @ a, b @ b, a @ b
        c, s, applied = rotation_angles(np.array([aa]), np.array([bb]),
                                        np.array([g]))
        assert applied[0]
        na = c[0] * a - s[0] * b
        nb = s[0] * a + c[0] * b
        assert abs(na @ nb) < 1e-10 * np.linalg.norm(na) * np.linalg.norm(nb)

    def test_skips_orthogonal_pairs(self):
        c, s, applied = rotation_angles(np.array([1.0]), np.array([2.0]),
                                        np.array([0.0]))
        assert not applied[0]
        assert c[0] == 1.0 and s[0] == 0.0

    def test_small_angle_choice(self, rng):
        # |t| <= 1 (rotation angle <= pi/4), the convergence-critical choice
        a = rng.normal(size=(30,)) ** 2 + 1
        b = rng.normal(size=(30,)) ** 2 + 1
        g = rng.normal(size=(30,))
        c, s, _ = rotation_angles(a, b, g)
        t = s / c
        assert np.all(np.abs(t) <= 1.0 + 1e-12)

    def test_rotation_is_orthonormal(self, rng):
        a = rng.normal(size=10) ** 2
        b = rng.normal(size=10) ** 2
        g = rng.normal(size=10)
        c, s, _ = rotation_angles(a, b, g)
        assert np.allclose(c * c + s * s, 1.0)

    def test_zero_sign_handled(self):
        # zeta = 0 (equal norms): sign convention must still rotate
        c, s, applied = rotation_angles(np.array([1.0]), np.array([1.0]),
                                        np.array([0.5]))
        assert applied[0] and abs(s[0]) > 0


class TestRotatePairs:
    def test_preserves_frobenius_norm(self, rng):
        A = rng.normal(size=(20, 8))
        before = np.linalg.norm(A)
        rotate_pairs(A, None, np.array([0, 2, 4]), np.array([1, 3, 5]))
        assert np.linalg.norm(A) == pytest.approx(before)

    def test_orthogonalises_each_pair(self, rng):
        A = rng.normal(size=(16, 6))
        rotate_pairs(A, None, np.array([0, 2, 4]), np.array([1, 3, 5]))
        for i, j in ((0, 1), (2, 3), (4, 5)):
            assert abs(A[:, i] @ A[:, j]) < 1e-10

    def test_u_gets_same_rotation(self, rng):
        A0 = rng.normal(size=(10, 10))
        A = A0.copy()
        U = np.eye(10)
        rotate_pairs(A, U, np.array([0, 5]), np.array([1, 7]))
        assert np.allclose(A0 @ U, A, atol=1e-12)

    def test_stats(self, rng):
        A = rng.normal(size=(12, 4))
        # make columns 2,3 exactly orthogonal
        A[:, 3] -= (A[:, 3] @ A[:, 2]) / (A[:, 2] @ A[:, 2]) * A[:, 2]
        stats = rotate_pairs(A, None, np.array([0, 2]), np.array([1, 3]))
        assert stats.pairs_seen == 2
        assert stats.rotations_applied == 1

    def test_empty_batch(self):
        A = np.zeros((3, 3))
        stats = rotate_pairs(A, None, np.array([], dtype=np.intp),
                             np.array([], dtype=np.intp))
        assert stats.pairs_seen == 0

    def test_batch_equals_sequential(self, rng):
        # disjoint pairs: one vectorised call == one-at-a-time loop
        A1 = rng.normal(size=(15, 8))
        A2 = A1.copy()
        ii = np.array([0, 2, 4, 6])
        jj = np.array([1, 3, 5, 7])
        rotate_pairs(A1, None, ii, jj)
        for i, j in zip(ii, jj):
            rotate_pairs(A2, None, np.array([i]), np.array([j]))
        assert np.array_equal(A1, A2)

    def test_disjointness_check(self, rng):
        A = rng.normal(size=(6, 4))
        with pytest.raises(SimulationError):
            rotate_pairs(A, None, np.array([0, 1]), np.array([1, 2]),
                         check_disjoint=True)

    def test_shape_mismatch(self):
        A = np.zeros((3, 3))
        with pytest.raises(SimulationError):
            rotate_pairs(A, None, np.array([0]), np.array([1, 2]))

    @pytest.mark.parametrize("shape", [(2, 6, 4), (6,)])
    def test_rejects_non_2d_iterate(self, rng, shape):
        # A stack's A[:, idx] would gather rows, not columns: refuse it
        # rather than rotate the wrong axis.
        A = rng.normal(size=shape)
        before = A.copy()
        with pytest.raises(SimulationError, match="got shape"):
            rotate_pairs(A, None, np.array([0]), np.array([1]))
        assert np.array_equal(A, before)

    def test_stats_merge(self):
        from repro.jacobi import RotationStats

        a = RotationStats(pairs_seen=3, rotations_applied=2)
        a.merge(RotationStats(pairs_seen=4, rotations_applied=1))
        assert (a.pairs_seen, a.rotations_applied) == (7, 3)
