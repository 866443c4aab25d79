"""Differential tests: batched SVD vs sequential SVD vs LAPACK.

Three implementations of the same decomposition are played against each
other across a zoo of matrix classes (tall, square, rank-deficient,
duplicate singular values, near-zero):

* :class:`~repro.engine.svd.BatchedOneSidedSVD` (round-robin mode) must
  be **bit-identical** to per-matrix
  :func:`~repro.jacobi.svd.onesided_svd` — same U, S, Vt, sweeps,
  convergence flags, for every batch composition;
* ordering mode must be **bit-identical** to per-matrix
  :func:`~repro.jacobi.svd.parallel_svd`;
* both must agree with ``numpy.linalg.svd`` to 1e-10 on singular
  values, reconstruct ``U @ diag(S) @ Vt == A``, and produce
  orthonormal U/V — the LAPACK cross-check that catches a bug shared
  by both Jacobi paths.

The rank-deficiency completion's RNG contract (caller-seeded, fresh per
matrix, independent of batch layout) gets its own regression class.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.engine.svd import BatchedOneSidedSVD, stack_rect_matrices
from repro.errors import ConvergenceError, SimulationError
from repro.jacobi.svd import onesided_svd, parallel_svd
from repro.orderings import get_ordering

TOL = 1e-11


def _matrix_zoo(seed: int = 20260730):
    """The differential corpus: one representative per matrix class."""
    rng = np.random.default_rng(seed)
    tall = rng.normal(size=(24, 16))
    square = rng.normal(size=(16, 16))
    # rank 3 embedded in a 24 x 16 matrix
    rank_deficient = (rng.normal(size=(24, 3))
                      @ rng.normal(size=(3, 16)))
    # exactly duplicated singular values via a block construction
    q1, _ = np.linalg.qr(rng.normal(size=(24, 16)))
    q2, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    sigma = np.repeat([9.0, 4.0, 2.5, 1.0], 4)
    duplicates = (q1 * sigma) @ q2
    near_zero = 1e-150 * rng.normal(size=(24, 16))
    return {
        "tall": tall,
        "square": square,
        "rank_deficient": rank_deficient,
        "duplicate_sigma": duplicates,
        "near_zero": near_zero,
    }


def _assert_valid_svd(A, U, S, Vt, atol=1e-10):
    m = A.shape[1]
    scale = max(1.0, float(np.abs(A).max()))
    assert np.all(np.diff(S) <= 1e-12 * max(1.0, S[0] if S.size else 1.0)), \
        "singular values must be descending"
    assert np.abs((U * S) @ Vt - A).max() < atol * scale, \
        "U @ diag(S) @ Vt must reconstruct A"
    assert np.abs(U.T @ U - np.eye(m)).max() < 1e-8, \
        "U must have orthonormal columns"
    assert np.abs(Vt @ Vt.T - np.eye(m)).max() < 1e-8, \
        "V must be orthogonal"


class TestAgainstLapack:
    """Both Jacobi paths vs numpy.linalg.svd, per matrix class."""

    @pytest.mark.parametrize("name", sorted(_matrix_zoo()))
    def test_sequential_singular_values(self, name):
        A = _matrix_zoo()[name]
        res = onesided_svd(A, tol=TOL)
        ref = np.linalg.svd(A, compute_uv=False)
        scale = max(1.0, float(ref[0]))
        assert np.abs(res.S - ref).max() < 1e-10 * scale
        _assert_valid_svd(A, res.U, res.S, res.Vt)

    @pytest.mark.parametrize("name", sorted(_matrix_zoo()))
    def test_batched_singular_values(self, name):
        A = _matrix_zoo()[name]
        res = BatchedOneSidedSVD(tol=TOL).solve(A[None])
        ref = np.linalg.svd(A, compute_uv=False)
        scale = max(1.0, float(ref[0]))
        assert np.abs(res.S[0] - ref).max() < 1e-10 * scale
        _assert_valid_svd(A, res.U[0], res.S[0], res.Vt[0])


class TestBatchedBitIdentity:
    """The engine's contract: batched == per-matrix, bit for bit."""

    def _assert_bit_identical(self, mats, res, seqs):
        for k, s in enumerate(seqs):
            assert np.array_equal(s.U, res.U[k]), f"U differs at {k}"
            assert np.array_equal(s.S, res.S[k]), f"S differs at {k}"
            assert np.array_equal(s.Vt, res.Vt[k]), f"Vt differs at {k}"
            assert s.sweeps == res.sweeps[k], f"sweeps differ at {k}"
            assert s.converged == bool(res.converged[k])

    def test_zoo_batch_matches_sequential(self):
        """Every same-shape zoo member in *one* batch — mixed
        convergence speeds, rank deficiency and near-zero scaling all
        compacting through one shared schedule.  (The square member
        rides its own batch: a batch is same-shape by contract.)"""
        zoo = _matrix_zoo()
        mats = [zoo[k] for k in ("tall", "rank_deficient",
                                 "duplicate_sigma", "near_zero")]
        res = BatchedOneSidedSVD(tol=TOL).solve(mats)
        seqs = [onesided_svd(A, tol=TOL) for A in mats]
        self._assert_bit_identical(mats, res, seqs)
        counts = {s.sweeps for s in seqs}
        assert len(counts) >= 2, (
            "zoo should converge at different sweeps to exercise "
            f"compaction, got {sorted(counts)}")
        sq = BatchedOneSidedSVD(tol=TOL).solve([zoo["square"]])
        self._assert_bit_identical([zoo["square"]], sq,
                                   [onesided_svd(zoo["square"], tol=TOL)])

    @pytest.mark.parametrize("shape", [(24, 16), (16, 16), (33, 17),
                                       (40, 8)])
    def test_random_batches_match_sequential(self, shape):
        rng = np.random.default_rng((999,) + shape)
        mats = [rng.normal(size=shape) for _ in range(5)]
        res = BatchedOneSidedSVD(tol=TOL).solve(mats)
        seqs = [onesided_svd(A, tol=TOL) for A in mats]
        self._assert_bit_identical(mats, res, seqs)

    def test_batch_of_one(self):
        A = _matrix_zoo()["tall"]
        res = BatchedOneSidedSVD(tol=TOL).solve([A])
        s = onesided_svd(A, tol=TOL)
        self._assert_bit_identical([A], res, [s])

    def test_already_orthogonal_member_converges_at_zero(self):
        diag = np.vstack([np.diag([5.0, 3.0, 2.0, 1.0]),
                          np.zeros((4, 4))])
        mats = [diag] + [np.random.default_rng(k).normal(size=(8, 4))
                         for k in range(3)]
        res = BatchedOneSidedSVD(tol=TOL).solve(mats)
        seqs = [onesided_svd(A, tol=TOL) for A in mats]
        assert res.sweeps[0] == 0
        assert res.converged[0]
        self._assert_bit_identical(mats, res, seqs)

    def test_ordering_mode_matches_parallel_svd(self, ordering_name):
        # balanced blocks over d = 1..3: the tall shape runs rectangular
        # split planes, the square one the eigen engine's layout
        for d in (1, 2, 3):
            ordering = get_ordering(ordering_name, d)
            for shape in ((24, 16), (16, 16)):
                rng = np.random.default_rng(31)
                mats = [rng.normal(size=shape) for _ in range(4)]
                res = BatchedOneSidedSVD(ordering, tol=TOL).solve(mats)
                seqs = [parallel_svd(A, ordering, tol=TOL) for A in mats]
                self._assert_bit_identical(mats, res, seqs)

    def test_ordering_mode_uneven_blocks(self):
        # m=17 over 4 or 8 blocks exercises the unbalanced index rounds
        for d in (1, 2):
            ordering = get_ordering("br", d)
            rng = np.random.default_rng(32)
            mats = [rng.normal(size=(20, 17)) for _ in range(3)]
            res = BatchedOneSidedSVD(ordering, tol=TOL).solve(mats)
            seqs = [parallel_svd(A, ordering, tol=TOL) for A in mats]
            self._assert_bit_identical(mats, res, seqs)

    def test_no_convergence_is_flagged_not_raised(self):
        rng = np.random.default_rng(33)
        mats = [rng.normal(size=(16, 12)) for _ in range(3)]
        engine = BatchedOneSidedSVD(tol=1e-16, max_sweeps=1)
        with pytest.raises(ConvergenceError):
            engine.solve(mats)
        res = engine.solve(mats, raise_on_no_convergence=False)
        assert not res.converged.any()
        assert (res.sweeps == 1).all()
        seqs = [onesided_svd(A, tol=1e-16, max_sweeps=1,
                             raise_on_no_convergence=False) for A in mats]
        for k, s in enumerate(seqs):
            assert np.array_equal(s.S, res.S[k])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_member_is_not_converged(self):
        rng = np.random.default_rng(35)
        mats = [rng.normal(size=(16, 12)) for _ in range(3)]
        mats[1][2, 3] = np.nan
        br = get_ordering("br", 1)
        # the circle, and ordering mode on split planes (12 columns over
        # 4 balanced blocks)
        for ordering, solve in ((None, onesided_svd),
                                (br, partial(parallel_svd, ordering=br))):
            engine = BatchedOneSidedSVD(ordering, tol=TOL, max_sweeps=20)
            with pytest.raises(ConvergenceError):
                solve(mats[1], tol=TOL, max_sweeps=20)
            with pytest.raises(ConvergenceError):
                engine.solve(mats)
            res = engine.solve(mats, raise_on_no_convergence=False)
            ref = solve(mats[1], tol=TOL, max_sweeps=20,
                        raise_on_no_convergence=False)
            assert not ref.converged and not res.converged[1]
            assert res.sweeps[1] == ref.sweeps == 20
            for k in (0, 2):
                s = solve(mats[k], tol=TOL, max_sweeps=20)
                assert res.converged[k] and res.sweeps[k] == s.sweeps
                assert np.array_equal(res.S[k], s.S)

    def test_count_sweeps_matches_sequential(self):
        rng = np.random.default_rng(34)
        mats = [rng.normal(size=(20, 12)) for _ in range(5)]
        got = BatchedOneSidedSVD(tol=TOL).count_sweeps(mats)
        expected = [onesided_svd(A, tol=TOL).sweeps for A in mats]
        assert got.tolist() == expected


class TestFillRngContract:
    """Rank-deficiency completion: caller-seeded, layout-independent."""

    def _deficient(self, seed=5):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(18, 3)) @ rng.normal(size=(3, 12))

    def test_default_completion_is_deterministic(self):
        A = self._deficient()
        r1 = onesided_svd(A, tol=TOL)
        r2 = onesided_svd(A, tol=TOL)
        assert np.array_equal(r1.U, r2.U)

    def test_explicit_rng_is_honoured(self):
        A = self._deficient()
        base = onesided_svd(A, tol=TOL)
        other = onesided_svd(A, tol=TOL,
                             fill_rng=np.random.default_rng(123))
        # the zero-singular-value columns differ with a different seed...
        assert not np.array_equal(base.U, other.U)
        # ...but both completions are valid orthonormal sets
        for r in (base, other):
            _assert_valid_svd(A, r.U, r.S, r.Vt)
        # and the deterministic part of the factorisation agrees
        assert np.array_equal(base.S, other.S)
        assert np.array_equal(base.U[:, :3], other.U[:, :3])

    def test_completion_is_independent_of_batch_layout(self):
        """Regression: a shared RNG across the batch would make the
        'arbitrary' completion depend on where the rank-deficient
        matrix sits (and on how many deficient neighbours precede it).
        Every layout must reproduce the standalone result exactly."""
        A = self._deficient()
        B = self._deficient(seed=6)
        rng = np.random.default_rng(7)
        full = [rng.normal(size=(18, 12)) for _ in range(2)]
        alone = BatchedOneSidedSVD(tol=TOL).solve([A])
        layouts = [
            ([A, B, *full], 0),          # deficient first, two of them
            ([*full, B, A], 3),          # deficient last
            ([full[0], A, full[1]], 1),  # sandwiched, single deficient
        ]
        for mats, k in layouts:
            res = BatchedOneSidedSVD(tol=TOL).solve(mats)
            assert np.array_equal(res.U[k], alone.U[0]), \
                "completion changed with batch layout"
            assert np.array_equal(res.U[k], onesided_svd(A, tol=TOL).U), \
                "batched completion drifted from the sequential one"

    def test_fill_seed_threads_through_the_engine(self):
        A = self._deficient()
        default = BatchedOneSidedSVD(tol=TOL).solve([A])
        reseeded = BatchedOneSidedSVD(tol=TOL, fill_seed=123).solve([A])
        assert np.array_equal(
            reseeded.U[0],
            onesided_svd(A, tol=TOL,
                         fill_rng=np.random.default_rng(123)).U)
        assert not np.array_equal(default.U[0], reseeded.U[0])


class TestValidation:
    def test_rejects_wide_matrices(self):
        with pytest.raises(SimulationError, match="n >= m"):
            stack_rect_matrices([np.zeros((4, 8))])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(SimulationError, match="same-shape"):
            stack_rect_matrices([np.zeros((8, 4)), np.zeros((9, 4))])

    def test_rejects_empty_batch(self):
        with pytest.raises(SimulationError, match="empty"):
            stack_rect_matrices([])

    def test_rejects_non_3d_stack(self):
        with pytest.raises(SimulationError):
            stack_rect_matrices(np.zeros((2, 3, 4, 5)))

    def test_ordering_mode_rejects_too_few_columns(self):
        with pytest.raises(Exception, match="blocks"):
            BatchedOneSidedSVD(get_ordering("br", 2)).solve(
                [np.random.default_rng(0).normal(size=(8, 4))])

    def test_rejects_bad_max_sweeps(self):
        with pytest.raises(ConvergenceError):
            BatchedOneSidedSVD(max_sweeps=0)
