"""Equivalence tests: the batched engine vs the sequential solver.

The batched engine's contract is not "numerically close" — it is
**bit-identical**: for every matrix of a batch, eigenvalues,
eigenvectors, sweep counts, per-sweep defect histories and (summed)
rotation statistics must equal the sequential
:class:`~repro.jacobi.parallel.ParallelOneSidedJacobi` results exactly,
including when matrices converge at different sweeps within one batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    ENSEMBLE_ORDERINGS,
    BatchedOneSidedJacobi,
    run_ensemble,
    stack_matrices,
)
from repro.errors import ConvergenceError, SimulationError
from repro.jacobi import ParallelOneSidedJacobi, make_symmetric_test_matrix
from repro.engine.batched import _rotate_rows
from repro.jacobi.rotations import RotationStats, rotate_pairs
from repro.orderings import get_ordering

ALL_ORDERINGS = ("br", "permuted-br", "degree4", "min-alpha",
                 "rebalanced-br")

#: ``(m, d)`` shapes of the Table-2 path beyond the grid: m=64 at block
#: size b=16 (d=1) and b=2 (d=4), b=1 and an odd b=3.
TABLE2_SHAPES = ((64, 1), (64, 4), (8, 2), (24, 2))


def _batch(m: int, count: int, seed: int = 7):
    return [make_symmetric_test_matrix(m, rng=(seed, m, k))
            for k in range(count)]


def _assert_bit_identical(mats, ordering, tol=1e-9, max_sweeps=60,
                          compute_eigenvectors=True):
    seq_solver = ParallelOneSidedJacobi(ordering, tol=tol,
                                        max_sweeps=max_sweeps)
    seqs = [seq_solver.solve(A, compute_eigenvectors) for A in mats]
    res = BatchedOneSidedJacobi(ordering, tol=tol,
                                max_sweeps=max_sweeps).solve(
        mats, compute_eigenvectors)
    for k, s in enumerate(seqs):
        assert np.array_equal(s.eigenvalues, res.eigenvalues[k]), \
            f"eigenvalues differ for batch item {k}"
        assert np.array_equal(s.eigenvectors, res.eigenvectors[k]), \
            f"eigenvectors differ for batch item {k}"
        assert s.sweeps == res.sweeps[k], \
            f"sweep count differs for batch item {k}"
        assert s.off_history == res.off_history[k], \
            f"defect history differs for batch item {k}"
        assert s.converged == bool(res.converged[k])
    assert sum(s.stats.pairs_seen for s in seqs) == res.stats.pairs_seen
    assert (sum(s.stats.rotations_applied for s in seqs)
            == res.stats.rotations_applied)
    return seqs, res


class TestBitIdentical:
    """The equivalence grid: m in {8, 16, 24, 32} at d=2 (block sizes
    1, 2, 3, 4), every ordering."""

    @pytest.mark.parametrize("m", (8, 16, 24, 32))
    @pytest.mark.parametrize("name", ALL_ORDERINGS)
    def test_grid(self, m, name):
        ordering = get_ordering(name, 2)
        _assert_bit_identical(_batch(m, 5), ordering)

    @pytest.mark.parametrize("vectors", (True, False), ids=("U", "noU"))
    @pytest.mark.parametrize("m,d", TABLE2_SHAPES)
    @pytest.mark.parametrize("name", ENSEMBLE_ORDERINGS)
    def test_table2_shapes(self, name, m, d, vectors):
        _assert_bit_identical(_batch(m, 3), get_ordering(name, d),
                              compute_eigenvectors=vectors)

    @pytest.mark.parametrize("name", ("br", "degree4"))
    def test_deeper_cube(self, name):
        # more nodes: d=3 (16 blocks) at m=32, block size 2
        _assert_bit_identical(_batch(32, 4), get_ordering(name, 3))

    def test_single_node_machine(self):
        # d=0 degenerates to two blocks on one node, no transitions
        _assert_bit_identical(_batch(8, 4), get_ordering("br", 0))

    def test_uneven_blocks_fallback(self):
        # unbalanced sizes (m=33 over 8 blocks, ...) take the indexed
        # backend, whose rows are W = m wide without eigenvectors
        for m, d in ((10, 1), (33, 2), (37, 3)):
            for vectors in (True, False):
                _assert_bit_identical(_batch(m, 4), get_ordering("br", d),
                                      compute_eigenvectors=vectors)

    def test_batch_of_one(self):
        _assert_bit_identical(_batch(16, 1), get_ordering("degree4", 2))


class TestMixedConvergence:
    """Matrices converging at different sweeps within one batch."""

    def test_staggered_convergence(self):
        # a near-diagonal matrix converges sweeps earlier than the rest
        rng = np.random.default_rng(42)
        easy = np.diag(np.arange(1.0, 17.0))
        easy[0, 1] = easy[1, 0] = 1e-3
        mats = [easy] + _batch(16, 4)
        seqs, res = _assert_bit_identical(mats, get_ordering("br", 2))
        counts = {s.sweeps for s in seqs}
        assert len(counts) >= 2, (
            "test setup should produce different per-matrix sweep counts, "
            f"got {sorted(counts)}")

    def test_already_converged_member(self):
        # an exactly diagonal matrix converges before the first sweep
        mats = [np.diag(np.arange(1.0, 17.0))] + _batch(16, 3)
        seqs, res = _assert_bit_identical(mats, get_ordering("degree4", 2))
        assert res.sweeps[0] == 0
        assert res.converged[0]

    def test_cross_round_with_nothing_to_rotate(self):
        # Node v holds column blocks 2v and 2v+1 (b=2) of a block-diagonal
        # matrix whose 4x4 blocks make pairs (0,2) and (1,3) orthogonal
        # and (0,3), (1,2) not: the first cross round rotates no pair in
        # the whole batch, the second does.  The skipped round must still
        # advance the moving plane's roll.
        rng = np.random.default_rng(9)
        mats = []
        for _ in range(3):
            A = np.zeros((16, 16))
            for v in range(4):
                p, q, r, s, t, u = rng.uniform(1.0, 2.0, size=6)
                A[4 * v:4 * v + 4, 4 * v:4 * v + 4] = [
                    [p, 0, 0, q], [0, r, u, 0], [0, u, s, 0], [q, 0, 0, t]]
            mats.append(A)
        _, res = _assert_bit_identical(mats, get_ordering("br", 2))
        assert res.stats.rotations_applied > 0

    def test_no_eigenvectors(self):
        mats = _batch(16, 4)
        solver = ParallelOneSidedJacobi(get_ordering("br", 2))
        seqs = [solver.solve(A, compute_eigenvectors=False) for A in mats]
        res = BatchedOneSidedJacobi(get_ordering("br", 2)).solve(
            mats, compute_eigenvectors=False)
        assert res.eigenvectors.shape == (4, 16, 0)
        for k, s in enumerate(seqs):
            assert np.array_equal(s.eigenvalues, res.eigenvalues[k])
            assert s.sweeps == res.sweeps[k]


class TestEngineValidation:
    def test_rejects_nonsymmetric_member(self):
        mats = _batch(16, 2) + [np.triu(np.ones((16, 16)))]
        with pytest.raises(SimulationError):
            BatchedOneSidedJacobi(get_ordering("br", 2)).solve(mats)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(SimulationError):
            stack_matrices(_batch(8, 1) + _batch(16, 1))

    def test_rejects_empty_batch(self):
        with pytest.raises(SimulationError):
            stack_matrices([])

    def test_no_convergence_raises_with_indices(self):
        mats = _batch(16, 3)
        engine = BatchedOneSidedJacobi(get_ordering("br", 2), tol=1e-16,
                                       max_sweeps=2)
        with pytest.raises(ConvergenceError):
            engine.solve(mats)
        res = engine.solve(mats, raise_on_no_convergence=False)
        assert not res.converged.any()
        assert (res.sweeps == 2).all()

    def test_count_sweeps_matches_sequential(self):
        mats = _batch(16, 5)
        solver = ParallelOneSidedJacobi(get_ordering("degree4", 2))
        expected = [solver.count_sweeps(A) for A in mats]
        got = BatchedOneSidedJacobi(
            get_ordering("degree4", 2)).count_sweeps(mats)
        assert got.tolist() == expected

    @pytest.mark.parametrize("m,d", TABLE2_SHAPES)
    def test_count_sweeps_equals_solve_sweeps(self, m, d):
        # Counting runs without eigenvectors; the counts must be those of
        # a full solve with them.
        mats = _batch(m, 3)
        ordering = get_ordering("degree4", d)
        seq = ParallelOneSidedJacobi(ordering)
        assert ([seq.count_sweeps(A) for A in mats]
                == [seq.solve(A).sweeps for A in mats])
        engine = BatchedOneSidedJacobi(ordering)
        assert np.array_equal(engine.count_sweeps(mats),
                              engine.solve(mats).sweeps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinite:
    """A non-finite member is never reported converged: the batch gives
    it the sequential solver's outcome (same exception type, or the same
    sweeps with ``converged=False``) and leaves its neighbours'
    answers bit-identical."""

    @staticmethod
    def _poison(A, where):
        A = A.copy()
        if where == "inf":
            A[0, 0] = np.inf
        else:
            A[0, 1] = A[1, 0] = np.nan
        return A

    @pytest.mark.parametrize("where", ("inf", "nan"))
    def test_same_exception_type_as_sequential(self, where):
        mats = _batch(16, 3)
        mats[1] = self._poison(mats[1], where)
        ordering = get_ordering("degree4", 2)
        with pytest.raises(Exception) as seq_err:
            ParallelOneSidedJacobi(ordering).solve(mats[1])
        with pytest.raises(type(seq_err.value)):
            BatchedOneSidedJacobi(ordering).solve(mats)

    def test_inf_member_sweeps_to_the_budget(self):
        mats = _batch(16, 3)
        mats[1] = self._poison(mats[1], "inf")
        ordering = get_ordering("degree4", 2)
        seq = ParallelOneSidedJacobi(ordering, max_sweeps=20)
        res = BatchedOneSidedJacobi(ordering, max_sweeps=20).solve(
            mats, raise_on_no_convergence=False)
        ref = seq.solve(mats[1], raise_on_no_convergence=False)
        assert not ref.converged and not res.converged[1]
        assert res.sweeps[1] == ref.sweeps == 20
        for k in (0, 2):
            s = seq.solve(mats[k])
            assert res.converged[k] and res.sweeps[k] == s.sweeps
            assert np.array_equal(res.eigenvalues[k], s.eigenvalues)
            assert np.array_equal(res.eigenvectors[k], s.eigenvectors)


class TestBatchedRotatePairs:
    """The row kernel every batch backend rotates through, against the
    sequential :func:`~repro.jacobi.rotations.rotate_pairs`."""

    def test_batched_rotation_matches_per_matrix(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 12, 12))
        U = rng.standard_normal((4, 12, 12))
        ii = np.array([0, 2, 4])
        jj = np.array([1, 3, 5])
        # One (B, 1, m, W) plane of [A column | U column] rows.
        plane = np.concatenate([np.transpose(A, (0, 2, 1)),
                                np.transpose(U, (0, 2, 1))], axis=2)[:, None]
        stats_b = RotationStats()
        _rotate_rows(plane, ii, jj, 12, stats_b)
        A2 = np.transpose(plane[:, 0, :, :12], (0, 2, 1))
        U2 = np.transpose(plane[:, 0, :, 12:], (0, 2, 1))
        seen = applied = 0
        for k in range(4):
            Ak, Uk = A[k].copy(), U[k].copy()
            s = rotate_pairs(Ak, Uk, ii, jj)
            seen += s.pairs_seen
            applied += s.rotations_applied
            assert np.array_equal(Ak, A2[k])
            assert np.array_equal(Uk, U2[k])
        assert stats_b.pairs_seen == seen
        assert stats_b.rotations_applied == applied


class TestRunEnsemble:
    def test_engines_bit_identical(self):
        configs = [(16, 2), (16, 4), (8, 2)]
        seq = run_ensemble(configs, num_matrices=4, seed=11,
                           engine="sequential")
        bat = run_ensemble(configs, num_matrices=4, seed=11,
                           engine="batched")
        for a, b in zip(seq, bat):
            assert a.m == b.m and a.P == b.P
            for name in a.sweeps:
                assert np.array_equal(a.sweeps[name], b.sweeps[name])

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            run_ensemble([(8, 2)], num_matrices=1, engine="quantum")

    def test_rejects_non_power_of_two_p(self):
        with pytest.raises(ValueError):
            run_ensemble([(16, 3)], num_matrices=1)

    def test_deterministic(self):
        a = run_ensemble([(8, 2)], num_matrices=3, seed=5)
        b = run_ensemble([(8, 2)], num_matrices=3, seed=5)
        assert np.array_equal(a[0].sweeps["br"], b[0].sweeps["br"])
        assert a[0].mean_sweeps() == b[0].mean_sweeps()

    def test_seed_changes_ensemble(self):
        from repro.engine import generate_ensemble

        a = generate_ensemble(8, 2, 3, seed=5)
        b = generate_ensemble(8, 2, 3, seed=6)
        assert not np.array_equal(a, b)


class TestEnsembleConfigResultSpread:
    """Regression: spread() used to raise ValueError on degenerate
    sweeps dicts (max()/min() of an empty sequence)."""

    def test_empty_sweeps_spread_is_zero(self):
        from repro.engine import EnsembleConfigResult

        assert EnsembleConfigResult(m=8, P=2, sweeps={}).spread() == 0.0

    def test_single_ordering_spread_is_zero(self):
        (res,) = run_ensemble([(8, 2)], num_matrices=2, seed=5,
                              orderings=["br"])
        assert res.spread() == 0.0

    def test_two_orderings_spread_is_max_minus_min(self):
        (res,) = run_ensemble([(16, 2)], num_matrices=3, seed=5,
                              orderings=["br", "degree4"])
        means = res.mean_sweeps()
        assert res.spread() == pytest.approx(
            abs(means["br"] - means["degree4"]))
