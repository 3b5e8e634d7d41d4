"""Linear-algebra kernel tests: frozen examples plus seeded property sweeps."""

import re
from pathlib import Path

import numpy as np
import pytest

import cogia
from cogia.errors import DegenerateChannel, NoComplement, RankDeficient
from cogia.numerics import (
    RANK_TOL,
    ZERO_TOL,
    full_column_rank,
    min_norm_right_solve,
    null_space_basis,
    orth_complement_vector,
    rank_under_policy,
    svd_factor,
    zero_forcing_columns,
)

RNG = np.random.default_rng(20240811)


def random_shapes(n, max_dim=16):
    rng = np.random.default_rng(7)
    return [(int(rng.integers(1, max_dim + 1)), int(rng.integers(1, max_dim + 1))) for _ in range(n)]


class TestTolerances:
    def test_defaults(self):
        assert RANK_TOL == ZERO_TOL == 1e-9


class TestNullSpaceBasis:
    def test_coordinate_null_space(self):
        B = null_space_basis(np.array([[1.0, 0.0, 0.0]]))
        assert B.shape == (3, 2)
        # spans {e2, e3}: projector equals diag(0, 1, 1)
        np.testing.assert_allclose(B @ B.T, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_full_rank_has_trivial_null_space(self):
        assert null_space_basis(np.eye(3)).shape == (3, 0)

    def test_seeded_wide_matrix(self):
        A = np.random.default_rng(3).standard_normal((2, 4))
        B = null_space_basis(A)
        assert B.shape == (4, 2)
        assert np.linalg.norm(A @ B) < 1e-10
        np.testing.assert_allclose(B.T @ B, np.eye(2), atol=1e-12)

    def test_zero_rows_spans_everything(self):
        B = null_space_basis(np.zeros((0, 4)))
        np.testing.assert_array_equal(B, np.eye(4))

    def test_sign_convention(self):
        B = null_space_basis(np.array([[1.0, 0.0, 0.0]]))
        for j in range(B.shape[1]):
            col = B[:, j]
            assert col[np.flatnonzero(col)[0]] > 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            null_space_basis(np.array([[np.nan, 1.0]]))


class TestOrthComplement:
    def test_plane_complement(self):
        u = orth_complement_vector(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(u, [0.0, 1.0], atol=1e-15)

    def test_full_space_has_no_complement(self):
        with pytest.raises(NoComplement):
            orth_complement_vector(np.eye(2))

    def test_seeded_residual(self):
        S = np.random.default_rng(11).standard_normal((3, 5))
        u = orth_complement_vector(S)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        assert np.linalg.norm(S @ u) < 1e-10


def reference_zero_forcing(targets, avoid):
    """One SVD per stream: target row g projected onto the null space of the other rows."""
    rows = np.concatenate([targets, avoid])
    cols = []
    for g in range(len(targets)):
        _, s, vt = np.linalg.svd(np.delete(rows, g, axis=0))
        basis = vt[np.count_nonzero(s > RANK_TOL * s[0]) :].T
        v = basis @ (basis.T @ targets[g])
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


class TestZeroForcingColumns:
    # the secondary and the primary receive stacks of the verify-large scenario
    @pytest.mark.parametrize("d, k, n", [(3, 5, 16), (4, 6, 10)])
    def test_matches_one_projection_per_stream(self, d, k, n):
        rng = np.random.default_rng(100 * d + k)
        targets, avoid = rng.standard_normal((8, d, n)), rng.standard_normal((8, k, n))
        cols = zero_forcing_columns(targets, avoid, "S1")
        for t in range(8):
            np.testing.assert_allclose(cols[t], reference_zero_forcing(targets[t], avoid[t]), rtol=0, atol=1e-12)

    def test_duplicated_avoid_row_keeps_the_complement(self):
        rng = np.random.default_rng(3)
        targets, avoid = rng.standard_normal((2, 6)), rng.standard_normal((4, 6))
        avoid[3] = avoid[2]  # the stack has rank 5 of 6, each stream's complement 2 dimensions
        cols = zero_forcing_columns(targets, avoid, "P1")
        np.testing.assert_allclose(cols, reference_zero_forcing(targets, avoid), rtol=0, atol=1e-12)

    def test_target_in_the_span_of_the_other_rows_is_degenerate(self):
        rng = np.random.default_rng(4)
        targets, avoid = rng.standard_normal((3, 2, 6)), rng.standard_normal((3, 2, 6))
        targets[1, 1] = targets[1, 0] - 2.0 * avoid[1, 1]
        with pytest.raises(DegenerateChannel) as info:
            zero_forcing_columns(targets, avoid, "P1")
        assert info.value.lanes.tolist() == [False, True, False]
        # alone, the lane's rank is the common rank, and its lost streams still refuse
        with pytest.raises(DegenerateChannel, match="stream 1 of P1"):
            zero_forcing_columns(targets[1], avoid[1], "P1")

    def test_repeated_avoid_rows_at_full_rank_keep_the_complement(self):
        # B = [t; a1; a2; a2] has rank 3 = n below its 4 rows, yet row t is
        # outside the span of the avoid rows
        rng = np.random.default_rng(8)
        targets, (a1, a2) = rng.standard_normal((1, 3)), rng.standard_normal((2, 3))
        avoid = np.stack([a1, a2, a2])
        cols = zero_forcing_columns(targets, avoid, "P1")
        np.testing.assert_allclose(cols, reference_zero_forcing(targets, avoid), rtol=0, atol=1e-12)

    def test_avoid_rows_filling_the_space_leave_no_complement(self):
        rng = np.random.default_rng(5)
        with pytest.raises(NoComplement, match="avoid space for stream 1 of S2 fills all 4 dimensions"):
            zero_forcing_columns(rng.standard_normal((2, 4)), rng.standard_normal((3, 4)), "S2")
        assert zero_forcing_columns(np.zeros((0, 4)), rng.standard_normal((5, 4)), "S2").shape == (4, 0)


class TestMinNormRightSolve:
    def test_invertible_square(self):
        x = min_norm_right_solve(np.diag([2.0, 2.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-12)

    def test_min_norm_picks_no_null_component(self):
        x = min_norm_right_solve(np.array([[1.0, 0.0, 0.0]]), np.array([5.0]))
        np.testing.assert_allclose(x, [5.0, 0.0, 0.0], atol=1e-12)

    def test_seeded_oracle_pinv(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        x = min_norm_right_solve(A, b)
        assert np.linalg.norm(A @ x - b) < 1e-10
        # oracle: SVD pseudo-inverse
        np.testing.assert_allclose(x, np.linalg.pinv(A) @ b, atol=1e-10)
        # x orthogonal to the null space of A
        N = null_space_basis(A)
        assert np.linalg.norm(N.T @ x) < 1e-10

    def test_rank_deficient_raises(self):
        # a 2x3 shape allows full row rank: a dependent row is an accident
        # of the draw, redrawn, not a refusal
        A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])  # second row dependent
        with pytest.raises(DegenerateChannel) as info:
            min_norm_right_solve(A, np.array([1.0, 1.0]))
        assert info.value.lanes.ndim == 0 and info.value.lanes

    def test_tall_matrix_raises(self):
        with pytest.raises(RankDeficient):
            min_norm_right_solve(np.ones((3, 2)), np.ones(3))

    def test_matrix_rhs(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((2, 4))
        B = rng.standard_normal((2, 3))
        X = min_norm_right_solve(A, B)
        assert np.linalg.norm(A @ X - B) < 1e-10


class TestSvdFactor:
    def test_diagonal(self):
        _, g, _ = svd_factor(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(g, [3.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        _, g, _ = svd_factor(np.zeros((2, 2)))
        np.testing.assert_allclose(g, [0.0, 0.0])

    def test_seeded_reconstruction(self):
        A = np.random.default_rng(17).standard_normal((4, 3))
        phi, g, psi = svd_factor(A)
        assert np.linalg.norm(A - phi @ np.diag(g) @ psi.T) < 1e-10
        assert np.all(np.diff(g) <= 0) and np.all(g >= 0)
        np.testing.assert_allclose(phi.T @ phi, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(psi.T @ psi, np.eye(3), atol=1e-12)

    def test_left_factor_sign_convention(self):
        phi, _, _ = svd_factor(np.random.default_rng(19).standard_normal((5, 4)))
        for j in range(phi.shape[1]):
            col = phi[:, j]
            assert col[np.flatnonzero(col)[0]] > 0


class TestKernelProperties:
    """Spec invariants on 100 seeded matrices of mixed shapes."""

    def test_rank_nullity_and_annihilation(self):
        for idx, (m, n) in enumerate(random_shapes(100)):
            A = np.random.default_rng(100 + idx).standard_normal((m, n))
            B = null_space_basis(A)
            s = np.linalg.svd(A, compute_uv=False)
            rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s[0] > 0 else 0
            assert rank + B.shape[1] == n
            if B.shape[1]:
                assert np.linalg.norm(A @ B) <= 1e-10 * max(1.0, np.linalg.norm(A))
                np.testing.assert_allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-10)

    def test_min_norm_beats_shifted_solutions(self):
        rng = np.random.default_rng(1234)
        for idx in range(30):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m + 1, m + 6))
            A = np.random.default_rng(500 + idx).standard_normal((m, n))
            b = np.random.default_rng(900 + idx).standard_normal(m)
            x = min_norm_right_solve(A, b)
            N = null_space_basis(A)
            for t in (-2.0, -0.5, 0.5, 2.0):
                shifted = x + t * N[:, 0]
                assert np.linalg.norm(x) <= np.linalg.norm(shifted) + 1e-12

    def test_determinism_bit_identical(self):
        A = np.random.default_rng(77).standard_normal((6, 9))
        b = np.random.default_rng(78).standard_normal(6)
        assert np.array_equal(null_space_basis(A), null_space_basis(A.copy()))
        assert np.array_equal(min_norm_right_solve(A, b), min_norm_right_solve(A.copy(), b.copy()))
        p1, g1, s1 = svd_factor(A)
        p2, g2, s2 = svd_factor(A.copy())
        assert np.array_equal(p1, p2) and np.array_equal(g1, g2) and np.array_equal(s1, s2)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestRankUnderPolicy:
    def test_counts_strictly_above_the_tolerance(self):
        s = np.sort(np.random.default_rng(9).uniform(0.0, 2.0, (4, 3, 5)), axis=-1)[..., ::-1].copy()
        s[0, 0, 2:] = RANK_TOL * s[0, 0, 0]  # ties sit at the tolerance and count as zero
        s[1, 2, 1:] = 0.0
        s[2, 1] = 0.0
        s[3, 0, -1] = np.nextafter(RANK_TOL * s[3, 0, 0], np.inf)
        rank = rank_under_policy(s)
        assert rank.shape == (4, 3) and np.issubdtype(rank.dtype, np.integer)
        assert rank.tolist() == np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1).tolist()
        assert (rank[0, 0], rank[1, 2], rank[2, 1], rank[3, 0]) == (2, 1, 0, 5)


class TestStacks:
    """A stack of matrices gives, lane by lane, the bits of each matrix alone."""

    def test_lanes_match_single_matrices(self):
        for idx, (m, n) in enumerate(random_shapes(40)):
            A = np.random.default_rng(300 + idx).standard_normal((5, m, n))
            basis = null_space_basis(A)
            factors = svd_factor(A)
            ranks = full_column_rank(A)
            for t in range(5):
                assert same_bits(basis[t], null_space_basis(A[t]))
                for stacked, single in zip(factors, svd_factor(A[t])):
                    assert same_bits(stacked[t], single)
                assert ranks[t] == full_column_rank(A[t])
            if m <= n:
                b = np.random.default_rng(600 + idx).standard_normal((5, m, 2))
                x = min_norm_right_solve(A, b)
                for t in range(5):
                    assert same_bits(x[t], min_norm_right_solve(A[t], b[t]))

    def test_rank_loss_in_one_lane_names_that_lane(self):
        A = np.random.default_rng(21).standard_normal((3, 2, 4))
        A[1, 1] = 2.0 * A[1, 0]  # lane 1 has rank 1, the others rank 2
        with pytest.raises(DegenerateChannel) as info:
            null_space_basis(A)
        assert info.value.lanes.tolist() == [False, True, False]
        with pytest.raises(DegenerateChannel) as info:
            min_norm_right_solve(A, np.ones((3, 2)))
        assert info.value.lanes.tolist() == [False, True, False]
        assert full_column_rank(np.swapaxes(A, -1, -2)).tolist() == [True, False, True]
        # a shortfall every lane shares is still an accident the 2x4 shape
        # allows: every lane is named, and only a shape refuses
        A[:, 1] = 2.0 * A[:, 0]
        with pytest.raises(DegenerateChannel) as info:
            min_norm_right_solve(A, np.ones((3, 2)))
        assert info.value.lanes.tolist() == [True, True, True]

    def test_common_rank_of_one_matrix_is_its_rank(self):
        # one matrix's rank is a 0-d integer: there are no lanes to compare
        assert cogia.numerics._common_rank(np.int64(3)) == 3
        assert cogia.numerics._common_rank(rank_under_policy(np.array([2.0, 1.0, 0.0]))) == 2
        assert cogia.numerics._common_rank(np.array([2, 2])) == 2
        with pytest.raises(DegenerateChannel) as info:
            cogia.numerics._common_rank(np.array([2, 1, 2]))
        assert info.value.lanes.tolist() == [False, True, False]


def test_only_numerics_calls_the_svd():
    # the numerics module is the one place rank decisions are made
    callers = sorted(
        path.name
        for path in Path(cogia.__file__).parent.glob("*.py")
        if re.search(r"linalg(\.svd|\s+import)", path.read_text())
    )
    assert callers == ["numerics.py"]
