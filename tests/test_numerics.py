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
    svd_factor,
    zero_forcing_columns,
)
from bits import policy_rank, same_bits

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

    def test_basis_is_lapacks_trailing_null_vectors(self):
        # no sign convention: the columns are numpy's full SVD's right singular vectors beyond min(m, n), bit for bit
        for i, shape in enumerate([(3, 7), (3, 4, 9)]):
            A = np.random.default_rng(23 + i).standard_normal(shape)
            vt = np.linalg.svd(A, full_matrices=True)[2]
            assert same_bits(null_space_basis(A), vt[..., min(shape[-2:]) :, :].mT), shape

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

    def test_duplicated_avoid_row_is_degenerate(self):
        # the 6x6 stack has rank 5 of the 6 its shape allows: an accident of
        # the draw, redrawn, even though each stream keeps a complement
        rng = np.random.default_rng(3)
        targets, avoid = rng.standard_normal((2, 6)), rng.standard_normal((4, 6))
        avoid[3] = avoid[2]
        with pytest.raises(DegenerateChannel, match="zero-forcing rows of P1 have rank below 6") as info:
            zero_forcing_columns(targets, avoid, "P1")
        assert info.value.lanes.ndim == 0 and info.value.lanes

    def test_target_in_the_span_of_the_other_rows_is_degenerate(self):
        rng = np.random.default_rng(4)
        targets, avoid = rng.standard_normal((3, 2, 6)), rng.standard_normal((3, 2, 6))
        targets[1, 1] = targets[1, 0] - 2.0 * avoid[1, 1]
        with pytest.raises(DegenerateChannel) as info:
            zero_forcing_columns(targets, avoid, "P1")
        assert info.value.lanes.tolist() == [False, True, False]
        # alone, the lane's rank is still below the 4 its shape allows
        with pytest.raises(DegenerateChannel, match="zero-forcing rows of P1 have rank below 4") as info:
            zero_forcing_columns(targets[1], avoid[1], "P1")
        assert info.value.lanes.ndim == 0 and info.value.lanes

    def test_repeated_avoid_rows_at_full_rank_keep_the_complement(self):
        # B = [t; a1; a2; a2] has rank 3 = n below its 4 rows, yet row t is
        # outside the span of the avoid rows
        rng = np.random.default_rng(8)
        targets, (a1, a2) = rng.standard_normal((1, 3)), rng.standard_normal((2, 3))
        avoid = np.stack([a1, a2, a2])
        cols = zero_forcing_columns(targets, avoid, "P1")
        np.testing.assert_allclose(cols, reference_zero_forcing(targets, avoid), rtol=0, atol=1e-12)

    def test_streams_keep_their_gain_at_the_edge_of_the_rank_rule(self):
        # |t_g| <= s_max and |x_g| <= 1 / s_min, so a B that passes the rank
        # rule (s_min > RANK_TOL * s_max) keeps RANK_TOL * |t_g| * |x_g|
        # below 1: no stream loses its gain.  Each B here has s_min / s_max
        # at RANK_TOL * (1 + delta), and its two target rows each mix the
        # strongest and the weakest singular direction, which makes
        # |t_g| * |x_g| about s_max / (2 s_min), the most a row can reach.
        deltas = (1e-3, 1e-2, 1e-1, 1.0)
        h = np.sqrt(0.5)
        U = np.array([[h, 0.0, 0.0, h], [h, 0.0, 0.0, -h], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        V = np.linalg.qr(np.random.default_rng(9).standard_normal((6, 4)))[0]
        B = np.stack([U @ np.diag(np.geomspace(1.0, RANK_TOL * (1.0 + delta), 4)) @ V.T for delta in deltas])
        stacked = zero_forcing_columns(B[:, :2], B[:, 2:], "S1")
        for lane, delta in enumerate(deltas):
            s = np.linalg.svd(B[lane], compute_uv=False)
            assert RANK_TOL < s[-1] / s[0] < RANK_TOL * (1.0 + 2.0 * delta)
            x = np.linalg.pinv(B[lane])[:, :2]
            gain = RANK_TOL * np.linalg.norm(B[lane, :2], axis=1) * np.linalg.norm(x, axis=0)
            assert np.all((0.25 < gain) & (gain < 1.0)), (delta, gain)
            cols = zero_forcing_columns(B[lane, :2], B[lane, 2:], "S1")
            assert same_bits(cols, stacked[lane])
            assert np.isfinite(cols).all()
            np.testing.assert_allclose(np.linalg.norm(cols, axis=0), 1.0, rtol=0, atol=1e-12)

    def test_avoid_rows_filling_the_space_leave_no_complement(self):
        rng = np.random.default_rng(5)
        with pytest.raises(NoComplement, match="avoid space for stream 1 of S2 fills all 4 dimensions"):
            zero_forcing_columns(rng.standard_normal((2, 4)), rng.standard_normal((3, 4)), "S2")
        assert zero_forcing_columns(np.zeros((0, 4)), rng.standard_normal((5, 4)), "S2").shape == (4, 0)


class TestShapeRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: null_space_basis(np.ones(3)), "matrix must be 2-D or a stack of 2-D matrices, got shape (3,)"),
            (lambda: min_norm_right_solve(np.eye(2, 3), np.ones(3)), "rhs has leading dimension 3, expected 2"),
        ],
        ids=["one-dim-matrix", "rhs-rows"],
    )
    def test_refused_shape(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == message


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

    def test_factors_are_lapacks_thin_svd(self):
        # no sign convention: Phi, gamma and Psi^T are numpy's thin SVD, bit for bit
        for i, shape in enumerate([(5, 4), (4, 5), (3, 5, 4), (2, 3, 1, 6)]):
            A = np.random.default_rng(19 + i).standard_normal(shape)
            phi, g, psi = svd_factor(A)
            u, s, vt = np.linalg.svd(A, full_matrices=False)
            assert same_bits(phi, u) and same_bits(g, s) and same_bits(psi.mT, vt), shape


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


def threshold_lanes(m: int, n: int) -> np.ndarray:
    """Diagonal m x n matrices whose smallest singular value sits on, and one ulp either side of, the rank rule.

    Lanes also hold a zero matrix, a zero smallest value, a well-conditioned
    matrix and a tiny one.  LAPACK returns a diagonal matrix's singular
    values exactly, which the rank tests check before relying on it.
    """
    pairs = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (2.0**-200, 2.0**-200)]
    for s0 in (1.0, 3.0, 0.7):
        t = RANK_TOL * s0
        pairs += [(s0, np.nextafter(t, 0.0)), (s0, t), (s0, np.nextafter(t, np.inf))]
    A = np.zeros((len(pairs), m, n))
    A[:, 0, 0], A[:, 1, 1] = np.array(pairs).T
    return A


class TestRankRuleAtItsThreshold:
    """Every kernel's rank decision is the rank count's (``bits.policy_rank``), to the last ulp."""

    @staticmethod
    def lost(A: np.ndarray) -> np.ndarray:
        s = np.linalg.svd(A, compute_uv=False)
        return policy_rank(s, RANK_TOL) < min(A.shape[-2:])

    @staticmethod
    def raised_mask(kernel, A):
        """The lane mask of the DegenerateChannel ``kernel(A)`` raises, or None."""
        try:
            kernel(A)
        except DegenerateChannel as exc:
            return exc.lanes
        return None

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2)])
    def test_kernels_raise_exactly_when_the_rank_is_lost(self, m, n):
        A = threshold_lanes(m, n)
        s = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_array_equal(s[:, :2], np.sort(A[:, [0, 1], [0, 1]], axis=-1)[:, ::-1])
        lost = self.lost(A)
        # at the threshold and below, the rank is lost; one ulp above, it is kept
        assert lost[4:7].tolist() == [True, True, False] and lost.any() and not lost.all()
        kernels = [null_space_basis]
        if m <= n:
            kernels += [
                lambda A: min_norm_right_solve(A, np.ones(A.shape[:-1])),
                lambda A: zero_forcing_columns(A[..., :1, :], A[..., 1:, :], "X"),
            ]
        for kernel in kernels:
            mask = self.raised_mask(kernel, A)
            assert mask is not None and mask.tolist() == lost.tolist()
            # two lane axes: the mask keeps their order
            mask = self.raised_mask(kernel, A[:12].reshape(3, 4, m, n))
            assert mask.tolist() == lost[:12].reshape(3, 4).tolist()
            for t in range(len(A)):
                mask = self.raised_mask(kernel, A[t])
                assert (mask is not None) == lost[t], t
                assert mask is None or (mask.ndim == 0 and mask)
            kept = A[~lost]
            assert self.raised_mask(kernel, kept) is None

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (2, 3), (1, 1), (0, 2), (2, 0)])
    def test_full_column_rank_is_the_rank_count(self, m, n):
        A = threshold_lanes(max(m, 2), max(n, 2))[:, :m, :n]
        rank = policy_rank(np.linalg.svd(A, compute_uv=False), RANK_TOL) if m and n else np.zeros(len(A), int)
        expected = rank == n
        assert full_column_rank(A).tolist() == expected.tolist()
        assert full_column_rank(A[:12].reshape(3, 4, m, n)).tolist() == expected[:12].reshape(3, 4).tolist()
        for t in range(len(A)):
            assert full_column_rank(A[t]) == expected[t], t
        if m == n == 1:
            # the zero 1x1 matrix has rank 0; every other 1x1 matrix, tiny included, rank 1
            assert expected.tolist() == [False] + [True] * (len(A) - 1)


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
        for kernel in (lambda A: min_norm_right_solve(A, np.ones((3, 2))), null_space_basis):
            with pytest.raises(DegenerateChannel) as info:
                kernel(A)
            assert info.value.lanes.tolist() == [True, True, True]

    def test_rank_loss_in_one_matrix_is_degenerate(self):
        # one matrix is judged against its shape, as each lane is: a 2x4
        # matrix of rank 1 has no extra null direction, it is redrawn
        A = np.random.default_rng(22).standard_normal((2, 4))
        A[1] = 2.0 * A[0]
        with pytest.raises(DegenerateChannel, match="2x4 matrix has rank below 2") as info:
            null_space_basis(A)
        assert info.value.lanes.ndim == 0 and info.value.lanes
        with pytest.raises(DegenerateChannel) as info:
            null_space_basis(A[None])
        assert info.value.lanes.tolist() == [True]
        # a tall matrix: full column rank leaves no null direction, less is degenerate
        assert null_space_basis(np.eye(4, 2)).shape == (2, 0)
        with pytest.raises(DegenerateChannel, match="4x2 matrix has rank below 2"):
            null_space_basis(A.T)


def test_only_numerics_calls_the_svd():
    # the numerics module is the one place rank decisions are made
    callers = sorted(
        path.name
        for path in Path(cogia.__file__).parent.glob("*.py")
        if re.search(r"linalg(\.svd|\s+import)", path.read_text())
    )
    assert callers == ["numerics.py"]
