"""Construction tests: precoders, corrections, combiners, leakage report."""

import dataclasses
import itertools

import numpy as np
import pytest

import cogia.alignment
import cogia.dof
import cogia.scenario
from cogia.alignment import (
    MAX_DEGENERATE_RETRIES,
    PrecoderReceiverSet,
    build_all,
    build_corrections,
    build_primary_precoders,
    build_primary_receivers,
    build_secondary_precoders,
    build_secondary_receivers,
    draw_system,
    effective_channels,
    interference_report,
)
from cogia.dof import closed_form_feasible, constructive_check, grid_tuples
from cogia.errors import DegenerateChannel, NoComplement, RankDeficient, ScenarioError, TooManyDegenerateDraws
from cogia.numerics import ZERO_TOL
from cogia.rates import cell_sum_rates
from cogia.scenario import (
    CHANNEL_STREAM,
    PRECODER_STREAM_P1,
    ChannelSet,
    NetworkDims,
    NoiseAndPower,
    StreamAlloc,
    derive_seed,
    generate_channels,
)
from bits import same_bits


def system(dims_tuple, seed):
    dims = NetworkDims(*dims_tuple)
    return dims, generate_channels(dims, seed)


def secondary_precoders(ch, alloc):
    """The selectors, then the secondary alignment to them, as the construction runs them."""
    return build_secondary_precoders(ch.H_S1, ch.H_S2, *build_secondary_receivers(ch.dims.N_S, alloc))


class TestPrimaryPrecoders:
    def test_square_primary_all_random(self):
        # M_P == N_P gives Z = 0: every column is a random unit vector
        dims, ch = system((5, 5, 5, 3), 2)
        V_P1, V_P2 = build_primary_precoders(ch, StreamAlloc(1, 1, 0, 0), 2)
        assert dims.Z == 0
        np.testing.assert_allclose(np.linalg.norm(V_P1, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(V_P2, axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed, shown", [([1], "[1]"), (1, "1")], ids=["one-seed-short", "integer"])
    def test_needs_one_seed_per_lane(self, seed, shown):
        ch = generate_channels(NetworkDims(5, 5, 5, 3), [1, 2])
        with pytest.raises(ValueError) as info:
            build_primary_precoders(ch, StreamAlloc(1, 1, 0, 0), seed)
        assert type(info.value) is ValueError
        assert str(info.value) == f"need one seed per lane of the channels, (2,), got {shown}"

    def test_null_space_columns_cancel_other_user(self):
        # Z = 2 at (4,4,2,2): both streams of P1 vanish at P2 by precoding alone
        _, ch = system((4, 4, 2, 2), 3)
        V_P1, V_P2 = build_primary_precoders(ch, StreamAlloc(2, 2, 0, 0), 3)
        assert np.linalg.norm(ch.H_P2 @ V_P1) < 1e-9
        assert np.linalg.norm(ch.H_P1 @ V_P2) < 1e-9

    def test_mixed_null_and_random(self):
        # Z = 1 < d_P1 = 2: first column in null(H_P2), second random
        _, ch = system((4, 4, 3, 2), 4)
        V_P1, _ = build_primary_precoders(ch, StreamAlloc(2, 0, 0, 0), 4)
        assert np.linalg.norm(ch.H_P2 @ V_P1[:, 0]) < 1e-9
        assert np.linalg.norm(ch.H_P2 @ V_P1[:, 1]) > 1e-3

    def test_too_many_streams(self):
        # four precoder columns in a 3-dim transmit space
        _, ch = system((3, 3, 3, 3), 5)
        with pytest.raises(RankDeficient, match="V_P1 is 3x4"):
            build_primary_precoders(ch, StreamAlloc(4, 0, 0, 0), 5)

    def test_corrections_impossible(self):
        # d_P1 > Z needs a correction, but the 3x2 Hp_P2 has no right inverse
        _, ch = system((3, 2, 3, 2), 6)
        alloc = StreamAlloc(1, 0, 0, 0)
        V_P1, V_P2 = build_primary_precoders(ch, alloc, 6)
        with pytest.raises(RankDeficient):
            build_corrections(ch, V_P1, V_P2)
        with pytest.raises(RankDeficient):
            build_all(ch, alloc, 6)

    def test_deterministic(self):
        _, ch = system((5, 5, 5, 3), 2)
        a = build_primary_precoders(ch, StreamAlloc(2, 1, 0, 0), 9)
        b = build_primary_precoders(ch, StreamAlloc(2, 1, 0, 0), 9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestCorrections:
    def test_zero_when_null_space_covers(self):
        _, ch = system((4, 4, 2, 2), 3)
        V_P1, V_P2 = build_primary_precoders(ch, StreamAlloc(2, 2, 0, 0), 3)
        Vbar_P1, Vbar_P2 = build_corrections(ch, V_P1, V_P2)
        assert not Vbar_P1.any() and not Vbar_P2.any()

    def test_residual_cancellation(self):
        _, ch = system((5, 5, 5, 3), 8)
        alloc = StreamAlloc(1, 1, 1, 1)
        V_P1, V_P2 = build_primary_precoders(ch, alloc, 8)
        Vbar_P1, Vbar_P2 = build_corrections(ch, V_P1, V_P2)
        assert np.linalg.norm(ch.H_P2 @ V_P1[:, 0] + ch.Hp_P2 @ Vbar_P1[:, 0]) < 1e-9
        assert np.linalg.norm(ch.H_P1 @ V_P2[:, 0] + ch.Hp_P1 @ Vbar_P2[:, 0]) < 1e-9

    def test_receive_equation_closed_form(self):
        # effective column must match the explicit pseudo-inverse expression
        _, ch = system((5, 5, 5, 3), 8)
        V_P1, V_P2 = build_primary_precoders(ch, StreamAlloc(1, 1, 1, 1), 8)
        Vbar_P1, _ = build_corrections(ch, V_P1, V_P2)
        v = V_P1[:, 0]
        pinv_term = ch.Hp_P2.T @ np.linalg.solve(ch.Hp_P2 @ ch.Hp_P2.T, ch.H_P2 @ v)
        closed = ch.H_P1 @ v - ch.Hp_P1 @ pinv_term
        direct = ch.H_P1 @ v + ch.Hp_P1 @ Vbar_P1[:, 0]
        np.testing.assert_allclose(direct, closed, atol=1e-9)


class TestSecondaryPrecoders:
    def test_single_stream_exists_iff_headroom(self):
        _, ch = system((5, 5, 5, 3), 10)
        V_S1, _ = secondary_precoders(ch, StreamAlloc(0, 0, 1, 0))
        assert np.linalg.norm(ch.H_S2 @ V_S1) < 1e-9

    def test_no_headroom_raises(self):
        # H_S2 alone fills the 3-dim transmit space
        _, ch = system((3, 3, 3, 3), 10)
        with pytest.raises(NoComplement, match="stream 1 of S1"):
            secondary_precoders(ch, StreamAlloc(0, 0, 1, 0))

    def test_alignment_structure(self):
        _, ch = system((5, 5, 5, 3), 11)
        V_S1, V_S2 = secondary_precoders(ch, StreamAlloc(0, 0, 2, 2))
        # cross-cell: no leakage at the other secondary user
        assert np.linalg.norm(ch.H_S2 @ V_S1) < 1e-9
        assert np.linalg.norm(ch.H_S1 @ V_S2) < 1e-9
        # within S1: stream g hits only row g among the first d_S1 rows
        M = ch.H_S1 @ V_S1
        for g in range(2):
            for gp in range(2):
                if g == gp:
                    assert abs(M[gp, g]) > 1e-6
                else:
                    assert abs(M[gp, g]) < 1e-9
        np.testing.assert_allclose(np.linalg.norm(V_S1, axis=0), 1.0, atol=1e-12)

    def test_receive_bound(self):
        # three streams, two receive coordinates to align them onto
        _, ch = system((8, 8, 2, 2), 12)
        with pytest.raises(RankDeficient, match="U_S1 is 2x3"):
            secondary_precoders(ch, StreamAlloc(0, 0, 3, 0))


class TestPrimaryReceivers:
    def test_matched_filter_when_nothing_to_avoid(self):
        _, ch = system((5, 5, 5, 3), 13)
        alloc = StreamAlloc(1, 0, 0, 0)
        V_P1, V_P2 = build_primary_precoders(ch, alloc, 13)
        Vbar_P1, Vbar_P2 = build_corrections(ch, V_P1, V_P2)
        empty = np.zeros((5, 0))
        U_P1, _ = build_primary_receivers(ch, V_P1, V_P2, Vbar_P1, Vbar_P2, empty, empty)
        g = ch.H_P1 @ V_P1[:, 0] + ch.Hp_P1 @ Vbar_P1[:, 0]
        np.testing.assert_allclose(U_P1[:, 0], g / np.linalg.norm(g), atol=1e-12)

    def test_zero_forces_secondary_streams(self):
        dims, ch = system((5, 5, 5, 3), 14)
        alloc = StreamAlloc(1, 0, 2, 2)
        prs = build_all(ch, alloc, 14)
        inter = ch.Hp_P1 @ np.hstack([prs.V_S1, prs.V_S2])
        assert np.max(np.abs(prs.U_P1.T @ inter)) < 1e-9

    def test_avoid_space_fills_receive_space(self):
        _, ch = system((5, 5, 5, 3), 15)
        alloc = StreamAlloc(2, 0, 2, 2)  # 1 + 2 + 2 = 5 directions in 5-space
        V_P1, V_P2 = build_primary_precoders(ch, alloc, 15)
        Vbar_P1, Vbar_P2 = build_corrections(ch, V_P1, V_P2)
        V_S1, V_S2 = secondary_precoders(ch, alloc)
        with pytest.raises(NoComplement):
            build_primary_receivers(ch, V_P1, V_P2, Vbar_P1, Vbar_P2, V_S1, V_S2)

    def test_unit_norm_and_gain(self):
        _, ch = system((6, 6, 6, 3), 16)
        alloc = StreamAlloc(2, 1, 1, 1)
        prs = build_all(ch, alloc, 16)
        eff = effective_channels(ch, prs)
        np.testing.assert_allclose(np.linalg.norm(prs.U_P1, axis=0), 1.0, atol=1e-12)
        diag = np.diag(prs.U_P1.T @ eff.G_P1)
        assert np.all(np.abs(diag) > 1e-6)


class TestSecondaryReceivers:
    def test_full_selector_is_identity(self):
        U_S1, _ = build_secondary_receivers(3, StreamAlloc(0, 0, 3, 0))
        np.testing.assert_array_equal(U_S1, np.eye(3))

    def test_empty(self):
        U_S1, U_S2 = build_secondary_receivers(3, StreamAlloc(0, 0, 0, 0))
        assert U_S1.shape == (3, 0) and U_S2.shape == (3, 0)

    def test_cached_selectors_are_read_only_and_refuse_on_every_call(self):
        for _ in range(2):
            for n in range(1, 5):
                for d_j in range(n + 1):
                    U_S1, U_S2 = build_secondary_receivers(n, StreamAlloc(0, 0, d_j, n - d_j))
                    for U, cols in ((U_S1, d_j), (U_S2, n - d_j)):
                        assert U.shape == (n, cols) and np.array_equal(U, np.eye(n, cols))
                        assert not U.flags.writeable
        # a cached selector never stands in for a refusal
        for _ in range(3):
            with pytest.raises(RankDeficient, match="selector U_S2 is 2x3"):
                build_secondary_receivers(2, StreamAlloc(0, 0, 1, 3))
            with pytest.raises(RankDeficient, match="selector U_S1 is 1x2"):
                build_secondary_receivers(1, StreamAlloc(0, 0, 2, 0))

    @pytest.mark.parametrize(
        "seeds", [derive_seed(19, 0), [derive_seed(19, t) for t in range(4)]], ids=["one_draw", "stack"]
    )
    def test_built_selectors_are_read_only_views_of_the_cached_one(self, seeds):
        dims, alloc = NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 1)
        ch, prs = draw_system(dims, alloc, seeds)
        lanes = ch.H_P1.shape[:-2]
        for U, d_j in ((prs.U_S1, alloc.d_S1), (prs.U_S2, alloc.d_S2)):
            cached = cogia.alignment._selector(dims.N_S, d_j)
            assert not U.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                U[..., 0, 0] = 2.0
            assert np.shares_memory(U, cached)
            assert U.strides == (0,) * len(lanes) + cached.strides
            expected = np.broadcast_to(cached, lanes + cached.shape)
            assert U.shape == expected.shape and U.dtype == expected.dtype and np.array_equal(U, expected)

    def test_effective_channel_diagonal(self):
        _, ch = system((5, 5, 5, 3), 17)
        prs = build_all(ch, StreamAlloc(0, 0, 2, 2), 17)
        D = prs.U_S1.T @ ch.H_S1 @ prs.V_S1
        off = D - np.diag(np.diag(D))
        assert np.max(np.abs(off)) < 1e-9


class TestEffectiveChannels:
    def test_no_corrections_means_exact_product(self):
        _, ch = system((4, 4, 2, 2), 18)
        prs = build_all(ch, StreamAlloc(2, 2, 0, 0), 18)
        eff = effective_channels(ch, prs)
        assert np.array_equal(eff.G_P1, ch.H_P1 @ prs.V_P1)
        assert np.array_equal(eff.G_P2, ch.H_P2 @ prs.V_P2)

    def test_matches_two_branch_form(self):
        _, ch = system((5, 5, 5, 3), 19)
        prs = build_all(ch, StreamAlloc(1, 0, 2, 2), 19)
        eff = effective_channels(ch, prs)
        v = prs.V_P1[:, 0]
        pinv_term = ch.Hp_P2.T @ np.linalg.solve(ch.Hp_P2 @ ch.Hp_P2.T, ch.H_P2 @ v)
        closed = ch.H_P1 @ v - ch.Hp_P1 @ pinv_term
        np.testing.assert_allclose(eff.G_P1[:, 0], closed, atol=1e-10)

    def test_all_zero_precoders(self):
        dims, ch = system((3, 3, 2, 1), 20)
        zeros = {
            "V_P1": np.zeros((3, 1)), "V_P2": np.zeros((3, 0)),
            "Vbar_P1": np.zeros((3, 1)), "Vbar_P2": np.zeros((3, 0)),
            "V_S1": np.zeros((3, 0)), "V_S2": np.zeros((3, 0)),
            "U_P1": np.zeros((2, 1)), "U_P2": np.zeros((2, 0)),
            "U_S1": np.zeros((1, 0)), "U_S2": np.zeros((1, 0)),
        }
        prs = PrecoderReceiverSet(**zeros)
        eff = effective_channels(ch, prs)
        assert not eff.G_P1.any()

    @pytest.mark.parametrize("dims_tuple", [(3, 3, 2, 1), (5, 5, 5, 3), (4, 6, 4, 2), (12, 16, 10, 5)])
    def test_secondary_channel_is_the_papers_product(self, dims_tuple):
        # D_Sj is read from the rows of H_Sj that U_Sj selects; the letter's
        # U_Sj.T H_Sj V_Sj must agree bit for bit, on stacks and single draws,
        # and the secondary stage fed the set's own selectors rebuilds V_Sj
        dims = NetworkDims(*dims_tuple)
        feasible = [a for a in grid_tuples(dims) if not closed_form_feasible(dims, a).violated]
        allocs = feasible[:: max(len(feasible) // 12, 1)]
        assert any(0 in (a.d_S1, a.d_S2) for a in allocs) and any(a.d_S1 and a.d_S2 for a in allocs)
        for k, alloc in enumerate(allocs):
            for seeds in ([derive_seed(31, k, t) for t in range(6)], derive_seed(32, k)):
                ch, prs = draw_system(dims, alloc, seeds)
                eff = effective_channels(ch, prs)
                assert same_bits(eff.D_S1, prs.U_S1.mT @ ch.H_S1 @ prs.V_S1), (alloc, seeds)
                assert same_bits(eff.D_S2, prs.U_S2.mT @ ch.H_S2 @ prs.V_S2), (alloc, seeds)
                V_S1, V_S2 = build_secondary_precoders(ch.H_S1, ch.H_S2, prs.U_S1, prs.U_S2)
                assert same_bits(V_S1, prs.V_S1) and same_bits(V_S2, prs.V_S2), (alloc, seeds)


class TestInterferenceReport:
    def test_feasible_construction_is_clean(self):
        _, ch = system((5, 5, 5, 3), 21)
        prs = build_all(ch, StreamAlloc(1, 0, 2, 2), 21)
        report = interference_report(ch, prs)
        assert report.worst_case < 1e-9
        assert set(report.entries) == {
            "pcell_intra_at_P2", "pcell_intra_at_P1",
            "scell_intra_at_S2", "scell_intra_at_S1",
            "intercell_post_at_P1", "intercell_post_at_P2",
            "cross_stream_at_P1", "cross_stream_at_P2",
            "cross_stream_at_S1", "cross_stream_at_S2",
        }

    def test_empty_allocation_reports_zero(self):
        _, ch = system((4, 4, 2, 2), 22)
        prs = build_all(ch, StreamAlloc(0, 0, 0, 0), 22)
        report = interference_report(ch, prs)
        assert report.worst_case == 0.0

    def test_random_precoders_leak(self):
        # negative control: unconstructed precoders leave macroscopic leakage
        dims, ch = system((5, 5, 5, 3), 23)
        rng = np.random.default_rng(23)

        def unit(shape):
            M = rng.standard_normal(shape)
            return M / np.linalg.norm(M, axis=0)

        prs = PrecoderReceiverSet(
            V_P1=unit((5, 1)), V_P2=np.zeros((5, 0)),
            Vbar_P1=np.zeros((5, 1)), Vbar_P2=np.zeros((5, 0)),
            V_S1=unit((5, 2)), V_S2=unit((5, 2)),
            U_P1=unit((5, 1)), U_P2=np.zeros((5, 0)),
            U_S1=np.eye(3)[:, :2], U_S2=np.eye(3)[:, :2],
        )
        report = interference_report(ch, prs)
        assert report.worst_case > 1e-3


class TestConstructionInvariants:
    def test_transmit_side_cancellation_many_seeds(self):
        dims = NetworkDims(5, 5, 5, 3)
        alloc = StreamAlloc(1, 1, 1, 1)
        for seed in range(40):
            ch = generate_channels(dims, seed)
            prs = build_all(ch, alloc, seed)
            r1 = np.linalg.norm(ch.H_P2 @ prs.V_P1 + ch.Hp_P2 @ prs.Vbar_P1)
            r2 = np.linalg.norm(ch.H_P1 @ prs.V_P2 + ch.Hp_P1 @ prs.Vbar_P2)
            assert r1 <= 1e-9 * np.linalg.norm(ch.H_P2)
            assert r2 <= 1e-9 * np.linalg.norm(ch.H_P1)

    def test_full_set_deterministic(self):
        dims = NetworkDims(5, 5, 5, 3)
        ch = generate_channels(dims, 77)
        a = build_all(ch, StreamAlloc(1, 0, 2, 2), 77)
        b = build_all(ch, StreamAlloc(1, 0, 2, 2), 77)
        for name in ("V_P1", "Vbar_P1", "V_S1", "V_S2", "U_P1", "U_S1"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_selector_combiners_orthonormal(self):
        _, ch = system((5, 5, 5, 3), 24)
        prs = build_all(ch, StreamAlloc(1, 0, 2, 2), 24)
        np.testing.assert_allclose(prs.U_S1.T @ prs.U_S1, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(prs.U_P1.T @ prs.U_P1, np.eye(1), atol=1e-12)


class TestSignBlindConstruction:
    """No output of the construction reads the sign of a null-space basis column.

    A seam negates every other column of each ``null_space_basis`` result
    the primary stage reads, as another LAPACK build may: cancellation,
    both cells' rates, the correction power and the feasibility verdict
    must hold.
    """

    @staticmethod
    def negating(monkeypatch):
        real, calls = cogia.alignment.null_space_basis, []

        def basis(A):
            B = real(A)
            B[..., ::2] *= -1.0
            calls.append(B.shape)
            return B

        monkeypatch.setattr(cogia.alignment, "null_space_basis", basis)
        return calls

    @pytest.mark.parametrize(
        "dims_tuple, alloc_tuple",
        [((12, 16, 10, 5), (4, 4, 3, 3)), ((5, 5, 3, 2), (2, 2, 0, 1)), ((6, 4, 3, 1), (3, 2, 0, 0))],
    )
    def test_outputs_ignore_column_signs(self, monkeypatch, dims_tuple, alloc_tuple):
        dims, alloc = NetworkDims(*dims_tuple), StreamAlloc(*alloc_tuple)
        seeds = [derive_seed(41, t) for t in range(20)]
        noise = NoiseAndPower(sigma2_P1=0.5, sigma2_P2=1.5, sigma2_S2=2.0, Qav_P=10.0, Qav_S=3.0)

        def run():
            ch, prs = draw_system(dims, alloc, seeds)
            report = interference_report(ch, prs)
            rp, rs = cell_sum_rates(prs, report.eff, noise)
            outputs = [rp.sum_rate, rs.sum_rate, rp.uncharged_correction_power]
            return report.worst_case, outputs, constructive_check(dims, alloc, trials=20, seed=41)

        worst, expected, verdict = run()
        with monkeypatch.context() as m:
            calls = self.negating(m)
            flipped_worst, flipped, flipped_verdict = run()
        assert calls and all(shape[-1] >= 1 for shape in calls)
        assert worst.max() <= ZERO_TOL and flipped_worst.max() <= ZERO_TOL
        for want, got in zip(expected, flipped, strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert flipped_verdict == verdict


def spy_on_draws(monkeypatch) -> list[tuple[int, int]]:
    """Record (seed, stream id) for every lane of every draw the package makes."""
    drawn: list[tuple[int, int]] = []
    real = cogia.scenario._SubstreamFactory.normal

    def spy(self, seed, stream, shape):
        drawn.extend((s, stream) for s in (seed if isinstance(seed, list) else [seed]))
        return real(self, seed, stream, shape)

    monkeypatch.setattr(cogia.scenario._SubstreamFactory, "normal", spy)
    return drawn


def channel_draws(drawn: list[tuple[int, int]]) -> list[int]:
    """The seeds of the channel draws among ``drawn``, one per lane, in draw order."""
    return [s for s, k in drawn if k == CHANNEL_STREAM]


# the construction stage that refuses a tuple violating just this condition
STAGE_OF_CONDITION = {
    "d_S1 <= N_S": "selectors", "d_S2 <= N_S": "selectors",
    "d_S1 <= M_S - N_S": "secondary", "d_S2 <= M_S - N_S": "secondary",
    "d_P1 <= M_P": "primary_precoders", "d_P2 <= M_P": "primary_precoders",
    "M_S >= N_P when d_Pi > Z": "corrections",
    "N_P >= d_P1 + d_S1 + d_S2": "primary_receivers", "N_P >= d_P2 + d_S1 + d_S2": "primary_receivers",
}


def assert_refusal_draws(drawn: list[tuple[int, int]], stage: str, draw_seed: int) -> None:
    """What a one-lane attempt refused at ``stage`` drew from ``draw_seed``.

    The selectors refuse before anything is drawn.  Every later stage
    refuses after exactly one channel draw; the secondary alignment also
    refuses before any precoder column is drawn.
    """
    if stage == "selectors":
        assert drawn == []
    elif stage == "secondary":
        assert drawn == [(draw_seed, CHANNEL_STREAM)]
    else:
        assert channel_draws(drawn) == [draw_seed]


class TestDrawSystem:
    # one tuple per closed-form condition, each violating only that one
    # except (3,3,3,3)/(4,0,0,0), which also breaks the receiver count
    @pytest.mark.parametrize(
        "dims_tuple, alloc_tuple, condition, error",
        [
            ((5, 5, 5, 3), (0, 0, 3, 0), "d_S1 <= M_S - N_S", NoComplement),
            ((3, 3, 3, 3), (0, 0, 1, 0), "d_S1 <= M_S - N_S", NoComplement),
            ((8, 8, 2, 2), (0, 0, 3, 0), "d_S1 <= N_S", RankDeficient),
            ((3, 3, 3, 3), (4, 0, 0, 0), "d_P1 <= M_P", RankDeficient),
            ((5, 5, 5, 3), (2, 0, 2, 2), "N_P >= d_P1 + d_S1 + d_S2", NoComplement),
            ((3, 2, 3, 1), (1, 0, 0, 0), "M_S >= N_P when d_Pi > Z", RankDeficient),
        ],
    )
    def test_structural_failure_on_first_draw(self, monkeypatch, dims_tuple, alloc_tuple, condition, error):
        dims, alloc = NetworkDims(*dims_tuple), StreamAlloc(*alloc_tuple)
        assert condition in [v.condition for v in closed_form_feasible(dims, alloc).violated]
        drawn = spy_on_draws(monkeypatch)
        with pytest.raises(error) as refusal:
            draw_system(dims, alloc, 31)
        stage = refusal.value.stage
        assert stage == STAGE_OF_CONDITION[condition]
        assert_refusal_draws(drawn, stage, derive_seed(31, 0))

    def test_refusal_stage_matches_a_violated_condition(self, monkeypatch):
        # every closed-form-infeasible tuple of every quartet with entries
        # <= 3: the stage the refusal names must have a closed-form
        # condition of its own among the violated ones, and the attempt
        # must have drawn nothing before the selectors and one channel
        # draw after them
        refused = dict.fromkeys(STAGE_OF_CONDITION.values(), 0)
        drawn = spy_on_draws(monkeypatch)
        for q in itertools.product(range(1, 4), repeat=4):
            dims = NetworkDims(*q)
            for alloc in grid_tuples(dims):
                violated = {v.condition for v in closed_form_feasible(dims, alloc).violated}
                if not violated:
                    continue
                drawn.clear()
                seed = derive_seed(4, *q, *alloc.as_tuple())
                with pytest.raises((NoComplement, RankDeficient)) as refusal:
                    draw_system(dims, alloc, seed)
                stage = refusal.value.stage
                assert stage in {STAGE_OF_CONDITION[c] for c in violated}, (q, alloc, stage, violated)
                assert_refusal_draws(drawn, stage, derive_seed(seed, 0))
                refused[stage] += 1
        # the grid asks at most M_P primary streams, so the primary precoders
        # refuse only outside it (see test_structural_failure_on_first_draw)
        assert refused == {
            "selectors": 2088, "secondary": 3915, "primary_precoders": 0, "corrections": 303, "primary_receivers": 671,
        }

    def test_feasible_first_draw_matches_build_all(self):
        dims, alloc = NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2)
        ch, prs = draw_system(dims, alloc, 4)
        draw_seed = derive_seed(4, 0)
        assert np.array_equal(ch.H_P1, generate_channels(dims, draw_seed).H_P1)
        assert np.array_equal(prs.V_P1, build_all(ch, alloc, draw_seed).V_P1)

    def test_selector_refusal_derives_only_trial_0s_seed(self, monkeypatch):
        # the selectors run before draw_system derives an attempt seed, so
        # the oracle's one derivation is trial 0's own, and nothing is drawn
        derived = []

        def spy(*path):
            derived.append(path)
            return derive_seed(*path)

        for module in (cogia.alignment, cogia.dof):
            monkeypatch.setattr(module, "derive_seed", spy)
        drawn = spy_on_draws(monkeypatch)
        verdict = constructive_check(NetworkDims(3, 5, 3, 2), StreamAlloc(0, 0, 3, 0), trials=20, seed=44)
        assert [v.detail for v in verdict.violated] == [
            "trial 0: RankDeficient: selector U_S1 is 2x3: too few receive coordinates"
        ]
        assert derived == [(44, 0)]
        assert drawn == []

    def test_empty_seed_list_raises_before_any_draw(self, monkeypatch):
        dims, alloc = NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2)
        drawn = spy_on_draws(monkeypatch)
        with pytest.raises(ScenarioError, match="at least one seed"):
            draw_system(dims, alloc, [])
        with pytest.raises(ScenarioError, match="at least one seed"):
            build_all(generate_channels(dims, []), alloc, [])
        # seeds are an integer or a list, as for generate_channels
        with pytest.raises(ScenarioError, match="integer"):
            draw_system(dims, alloc, (1, 2))
        assert drawn == []

    def test_degenerate_draws_exhaust_budget(self, monkeypatch):
        def degenerate(ch, d, seed, *secondary):
            raise DegenerateChannel("forced", lanes=np.array(True))

        monkeypatch.setattr(cogia.alignment, "_build_primary", degenerate)
        drawn = spy_on_draws(monkeypatch)
        with pytest.raises(TooManyDegenerateDraws):
            draw_system(NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2), 9)
        # one channel draw per attempt, and no precoder column
        assert drawn == [(derive_seed(9, a), CHANNEL_STREAM) for a in range(MAX_DEGENERATE_RETRIES)]


PRS_ARRAYS = [f.name for f in dataclasses.fields(PrecoderReceiverSet)]
CHANNEL_ARRAYS = [f.name for f in dataclasses.fields(ChannelSet) if f.name != "dims"]
# the README scenario and the widest benchmark scenario
STACK_CASES = [((5, 5, 5, 3), (1, 0, 2, 2)), ((12, 16, 10, 5), (4, 4, 3, 3))]


class TestStackedDraws:
    @pytest.mark.parametrize("dims_tuple, alloc_tuple", STACK_CASES)
    def test_lane_equals_single_draw(self, dims_tuple, alloc_tuple):
        dims, alloc = NetworkDims(*dims_tuple), StreamAlloc(*alloc_tuple)
        seeds = [derive_seed(7, t) for t in range(20)]
        ch, prs = draw_system(dims, alloc, seeds)
        assert prs.V_P1.shape == (20, dims.M_P, alloc.d_P1)
        for t, seed in enumerate(seeds):
            ch_t, prs_t = draw_system(dims, alloc, seed)
            for name in CHANNEL_ARRAYS:
                assert same_bits(getattr(ch, name)[t], getattr(ch_t, name)), (t, name)
            for name in PRS_ARRAYS:
                assert same_bits(getattr(prs, name)[t], getattr(prs_t, name)), (t, name)

    @pytest.mark.parametrize("dims_tuple, alloc_tuple", STACK_CASES)
    def test_only_the_degenerate_lane_is_redrawn(self, monkeypatch, dims_tuple, alloc_tuple):
        dims, alloc = NetworkDims(*dims_tuple), StreamAlloc(*alloc_tuple)
        seeds = [derive_seed(8, t) for t in range(20)]
        _, clean = draw_system(dims, alloc, seeds)
        redraw_seed = derive_seed(seeds[5], 1)
        redrawn = build_all(generate_channels(dims, redraw_seed), alloc, redraw_seed)
        real = cogia.alignment._build_primary
        forced = np.zeros(20, dtype=bool)
        forced[5] = True
        builds = []

        def flaky(ch, d, seed, *secondary):
            builds.append(len(seed))
            if len(builds) == 1:
                raise DegenerateChannel("forced", lanes=forced)
            return real(ch, d, seed, *secondary)

        monkeypatch.setattr(cogia.alignment, "_build_primary", flaky)
        drawn = spy_on_draws(monkeypatch)
        _, prs = draw_system(dims, alloc, seeds)
        # attempt 2 draws the whole stack again, lane 5 at its next seed
        first = [derive_seed(s, 0) for s in seeds]
        second = first[:5] + [redraw_seed] + first[6:]
        assert channel_draws(drawn) == first + second
        assert builds == [20, 20]
        for name in PRS_ARRAYS:
            for t in range(20):
                expected = getattr(redrawn, name) if t == 5 else getattr(clean, name)[t]
                assert same_bits(getattr(prs, name)[t], expected), (t, name)

    def test_lane_degenerate_at_the_secondary_alignment_is_redrawn(self, monkeypatch):
        # each attempt makes one channel draw per lane: the first stops at
        # the secondary alignment, the second redraws lane 5 at its next seed
        dims, alloc = NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2)
        seeds = [derive_seed(8, t) for t in range(20)]
        _, clean = draw_system(dims, alloc, seeds)
        redraw_seed = derive_seed(seeds[5], 1)
        redrawn = build_all(generate_channels(dims, redraw_seed), alloc, redraw_seed)
        real = cogia.alignment.build_secondary_precoders
        forced = np.zeros(20, dtype=bool)
        forced[5] = True
        aligned = []

        def flaky(H_S1, *rest):
            aligned.append(len(H_S1))
            if len(aligned) == 1:
                raise DegenerateChannel("forced", lanes=forced)
            return real(H_S1, *rest)

        monkeypatch.setattr(cogia.alignment, "build_secondary_precoders", flaky)
        drawn = spy_on_draws(monkeypatch)
        _, prs = draw_system(dims, alloc, seeds)
        first = [derive_seed(s, 0) for s in seeds]
        second = first[:5] + [redraw_seed] + first[6:]
        assert channel_draws(drawn) == first + second
        # the first attempt drew no precoder column
        assert drawn[:40] == [(s, CHANNEL_STREAM) for s in first + second]
        assert aligned == [20, 20]
        for name in PRS_ARRAYS:
            for t in range(20):
                expected = getattr(redrawn, name) if t == 5 else getattr(clean, name)[t]
                assert same_bits(getattr(prs, name)[t], expected), (t, name)

    @pytest.mark.parametrize("lanes", [20, None], ids=["stack_lane_5", "one_draw"])
    def test_zero_norm_precoder_column_is_redrawn(self, monkeypatch, lanes):
        # (5,5,5,3)/(1,0,2,2) has Z = 0, so V_P1's one column is a random draw;
        # the first draw of that column comes back zero in lane 5 (the draw)
        dims, alloc = NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2)
        trials = [derive_seed(4, t) for t in range(20)] if lanes else [derive_seed(4, 0)]
        seeds = trials if lanes else trials[0]
        k = 5 if lanes else 0
        _, clean = draw_system(dims, alloc, seeds)
        redraw_seed = derive_seed(trials[k], 1)
        redrawn = build_all(generate_channels(dims, redraw_seed), alloc, redraw_seed)
        real = cogia.scenario._SubstreamFactory.normal
        zeroed = []

        def zero_lane(self, seed, stream, shape):
            out = real(self, seed, stream, shape)
            if stream == PRECODER_STREAM_P1 and not zeroed:
                zeroed.append(seed)
                out[k if lanes else ...] = 0.0
            return out

        monkeypatch.setattr(cogia.scenario._SubstreamFactory, "normal", zero_lane)
        with pytest.raises(DegenerateChannel, match="drawn precoder column has zero norm") as info:
            build_primary_precoders(generate_channels(dims, seeds), alloc, seeds)
        if lanes:
            assert info.value.lanes.tolist() == [t == k for t in range(20)]
        else:
            assert info.value.lanes.ndim == 0 and info.value.lanes
        zeroed.clear()
        drawn = spy_on_draws(monkeypatch)
        _, prs = draw_system(dims, alloc, seeds)
        # attempt 2 draws the whole stack again, only lane k at its next seed
        first = [derive_seed(s, 0) for s in trials]
        assert channel_draws(drawn) == first + first[:k] + [redraw_seed] + first[k + 1 :]
        for name in PRS_ARRAYS:
            got, want = getattr(prs, name), getattr(clean, name)
            if not lanes:
                got, want = got[None], want[None]
            for t in range(len(trials)):
                assert same_bits(got[t], getattr(redrawn, name) if t == k else want[t]), (t, name)

    def test_stacked_report_matches_single_reports(self):
        dims, alloc = NetworkDims(5, 5, 5, 3), StreamAlloc(1, 1, 1, 1)
        seeds = [derive_seed(9, t) for t in range(6)]
        report = interference_report(*draw_system(dims, alloc, seeds))
        for t, seed in enumerate(seeds):
            single = interference_report(*draw_system(dims, alloc, seed))
            assert report.worst_case[t] == single.worst_case
            assert all(report.entries[k][t] == v for k, v in single.entries.items())
