"""Water-filling, cell rates and rate-region sweeps."""

import dataclasses
import math
import random

import numpy as np
import pytest

import cogia.alignment
import cogia.rates
from cogia.alignment import (
    EffectiveChannels,
    PrecoderReceiverSet,
    build_all,
    draw_system,
    draw_trials,
    effective_channels,
)
from cogia.dof import closed_form_feasible
from cogia.errors import InfeasibleAlloc, ScenarioError
from cogia.numerics import RANK_TOL
from cogia.rates import (
    CellAllocation,
    StreamGroup,
    cell_sum_rates,
    kkt_violation,
    pcell_sum_rate,
    rate_region_sweep,
    scell_sum_rate,
    waterfill_cell,
)
from cogia.scenario import (
    MAX_ANTENNAS,
    NetworkDims,
    NoiseAndPower,
    StreamAlloc,
    derive_seed,
    generate_channels,
    load_scenario,
)
from bits import same_bits, spy_on_assemblies, spy_on_solves
from test_kernel_pin import RATE_CASES, SCENARIOS, fields


def haar_columns(rng, m, k):
    q, _ = np.linalg.qr(rng.standard_normal((m, k)))
    return q[:, :k]


def synthetic_prs_eff(E1, V1, n_rx=None):
    """Single-primary-user system with a prescribed effective channel."""
    d = E1.shape[1]
    n_rx = n_rx or E1.shape[0]
    U = np.eye(n_rx)[:, :d]
    G = np.vstack([E1, np.zeros((n_rx - E1.shape[0], d))]) if E1.shape[0] < n_rx else E1
    prs = PrecoderReceiverSet(
        V_P1=V1, V_P2=np.zeros((V1.shape[0], 0)),
        Vbar_P1=np.zeros_like(V1), Vbar_P2=np.zeros((V1.shape[0], 0)),
        V_S1=np.zeros((V1.shape[0], 0)), V_S2=np.zeros((V1.shape[0], 0)),
        U_P1=U, U_P2=np.zeros((n_rx, 0)),
        U_S1=np.zeros((1, 0)), U_S2=np.zeros((1, 0)),
    )
    eff = EffectiveChannels(
        G_P1=G, G_P2=np.zeros((n_rx, 0)),
        D_P1=U.T @ G, D_P2=np.zeros((0, 0)),
        D_S1=np.zeros((0, 0)), D_S2=np.zeros((0, 0)),
    )
    return prs, eff


class TestWaterfill:
    def test_symmetric_two_streams(self):
        res = waterfill_cell([StreamGroup(np.array([1.0, 1.0]), 1.0, np.eye(2), np.eye(2))], 1.0)
        np.testing.assert_allclose(res.per_stream_power[0], [1.0, 1.0], atol=1e-10)
        assert abs(res.water_level - 2.0) < 1e-10
        assert abs(res.achieved_constraint - 1.0) < 1e-10

    def test_hand_computed_active_set(self):
        # costs sigma2/gamma^2 = (0.5, 2.0), power 1 (cell budget 0.5): only stream 1 active
        gammas = np.array([math.sqrt(2.0), math.sqrt(0.5)])
        res = waterfill_cell([StreamGroup(gammas, 1.0, np.eye(2), np.eye(2))], 0.5)
        assert abs(res.water_level - 1.5) < 1e-10
        np.testing.assert_allclose(res.per_stream_power[0], [1.0, 0.0], atol=1e-10)

    def test_large_budget_asymptotics(self):
        # with every stream active, power differences equal cost differences
        gammas = np.array([2.0, 0.5])
        q = waterfill_cell([StreamGroup(gammas, 1.0, np.eye(2), np.eye(2))], 1e6 / 2).per_stream_power[0]
        expected_gap = 1.0 / 0.25 - 1.0 / 4.0
        assert abs((q[0] - q[1]) - expected_gap) < 1e-6

    def test_zero_budget_is_exactly_zero(self):
        res = waterfill_cell([StreamGroup(np.array([1.0, 2.0]), 1.0, np.eye(2), np.eye(2))], 0.0)
        assert res.water_level == 0.0
        assert not res.per_stream_power[0].any()
        assert not res.Q[0].any()

    def test_dead_streams_get_nothing(self):
        gammas = np.array([1.0, 0.0])
        res = waterfill_cell([StreamGroup(gammas, 1.0, np.eye(2), np.eye(2))], 3.0 / 2)
        assert res.per_stream_power[0][1] == 0.0
        assert abs(res.achieved_constraint - 1.5) < 1e-8 * 1.5

    def test_all_dead_flagged(self):
        res = waterfill_cell([StreamGroup(np.zeros(2), 1.0, np.eye(2), np.eye(2))], 1.0 / 2)
        assert res.no_positive_gain
        assert not res.per_stream_power[0].any()

    def test_kkt_certificate_seeded(self):
        for i in range(50):
            rng = np.random.default_rng(3000 + i)
            n = int(rng.integers(1, 5))
            gammas = rng.uniform(0.2, 3.0, size=n)
            sigma2 = float(rng.uniform(0.5, 2.0))
            budget = float(rng.uniform(0.2, 20.0))
            Psi = haar_columns(rng, n, n)
            V = haar_columns(rng, n + 2, n)
            groups = [StreamGroup(gammas, sigma2, V, Psi)]
            res = waterfill_cell(groups, budget / 2)
            assert kkt_violation(res, groups) <= 1e-8
            if res.per_stream_power[0].any():
                assert abs(2 * res.achieved_constraint - budget) <= 1e-8 * budget
            evals = np.linalg.eigvalsh((res.Q[0] + res.Q[0].T) / 2)
            assert evals.min() > -1e-9

    def test_kkt_gap_skips_streams_the_solve_treats_as_dead(self):
        # gamma 1.0 is below rank_tol * 1e12, so the solve gives it no power
        # although its cost (1.0) lies under the water level (about 10)
        gammas = np.array([1e12, 1.0])
        groups = [StreamGroup(gammas, 1.0, np.eye(2), np.eye(2))]
        cell = waterfill_cell(groups, 10.0 / 2)
        assert cell.per_stream_power[0][1] == 0.0 and cell.water_level > 1.0
        assert kkt_violation(cell, groups) <= 1e-8
        assert cell.kkt_gap <= 1e-8

    def test_kkt_gap_catches_unspent_budget(self):
        gammas = np.array([2.0, 1.0, 0.5])
        groups = [StreamGroup(gammas, 1.0, np.eye(3), np.eye(3))]
        res = waterfill_cell(groups, 10.0 / 2)
        assert kkt_violation(res, groups) <= 1e-8
        halved = dataclasses.replace(res, achieved_constraint=res.achieved_constraint / 2)
        assert kkt_violation(halved, groups) > 1e-8

    @pytest.mark.parametrize("budget", [10.0, 1e300])
    def test_kkt_stationarity_is_relative_to_the_water_level(self, budget):
        # one ulp on an active stream's power reads as one ulp at any budget
        gammas = np.array([2.0, 1.0])
        groups = [StreamGroup(gammas, 1.0, np.eye(2), np.eye(2))]
        res = waterfill_cell(groups, budget / 2)
        assert res.per_stream_power[0].all()
        q = res.per_stream_power[0].copy()
        q[0] = np.nextafter(q[0], math.inf)
        nudged = dataclasses.replace(res, per_stream_power=(q,))
        assert 0.0 < kkt_violation(nudged, groups) <= 1e-15
        halved = dataclasses.replace(res, achieved_constraint=res.achieved_constraint / 2)
        assert kkt_violation(halved, groups) > 1e-8

    def test_beats_random_diagonal_allocations(self):
        # independent oracle: dense random search over feasible diagonal
        # allocations in the same Psi basis can never do better
        for i in range(10):
            rng = np.random.default_rng(4000 + i)
            n = int(rng.integers(2, 5))
            gammas = rng.uniform(0.2, 3.0, size=n)
            sigma2 = float(rng.uniform(0.5, 2.0))
            budget = float(rng.uniform(0.5, 10.0))
            Psi = haar_columns(rng, n, n)
            V = haar_columns(rng, n + 1, n)  # orthonormal: traced power is sum(q)
            res = waterfill_cell([StreamGroup(gammas, sigma2, V, Psi)], budget / 2)

            def rate(q):
                return 0.5 * np.sum(np.log2(1.0 + gammas**2 * q / sigma2))

            best = rate(res.per_stream_power[0])
            for _ in range(1000):
                q = rng.dirichlet(np.ones(n)) * budget
                assert rate(q) <= best + 1e-6
            for j in range(n):
                corner = np.zeros(n)
                corner[j] = budget
                assert rate(corner) <= best + 1e-6
            assert rate(np.full(n, budget / n)) <= best + 1e-6


def traced_power(groups, lam, rank_tol=1e-9):
    """A cell's traced power at water level ``lam``, under the 1/2 trace convention."""
    total = 0.0
    for grp in groups:
        g = np.asarray(grp.gammas, dtype=float)
        alive = g > rank_tol * g.max() if g.size and g.max() > 0.0 else np.zeros(g.shape, dtype=bool)
        cost = np.full(g.shape, np.inf)
        cost[alive] = grp.sigma2 / g[alive] ** 2
        VPsi = grp.V @ grp.Psi
        w = np.einsum("ij,ij->j", VPsi, VPsi)
        w[~alive] = 0.0
        q = np.maximum(0.0, lam - cost)
        q[~alive] = 0.0
        total += float(w @ q)
    return 0.5 * total


class TestCellWaterfill:
    def test_closed_form_level_within_3_ulps_seeded(self):
        for i in range(200):
            rng = np.random.default_rng(7000 + i)
            groups = []
            for _ in range(int(rng.integers(1, 3))):
                n = int(rng.integers(1, 5))
                gammas = rng.uniform(0.2, 3.0, size=n)
                V = rng.standard_normal((n + 2, n))
                if n > 1 and i % 3 == 0:
                    gammas[1] = gammas[0]  # tied costs
                if n > 1 and i % 5 == 1:
                    V[:, 0] = 0.0  # alive stream with zero traced weight
                if n > 2 and i % 7 == 2:
                    gammas[-1] = 0.0  # dead stream
                groups.append(StreamGroup(gammas, float(rng.uniform(0.5, 2.0)), V, haar_columns(rng, n, n)))
            budget = float(rng.uniform(0.0, 1.0) * 10.0 ** rng.integers(-3, 4)) if i % 10 else 0.0
            cell = waterfill_cell(groups, budget)
            lam = cell.water_level
            if budget == 0.0:
                assert lam == 0.0
                continue
            assert cell.kkt_gap <= 1e-8
            # step from lam to the smallest double whose traced power reaches the budget
            ref, steps = lam, 0
            while traced_power(groups, ref) < budget and steps <= 3:
                ref, steps = np.nextafter(ref, math.inf), steps + 1
            while traced_power(groups, np.nextafter(ref, 0.0)) >= budget and steps <= 3:
                ref, steps = np.nextafter(ref, 0.0), steps + 1
            assert steps <= 3, (i, lam, ref)

    def test_zero_level_edge_cases(self):
        rng = np.random.default_rng(8)
        V, Psi = rng.standard_normal((4, 2)), haar_columns(rng, 2, 2)
        live = StreamGroup(np.array([1.0, 2.0]), 1.0, V, Psi)
        weightless = StreamGroup(np.array([1.0, 2.0]), 1.0, np.zeros((4, 2)), Psi)
        dead = StreamGroup(np.zeros(2), 1.0, V, Psi)
        assert waterfill_cell([live], 0.0).water_level == 0.0
        assert waterfill_cell([weightless], 3.0).water_level == 0.0
        assert waterfill_cell([dead], 3.0).water_level == 0.0
        cell = waterfill_cell([weightless, live], 3.0)
        assert cell.water_level > 0.0
        assert cell.per_stream_power[0].all()  # free streams still fill to the level

    @pytest.mark.parametrize(
        "budget",
        [
            math.inf,
            math.nan,
            -1.0,
            pytest.param(np.array([1.0, math.inf]), id="vector-inf"),
            pytest.param(np.array([math.nan, 1.0]), id="vector-nan"),
            pytest.param(np.array([2.0, -1.0]), id="vector-negative"),
            pytest.param(np.ones((2, 2)), id="2-D"),
            # numpy would read each as a number: 1.0, 2.0, [1.0]
            pytest.param(True, id="bool"),
            pytest.param("2", id="string"),
            pytest.param([True], id="bool-vector"),
        ],
    )
    def test_bad_budget_raises(self, budget):
        grp = StreamGroup(np.array([1.0]), 1.0, np.eye(1), np.eye(1))
        with pytest.raises(ValueError, match="^budget must be finite and nonnegative, a float or a 1-D array, got "):
            waterfill_cell([grp], budget)

    def test_carried_kkt_gap(self):
        rng = np.random.default_rng(12)
        groups = [StreamGroup(rng.uniform(0.5, 2.0, 3), 1.5, rng.standard_normal((5, 3)), haar_columns(rng, 3, 3))]
        cell = waterfill_cell(groups, budget=4.0)
        assert cell.kkt_gap == kkt_violation(cell, groups)
        assert cell.kkt_gap <= 1e-8

    def test_shared_water_level_two_users(self):
        rng = np.random.default_rng(9)
        g1, g2 = rng.uniform(0.5, 2.0, 2), rng.uniform(0.5, 2.0, 3)
        groups = [
            StreamGroup(g1, 1.0, haar_columns(rng, 4, 2), haar_columns(rng, 2, 2)),
            StreamGroup(g2, 2.0, haar_columns(rng, 4, 3), haar_columns(rng, 3, 3)),
        ]
        cell = waterfill_cell(groups, budget=5.0)
        assert len(cell.per_stream_power) == len(cell.Q) == 2
        # both users fill to the one water level
        assert kkt_violation(cell, groups) <= 1e-8
        assert abs(cell.achieved_constraint - 5.0) <= 1e-8 * 5.0
        # the cell budget uses the 1/2 trace convention
        total = sum(
            float(np.einsum("ij,ij->", grp.V @ Q, grp.V))
            for grp, Q in zip(groups, cell.Q)
        )
        assert abs(0.5 * total - 5.0) <= 1e-8 * 5.0

    def test_one_solve_and_one_assembly_per_call(self, monkeypatch):
        # the one-cell entry returns a CellAllocation, so it runs both steps, once each
        solves, assembled = spy_on_solves(monkeypatch), spy_on_assemblies(monkeypatch)
        V, Psi = np.broadcast_to(np.eye(3)[:, :2], (2, 3, 2)), np.broadcast_to(np.eye(2), (2, 2, 2))
        cell = waterfill_cell([StreamGroup(np.array([[2.0, 0.5], [1.0, 0.0]]), 1.0, V, Psi)], np.array([1.0, 4.0]))
        assert np.shape(cell.water_level) == (2, 2) and len(cell.Q) == 1
        assert [(rows.tolist(), lanes) for rows, lanes in solves] == [([[1.0, 4.0]], (2,))] and assembled == [1]


def reference_costs(grp: StreamGroup) -> np.ndarray:
    """``sigma2 / gamma^2`` per stream, infinite at or below RANK_TOL times the group's largest gamma."""
    alive = grp.gammas > RANK_TOL * grp.gammas.max(axis=-1, keepdims=True, initial=0.0)
    return np.where(alive, grp.sigma2 / np.where(alive, grp.gammas, 1.0) ** 2, np.inf)


def same_bits_or_nan(a, b) -> bool:
    """Bit for bit where neither is nan, and nan in the same places (a nan's sign bit is not compared)."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()) and same_bits(np.where(nan, 0.0, a), np.where(nan, 0.0, b))


class TestSolveGapIsTheCertificate:
    """The solve's own gap is the budget residual; the certificate's stationarity half reads 0 on its powers."""

    # (streams, dead streams) per group, as in the rate-layer bit pin
    SPECS = [
        ((1, 0),), ((2, 0), (3, 0)), ((4, 0), (0, 0), (1, 0)), ((3, 1), (2, 0)), ((2, 0), (2, 2)), ((0, 0), (4, 1)),
    ]

    @staticmethod
    def seeded_groups(rng, spec, lanes):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)  # the channel scale
        groups = []
        for k, dead in spec:
            gammas = scale * np.abs(rng.standard_normal(lanes + (k,)))
            gammas[..., k - dead :] = 0.0
            Psi = np.linalg.qr(rng.standard_normal(lanes + (k, k)))[0]
            sigma2 = float(10.0 ** rng.uniform(-6.0, math.log10(2.5)))
            groups.append(StreamGroup(gammas, sigma2, rng.standard_normal(lanes + (k + 2, k)), Psi))
        return groups

    def assert_certified(self, cell, groups, same):
        assert same(kkt_violation(cell, groups), cell.kkt_gap)
        lam = np.asarray(cell.water_level)[..., None]
        for grp, q in zip(groups, cell.per_stream_power, strict=True):
            assert same(q, np.maximum(0.0, lam - reference_costs(grp)))

    def test_gap_equals_the_certificate_seeded(self):
        for i in range(1200):
            rng = np.random.default_rng(41000 + i)
            lanes = ((), (3,), (2, 3))[i % 3]
            groups = self.seeded_groups(rng, self.SPECS[i // 3 % len(self.SPECS)], lanes)
            budget = (0.0, float(10.0 ** rng.uniform(-4.0, 6.0)), 10.0 ** rng.uniform(-4.0, 6.0, 3))[i // 18 % 3]
            cell = waterfill_cell(groups, budget)
            self.assert_certified(cell, groups, same_bits)
            assert len({id(q.base) for q in cell.per_stream_power}) == 1  # views of one array

    def test_overflowing_budget_reads_nan_in_both(self):
        for i in range(60):
            rng = np.random.default_rng(42000 + i)
            groups = self.seeded_groups(rng, self.SPECS[i % len(self.SPECS)], ((), (3,))[i % 2])
            with np.errstate(over="ignore", invalid="ignore"):
                cell = waterfill_cell(groups, np.array([1.0, 1e308]))
                self.assert_certified(cell, groups, same_bits_or_nan)
            assert np.isnan(cell.kkt_gap[1]).all() and not np.isnan(cell.kkt_gap[0]).any()


class TestCellRates:
    def test_scalar_half_bit(self):
        # unit gain, unit noise, power 1 (cell budget 0.5): R = 0.5 bits
        prs, eff = synthetic_prs_eff(np.eye(1), np.eye(1))
        noise = NoiseAndPower(Qav_P=0.5)
        res = pcell_sum_rate(prs, eff, noise)
        assert abs(res.sum_rate - 0.5) < 1e-9
        np.testing.assert_allclose(res.allocation.per_stream_power[0], [1.0], atol=1e-9)

    def test_vanishing_budget(self):
        prs, eff = synthetic_prs_eff(np.eye(1), np.eye(1))
        res = pcell_sum_rate(prs, eff, NoiseAndPower(Qav_P=1e-12))
        assert res.sum_rate < 1e-11

    def test_rotation_invariance(self):
        rng = np.random.default_rng(21)
        E = rng.standard_normal((3, 3))
        O = haar_columns(rng, 3, 3)
        V = haar_columns(rng, 5, 3)
        prs1, eff1 = synthetic_prs_eff(E, V)
        prs2, eff2 = synthetic_prs_eff(O @ E, V)
        noise = NoiseAndPower(Qav_P=4.0)
        r1 = pcell_sum_rate(prs1, eff1, noise).sum_rate
        r2 = pcell_sum_rate(prs2, eff2, noise).sum_rate
        assert abs(r1 - r2) < 1e-9

    def test_scell_zero_streams(self):
        dims = NetworkDims(5, 5, 5, 3)
        ch = generate_channels(dims, 30)
        prs = build_all(ch, StreamAlloc(1, 0, 0, 0), 30)
        eff = effective_channels(ch, prs)
        res = scell_sum_rate(prs, eff, NoiseAndPower())
        assert res.sum_rate == 0.0
        assert res.allocation.per_stream_power == res.allocation.Q == ()
        assert kkt_violation(res.allocation, []) == res.allocation.kkt_gap == 0.0

    def test_scell_scalar_closed_form(self):
        dims = NetworkDims(5, 5, 5, 3)
        ch = generate_channels(dims, 31)
        prs = build_all(ch, StreamAlloc(0, 0, 1, 0), 31)
        eff = effective_channels(ch, prs)
        noise = NoiseAndPower(Qav_S=2.0)
        res = scell_sum_rate(prs, eff, noise)
        g = eff.D_S1[0, 0]
        q = res.allocation.per_stream_power[0][0]
        assert abs(res.sum_rate - 0.5 * math.log2(1.0 + g * g * q / 1.0)) < 1e-9

    def test_pipeline_beats_diagonal_search(self):
        # grid-search oracle on the real pipeline (single-stream primary)
        dims = NetworkDims(5, 5, 5, 3)
        noise = NoiseAndPower(Qav_P=5.0, Qav_S=5.0)
        rng = np.random.default_rng(101)
        for seed in (1, 2, 3):
            ch = generate_channels(dims, seed)
            prs = build_all(ch, StreamAlloc(1, 0, 2, 2), seed)
            eff = effective_channels(ch, prs)
            res = scell_sum_rate(prs, eff, noise)
            # search over diagonal allocations for the two secondary users
            d1 = np.abs(np.diag(eff.D_S1))
            d2 = np.abs(np.diag(eff.D_S2))
            gains = np.concatenate([d1, d2])
            w = np.concatenate(
                [np.linalg.norm(prs.V_S1, axis=0) ** 2, np.linalg.norm(prs.V_S2, axis=0) ** 2]
            )
            best = res.sum_rate
            for _ in range(1000):
                q = rng.dirichlet(np.ones(gains.size))
                q = q * (2.0 * noise.Qav_S) / (w @ q)
                rate = 0.5 * np.sum(np.log2(1.0 + gains**2 * q))
                assert rate <= best + 1e-6

    def test_pcell_matches_grid_search(self):
        # single primary stream: R_P agrees with a brute-force scan over
        # feasible diagonal allocations to well under 1e-3 bits
        dims = NetworkDims(5, 5, 5, 3)
        noise = NoiseAndPower(Qav_P=5.0, Qav_S=5.0)
        for seed in (4, 5, 6):
            ch = generate_channels(dims, seed)
            prs = build_all(ch, StreamAlloc(1, 0, 2, 2), seed)
            eff = effective_channels(ch, prs)
            res = pcell_sum_rate(prs, eff, noise)
            E = prs.U_P1.T @ eff.G_P1
            g = abs(E[0, 0])
            w = float(np.linalg.norm(prs.V_P1[:, 0]) ** 2)
            best = max(
                0.5 * math.log2(1.0 + g * g * q / 1.0)
                for q in np.linspace(0.0, 2.0 * noise.Qav_P / w, 1000)
            )
            assert abs(res.sum_rate - best) < 1e-3

    @pytest.mark.parametrize(
        "system", [(5, 5, 5, 3, 1, 0, 2, 2), (12, 16, 10, 5, 4, 4, 3, 3), "synthetic"]
    )
    def test_rate_is_the_log_det_of_the_solved_covariances(self, system):
        # the stream sum equals (1/2) sum_i log2 det(I + E_i Q^i E_i^T / sigma_i^2),
        # formed here from the effective channels and the solved covariances
        noise = NoiseAndPower(sigma2_P1=0.5, sigma2_S2=2.0, Qav_P=10.0, Qav_S=3.0)
        if system == "synthetic":
            # a dead stream (E has rank 2) and non-orthonormal precoder columns
            rng = np.random.default_rng(61)
            E = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
            prs, eff = synthetic_prs_eff(E, rng.standard_normal((5, 3)))
            assert pcell_sum_rate(prs, eff, noise).allocation.per_stream_power[0][-1] == 0.0
        else:
            dims, alloc = NetworkDims(*system[:4]), StreamAlloc(*system[4:])
            ch, prs = draw_system(dims, alloc, [derive_seed(17, t) for t in range(8)])
            eff = effective_channels(ch, prs)
        cells = (
            (pcell_sum_rate, (eff.D_P1, eff.D_P2), (noise.sigma2_P1, noise.sigma2_P2)),
            (scell_sum_rate, (eff.D_S1, eff.D_S2), (noise.sigma2_S1, noise.sigma2_S2)),
        )
        for rate, effectives, sigma2s in cells:
            res = rate(prs, eff, noise)
            served = [(E, s2) for E, s2 in zip(effectives, sigma2s) if E.shape[-1]]
            logdet = 0.0
            for (E, s2), Q in zip(served, res.allocation.Q):
                sign, user = np.linalg.slogdet(np.eye(E.shape[-2]) + E @ Q @ np.swapaxes(E, -1, -2) / s2)
                assert (sign > 0).all()
                logdet = logdet + user
            np.testing.assert_allclose(res.sum_rate, 0.5 * logdet / math.log(2.0), rtol=1e-12, atol=0.0)

    def test_correction_power_reported(self):
        dims = NetworkDims(5, 5, 5, 3)
        ch = generate_channels(dims, 33)
        prs = build_all(ch, StreamAlloc(1, 1, 1, 1), 33)
        eff = effective_channels(ch, prs)
        res = pcell_sum_rate(prs, eff, NoiseAndPower(Qav_P=10.0))
        assert res.uncharged_correction_power > 0.0


def lane(obj, t):
    """Lane ``t`` of a stacked PrecoderReceiverSet or EffectiveChannels (views)."""
    arrays = {f.name: getattr(obj, f.name)[t] for f in dataclasses.fields(obj) if isinstance(getattr(obj, f.name), np.ndarray)}
    return dataclasses.replace(obj, **arrays)


def assert_cell_lane(stacked: CellAllocation, single: CellAllocation, t: int) -> None:
    for name in ("water_level", "budget", "achieved_constraint", "no_positive_gain", "kkt_gap"):
        assert same_bits(getattr(stacked, name)[t], getattr(single, name)), (t, name)
    for name in ("per_stream_power", "Q"):
        assert len(getattr(stacked, name)) == len(getattr(single, name)), name
        for u, (user, user_t) in enumerate(zip(getattr(stacked, name), getattr(single, name))):
            assert same_bits(user[t], user_t), (t, u, name)


class TestStackedRates:
    @pytest.mark.parametrize(
        "dims_tuple, alloc_tuple",
        [((5, 5, 5, 3), (1, 0, 2, 2)), ((5, 5, 5, 3), (1, 1, 1, 1)), ((12, 16, 10, 5), (4, 4, 3, 3))],
    )
    def test_lane_equals_single_draw(self, dims_tuple, alloc_tuple):
        dims, alloc = NetworkDims(*dims_tuple), StreamAlloc(*alloc_tuple)
        ch, prs = draw_system(dims, alloc, [derive_seed(7, t) for t in range(20)])
        eff = effective_channels(ch, prs)
        noise = NoiseAndPower(sigma2_P1=0.5, sigma2_S2=2.0, Qav_P=10.0, Qav_S=3.0)
        for rate in (pcell_sum_rate, scell_sum_rate):
            stacked = rate(prs, eff, noise)
            assert stacked.sum_rate.shape == (20,)
            for t in range(20):
                single = rate(lane(prs, t), lane(eff, t), noise)
                assert same_bits(stacked.sum_rate[t], single.sum_rate), (rate.__name__, t)
                assert same_bits(
                    np.broadcast_to(stacked.uncharged_correction_power, (20,))[t], single.uncharged_correction_power
                ), (rate.__name__, t)
                assert_cell_lane(stacked.allocation, single.allocation, t)

    def test_waterfill_cell_lane_equals_single_solve(self):
        # lanes differ in their dead-stream count; one lane is all dead, one
        # has zero traced weight, one has tied costs
        T = 8
        rng = np.random.default_rng(55)
        shapes = ((6, 3), (4, 2))
        gammas = [rng.uniform(0.2, 3.0, (T, n)) for _, n in shapes]
        Vs = [rng.standard_normal((T, m, n)) for m, n in shapes]
        Psis = [np.stack([haar_columns(rng, n, n) for _ in range(T)]) for _, n in shapes]
        gammas[0][1, 2] = 0.0
        gammas[0][2, 1:] = 0.0
        gammas[1][2, 1] = 1e-12
        gammas[0][3], gammas[1][3] = 0.0, 0.0
        Vs[0][4], Vs[1][4] = 0.0, 0.0
        gammas[0][5, 1] = gammas[0][5, 0]
        Vs[1][6][:, 0] = 0.0
        gammas[1][7] = 0.0
        groups = [StreamGroup(g, s2, V, Psi) for g, s2, V, Psi in zip(gammas, (1.5, 0.7), Vs, Psis)]
        for budget in (0.0, 0.3, 4.0, 1e3):
            stacked = waterfill_cell(groups, budget)
            assert stacked.water_level.shape == (T,)
            assert same_bits(kkt_violation(stacked, groups), stacked.kkt_gap)
            for t in range(T):
                lane_groups = [StreamGroup(g.gammas[t], g.sigma2, g.V[t], g.Psi[t]) for g in groups]
                assert_cell_lane(stacked, waterfill_cell(lane_groups, budget), t)
            assert stacked.no_positive_gain.tolist() == [t == 3 for t in range(T)]
            if budget:
                assert (stacked.water_level[[3, 4]] == 0.0).all()
                assert (np.delete(stacked.water_level, [3, 4]) > 0.0).all()
        # the same stack under all four budgets at once: a leading budget axis
        budgets = np.array([0.0, 0.3, 4.0, 1e3])
        stacked = waterfill_cell(groups, budgets)
        assert stacked.water_level.shape == stacked.kkt_gap.shape == (4, T)
        assert same_bits(kkt_violation(stacked, groups), stacked.kkt_gap)
        for b, budget in enumerate(budgets):
            assert_cell_lane(stacked, waterfill_cell(groups, float(budget)), b)


class TestSignBlind:
    """The rate layer reads no sign of ``svd_factor``'s columns.

    A seam negates random column pairs of (Phi, Psi), lane by lane, keeping
    each factor's memory layout: every product the layer forms holds a
    column twice, so no output bit may move.
    """

    @staticmethod
    def flipping(monkeypatch, seed):
        rng, real = np.random.default_rng(seed), cogia.rates.svd_factor
        flips = []

        def factor(E):
            phi, g, psi = real(E)
            flip = rng.random(g.shape) < 0.5
            flips.append(flip)
            phi, psi = phi.copy(order="K"), psi.copy(order="K")
            for X in (phi, psi):
                np.negative(X, out=X, where=flip[..., None, :])
            return phi, g, psi

        monkeypatch.setattr(cogia.rates, "svd_factor", factor)
        return flips

    @pytest.mark.parametrize("dims_tuple, alloc_tuple", RATE_CASES)
    def test_cell_sum_rates_are_sign_blind(self, monkeypatch, dims_tuple, alloc_tuple):
        noise = NoiseAndPower(sigma2_P1=0.5, sigma2_P2=1.5, sigma2_S2=2.0, Qav_P=10.0, Qav_S=3.0)
        dims, alloc = NetworkDims(*dims_tuple), StreamAlloc(*alloc_tuple)
        for seeds in (derive_seed(31, 0), [derive_seed(31, t) for t in range(6)]):
            ch, prs = draw_system(dims, alloc, seeds)
            eff = effective_channels(ch, prs)
            expected = [fields(result) for result in cell_sum_rates(prs, eff, noise)]
            with monkeypatch.context() as m:
                flips = self.flipping(m, seed=len(np.shape(seeds)))
                flipped = [fields(result) for result in cell_sum_rates(prs, eff, noise)]
            assert any(flip.any() for flip in flips)
            for want, got in zip(expected, flipped, strict=True):
                assert len(want) == len(got) and all(same_bits(x, y) for x, y in zip(want, got))

    @pytest.mark.parametrize("dims_tuple, alloc_tuple", RATE_CASES)
    @pytest.mark.parametrize("trials", [1, 5])
    def test_sweep_points_are_sign_blind(self, monkeypatch, dims_tuple, alloc_tuple, trials):
        dims, splits = NetworkDims(*dims_tuple), [StreamAlloc(*alloc_tuple)]
        budgets, noise = [(1.0, 2.0), (30.0, 0.5)], NoiseAndPower(0.5, 1.5, 1.0, 2.0)
        expected = rate_region_sweep(dims, splits, budgets, trials, seed=13, noise=noise)
        flips = self.flipping(monkeypatch, seed=trials)
        flipped = rate_region_sweep(dims, splits, budgets, trials, seed=13, noise=noise)
        assert any(flip.any() for flip in flips)
        for want, got in zip(map(fields, expected), map(fields, flipped), strict=True):
            assert len(want) == len(got) and all(same_bits(x, y) for x, y in zip(want, got))


class TestCellAxis:
    """Cells water-filled together on one cell axis equal each cell solved alone, bit for bit.

    Every cell but the longest is padded with dead streams; the padding
    must not move a bit of any cell's result.
    """

    # per cell, (streams, dead streams, zero traced weight) per group: 0-8
    # streams per cell, dead and zero-weight streams, an all-dead cell, an
    # unserved (zero-group) cell and a zero-stream group
    CELLS = [
        ((1, 0, False),),
        ((3, 0, False), (5, 0, False)),
        ((2, 1, False), (0, 0, False)),
        (),
        ((4, 4, False),),
        ((2, 0, True), (2, 2, False)),
        ((8, 3, False),),
        ((3, 0, False), (1, 0, True)),
    ]

    @staticmethod
    def seeded_cell(rng, spec, lanes):
        groups = []
        for k, dead, weightless in spec:
            gammas = 10.0 ** rng.uniform(-1.0, 1.0) * np.abs(rng.standard_normal(lanes + (k,)))
            gammas[..., k - dead :] = 0.0
            V = rng.standard_normal(lanes + (k + 2, k)) * (0.0 if weightless else 1.0)
            Psi = np.linalg.qr(rng.standard_normal(lanes + (k, k)))[0]
            groups.append(StreamGroup(gammas, float(10.0 ** rng.uniform(-2.0, 1.0)), V, Psi))
        return groups

    @pytest.mark.parametrize("lanes", [(), (3,), (2, 3)], ids=["one_draw", "3_lanes", "2x3_lanes"])
    def test_each_cell_equals_its_solve_alone(self, lanes):
        rng = np.random.default_rng(43000 + len(lanes))
        for i in range(40):
            picks = rng.choice(len(self.CELLS), size=1 + i % 4)
            cells = [self.seeded_cell(rng, self.CELLS[p], lanes) for p in picks]
            scalar = 10.0 ** rng.uniform(-3.0, 6.0, len(cells))
            scalar[rng.integers(len(cells))] = 0.0 if i % 5 == 0 else scalar[0]
            for rows in (scalar, 10.0 ** rng.uniform(-3.0, 6.0, (len(cells), 3))):
                stacked = cogia.rates._allocations(cells, cogia.rates._solve(cells, rows, lanes))[0]
                assert len(stacked) == len(cells)
                for groups, row, cell in zip(cells, rows, stacked, strict=True):
                    alone = waterfill_cell(groups, row)
                    # an unserved cell has no lanes of its own; stacked, it takes the stack's
                    shape = np.shape(cell.water_level)
                    for name in ("water_level", "budget", "achieved_constraint", "no_positive_gain", "kkt_gap"):
                        x = np.asarray(getattr(alone, name))
                        x = np.broadcast_to(x.reshape(x.shape + (1,) * (len(shape) - x.ndim)), shape)
                        assert same_bits(getattr(cell, name), x), (i, name)
                    for name in ("per_stream_power", "Q"):
                        assert len(getattr(cell, name)) == len(getattr(alone, name)) == len(groups)
                        for u, (x, y) in enumerate(zip(getattr(cell, name), getattr(alone, name))):
                            assert same_bits(x, y), (i, name, u)
                    if not groups:
                        assert cell.no_positive_gain.all() and not np.any(cell.water_level)


class TestRateRegionSweep:
    DIMS = NetworkDims(5, 5, 5, 3)

    def test_cardinality(self):
        splits = [StreamAlloc(1, 0, 2, 2), StreamAlloc(1, 1, 1, 1), StreamAlloc(1, 0, 1, 0)]
        budgets = [(1.0, 1.0), (10.0, 10.0), (100.0, 100.0)]
        points = rate_region_sweep(self.DIMS, splits, budgets, trials=5, seed=0)
        assert len(points) == 9

    def test_monotone_in_budget(self):
        budgets = [(1.0, 1.0), (10.0, 10.0), (100.0, 100.0)]
        points = rate_region_sweep(self.DIMS, [StreamAlloc(1, 1, 1, 1)], budgets, trials=10, seed=3)
        assert points[0].R_P <= points[1].R_P <= points[2].R_P
        assert points[0].R_S <= points[1].R_S <= points[2].R_S

    def test_monotone_per_instance(self):
        # nondecreasing in the budget on every single channel draw
        for seed in range(5):
            ch = generate_channels(self.DIMS, seed)
            prs = build_all(ch, StreamAlloc(1, 0, 2, 2), seed)
            eff = effective_channels(ch, prs)
            last_p = last_s = 0.0
            for q in (0.5, 2.0, 8.0, 32.0):
                noise = NoiseAndPower(Qav_P=q, Qav_S=q)
                rp = pcell_sum_rate(prs, eff, noise).sum_rate
                rs = scell_sum_rate(prs, eff, noise).sum_rate
                assert rp >= last_p - 1e-12 and rs >= last_s - 1e-12
                last_p, last_s = rp, rs

    def test_pcell_heavy_beats_su_heavy(self):
        heavy = StreamAlloc(2, 2, 1, 0)
        su_heavy = StreamAlloc(1, 0, 2, 2)
        budgets = [(1.0, 1.0), (10.0, 10.0), (100.0, 100.0)]
        points = rate_region_sweep(self.DIMS, [heavy, su_heavy], budgets, trials=30, seed=5)
        for b in range(3):
            assert points[b].R_P > points[3 + b].R_P

    def test_infeasible_split_rejected(self):
        with pytest.raises(InfeasibleAlloc, match="2, 0, 2, 2"):
            rate_region_sweep(self.DIMS, [StreamAlloc(2, 0, 2, 2)], [(1.0, 1.0)], trials=2, seed=0)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_non_positive_trials_rejected(self, trials):
        with pytest.raises(ValueError) as info:
            rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2)], [(1.0, 1.0)], trials=trials, seed=0)
        assert type(info.value) is ValueError and str(info.value) == f"trials must be an integer >= 1, got {trials}"

    def test_empty_budget_list_gives_no_points(self, monkeypatch):
        draws, solves = [], spy_on_solves(monkeypatch)
        real_draw = cogia.alignment.draw_system
        monkeypatch.setattr(cogia.alignment, "draw_system", lambda *a: draws.append(a) or real_draw(*a))
        assert rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2)], [], trials=300, seed=0) == []
        # the checks pass, and nothing is drawn or solved for no budget
        assert draws == solves == []

    def test_budget_iterator_gives_the_list_points(self):
        # the budgets are read once, so the checks do not spend an iterator before the draws
        budgets = [(1.0, 2.0), (10.0, 20.0)]
        points = rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2)], budgets, trials=3, seed=4)
        assert len(points) == 2
        for once in (iter(budgets), (pair for pair in budgets)):
            assert rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2)], once, trials=3, seed=4) == points

    def test_assembles_no_allocation(self, monkeypatch):
        # no row reads a covariance, traced power or KKT gap, so the sweep forms none
        splits, budgets = [StreamAlloc(1, 0, 2, 2), StreamAlloc(1, 1, 1, 1)], [(1.0, 2.0), (10.0, 20.0)]
        points = rate_region_sweep(self.DIMS, splits, budgets, trials=4, seed=2)
        monkeypatch.setattr(cogia.rates, "_allocations", lambda *a: pytest.fail("assembled an allocation"))
        monkeypatch.setattr(cogia.alignment, "LANE_CHUNK", 3)
        assert rate_region_sweep(self.DIMS, splits, budgets, trials=4, seed=2) == points

    def test_empty_split_rejected(self):
        with pytest.raises(ScenarioError):
            rate_region_sweep(self.DIMS, [StreamAlloc(0, 0, 0, 0)], [(1.0, 1.0)], trials=2, seed=0)

    def test_deterministic(self):
        a = rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2)], [(10.0, 10.0)], trials=5, seed=11)
        b = rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2)], [(10.0, 10.0)], trials=5, seed=11)
        assert a == b

    def test_factors_each_user_once_per_draw(self, monkeypatch):
        calls = []
        real = cogia.rates.svd_factor
        monkeypatch.setattr(cogia.rates, "svd_factor", lambda E: calls.append(E) or real(E))
        budgets = [(1.0, 1.0), (10.0, 10.0), (100.0, 100.0)]
        rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2)], budgets, trials=4, seed=2)
        # served users P1, S1, S2, each factored once over the stack of 4 trials
        assert [E.shape[:-2] for E in calls] == [(4,)] * 3

    def test_fills_each_cell_once_per_stack(self, monkeypatch):
        calls = spy_on_solves(monkeypatch)
        monkeypatch.setattr(cogia.alignment, "LANE_CHUNK", 3)
        budgets = [(1.0, 2.0), (10.0, 20.0), (100.0, 200.0)]
        rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2), StreamAlloc(1, 1, 0, 0)], budgets, trials=4, seed=2)
        # chunks of 3 and 1 trials, one solve each over every split's primary
        # and secondary cell; the second split's secondary cell serves no one
        # and still takes its budget row
        assert [(rows.tolist(), lanes) for rows, lanes in calls] == [
            ([[1.0, 10.0, 100.0], [2.0, 20.0, 200.0]] * 2, lanes) for lanes in ((3,), (1,))
        ]

    @pytest.mark.parametrize("budget, cell", [((1e308, 1.0), "primary"), ((1.0, 1e308), "secondary")])
    def test_overflowing_budget_is_refused(self, budget, cell):
        # finite, but twice the budget (the plain-trace power) overflows
        with pytest.raises(ScenarioError, match=rf"the {cell} cell's rate problem overflows float64 at budget 1e\+308"):
            rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2)], [(1.0, 1.0), budget], trials=4, seed=0)

    @pytest.mark.parametrize("chunk", [256, 3], ids=["one_chunk", "two_chunks"])
    def test_overflow_in_a_later_split_names_its_cell(self, monkeypatch, chunk):
        # a noise variance of 5e-324 overflows every rate of S1; the first
        # split serves no S1 stream and rates finitely, so the refusal comes
        # from the second split's secondary cell, at its smallest budget, and names that split
        monkeypatch.setattr(cogia.alignment, "LANE_CHUNK", chunk)
        noise = NoiseAndPower(sigma2_S1=5e-324)
        budgets = [(3.0, 10.0), (1.0, 2.0), (30.0, 0.5)]
        first, later = StreamAlloc(1, 0, 0, 2), StreamAlloc(1, 0, 2, 2)
        assert len(rate_region_sweep(self.DIMS, [first], budgets, trials=4, seed=8, noise=noise)) == 3
        message = r"^the secondary cell's rate problem overflows float64 at budget 0\.5 in split \(1, 0, 2, 2\)$"
        with pytest.raises(ScenarioError, match=message):
            rate_region_sweep(self.DIMS, [first, later], budgets, trials=4, seed=8, noise=noise)

    def test_large_finite_budget_gives_finite_rates(self):
        points = rate_region_sweep(self.DIMS, [StreamAlloc(1, 1, 1, 1)], [(1.0, 1.0), (1e300, 1e300)], trials=4, seed=0)
        rates = [(pt.R_P, pt.R_S, pt.R_P_stderr, pt.R_S_stderr) for pt in points]
        assert np.isfinite(rates).all()
        assert points[1].R_P > points[0].R_P and points[1].R_S > points[0].R_S

    @pytest.mark.parametrize(
        "budget", [(math.inf, 1.0), (1.0, math.nan), (0.0, 1.0), (10**400, 1.0), 1.0, (1.0,), (1.0, 2.0, 3.0)]
    )
    def test_bad_budget_rejected_before_drawing(self, monkeypatch, budget):
        monkeypatch.setattr(cogia.alignment, "draw_system", lambda *a: pytest.fail("drew a channel"))
        with pytest.raises(ScenarioError):
            rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2)], [(1.0, 1.0), budget], trials=2, seed=0)

    def test_unordered_budget_pair_is_refused_by_name(self):
        # a set unpacks as two budgets in no defined order
        with pytest.raises(ScenarioError) as info:
            rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2)], [(1.0, 1.0), {1.0, 2.0}], trials=2, seed=0)
        assert str(info.value) == "budgets[1] must be a (Qav_P, Qav_S) pair, got {1.0, 2.0}"


class TestOneSolveTwoCallers:
    """The sweep and :func:`cell_sum_rates` rate a cell through the one solve, so they cannot drift apart."""

    def test_sweep_rates_equal_cell_sum_rates(self, monkeypatch):
        # the README scenario's two splits, in stacks of 3 and 2 trials; each per-trial rate of the
        # sweep is cell_sum_rates' on the same stack, bit for bit, under every budget pair
        sc = load_scenario(SCENARIOS / "readme.json")
        monkeypatch.setattr(cogia.alignment, "LANE_CHUNK", 3)
        swept, real = [], cogia.rates._cell_rates

        def spy(cells, rows):
            out = real(cells, rows)
            swept.append(out[2])
            return out

        monkeypatch.setattr(cogia.rates, "_cell_rates", spy)
        points = rate_region_sweep(sc.dims, sc.splits, sc.budgets, 5, sc.seed, noise=sc.noise)
        assert [rates.shape for rates in swept] == [(4, 3, 3), (4, 3, 2)]
        for s, split in enumerate(sc.splits):
            per_trial = np.zeros((len(sc.budgets), 5, 2))
            for stack, (part, ch, prs) in zip(swept, draw_trials(sc.dims, split, derive_seed(sc.seed, s), 5)):
                eff = effective_channels(ch, prs)
                for b, (qav_p, qav_s) in enumerate(sc.budgets):
                    both = cell_sum_rates(prs, eff, dataclasses.replace(sc.noise, Qav_P=qav_p, Qav_S=qav_s))
                    for c, cell in enumerate(both):
                        assert same_bits(stack[2 * s + c, b], cell.sum_rate), (s, b, c)
                        per_trial[b, part, c] = cell.sum_rate
            means = per_trial.mean(axis=1)
            assert [[pt.R_P, pt.R_S] for pt in points[3 * s : 3 * s + 3]] == means.tolist()


class TestDofSlope:
    """Each cell's rate rises by d/2 bits per doubling of its budget, lane by lane.

    Rates are in bits per real channel use, so at high SNR a cell serving
    d streams gains d/2 per log2 of the budget.  A lane is judged alone:
    its slope between budgets 1e6 and 1e12, in a lane whose water-filling
    powers every served stream at both.  The bound, 1/8 (a quarter of one
    stream), is set from a census of these populations: the worst gap
    was 0.0825, in a primary cell of the verify-large scenario, where a
    weak stream is still below its high-SNR asymptote at 1e6.  A stream
    with no gain would never be powered, so every stream must be at 1e12.
    """

    LOW, HIGH, BOUND = 1e6, 1e12, 0.125

    @staticmethod
    def population():
        # the README scenario's two splits, the verify-large scenario, and
        # 200 seeded feasible tuples up to MAX_ANTENNAS, 8 lanes each
        readme = NetworkDims(5, 5, 5, 3)
        for i, split in enumerate([StreamAlloc(1, 0, 2, 2), StreamAlloc(1, 1, 1, 1)]):
            yield readme, split, [derive_seed(5, i, t) for t in range(200)]
        yield NetworkDims(12, 16, 10, 5), StreamAlloc(4, 4, 3, 3), [derive_seed(5, t) for t in range(200)]
        rng, sampled = random.Random(5), 0
        while sampled < 200:
            q = [rng.randint(1, MAX_ANTENNAS) for _ in range(4)]
            a = [rng.randint(0, q[0]), rng.randint(0, q[0]), rng.randint(0, q[1]), rng.randint(0, q[1])]
            dims, alloc = NetworkDims(*q), StreamAlloc(*a)
            if alloc.total and closed_form_feasible(dims, alloc).feasible:
                sampled += 1
                yield dims, alloc, [derive_seed(5, *q, *a, t) for t in range(8)]

    def test_rates_realize_the_dof_lane_by_lane(self):
        worst, closest, judged, skipped = 0.0, None, 0, 0
        for dims, alloc, seeds in self.population():
            ch, prs = draw_system(dims, alloc, seeds)
            eff = effective_channels(ch, prs)
            cells = (
                ("primary", pcell_sum_rate, alloc.d_P1 + alloc.d_P2),
                ("secondary", scell_sum_rate, alloc.d_S1 + alloc.d_S2),
            )
            for cell, rate, d in cells:
                results = [rate(prs, eff, NoiseAndPower(Qav_P=b, Qav_S=b)) for b in (self.LOW, self.HIGH)]
                powered = np.ones((2, len(seeds)), dtype=bool)
                for row, result in zip(powered, results):
                    for q in result.allocation.per_stream_power:
                        row &= (q > 0).all(axis=-1)
                assert powered[1].all(), (dims.as_tuple(), alloc.as_tuple(), cell, "a stream unpowered at 1e12")
                slope = (results[1].sum_rate - results[0].sum_rate) / math.log2(self.HIGH / self.LOW)
                gap = np.where(powered[0], np.abs(slope - d / 2), 0.0)
                judged += int(powered[0].sum())
                skipped += int((~powered[0]).sum())
                lane = int(gap.argmax())
                if gap[lane] > worst:
                    worst = float(gap[lane])
                    closest = f"{dims.as_tuple()}/{alloc.as_tuple()} {cell} lane {lane} (slope {slope[lane]:.4f}, d/2 {d / 2})"
        ok = worst <= self.BOUND and skipped <= judged // 100
        print(
            f"DOF SLOPE: {'PASS' if ok else 'FAIL'} - worst |slope - d/2| {worst:.4f} (bound {self.BOUND}) at "
            f"{closest}; {judged} cell-lanes judged, {skipped} with a stream unpowered at 1e6"
        )
        assert ok
