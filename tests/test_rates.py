"""Water-filling, cell rates and rate-region sweeps."""

import dataclasses
import math

import numpy as np
import pytest

import cogia.rates
from cogia.alignment import EffectiveChannels, PrecoderReceiverSet, build_all, effective_channels
from cogia.errors import InfeasibleAlloc, ScenarioError
from cogia.rates import (
    StreamGroup,
    kkt_violation,
    pcell_sum_rate,
    rate_region_sweep,
    scell_sum_rate,
    waterfill,
    waterfill_cell,
)
from cogia.scenario import NetworkDims, NoiseAndPower, StreamAlloc, generate_channels


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
        Z=0,
    )
    eff = EffectiveChannels(
        G_P1=G, G_P2=np.zeros((n_rx, 0)),
        D_S1=np.zeros((0, 0)), D_S2=np.zeros((0, 0)),
    )
    return prs, eff


class TestWaterfill:
    def test_symmetric_two_streams(self):
        res = waterfill(np.array([1.0, 1.0]), 1.0, np.eye(2), np.eye(2), budget=2.0)
        np.testing.assert_allclose(res.per_stream_power, [1.0, 1.0], atol=1e-10)
        assert abs(res.water_level - 2.0) < 1e-10
        assert abs(res.achieved_constraint - 2.0) < 1e-10

    def test_hand_computed_active_set(self):
        # costs sigma2/gamma^2 = (0.5, 2.0), budget 1: only stream 1 active
        gammas = np.array([math.sqrt(2.0), math.sqrt(0.5)])
        res = waterfill(gammas, 1.0, np.eye(2), np.eye(2), budget=1.0)
        assert abs(res.water_level - 1.5) < 1e-10
        np.testing.assert_allclose(res.per_stream_power, [1.0, 0.0], atol=1e-10)

    def test_large_budget_asymptotics(self):
        # with every stream active, power differences equal cost differences
        gammas = np.array([2.0, 0.5])
        res = waterfill(gammas, 1.0, np.eye(2), np.eye(2), budget=1e6)
        expected_gap = 1.0 / 0.25 - 1.0 / 4.0
        assert abs((res.per_stream_power[0] - res.per_stream_power[1]) - expected_gap) < 1e-6

    def test_zero_budget_is_exactly_zero(self):
        res = waterfill(np.array([1.0, 2.0]), 1.0, np.eye(2), np.eye(2), budget=0.0)
        assert res.water_level == 0.0
        assert not res.per_stream_power.any()
        assert not res.Q.any()

    def test_dead_streams_get_nothing(self):
        gammas = np.array([1.0, 0.0])
        res = waterfill(gammas, 1.0, np.eye(2), np.eye(2), budget=3.0)
        assert res.per_stream_power[1] == 0.0
        assert abs(res.achieved_constraint - 3.0) < 1e-8 * 3.0

    def test_all_dead_flagged(self):
        res = waterfill(np.zeros(2), 1.0, np.eye(2), np.eye(2), budget=1.0)
        assert res.no_positive_gain
        assert not res.per_stream_power.any()

    def test_kkt_certificate_seeded(self):
        for i in range(50):
            rng = np.random.default_rng(3000 + i)
            n = int(rng.integers(1, 5))
            gammas = rng.uniform(0.2, 3.0, size=n)
            sigma2 = float(rng.uniform(0.5, 2.0))
            budget = float(rng.uniform(0.2, 20.0))
            Psi = haar_columns(rng, n, n)
            V = haar_columns(rng, n + 2, n)
            res = waterfill(gammas, sigma2, V, Psi, budget)
            assert kkt_violation(res, gammas, sigma2) <= 1e-8
            if res.per_stream_power.any():
                assert abs(res.achieved_constraint - budget) <= 1e-8 * budget
            evals = np.linalg.eigvalsh((res.Q + res.Q.T) / 2)
            assert evals.min() > -1e-9

    def test_kkt_gap_catches_unspent_budget(self):
        gammas = np.array([2.0, 1.0, 0.5])
        res = waterfill(gammas, 1.0, np.eye(3), np.eye(3), budget=10.0)
        assert kkt_violation(res, gammas, 1.0) <= 1e-8
        halved = dataclasses.replace(res, achieved_constraint=res.achieved_constraint / 2)
        assert kkt_violation(halved, gammas, 1.0) > 1e-8

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
            res = waterfill(gammas, sigma2, V, Psi, budget)

            def rate(q):
                return 0.5 * np.sum(np.log2(1.0 + gammas**2 * q / sigma2))

            best = rate(res.per_stream_power)
            for _ in range(1000):
                q = rng.dirichlet(np.ones(n)) * budget
                assert rate(q) <= best + 1e-6
            for j in range(n):
                corner = np.zeros(n)
                corner[j] = budget
                assert rate(corner) <= best + 1e-6
            assert rate(np.full(n, budget / n)) <= best + 1e-6


def traced_power(groups, lam, trace_prefactor, rank_tol=1e-9):
    """The solve's traced power at water level ``lam``, in the same float order."""
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
    return trace_prefactor * total


class TestCellWaterfill:
    def test_smallest_double_reaching_budget_seeded(self):
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
            prefactor = (1.0, 0.5)[i % 2]
            lam = waterfill_cell(groups, budget, trace_prefactor=prefactor).water_level
            if budget == 0.0:
                assert lam == 0.0
                continue
            assert traced_power(groups, lam, prefactor) >= budget
            assert traced_power(groups, np.nextafter(lam, 0.0), prefactor) < budget

    def test_zero_level_edge_cases(self):
        rng = np.random.default_rng(8)
        V, Psi = rng.standard_normal((4, 2)), haar_columns(rng, 2, 2)
        live = StreamGroup(np.array([1.0, 2.0]), 1.0, V, Psi)
        weightless = StreamGroup(np.array([1.0, 2.0]), 1.0, np.zeros((4, 2)), Psi)
        dead = StreamGroup(np.zeros(2), 1.0, V, Psi)
        for prefactor in (1.0, 0.5):
            assert waterfill_cell([live], 0.0, trace_prefactor=prefactor).water_level == 0.0
            assert waterfill_cell([weightless], 3.0, trace_prefactor=prefactor).water_level == 0.0
            assert waterfill_cell([dead], 3.0, trace_prefactor=prefactor).water_level == 0.0
        cell = waterfill_cell([weightless, live], 3.0)
        assert cell.water_level > 0.0
        assert cell.users[0].per_stream_power.all()  # free streams still fill to the level

    @pytest.mark.parametrize("budget", [math.inf, math.nan, -1.0])
    def test_bad_budget_raises(self, budget):
        grp = StreamGroup(np.array([1.0]), 1.0, np.eye(1), np.eye(1))
        with pytest.raises(ValueError):
            waterfill_cell([grp], budget)

    def test_carried_kkt_gap(self):
        rng = np.random.default_rng(12)
        groups = [StreamGroup(rng.uniform(0.5, 2.0, 3), 1.5, rng.standard_normal((5, 3)), haar_columns(rng, 3, 3))]
        cell = waterfill_cell(groups, budget=4.0)
        assert cell.kkt_gap == kkt_violation(cell.users[0], groups[0].gammas, 1.5)
        assert cell.kkt_gap <= 1e-8

    def test_shared_water_level_two_users(self):
        rng = np.random.default_rng(9)
        g1, g2 = rng.uniform(0.5, 2.0, 2), rng.uniform(0.5, 2.0, 3)
        groups = [
            StreamGroup(g1, 1.0, haar_columns(rng, 4, 2), haar_columns(rng, 2, 2)),
            StreamGroup(g2, 2.0, haar_columns(rng, 4, 3), haar_columns(rng, 3, 3)),
        ]
        cell = waterfill_cell(groups, budget=5.0)
        assert cell.users[0].water_level == cell.users[1].water_level
        assert abs(cell.achieved_constraint - 5.0) <= 1e-8 * 5.0
        # the cell budget uses the 1/2 trace convention
        total = sum(
            float(np.einsum("ij,ij->", grp.V @ res.Q, grp.V))
            for grp, res in zip(groups, cell.users)
        )
        assert abs(0.5 * total - 5.0) <= 1e-8 * 5.0


class TestCellRates:
    def test_scalar_half_bit(self):
        # unit gain, unit noise, power 1 (cell budget 0.5): R = 0.5 bits
        prs, eff = synthetic_prs_eff(np.eye(1), np.eye(1))
        noise = NoiseAndPower(Qav_P=0.5)
        res = pcell_sum_rate(prs, eff, noise)
        assert abs(res.sum_rate - 0.5) < 1e-9
        np.testing.assert_allclose(res.allocation.users[0].per_stream_power, [1.0], atol=1e-9)

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

    def test_scell_scalar_closed_form(self):
        dims = NetworkDims(5, 5, 5, 3)
        ch = generate_channels(dims, 31)
        prs = build_all(ch, StreamAlloc(0, 0, 1, 0), 31)
        eff = effective_channels(ch, prs)
        noise = NoiseAndPower(Qav_S=2.0)
        res = scell_sum_rate(prs, eff, noise)
        g = eff.D_S1[0, 0]
        q = res.allocation.users[0].per_stream_power[0]
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

    def test_correction_power_reported(self):
        dims = NetworkDims(5, 5, 5, 3)
        ch = generate_channels(dims, 33)
        prs = build_all(ch, StreamAlloc(1, 1, 1, 1), 33)
        eff = effective_channels(ch, prs)
        res = pcell_sum_rate(prs, eff, NoiseAndPower(Qav_P=10.0))
        assert res.uncharged_correction_power > 0.0


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
        assert len(calls) == 3 * 4  # served users P1, S1, S2 per trial

    @pytest.mark.parametrize("budget", [(math.inf, 1.0), (1.0, math.nan), (0.0, 1.0)])
    def test_bad_budget_rejected_before_drawing(self, monkeypatch, budget):
        monkeypatch.setattr(cogia.rates, "draw_system", lambda *a: pytest.fail("drew a channel"))
        with pytest.raises(ScenarioError):
            rate_region_sweep(self.DIMS, [StreamAlloc(1, 0, 2, 2)], [(1.0, 1.0), budget], trials=2, seed=0)
