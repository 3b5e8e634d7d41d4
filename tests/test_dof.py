"""Feasibility predicate, constructive oracle and region enumeration."""

import dataclasses
import hashlib
import itertools
import random

import numpy as np
import pytest

import cogia.alignment
import cogia.dof
import cogia.scenario
from cogia.dof import (
    FeasibilityVerdict,
    Violation,
    closed_form_feasible,
    constructive_check,
    enumerate_region,
    grid_size,
    grid_tuples,
    projected_frontier,
)
from cogia.errors import DegenerateChannel, GridTooLarge, TooManyDegenerateDraws
from cogia.numerics import ZERO_TOL
from cogia.scenario import CHANNEL_STREAM, MAX_ANTENNAS, NetworkDims, StreamAlloc, derive_seed


class TestClosedForm:
    def test_reference_split_feasible(self):
        assert closed_form_feasible(NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2)).feasible

    def test_secondary_bound(self):
        verdict = closed_form_feasible(NetworkDims(5, 5, 5, 3), StreamAlloc(0, 0, 3, 0))
        assert not verdict.feasible
        assert any(v.condition == "d_S1 <= M_S - N_S" and v.origin == "structural" for v in verdict.violated)

    def test_zero_headroom(self):
        verdict = closed_form_feasible(NetworkDims(3, 3, 3, 3), StreamAlloc(0, 0, 1, 0))
        assert not verdict.feasible

    def test_receiver_dimension_count(self):
        verdict = closed_form_feasible(NetworkDims(5, 5, 5, 3), StreamAlloc(2, 0, 2, 2))
        assert not verdict.feasible
        assert any(v.origin == "derived" for v in verdict.violated)

    def test_zero_alloc_always_feasible(self):
        for dims in (NetworkDims(1, 1, 1, 1), NetworkDims(3, 2, 5, 4)):
            assert closed_form_feasible(dims, StreamAlloc(0, 0, 0, 0)).feasible

    def test_correction_condition(self):
        # d_P1 = 1 > Z = 0 and M_S < N_P: corrections impossible
        verdict = closed_form_feasible(NetworkDims(3, 2, 3, 1), StreamAlloc(1, 0, 0, 0))
        assert not verdict.feasible
        assert any("M_S >= N_P" in v.condition for v in verdict.violated)

    def test_monotone_under_coordinatewise_decrease(self):
        dims = NetworkDims(5, 4, 4, 2)
        for t in grid_tuples(dims):
            if not closed_form_feasible(dims, t).feasible:
                continue
            smaller = StreamAlloc(max(t.d_P1 - 1, 0), t.d_P2, t.d_S1, max(t.d_S2 - 1, 0))
            assert closed_form_feasible(dims, smaller).feasible

    def test_region_is_a_down_set(self):
        # seeded quartets up to MAX_ANTENNAS: one stream more never makes an
        # infeasible tuple feasible, one stream less never makes a feasible
        # one infeasible
        rng = random.Random(4)
        seen = {True: 0, False: 0}
        for _ in range(400):
            dims = NetworkDims(*(rng.randint(1, MAX_ANTENNAS) for _ in range(4)))
            for _ in range(20):
                # small counts are drawn as often as large ones
                t = [rng.randint(0, rng.randint(0, top)) for top in (dims.M_P, dims.M_P, dims.M_S, dims.M_S)]
                feasible = closed_form_feasible(dims, StreamAlloc(*t)).feasible
                seen[feasible] += 1
                for k in range(4):
                    step = list(t)
                    step[k] += -1 if feasible else 1
                    if 0 <= step[k] <= MAX_ANTENNAS:
                        assert closed_form_feasible(dims, StreamAlloc(*step)).feasible == feasible, (dims, t, step)
        assert min(seen.values()) >= 1000


class TestVerdict:
    def test_infeasible_needs_a_violation(self):
        with pytest.raises(ValueError):
            FeasibilityVerdict(False, ())


class TestConstructiveCheck:
    def test_zero_alloc_vacuous(self):
        assert constructive_check(NetworkDims(2, 2, 2, 2), StreamAlloc(0, 0, 0, 0), trials=2).feasible

    def test_reference_split(self):
        verdict = constructive_check(NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2), trials=20, seed=5)
        assert verdict.feasible

    def test_no_headroom_infeasible(self):
        verdict = constructive_check(NetworkDims(3, 3, 3, 3), StreamAlloc(0, 0, 1, 1), trials=5)
        assert not verdict.feasible
        assert verdict.violated[0].origin == "constructive"

    @pytest.mark.parametrize(
        "dims_tuple, alloc_tuple, stage",
        [
            ((3, 5, 3, 2), (0, 0, 3, 0), "selectors"),
            ((3, 3, 3, 3), (0, 0, 1, 1), "secondary"),
            ((3, 2, 3, 1), (1, 0, 0, 0), "corrections"),
            ((5, 5, 5, 3), (2, 0, 2, 2), "primary_receivers"),
        ],
    )
    def test_refusal_carries_its_stage(self, dims_tuple, alloc_tuple, stage):
        verdict = constructive_check(NetworkDims(*dims_tuple), StreamAlloc(*alloc_tuple), trials=20, seed=6)
        assert [(v.condition, v.stage) for v in verdict.violated] == [("construction succeeds", stage)]

    def test_feasible_check_resets_the_channel_stream_once_per_lane(self, monkeypatch):
        resets = []
        real = cogia.scenario._SubstreamFactory.stream

        def spy(self, seed, stream):
            resets.append(stream)
            return real(self, seed, stream)

        monkeypatch.setattr(cogia.scenario._SubstreamFactory, "stream", spy)
        assert constructive_check(NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2), trials=20, seed=5).feasible
        # the probe's lane, then the 20 lanes of the stack: one channel
        # stream each, and one stream for P1's random precoder column
        assert resets.count(CHANNEL_STREAM) == 21
        assert len(resets) == 42

    def test_agrees_with_closed_form_sampled_dims(self):
        # full agreement on every tuple for a handful of quartets
        for dims_tuple in ((3, 4, 2, 2), (4, 3, 3, 1), (2, 5, 4, 2), (5, 5, 5, 3)):
            dims = NetworkDims(*dims_tuple)
            for t in grid_tuples(dims):
                cf = closed_form_feasible(dims, t).feasible
                cc = constructive_check(dims, t, trials=5, seed=derive_seed(9, *t.as_tuple())).feasible
                assert cf == cc, f"dims {dims_tuple}, tuple {t.as_tuple()}: closed {cf}, constructive {cc}"

    def test_bound_sharpness(self):
        # construction succeeds exactly up to the antenna-difference bound
        for dims_tuple in ((5, 5, 5, 3), (4, 6, 4, 3), (3, 4, 3, 2)):
            dims = NetworkDims(*dims_tuple)
            k = max(dims.M_S - dims.N_S, 0)
            if 1 <= k <= dims.N_S:
                at_bound = StreamAlloc(0, 0, k, 0)
                assert constructive_check(dims, at_bound, trials=10, seed=1).feasible
            beyond = StreamAlloc(0, 0, k + 1, 0)
            assert not constructive_check(dims, beyond, trials=10, seed=1).feasible

    def test_ill_conditioned_receive_stack_stays_below_zero_tol(self):
        # a criterion-3 tuple whose trial 11 stacks P2's receive rows into
        # a matrix of condition 2.3e7: the zero-forcing columns leak by
        # eps * cond, above ZERO_TOL, unless they are refined
        dims, alloc = NetworkDims(5, 4, 4, 2), StreamAlloc(2, 2, 0, 2)
        seed = derive_seed(42, *dims.as_tuple(), *alloc.as_tuple())
        assert constructive_check(dims, alloc, trials=20, seed=seed).feasible
        ch, prs = cogia.alignment.draw_system(dims, alloc, derive_seed(seed, 11))
        assert cogia.alignment.interference_report(ch, prs).worst_case <= ZERO_TOL

    def test_agrees_with_closed_form_up_to_max_antennas(self):
        # the exhaustive criterion-3 sweep stops at 5 antennas; here 300
        # seeded pairs reach MAX_ANTENNAS: 100 feasible, 100 one stream
        # beyond a feasible tuple and 100 drawn uniformly among the
        # infeasible ones
        rng = random.Random(16)
        feasible, beyond, infeasible = [], [], []
        while min(len(feasible), len(beyond), len(infeasible)) < 100:
            q = [rng.randint(1, MAX_ANTENNAS) for _ in range(4)]
            a = [rng.randint(0, q[0]), rng.randint(0, q[0]), rng.randint(0, q[1]), rng.randint(0, q[1])]
            dims = NetworkDims(*q)
            if not closed_form_feasible(dims, StreamAlloc(*a)).feasible:
                infeasible.append((dims, StreamAlloc(*a)))
                continue
            feasible.append((dims, StreamAlloc(*a)))
            a[rng.randrange(4)] += 1
            if not closed_form_feasible(dims, StreamAlloc(*a)).feasible:
                beyond.append((dims, StreamAlloc(*a)))
        pairs = feasible[:100] + beyond[:100] + infeasible[:100]
        mismatches = []
        for dims, alloc in pairs:
            cf = closed_form_feasible(dims, alloc).feasible
            seed = derive_seed(16, *dims.as_tuple(), *alloc.as_tuple())
            if constructive_check(dims, alloc, trials=20, seed=seed).feasible != cf:
                mismatches.append((dims.as_tuple(), alloc.as_tuple(), cf))
        assert mismatches == []

    def test_earlier_failure_outranks_a_later_lane_out_of_redraws(self, monkeypatch):
        dims, alloc = NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2)
        real_build, real_report = cogia.alignment._build_primary, cogia.dof.interference_report

        def build(ch, d, seeds, *secondary):
            # trials 0..19 are built as one stack; its lane 5 (trial 5) is
            # degenerate on every draw
            if isinstance(seeds, list) and len(seeds) > 5:
                lanes = np.zeros(len(seeds), dtype=bool)
                lanes[5] = True
                raise DegenerateChannel("forced", lanes=lanes)
            return real_build(ch, d, seeds, *secondary)

        def leaky(trial):
            # trials 0..4, the ones before the forced lane, are verified together
            def report(ch, prs):
                out = real_report(ch, prs)
                if np.shape(out.worst_case) == (5,):
                    worst = out.worst_case.copy()
                    worst[trial] = 1.0
                    out = dataclasses.replace(out, worst_case=worst)
                return out

            return report

        monkeypatch.setattr(cogia.alignment, "_build_primary", build)
        with pytest.raises(TooManyDegenerateDraws):
            constructive_check(dims, alloc, trials=20, seed=3)
        for trial in (3, 0):
            monkeypatch.setattr(cogia.dof, "interference_report", leaky(trial))
            verdict = constructive_check(dims, alloc, trials=20, seed=3)
            assert not verdict.feasible
            assert verdict.violated[0].detail == f"trial {trial}: worst_case = 1.000e+00"

    def test_leaky_first_trial_is_named(self, monkeypatch):
        # every trial is verified in one pass, trial 0 in lane 0
        real_report = cogia.dof.interference_report
        reports = []

        def leaky_trial_0(ch, prs):
            report = real_report(ch, prs)
            reports.append(np.shape(report.worst_case))
            worst = report.worst_case.copy()
            worst[0] = 0.5
            return dataclasses.replace(report, worst_case=worst)

        monkeypatch.setattr(cogia.dof, "interference_report", leaky_trial_0)
        verdict = constructive_check(NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2), trials=20, seed=5)
        assert reports == [(20,)]
        assert verdict == FeasibilityVerdict(
            False, (Violation("residual interference <= ZERO_TOL", "trial 0: worst_case = 5.000e-01", "constructive"),)
        )

    def test_oracle_verdicts_match_golden(self):
        # every feasible tuple of 10 seeded quartets <= 5 and five times as
        # many of their infeasible tuples: any change of a verdict or of a
        # violation's text changes the digest
        rng = random.Random(5)
        lines = []
        for q in rng.sample(list(itertools.product(range(1, 6), repeat=4)), 10):
            dims = NetworkDims(*q)
            tuples = list(grid_tuples(dims))
            feasible = [t for t in tuples if closed_form_feasible(dims, t).feasible]
            infeasible = [t for t in tuples if not closed_form_feasible(dims, t).feasible]
            for t in feasible + rng.sample(infeasible, min(len(infeasible), 5 * len(feasible))):
                lines.append(repr(constructive_check(dims, t, trials=20, seed=derive_seed(5, *q, *t.as_tuple()))))
        assert len(lines) == 852
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "013c3f08e2550c7c1c9725ac7c0df10d67fac68db33681503f726546f76cd246"

    def test_bound_sharpness_hundred_seeds(self):
        dims = NetworkDims(5, 5, 5, 3)  # M_S - N_S = 2
        assert constructive_check(dims, StreamAlloc(0, 0, 2, 2), trials=100, seed=8).feasible
        assert not constructive_check(dims, StreamAlloc(0, 0, 3, 2), trials=100, seed=8).feasible


class TestRegion:
    def test_collapsed_secondary_axis(self):
        region = enumerate_region(NetworkDims(3, 3, 3, 3))
        assert region.points
        assert all(p.d_S1 == 0 and p.d_S2 == 0 for p in region.points)

    def test_reference_network_region(self):
        region = enumerate_region(NetworkDims(5, 5, 5, 3))
        ds_sums = [p.d_S1 + p.d_S2 for p in region.points]
        assert max(ds_sums) == 4
        for p in region.points:
            if p.d_S1 + p.d_S2 == 4:
                assert p.d_P1 <= 1 and p.d_P2 <= 1

    def test_frontier_is_antichain(self):
        region = enumerate_region(NetworkDims(5, 5, 5, 3))
        frontier = [np.array(p.as_tuple()) for p in region.frontier]
        for i, a in enumerate(frontier):
            for j, b in enumerate(frontier):
                if i != j:
                    assert not (np.all(a >= b) and np.any(a > b))
        assert set(region.frontier) <= set(region.points)

    def test_modes_agree(self):
        dims = NetworkDims(3, 3, 2, 1)
        closed = enumerate_region(dims, mode="closed_form")
        constructive = enumerate_region(dims, mode="constructive", seed=3, trials=5)
        assert closed.points == constructive.points

    def test_grid_cap(self):
        with pytest.raises(GridTooLarge):
            enumerate_region(NetworkDims(16, 16, 1, 1), cap=10_000)
        assert grid_size(NetworkDims(16, 16, 1, 1)) == 17**4

    def test_projection(self):
        region = enumerate_region(NetworkDims(5, 5, 5, 3))
        proj = projected_frontier(region)
        # with no secondary streams the corrections cancel every cross-user
        # term, so both primary users reach all N_P receive dimensions
        assert proj[0] == (0, 10)
        assert dict(proj)[4] == 2
        assert [p[0] for p in proj] == sorted(p[0] for p in proj)
