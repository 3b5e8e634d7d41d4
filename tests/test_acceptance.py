"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The full-grid agreement sweep (criterion 3) dominates
the runtime at about a minute; everything else finishes in seconds.
"""

import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from cogia.cli import main as cli_main
from cogia.dof import closed_form_feasible, constructive_check, grid_tuples
from cogia.numerics import min_norm_right_solve, null_space_basis, svd_factor
from cogia.rates import StreamGroup, kkt_violation, rate_region_sweep, waterfill_cell
from cogia.scenario import NetworkDims, StreamAlloc, derive_seed, generate_channels
from cogia.alignment import build_all, interference_report
from bits import build_note
from test_alignment import STAGE_OF_CONDITION


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} - {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_cancellation_invariant():
    t0 = time.perf_counter()
    dims = NetworkDims(5, 5, 5, 3)
    alloc = StreamAlloc(1, 0, 2, 2)
    worst = 0.0
    for seed in range(100):
        ch = generate_channels(dims, seed)
        prs = build_all(ch, alloc, seed)
        worst = max(worst, interference_report(ch, prs).worst_case)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, "cancellation invariant", ok,
           f"worst relative residual {worst:.3e} over 100 seeds in {elapsed:.2f} s")


def test_criterion_2_bound_sharpness():
    t0 = time.perf_counter()
    checked_at = 0
    checked_beyond = 0
    for M_P, M_S, N_P, N_S in itertools.product(range(1, 7), repeat=4):
        dims = NetworkDims(M_P, M_S, N_P, N_S)
        k = max(M_S - N_S, 0)
        seed = derive_seed(202, M_P, M_S, N_P, N_S)
        if 1 <= k <= N_S:  # other conditions permit a k-stream secondary user
            verdict = constructive_check(dims, StreamAlloc(0, 0, k, 0), trials=20, seed=seed)
            assert verdict.feasible, f"dims {dims.as_tuple()}: d_S1 = {k} should be feasible"
            checked_at += 1
        beyond = constructive_check(dims, StreamAlloc(0, 0, k + 1, 0), trials=20, seed=seed)
        assert not beyond.feasible, f"dims {dims.as_tuple()}: d_S1 = {k + 1} should fail"
        checked_beyond += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(2, "secondary bound sharpness", ok,
           f"{checked_at} at-bound and {checked_beyond} beyond-bound checks in {elapsed:.1f} s")


@pytest.mark.slow
def test_criterion_3_predicate_oracle_agreement():
    # besides agreeing on every tuple, each refusal must come from a stage
    # that one of the tuple's violated conditions maps to
    t0 = time.perf_counter()
    tuples = 0
    mismatches = []
    miscaused = []
    for M_P, M_S, N_P, N_S in itertools.product(range(1, 6), repeat=4):
        dims = NetworkDims(M_P, M_S, N_P, N_S)
        for alloc in grid_tuples(dims):
            tuples += 1
            cf = closed_form_feasible(dims, alloc)
            seed = derive_seed(42, M_P, M_S, N_P, N_S, *alloc.as_tuple())
            cc = constructive_check(dims, alloc, trials=20, seed=seed)
            if cf.feasible != cc.feasible:
                mismatches.append((dims.as_tuple(), alloc.as_tuple(), cf.feasible, cc.feasible))
            elif not cc.feasible:
                stage = cc.violated[0].stage
                if stage not in {STAGE_OF_CONDITION[v.condition] for v in cf.violated}:
                    miscaused.append((dims.as_tuple(), alloc.as_tuple(), stage))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and not miscaused and elapsed < 600.0
    report(3, "predicate/oracle agreement", ok,
           f"{tuples} tuples across 625 quartets, {len(mismatches)} mismatches, "
           f"{len(miscaused)} refusals at a stage no violated condition maps to, {elapsed:.0f} s")


def test_criterion_4_waterfilling_optimality():
    t0 = time.perf_counter()

    def haar(rng, m, k):
        q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        return q[:, :k]

    # hand-computable case: costs (0.5, 2.0), cell budget 0.5 (power 1) -> powers (1, 0), lam 1.5
    gammas = np.array([math.sqrt(2.0), math.sqrt(0.5)])
    res = waterfill_cell([StreamGroup(gammas, 1.0, np.eye(2), np.eye(2))], 0.5)
    assert abs(res.water_level - 1.5) <= 1e-10
    assert abs(res.per_stream_power[0][0] - 1.0) <= 1e-10
    assert abs(res.per_stream_power[0][1]) <= 1e-10

    worst_gap = -math.inf  # how far any searched point got above the waterfill rate
    worst_kkt = 0.0
    for i in range(50):
        rng = np.random.default_rng(5000 + i)
        n_users = 1 + (i % 2)
        groups = []
        for _ in range(n_users):
            n = int(rng.integers(1, 4))
            groups.append(
                StreamGroup(
                    gammas=rng.uniform(0.2, 3.0, size=n),
                    sigma2=float(rng.uniform(0.5, 2.0)),
                    V=haar(rng, n + 2, n),
                    Psi=haar(rng, n, n),
                )
            )
        budget = float(rng.uniform(0.5, 10.0))
        cell = waterfill_cell(groups, budget)
        worst_kkt = max(worst_kkt, kkt_violation(cell, groups))
        assert abs(cell.achieved_constraint - budget) <= 1e-8 * budget

        def cell_rate(qs):
            total = 0.0
            for grp, q in zip(groups, qs):
                total += 0.5 * np.sum(np.log2(1.0 + grp.gammas**2 * q / grp.sigma2))
            return total

        achieved = cell_rate(cell.per_stream_power)
        sizes = [len(g.gammas) for g in groups]
        total_power = 2 * budget  # orthonormal V: traced power is sum of q, the cell charges half
        for _ in range(1000):
            flat = rng.dirichlet(np.ones(sum(sizes))) * total_power
            qs = np.split(flat, np.cumsum(sizes)[:-1])
            worst_gap = max(worst_gap, cell_rate(qs) - achieved)
        flat = np.full(sum(sizes), total_power / sum(sizes))
        qs = np.split(flat, np.cumsum(sizes)[:-1])
        worst_gap = max(worst_gap, cell_rate(qs) - achieved)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and worst_kkt <= 1e-8 and elapsed < 30.0
    report(4, "water-filling optimality", ok,
           f"search never beat waterfill by more than {worst_gap:.2e} bits, "
           f"worst KKT gap {worst_kkt:.2e}, hand case exact, {elapsed:.1f} s")


def test_criterion_5_rate_region_qualitative():
    t0 = time.perf_counter()
    dims = NetworkDims(5, 5, 5, 3)

    # symmetric statistics: equal budgets at the operating point where the
    # two cells' mean rates coincide (the rate region's diagonal crossing)
    sym = rate_region_sweep(dims, [StreamAlloc(1, 1, 2, 2)], [(15.0, 15.0)], trials=500, seed=20240811)
    pt = sym[0]
    combined = math.hypot(pt.R_P_stderr, pt.R_S_stderr)
    symmetry_ok = abs(pt.R_P - pt.R_S) <= 3.0 * combined

    # ordering: pCell-heavy split yields strictly higher mean R_P than the
    # SU-heavy split at every tested budget; all rates monotone in budget
    budgets = [(1.0, 1.0), (10.0, 10.0), (100.0, 100.0)]
    heavy, su_heavy = StreamAlloc(2, 2, 1, 0), StreamAlloc(1, 0, 2, 2)
    pts = rate_region_sweep(dims, [heavy, su_heavy], budgets, trials=200, seed=77)
    ordering_ok = all(pts[b].R_P > pts[3 + b].R_P for b in range(3))
    monotone_ok = all(
        pts[base].R_P <= pts[base + 1].R_P <= pts[base + 2].R_P
        and pts[base].R_S <= pts[base + 1].R_S <= pts[base + 2].R_S
        for base in (0, 3)
    )
    elapsed = time.perf_counter() - t0
    ok = symmetry_ok and ordering_ok and monotone_ok and elapsed < 120.0
    report(5, "rate-region qualitative reproduction", ok,
           f"|R_P - R_S| = {abs(pt.R_P - pt.R_S):.3f} vs 3*SE = {3 * combined:.3f} at 500 trials; "
           f"ordering {'ok' if ordering_ok else 'violated'}, monotone {'ok' if monotone_ok else 'violated'}, "
           f"{elapsed:.1f} s")


CRITERION_6_CONFIG = {
    "dims": {"M_P": 5, "M_S": 5, "N_P": 5, "N_S": 3},
    "alloc": {"d_P1": 1, "d_P2": 0, "d_S1": 2, "d_S2": 2},
    "power": {"Qav_P": 10.0, "Qav_S": 10.0},
    "budgets": [1.0, 10.0],
    "seed": 5,
    "trials": 10,
}

# sha256 of the criterion-6 data files, recorded with numpy 2.4.6 on
# OpenBLAS 0.3.31 (x86-64).  A change to these is a change to the numerics
# and must be made on purpose; another BLAS/LAPACK build may move the last
# bits of a float, which shows here first.
CRITERION_6_SHA256 = {
    "verify_report.csv": "010019ca31c4a33151a8cab7b91bee12af4720ed372e59d373edc85598f77b8d",
    "rates.csv": "e0d0c077b4d13f50646c286f8529e552c59d2c558d607aa01cf4f309092b82e3",
    "region.csv": "37261951e8fb54e5940b240871f67be4efb8b17bdea29680b5b1c564e6d73dcb",
    "region_projected.csv": "ff748e54057ce73fa037d3be4c7364b4c4c71d77452fb39158430690fdff75dc",
}


def run_criterion_6_commands(tmp_path, out):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(CRITERION_6_CONFIG))
    for cmd in ("verify", "dof-region", "rates"):
        assert cli_main([cmd, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0


def test_criterion_6_cli_determinism(tmp_path):
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        run_criterion_6_commands(tmp_path, out)
    identical = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in CRITERION_6_SHA256)
    report(6, "CLI determinism", identical,
           f"{len(CRITERION_6_SHA256)} data files byte-identical across reruns")


@pytest.mark.pin
def test_criterion_6_golden_outputs(tmp_path):
    run_criterion_6_commands(tmp_path, tmp_path / "out")
    got = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in CRITERION_6_SHA256}
    assert got == CRITERION_6_SHA256, build_note()


def test_criterion_7_numerics_kernel():
    rng_shapes = np.random.default_rng(616)
    worst_null = worst_svd = worst_solve = 0.0
    for i in range(60):
        m = int(rng_shapes.integers(1, 17))
        n = int(rng_shapes.integers(1, 17))
        A = np.random.default_rng(7000 + i).standard_normal((m, n))
        scale = max(1.0, float(np.linalg.norm(A)))

        B = null_space_basis(A)
        if B.shape[1]:
            worst_null = max(worst_null, float(np.linalg.norm(A @ B)) / scale)
            ortho = float(np.linalg.norm(B.T @ B - np.eye(B.shape[1])))
            worst_null = max(worst_null, ortho)

        phi, g, psi = svd_factor(A)
        worst_svd = max(worst_svd, float(np.linalg.norm(A - phi @ np.diag(g) @ psi.T)))

        if m <= n:
            b = np.random.default_rng(8000 + i).standard_normal(m)
            x = min_norm_right_solve(A, b)
            worst_solve = max(
                worst_solve, float(np.linalg.norm(A @ x - b)) / max(1.0, float(np.linalg.norm(b)))
            )
    ok = worst_null <= 1e-10 and worst_svd <= 1e-10 and worst_solve <= 1e-10
    report(7, "numerics kernel residuals", ok,
           f"null-space {worst_null:.2e}, svd reconstruction {worst_svd:.2e}, "
           f"min-norm solve {worst_solve:.2e}")
