"""What the benchmark under perfbench/ needs from the package.

The benchmark's tracer wraps every (module, function) pair it lists at each
call site, and its set-up probe makes the first construction and rate calls
of a fresh interpreter.  A refactor that renames or drops one of those
functions breaks the benchmark; these tests catch it in the test suite.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from cogia import alignment, cli, dof, rates, scenario

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(tracer):
    missing = [
        f"{layer}.{name}"
        for layer, name in tracer.TARGETS
        if not hasattr(importlib.import_module(f"cogia.{layer}"), name)
    ]
    assert missing == []


def test_traced_readme_run_leaves_no_wrappers(tracer):
    with tracer.Tracer() as tr:
        sc = scenario.load_scenario(BENCH / "scenarios" / "readme.json")
        ch = scenario.generate_channels(sc.dims, sc.seed)
        prs = alignment.build_all(ch, sc.alloc, sc.seed)
        assert alignment.interference_report(ch, prs).worst_case <= 1e-9
        eff = alignment.effective_channels(ch, prs)
        rp = rates.pcell_sum_rate(prs, eff, sc.noise)
        rs = rates.scell_sum_rate(prs, eff, sc.noise)
    assert rp.sum_rate > 0.0 and rs.sum_rate > 0.0
    assert tr.call_count("alignment.build_all") == 1
    assert tracer.leftover_wrappers() == []


def test_traced_check_builds_its_trials_as_one_stack(tracer):
    dims, alloc = scenario.NetworkDims(5, 5, 5, 3), scenario.StreamAlloc(1, 0, 2, 2)
    # a first draw makes this thread's Philox instance, whatever ran before
    scenario.generate_channels(dims, 0)
    with tracer.Tracer() as tr:
        assert dof.constructive_check(dims, alloc, trials=20, seed=5).feasible
    # the closed form accepts the tuple, so no probe: all 20 trials in one
    # call (draw_system runs the stages of build_all itself), every draw
    # from the thread's Philox instance; all 20 trials then share one set
    # of effective channels
    assert tr.call_count("alignment.build_primary_receivers") == 1
    assert tr.counts["scenario.philox_inits"] == 0
    assert tr.call_count("alignment.effective_channels") == 1
    assert tr.counts["numpy.svd.matrices"] > tr.counts["numpy.svd.calls"]
    assert tracer.leftover_wrappers() == []


def test_traced_refusal_at_the_secondary_alignment_costs_one_svd(tracer):
    # d_S1 = 2 > M_S - N_S = 1 with d_S1 <= N_S: the selectors pass and S1's
    # zero-forcing refuses trial 0, so the refusal path is one SVD on one
    # draw from the thread's Philox instance; new work there shows up here
    dims, alloc = scenario.NetworkDims(5, 4, 5, 3), scenario.StreamAlloc(0, 0, 2, 0)
    scenario.generate_channels(dims, 0)
    with tracer.Tracer() as tr:
        verdict = dof.constructive_check(dims, alloc, trials=20, seed=5)
    assert [v.detail for v in verdict.violated] == [
        "trial 0: NoComplement: avoid space for stream 1 of S1 fills all 4 dimensions"
    ]
    assert tr.counts["numpy.svd.calls"] == 1
    assert tr.counts["scenario.philox_inits"] == 0
    assert tracer.leftover_wrappers() == []


def test_traced_refusal_at_the_primary_receivers_costs_four_svds(tracer):
    # N_P = 3 < d_P1 + d_S1 + d_S2 = 4: a late refusal that runs almost a
    # whole one-draw build: S1 and S2 zero-force (2 SVDs), V_P1's one column
    # comes from the null space of H_P2 (Z = 2, 1 SVD), no stream needs a
    # correction, and P1's zero-forcing refuses (1 SVD); new work there shows up here
    dims, alloc = scenario.NetworkDims(5, 5, 3, 2), scenario.StreamAlloc(1, 0, 2, 1)
    scenario.generate_channels(dims, 0)
    with tracer.Tracer() as tr:
        verdict = dof.constructive_check(dims, alloc, trials=20, seed=5)
    assert [(v.stage, v.detail) for v in verdict.violated] == [
        ("primary_receivers", "trial 0: NoComplement: avoid space for stream 1 of P1 fills all 3 dimensions")
    ]
    assert tr.counts["numpy.svd.calls"] == 4
    assert tr.counts["scenario.philox_inits"] == 0
    assert tracer.leftover_wrappers() == []


@pytest.mark.parametrize(
    "dims_tuple, alloc_tuple, feasible",
    [((5, 5, 5, 3), (1, 0, 2, 2), True), ((5, 4, 5, 3), (0, 0, 2, 0), False)],
    ids=["feasible-stack", "secondary-refusal"],
)
def test_traced_draws_run_the_public_secondary_stage(tracer, dims_tuple, alloc_tuple, feasible):
    # draw_system runs build_secondary_precoders itself, so the benchmark's
    # alignment.build_secondary_precoders.self_s times the alignment every
    # draw makes: once for a feasible tuple's 20-lane stack, once for the
    # trial-0 draw a secondary refusal stops at
    dims, alloc = scenario.NetworkDims(*dims_tuple), scenario.StreamAlloc(*alloc_tuple)
    scenario.generate_channels(dims, 0)
    with tracer.Tracer() as tr:
        assert dof.constructive_check(dims, alloc, trials=20, seed=5).feasible is feasible
    assert tr.call_count("alignment.build_secondary_precoders") == 1
    assert tracer.leftover_wrappers() == []


def test_traced_rates_fill_each_cell_once_per_stack(tracer, tmp_path):
    config = BENCH / "scenarios" / "readme.json"
    with tracer.Tracer() as tr:
        assert cli.main(["rates", "--config", str(config), "--out", str(tmp_path), "--trials", "4", "--quiet"]) == 0
    # splits (1,0,2,2) and (1,1,1,1): one stacked factorization per served
    # user (P1, S1, S2, then all four); the 4 trials make one stack, and
    # one cell-stacked solve serves both splits' cells and all three
    # budgets, so the public one-cell waterfill_cell never runs
    assert tr.call_count("numerics.svd_factor") == 3 + 4
    assert tr.call_count("rates.waterfill_cell") == 0
    assert tr.call_count("cli.cmd_rates") == 1
    assert tracer.leftover_wrappers() == []


def test_traced_verify_rates_both_cells_in_one_call(tracer, tmp_path):
    config = BENCH / "scenarios" / "verify_large.json"
    argv = ["verify", "--config", str(config), "--out", str(tmp_path), "--trials", "8", "--quiet"]
    with tracer.Tracer() as tr:
        assert cli.main(argv) == 0
    # alloc (4,4,3,3): the 8 trials make one stack, each served user is
    # factored once over it, and one solve rates both cells, so the public
    # one-cell rates never run
    assert tr.call_count("numerics.svd_factor") == 4
    assert tr.call_count("rates.pcell_sum_rate") == 0
    assert tr.call_count("rates.scell_sum_rate") == 0
    assert tr.call_count("cli._trial_kkt") == 1
    assert tracer.leftover_wrappers() == []


def test_setup_probe_exits_zero():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py")], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
