"""Command-line front end: verification, DoF regions and rate sweeps.

Subcommands
-----------
verify      run the construction over many channel draws and report the
            worst residual interference plus water-filling KKT checks
dof-region  enumerate the achievable DoF region and export it as CSV
rates       Monte Carlo rate sweep over (budget, split) pairs

Exit codes: 0 success, 1 usage or I/O error, 2 infeasible allocation,
construction failure or oversized grid.  All data files are CSV with
'.' decimals, comma separators, LF line endings and a mandatory header
row; every run also writes a JSON manifest sufficient to reproduce it.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dof import (
    closed_form_feasible,
    enumerate_region,
    grid_size,
    grid_tuples,
    projected_frontier,
)
from .errors import (
    CogiaError,
    GridTooLarge,
    ScenarioError,
    TooManyDegenerateDraws,
)
from .alignment import draw_system, interference_report, lane_chunks
from .numerics import ZERO_TOL
from .rates import pcell_sum_rate, rate_region_sweep, scell_sum_rate
from .scenario import Scenario, derive_seed, load_scenario

def _fmt(value) -> str:
    if isinstance(value, float):
        # float() first: numpy 2 writes repr(np.float64(x)) as "np.float64(x)"
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> str:
    """Write one CSV file; returns the sha256 of the bytes written."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _write_manifest(out_dir: Path, command: str, scenario: Scenario, seed: int, outputs: dict[Path, str]) -> Path:
    """Write the run's manifest; ``outputs`` maps each written file to its sha256."""
    canonical = json.dumps(scenario.raw, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    manifest = {
        "tool": "cogia",
        "version": __version__,
        "command": command,
        "scenario_digest": digest,
        "scenario": scenario.raw,
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [{"path": p.name, "sha256": digest} for p, digest in outputs.items()],
    }
    path = out_dir / f"manifest_{command}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _seed_and_trials(args, scenario: Scenario) -> tuple[int, int]:
    """The run's seed and trial count: the command line's, else the scenario's.

    A command-line seed is held to the scenario file's rule.
    """
    seed = derive_seed(args.seed) if args.seed is not None else scenario.seed
    trials = args.trials if args.trials is not None else scenario.trials
    if trials < 1:
        raise ScenarioError(f"trials must be a positive integer, got {trials}")
    return seed, trials


def cmd_verify(args) -> int:
    scenario = load_scenario(args.config)
    if scenario.alloc is None:
        print("verify requires an 'alloc' object in the scenario", file=sys.stderr)
        return 1
    seed, trials = _seed_and_trials(args, scenario)
    dims, alloc, noise = scenario.dims, scenario.alloc, scenario.noise

    verdict = closed_form_feasible(dims, alloc)
    if not verdict.feasible:
        print(f"allocation {alloc.as_tuple()} infeasible for dims {dims.as_tuple()}:", file=sys.stderr)
        for v in verdict.violated:
            print(f"  violated: {v}", file=sys.stderr)
        return 2

    seeds = [derive_seed(seed, t) for t in range(trials)]
    rows = []
    try:
        for part in lane_chunks(trials):
            ch, prs = draw_system(dims, alloc, seeds[part])
            report = interference_report(ch, prs)
            rp = pcell_sum_rate(prs, report.eff, noise)
            rs = scell_sum_rate(prs, report.eff, noise)
            columns = [report.worst_case, *report.entries.values()]
            columns += [_trial_kkt(rp, rs), rp.sum_rate, rs.sum_rate, rp.uncharged_correction_power]
            rows.extend([t, *row] for t, row in zip(range(part.start, part.stop), zip(*columns)))
    except ScenarioError:
        raise
    except CogiaError as exc:
        print(f"construction failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    # trials >= 1, so the loop ran and ``report`` names the leakage paths
    header = ["trial", "worst_case", *report.entries, "kkt_gap", "R_P", "R_S", "uncharged_correction_power"]
    worst_overall = max(row[header.index("worst_case")] for row in rows)
    kkt_overall = max(row[header.index("kkt_gap")] for row in rows)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "verify_report.csv"
    outputs = {report_path: _write_csv(report_path, header, rows)}
    manifest = _write_manifest(out_dir, "verify", scenario, seed, outputs)
    _say(args, f"trials: {trials}")
    _say(args, f"worst residual interference (relative): {worst_overall:.3e}")
    _say(args, f"worst water-filling KKT gap: {kkt_overall:.3e}")
    _say(args, f"wrote {report_path} and {manifest}")
    if worst_overall <= ZERO_TOL:
        _say(args, "PASS: intra- and inter-cell interference cancelled to tolerance")
        return 0
    print(f"FAIL: worst residual {worst_overall:.3e} exceeds {ZERO_TOL:.1e}", file=sys.stderr)
    return 2


def _trial_kkt(rp, rs):
    """Worst KKT gap across both cells of each trial (per lane)."""
    return np.maximum(rp.allocation.kkt_gap, rs.allocation.kkt_gap)


def cmd_dof_region(args) -> int:
    scenario = load_scenario(args.config)
    seed, trials = _seed_and_trials(args, scenario)
    dims = scenario.dims
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        region = enumerate_region(dims, mode="closed_form", seed=seed, cap=scenario.grid_cap)
    except GridTooLarge as exc:
        print(f"grid too large: {exc}", file=sys.stderr)
        return 2

    def grid_rows(reg) -> list[list]:
        points, frontier = set(reg.points), set(reg.frontier)
        return [list(t.as_tuple()) + [int(t in points), int(t in frontier)] for t in grid_tuples(dims)]

    header = ["d_P1", "d_P2", "d_S1", "d_S2", "feasible", "frontier"]
    region_path = out_dir / "region.csv"
    outputs = {region_path: _write_csv(region_path, header, grid_rows(region))}

    projected_path = out_dir / "region_projected.csv"
    frontier_rows = [list(p) for p in projected_frontier(region)]
    outputs[projected_path] = _write_csv(projected_path, ["dS_sum", "dP_sum_max"], frontier_rows)

    if args.constructive:
        try:
            region_c = enumerate_region(
                dims, mode="constructive", seed=seed, trials=trials, cap=scenario.grid_cap
            )
        except (GridTooLarge, TooManyDegenerateDraws) as exc:
            print(f"constructive enumeration failed: {exc}", file=sys.stderr)
            return 2
        constructive_path = out_dir / "region_constructive.csv"
        outputs[constructive_path] = _write_csv(constructive_path, header, grid_rows(region_c))
        feasible, feasible_c = set(region.points), set(region_c.points)
        diff_rows = [
            list(t.as_tuple()) + [int(t in feasible), int(t in feasible_c)]
            for t in grid_tuples(dims)
            if (t in feasible) != (t in feasible_c)
        ]
        diff_path = out_dir / "region_diff.csv"
        diff_header = ["d_P1", "d_P2", "d_S1", "d_S2", "closed_form", "constructive"]
        outputs[diff_path] = _write_csv(diff_path, diff_header, diff_rows)
        _say(args, f"closed-form vs constructive differences: {len(diff_rows)}")

    manifest = _write_manifest(out_dir, "dof-region", scenario, seed, outputs)
    _say(args, f"feasible tuples: {len(region.points)} of {grid_size(dims)}; frontier size: {len(region.frontier)}")
    _say(args, "wrote " + ", ".join(str(p) for p in [*outputs, manifest]))
    return 0


def cmd_rates(args) -> int:
    scenario = load_scenario(args.config)
    if not scenario.splits:
        print("rates requires 'alloc' or 'splits' in the scenario", file=sys.stderr)
        return 1
    seed, trials = _seed_and_trials(args, scenario)
    dims, noise = scenario.dims, scenario.noise
    sigma2s = (noise.sigma2_P1, noise.sigma2_P2, noise.sigma2_S1, noise.sigma2_S2)

    try:
        points = rate_region_sweep(
            dims, scenario.splits, scenario.budgets, trials=trials, seed=seed, sigma2s=sigma2s
        )
    except ScenarioError:
        raise
    except CogiaError as exc:
        print(f"rate sweep failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rates_path = out_dir / "rates.csv"
    header = [
        "qav", "d_P1", "d_P2", "d_S1", "d_S2",
        "R_P_mean", "R_S_mean", "R_P_stderr", "R_S_stderr", "trials", "seed",
    ]
    rows = [
        [pt.Qav, *pt.alloc.as_tuple(), pt.R_P, pt.R_S, pt.R_P_stderr, pt.R_S_stderr, pt.trials, seed]
        for pt in points
    ]
    outputs = {rates_path: _write_csv(rates_path, header, rows)}
    manifest = _write_manifest(out_dir, "rates", scenario, seed, outputs)
    _say(args, f"rate points: {len(points)} ({len(scenario.splits)} splits x {len(scenario.budgets)} budgets)")
    _say(args, f"wrote {rates_path} and {manifest}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cogia",
        description="Two-cell cognitive network interference-alignment simulator",
    )
    parser.add_argument("--version", action="version", version=f"cogia {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default="./out", help="output directory (default ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--trials", type=int, default=None, help="override the scenario trial count")
        p.add_argument("--quiet", action="store_true", help="suppress informational output")

    p_verify = sub.add_parser("verify", help="check interference cancellation numerically")
    common(p_verify)

    p_region = sub.add_parser("dof-region", help="enumerate the achievable DoF region")
    common(p_region)
    p_region.add_argument(
        "--constructive",
        action="store_true",
        help="also enumerate by explicit construction and emit a diff file",
    )

    p_rates = sub.add_parser("rates", help="Monte Carlo sum-rate sweep")
    common(p_rates)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a handler replaced on the module is the one that runs
    handlers = {"verify": cmd_verify, "dof-region": cmd_dof_region, "rates": cmd_rates}
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
