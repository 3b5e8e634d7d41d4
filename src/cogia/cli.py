"""Command-line front end: verification, DoF regions and rate sweeps.

Subcommands
-----------
verify      run the construction over many channel draws and report the
            worst residual interference plus water-filling KKT checks
dof-region  enumerate the achievable DoF region and export it as CSV
rates       Monte Carlo rate sweep over (budget, split) pairs

Exit codes: 0 success; 1 usage, config or I/O error; 2 a run refused
with a CogiaError (infeasible allocation, construction refusal,
oversized grid) or verify's FAIL.  Each command computes first and
writes last, through ``_write_run``: a refused run writes no directory,
CSV or manifest, only one ``<command> failed: <Class>: <message>`` or
``scenario error: <message>`` line on stderr.  Verify's FAIL still
writes its report.  All data files are CSV with '.' decimals, comma
separators, LF line endings and a mandatory header row; every run also
writes a JSON manifest, one line, sufficient to reproduce it.  A rerun
into the same ``--out`` replaces each output file rather than rewriting
it in place: a symlink there becomes a regular file and its target is
left alone, a hard link to an earlier output keeps that run's bytes, and
the new file takes the umask mode; a path that reappears before the
create is refused as an I/O error, not written through.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dof import enumerate_region, grid_size, grid_tuples, projected_frontier, require_feasible
from .errors import CogiaError, ScenarioError
from .alignment import draw_trials, interference_report
from .numerics import ZERO_TOL
from .rates import cell_sum_rates, rate_region_sweep
from .scenario import _MASK64, Scenario, _integer, load_scenario


# create a new file only: a path that reappears after the unlink is refused, not written through
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0) | getattr(os, "O_BINARY", 0)


def _replace(path: Path, data: bytes) -> None:
    """Write ``data`` to a new file at ``path``, first removing what is there.

    A file, hard link or symlink at ``path`` is unlinked, never written
    through or truncated: on ext4, truncating a file that holds data
    flushes it, which costs a rerun more than a fresh create.  The file is
    then created with one exclusive ``os.open`` (mode 0o666 under the
    umask) and written unbuffered; anything recreated at ``path`` in
    between raises FileExistsError, an ``I/O error``.
    """
    path.unlink(missing_ok=True)
    fd = os.open(path, _CREATE, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> str:
    """Write one CSV file; returns the sha256 of the bytes written."""
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    _replace(path, data)
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
    # one line: indent= would force json's pure-Python encoder
    _replace(path, (json.dumps(manifest, sort_keys=True) + "\n").encode("utf-8"))
    return path


def _write_run(args, command: str, scenario: Scenario, seed: int, tables: dict[str, tuple[list[str], list]]) -> None:
    """Create ``--out`` and write each ``name: (header, rows)`` table, then the manifest.

    The one writer of a run's files: a command calls it once, after every
    number is computed, so a refused run leaves nothing behind.
    """
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for name, (header, rows) in tables.items():
        path = out_dir / name
        outputs[path] = _write_csv(path, header, rows)
    manifest = _write_manifest(out_dir, command, scenario, seed, outputs)
    _say(args, "wrote " + ", ".join(str(p) for p in [*outputs, manifest]))


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_verify(args, scenario: Scenario, seed: int, trials: int) -> int:
    if scenario.alloc is None:
        raise ScenarioError("verify requires an 'alloc' object in the scenario")
    dims, alloc, noise = scenario.dims, scenario.alloc, scenario.noise
    require_feasible(dims, alloc)

    rows = []
    for part, ch, prs in draw_trials(dims, alloc, seed, trials):
        report = interference_report(ch, prs)
        rp, rs = cell_sum_rates(prs, report.eff, noise)
        columns = [report.worst_case, *report.entries.values()]
        columns += [_trial_kkt(rp, rs), rp.sum_rate, rs.sum_rate, rp.uncharged_correction_power]
        rows.extend([t, *row] for t, row in enumerate(np.stack(columns, axis=-1).tolist(), part.start))

    # trials >= 1, so the loop ran and ``report`` names the leakage paths
    header = ["trial", "worst_case", *report.entries, "kkt_gap", "R_P", "R_S", "uncharged_correction_power"]
    worst_overall = max(row[header.index("worst_case")] for row in rows)
    kkt_overall = max(row[header.index("kkt_gap")] for row in rows)
    _say(args, f"trials: {trials}")
    _say(args, f"worst residual interference (relative): {worst_overall:.3e}")
    _say(args, f"worst water-filling KKT gap: {kkt_overall:.3e}")
    _write_run(args, "verify", scenario, seed, {"verify_report.csv": (header, rows)})
    if worst_overall <= ZERO_TOL:
        _say(args, "PASS: intra- and inter-cell interference cancelled to tolerance")
        return 0
    print(f"FAIL: worst residual {worst_overall:.3e} exceeds {ZERO_TOL:.1e}", file=sys.stderr)
    return 2


def _trial_kkt(rp, rs):
    """Worst KKT gap across both cells of each trial (per lane)."""
    return np.maximum(rp.allocation.kkt_gap, rs.allocation.kkt_gap)


def cmd_dof_region(args, scenario: Scenario, seed: int, trials: int) -> int:
    dims = scenario.dims
    region = enumerate_region(dims, mode="closed_form", cap=scenario.grid_cap)

    def grid_rows(reg) -> list[list]:
        points, frontier = set(reg.points), set(reg.frontier)
        return [list(t.as_tuple()) + [int(t in points), int(t in frontier)] for t in grid_tuples(dims)]

    header = ["d_P1", "d_P2", "d_S1", "d_S2", "feasible", "frontier"]
    tables = {
        "region.csv": (header, grid_rows(region)),
        "region_projected.csv": (["dS_sum", "dP_sum_max"], [list(p) for p in projected_frontier(region)]),
    }
    if args.constructive:
        region_c = enumerate_region(dims, mode="constructive", seed=seed, trials=trials, cap=scenario.grid_cap)
        tables["region_constructive.csv"] = (header, grid_rows(region_c))
        # both files' rows walk the same grid: a row pair differs where its feasible flags do
        pairs = zip(tables["region.csv"][1], tables["region_constructive.csv"][1])
        diff_rows = [[*row[:5], row_c[4]] for row, row_c in pairs if row[4] != row_c[4]]
        diff_header = ["d_P1", "d_P2", "d_S1", "d_S2", "closed_form", "constructive"]
        tables["region_diff.csv"] = (diff_header, diff_rows)
        _say(args, f"closed-form vs constructive differences: {len(diff_rows)}")

    _say(args, f"feasible tuples: {len(region.points)} of {grid_size(dims)}; frontier size: {len(region.frontier)}")
    _write_run(args, "dof-region", scenario, seed, tables)
    return 0


def cmd_rates(args, scenario: Scenario, seed: int, trials: int) -> int:
    if not scenario.splits:
        raise ScenarioError("rates requires 'alloc' or 'splits' in the scenario")
    points = rate_region_sweep(scenario.dims, scenario.splits, scenario.budgets, trials, seed, noise=scenario.noise)

    header = [
        "qav", "d_P1", "d_P2", "d_S1", "d_S2",
        "R_P_mean", "R_S_mean", "R_P_stderr", "R_S_stderr", "trials", "seed",
    ]
    rows = [
        [pt.Qav, *pt.alloc.as_tuple(), pt.R_P, pt.R_S, pt.R_P_stderr, pt.R_S_stderr, pt.trials, seed]
        for pt in points
    ]
    _say(args, f"rate points: {len(points)} ({len(scenario.splits)} splits x {len(scenario.budgets)} budgets)")
    _write_run(args, "rates", scenario, seed, {"rates.csv": (header, rows)})
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
    """Run one command; the one place that loads a run's scenario and maps an error to an exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, a code kept for refused runs
        return 1 if exc.code else 0
    # looked up per call, so a handler replaced on the module is the one that runs
    handlers = {"verify": cmd_verify, "dof-region": cmd_dof_region, "rates": cmd_rates}
    try:
        scenario = load_scenario(args.config)
        # the command line's seed and trial count, else the scenario's, held to the file's rules
        seed = _integer(args.seed, "seed", 0, _MASK64) if args.seed is not None else scenario.seed
        trials = _integer(args.trials, "trials", 1) if args.trials is not None else scenario.trials
        return handlers[args.command](args, scenario, seed, trials)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except CogiaError as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
