"""CLI subcommands: exit codes, CSV artifacts, manifests, determinism."""

import argparse
import dataclasses
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import cogia.alignment
import cogia.cli
import cogia.rates
from cogia.cli import main
from cogia.errors import (
    DegenerateChannel,
    GridTooLarge,
    InfeasibleAlloc,
    NoComplement,
    RankDeficient,
    TooManyDegenerateDraws,
)
from cogia.scenario import StreamAlloc, derive_seed

REFERENCE_NETWORK = {
    "dims": {"M_P": 5, "M_S": 5, "N_P": 5, "N_S": 3},
    "alloc": {"d_P1": 1, "d_P2": 0, "d_S1": 2, "d_S2": 2},
    "power": {"Qav_P": 10.0, "Qav_S": 10.0},
    "seed": 7,
    "trials": 20,
}


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestVerify:
    def test_clean_scenario_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        report = out / "verify_report.csv"
        header, rows = read_rows(report)
        assert len(rows) == 20
        worst = max(float(r[header.index("worst_case")]) for r in rows)
        assert worst <= 1e-9

    def test_report_cells_are_plain_numbers(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        _, rows = read_rows(out / "verify_report.csv")
        for row in rows:
            for cell in row:
                assert not cell.startswith("np.")
                float(cell)

    def test_degenerate_first_draw_is_redrawn(self, tmp_path, monkeypatch):
        # every trial's first draw is degenerate, its second one builds;
        # the three trials are built as one stack
        real = cogia.alignment._build_primary
        calls = []

        def flaky(ch, d, seeds, *secondary):
            calls.append(list(seeds))
            if len(calls) == 1:
                raise DegenerateChannel("forced", lanes=np.ones(len(seeds), dtype=bool))
            return real(ch, d, seeds, *secondary)

        monkeypatch.setattr(cogia.alignment, "_build_primary", flaky)
        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--trials", "3", "--quiet"]) == 0
        _, rows = read_rows(out / "verify_report.csv")
        trial_seeds = [derive_seed(REFERENCE_NETWORK["seed"], t) for t in range(3)]
        assert len(rows) == 3
        assert calls == [[derive_seed(s, attempt) for s in trial_seeds] for attempt in (0, 1)]

    def test_rates_both_cells_in_one_solve_per_stack(self, tmp_path, monkeypatch):
        calls = []
        real = cogia.rates._waterfill_cells

        def spy(cells, rows, lanes):
            calls.append((rows, lanes))
            return real(cells, rows, lanes)

        monkeypatch.setattr(cogia.rates, "_waterfill_cells", spy)
        monkeypatch.setattr(cogia.alignment, "LANE_CHUNK", 3)
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, power={"Qav_P": 10.0, "Qav_S": 20.0}))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--trials", "4", "--quiet"]) == 0
        # stacks of 3 and 1 trials, one solve each over the primary and the
        # secondary cell, one budget row per cell
        assert [(rows.tolist(), lanes) for rows, lanes in calls] == [([10.0, 20.0], lanes) for lanes in ((3,), (1,))]

    def test_infeasible_alloc_exits_two(self, tmp_path, capsys):
        bad = dict(REFERENCE_NETWORK, alloc={"d_P1": 0, "d_P2": 0, "d_S1": 3, "d_S2": 0})
        cfg = write_config(tmp_path, bad)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "d_S1 <= M_S - N_S" in err

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, bogus=1))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_trials_override(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        out = tmp_path / "out"
        main(["verify", "--config", cfg, "--out", str(out), "--trials", "5", "--quiet"])
        _, rows = read_rows(out / "verify_report.csv")
        assert len(rows) == 5

    def test_manifest_digest_recomputable(self, tmp_path):
        import hashlib

        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        out = tmp_path / "out"
        main(["verify", "--config", cfg, "--out", str(out), "--quiet"])
        manifest = json.loads((out / "manifest_verify.json").read_text())
        canonical = json.dumps(manifest["scenario"], sort_keys=True, separators=(",", ":"))
        assert manifest["scenario_digest"] == hashlib.sha256(canonical.encode()).hexdigest()
        assert manifest["seed"] == 7
        for entry in manifest["outputs"]:
            data = (out / entry["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]


class TestManifest:
    SMALL = {"dims": {"M_P": 3, "M_S": 3, "N_P": 2, "N_S": 1}, "alloc": {"d_P1": 1, "d_P2": 0, "d_S1": 1, "d_S2": 0}}

    @pytest.mark.parametrize("args", [["verify"], ["rates"], ["dof-region", "--constructive"]])
    def test_output_hashes_match_the_files(self, tmp_path, args):
        import hashlib

        cfg = write_config(tmp_path, dict(self.SMALL, trials=3, seed=4))
        out = tmp_path / "out"
        assert main([*args, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / f"manifest_{args[0]}.json").read_text())
        written = sorted(path.name for path in out.glob("*.csv"))
        assert sorted(entry["path"] for entry in manifest["outputs"]) == written
        for entry in manifest["outputs"]:
            assert entry["sha256"] == hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()


class TestRerun:
    """A rerun into the same ``--out`` replaces each output file, never rewriting it in place."""

    FILES = {"verify": "verify_report.csv", "rates": "rates.csv"}

    @pytest.mark.parametrize("command", ["verify", "rates"])
    def test_hard_links_keep_the_earlier_run(self, tmp_path, command):
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, trials=3, budgets=[1.0, 10.0]))
        out, links = tmp_path / "out", tmp_path / "links"
        links.mkdir()

        def run(out, seed):
            assert main([command, "--config", cfg, "--out", str(out), "--seed", seed, "--quiet"]) == 0

        run(out, "7")
        names = [self.FILES[command], f"manifest_{command}.json"]
        first = {}
        for name in names:
            (links / name).hardlink_to(out / name)
            first[name] = (out / name).read_bytes()
        run(out, "8")
        run(tmp_path / "fresh", "8")
        assert {name: (links / name).read_bytes() for name in names} == first
        csv = self.FILES[command]
        assert (out / csv).read_bytes() == (tmp_path / "fresh" / csv).read_bytes() != first[csv]

    def test_symlink_is_replaced_and_its_target_kept(self, tmp_path):
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, trials=3))
        out, target = tmp_path / "out", tmp_path / "target.csv"
        out.mkdir()
        target.write_bytes(b"kept\n")
        (out / "verify_report.csv").symlink_to(target)
        assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        report = out / "verify_report.csv"
        assert report.is_file() and not report.is_symlink()
        assert report.read_text().startswith("trial,worst_case,")
        assert target.read_bytes() == b"kept\n"

    def test_dangling_symlink_is_replaced_and_its_target_not_created(self, tmp_path):
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, trials=3))
        out, target = tmp_path / "out", tmp_path / "missing.csv"
        out.mkdir()
        (out / "rates.csv").symlink_to(target)
        assert main(["rates", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        report = out / "rates.csv"
        assert report.is_file() and not report.is_symlink()
        assert report.read_text().startswith("qav,")
        assert not target.exists() and not target.is_symlink()

    @pytest.mark.parametrize("command", ["verify", "rates"])
    def test_new_files_take_the_umask_mode(self, tmp_path, command):
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, trials=3))
        out = tmp_path / "out"
        old = os.umask(0o027)
        try:
            assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        finally:
            os.umask(old)
        for name in (self.FILES[command], f"manifest_{command}.json"):
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o640, name

    def test_path_recreated_after_the_unlink_is_refused(self, tmp_path, capsys, monkeypatch):
        # a symlink appears at the CSV's path between the unlink and the
        # create: the run refuses it and does not write through it
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, trials=3))
        out, target = tmp_path / "out", tmp_path / "target.csv"
        out.mkdir()
        target.write_bytes(b"kept\n")
        real_unlink = Path.unlink

        def racing_unlink(path, missing_ok=False):
            real_unlink(path, missing_ok=missing_ok)
            if path.name == "rates.csv":
                path.symlink_to(target)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        assert main(["rates", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("I/O error: ")
        assert (out / "rates.csv").is_symlink() and target.read_bytes() == b"kept\n"
        assert not (out / "manifest_rates.json").exists()


class TestRefusal:
    """Every exit-2 refusal prints one classified line and writes nothing."""

    RATES = {
        "dims": REFERENCE_NETWORK["dims"],
        "splits": [{"d_P1": 1, "d_P2": 0, "d_S1": 2, "d_S2": 2}],
        "budgets": [1.0, 10.0],
        "trials": 3,
    }
    BAD_ALLOC = {"d_P1": 0, "d_P2": 0, "d_S1": 3, "d_S2": 0}
    BAD_SPLIT = {"d_P1": 2, "d_P2": 0, "d_S1": 2, "d_S2": 2}
    BIG_GRID = {"dims": {"M_P": 16, "M_S": 16, "N_P": 1, "N_S": 1}, "grid_cap": 100}

    # ``forced_in``: the module whose ``draw_system`` is replaced by one raising ``error``
    @pytest.mark.parametrize(
        "argv, config, forced_in, error",
        [
            pytest.param(["verify"], dict(REFERENCE_NETWORK, alloc=BAD_ALLOC), None, InfeasibleAlloc, id="verify-alloc"),
            pytest.param(["verify"], REFERENCE_NETWORK, cogia.alignment, NoComplement, id="verify-build"),
            pytest.param(["rates"], dict(RATES, splits=[BAD_SPLIT]), None, InfeasibleAlloc, id="rates-split"),
            pytest.param(["rates"], RATES, cogia.alignment, RankDeficient, id="rates-build"),
            pytest.param(["dof-region"], BIG_GRID, None, GridTooLarge, id="dof-grid"),
            pytest.param(
                ["dof-region", "--constructive"], REFERENCE_NETWORK, cogia.alignment, TooManyDegenerateDraws, id="dof-build"
            ),
        ],
    )
    def test_refused_run_writes_nothing(self, tmp_path, capsys, monkeypatch, argv, config, forced_in, error):
        if forced_in is not None:
            def refuse(*args):
                raise error("forced")

            monkeypatch.setattr(forced_in, "draw_system", refuse)
        out = tmp_path / "o"
        assert main(argv + ["--config", write_config(tmp_path, config), "--out", str(out)]) == 2
        assert f"{argv[0]} failed: {error.__name__}:" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_verification_still_writes_its_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cogia.cli, "ZERO_TOL", 0.0)
        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "FAIL: worst residual" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["manifest_verify.json", "verify_report.csv"]


class TestRepeatedKey:
    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"dims": {"M_P": 5, "M_S": 5, "N_P": 5, "N_S": 3}, '
             '"dims": {"M_P": 3, "M_S": 3, "N_P": 2, "N_S": 1}, '
             '"alloc": {"d_P1": 1, "d_P2": 0, "d_S1": 1, "d_S2": 0}}', "dims"),
            ('{"dims": {"M_P": 5, "M_S": 5, "N_P": 5, "N_S": 3}, '
             '"alloc": {"d_P1": 1, "d_P2": 0, "d_S1": 2, "d_S2": 2, "d_S1": 1}}', "d_S1"),
        ],
        ids=["top-level", "in-alloc"],
    )
    def test_repeated_key_is_a_scenario_error(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--trials", "2", "--quiet"]) == 1
        assert f"scenario error: repeated key {key!r} in {cfg}" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteScenario:
    @pytest.mark.parametrize("command", ["verify", "rates"])
    @pytest.mark.parametrize(
        "patch",
        [
            {"budgets": [1.0, math.inf]},
            {"power": {"Qav_P": math.inf, "Qav_S": 10.0}},
            {"noise": {"sigma2_S1": math.inf}},
        ],
    )
    def test_infinity_is_a_scenario_error(self, tmp_path, capsys, command, patch):
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, **patch))
        assert "Infinity" in (tmp_path / "scenario.json").read_text()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        assert "scenario error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # integers too large for a float: refused as the scenario's numbers,
    # with the one line the CLI promises, not an OverflowError traceback
    @pytest.mark.parametrize("command", ["verify", "rates"])
    @pytest.mark.parametrize(
        "patch, name",
        [
            ({"budgets": [1.0, 10**400]}, "budgets[1]"),
            ({"power": {"Qav_P": 10**400, "Qav_S": 10.0}}, "Qav_P"),
            ({"noise": {"sigma2_S1": 10**400}}, "sigma2_S1"),
        ],
        ids=["budget", "power", "noise"],
    )
    def test_integer_too_large_for_a_float_is_a_scenario_error(self, tmp_path, capsys, command, patch, name):
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, **patch))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"scenario error: {name} must be a finite positive number, got 1000")
        assert not (tmp_path / "o").exists()

    # finite numbers whose water level or rate overflows float64; the
    # message names the first failing cell, primary before secondary, at
    # its smallest budget at fault
    @pytest.mark.parametrize("command", ["verify", "rates"])
    @pytest.mark.parametrize(
        "patch, cell, budget",
        [
            ({"power": {"Qav_P": 1e308, "Qav_S": 1e308}, "budgets": [1.0, 1e308]}, "primary", "1e+308"),
            ({"noise": {"sigma2_P1": 5e-324}}, "primary", "10.0"),
            ({"noise": {"sigma2_S1": 5e-324}}, "secondary", "10.0"),
        ],
        ids=["budget", "noise", "secondary-noise"],
    )
    def test_overflow_is_a_scenario_error(self, tmp_path, capsys, command, patch, cell, budget):
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, **patch))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"scenario error: the {cell} cell's rate problem overflows float64 at budget {budget}" in err
        assert "Warning" not in err
        assert not (tmp_path / "o").exists()

    # P2's noise variance of 5e-324 overflows every rate of a cell serving
    # P2: split (1, 1, 1, 1)'s primary cell (cell 2), not split (1, 0, 2, 2)'s
    SPLITS = {
        "dims": REFERENCE_NETWORK["dims"],
        "splits": [{"d_P1": 1, "d_P2": 0, "d_S1": 2, "d_S2": 2}, {"d_P1": 1, "d_P2": 1, "d_S1": 1, "d_S2": 1}],
        "noise": {"sigma2_P2": 5e-324},
        "trials": 3,
    }

    @pytest.mark.parametrize(
        "budgets, message",
        [
            ([1.0, 10.0], "the primary cell's rate problem overflows float64 at budget 1.0 in split (1, 1, 1, 1)"),
            # cell 0 fails only at 1e308, cell 2 at every budget: the first
            # failing cell is named, at its own smallest failing budget
            ([1.0, 1e308], "the primary cell's rate problem overflows float64 at budget 1e+308 in split (1, 0, 2, 2)"),
        ],
        ids=["names-its-split", "first-cell-first"],
    )
    def test_rates_overflow_names_its_split(self, tmp_path, capsys, budgets, message):
        cfg = write_config(tmp_path, dict(self.SPLITS, budgets=budgets))
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        assert capsys.readouterr().err == f"scenario error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestTrialCount:
    @pytest.mark.parametrize("argv", [["verify"], ["rates"], ["dof-region", "--constructive"]])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_is_a_scenario_error(self, tmp_path, capsys, argv, trials):
        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        out = tmp_path / "o"
        assert main(argv + ["--config", cfg, "--out", str(out), "--trials", trials, "--quiet"]) == 1
        assert f"scenario error: trials must be an integer >= 1, got {trials}" in capsys.readouterr().err
        assert not out.exists()


class TestMissingAllocation:
    NO_ALLOC = {k: v for k, v in REFERENCE_NETWORK.items() if k != "alloc"}

    @pytest.mark.parametrize(
        "command, message",
        [
            ("verify", "verify requires an 'alloc' object in the scenario"),
            ("rates", "rates requires 'alloc' or 'splits' in the scenario"),
        ],
    )
    def test_missing_allocation_is_a_scenario_error(self, tmp_path, capsys, command, message):
        cfg = write_config(tmp_path, self.NO_ALLOC)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == f"scenario error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "rates"])
    def test_bad_trials_is_reported_before_the_missing_allocation(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, self.NO_ALLOC)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--trials", "0", "--quiet"]) == 1
        assert capsys.readouterr().err == "scenario error: trials must be an integer >= 1, got 0\n"
        assert not out.exists()


class TestSeedOverride:
    @pytest.mark.parametrize("argv", [["verify"], ["rates"], ["dof-region"], ["dof-region", "--constructive"]])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_a_scenario_error(self, tmp_path, capsys, argv, seed):
        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        out = tmp_path / "o"
        assert main(argv + ["--config", cfg, "--out", str(out), "--seed", str(seed), "--quiet"]) == 1
        assert f"scenario error: seed must be an integer in 0..18446744073709551615, got {seed}" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch):
        parsers = []
        real_parse = argparse.ArgumentParser.parse_args
        monkeypatch.setattr(
            argparse.ArgumentParser, "parse_args", lambda self, *a, **k: parsers.append(self) or real_parse(self, *a, **k)
        )
        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        argv = ["dof-region", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]
        assert main(argv) == 0
        # a handler replaced after the parser exists is the one that runs
        seen = []
        monkeypatch.setattr(cogia.cli, "cmd_dof_region", lambda args, *run: seen.append(args.command) or 0)
        assert main(argv) == 0
        assert seen == ["dof-region"]
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["verify", "--config", "scenario.json", "--trials", "abc"], ["bogus"]],
        ids=["no-config", "bad-trials", "unknown-command"],
    )
    def test_usage_error_returns_one(self, capsys, argv):
        assert main(argv) == 1
        assert "usage: cogia" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_return_zero(self, capsys, flag):
        assert main([flag]) == 0
        assert capsys.readouterr().out


class TestDofRegion:
    def test_collapsed_network(self, tmp_path):
        cfg = write_config(tmp_path, {"dims": {"M_P": 3, "M_S": 3, "N_P": 3, "N_S": 3}})
        out = tmp_path / "out"
        assert main(["dof-region", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        header, rows = read_rows(out / "region_projected.csv")
        assert header == ["dS_sum", "dP_sum_max"]
        assert len(rows) == 1 and rows[0][0] == "0"

    def test_reference_network_region(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        out = tmp_path / "out"
        assert main(["dof-region", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        header, rows = read_rows(out / "region.csv")
        assert header == ["d_P1", "d_P2", "d_S1", "d_S2", "feasible", "frontier"]
        assert len(rows) == 36 * 36
        _, proj = read_rows(out / "region_projected.csv")
        assert ["4", "2"] in proj  # max secondary sum DoF row

    def test_constructive_diff_empty(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"dims": {"M_P": 3, "M_S": 3, "N_P": 2, "N_S": 1}, "trials": 5, "seed": 2},
        )
        out = tmp_path / "out"
        assert main(["dof-region", "--config", cfg, "--out", str(out), "--constructive", "--quiet"]) == 0
        _, diff_rows = read_rows(out / "region_diff.csv")
        assert diff_rows == []
        assert (out / "region_constructive.csv").exists()

    def test_constructive_diff_lists_a_refused_point(self, tmp_path, capsys, monkeypatch):
        # the constructive region lacks one closed-form point: the diff file
        # holds exactly that row, and the summary counts it
        real = cogia.cli.enumerate_region
        refused = StreamAlloc(1, 1, 1, 0)

        def without_one_point(dims, mode="closed_form", seed=0, trials=20, cap=None):
            region = real(dims, mode="closed_form", cap=cap)
            if mode == "closed_form":
                return region
            assert refused in region.points
            return dataclasses.replace(region, points=tuple(p for p in region.points if p != refused))

        monkeypatch.setattr(cogia.cli, "enumerate_region", without_one_point)
        cfg = write_config(tmp_path, {"dims": {"M_P": 3, "M_S": 3, "N_P": 2, "N_S": 1}, "trials": 5, "seed": 2})
        out = tmp_path / "out"
        assert main(["dof-region", "--config", cfg, "--out", str(out), "--constructive"]) == 0
        assert (out / "region_diff.csv").read_bytes() == (
            b"d_P1,d_P2,d_S1,d_S2,closed_form,constructive\n1,1,1,0,1,0\n"
        )
        assert "closed-form vs constructive differences: 1" in capsys.readouterr().out.splitlines()

    def test_grid_too_large_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path, {"dims": {"M_P": 16, "M_S": 16, "N_P": 1, "N_S": 1}, "grid_cap": 100}
        )
        assert main(["dof-region", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestRates:
    CONFIG = {
        "dims": {"M_P": 5, "M_S": 5, "N_P": 5, "N_S": 3},
        "splits": [
            {"d_P1": 1, "d_P2": 0, "d_S1": 2, "d_S2": 2},
            {"d_P1": 1, "d_P2": 1, "d_S1": 1, "d_S2": 1},
            {"d_P1": 1, "d_P2": 0, "d_S1": 1, "d_S2": 0},
        ],
        "budgets": [1.0, 10.0, 100.0],
        "seed": 3,
        "trials": 10,
    }

    def test_nine_rows(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        header, rows = read_rows(out / "rates.csv")
        assert header == [
            "qav", "d_P1", "d_P2", "d_S1", "d_S2",
            "R_P_mean", "R_S_mean", "R_P_stderr", "R_S_stderr", "trials", "seed",
        ]
        assert len(rows) == 9

    def test_infeasible_split_named(self, tmp_path, capsys):
        bad = dict(self.CONFIG, splits=[{"d_P1": 2, "d_P2": 0, "d_S1": 2, "d_S2": 2}])
        cfg = write_config(tmp_path, bad)
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "(2, 0, 2, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [NoComplement, RankDeficient])
    def test_construction_refusal_exits_two(self, tmp_path, capsys, monkeypatch, error):
        def refuse(*args):
            raise error("forced")

        monkeypatch.setattr(cogia.alignment, "draw_system", refuse)
        cfg = write_config(tmp_path, self.CONFIG)
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"rates failed: {error.__name__}: forced" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_symmetric_operating_point(self, tmp_path):
        # at the budget where the two cells' mean rates cross, the rates
        # row is symmetric within Monte Carlo error
        config = dict(
            self.CONFIG,
            splits=[{"d_P1": 1, "d_P2": 1, "d_S1": 2, "d_S2": 2}],
            budgets=[15.0],
            trials=300,
        )
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        header, rows = read_rows(out / "rates.csv")
        row = rows[0]
        rp = float(row[header.index("R_P_mean")])
        rs = float(row[header.index("R_S_mean")])
        se = math.hypot(
            float(row[header.index("R_P_stderr")]), float(row[header.index("R_S_stderr")])
        )
        assert abs(rp - rs) <= 3.0 * se

    def test_empty_split_is_a_scenario_error(self, tmp_path, capsys):
        empty = dict(self.CONFIG, splits=[{"d_P1": 0, "d_P2": 0, "d_S1": 0, "d_S2": 0}])
        cfg = write_config(tmp_path, empty)
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "scenario error: a rate sweep split must carry at least one stream" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_stderr_clt_scaling(self, tmp_path):
        # doubling the trial count should shrink stderr like 1/sqrt(2),
        # within 30 percent of the CLT prediction
        base = dict(self.CONFIG, splits=[{"d_P1": 1, "d_P2": 1, "d_S1": 1, "d_S2": 1}], budgets=[10.0])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, base)
        main(["rates", "--config", cfg, "--out", str(out_a), "--trials", "400", "--quiet"])
        main(["rates", "--config", cfg, "--out", str(out_b), "--trials", "800", "--quiet"])
        header, rows_a = read_rows(out_a / "rates.csv")
        _, rows_b = read_rows(out_b / "rates.csv")
        i = header.index("R_P_stderr")
        ratio = float(rows_b[0][i]) / float(rows_a[0][i])
        predicted = 2.0**-0.5
        assert 0.7 * predicted <= ratio <= 1.3 * predicted


class TestLaneChunks:
    def test_chunked_runs_match_one_stack(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, budgets=[1.0, 10.0]))

        def run(out):
            for cmd in ("verify", "rates"):
                assert main([cmd, "--config", cfg, "--out", str(out), "--trials", "10", "--quiet"]) == 0
            return [(out / name).read_bytes() for name in ("verify_report.csv", "rates.csv")]

        whole = run(tmp_path / "whole")
        stacks = []
        real = cogia.alignment.draw_system
        monkeypatch.setattr(
            cogia.alignment, "draw_system", lambda d, a, seeds: stacks.append(len(seeds)) or real(d, a, seeds)
        )
        monkeypatch.setattr(cogia.alignment, "LANE_CHUNK", 3)
        assert run(tmp_path / "chunked") == whole
        assert stacks == [3, 3, 3, 1] * 2  # verify, then the one rates split


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, dict(REFERENCE_NETWORK, budgets=[1.0, 10.0]))
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            for cmd in ("verify", "dof-region", "rates"):
                assert main([cmd, "--config", cfg, "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        for name in ("verify_report.csv", "region.csv", "region_projected.csv", "rates.csv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between reruns"

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["verify", "--config", cfg, "--out", str(out1), "--quiet"])
        main(["verify", "--config", cfg, "--out", str(out2), "--seed", "8", "--quiet"])
        a = (out1 / "verify_report.csv").read_bytes()
        b = (out2 / "verify_report.csv").read_bytes()
        assert a != b
