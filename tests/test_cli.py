"""CLI subcommands: exit codes, CSV artifacts, manifests, determinism."""

import json
import math

import pytest

import cogia.alignment
from cogia.cli import main
from cogia.errors import DegenerateChannel

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
        # every trial's first draw is degenerate, its second one builds
        real = cogia.alignment.build_all
        calls = []

        def flaky(ch, d, seed, pol):
            calls.append(seed)
            if len(calls) % 2:
                raise DegenerateChannel("forced")
            return real(ch, d, seed, pol)

        monkeypatch.setattr(cogia.alignment, "build_all", flaky)
        cfg = write_config(tmp_path, REFERENCE_NETWORK)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--trials", "3", "--quiet"]) == 0
        _, rows = read_rows(out / "verify_report.csv")
        assert len(rows) == 3 and len(calls) == 6

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
