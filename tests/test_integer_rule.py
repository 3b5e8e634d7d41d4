"""One integer rule: every integer input is refused the same way, and the rule is stated once in ``src/``."""

import ast
import re
from pathlib import Path

import pytest

from cogia.cli import main
from cogia.dof import constructive_check, enumerate_region
from cogia.errors import ScenarioError
from cogia.rates import rate_region_sweep
from cogia.scenario import NetworkDims, StreamAlloc, derive_seed, generate_channels, scenario_from_dict
from test_alignment import spy_on_draws
from test_cli import REFERENCE_NETWORK, write_config

SRC = Path(__file__).resolve().parent.parent / "src" / "cogia"
SEEDS = "in 0..18446744073709551615"
DIMS, ALLOC = NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2)


def scenario(key, v):
    return scenario_from_dict({"dims": {"M_P": 5, "M_S": 5, "N_P": 5, "N_S": 3}, key: v})


# entry point: (call on the value, exception class, what, range, an out-of-range int)
ENTRIES = {
    "NetworkDims": (lambda v: NetworkDims(v, 5, 5, 3), ScenarioError, "M_P", "in 1..16", 17),
    "StreamAlloc": (lambda v: StreamAlloc(1, 0, v, 2), ScenarioError, "d_S1", "in 0..16", -1),
    "derive_seed-seed": (lambda v: derive_seed(v, 2), ScenarioError, "seed", SEEDS, 1 << 64),
    "derive_seed-index": (lambda v: derive_seed(5, v), ScenarioError, "index", SEEDS, -1),
    "generate_channels": (lambda v: generate_channels(DIMS, [1, v]), ScenarioError, "seed", SEEDS, -1),
    "scenario-trials": (lambda v: scenario("trials", v), ScenarioError, "trials", ">= 1", 0),
    "scenario-grid_cap": (lambda v: scenario("grid_cap", v), ScenarioError, "grid_cap", ">= 1", 0),
    "constructive_check": (lambda v: constructive_check(DIMS, ALLOC, trials=v), ValueError, "trials", ">= 1", 0),
    "rate_region_sweep": (lambda v: rate_region_sweep(DIMS, [ALLOC], [(1.0, 1.0)], v, 0), ValueError, "trials", ">= 1", 0),
    "enumerate_region": (lambda v: enumerate_region(DIMS, cap=v), ValueError, "cap", ">= 1", 0),
}


@pytest.mark.parametrize("bad", [True, 2.0, "3", None], ids=["bool", "float", "string", "out-of-range"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_point_refuses_by_one_template(monkeypatch, entry, bad):
    call, error, what, bounds, out_of_range = ENTRIES[entry]
    bad = out_of_range if bad is None else bad
    drawn = spy_on_draws(monkeypatch)
    with pytest.raises(error) as info:
        call(bad)
    assert type(info.value) is error and str(info.value) == f"{what} must be an integer {bounds}, got {bad!r}"
    assert drawn == []


@pytest.mark.parametrize("flag, bad, bounds", [("--trials", 0, ">= 1"), ("--seed", 1 << 64, SEEDS)])
def test_command_line_refuses_by_the_same_template(tmp_path, capsys, flag, bad, bounds):
    # argparse reads both flags as ints, so a bool, float or string never reaches the rule: it is a usage error
    cfg = write_config(tmp_path, REFERENCE_NETWORK)
    argv = ["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]
    assert main(argv + [flag, str(bad)]) == 1
    assert capsys.readouterr().err == f"scenario error: {flag[2:]} must be an integer {bounds}, got {bad}\n"
    assert main(argv + [flag, "2.0"]) == 1
    assert "usage: cogia" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


RULE_OWNERS = {"scenario._integer", "scenario._finite_positive"}
RETIRED = re.compile(r"\b(_check_counts|_normalize_seed|_require_count|sigma2s)\b")


def bool_checks(node: ast.AST, owner: str):
    """``module.function`` enclosing each ``isinstance(x, bool)`` or ``isinstance(x, (..., bool))`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "isinstance":
            classes = child.args[1].elts if isinstance(child.args[1], ast.Tuple) else child.args[1:2]
            if any(isinstance(c, ast.Name) and c.id == "bool" for c in classes):
                yield owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from bool_checks(child, f"{owner.split('.')[0]}.{child.name}")
        else:
            yield from bool_checks(child, owner)


def test_the_rule_is_stated_once():
    # "an int, not a bool" lives in the one integer rule and the one positive-number rule
    owners, retired = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        owners += bool_checks(ast.parse(text), path.stem)
        retired += [f"{path.name}: {name}" for name in RETIRED.findall(text)]
    assert sorted(set(owners)) == sorted(RULE_OWNERS)
    assert retired == []
