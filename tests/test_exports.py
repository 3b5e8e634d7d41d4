"""Every exported name resolves, so ``from cogia import *`` keeps working, and has a reader outside the tests."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import cogia

MODULES = ["cogia"] + [f"cogia.{m.name}" for m in pkgutil.iter_modules(cogia.__path__)]
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which do not exist"


def test_star_import():
    namespace = {}
    exec("from cogia import *", namespace)
    assert set(cogia.__all__) <= namespace.keys()


def read_names(path: Path) -> set[str]:
    """Every name the code in ``path`` reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_read_outside_the_tests():
    # test-only code belongs in tests/: an export needs a reader in src/
    # (neither its definition nor the package's re-export is one), in the
    # benchmark, or in README's code
    code = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"] + [*(ROOT / "perfbench").rglob("*.py")]
    read = set().union(*map(read_names, code))
    # the tracer names its targets as strings; loaded as the benchmark contract test loads it
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    read.update(name for _, name in tracer.TARGETS)
    for span in re.findall(r"```.*?```|`[^`]+`", (ROOT / "README.md").read_text(encoding="utf-8"), re.S):
        read.update(re.findall(r"\w+", span))
    exported = [(name, attr) for name in MODULES[1:] for attr in getattr(importlib.import_module(name), "__all__", [])]
    assert [f"{name}.{attr}" for name, attr in exported if attr not in read] == []
