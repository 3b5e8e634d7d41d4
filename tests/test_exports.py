"""Every exported name resolves, so ``from cogia import *`` keeps working."""

import importlib
import pkgutil

import pytest

import cogia

MODULES = ["cogia"] + [f"cogia.{m.name}" for m in pkgutil.iter_modules(cogia.__path__)]


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
