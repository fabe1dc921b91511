"""The public names of the package and of each submodule resolve."""

import importlib

import pytest

import fracbvp

MODULES = ["conditions", "determine", "exprlang", "fracops", "iterate", "problem", "verify"]


def test_package_exports_resolve():
    assert len(set(fracbvp.__all__)) == len(fracbvp.__all__)
    missing = [name for name in fracbvp.__all__ if not hasattr(fracbvp, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"fracbvp.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
