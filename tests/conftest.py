"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest

from meanforge import implicit, invariance, means


@pytest.fixture(scope="session")
def oracle():
    """``data/make_accuracy.py`` as a module: the one set of mpmath oracles.

    ``exact_power_mean`` and ``exact_beta_mean`` evaluate at the working
    precision (set it with ``oracle.mpmath.workdps``); the module also holds the
    accuracy ledger's recipe.  A test that asks for it is skipped without mpmath.
    """
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location(
        "make_accuracy", Path(__file__).parent / "data" / "make_accuracy.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def plan_calls(monkeypatch):
    """The families that ``means._power_plan`` is called with, from any module, in call order."""
    build, calls = means._power_plan, []

    def counted(family):
        calls.append(family)
        return build(family)

    for module in (means, implicit, invariance):
        monkeypatch.setattr(module, "_power_plan", counted)
    return calls
