"""Every name a module exports exists (pyflakes' F822, standard library only).

``ruff`` is not installable in the sandbox, and a PR that deletes an exported
name must not leave it behind in some ``__all__``: ``from repro.x import *``
and the documentation tools would fail on it long after tier-1 passed.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

# ``__main__`` modules are entry points: they run on import and export nothing.
MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith(".__main__")
)


def test_the_walk_finds_the_package():
    assert len(MODULES) > 100 and "repro.sim.engine" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
