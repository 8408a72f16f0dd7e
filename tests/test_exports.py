"""Every name a module lists in ``__all__`` is bound in that module, so
``from moving_string.<module> import *`` cannot fail on a stale entry."""

import importlib
import pkgutil

import pytest

import moving_string

MODULES = [moving_string] + [
    module for module in (importlib.import_module(f"moving_string.{info.name}")
                          for info in pkgutil.iter_modules(moving_string.__path__))
    if "__all__" in vars(module)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    unbound = [name for name in module.__all__ if not hasattr(module, name)]
    assert unbound == []
