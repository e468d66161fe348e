"""Every public name list must match what its module defines: a name left in
an ``__all__`` after its definition is deleted makes ``import *`` raise."""

import importlib
import pkgutil

import pytest

import hyperspectra

SUBMODULES = [
    importlib.import_module(f"hyperspectra.{info.name}")
    for info in pkgutil.iter_modules(hyperspectra.__path__)
]


@pytest.mark.parametrize(
    "module", [hyperspectra, *SUBMODULES], ids=lambda m: m.__name__
)
def test_all_names_resolve_once(module):
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, missing


def test_package_exports_come_from_submodules():
    owned = {name for module in SUBMODULES for name in module.__all__}
    stray = set(hyperspectra.__all__) - owned - {"__version__"}
    assert not stray, sorted(stray)
