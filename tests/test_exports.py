"""Every public name list must match what its module defines: a name left in
an ``__all__`` after its definition is deleted makes ``import *`` raise.  The
package's list is derived from its modules' lists, so each name has one."""

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
    """The package exports exactly the union of its library modules' names
    (every module but the command line front end), and no name has two
    owners."""
    lists = [m.__all__ for m in SUBMODULES if m.__name__ != "hyperspectra.cli"]
    owned = [name for names in lists for name in names]
    assert len(owned) == len(set(owned)), sorted(n for n in owned if owned.count(n) > 1)
    assert set(hyperspectra.__all__) == {*owned, "__version__"}
