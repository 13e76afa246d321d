import pkgutil
from importlib import import_module

import pytest

import atomcover
from atomcover import _EXPORTS

# The command line is the program's entry point, not part of the library API.
LIBRARY_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(atomcover.__path__) if m.name != "cli"
)


def public_names(module):
    """``__all__``, or else the public names the module defines itself."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
    }


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_names_match_package_exports(name):
    module = import_module(f"atomcover.{name}")
    assert public_names(module) == {n for n, m in _EXPORTS.items() if m == name}


def test_every_export_resolves_through_the_package():
    for name, module in _EXPORTS.items():
        assert getattr(atomcover, name) is getattr(import_module(f"atomcover.{module}"), name)
