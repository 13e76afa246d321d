import os
import pkgutil
import subprocess
import sys
from collections import Counter
from importlib import import_module

import pytest

import atomcover


def module_all(name):
    return import_module(f"atomcover.{name}").__all__


def test_module_tuple_holds_every_library_module():
    # The command line is the program's entry point, not part of the library API.
    files = {m.name for m in pkgutil.iter_modules(atomcover.__path__)} - {"cli"}
    assert sorted(atomcover._MODULES) == sorted(files)


def test_no_name_in_two_modules():
    counts = Counter(n for name in atomcover._MODULES for n in module_all(name))
    assert [n for n, c in counts.items() if c > 1] == []


@pytest.mark.parametrize("name", sorted(atomcover._MODULES))
def test_module_names_match_package_exports(name):
    module = import_module(f"atomcover.{name}")
    assert set(module.__all__) <= set(atomcover.__all__)
    for attr in module.__all__:
        assert getattr(atomcover, attr) is getattr(module, attr)


def test_every_export_resolves_through_the_package():
    listed = [n for name in atomcover._MODULES for n in module_all(name)]
    assert atomcover.__all__ == ["__version__", *sorted(listed)]
    assert set(atomcover.__all__) <= set(dir(atomcover))
    for attr in atomcover.__all__:
        getattr(atomcover, attr)


def test_rebinding_in_the_module_shows_through(monkeypatch):
    # Nothing is cached in the package, so a wrapper installed on the
    # defining module (as a tracer does) is what atomcover.<name> returns.
    sentinel = object()
    monkeypatch.setattr("atomcover.information.entropy", sentinel)
    assert atomcover.entropy is sentinel


def test_unknown_and_private_names_raise():
    with pytest.raises(AttributeError):
        atomcover.no_such_name
    with pytest.raises(AttributeError):
        atomcover.__wrapped__


def test_import_and_parse_load_no_numpy():
    # --threads sets the BLAS/OpenMP variables after parsing; that only
    # works if nothing before it has loaded numpy.  A dunder probe (as
    # inspect and doctest make) must not import a library module either.
    code = (
        "import sys, atomcover, atomcover.cli\n"
        "atomcover.cli.build_parser().parse_args(['analyze', 'x.xyz', '--threads', '2'])\n"
        "assert not hasattr(atomcover, '__wrapped__')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'atomcover')))\n"
    )
    src = os.path.dirname(os.path.dirname(atomcover.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert run.stdout == "['atomcover', 'atomcover.cli']\n"
