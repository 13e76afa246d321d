"""Dataset compression for atomistic machine learning.

Compresses collections of atomic structures by greedily covering
descriptor space, and measures what a compression kept with
information-theoretic figures of merit (entropy, diversity, overlap,
efficiency, force-tail CDFs).

Submodules are imported lazily so that the CLI can configure thread
pools before numpy loads.  Each public name is listed once, in the
``__all__`` of the library module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# The library modules, searched in this order; a lookup imports the
# modules up to the one that defines the name.  ``cli`` is the program's
# entry point, not library API.
_MODULES = (
    "errors", "geometry", "extxyz", "report", "descriptor", "information", "samplers", "evaluation",
)


def __getattr__(name):
    # Looked up on every access, never stored here, so a rebinding in the
    # defining module (a tracer's wrapper, a test's patch) shows through.
    modules = (import_module(f".{m}", __name__) for m in _MODULES)
    if name == "__all__":
        return ["__version__", *sorted(n for module in modules for n in module.__all__)]
    if not name.startswith("_"):
        for module in modules:
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__"), "__all__"})
