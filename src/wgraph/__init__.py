"""Weighted multigraphs as operators: algebra, coverings, orbital spectra.

The core objects are finite weighted multigraphs with a reversal pairing
on their arcs.  Graph operations (scaling, scalar shift, adjoint,
composition) mirror the same operations on the associated matrices
exactly, which makes spectral constructions — deficiency graphs for
two-sided membership tests, covers that transport spectra, orbital graphs
of group actions — checkable at the graph level.

``import wgraph`` loads no submodule.  A submodule, an exported name or
``__all__`` is imported on first use (PEP 562): a name loads the modules
of ``_MODULES`` in turn up to the one that exports it.
"""

import importlib

__version__ = "0.1.0"

# the modules whose ``__all__`` lists make up the package's, in that order
_MODULES = ("core", "operator", "spectra", "covering", "orbital", "fileio", "errors")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [*(n for m in _MODULES for n in importlib.import_module(f"{__name__}.{m}").__all__),
                 "__version__"]
    elif name.startswith("_"):  # no exported name is private, so none is searched for
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for m in _MODULES:
            module = importlib.import_module(f"{__name__}.{m}")
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
