import ast
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import wgraph
from wgraph import core, covering, errors, fileio, operator, orbital, spectra

MODULES = (core, operator, spectra, covering, orbital, fileio, errors)


def test_the_package_exports_each_module_list_once():
    assert wgraph.__all__ == [*(n for m in MODULES for n in m.__all__), "__version__"]
    assert len(set(wgraph.__all__)) == len(wgraph.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_exported_name_is_the_module_object(module):
    for name in module.__all__:
        assert getattr(wgraph, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_function_and_class_is_in_its_module_list(module):
    defined = [
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [name for name in defined if name not in module.__all__] == []


def loaded_after(code: str) -> set:
    """The wgraph submodules a fresh interpreter has loaded after running ``code``."""
    script = code + "\nimport sys; print(sorted(m for m in sys.modules if m.startswith('wgraph.')))"
    src = os.path.dirname(os.path.dirname(wgraph.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import wgraph; wgraph.__version__") == set()
    assert loaded_after("import wgraph; wgraph.make_graph") == {"wgraph.core", "wgraph.errors"}
    # the form of import bench/tracer.py uses looks the module up on the package first
    assert loaded_after("from wgraph import cli") == loaded_after("import wgraph.cli")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from wgraph import *", namespace)
    assert [name for name in wgraph.__all__ if name not in namespace] == []
    for name in wgraph.__all__:
        assert namespace[name] is getattr(wgraph, name), name


def test_dir_lists_every_exported_name_and_module():
    listed = dir(wgraph)
    assert [name for name in [*wgraph.__all__, *(m.__name__.split(".")[1] for m in MODULES)] if name not in listed] == []
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        wgraph.no_such_name


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("layers")
    paths = {k: str(d / k) for k in ("base.wg", "base.volt", "cover.cov", "lifted.cov", "two.mat", "swap.act",
                                     "a.elt")}
    base = wgraph.make_graph(["x", "y"], [("x", "y", 1.0), ("y", "x", 2.0)], [1, 0])
    wgraph.write_graph(base, paths["base.wg"])
    wgraph.write_voltages(2, [(1, 0), (1, 0)], paths["base.volt"])
    wgraph.write_covering(wgraph.voltage_cover(base, 2, [(1, 0), (1, 0)])[1], paths["cover.cov"])
    wgraph.write_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), paths["two.mat"])
    action = wgraph.GroupAction(("p", "q"), {"a": (1, 0)})
    wgraph.write_action(wgraph.ActionSpec("perm", action=action), paths["swap.act"])
    wgraph.write_element(wgraph.GroupAlgebraElement({("a",): 1.0}), paths["a.elt"])
    return paths


# each subcommand, run in a fresh interpreter, and the layers it must not load
SUBCOMMANDS = [
    (["cover", "lift", "--graph", "base.wg", "--volt", "base.volt", "--out", "lifted.cov"], {"wgraph.orbital"}),
    (["cover", "include", "--map", "cover.cov"], {"wgraph.orbital"}),
    (["cover", "verify", "--map", "cover.cov"], {"wgraph.orbital"}),
    (["orbital", "--action", "swap.act", "--element", "a.elt", "--x", "p", "--y", "q"], {"wgraph.covering"}),
    (["spectrum", "--matrix", "two.mat", "--check-lambda", "0"], {"wgraph.covering", "wgraph.orbital"}),
    (["graph-op", "adjoint", "--graph", "base.wg"], {"wgraph.covering", "wgraph.orbital"}),
    (["demo-shift", "--depth", "3", "--trials", "2"], {"wgraph.covering", "wgraph.orbital"}),
]


@pytest.mark.parametrize("argv, unused", SUBCOMMANDS, ids=[" ".join(a[:2 if a[0] == "cover" else 1]) for a, _ in SUBCOMMANDS])
def test_each_subcommand_loads_only_its_own_layers(cli_files, argv, unused):
    argv = [cli_files.get(a, a) for a in argv]
    code = ("import contextlib, io\nfrom wgraph.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0")
    loaded = loaded_after(code)
    assert "wgraph.cli" in loaded and loaded & unused == set()


def test_every_benchmark_span_names_an_exported_function():
    """The benchmark tracer wraps the functions of each module's ``__all__``: a ``SPANS`` key
    of ``bench/run.py`` that names no such function would read 0 in its per-layer metric.  The
    table is read with ``ast``, as importing ``run.py`` sets the BLAS thread variables."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "run.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["SPANS"])
    keys = [ast.literal_eval(key) for key in table.keys]
    assert keys
    for key in keys:
        layer, name = key.split(".")
        module = getattr(wgraph, layer)
        if key == "orbital.from_mealy":  # wrapped on the class, as a classmethod
            assert "GroupAction" in module.__all__ and inspect.ismethod(orbital.GroupAction.from_mealy)
            continue
        fn = getattr(module, name, None)
        assert name in module.__all__ and inspect.isfunction(fn) and fn.__module__ == module.__name__, key
