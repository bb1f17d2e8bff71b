import inspect

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
