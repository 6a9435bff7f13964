"""Every public name resolves: the package's ``__all__`` and each module's."""

import importlib
import pkgutil

import pytest

import prodhls

# __main__ runs the CLI when imported
MODULES = sorted(info.name for info in pkgutil.iter_modules(prodhls.__path__, "prodhls.")
                 if info.name != "prodhls.__main__")


@pytest.mark.parametrize("name", ["prodhls", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    # a module without __all__ (the CLI) exports nothing by name
    missing = [public for public in getattr(module, "__all__", ())
               if not hasattr(module, public)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"


def test_star_import_binds_the_package_exports():
    namespace = {}
    exec("from prodhls import *", namespace)
    assert set(prodhls.__all__) <= set(namespace)
