"""The package's public surface agrees with itself.

Every name a module lists in ``__all__`` exists, and every name the
package re-exports from a module is listed in that module's ``__all__``,
so ``from eqmollify.<module> import *`` and ``import eqmollify`` offer the
same names.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import eqmollify

MODULES = sorted(info.name for info in pkgutil.iter_modules(eqmollify.__path__))


def _package_exports():
    """(module, name) for every ``from .module import name`` in the package."""
    tree = ast.parse(inspect.getsource(eqmollify))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module("eqmollify." + name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_exports_are_listed_by_their_modules():
    exports = _package_exports()
    assert exports
    unlisted = [(module, name) for module, name in exports
                if name not in importlib.import_module("eqmollify." + module).__all__]
    assert not unlisted
