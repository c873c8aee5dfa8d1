"""The package's public surface agrees with itself.

Every name a module lists in ``__all__`` exists, and every name the
package re-exports from a module is listed in that module's ``__all__``,
so ``from eqmollify.<module> import *`` and ``import eqmollify`` offer the
same names.  README's config table and flag list name exactly the
config fields and the CLI options.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import eqmollify
from eqmollify.cli import _parser
from eqmollify.config import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"

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


def _readme_section(heading):
    text = README.read_text()
    start = text.index("\n## %s\n" % heading)
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def test_readme_config_table_lists_the_config_fields():
    keys = re.findall(r"^\| `(\w+)` \|", _readme_section("Config schema"), re.M)
    assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_readme_flags_list_the_cli_options():
    section = _readme_section("Command line")
    flags = section[section.index("Flags:"):].split("\n\n")[0]
    documented = re.findall(r"`(--[\w-]+)", flags)
    commands = next(action for action in _parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {tuple(option for action in sub._actions for option in action.option_strings
                     if option not in ("-h", "--help"))
               for sub in commands.choices.values()}
    assert options == {tuple(documented)}
