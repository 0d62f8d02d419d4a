"""The public surface resolves: every name a module exports is defined there."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(spsim.__path__)
                 if info.name != "__main__")  # running __main__ runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_is_an_attribute(name):
    module = importlib.import_module(f"spsim.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"spsim.{name}.__all__ names undefined {missing}"


def test_every_package_import_is_an_attribute_of_its_module():
    tree = ast.parse(Path(spsim.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        module = importlib.import_module(f"spsim.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"spsim.{node.module}.{alias.name}"
            assert getattr(spsim, alias.asname or alias.name) is getattr(module, alias.name)
