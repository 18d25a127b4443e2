"""Every name a ``wickshe`` module lists in ``__all__`` resolves, and the
package namespace re-exports only names its modules list, so that deleting a
public name fails here instead of at a caller's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wickshe

MODULES = sorted(m.name for m in pkgutil.iter_modules(wickshe.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_listed_names_resolve(name):
    module = importlib.import_module(f"wickshe.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(wickshe.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    unlisted = [(module, name) for module, name in imports
                if name not in importlib.import_module(f"wickshe.{module}").__all__]
    assert unlisted == []
