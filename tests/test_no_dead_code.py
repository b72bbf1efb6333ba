"""No module of dualfan keeps an import or a private helper that nothing reads.

Read with the standard library's `ast` only.  For every module of
`src/dualfan` except the package `__init__.py` files (which re-export):

- every name a module imports is read in that module;
- every module-level `_private` function or class, and every `_private`
  method that is not a dunder, is referenced somewhere in `src/` outside
  its own body.

So deleting a function takes the helpers and imports only it read with it.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dualfan"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(node):
    """Every name read below `node`: bare names, attribute names, and
    names imported from another module."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _private_definitions(tree):
    """Module-level `_private` functions and classes, and `_private`
    methods that are not dunders."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        if node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, defs)
                        and m.name.startswith("_")
                        and not m.name.endswith("__"))


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_imported_name_is_read(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0]
                            for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - read) == []


ALL_REFERENCES = sum((_references(_tree(p)) for p in PACKAGE.rglob("*.py")),
                     Counter())


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_private_helper_is_referenced(path):
    unread = [node.name for node in _private_definitions(_tree(path))
              if ALL_REFERENCES[node.name] <= _references(node)[node.name]]
    assert unread == []
