"""Guard against package code that only tests reach.

Every top-level function or class of ``src/csl`` and every method that is
not a dunder must be referenced by other package code; a public top-level
name may instead be exported in ``csl.__all__``.  A reference is a Name or
Attribute node in code (docstrings and ``import`` lines do not count),
outside the definition itself.
"""

import ast
from collections import Counter
from pathlib import Path

import csl

SRC = Path(csl.__file__).resolve().parent


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _references(node) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _unreached_names() -> list[str]:
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = sum((_references(tree) for tree in trees), Counter())
    return sorted({node.name for tree in trees for node in _definitions(tree)
                   if used[node.name] == _references(node)[node.name]
                   and node.name not in csl.__all__})


def test_every_public_definition_is_exported_or_used():
    unreached = _unreached_names()
    assert not unreached, f"only tests can reach these: {unreached}"
