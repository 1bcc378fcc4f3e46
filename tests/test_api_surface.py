"""Guard against package code that only tests reach.

Every public top-level function or class of ``src/csl`` must either be
exported in ``csl.__all__`` or be referenced by other package code.  A
reference is a Name or Attribute node in code (docstrings and ``import``
lines do not count), outside the definition itself.
"""

import ast
from pathlib import Path

import csl

SRC = Path(csl.__file__).resolve().parent


def _unreached_names() -> list[str]:
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defined = {node.name: node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for tree in trees:
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in defined and defined[name] is not top:
                    used.add(name)
    return sorted(set(defined) - used - set(csl.__all__))


def test_every_public_definition_is_exported_or_used():
    unreached = _unreached_names()
    assert not unreached, f"only tests can reach these: {unreached}"
