"""Guard against imports that a module never uses.

Scans ``src/csl/*.py`` and ``tests/*.py`` with ``ast``: every name an
``import`` binds must appear as a Name node somewhere in the module (an
attribute chain such as ``np.linalg`` uses ``np``).  Names listed in the
module's ``__all__`` are re-exports and count as used.
"""

import ast
from pathlib import Path

import csl

SRC = Path(csl.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    bound = set()
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted(bound - used - exported)


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = {f"{p.parent.name}/{p.name}": names for p in paths
              if (names := _unused_imports(p))}
    assert not unused, f"imported but never used: {unused}"
