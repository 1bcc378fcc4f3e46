"""Guard the one LAPACK entry point.

Scans ``src/csl/*.py`` with ``ast``: outside ``matcore``, which calls the
LAPACK gufuncs through its private functions, no module imports from
``numpy.linalg`` or calls a ``numpy.linalg`` function other than ``norm``.
The one exception is ``protocols``' ``qr`` and ``svd`` on the dense
protocol's tall matrices.
"""

import ast
from pathlib import Path

import csl

SRC = Path(csl.__file__).resolve().parent
ALLOWED = {"protocols.py": {"qr", "svd", "norm"}}


def _linalg_uses(path: Path) -> set[str]:
    """Names a module takes from numpy.linalg, by attribute or by import."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            used.update(a.name for a in node.names)
    return used


def test_decompositions_go_through_matcore():
    stray = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "matcore.py":
            continue
        names = _linalg_uses(path) - ALLOWED.get(path.name, {"norm"})
        if names:
            stray[path.name] = sorted(names)
    assert not stray, f"numpy.linalg called outside matcore: {stray}"
