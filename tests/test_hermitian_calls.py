"""Guard the one symmetrization rule.

Scans ``src/csl/*.py`` with ``ast``: outside ``matcore``, whose ``_herm``
is (X + X^H)/2, no module adds an operand's ``.conj().T`` or
``.conj().mT`` (or ``.T.conj()``) to anything.  Such a sum is a hand-written
symmetrization, which goes through ``matcore._herm`` instead.
"""

import ast
from pathlib import Path

import csl

SRC = Path(csl.__file__).resolve().parent


def _is_adjoint(node) -> bool:
    """node is x.conj().T, x.conj().mT or x.T.conj()."""
    if isinstance(node, ast.Attribute) and node.attr in ("T", "mT"):
        call = node.value
        return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "conj")
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "conj" and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in ("T", "mT"))


def _adjoint_sums(source: str) -> list[int]:
    """Line numbers of the sums in source that add an adjoint."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and (_is_adjoint(node.left) or _is_adjoint(node.right))]


def test_symmetrization_goes_through_matcore():
    stray = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if path.name != "matcore.py" and (lines := _adjoint_sums(path.read_text()))}
    assert not stray, f"X + X^H built outside matcore._herm: {stray}"


def test_guard_sees_every_spelling():
    for code in ("(X + X.conj().T) / 2", "(X + X.conj().mT) / 2", "X.conj().T + X",
                 "(A - B + (A - B).conj().T) / 2", "X + X.T.conj()"):
        assert _adjoint_sums(code), code
    for code in ("L @ R @ L.conj().T", "K + K.transpose(0, 4, 3, 2, 1)", "H + H.T"):
        assert not _adjoint_sums(code), code
