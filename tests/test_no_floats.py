"""The library is exact: no float literal and no `float(` call anywhere in
its sources, so no entry, parameter or verdict can pass through binary
floating point."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "twistflag").glob("*.py"))


def _float_lines(tree) -> list:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_literals_or_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _float_lines(tree)
    assert lines == [], f"{path.name} has float literals or float() calls at lines {lines}"


def test_float_check_sees_literals_and_calls():
    assert _float_lines(ast.parse("x = 0.5\ny = float(3)\nz = 2j\n")) == [1, 2, 3]
    assert _float_lines(ast.parse("x = round(t, 3)\ny = 1 / 2\n")) == []
