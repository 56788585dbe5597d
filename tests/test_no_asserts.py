"""Library checks must raise typed errors: `python -O` strips `assert`,
and a bare AssertionError is no domain signal for callers to catch."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "twistflag").glob("*.py"))


def _names(node) -> list:
    """The exception names a raise or except clause mentions."""
    if node is None:
        return []
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assertion_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and "AssertionError" in _names(node.exc)
             or isinstance(node, ast.ExceptHandler) and "AssertionError" in _names(node.type)]
    assert lines == [], f"{path.name} raises or catches AssertionError at lines {lines}"
