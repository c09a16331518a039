"""Modules whose checks must hold under `python -O` contain no `assert`
statement (`-O` strips them); they raise explicitly instead."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "resatlas"


@pytest.mark.parametrize("module", ["cli", "checks", "exact", "formats", "kacmoody"])
def test_no_assert_statements(module):
    path = SRC / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"
