"""Checks on the library source itself."""

import ast
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "liepar"
SOURCES = sorted(LIBRARY.rglob("*.py"))


def test_library_sources_found():
    assert LIBRARY / "toricpave.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(LIBRARY).as_posix())
def test_no_assert_in_library(path):
    # invariants must survive `python -O`, which strips assert statements
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}; raise InvariantError instead"
