"""Checks on the library source itself."""

import ast
import os
import subprocess
import sys
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


OPTIMIZED_CHECKS = """
import sys
from liepar.characters import decompose_weight_multiset, weight_multiplicities
from liepar.errors import InvariantError
from liepar.rootsys import build_root_system
from liepar.schurweyl import _specht_rank_mod_p, specht_gram

a2 = build_root_system("A2")
negative = dict(weight_multiplicities(a2, (1, 1)).weight_mults)
negative[(0, 0)] -= 1  # V(w1 + w2) minus the trivial character
for multiset in ({(1, 0): 1, (0, 1): 1}, negative):
    try:
        decompose_weight_multiset(a2, multiset)
    except InvariantError:
        print("raised")
    else:
        print("accepted")

gram = specht_gram((2, 1)).form.matrix  # determinant 3
try:
    _specht_rank_mod_p(gram, 3, 2, 2)  # claims v_3(det) = 2
except InvariantError:
    print("raised")
else:
    print("accepted")
print(sys.flags.optimize)
"""


def test_invariant_checks_survive_python_O():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(LIBRARY.parent),
                                                                      os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised", "raised", "1"]
