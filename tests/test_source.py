"""Checks on the library source itself."""

import ast
import os
import subprocess
import sys
from collections import Counter
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


def _imported_modules(tree) -> set[str]:
    return ({alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
            | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module})


def test_no_library_module_imports_dataclasses():
    # records are named tuples or documents: `dataclasses` would cost every
    # command that loads the module about 12 ms, mostly in `inspect`
    importers = [path.name for path in SOURCES
                 if "dataclasses" in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []


def test_dataclasses_import_is_found():
    assert "dataclasses" in _imported_modules(ast.parse("from dataclasses import dataclass\n"))
    assert "dataclasses" in _imported_modules(ast.parse("def f():\n    import dataclasses\n"))


CHECKED_RANK_KERNELS = {"local_smith_valuations", "modp_echelon"}


def _kernel_uses(node, function=None):
    """(enclosing function, name) of each name, attribute or import of a checked-rank kernel."""
    if isinstance(node, ast.FunctionDef):
        function = node.name
    if isinstance(node, ast.Attribute):
        named = {node.attr}
    elif isinstance(node, ast.Name):
        named = {node.id}
    elif isinstance(node, ast.alias):
        named = {node.name, node.asname}
    else:
        named = set()
    uses = [(function, name) for name in named & CHECKED_RANK_KERNELS]
    for child in ast.iter_child_nodes(node):
        uses += _kernel_uses(child, function)
    return uses


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "_linalg.py"],
                         ids=lambda p: p.relative_to(LIBRARY).as_posix())
def test_one_checked_rank(path):
    # every F_p rank is cross-checked by intform.rank_mod_p; a second caller
    # of its two kernels, which live in _linalg, would be a second check to keep
    uses = _kernel_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    if path.name == "intform.py":
        assert {function for function, _ in uses} == {"rank_mod_p"}, uses
    else:
        assert not uses, f"{path.name} uses {uses}; call intform.rank_mod_p instead"


def _names_in(definition, tree):
    """Names and attributes read in one module-level function or class."""
    node = next(n for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == definition)
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_gram_oracle_keeps_its_own_signs():
    # polytabloid is the oracle of specht_gram; reading the signed column
    # permutations of specht_gram would let a sign bug there pass both
    tree = ast.parse((LIBRARY / "schurweyl.py").read_text(encoding="utf-8"))
    assert "_signed_permutations" in _names_in("specht_gram", tree)
    assert "_signed_permutations" not in _names_in("polytabloid", tree)


RATIONAL_NAMES = {"Fraction", "fractions"}

# Gauss-Jordan over Q and the inverse, solve and rank read off it: no
# library code calls them, and they stay only because perfbench/tracing.py
# wraps them.  They import `fractions` inside, so no command loads it.
RATIONAL_HELPERS = {"rref_q", "frac_matrix_inverse", "frac_solve", "frac_rank"}


def _rational_uses(tree) -> list[tuple[str | None, int]]:
    """(enclosing module-level definition, or None, and line) of each name,
    attribute or import of `Fraction` or `fractions`."""
    uses = []
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        uses += [(owner, n.lineno) for n in ast.walk(node)
                 if isinstance(n, ast.Name) and n.id in RATIONAL_NAMES
                 or isinstance(n, ast.Attribute) and n.attr in RATIONAL_NAMES
                 or isinstance(n, ast.alias) and n.name in RATIONAL_NAMES
                 or isinstance(n, ast.ImportFrom) and n.module == "fractions"]
    return uses


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(LIBRARY).as_posix())
def test_library_computes_without_rationals(path):
    # geometry, lattices and the support-function LP all run over the
    # integers; a Fraction would also load `fractions` and `decimal`
    uses = _rational_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    allowed = RATIONAL_HELPERS if path.name == "_linalg.py" else set()
    assert [use for use in uses if use[0] not in allowed] == []


def test_rational_uses_are_found():
    snippet = ("from fractions import Fraction\n"
               "def f(x) -> Fraction:\n"
               "    import fractions\n"
               "    return fractions.Fraction(x)\n"
               "class C:\n"
               "    half = Fraction(1, 2)\n")
    assert _rational_uses(ast.parse(snippet)) == [
        (None, 1), (None, 1), ("f", 2), ("f", 3), ("f", 4), ("f", 4), ("C", 6)]
    assert _rational_uses(ast.parse('def f():\n    "Fraction-free"\n')) == []


def _references(node) -> Counter:
    """How often each name, attribute or imported name occurs under `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def _unreferenced(trees, private=True) -> list[str]:
    """Module-level functions and methods, the private ones or the public
    ones (never dunders), that no tree names outside their own body."""
    everywhere = sum(map(_references, trees), Counter())
    unused = []
    for tree in trees:
        for node in tree.body:
            for f in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
                if (isinstance(f, ast.FunctionDef) and f.name.startswith("_") == private
                        and not f.name.endswith("__")
                        and everywhere[f.name] == _references(f)[f.name]):
                    unused.append(f.name)
    return unused


def test_every_private_function_is_used():
    # a private helper is reachable only from the library; one it never names is dead code
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES]
    assert _unreferenced(trees) == []


def test_unused_private_helper_is_found():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    helper = ast.parse("def _helper(n):\n    return _helper(n - 1) if n else 0\n")
    assert _unreferenced(trees + [helper]) == ["_helper"]


WRAPPED_BY_TRACING = "wrapped by perfbench/tracing.py"
DOCUMENTED_API = "documented API"

# public names no library code calls, each kept for its reason
UNCALLED_PUBLIC = {
    "bareiss_rank": WRAPPED_BY_TRACING,
    "modp_rank": WRAPPED_BY_TRACING,
    "modp_kernel_basis": WRAPPED_BY_TRACING,
    "frac_matrix_inverse": WRAPPED_BY_TRACING,
    "frac_solve": WRAPPED_BY_TRACING,
    "frac_rank": WRAPPED_BY_TRACING,
    "decompose_weight_multiset": WRAPPED_BY_TRACING,
    "polytabloid": WRAPPED_BY_TRACING,
    "generate_weyl": WRAPPED_BY_TRACING,
    "generate_parabolic": WRAPPED_BY_TRACING,
    "double_quotient_reps": WRAPPED_BY_TRACING,
    "bruhat_leq": DOCUMENTED_API,
    "dominance_leq": DOCUMENTED_API,
    "highest_root": DOCUMENTED_API,
    "coxeter_number": DOCUMENTED_API,
    "long_simple_fundamental_group": DOCUMENTED_API,
}


def test_every_public_name_is_used():
    # a public function or method no command reaches is dead code unless it
    # is kept for a reason; an entry whose name gained a caller or went away
    # is stale and fails here too
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES]
    assert sorted(_unreferenced(trees, private=False)) == sorted(UNCALLED_PUBLIC)
    tracing = (LIBRARY.parents[1] / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    for name, reason in UNCALLED_PUBLIC.items():
        assert (f'"{name}":' in tracing) == (reason == WRAPPED_BY_TRACING), name


def test_unused_public_function_is_found():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    helper = ast.parse("def helper(n):\n    return helper(n - 1) if n else 0\n"
                       "class Cell:\n    def size(self):\n        return len(self.rays)\n"
                       "    def volume(self):\n        return self.size()\n")
    found = _unreferenced(trees + [helper], private=False)
    assert sorted(found) == sorted([*UNCALLED_PUBLIC, "helper", "volume"])


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(LIBRARY).as_posix())
def test_only_config_reads_the_environment(path):
    # every setting comes through config, so its variables are all in one place
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
             or isinstance(node, ast.Name) and node.id in ENVIRONMENT_READERS
             or isinstance(node, ast.alias) and node.name in ENVIRONMENT_READERS]
    if path.name == "config.py":
        assert lines, "config.py no longer reads LIEPAR_BUDGET"
    else:
        assert not lines, f"{path.name}: environment read on lines {lines}; go through config"


def _budget_wording(tree) -> list[int]:
    """Lines that name `effective_budget` or raise a message naming LIEPAR_BUDGET."""
    names = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "effective_budget"
             or isinstance(node, ast.Attribute) and node.attr == "effective_budget"
             or isinstance(node, ast.alias) and node.name == "effective_budget"]
    messages = [node.lineno for raised in ast.walk(tree) if isinstance(raised, ast.Raise)
                for node in ast.walk(raised)
                if isinstance(node, ast.Constant) and "LIEPAR_BUDGET" in str(node.value)]
    return sorted(set(names + messages))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(LIBRARY).as_posix())
def test_only_config_words_a_budget_refusal(path):
    # every budget is refused through config.check_budget, so a new budget or
    # variable changes config and the refusal texts, and no other module
    lines = _budget_wording(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    if path.name == "config.py":
        assert lines, "config.py no longer reads or refuses the budget"
    else:
        assert not lines, f"{path.name}: budget read or refused on lines {lines}; call config.check_budget"


def test_budget_wording_is_found():
    snippet = ("from .config import effective_budget\n"
               "def check(d):\n"
               "    if d > config.effective_budget(8):\n"
               "        raise BudgetError(f'{d} is too large; set LIEPAR_BUDGET to raise it')\n")
    assert _budget_wording(ast.parse(snippet)) == [1, 3, 4]
    assert _budget_wording(ast.parse('def f():\n    "a docstring may name LIEPAR_BUDGET"\n')) == []


OPTIMIZED_CHECKS = """
import sys
from liepar.characters import _natural, decompose_weight_multiset, weight_multiplicities
from liepar.errors import InvariantError
from liepar.intform import rank_mod_p
from liepar.rootsys import build_root_system
from liepar.schurweyl import specht_gram

a2 = build_root_system("A2")
negative = dict(weight_multiplicities(a2, (1, 1)))
negative[(0, 0)] -= 1  # V(w1 + w2) minus the trivial character
for multiset in ({(1, 0): 1, (0, 1): 1}, negative):
    try:
        decompose_weight_multiset(a2, multiset)
    except InvariantError:
        print("raised")
    else:
        print("accepted")
for count in (3, -2):  # a Newton step's sum, divided by its power 2
    try:
        _natural({(0, 0): 4, (1, 0): count}, 2)
    except InvariantError:
        print("raised")
    else:
        print("accepted")

gram = specht_gram((2, 1)).form.matrix  # determinant 3
try:
    rank_mod_p(gram, 3, 2, 2)  # claims v_3(det) = 2
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
    assert proc.stdout.split() == ["raised"] * 5 + ["1"]


def _callers(tree, callee: str) -> set[str | None]:
    """The module-level definitions, or None for module level itself, that
    call `callee`, a name such as "_layout", a dotted "json.dumps", or a
    method on any object, such as ".is_irreducible"."""
    def calls(func) -> bool:
        name = ast.unparse(func)
        return name == callee or callee.startswith(".") and name.endswith(callee)

    return {node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for node in tree.body for call in ast.walk(node)
            if isinstance(call, ast.Call) and calls(call.func)}


def test_callers_are_found():
    snippet = ("import json\n"
               "def f(x):\n"
               "    return json.dumps(_layout(x))\n"
               "class C:\n"
               "    def g(self):\n"
               "        return json.dumps, dumps(1)\n"
               "Y = _layout(2)\n"
               "def h(rs):\n"
               "    return (rs.is_irreducible(), build(rs).is_irreducible(),\n"
               "            is_irreducible(rs), rs.is_irreducible)\n")
    assert _callers(ast.parse(snippet), "json.dumps") == {"f"}
    assert _callers(ast.parse(snippet), "_layout") == {"f", None}
    assert _callers(ast.parse(snippet), ".is_irreducible") == {"h"}
    assert _callers(ast.parse(snippet), ".dumps") == {"f"}
    # a class body lists its methods as a module lists its definitions
    assert _callers(ast.parse(snippet).body[2], "dumps") == {"g"}


def _class(tree, name: str) -> ast.ClassDef:
    return next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)


def test_every_fan_is_checked_by_its_one_constructor():
    # `from_dict` and `star_subdivision` build through `from_max_cones`,
    # so the fan axioms are checked on every fan the library builds
    tree = ast.parse((LIBRARY / "toricpave.py").read_text(encoding="utf-8"))
    assert _callers(tree, "_check_axioms") == {"Fan"}
    assert _callers(_class(tree, "Fan"), "_check_axioms") == {"from_max_cones"}


def test_one_refusal_for_a_reducible_system():
    # the library refuses a product through `RootSystem.irreducible_type`;
    # only the CLI asks whether a system is irreducible, to choose what to print
    askers = [path.name for path in SOURCES if path.name != "rootsys.py"
              and _callers(ast.parse(path.read_text(encoding="utf-8")), ".is_irreducible")]
    assert askers == ["cli.py"]


def test_only_the_walk_packs_points():
    # an element's key is a tuple: packed points, and their layout, stay in the walk
    tree = ast.parse((LIBRARY / "weyl.py").read_text(encoding="utf-8"))
    assert _callers(tree, "_layout") == {"_levels"}


def test_one_document_writer():
    # every document, streamed or whole, is written by cli._emit
    tree = ast.parse((LIBRARY / "cli.py").read_text(encoding="utf-8"))
    assert _callers(tree, "json.dumps") == {"_emit"}


def test_documents_are_built_once():
    # a result only the CLI prints is built as its document; a record class
    # copied field by field into one would be a second representation
    importers, to_dict_owners = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.name == "asdict":
                importers.append(path.name)
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef) and f.name == "to_dict" for f in node.body):
                to_dict_owners.add(node.name)
    assert importers == []
    assert to_dict_owners == {"RootSystem", "Fan", "GoldenReport"}


def _letter_comparers(tree) -> set[str | None]:
    """The module-level definitions, or None for module level itself, that
    compare the name `family` with a string or a collection of strings."""
    def text(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(text, node.elts))
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    return {node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for node in tree.body for cmp in ast.walk(node) if isinstance(cmp, ast.Compare)
            and any(isinstance(x, ast.Name) and x.id == "family" for x in [cmp.left, *cmp.comparators])
            and any(map(text, [cmp.left, *cmp.comparators]))}


def test_letter_comparers_are_found():
    snippet = ("def f(family):\n"
               "    return family == 'B'\n"
               "def g(family, rank):\n"
               "    return family in ('B', 'C') or rank == 'x'\n"
               "def h(family):\n"
               "    return family == other\n"
               "X = 'G' != family\n")
    assert _letter_comparers(ast.parse(snippet)) == {"f", "g", None}


def test_each_cartan_family_is_defined_once():
    # the matrix with its root lengths, and the Coxeter number that checks the type
    tree = ast.parse((LIBRARY / "rootsys.py").read_text(encoding="utf-8"))
    assert _letter_comparers(tree) == {"_cartan_block", "_coxeter_number"}


def _tuple_subclasses(tree) -> list[str]:
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(base, ast.Name) and base.id == "tuple" for base in node.bases)]


def test_tuple_subclasses_are_found():
    snippet = ("class P(tuple):\n"
               "    pass\n"
               "class Q(NamedTuple('Q', [('x', tuple)])):\n"
               "    pass\n"
               "def f():\n"
               "    class R(int, tuple):\n"
               "        pass\n")
    assert _tuple_subclasses(ast.parse(snippet)) == ["P", "R"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(LIBRARY).as_posix())
def test_records_are_named_tuples(path):
    # a record subclasses typing.NamedTuple, never bare tuple
    assert _tuple_subclasses(ast.parse(path.read_text(encoding="utf-8"))) == []
