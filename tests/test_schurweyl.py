import functools
import math

import pytest

from liepar import _linalg, intform, schurweyl
from liepar.errors import BudgetError, LieparError
from liepar.intform import rank_and_radical
from liepar.schurweyl import (
    conjugate,
    hook_length_count,
    is_p_regular,
    nilpotent_orbit_data,
    partitions,
    polytabloid,
    simple_dimension,
    simple_dims_table,
    specht_gram,
    standard_tableaux,
)
from specht_oracle import specht_radical_bruteforce


def test_partitions_and_conjugate():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()
    with pytest.raises(LieparError):
        conjugate((1, 2))


def test_p_regular():
    assert is_p_regular((2, 1), 2)
    assert not is_p_regular((1, 1, 1), 2)
    assert not is_p_regular((1, 1, 1), 3)
    assert is_p_regular((1, 1, 1), 5)


@pytest.mark.parametrize("d", range(1, 9))
def test_hook_formula_against_enumeration_and_rsk(d):
    total = 0
    for lam in partitions(d):
        f = hook_length_count(lam)
        assert f == len(standard_tableaux(lam))
        total += f * f
    assert total == math.factorial(d)


def test_specht_gram_21():
    gram = specht_gram((2, 1))
    assert gram.form.matrix == ((2, 1), (1, 2))
    assert _linalg.smith_normal_form(gram.form.matrix) == [1, 3]


def test_specht_gram_trivial_and_sign():
    assert specht_gram((4,)).form.matrix == ((1,),)
    for d in (2, 3, 4, 5):
        gram = specht_gram((1,) * d)
        assert gram.form.matrix == ((math.factorial(d),),)


def test_polytabloid_21():
    t = ((1, 2), (3,))
    coeffs = polytabloid((2, 1), t)
    # column {1,3} alternation: {12|3} - {23|1}
    assert coeffs == {((1, 2), (3,)): 1, ((2, 3), (1,)): -1}


def test_simple_dimensions_d3():
    assert simple_dimension((2, 1), 2) == 2
    assert simple_dimension((2, 1), 3) == 1
    assert simple_dimension((3,), 2) == 1
    with pytest.raises(LieparError):
        simple_dimension((1, 1, 1), 2)


def test_bruteforce_radical_agrees():
    for lam, p in [((2, 1), 2), ((2, 1), 3), ((3,), 2), ((2, 2), 3), ((3, 1), 2), ((3, 1), 3)]:
        assert specht_radical_bruteforce(lam, p) == simple_dimension(lam, p)


def test_dims_tables_d3():
    assert simple_dims_table(3, 2) == [1, 2]
    assert simple_dims_table(3, 3) == [1, 1]
    assert simple_dims_table(3, 5) == [1, 1, 2]


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_semisimple_above_d_and_radical_witness(d, p):
    rows = [(lam, hook_length_count(lam)) for lam in partitions(d)]
    total = 0
    for lam, f in rows:
        if not is_p_regular(lam, p):
            continue
        dim = simple_dimension(lam, p)
        assert dim <= f
        if p > d:
            assert dim == f
        total += dim * f
    assert total <= math.factorial(d)
    if p > d:
        assert total == math.factorial(d)


def test_gram_rank_agreement_snf_vs_elimination():
    # rank_and_radical cross-checks internally; exercise it over all d <= 6 grams
    for d in range(1, 7):
        for lam in partitions(d):
            gram = specht_gram(lam)
            for p in (2, 3, 5, 7):
                rank_and_radical(gram.form, p)


def test_elementary_divisors_are_basis_convention_free():
    # reversing the tableau basis permutes rows/columns; divisors are unchanged
    gram = specht_gram((3, 2))
    matrix = gram.form.matrix
    n = len(matrix)
    reversed_matrix = tuple(
        tuple(matrix[n - 1 - i][n - 1 - j] for j in range(n)) for i in range(n)
    )
    assert _linalg.smith_normal_form(matrix) == _linalg.smith_normal_form(reversed_matrix)


def test_specht_budget():
    with pytest.raises(BudgetError):
        specht_gram((5, 4))  # |lambda| = 9 over the default budget
    # (9,) has k = 0, so its dimension needs no Gram matrix, but the budget holds
    with pytest.raises(BudgetError, match=r"^Specht \|lambda\| = 9 exceeds budget 8"):
        simple_dimension((9,), 2)


def test_nilpotent_orbit_data():
    assert nilpotent_orbit_data((2, 1), 3) == {
        "partition": [2, 1], "conjugate": [2, 1], "dimension": 4,
        "centralizer": "GL1 x GL1", "resolution_source": "T*(GL3/P_(2,1))"}
    d = nilpotent_orbit_data((3,), 3)
    assert d["dimension"] == 6 and d["centralizer"] == "GL1"
    assert d["conjugate"] == [1, 1, 1]
    d = nilpotent_orbit_data((1, 1, 1, 1), 4)
    assert d["dimension"] == 0 and d["centralizer"] == "GL4"
    d = nilpotent_orbit_data((3, 3, 2, 2, 1), 11)
    assert d["centralizer"] == "GL2 x GL2 x GL1"
    assert d["dimension"] == 11 * 11 - sum(c * c for c in conjugate((3, 3, 2, 2, 1)))
    with pytest.raises(LieparError):
        nilpotent_orbit_data((2, 1), 4)
    with pytest.raises(LieparError, match="n must be a positive integer"):
        nilpotent_orbit_data((), 0)


def test_regular_orbit_dimension_formula():
    for n in range(1, 7):
        d = nilpotent_orbit_data((n,), n)
        assert d["dimension"] == n * n - n
        assert d["centralizer"] == "GL1"


def test_signed_permutations_are_built_once_per_height():
    schurweyl._signed_permutations.cache_clear()
    for lam in partitions(6):
        specht_gram(lam)
        specht_gram(lam)
    assert schurweyl._signed_permutations.cache_info().misses == 6
    for height in range(1, 7):
        table = schurweyl._signed_permutations(height)
        assert isinstance(table, tuple) and len(table) == math.factorial(height)
        assert len({perm for perm, _ in table}) == len(table)
    assert schurweyl._signed_permutations.cache_info().misses == 6


@functools.cache
def _gram(lam):
    return specht_gram(lam)


_BAREISS = _linalg._bareiss
_BAREISS_MEMO = {}


def _bareiss_once(matrix):
    # the Gram matrices of d = 8 take most of a second of Bareiss; run each once
    key = tuple(map(tuple, matrix))
    if key not in _BAREISS_MEMO:
        _BAREISS_MEMO[key] = _BAREISS(matrix)
    return _BAREISS_MEMO[key]


@pytest.mark.parametrize("d", range(1, 9))
def test_specht_gram_pairs_polytabloids(d):
    for lam in partitions(d):
        gram = _gram(lam)
        vectors = [polytabloid(lam, t) for t in gram.basis]
        for i, u in enumerate(vectors):
            for j in range(i, len(vectors)):
                v = vectors[j]
                paired = sum(c * v.get(key, 0) for key, c in u.items())
                assert gram.form.matrix[i][j] == paired, (lam, i, j)


@pytest.mark.parametrize("d", range(1, 9))
def test_closed_form_determinant_is_the_last_bareiss_pivot(d):
    for lam in partitions(d):
        gram = _gram(lam)
        rank, pivot = _bareiss_once(gram.form.matrix)
        assert rank == gram.size == hook_length_count(lam)
        numerator, denominator = schurweyl._gram_determinant_factors(lam, gram.basis)
        assert abs(math.prod(numerator)) == abs(pivot) * abs(math.prod(denominator)), lam


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_simple_dimension_is_the_rank_of_rank_and_radical(p, monkeypatch):
    monkeypatch.setattr(schurweyl, "specht_gram", _gram)
    monkeypatch.setattr(_linalg, "_bareiss", _bareiss_once)
    for d in range(1, 9):
        for lam in partitions(d):
            if is_p_regular(lam, p):
                expected = rank_and_radical(_gram(lam).form, p).rank_fp
                assert simple_dimension(lam, p) == expected, lam


def test_simple_dimensions_build_and_rank_only_where_k_exceeds_one(monkeypatch):
    # for d = 8 and p = 3, eight of the thirteen p-regular partitions have
    # v_3(det G) >= 2; each of those is built, eliminated and Smith-reduced
    # once, the Smith form starting at a precision where it finishes
    calls = {"specht_gram": 0, "local_smith_valuations": 0, "modp_echelon": 0}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, call)

    counted(schurweyl, "specht_gram")
    counted(_linalg, "local_smith_valuations")
    counted(_linalg, "modp_echelon")
    assert len(schurweyl.simple_dimensions(8, 3)) == 13
    assert calls == {"specht_gram": 8, "local_smith_valuations": 8, "modp_echelon": 8}


def test_specht_ranks_need_no_elimination_over_z(monkeypatch):
    def refuse(*args):
        raise AssertionError("elimination over Z on the Specht path")

    assert not hasattr(schurweyl, "rank_and_radical")
    monkeypatch.setattr(_linalg, "_bareiss", refuse)
    monkeypatch.setattr(intform, "rank_and_radical", refuse)
    assert schurweyl.simple_dims_table(7, 3) == [1, 1, 6, 6, 13, 13, 15, 15, 20]
