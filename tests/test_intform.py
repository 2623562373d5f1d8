import json
import math
import random

import pytest

from liepar import _linalg
from liepar._linalg import modp_rank, smith_normal_form
from liepar.errors import InvariantError, LieparError
from liepar.intform import (
    PRIME_LIMIT,
    IntegerSymmetricForm,
    check_prime,
    decomposition_report,
    is_prime,
    load_forms,
    rank_and_radical,
    rank_mod_p,
)
from liepar.rootsys import build_root_system
from liepar.schurweyl import specht_gram


def test_form_validation():
    with pytest.raises(LieparError):
        IntegerSymmetricForm(((1, 2), (3, 4)))
    with pytest.raises(LieparError):
        IntegerSymmetricForm(((1, 2),))
    form = IntegerSymmetricForm(((0,),))
    assert form.size == 1


def test_sl2_springer_fiber():
    # self-intersection -2 of the zero section: degenerate exactly at p = 2
    form = IntegerSymmetricForm(((-2,),), label="P1")
    res = rank_and_radical(form, 2)
    assert res.rank_q == 1 and res.rank_fp == 0
    assert len(res.radical_basis) == 1
    res = rank_and_radical(form, 3)
    assert res.rank_fp == 1 and res.radical_basis == ()


@pytest.mark.parametrize("n", range(1, 11))
def test_minus_cartan_an_rank_drop(n):
    rs = build_root_system(f"A{n}")
    matrix = tuple(tuple(-x for x in row) for row in rs.cartan)
    form = IntegerSymmetricForm(matrix, label=f"A{n} chain")
    for p in (2, 3, 5, 7, 11, 13):
        res = rank_and_radical(form, p)
        expected = n - 1 if (n + 1) % p == 0 else n
        assert res.rank_fp == expected, (n, p)


def test_zero_matrix():
    form = IntegerSymmetricForm(((0,),))
    for p in (2, 3, 5):
        res = rank_and_radical(form, p)
        assert res.rank_q == 0 and res.rank_fp == 0


def test_rank_needs_a_prime():
    form = IntegerSymmetricForm(((2, 0), (0, 4)),)
    with pytest.raises(TypeError):
        rank_and_radical(form)
    res = rank_and_radical(form, 2)
    assert res.rank_q == 2 and res.rank_fp == 0 and res.elementary_divisors == (2, 4)


def test_non_prime_rejected():
    with pytest.raises(LieparError):
        rank_and_radical(IntegerSymmetricForm(((1,),)), 4)
    with pytest.raises(LieparError):
        decomposition_report([], 6)


def random_symmetric(rng, n, bound=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return tuple(tuple(row) for row in m)


def test_fuzz_rank_radical_and_smith_agreement():
    rng = random.Random(20240811)
    for trial in range(300):
        n = rng.randint(1, 6)
        form = IntegerSymmetricForm(random_symmetric(rng, n), label=f"fuzz{trial}")
        for p in (2, 3, 5, 7):
            res = rank_and_radical(form, p)
            assert res.rank_fp + len(res.radical_basis) == n
            assert res.rank_fp <= res.rank_q <= n
            # dual-route agreement is asserted inside rank_and_radical; check once more
            assert res.rank_fp == sum(1 for d in res.elementary_divisors if d % p != 0)
            assert res.rank_fp == modp_rank([list(r) for r in form.matrix], p)


def test_bad_primes_are_divisors_of_elementary_divisors():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        form = IntegerSymmetricForm(random_symmetric(rng, n))
        divisors = smith_normal_form(form.matrix)
        bad = set()
        for d in divisors:
            f = 2
            v = d
            while f * f <= v:
                if v % f == 0:
                    bad.add(f)
                    while v % f == 0:
                        v //= f
                f += 1
            if v > 1:
                bad.add(v)
        for p in (2, 3, 5, 7, 11):
            res = rank_and_radical(form, p)
            assert res.rank_q == len(divisors)
            assert (res.rank_fp < res.rank_q) == (p in bad)


def random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_multiplicity_invariant_under_unimodular_change():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 5)
        b = random_symmetric(rng, n, bound=5)
        u = random_unimodular(rng, n)
        ub = [[sum(u[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        ubu = [[sum(ub[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        f1 = IntegerSymmetricForm(b)
        f2 = IntegerSymmetricForm(tuple(tuple(r) for r in ubu))
        for p in (2, 3, 5):
            r1, r2 = rank_and_radical(f1, p), rank_and_radical(f2, p)
            assert r1.rank_q == r2.rank_q
            assert r1.rank_fp == r2.rank_fp


def test_decomposition_report():
    single = IntegerSymmetricForm(((-2,),), label="s")
    rep = decomposition_report([single], 3)
    assert rep == {"prime": 3, "decomposition_theorem_holds": True, "strata": [
        {"label": "s", "size": 1, "rank_q": 1, "rank_fp": 1, "multiplicity": 1,
         "radical_dimension": 0, "nondegenerate": True}]}
    rep = decomposition_report([single], 2)
    assert rep["strata"][0]["multiplicity"] == 0
    assert not rep["decomposition_theorem_holds"]
    rep = decomposition_report([], 2)
    assert rep["strata"] == [] and rep["decomposition_theorem_holds"]


def test_load_forms(tmp_path):
    doc = [{"label": "a", "n": 2, "rows": [[2, 1], [1, 2]]},
           {"label": "b", "n": 1, "rows": [[-2]]}]
    path = tmp_path / "forms.json"
    path.write_text(json.dumps(doc))
    forms = load_forms(str(path))
    assert [f.label for f in forms] == ["a", "b"]
    single = tmp_path / "one.json"
    single.write_text(json.dumps(doc[0]))
    assert len(load_forms(str(single))) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", "n": 3, "rows": [[1]]}))
    with pytest.raises(LieparError):
        load_forms(str(bad))


def test_smith_chain_divisibility():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        divisors = smith_normal_form(m)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0


def test_p_local_divisors_are_p_parts_of_smith_divisors():
    rng = random.Random(11)
    for _ in range(100):
        form = IntegerSymmetricForm(random_symmetric(rng, rng.randint(1, 6)))
        divisors = smith_normal_form(form.matrix)
        for p in (2, 3, 5, 7):
            parts = tuple(p ** _linalg.p_valuation(d, p) for d in divisors)
            assert rank_and_radical(form, p).elementary_divisors == parts


@pytest.mark.parametrize("matrix,tamper,message", [
    (((2, 1), (1, 2)), lambda vals: vals[:-1], "finds 1 divisors, not 2"),
    (((2, 1), (1, 2)), lambda vals: [v + 1 for v in vals], "sum to 3, not to 1,"),
    # the last Bareiss pivot is 9, so k = 2 leaves room for one more valuation
    (((9, 3), (3, 1)), lambda vals: [v + 1 for v in vals], "disagrees with p-local Smith form"),
    # nonsingular, so the valuations must sum to v_3(det) = 2 exactly: a sum of
    # 1 with the one unit divisor that elimination mod 3 also finds is refused
    (((1, 0), (0, 9)), lambda vals: [min(v, 1) for v in vals], "sum to 1, not to 2,"),
])
def test_rank_cross_checks_raise(monkeypatch, matrix, tamper, message):
    local = _linalg.local_smith_valuations
    monkeypatch.setattr(_linalg, "local_smith_valuations", lambda *a: tamper(local(*a)))
    with pytest.raises(AssertionError, match=message):
        rank_and_radical(IntegerSymmetricForm(matrix), 3)


def test_radical_vectors_are_checked_against_the_form(monkeypatch):
    # diag(2, 1) mod 2 has radical e_1; moving one vector off the kernel must be refused
    kernel = _linalg.echelon_kernel

    def corrupt(*args):
        basis = kernel(*args)
        basis[0][-1] += 1
        return basis

    form = IntegerSymmetricForm(((2, 0), (0, 1)))
    assert rank_and_radical(form, 2).radical_basis == ((1, 0),)
    monkeypatch.setattr(_linalg, "echelon_kernel", corrupt)
    with pytest.raises(InvariantError, match=r"radical vector \(1, 1\) is not in the kernel"):
        rank_and_radical(form, 2)


def test_doubling_loop_refuses_a_singular_or_perturbed_matrix():
    # G^(2,1) has determinant 3, so one divisor 3 mod 3 and F_3 rank 1
    valuations, rref, pivots = rank_mod_p(((2, 1), (1, 2)), 3, 2, 1)
    assert valuations == [0, 1] and rref == [[1, 2], [0, 0]] and pivots == [0]
    # determinant 9: the second divisor has valuation 2, beyond the bound k = 1
    with pytest.raises(InvariantError, match=r"mod 3\*\*2 finds 1 divisors, not 2"):
        rank_mod_p(((2, 1), (1, 5)), 3, 2, 1)
    # determinant 1: both divisors found, but their valuations sum to 0
    with pytest.raises(InvariantError, match="sum to 0, not to 1, the valuation of a nonzero 2 x 2"):
        rank_mod_p(((2, 1), (1, 1)), 3, 2, 1)
    # singular: the loop stops at precision p**(k+1) however large k is
    gram = [list(row) for row in specht_gram((3, 2, 1)).form.matrix]
    for row in gram:
        row[-1] = 0
    gram[-1] = [0] * len(gram)
    with pytest.raises(InvariantError, match=r"mod 3\*\*41 finds 15 divisors, not 16"):
        rank_mod_p(gram, 3, 16, 40)


def test_is_prime_agrees_with_trial_division_below_1e5():
    def trial_division(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-5, 10**5) if is_prime(n)] == [n for n in range(10**5) if trial_division(n)]


@pytest.mark.parametrize("n", [
    2047,                          # strong pseudoprime to base 2
    1373653,                       # to bases 2, 3
    25326001,                      # to bases 2, 3, 5
    3215031751,                    # to bases 2, 3, 5, 7
    2152302898747,                 # to bases 2, ..., 11
    3474749660383,                 # to bases 2, ..., 13
    341550071728321,               # to bases 2, ..., 17
    3825123056546413051,           # to bases 2, ..., 23
    318665857834031151167461,      # to bases 2, ..., 37: only base 41 catches it
    (2**31 - 1) ** 2,
])
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)


@pytest.mark.parametrize("p", [1000000000000000003, 2**61 - 1, 2**31 - 1, 41, 43])
def test_large_primes_are_prime(p):
    assert is_prime(p)
    check_prime(p)


def test_primes_past_the_certified_range_are_refused():
    with pytest.raises(LieparError, match="too large"):
        check_prime(PRIME_LIMIT)
    with pytest.raises(LieparError, match="too large"):
        is_prime(2**89 - 1)
    assert not is_prime(PRIME_LIMIT - 1)
