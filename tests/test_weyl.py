import itertools
import tracemalloc

import pytest

from liepar.errors import BudgetError, LieparError, NotMinimalError
from liepar.rootsys import build_root_system
from liepar.weyl import (
    CellPolynomial,
    bruhat_leq,
    double_quotient_reps,
    generate_parabolic,
    generate_weyl,
    identity,
    iter_double_quotient_reps,
    multiply,
    orbit,
    stratum_poincare,
)


def summed(polynomials):
    """Coefficient-wise sum of cell polynomials."""
    columns = itertools.zip_longest(*(p.coeffs for p in polynomials), fillvalue=0)
    return CellPolynomial(tuple(map(sum, columns)))


def by_word(rs):
    return {w.word: w for w in generate_weyl(rs)}


def test_generate_small():
    a1 = build_root_system("A1")
    W = generate_weyl(a1)
    assert [(w.word, w.length) for w in W] == [((), 0), ((0,), 1)]
    a2 = build_root_system("A2")
    W = generate_weyl(a2)
    assert len(W) == 6
    assert max(w.length for w in W) == 3
    b2 = build_root_system("B2")
    W = generate_weyl(b2)
    assert len(W) == 8
    assert max(w.length for w in W) == 4


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4", "G2", "A1xA1"])
def test_generate_matches_order_formula(label):
    rs = build_root_system(label)
    W = generate_weyl(rs)
    assert len(W) == rs.weyl_order()
    assert len({w.key for w in W}) == len(W)
    # every word is reduced: its length equals the inversion count
    for w in W:
        assert len(w.word) == w.length


def test_budget(monkeypatch):
    e7 = build_root_system("E7")
    monkeypatch.setenv("LIEPAR_BUDGET", "1000")
    with pytest.raises(BudgetError):
        generate_weyl(e7)
    sliced = generate_weyl(e7, length_bound=3)
    # 1 + 7 + lengths 2 and 3
    assert max(w.length for w in sliced) == 3
    assert len({w.key for w in sliced}) == len(sliced)


def test_bruhat_identity_is_minimum():
    a2 = build_root_system("A2")
    e = identity(a2)
    for w in generate_weyl(a2):
        assert bruhat_leq(e, w)


def test_bruhat_subword_examples():
    words = by_word(build_root_system("A2"))
    assert bruhat_leq(words[(0,)], words[(0, 1)])
    assert not bruhat_leq(words[(0, 1)], words[(1, 0)])
    assert not bruhat_leq(words[(1, 0)], words[(0, 1)])


def bruhat_leq_chain_oracle(elements):
    """Independent Bruhat oracle: transitive closure of the covering relation.

    Covers are w -> t*w for reflections t with l(t*w) = l(w) + 1, t acting on
    w(rho) as a reflection.  Returns, for each element, the set of keys of
    all elements below or equal to it.
    """
    if not elements:
        return {}
    rs = elements[0].system
    by_key = {w.key: w for w in elements}
    reflections = [(rs.root_weight_coords(a), rs.coroot(a)) for a in rs.positive_roots]
    below = {w.key: {w.key} for w in elements}
    for w in sorted(elements, key=lambda x: x.length):
        for alpha, co in reflections:
            c = sum(w.key[k] * co[k] for k in range(rs.rank))
            higher = by_key.get(tuple(w.key[k] - c * alpha[k] for k in range(rs.rank)))
            if higher is not None and higher.length == w.length + 1:
                below[higher.key] |= below[w.key]
    return below


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "A3", "G2"])
def test_bruhat_two_oracle_agreement(label):
    rs = build_root_system(label)
    els = generate_weyl(rs)
    below = bruhat_leq_chain_oracle(els)
    for u in els:
        for w in els:
            assert bruhat_leq(u, w) == (u.key in below[w.key])


def test_bruhat_length_monotone():
    rs = build_root_system("B3")
    els = generate_weyl(rs)
    for u in els:
        for w in els:
            if bruhat_leq(u, w):
                assert u.length <= w.length
                if u.length == w.length:
                    assert u == w


def test_double_quotient_empty_is_whole_group():
    for label in ("A2", "B2", "A3"):
        rs = build_root_system(label)
        assert len(double_quotient_reps(rs, (), ())) == rs.weyl_order()


def test_double_quotient_a2():
    a2 = build_root_system("A2")
    reps = double_quotient_reps(a2, {0}, ())
    assert [w.length for w in reps] == [0, 1, 2]


def brute_force_double_cosets(rs, I, J):
    W = generate_weyl(rs)
    WI = generate_parabolic(rs, I)
    WJ = generate_parabolic(rs, J)
    seen = set()
    cosets = []
    for w in W:
        if w.key in seen:
            continue
        coset = set()
        for u in WI:
            uw = multiply(u, w)
            for v in WJ:
                coset.add(multiply(uw, v).key)
        seen |= coset
        cosets.append(coset)
    return cosets


def brute_force_stratum(rs, I, J, w):
    """q^l(x) summed over x in W_I w W_J with no right descent in J, by products."""
    lengths = {}
    for u in generate_parabolic(rs, I):
        uw = multiply(u, w)
        for v in generate_parabolic(rs, J):
            x = multiply(uw, v)
            if not (x.right_descents() & set(J)):
                lengths[x.key] = x.length
    return CellPolynomial.from_exponents(lengths.values())


def _subsets(rank):
    return [set(c) for k in range(rank + 1) for c in itertools.combinations(range(rank), k)]


def _label(indices):
    return "{" + ",".join(str(i + 1) for i in sorted(indices)) + "}"


FIRST_PAIRS = [
    ("A3", {0, 1}, {1, 2}),
    ("A3", {0}, {2}),
    ("B3", {0, 1}, {1, 2}),
]
# then every other pair of parabolics on A3, B3 and G2
ALL_PARABOLIC_PAIRS = FIRST_PAIRS + [
    pytest.param(label, I, J, id=f"{label}-I{_label(I)}-J{_label(J)}")
    for label, rank in (("A3", 3), ("B3", 3), ("G2", 2))
    for I in _subsets(rank)
    for J in _subsets(rank)
    if (label, I, J) not in FIRST_PAIRS
]


@pytest.mark.parametrize("label,I,J", ALL_PARABOLIC_PAIRS)
def test_double_quotient_against_brute_force(label, I, J):
    rs = build_root_system(label)
    cosets = brute_force_double_cosets(rs, I, J)
    reps = double_quotient_reps(rs, I, J)
    assert len(reps) == len(cosets)
    # each representative is the unique minimal-length element of its coset
    by_key = {w.key: w for w in generate_weyl(rs)}
    for rep in reps:
        coset = next(c for c in cosets if rep.key in c)
        lengths = sorted(by_key[p].length for p in coset)
        assert rep.length == lengths[0]
        assert lengths.count(rep.length) == 1
        assert stratum_poincare(rs, I, J, rep) == brute_force_stratum(rs, I, J, rep)


@pytest.mark.parametrize("bad", [{3}, {-1}, {"a"}])
def test_simple_indices_are_validated(bad):
    a3 = build_root_system("A3")
    with pytest.raises(LieparError):
        double_quotient_reps(a3, bad, ())
    with pytest.raises(LieparError):
        double_quotient_reps(a3, (), bad)
    with pytest.raises(LieparError):
        stratum_poincare(a3, bad, (), identity(a3))


def test_coset_partition_identity():
    # sum over I-minimal reps of |W_I| recovers |W|
    for label in ("A3", "B3", "C3", "D4", "F4", "B4"):
        rs = build_root_system(label)
        for k in range(rs.rank + 1):
            for I in itertools.combinations(range(rs.rank), k):
                reps = double_quotient_reps(rs, set(I), ())
                assert len(reps) * len(generate_parabolic(rs, I)) == rs.weyl_order()


def test_stratum_poincare_examples():
    a1 = build_root_system("A1")
    w = by_word(a1)[(0,)]
    assert stratum_poincare(a1, (), (), w).coeffs == (0, 1)

    a2 = build_root_system("A2")
    w0 = max(generate_weyl(a2), key=lambda w: w.length)
    assert stratum_poincare(a2, (), (), w0).coeffs == (0, 0, 0, 1)

    e = identity(a2)
    assert stratum_poincare(a2, (), {1}, e).coeffs == (1,)
    total = summed(stratum_poincare(a2, (), {1}, w) for w in double_quotient_reps(a2, (), {1}))
    assert total.coeffs == (1, 1, 1)
    assert total.evaluate(1) == 3


def test_stratum_poincare_rejects_nonminimal():
    a2 = build_root_system("A2")
    s1 = by_word(a2)[(0,)]
    with pytest.raises(NotMinimalError):
        stratum_poincare(a2, {0}, (), s1)


@pytest.mark.parametrize("label,I,J", [
    ("A3", {0}, {1}),
    ("B3", {2}, {0, 1}),
    ("A2", (), {1}),
    ("A3", {0, 1}, {1, 2}),
    ("G2", {0}, {0}),
])
def test_stratum_polynomials_sum_to_quotient(label, I, J):
    # the I-stratum cells partition the J-quotient cells, for any parabolic I
    rs = build_root_system(label)
    total = summed(stratum_poincare(rs, I, J, w) for w in double_quotient_reps(rs, I, J))
    quotient = CellPolynomial.from_exponents(x.length for x in double_quotient_reps(rs, (), J))
    assert total.coeffs == quotient.coeffs


@pytest.mark.parametrize("label", ["A3", "B2", "G2"])
def test_reduced_word_recovery_by_descent_following(label):
    from liepar.weyl import identity, multiply_simple, reduced_word

    rs = build_root_system(label)
    for w in generate_weyl(rs):
        word = reduced_word(rs, w.key)
        assert len(word) == w.length
        rebuilt = identity(rs)
        for i in word:
            rebuilt = multiply_simple(rebuilt, i)
        assert rebuilt.key == w.key


def test_cell_polynomial_invariants():
    p = CellPolynomial.from_exponents([0, 2, 2])
    assert p.coeffs == (1, 0, 2)
    assert p.evaluate(1) == 3
    with pytest.raises(Exception):
        CellPolynomial((1, -1))


def _rho_off(rs, J):
    return tuple(0 if k in J else 1 for k in range(rs.rank))


@pytest.mark.parametrize("label,gens,J", [
    ("A4", range(4), ()), ("B3", range(3), ()), ("F4", range(4), ()), ("G2", range(2), ()),
    ("D5", range(5), (1, 2)), ("E6", range(6), (0, 1, 2, 3, 4)), ("C4", (0, 2, 3), ()),
    ("A1xA1", range(2), ()), ("B4", (), ()),
])
def test_orbit_levels_come_in_length_word_order(label, gens, J):
    rs = build_root_system(label)
    levels = list(orbit(rs, _rho_off(rs, J), gens))
    pairs = [pair for points, words in levels for pair in zip(points, words, strict=True)]
    for depth, (points, words) in enumerate(levels):
        assert points and all(type(word) is bytes and len(word) == depth for word in words)
    assert [w for _, w in pairs] == sorted((w for _, w in pairs), key=lambda w: (len(w), w))
    assert len({nu for nu, _ in pairs}) == len(pairs)
    # every point is its word applied to the start, and every word reduced
    for nu, word in pairs:
        point = _rho_off(rs, J)
        for i in reversed(word):
            point = rs.reflect(point, i)
        assert point == nu


def test_orbit_levels_respect_bound_and_budget():
    rs = build_root_system("E7")
    assert [len(points) for points, _ in orbit(rs, rs.rho, range(7), length_bound=2)] == [1, 7, 27]
    with pytest.raises(BudgetError, match="LIEPAR_BUDGET"):
        list(orbit(rs, rs.rho, range(7), limit=100))
    # the budget counts points found, so a bounded walk under it passes
    assert sum(len(points) for points, _ in orbit(rs, rs.rho, range(7), length_bound=2, limit=35)) == 35


def test_orbit_checks_dominance_before_the_first_level():
    rs = build_root_system("A2")
    with pytest.raises(LieparError, match="not dominant"):
        orbit(rs, (-1, 2), range(2))


def test_orbit_refuses_letters_above_one_byte():
    # checked before the root system is read, so no rank-257 system is built
    with pytest.raises(LieparError, match="simple index 256 does not fit in a one-byte orbit word"):
        orbit(None, (0,) * 257, range(257))
    orbit(None, (0,) * 256, range(256))  # letter 255 fits; the walk starts only when iterated


def test_orbit_walk_of_e6_stays_small():
    # two levels of W(E6) are live at once, at most 3,611 + 3,662 points with their words
    rs = build_root_system("E6")
    tracemalloc.start()
    try:
        assert sum(len(points) for points, _ in orbit(rs, rs.rho, range(6))) == 51840
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_iter_double_quotient_reps_checks_before_the_first_rep(monkeypatch):
    rs = build_root_system("E8")
    monkeypatch.delenv("LIEPAR_BUDGET", raising=False)
    with pytest.raises(BudgetError, match=r"^\|W/W_J\| = 696729600 exceeds budget 10000000; "
                                          r"set LIEPAR_BUDGET to raise it$"):
        iter_double_quotient_reps(rs, (), ())
    with pytest.raises(LieparError, match="out of range"):
        iter_double_quotient_reps(rs, (8,), ())
    reps = iter_double_quotient_reps(rs, (), range(7))
    first = next(reps)
    assert first.length == 0 and first.key == rs.rho
    assert 1 + sum(1 for _ in reps) == 240


def test_elements_of_two_root_systems_do_not_compose_or_compare():
    a2, b2 = build_root_system("A2"), build_root_system("B2")
    u, v = generate_weyl(a2)[1], generate_weyl(b2)[1]
    with pytest.raises(LieparError, match="^elements belong to different root systems$"):
        multiply(u, v)
    with pytest.raises(LieparError, match="^elements belong to different root systems$"):
        bruhat_leq(u, v)
