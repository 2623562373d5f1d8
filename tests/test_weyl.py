import copy
import itertools
import pickle
import re
import tracemalloc
from operator import mul

import pytest

from liepar import characters
from liepar.errors import BudgetError, LieparError, NotMinimalError
from liepar.rootsys import build_root_system
from liepar.weyl import (
    CellPolynomial,
    WeylElement,
    _width,
    bruhat_leq,
    double_quotient_reps,
    generate_parabolic,
    generate_weyl,
    iter_double_quotient_words,
    orbit,
    stratum_poincare,
)
from lattice_oracle import root_weight_coords


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
    e = by_word(a2)[()]
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
    reflections = [(root_weight_coords(rs, a), rs.coroot(a)) for a in rs.positive_roots]
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


def act(rs, word, weight):
    """The product of the simple reflections of `word` applied to `weight`."""
    for i in reversed(word):
        weight = rs.reflect(weight, i)
    return weight


def inversions(rs, key):
    """l(x) for the x with x(rho) = key: the positive coroots beta-check with
    <x(rho), beta-check> < 0, that is those x^-1 sends negative."""
    return sum(1 for co in rs.positive_coroots if sum(map(mul, key, co)) < 0)


def brute_force_double_cosets(rs, I, J):
    """The double cosets W_I w W_J as sets of keys, each product u w v
    written out as its word applied to rho."""
    WI = [u.word for u in generate_parabolic(rs, I)]
    WJ = [v.word for v in generate_parabolic(rs, J)]
    seen = set()
    cosets = []
    for w in generate_weyl(rs):
        if w.key in seen:
            continue
        coset = {act(rs, u + w.word + v, rs.rho) for u in WI for v in WJ}
        seen |= coset
        cosets.append(coset)
    return cosets


def brute_force_stratum(rs, I, J, w):
    """q^l(x) summed over x in W_I w W_J with no right descent in J, by
    products: x s_j is shorter than x for a right descent j."""
    lengths = {}
    for u in generate_parabolic(rs, I):
        for v in generate_parabolic(rs, J):
            word = u.word + w.word + v.word
            key = act(rs, word, rs.rho)
            length = inversions(rs, key)
            if all(inversions(rs, act(rs, word + (j,), rs.rho)) > length for j in J):
                lengths[key] = length
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
        assert stratum_poincare(rs, I, J, rep.word) == brute_force_stratum(rs, I, J, rep)


@pytest.mark.parametrize("bad", [{3}, {-1}, {"a"}])
def test_simple_indices_are_validated(bad):
    a3 = build_root_system("A3")
    with pytest.raises(LieparError):
        double_quotient_reps(a3, bad, ())
    with pytest.raises(LieparError):
        double_quotient_reps(a3, (), bad)
    with pytest.raises(LieparError):
        stratum_poincare(a3, bad, (), ())


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
    assert stratum_poincare(a1, (), (), w.word).coeffs == (0, 1)

    a2 = build_root_system("A2")
    w0 = max(generate_weyl(a2), key=lambda w: w.length)
    assert stratum_poincare(a2, (), (), w0.word).coeffs == (0, 0, 0, 1)

    assert stratum_poincare(a2, (), {1}, ()).coeffs == (1,)
    total = summed(stratum_poincare(a2, (), {1}, w.word) for w in double_quotient_reps(a2, (), {1}))
    assert total.coeffs == (1, 1, 1)


def test_stratum_poincare_rejects_nonminimal():
    a2 = build_root_system("A2")
    s1 = by_word(a2)[(0,)]
    with pytest.raises(NotMinimalError):
        stratum_poincare(a2, {0}, (), s1.word)


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "A1xA2"])
def test_stratum_poincare_takes_the_words_of_the_representatives(label):
    # a reduced word is accepted for (I, J) exactly when its element is a
    # minimal double-coset representative, as a tuple or as bytes
    rs = build_root_system(label)
    W = generate_weyl(rs)
    for I in _subsets(rs.rank):
        for J in _subsets(rs.rank):
            reps = {w.key for w in double_quotient_reps(rs, I, J)}
            for w in W:
                if w.key in reps:
                    p = stratum_poincare(rs, I, J, w.word)
                    assert stratum_poincare(rs, I, J, bytes(w.word)) == p and len(p.coeffs) > w.length
                else:
                    with pytest.raises(NotMinimalError):
                        stratum_poincare(rs, I, J, w.word)


@pytest.mark.parametrize("word", [(0, 0), (0, 1, 0, 1), b"\x01\x00\x01\x00", (1, 0, 1, 0, 1, 0, 1)])
def test_stratum_poincare_refuses_words_that_are_not_reduced(word):
    a2 = build_root_system("A2")
    with pytest.raises(NotMinimalError):
        stratum_poincare(a2, (), (), word)


def test_stratum_poincare_refuses_a_letter_before_the_first_reflection(monkeypatch):
    rs = build_root_system("A3")
    w0 = max(generate_weyl(rs), key=lambda w: w.length)

    def refuse(*args):
        raise AssertionError("reflected")

    monkeypatch.setattr(type(rs), "reflect", refuse)
    for word, letter in [((-1,), "-1"), ((3,), "3"), ((3, 0), "3"), (b"\x00\x07", "7"),
                         (w0, re.escape(repr(w0.word)))]:  # an element: its first item is its word
        with pytest.raises(LieparError, match=rf"^simple index {letter} out of range 0\.\.2$") as info:
            stratum_poincare(rs, (), (), word)
        assert type(info.value) is LieparError


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
    total = summed(stratum_poincare(rs, I, J, w.word) for w in double_quotient_reps(rs, I, J))
    quotient = CellPolynomial.from_exponents(x.length for x in double_quotient_reps(rs, (), J))
    assert total.coeffs == quotient.coeffs


def test_cell_polynomial_invariants():
    p = CellPolynomial.from_exponents([0, 2, 2])
    assert p.coeffs == (1, 0, 2)
    with pytest.raises(Exception):
        CellPolynomial((1, -1))


def test_cell_polynomial_is_an_immutable_value():
    p = CellPolynomial((1, 0, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
    with pytest.raises(AttributeError):
        del p.coeffs
    with pytest.raises(AttributeError):
        p.degree = 2
    assert p.coeffs == (1, 0, 2)
    q = CellPolynomial.from_exponents([2, 0, 2])
    assert p == q and hash(p) == hash(q) and not p != q
    assert p != CellPolynomial((1, 0, 3)) and p != (1, 0, 2)
    assert repr(p) == "CellPolynomial(coeffs=(1, 0, 2))"
    with pytest.raises(LieparError, match="^cell polynomial coefficients must be nonnegative$"):
        CellPolynomial((1, -1))


@pytest.mark.parametrize("exponents,text", [
    ([], "0"), ([0], "1"), ([0, 2], "1 + q^2"), ([0, 2, 2, 4], "1 + 2*q^2 + q^4"), ([1, 1, 3], "2*q + q^3"),
])
def test_cell_polynomial_text(exponents, text):
    # the toric paving's Poincare polynomial is from_exponents of twice the cell dimensions, printed by str
    assert str(CellPolynomial.from_exponents(exponents)) == text


def test_weyl_element_is_an_immutable_value():
    rs = build_root_system("A2")
    w0 = max(generate_weyl(rs), key=lambda w: w.length)
    assert (w0.word, w0.key, w0.length, w0.system) == ((0, 1, 0), (-1, -1), 3, rs)
    with pytest.raises(AttributeError):
        w0.word = (1, 0, 1)
    with pytest.raises(AttributeError):
        w0.colour = "red"
    # s1 s2 s1 = s2 s1 s2: equal keys, different words
    other = WeylElement((1, 0, 1), (-1, -1), 3, rs)
    assert other == w0 and not other != w0 and hash(other) == hash(w0) and len({other, w0}) == 1
    assert other.word != w0.word
    assert w0 != generate_weyl(rs)[0] and w0 != tuple(w0) and w0 != w0.key
    with pytest.raises(TypeError):
        w0 < other  # elements are not ordered, by word or otherwise
    for clone in (copy.copy(w0), pickle.loads(pickle.dumps(w0))):
        assert type(clone) is WeylElement and clone == w0 and clone.word == w0.word
    assert repr(w0) == "WeylElement(word=(0, 1, 0), key=(-1, -1), length=3)"


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


def tuple_walk(rs, start, gens):
    """The orbit walk with each point a tuple: the oracle of `orbit`'s packed
    walk.  s_i mu is written out coordinate by coordinate, and a point is kept
    when no coordinate of a generator before i is negative."""
    gens = sorted(gens)
    points, words = [tuple(start)], [b""]
    while points:
        yield points, words
        new_points = {i: [] for i in gens}
        new_words = {i: [] for i in gens}
        for mu, word in zip(points, words):
            for i in gens:
                if mu[i] > 0:
                    nu = tuple(x - mu[i] * a for x, a in zip(mu, rs.cartan[i]))
                    if all(nu[k] >= 0 for k in gens if k < i):
                        new_points[i].append(nu)
                        new_words[i].append(bytes([i]) + word)
        points = [nu for i in gens for nu in new_points[i]]
        words = [word for i in gens for word in new_words[i]]


def assert_same_levels(rs, start, gens):
    """`orbit` and the tuple walk agree level by level, points and words;
    returns the largest |coordinate| of the orbit."""
    levels = list(orbit(rs, start, gens))
    expected = list(tuple_walk(rs, start, gens))
    assert len(levels) == len(expected)
    for depth, ((points, words), (want_points, want_words)) in enumerate(zip(levels, expected)):
        assert words == want_words, depth
        assert points == want_points, depth
        assert all(type(nu) is tuple for nu in points)
    return max(abs(x) for points, _ in expected for nu in points for x in nu)


RANK_AT_MOST_6 = ([f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
                  + [f"C{n}" for n in range(3, 7)] + ["D4", "D5", "D6", "E6", "F4", "G2", "A1xA1", "A2xG2"])


@pytest.mark.parametrize("label", RANK_AT_MOST_6)
def test_orbit_matches_tuple_walk_from_rho(label):
    rs = build_root_system(label)
    assert_same_levels(rs, rs.rho, range(rs.rank))


@pytest.mark.parametrize("label,gens,J", [
    ("D6", (0, 2, 3, 5), (1,)), ("D6", range(6), (1,)), ("E6", (0, 1, 2, 3, 4), (5,)),
    ("E6", range(6), (0, 1, 2, 3, 4)), ("B5", (1, 2, 4), (0, 3)), ("C4", (0, 2, 3), (1,)),
    ("F4", (0, 1, 3), (2,)), ("G2", (1,), (0,)), ("A5", (0, 1, 3, 4), (2,)), ("A2xG2", (0, 3), (1, 2)),
])
def test_orbit_matches_tuple_walk_from_rho_j(label, gens, J):
    rs = build_root_system(label)
    assert_same_levels(rs, _rho_off(rs, J), gens)


@pytest.mark.parametrize("label,weight,bits", [
    ("A2", (100, 0), 8), ("A2", (127, 0), 8), ("A2", (128, 0), 16), ("A2", (1000, 0), 16),
    ("A2", (10**6, 0), 32), ("A2", (2**31 - 1, 0), 32), ("A2", (2**31, 0), 64),
    ("A2", (10**12, 0), 64), ("A2", (2**63 - 1, 0), 64),
    ("A1xA1", (100, 100), 8),  # the coordinate-wise bound says 200; no coroot pairs to more than 100
    ("B3", (40, 0, 20), 8), ("B3", (10**12, 3, 10**12), 64), ("G2", (20, 10), 8), ("G2", (10**10, 7), 64),
    ("C4", (1000, 0, 5, 1), 16), ("D4", (0, 10**5, 0, 1), 32), ("F4", (3, 1, 4, 1), 8),
])
def test_orbit_field_width_from_the_coroot_bound(label, weight, bits):
    # every coroot is conjugate to a simple one, so the full orbit's largest
    # |coordinate| is the bound, and the width is the least that holds it
    rs = build_root_system(label)
    largest = assert_same_levels(rs, weight, range(rs.rank))
    assert _width(rs, weight) == bits == min(b for b in (8, 16, 32, 64) if largest < 2 ** (b - 1))


def test_orbit_refuses_coordinates_past_64_bits():
    rs = build_root_system("A2")
    levels = orbit(rs, (2**63, 0), range(2))  # the bound is checked when the walk starts
    with pytest.raises(LieparError, match=r"^orbit of \(9223372036854775808, 0\) has coordinates up to "
                                          r"9223372036854775808, past a 64-bit packed field$"):
        next(levels)
    with pytest.raises(LieparError, match="past a 64-bit packed field"):
        next(orbit(build_root_system("B3"), (2**62, 0, 0), range(3)))  # a coroot with 2 at the first simple coroot pairs to 2^63


def test_orbit_budget_error_says_how_far_the_walk_got(monkeypatch):
    rs = build_root_system("E7")
    # levels of 1, 7, 27 and 77 points: the fourth takes the count to 112 > 100
    monkeypatch.setenv("LIEPAR_BUDGET", "100")
    with pytest.raises(BudgetError, match=r"^enumeration at depth 3 \(112 points\) exceeds budget 100; "
                                          r"set LIEPAR_BUDGET to raise it$"):
        list(orbit(rs, rs.rho, range(7)))
    monkeypatch.setenv("LIEPAR_BUDGET", "40")
    with pytest.raises(BudgetError, match=r"^enumeration at depth 3 \(112 points\) exceeds budget 40"):
        generate_weyl(rs, length_bound=5)


def test_orbit_levels_respect_bound_and_budget(monkeypatch):
    rs = build_root_system("E7")
    assert [len(points) for points, _ in orbit(rs, rs.rho, range(7), length_bound=2)] == [1, 7, 27]
    monkeypatch.setenv("LIEPAR_BUDGET", "100")
    with pytest.raises(BudgetError, match="LIEPAR_BUDGET"):
        list(orbit(rs, rs.rho, range(7)))
    # the budget counts points found, so a bounded walk under it passes
    monkeypatch.setenv("LIEPAR_BUDGET", "35")
    assert sum(len(points) for points, _ in orbit(rs, rs.rho, range(7), length_bound=2)) == 35


def _a4_stratum():
    rs = build_root_system("A4")
    return stratum_poincare(rs, range(4), (), ())


@pytest.mark.parametrize("walk, label", [
    (lambda: generate_parabolic(build_root_system("E6"), range(5)), "depth 4 (104 points)"),
    (lambda: characters.weyl_orbit(build_root_system("E6"), (1,) * 6), "depth 4 (182 points)"),
    (_a4_stratum, "depth 7 (106 points)"),  # levels 1, 4, 9, 15, 20, 22, 20, 15
], ids=["generate_parabolic", "weyl_orbit", "stratum_poincare"])
def test_every_walk_keeps_the_weyl_budget(monkeypatch, walk, label):
    # each walks more points than the budget: W(D5) of 1,920, W(E6) of 51,840, W(A4) of 120
    monkeypatch.setenv("LIEPAR_BUDGET", "100")
    with pytest.raises(BudgetError, match=rf"^enumeration at {re.escape(label)} exceeds budget 100; "
                                          r"set LIEPAR_BUDGET to raise it$"):
        walk()


def test_orbit_checks_dominance_before_the_first_level():
    rs = build_root_system("A2")
    with pytest.raises(LieparError, match="not dominant"):
        orbit(rs, (-1, 2), range(2))


def test_orbit_refuses_letters_above_one_byte():
    # checked before the root system is read, so no rank-257 system is built
    with pytest.raises(LieparError, match="simple index 256 does not fit in a one-byte orbit word"):
        orbit(None, (0,) * 257, range(257))
    orbit(None, (0,) * 256, range(256))  # letter 255 fits; the walk starts only when iterated


@pytest.mark.parametrize("gens, index", [([5], 5), ([-1], -1), ([0, 2], 2)])
def test_orbit_refuses_a_generator_outside_the_simple_indices(gens, index):
    rs = build_root_system("A2")
    with pytest.raises(LieparError, match=rf"^simple index {index} out of range 0\.\.1$"):
        list(orbit(rs, (1, 1), gens))


def test_orbit_counts_a_repeated_generator_once():
    rs = build_root_system("A2")
    assert [points for points, _ in orbit(rs, (1, 1), [0, 0])] == [[(1, 1)], [(-1, 2)]]
    assert list(orbit(rs, (1, 1), [1, 0, 1])) == list(orbit(rs, (1, 1), range(2)))


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


def test_iter_double_quotient_words_checks_before_the_first_level(monkeypatch):
    rs = build_root_system("E8")
    monkeypatch.delenv("LIEPAR_BUDGET", raising=False)
    for quotient in (iter_double_quotient_words, double_quotient_reps):
        with pytest.raises(BudgetError, match=r"^\|W/W_J\| = 696729600 exceeds budget 10000000; "
                                              r"set LIEPAR_BUDGET to raise it$"):
            quotient(rs, (), ())
        for I, J in [((8,), ()), ((), (8,))]:
            with pytest.raises(LieparError, match="out of range"):
                quotient(rs, I, J)
    levels = iter_double_quotient_words(rs, (), range(7))
    assert next(levels) == [b""]
    assert 1 + sum(map(len, levels)) == 240
    reps = double_quotient_reps(rs, (), range(7))
    assert len(reps) == 240 and reps[0].length == 0 and reps[0].key == rs.rho


@pytest.mark.parametrize("label,I,J", ALL_PARABOLIC_PAIRS + [
    ("E6", (), range(5)), ("E6", range(5), (0, 5)), ("D6", range(5), (0, 5)), ("A6", (0, 1), (5,)),
    ("B3", (0, 1), (0,)), ("A4", (0, 1, 2), (3,)),
])
def test_double_quotient_words_are_the_words_of_the_reps(label, I, J):
    rs = build_root_system(label)
    levels = list(iter_double_quotient_words(rs, I, J))
    assert all(len(word) == d for d, words in enumerate(levels) for word in words)
    assert levels[0] == [b""]
    reps = double_quotient_reps(rs, I, J)
    assert [word for words in levels for word in words] == [bytes(w.word) for w in reps]
    # each key, a parent's key reflected once, is the word replayed on rho
    assert all(w.key == act(rs, w.word, rs.rho) for w in reps)


def test_double_quotient_words_keep_lengths_with_no_representative():
    # representatives of lengths 0-3 and 5-6 of the 0-8 walked, and 0 and 2-4 of 0-9
    for label, I, J, empty in [("B3", (0, 1), (0,), [4, 7, 8]), ("A4", (0, 1, 2), (3,), [1, 5, 6, 7, 8, 9])]:
        levels = list(iter_double_quotient_words(build_root_system(label), I, J))
        assert [d for d, words in enumerate(levels) if not words] == empty


def test_elements_of_two_root_systems_do_not_compare():
    a2, b2 = build_root_system("A2"), build_root_system("B2")
    u, v = generate_weyl(a2)[1], generate_weyl(b2)[1]
    with pytest.raises(LieparError, match="^elements belong to different root systems$"):
        bruhat_leq(u, v)
