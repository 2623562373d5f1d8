import importlib.util
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from operator import add
from pathlib import Path

import pytest

from liepar import characters as ch
from liepar.cli import _parse_weight
from liepar.errors import BudgetError, LieparError, ReducibleError
from liepar.golden import load_table
from liepar.rootsys import build_root_system
from liepar.weyl import orbit
from lattice_oracle import root_weight_coords, weight_root_coords


def w(rank, *pairs):
    v = [0] * rank
    for i, c in pairs:
        v[i - 1] += c
    return tuple(v)


def test_weyl_dimension_basics():
    for n in range(1, 8):
        rs = build_root_system(f"A{n}")
        assert ch.weyl_dimension(rs, w(n, (1, 1))) == n + 1
    assert ch.weyl_dimension(build_root_system("E8"), w(8, (8, 1))) == 248
    assert ch.weyl_dimension(build_root_system("F4"), w(4, (4, 1))) == 26
    assert ch.weyl_dimension(build_root_system("E7"), w(7, (7, 1))) == 56
    rs = build_root_system("A2")
    with pytest.raises(LieparError):
        ch.weyl_dimension(rs, (-1, 0))


@pytest.mark.parametrize("call,weight", [
    (lambda rs: ch.weyl_dimension(rs, (1, 0, 5)), [1, 0, 5]),
    (lambda rs: ch.weyl_orbit(rs, (1,)), [1]),
    (lambda rs: ch.dominant_weight_multiplicities(rs, (1,)), [1]),
    (lambda rs: ch.weight_multiplicities(rs, (1, 1, 0)), [1, 1, 0]),
    (lambda rs: ch.tensor_decompose(rs, (1, 0, 0), (1, 0)), [1, 0, 0]),
    (lambda rs: ch.tensor_decompose(rs, (1, 0), (1, 0, 0)), [1, 0, 0]),
    (lambda rs: ch.exterior_power_decompose(rs, (1, 0, 3), 2), [1, 0, 3]),
    (lambda rs: ch.dominance_leq(rs, (0, 0), (1, 1, 0)), [1, 1, 0]),
    (lambda rs: ch.orbit_dimension(rs, (2,)), [2]),
    (lambda rs: ch.word_multiplicity(rs, [(1, 0), (0, 1, 0)], (1, 1)), [0, 1, 0]),
    (lambda rs: ch.word_multiplicity(rs, [], (1,)), [1]),
    # the check lives on RootSystem, which the Weyl walk calls too
    (lambda rs: list(orbit(rs, (1, 0, 4), range(2))), [1, 0, 4]),
    (lambda rs: list(orbit(rs, (1,), range(2))), [1]),
], ids=["weyl_dimension", "weyl_orbit", "dominant_weight_multiplicities",
        "weight_multiplicities", "tensor_left", "tensor_right", "exterior_power",
        "dominance_leq", "orbit_dimension", "word_multiplicity_word", "word_multiplicity_target",
        "orbit_long", "orbit_short"])
def test_weight_of_the_wrong_length_is_refused(call, weight):
    with pytest.raises(LieparError) as exc:
        call(build_root_system("A2"))
    assert str(exc.value) == f"weight {weight} does not have 2 coordinates, the rank of A2"


def test_weight_multiplicities_sl2():
    a1 = build_root_system("A1")
    res = ch.weight_multiplicities(a1, (2,))
    assert res == {(2,): 1, (0,): 1, (-2,): 1}
    assert sum(res.values()) == 3


def test_weight_multiplicities_a2_adjoint_against_tensor_oracle():
    # brute force: conv(char w1, char w2) - trivial = adjoint character
    a2 = build_root_system("A2")
    orbit1 = ch.weyl_orbit(a2, (1, 0))
    orbit2 = ch.weyl_orbit(a2, (0, 1))
    conv = {}
    for u in orbit1:
        for v in orbit2:
            s = (u[0] + v[0], u[1] + v[1])
            conv[s] = conv.get(s, 0) + 1
    conv[(0, 0)] -= 1  # remove the trivial summand
    adjoint = ch.weight_multiplicities(a2, (1, 1))
    assert adjoint == {k: v for k, v in conv.items() if v}
    assert adjoint[(0, 0)] == 2
    assert sum(adjoint.values()) == 8


def test_weight_multiplicities_g2_seven():
    g2 = build_root_system("G2")
    res = ch.weight_multiplicities(g2, (1, 0))
    assert sum(res.values()) == 7
    assert res[(0, 0)] == 1
    # six short roots plus zero
    assert sum(1 for k, v in res.items() if k != (0, 0)) == 6


def test_weyl_orbit_from_any_point():
    a2 = build_root_system("A2")
    assert ch.weyl_orbit(a2, (-1, 1)) == ch.weyl_orbit(a2, (1, 0)) == [(-1, 1), (0, -1), (1, 0)]
    assert len(ch.weyl_orbit(a2, (1, 1))) == 6


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "C3"])
def test_straightening_sign_is_the_parity_of_the_chamber(label):
    # a regular weight is carried to the dominant chamber by an element of
    # length #{alpha > 0 : <weight, alpha^vee> < 0}; its sign is the parity
    rs = build_root_system(label)
    coroots = [rs.coroot(root) for root in rs.positive_roots]
    box = range(-3, 4)
    for weight in itertools.product(box, repeat=rs.rank):
        dom, sign = ch.straighten_signed(rs, weight)
        assert min(dom) >= 0 and dom == ch.dominant_rep(rs, weight)
        assert weight in ch.weyl_orbit(rs, dom)
        pairings = [sum(c * x for c, x in zip(co, weight)) for co in coroots]
        if 0 in pairings:
            assert sign == 0
        else:
            assert sign == (-1) ** sum(p < 0 for p in pairings)


def test_character_values_are_read_only():
    a2 = build_root_system("A2")
    mults = {(1, 1): 1}
    res = ch.weight_multiplicities(a2, (1, 1))
    dec = ch.Character(a2, mults)
    mults[(0, 0)] = 1  # the character keeps its own copy
    assert dec.dominant_mults == {(1, 1): 1}
    for table in (res, dec.dominant_mults):
        with pytest.raises(TypeError):
            table[(0, 0)] = 5


@pytest.mark.parametrize("label,weight", [
    ("A2", (1, 1)), ("B2", (1, 1)), ("G2", (0, 1)), ("C3", (0, 0, 1)),
])
def test_freudenthal_weyl_invariance_and_duality(label, weight):
    rs = build_root_system(label)
    mults = ch.weight_multiplicities(rs, weight)
    for v, m in mults.items():
        for i in range(rs.rank):
            assert mults.get(rs.reflect(v, i)) == m
        # weights come in +/- pairs with equal multiplicity (self-dual up to -w0)
        assert mults.get(tuple(-x for x in v)) == m


def _symmetrizer(cartan):
    """d_i with a_ij d_j = a_ji d_i, read off the Cartan matrix alone."""
    n = len(cartan)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if cartan[i][j] and d[j] is None:
                    d[j] = d[i] * cartan[j][i] / cartan[i][j]
                    stack.append(j)
    return d


def freudenthal_fraction_oracle(rs, lam):
    """Dominant multiplicities of V(lambda) by the Freudenthal recursion over
    Fractions, with the invariant form symmetrized from the Cartan matrix."""
    d = _symmetrizer(rs.cartan)

    def inner(w1, w2):
        rc = weight_root_coords(rs, w2)
        return sum(Fraction(w1[j]) * d[j] * rc[j] for j in range(rs.rank))

    pos = [(r, root_weight_coords(rs, r)) for r in rs.positive_roots]
    dominants = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for v in frontier:
            for _, aw in pos:
                cand = tuple(v[i] - aw[i] for i in range(rs.rank))
                if all(c >= 0 for c in cand) and cand not in dominants:
                    dominants.add(cand)
                    nxt.append(cand)
        frontier = nxt
    ordered = sorted(dominants, key=lambda v: (sum(weight_root_coords(rs, v)), v), reverse=True)
    lam_rho = tuple(c + 1 for c in lam)
    c_lam = inner(lam_rho, lam_rho)
    mults = {lam: 1}
    for mu in ordered[1:]:
        acc = Fraction(0)
        for ar, aw in pos:
            d_part = [ar[j] * d[j] for j in range(rs.rank)]
            k = 1
            while True:
                xi = tuple(mu[i] + k * aw[i] for i in range(rs.rank))
                m = mults.get(ch.dominant_rep(rs, xi), 0)
                if m == 0:
                    break
                acc += m * sum(d_part[j] * xi[j] for j in range(rs.rank))
                k += 1
        mu_rho = tuple(c + 1 for c in mu)
        value = 2 * acc / (c_lam - inner(mu_rho, mu_rho))
        assert value.denominator == 1 and value >= 0
        mults[mu] = int(value)
    return mults


def _fundamental_pairs(rank):
    """omega_i and omega_i + omega_j for all i <= j."""
    out = [w(rank, (i, 1)) for i in range(1, rank + 1)]
    out += [w(rank, (i, 1), (j, 1)) for i in range(1, rank + 1) for j in range(i, rank + 1)]
    return out


FREUDENTHAL_CASES = [
    (label, weight)
    for label in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4",
                  "F4", "G2")
    for weight in _fundamental_pairs(int(label[1]))
] + [("E6", w(6, (1, 1))), ("F4", w(4, (4, 1))), ("G2", (2, 1))]


@pytest.mark.parametrize("label,weight", FREUDENTHAL_CASES,
                         ids=lambda v: v if isinstance(v, str) else ",".join(map(str, v)))
def test_integer_freudenthal_matches_fraction_oracle(label, weight):
    rs = build_root_system(label)
    assert ch.dominant_weight_multiplicities(rs, weight) == freudenthal_fraction_oracle(rs, weight)


def test_cached_weight_system_keeps_its_budget(monkeypatch):
    rs = build_root_system("F4")
    lam = w(4, (3, 1))
    dim = ch.weyl_dimension(rs, lam)
    assert sum(ch.weight_multiplicities(rs, lam).values()) == dim  # now cached
    monkeypatch.setenv("LIEPAR_BUDGET", str(dim - 1))
    with pytest.raises(BudgetError, match=f"^weight system of dimension {dim} exceeds budget {dim - 1}; "
                                          "set LIEPAR_BUDGET to raise it$"):
        ch.weight_multiplicities(rs, lam)
    with pytest.raises(BudgetError):
        ch.tensor_decompose(rs, lam, lam)
    monkeypatch.setenv("LIEPAR_BUDGET", str(dim))
    assert sum(ch.weight_multiplicities(rs, lam).values()) == dim


def test_cached_weight_system_is_read_only():
    rs = build_root_system("G2")
    table = ch.weight_multiplicities(rs, (1, 0))
    assert ch.weight_multiplicities(rs, (1, 0)) is table
    with pytest.raises(TypeError):
        table[(0, 0)] = 5
    assert table[(0, 0)] == 1


def test_tensor_sl2_clebsch_gordan():
    a1 = build_root_system("A1")
    res = ch.tensor_decompose(a1, (1,), (1,))
    assert res.dominant_mults == {(2,): 1, (0,): 1}
    res = ch.tensor_decompose(a1, (3,), (2,))
    assert res.dominant_mults == {(5,): 1, (3,): 1, (1,): 1}


@pytest.mark.parametrize("label,lam,mu", [
    ("A2", (1, 0), (1, 1)),
    ("B2", (1, 0), (0, 1)),
    ("G2", (1, 0), (1, 0)),
    ("C3", (1, 0, 0), (0, 1, 0)),
    ("F4", (0, 0, 0, 1), (0, 0, 0, 1)),
])
def test_klimyk_sum_rule_and_commutativity(label, lam, mu):
    rs = build_root_system(label)
    res = ch.tensor_decompose(rs, lam, mu)
    total = sum(m * ch.weyl_dimension(rs, v) for v, m in res.dominant_mults.items())
    assert total == ch.weyl_dimension(rs, lam) * ch.weyl_dimension(rs, mu)
    assert ch.tensor_decompose(rs, mu, lam).dominant_mults == res.dominant_mults


def test_e7_tensor_squares():
    e7 = build_root_system("E7")
    res = ch.tensor_decompose(e7, w(7, (1, 1)), w(7, (1, 1)))
    assert res.dominant_mults == {
        w(7, (1, 2)): 1, w(7, (1, 1)): 1, w(7, (3, 1)): 1, w(7, (6, 1)): 1, w(7): 1,
    }


def test_e8_adjoint_square():
    e8 = build_root_system("E8")
    res = ch.tensor_decompose(e8, w(8, (8, 1)), w(8, (8, 1)))
    assert res.dominant_mults == {
        w(8, (8, 2)): 1, w(8, (7, 1)): 1, w(8, (1, 1)): 1, w(8, (8, 1)): 1, w(8): 1,
    }


def test_exterior_zero_and_overflow():
    g2 = build_root_system("G2")
    assert ch.exterior_power_decompose(g2, (1, 0), 0).dominant_mults == {(0, 0): 1}
    assert ch.exterior_power_decompose(g2, (1, 0), 8).dominant_mults == {}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exterior_c_family(n):
    rs = build_root_system(f"C{n}")
    for i in range(1, n + 1):
        res = ch.exterior_power_decompose(rs, w(n, (1, 1)), i)
        expected = {}
        k = i
        while k >= 0:
            expected[w(n, (k, 1)) if k >= 1 else w(n)] = 1
            k -= 2
        assert res.dominant_mults == expected
        assert res.dimension() == comb(2 * n, i)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exterior_b_family(n):
    rs = build_root_system(f"B{n}")
    for i in range(1, n):
        res = ch.exterior_power_decompose(rs, w(n, (1, 1)), i)
        assert res.dominant_mults == {w(n, (i, 1)): 1}
        assert res.dimension() == comb(2 * n + 1, i)


def test_exterior_dimension_rule_generic():
    f4 = build_root_system("F4")
    res = ch.exterior_power_decompose(f4, w(4, (4, 1)), 3)
    assert res.dimension() == comb(26, 3)


def test_dominance_and_orbit_dimension():
    a1 = build_root_system("A1")
    assert ch.orbit_dimension(a1, (1,)) == 1
    assert ch.orbit_dimension(a1, (0,)) == 0
    a2 = build_root_system("A2")
    for lam in [(0, 0), (1, 1), (3, 0)]:
        assert ch.dominance_leq(a2, (0, 0), lam)
    assert ch.dominance_leq(a2, (0, 0), (1, 1))
    assert not ch.dominance_leq(a2, (1, 1), (0, 0))
    assert not ch.dominance_leq(a2, (1, 0), (0, 1))  # differ by a non-integral combination
    # short-root orbit: <theta_s, 2 rho-check> = 2h-check - 2
    for label in ("A3", "G2", "F4", "E6"):
        rs = build_root_system(label)
        assert ch.orbit_dimension(rs, rs.highest_short_root()) == rs.minimal_orbit_dimension()


@pytest.mark.parametrize("label,bound", [("A2", 3), ("B3", 1), ("C3", 1), ("G2", 3), ("D4", 1)])
def test_dominance_matches_rational_root_coordinates(label, bound):
    # the integer kernel's generator against mu - lambda solved over Q
    rs = build_root_system(label)
    weights = list(itertools.product(range(bound + 1), repeat=rs.rank))
    for lam, mu in itertools.product(weights, repeat=2):
        coords = weight_root_coords(rs, tuple(m - l for l, m in zip(lam, mu)))
        expected = all(c.denominator == 1 and c >= 0 for c in coords)
        assert ch.dominance_leq(rs, lam, mu) is expected, (lam, mu)


def test_weight_budget():
    e8 = build_root_system("E8")
    with pytest.raises(BudgetError):
        ch.weight_multiplicities(e8, w(8, (5, 1)))  # dim > 10^8


def test_generation_certificates_small():
    g2 = build_root_system("G2")
    cert = ch.generation_certificate(g2)
    assert cert.verify(g2)
    entry = {e.fundamental_index: e for e in cert.entries}
    assert entry[2].word == ((1, 0), (1, 0))
    assert entry[2].multiplicity == 1

    e6 = build_root_system("E6")
    cert = ch.generation_certificate(e6)
    assert cert.verify(e6)
    # w3 reachable from a minuscule square, w4 from the adjoint square
    entry = {e.fundamental_index: e for e in cert.entries}
    assert len(entry) == 6
    assert all(e.multiplicity > 0 for e in cert.entries)


def test_certificate_with_a_tampered_multiplicity_fails_verification():
    g2 = build_root_system("G2")
    cert = ch.generation_certificate(g2)
    first, *rest = cert.entries
    tampered = ch.CertificateEntry(first.fundamental_index, first.word, first.multiplicity + 1)
    assert not ch.GenerationCertificate(cert.generators, (tampered, *rest)).verify(g2)


def _g2_certificate_variants():
    g2 = build_root_system("G2")
    cert = ch.generation_certificate(g2)
    (w1_entry, w2_entry), gens = cert.entries, cert.generators
    return {
        "no entries": ch.GenerationCertificate(gens, ()),
        "missing w2": ch.GenerationCertificate(gens, (w1_entry,)),
        "out of order": ch.GenerationCertificate(gens, (w2_entry, w1_entry)),
        "w1 twice": ch.GenerationCertificate(gens, (w1_entry, w1_entry, w2_entry)),
        "empty word": ch.GenerationCertificate(gens, (w1_entry, ch.CertificateEntry(2, (), 0))),
        # V(w2) (x) V(w2) contains V(w2) once, so only the check on letters refuses it
        "word off the generators": ch.GenerationCertificate(
            gens, (w1_entry, ch.CertificateEntry(2, ((0, 1), (0, 1)), 1))),
        "other generators": ch.GenerationCertificate(
            ((0, 1),), (w1_entry, ch.CertificateEntry(2, ((0, 1),), 1))),
    }


@pytest.mark.parametrize("variant", list(_g2_certificate_variants()))
def test_incomplete_or_foreign_certificate_fails_verification(variant):
    assert not _g2_certificate_variants()[variant].verify(build_root_system("G2"))


def test_word_multiplicity_matches_exterior_inclusion():
    # Lambda^2 V(w1) of E6 is V(w3), and the square contains it once
    e6 = build_root_system("E6")
    assert ch.word_multiplicity(e6, [w(6, (1, 1)), w(6, (1, 1))], w(6, (3, 1))) == 1


def test_reducible_systems():
    rs = build_root_system("A1xA1")
    assert ch.weyl_dimension(rs, (1, 1)) == 4
    full = ch.weight_multiplicities(rs, (1, 1))
    assert sum(full.values()) == 4
    assert full == {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1}
    t = ch.tensor_decompose(rs, (1, 0), (0, 1))
    assert t.dominant_mults == {(1, 1): 1}
    t = ch.tensor_decompose(rs, (1, 0), (1, 0))
    assert t.dominant_mults == {(2, 0): 1, (0, 0): 1}
    e = ch.exterior_power_decompose(rs, (1, 1), 2)
    assert e.dimension() == 6
    with pytest.raises(ReducibleError, match="^operation requires an irreducible system, got A1xA1$"):
        ch.generator_weights(rs)


def test_zero_weight_bookkeeping_in_g2_tensor_square():
    # pairs (v, -v) of the 7 weights contribute 7 zero-weight vectors, which
    # must split as m_0(2w1) + m_0(w2) + m_0(w1) + m_0(0)
    g2 = build_root_system("G2")
    t = ch.tensor_decompose(g2, (1, 0), (1, 0))
    assert t.dominant_mults == {(2, 0): 1, (0, 1): 1, (1, 0): 1, (0, 0): 1}
    zero_total = 0
    for wt, m in t.dominant_mults.items():
        zero_total += m * ch.weight_multiplicities(g2, wt).get((0, 0), 0)
    assert zero_total == 7
    assert ch.weight_multiplicities(g2, (2, 0))[(0, 0)] == 3
    assert ch.weight_multiplicities(g2, (0, 1))[(0, 0)] == 2


def test_klimyk_sum_rule_fuzz():
    import random

    rng = random.Random(5)
    for label in ("A2", "B2", "G2", "A3"):
        rs = build_root_system(label)
        for _ in range(8):
            lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            mu = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            res = ch.tensor_decompose(rs, lam, mu)
            total = sum(m * ch.weyl_dimension(rs, v) for v, m in res.dominant_mults.items())
            assert total == ch.weyl_dimension(rs, lam) * ch.weyl_dimension(rs, mu)
            assert all(m > 0 for m in res.dominant_mults.values())
            assert ch.tensor_decompose(rs, mu, lam).dominant_mults == res.dominant_mults


def test_stripping_rejects_corrupted_multiset():
    a2 = build_root_system("A2")
    good = ch.weight_multiplicities(a2, (1, 1))
    corrupted = dict(good)
    corrupted[(0, 0)] -= 1  # no longer a nonnegative sum of irreducibles
    with pytest.raises(AssertionError):
        ch.decompose_weight_multiset(a2, corrupted)
    not_invariant = {(1, 0): 1, (0, 1): 1}
    with pytest.raises(AssertionError):
        ch.decompose_weight_multiset(a2, not_invariant)


def stripping_oracle(rs, multiset):
    """Iterated highest-weight stripping: subtract the full weight system of
    the highest remaining dominant weight until nothing is left."""
    rem = {v: m for v, m in multiset.items() if m}
    out = {}
    while rem:
        mu = max((v for v in rem if min(v) >= 0), key=lambda v: (sum(weight_root_coords(rs, v)), v))
        m = rem[mu]
        assert m > 0
        for v, c in ch.weight_multiplicities(rs, mu).items():
            rem[v] = rem.get(v, 0) - m * c
            if not rem[v]:
                del rem[v]
        out[mu] = m
    return out


RANK_AT_MOST_3 = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3",
                  "A1xA1", "A1xA2", "A1xB2", "A1xG2", "A1xA1xA1"]


@pytest.mark.parametrize("label", RANK_AT_MOST_3)
def test_brauer_decomposition_of_tensor_products(label):
    rs = build_root_system(label)
    rng = random.Random(f"brauer {label}")
    top = 2 if rs.rank <= 2 else 1
    for _ in range(3):
        lam, mu = (tuple(rng.randint(0, top) for _ in range(rs.rank)) for _ in range(2))
        product = {}
        for u, a in ch.weight_multiplicities(rs, lam).items():
            for v, b in ch.weight_multiplicities(rs, mu).items():
                key = tuple(x + y for x, y in zip(u, v))
                product[key] = product.get(key, 0) + a * b
        brauer = ch.decompose_weight_multiset(rs, product)
        assert brauer == stripping_oracle(rs, product)
        assert brauer == ch.tensor_decompose(rs, lam, mu).dominant_mults


def layered_exterior_multiset(rs, weight, k):
    """The weight multiset of Lambda^k V(lambda): the t^k coefficient of
    prod_nu (1 + t e^nu)^m(nu), built one weight at a time in layers up to
    min(k, dim - k); the weights of V sum to 0, so Lambda^k is Lambda^(dim-k)
    negated."""
    weights = ch.weight_multiplicities(rs, weight)
    depth = min(k, sum(weights.values()) - k)
    layers = [{(0,) * rs.rank: 1}] + [{} for _ in range(depth)]
    for nu, m in weights.items():
        for j in range(depth, 0, -1):  # downwards, so layers[j - i] is still the old one
            for i in range(1, min(m, j) + 1):
                c, step = comb(m, i), tuple(i * b for b in nu)
                for u, n in layers[j - i].items():
                    key = tuple(map(add, u, step))
                    layers[j][key] = layers[j].get(key, 0) + c * n
    if depth < k:
        return {tuple(-a for a in u): n for u, n in layers[depth].items()}
    return layers[depth]


@pytest.mark.parametrize("label,weight", [
    ("G2", (1, 0)), ("B3", (1, 0, 0)), ("A3", (0, 1, 0)), ("F4", (0, 0, 0, 1)), ("A2", (1, 0)),
])
def test_layered_exterior_multiset_against_subsets(label, weight):
    rs = build_root_system(label)
    expanded = [v for v, m in ch.weight_multiplicities(rs, weight).items()
                for _ in range(m)]
    dim = len(expanded)
    # k <= 3 builds layers directly; dim - k reads them negated
    for k in sorted({1, 2, 3, dim - 3, dim - 2, dim - 1} & set(range(1, dim))):
        subsets = Counter(tuple(map(sum, zip(*chosen))) for chosen in itertools.combinations(expanded, k))
        assert layered_exterior_multiset(rs, weight, k) == subsets


def _golden_exteriors(rows):
    for row in rows:
        if row["op"] == "exterior_family":
            yield from _golden_exteriors(row["members"])
        elif row["op"] == "exterior":
            yield row["type"], tuple(row["weight"]), row["power"]


def _catalog_exteriors():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("liepar_perfbench_jobs", path)
    jobs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    for job in jobs.catalog():
        if "--exterior" in job.argv:
            label = job.argv[job.argv.index("--type") + 1]
            weight, _, power = job.argv[job.argv.index("--exterior") + 1].partition("^")
            yield label, _parse_weight(weight, build_root_system(label).rank), int(power)


# k > dim/2 on representations that are not self-dual, read through the dual
NOT_SELF_DUAL = [("A2", (1, 0), 2), ("A2", (2, 0), 4), ("A3", (1, 0, 0), 3), ("A4", (0, 1, 0, 0), 7),
                 ("E6", (1, 0, 0, 0, 0, 0), 25), ("E6", (1, 0, 0, 0, 0, 0), 26)]
EXTERIOR_CASES = sorted(set(_golden_exteriors(load_table("decompositions")["rows"]))
                        | set(_catalog_exteriors()) | set(NOT_SELF_DUAL))


def test_exterior_cases_cover_golden_and_catalog():
    assert len(EXTERIOR_CASES) >= 50
    assert ("E8", (0,) * 7 + (1,), 2) in EXTERIOR_CASES and ("A3", (1, 0, 0), 2) in EXTERIOR_CASES


@pytest.mark.parametrize("label,weight,power", EXTERIOR_CASES,
                         ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_exterior_power_against_layered_oracle(label, weight, power):
    # the oracle strips the layered multiset weight system by weight system;
    # it shares only weight_multiplicities with Newton's identity
    rs = build_root_system(label)
    expected = stripping_oracle(rs, layered_exterior_multiset(rs, weight, power))
    assert ch.exterior_power_decompose(rs, weight, power).dominant_mults == expected


def test_exterior_power_past_half_is_the_dual():
    a2, e6 = build_root_system("A2"), build_root_system("E6")
    assert ch.exterior_power_decompose(a2, (1, 0), 2).dominant_mults == {(0, 1): 1}
    assert ch.exterior_power_decompose(e6, w(6, (1, 1)), 26).dominant_mults == {w(6, (6, 1)): 1}

def test_exterior_power_builds_one_weight_system():
    e8 = build_root_system("E8")
    ch._weight_system.cache_clear()
    res = ch.exterior_power_decompose(e8, w(8, (8, 1)), 2)
    assert res.dominant_mults == {w(8, (7, 1)): 1, w(8, (8, 1)): 1}
    assert ch._weight_system.cache_info().currsize == 1


def test_exterior_power_budget_bounds_the_power(monkeypatch):
    a1 = build_root_system("A1")
    # V(20 w1) has dimension 21 and Lambda^3 of it has dimension 1330
    monkeypatch.setenv("LIEPAR_BUDGET", "100")
    with pytest.raises(BudgetError,
                       match=r"exterior power of dimension binomial\(21, 3\) exceeds budget 100"):
        ch.exterior_power_decompose(a1, (20,), 3)
    # V itself over budget is refused as a weight system, before the binomial
    monkeypatch.setenv("LIEPAR_BUDGET", "20")
    with pytest.raises(BudgetError, match="weight system of dimension 21 exceeds budget 20"):
        ch.exterior_power_decompose(a1, (20,), 3)
    monkeypatch.setenv("LIEPAR_BUDGET", "1330")
    assert ch.exterior_power_decompose(a1, (20,), 3).dimension() == 1330
    monkeypatch.setenv("LIEPAR_BUDGET", "1329")
    with pytest.raises(BudgetError):
        ch.exterior_power_decompose(a1, (20,), 3)
    # Lambda^20 is Lambda^1 negated: one layer, not twenty
    monkeypatch.setenv("LIEPAR_BUDGET", "21")
    assert ch.exterior_power_decompose(a1, (20,), 20).dominant_mults == {(20,): 1}
    assert ch.exterior_power_decompose(a1, (20,), 21).dominant_mults == {(0,): 1}


def test_thread_safety_of_pure_operations():
    # all operations are pure functions over immutable systems; concurrent
    # calls, racing to fill the emptied per-process caches, must reproduce
    # the serial results exactly
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rs = build_root_system("F4")
    jobs = [((0, 0, 0, 1), (0, 0, 0, 1)), ((1, 0, 0, 0), (0, 0, 0, 1)),
            ((0, 0, 0, 1), (1, 0, 0, 0)), ((0, 1, 0, 0), (0, 0, 0, 1))] * 4
    serial = [ch.tensor_decompose(rs, a, b).dominant_mults for a, b in jobs]
    ch._weight_system.cache_clear()
    ch._weyl_dimension.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda ab: ch.tensor_decompose(rs, *ab).dominant_mults, jobs,
                                     timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


@pytest.mark.parametrize("constant, value, bound", [
    ("CERTIFICATE_WORD_LENGTH", 2, "CERTIFICATE_WORD_LENGTH = 2 letters"),
    ("CERTIFICATE_EXPANSIONS", 3, "CERTIFICATE_EXPANSIONS = 3 tensor products"),
])
def test_generation_search_refusal_names_the_bound_that_stopped_it(monkeypatch, constant, value, bound):
    monkeypatch.setattr(ch, constant, value)
    with pytest.raises(BudgetError) as exc:
        ch.generation_certificate(build_root_system("E8"))
    assert str(exc.value).startswith(f"generation search reached {bound}, a fixed bound in liepar.config; "
                                     "uncertified fundamental weights: ")


def test_generation_certificate_budget_reporting(monkeypatch):
    e8 = build_root_system("E8")
    monkeypatch.setattr(ch, "CERTIFICATE_WORD_LENGTH", 2)
    with pytest.raises(BudgetError) as exc:
        ch.generation_certificate(e8)
    message = str(exc.value)
    # words of length <= 2 over the adjoint reach only w1, w7, w8
    for missing in ("w2", "w3", "w4", "w5", "w6"):
        assert missing in message
