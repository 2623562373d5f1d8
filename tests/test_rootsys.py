import math
from fractions import Fraction

import pytest

from liepar._linalg import elementary_divisors
from liepar.errors import BudgetError, InvalidTypeError, LieparError, ReducibleError
from liepar.rootsys import _cartan_block, _coxeter_number, build_root_system, parse_type_label
from lattice_oracle import root_weight_coords

ALL_TYPES = (
    ["A%d" % n for n in range(1, 9)]
    + ["B%d" % n for n in range(2, 9)]
    + ["C%d" % n for n in range(2, 9)]
    + ["D%d" % n for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
CLASSICAL_TO_RANK_30 = [f"{family}{n}" for family in "ABCD" for n in range(9, 31)]


def brute_force_root_count(rs):
    """Independent enumeration: orbit of simple roots under simple reflections."""
    simple = [tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        root = frontier.pop()
        for j in range(rs.rank):
            pairing = sum(root[i] * rs.cartan[i][j] for i in range(rs.rank))
            new = list(root)
            new[j] -= pairing
            t = tuple(new)
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return len(seen)


def test_small_examples():
    assert len(build_root_system("A2").roots) == 6
    a1 = build_root_system("A1")
    assert a1.cartan == ((2,),)
    assert set(a1.roots) == {(1,), (-1,)}
    assert len(build_root_system("E8").roots) == 240


@pytest.mark.parametrize("label", ALL_TYPES)
def test_enumeration_matches_reflection_orbit(label):
    rs = build_root_system(label)
    assert len(rs.roots) == brute_force_root_count(rs)
    assert len(rs.roots) == 2 * len(rs.positive_roots)


@pytest.mark.parametrize("label", ALL_TYPES + CLASSICAL_TO_RANK_30)
def test_positive_root_count_from_coxeter_number(label):
    rs = build_root_system(label)
    assert 2 * len(rs.positive_roots) == rs.coxeter_number() * rs.rank
    (family, n), = rs.factors
    classical = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}
    if family in classical:
        assert len(rs.positive_roots) == classical[family]


# (|W|, Coxeter number) for every irreducible type of rank <= 8, recorded
# from the closed formulas and the E/F/G tables that the product over the
# positive roots replaced
WEYL_ORDER_AND_COXETER = {
    "A1": (2, 2), "A2": (6, 3), "A3": (24, 4), "A4": (120, 5), "A5": (720, 6),
    "A6": (5040, 7), "A7": (40320, 8), "A8": (362880, 9),
    "B2": (8, 4), "B3": (48, 6), "B4": (384, 8), "B5": (3840, 10), "B6": (46080, 12),
    "B7": (645120, 14), "B8": (10321920, 16),
    "C2": (8, 4), "C3": (48, 6), "C4": (384, 8), "C5": (3840, 10), "C6": (46080, 12),
    "C7": (645120, 14), "C8": (10321920, 16),
    "D3": (24, 4), "D4": (192, 6), "D5": (1920, 8), "D6": (23040, 10), "D7": (322560, 12),
    "D8": (5160960, 14),
    "E6": (51840, 12), "E7": (2903040, 18), "E8": (696729600, 30), "F4": (1152, 12),
    "G2": (12, 6),
}


@pytest.mark.parametrize("label,expected", WEYL_ORDER_AND_COXETER.items())
def test_weyl_order_and_coxeter_number(label, expected):
    rs = build_root_system(label)
    assert (rs.weyl_order(), rs.coxeter_number()) == expected


@pytest.mark.parametrize("label,order", [("A1xA1", 4), ("B2xG2", 96), ("A2xD4", 1152),
                                         ("A1xE7", 5806080)])
def test_weyl_order_of_products(label, order):
    assert build_root_system(label).weyl_order() == order


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_reflections_permute_roots(label):
    rs = build_root_system(label)
    roots = set(rs.roots)
    for alpha in rs.positive_roots:
        co = rs.coroot(alpha)
        image = set()
        for beta in rs.roots:
            w = root_weight_coords(rs, beta)
            pairing = sum(w[k] * co[k] for k in range(rs.rank))
            image.add(tuple(beta[k] - pairing * alpha[k] for k in range(rs.rank)))
        assert image == roots


@pytest.mark.parametrize("label", ALL_TYPES + ["A60"])
def test_root_tables_match_two_alpha_over_norm(label):
    # the tables built once per system against the per-call path they
    # replaced: alpha-check_i = c_i (alpha_i, alpha_i)/(alpha, alpha) for
    # alpha = sum c_i alpha_i, norms from c @ cartan and form6
    rs = build_root_system(label)
    simple = [tuple(int(j == i) for j in range(rs.rank)) for i in range(rs.rank)]
    simple6 = [rs.form6(a, root_weight_coords(rs, a)) for a in simple]
    assert rs.positive_coroots == tuple(map(rs.coroot, rs.positive_roots))
    # A60 has 3660 roots: its negative ones are left to the rank <= 8 types
    for alpha in rs.positive_roots if rs.rank > 8 else rs.roots:
        norm6 = rs.form6(alpha, root_weight_coords(rs, alpha))
        assert rs.root_norm6(alpha) == norm6
        assert rs.coroot(alpha) == tuple(Fraction(c * n, norm6) for c, n in zip(alpha, simple6))


@pytest.mark.parametrize("vector", [(0, 0), (2, 0), (1, 2), (1, 1, 0), [1, 2]])
def test_coroot_and_norm_of_a_non_root_raise(vector):
    rs = build_root_system("A2")
    with pytest.raises(LieparError, match="is not a root of A2"):
        rs.coroot(vector)
    with pytest.raises(LieparError, match="is not a root of A2"):
        rs.root_norm6(vector)


def test_invalid_labels():
    for bad in ("E9", "F5", "G3", "H4", "A0", "D2", "B1", "C1", "E5", "F3", "G1", ""):
        with pytest.raises(InvalidTypeError):
            build_root_system(bad)
    for bad in ("A1x", "xA1", "A1xA1*"):  # a separator at either end
        with pytest.raises(InvalidTypeError, match="cannot parse type label"):
            build_root_system(bad)


def test_products():
    rs = build_root_system("A1xA1")
    assert len(rs.roots) == 4
    assert rs.factors == (("A", 1), ("A", 1))
    assert not rs.is_irreducible()
    with pytest.raises(ReducibleError):
        rs.highest_root()
    assert [f.type_name() for f in rs.irreducible_factors()] == ["A1", "A1"]


def test_highest_roots():
    # simply-laced: highest root equals highest short root
    for label in ("A3", "D4", "E6", "E7", "E8"):
        rs = build_root_system(label)
        assert rs.highest_root() == rs.highest_short_root()
    expected_short = {
        "B4": (1, 0, 0, 0),
        "C4": (0, 1, 0, 0),
        "G2": (1, 0),
        "F4": (0, 0, 0, 1),
        "E6": (0, 1, 0, 0, 0, 0),
        "E7": (1, 0, 0, 0, 0, 0, 0),
        "E8": (0, 0, 0, 0, 0, 0, 0, 1),
    }
    for label, want in expected_short.items():
        assert build_root_system(label).highest_short_root() == want


def test_coroot_coefficients_by_expansion_oracle():
    # directly expand the highest root's coroot in simple coroots
    for label in ("A4", "G2", "E8", "F4", "B3", "C3"):
        rs = build_root_system(label)
        theta = max(rs.positive_roots, key=lambda r: (sum(r), r))
        norm6 = rs.root_norm6(theta)
        simple = [tuple(int(j == i) for j in range(rs.rank)) for i in range(rs.rank)]
        expected = tuple(
            Fraction(theta[i] * rs.root_norm6(simple[i]), norm6) for i in range(rs.rank)
        )
        coeffs, nmax = rs.coroot_coefficients()
        assert coeffs == expected
        assert nmax == max(expected)
    assert build_root_system("A5").coroot_coefficients() == ((1, 1, 1, 1, 1), 1)
    assert build_root_system("E8").coroot_coefficients()[1] == 6
    assert build_root_system("G2").coroot_coefficients() == ((1, 2), 2)


def test_dual_coxeter_and_minimal_orbit():
    assert build_root_system("A1").dual_coxeter_number() == 2
    assert build_root_system("A1").minimal_orbit_dimension() == 2
    for n in range(1, 9):
        rs = build_root_system(f"A{n}")
        assert rs.dual_coxeter_number() == n + 1
        assert rs.minimal_orbit_dimension() == 2 * n
    g2 = build_root_system("G2")
    assert g2.dual_coxeter_number() == 4
    assert g2.minimal_orbit_dimension() == 6


@pytest.mark.parametrize("label,expected", [
    ("B4", (4,)),
    ("D5", (1, 4, 5)),
    ("E8", ()),
    ("E7", (7,)),
    ("E6", (1, 6)),
    ("C5", (1,)),
    ("A4", (1, 2, 3, 4)),
    ("F4", ()),
    ("G2", ()),
])
def test_minuscule_weights(label, expected):
    assert build_root_system(label).minuscule_weights() == expected


@pytest.mark.parametrize("label", ALL_TYPES)
def test_minuscule_pairing_bound_exhaustive(label):
    rs = build_root_system(label)
    for i in rs.minuscule_weights():
        for root in rs.positive_roots:
            assert rs.coroot(root)[i - 1] <= 1


@pytest.mark.parametrize("label", ALL_TYPES)
def test_fundamental_group_order_is_cartan_determinant(label):
    rs = build_root_system(label)
    dets = elementary_divisors([list(r) for r in rs.cartan])
    order = 1
    for d in dets:
        order *= d
    assert math.prod(rs.fundamental_group()) == order


def test_fundamental_groups():
    for n in range(1, 9):
        assert build_root_system(f"A{n}").fundamental_group() == (n + 1,)
    assert build_root_system("E8").fundamental_group() == ()
    assert build_root_system("D4").fundamental_group() == (2, 2)
    assert build_root_system("D5").fundamental_group() == (4,)


@pytest.mark.parametrize("label", ALL_TYPES + CLASSICAL_TO_RANK_30 + ["A60", "A1xG2", "B3xC2"])
def test_closed_form_root_count(label):
    rs = build_root_system(label)
    assert sum(rank * _coxeter_number(family, rank) for family, rank in rs.factors) == len(rs.roots)


# Bourbaki, Lie Groups and Lie Algebras, Plates I-IX: a[i][j] = <alpha_i, alpha_j-check>,
# and 6 d_i = 3 (d_i = 1/2) or 2 (1/3) on a short simple root
BOURBAKI = {
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [6, 6, 6]),
    "B3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], [6, 6, 3]),
    "C3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [3, 3, 6]),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], [6, 6, 6, 6]),
    "E6": ([[2, 0, -1, 0, 0, 0],
            [0, 2, 0, -1, 0, 0],
            [-1, 0, 2, -1, 0, 0],
            [0, -1, -1, 2, -1, 0],
            [0, 0, 0, -1, 2, -1],
            [0, 0, 0, 0, -1, 2]], [6] * 6),
    "F4": ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]], [6, 6, 3, 3]),
    "G2": ([[2, -1], [-3, 2]], [2, 6]),
}


@pytest.mark.parametrize("label", sorted(BOURBAKI))
def test_cartan_block_is_bourbakis(label):
    assert _cartan_block(label[0], int(label[1:])) == BOURBAKI[label]


@pytest.mark.parametrize("label", ALL_TYPES)
def test_root_lengths_symmetrize_the_cartan_matrix(label):
    # a_ij d_j = (alpha_i, alpha_j) = a_ji d_i: the lengths agree with the multiple bonds
    a, d6 = _cartan_block(label[0], int(label[1:]))
    assert all(a[i][j] * d6[j] == a[j][i] * d6[i] for i in range(len(a)) for j in range(len(a)))


def test_root_table_budget_is_checked_before_building(monkeypatch):
    monkeypatch.delenv("LIEPAR_BUDGET", raising=False)
    with pytest.raises(BudgetError, match=r"^root table of A100 \(10100 roots x rank 100\) exceeds budget "
                                          r"1000000; set LIEPAR_BUDGET to raise it$"):
        build_root_system("A100")
    with pytest.raises(BudgetError, match=r"^root table of A70xA70 \(9940 roots x rank 140\)"):
        parse_type_label("A70xA70")
    assert parse_type_label("A99") == (("A", 99),)  # 9900 roots x rank 99
    # the override raises the budget, and one set low refuses no smaller system
    monkeypatch.setenv("LIEPAR_BUDGET", "1010000")
    assert parse_type_label("A100") == (("A", 100),)
    monkeypatch.setenv("LIEPAR_BUDGET", "10")
    assert parse_type_label("E8") == (("E", 8),)
    with pytest.raises(BudgetError, match="exceeds budget 10;"):
        parse_type_label("A100")


def test_label_parsing_accepts_lowercase_and_lists():
    assert build_root_system("e8").type_name() == "E8"
    assert build_root_system([("b", 3), ("A", 1)]).type_name() == "B3xA1"
    assert build_root_system("A2 x G2").factors == (("A", 2), ("G", 2))


def test_each_type_is_built_once():
    e8 = build_root_system("E8")
    assert build_root_system("E8") is e8
    assert build_root_system("e8") is e8
    assert build_root_system([("E", 8)]) is e8
    a1, g2 = build_root_system("A1xG2").irreducible_factors()
    assert a1 is build_root_system("A1") and g2 is build_root_system("G2")
    assert all(f is a1 for f in build_root_system("A1xA1").irreducible_factors())


@pytest.mark.parametrize("label", ALL_TYPES + ["A1xG2", "B3xC2"])
def test_integer_form_is_symmetric_with_long_roots_of_norm_2(label):
    rs = build_root_system(label)
    simple = [tuple(int(j == i) for j in range(rs.rank)) for i in range(rs.rank)]
    gram = [[rs.form6(a, root_weight_coords(rs, b)) for b in simple] for a in simple]
    assert gram == [list(row) for row in zip(*gram)]
    # (alpha_i, alpha_j) = a_ij (alpha_j, alpha_j) / 2
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert 2 * gram[i][j] == rs.cartan[i][j] * gram[j][j]
    norms6 = [rs.root_norm6(a) for a in simple]
    assert norms6 == [gram[i][i] for i in range(rs.rank)]
    for _, rank in rs.factors:
        assert max(norms6[:rank]) == 12
        norms6 = norms6[rank:]

