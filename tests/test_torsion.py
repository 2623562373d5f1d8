from itertools import combinations
from math import comb

import pytest

from liepar import _linalg, torsion
from liepar.config import ORACLE_BUDGET
from liepar.errors import BudgetError, LieparError, ReducibleError
from liepar.rootsys import build_root_system
from liepar.torsion import (
    long_simple_fundamental_group,
    minimal_orbit_parity_primes,
    tilting_generation_bound,
    torsion_primes_fast,
    torsion_primes_subsystem_oracle,
)

FAST_TABLE = {
    "A1": (), "A5": (), "A8": (),
    "B2": (), "B3": (2,), "B8": (2,),
    "C2": (), "C5": (), "C8": (),
    "D4": (2,), "D8": (2,),
    "G2": (2,),
    "F4": (2, 3), "E6": (2, 3), "E7": (2, 3),
    "E8": (2, 3, 5),
}


@pytest.mark.parametrize("label,expected", sorted(FAST_TABLE.items()))
def test_fast_table(label, expected):
    assert torsion_primes_fast(build_root_system(label)) == expected


def test_fast_reducible_union():
    assert torsion_primes_fast(build_root_system("A2xG2")) == (2,)
    assert torsion_primes_fast(build_root_system("G2xF4")) == (2, 3)


RANK_LE_3 = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]


@pytest.mark.parametrize("label", RANK_LE_3)
def test_oracle_agrees_with_fast_small(label):
    rs = build_root_system(label)
    primes, certs = torsion_primes_subsystem_oracle(rs)
    assert primes == torsion_primes_fast(rs)
    for cert in certs:
        assert cert.verify(rs)


def sweep_oracle(rs):
    """The oracle as a sweep over every combination of generators, by size
    and then lexicographically, deduplicated by lattice and by subsystem:
    the reference for the walk, which meets each lattice once."""
    exhaustive = rs.rank <= torsion.SUBSYSTEM_RANK_GUARD
    generators = torsion._oracle_generators(rs, exhaustive)
    max_size = rs.rank if exhaustive else len(generators)
    pos = rs.positive_roots
    seen_lattices = set()
    seen_subsystems = set()
    primes = set()
    certificates = []
    for size in range(1, max_size + 1):
        for subset in combinations(generators, size):
            hnf = _linalg.row_hermite([list(r) for r in subset])
            key = tuple(tuple(row) for row in hnf)
            if key in seen_lattices:
                continue
            seen_lattices.add(key)
            subsystem = tuple(sorted(r for r in pos if _linalg.in_row_lattice(hnf, r)))
            if subsystem in seen_subsystems:
                continue
            seen_subsystems.add(subsystem)
            for d in torsion._coroot_quotient_divisors(rs, subsystem):
                for p in torsion._primes_dividing([d]):
                    if p not in primes:
                        primes.add(p)
                        certificates.append(torsion.SubsystemCertificate(p, subsystem, d))
    return tuple(sorted(primes)), sorted(certificates, key=lambda c: c.prime)


SWEEP_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4",
               "G2", "F4", "A5", "D5", "A2xG2", "B2xA3", "E6", "E7", "E8",
               # reducible above rank 5: each factor's lowest root is a generator
               "B3xB3", "G2xG2xA2"]


@pytest.mark.parametrize("label", SWEEP_TYPES)
def test_oracle_walk_equals_combination_sweep(label):
    rs = build_root_system(label)
    assert torsion_primes_subsystem_oracle(rs) == sweep_oracle(rs)


@pytest.mark.parametrize("label,sweep", [
    ("B5", sum(comb(25, k) for k in range(1, 6))),  # 25 positive roots, up to 5 at a time
    ("E8", 2**9 - 1),  # the 9 roots of the extended base
])
def test_oracle_budget_counts_the_sweep(monkeypatch, label, sweep):
    rs = build_root_system(label)
    monkeypatch.setenv("LIEPAR_BUDGET", str(sweep - 1))
    with pytest.raises(BudgetError, match=rf"^torsion oracle sweep of {label} \({sweep} combinations\)"):
        torsion_primes_subsystem_oracle(rs)
    monkeypatch.setenv("LIEPAR_BUDGET", str(sweep))
    assert torsion_primes_subsystem_oracle(rs)[0] == torsion_primes_fast(rs)
    assert sweep <= ORACLE_BUDGET  # the default admits both


def _outside_smith_form(monkeypatch, row_hermite):
    """Install `row_hermite` for calls made outside `smith_normal_form`;
    the Smith form's own Hermite passes go to the real kernel."""
    hermite, smith = _linalg.row_hermite, _linalg.smith_normal_form
    depth = [0]

    def wrapped_smith(matrix):
        depth[0] += 1
        try:
            return smith(matrix)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_linalg, "smith_normal_form", wrapped_smith)
    monkeypatch.setattr(_linalg, "row_hermite",
                        lambda matrix: hermite(matrix) if depth[0] else row_hermite(matrix))


def test_oracle_walk_builds_fewer_lattices_than_combinations(monkeypatch):
    """One HNF extension per first-spanning combination and generator
    outside its lattice, far fewer than the combinations of at most `rank`
    positive roots; outside the Smith form of its divisors the walk calls
    neither `row_hermite` nor `in_row_lattice`."""
    calls = []
    insert = _linalg.hermite_insert

    def counting(hnf, pivots, vector):
        calls.append(1)
        return insert(hnf, pivots, vector)

    def forbidden(*args):
        raise AssertionError("the walk keeps its own HNFs")

    monkeypatch.setattr(_linalg, "hermite_insert", counting)
    _outside_smith_form(monkeypatch, forbidden)
    monkeypatch.setattr(_linalg, "in_row_lattice", forbidden)
    for label, extensions, combinations_count in [("B4", 699, 2516), ("B5", 6121, 68405)]:
        rs = build_root_system(label)
        calls.clear()
        primes, _ = torsion_primes_subsystem_oracle(rs)
        assert primes == (2,)
        assert combinations_count == sum(
            comb(len(rs.positive_roots), k) for k in range(1, rs.rank + 1))
        assert len(calls) == extensions


def test_certificate_check_keeps_its_own_hnf(monkeypatch):
    # one fresh Hermite form of the subsystem per certificate, besides
    # those inside the Smith form of its divisors
    rs = build_root_system("B3")
    _, certs = torsion_primes_subsystem_oracle(rs)
    calls = []
    hermite = _linalg.row_hermite

    def counting(matrix):
        calls.append(1)
        return hermite(matrix)

    _outside_smith_form(monkeypatch, counting)
    assert all(cert.verify(rs) for cert in certs)
    assert len(calls) == len(certs) > 0


def test_oracle_b3_certificate_is_triple_a1():
    rs = build_root_system("B3")
    primes, certs = torsion_primes_subsystem_oracle(rs)
    assert primes == (2,)
    cert = certs[0]
    assert cert.prime == 2 and cert.divisor_witness % 2 == 0
    assert cert.verify(rs)


def test_certificates_reverify_after_tampering():
    rs = build_root_system("B3")
    _, certs = torsion_primes_subsystem_oracle(rs)
    cert = certs[0]
    assert not cert._replace(divisor_witness=cert.divisor_witness + 1).verify(rs)
    assert not cert._replace(subsystem=cert.subsystem[:-1]).verify(rs)


MINIMAL_ORBIT = {
    "A5": (), "G2": (3,), "E8": (2, 3, 5),
    "B4": (2,), "C4": (2,), "D5": (2,), "F4": (2,),
    "E6": (2, 3), "E7": (2, 3),
}


@pytest.mark.parametrize("label,expected", sorted(MINIMAL_ORBIT.items()))
def test_minimal_orbit_table(label, expected):
    assert minimal_orbit_parity_primes(build_root_system(label)) == expected


def test_minimal_orbit_rejects_products():
    with pytest.raises(LieparError):
        minimal_orbit_parity_primes(build_root_system("A1xA1"))


def test_type_tables_reject_products():
    product = build_root_system("A1xA1")
    for table in (minimal_orbit_parity_primes, long_simple_fundamental_group, tilting_generation_bound):
        with pytest.raises(ReducibleError, match="^operation requires an irreducible system, got A1xA1$"):
            table(product)


LONG_SIMPLE = {
    # every irreducible type of rank <= 8, recorded from the reflection
    # closure of the long simple roots (the algorithm that the Cartan
    # submatrix shortcut replaced), so the table checks the shortcut
    # independently
    "A4": (5,),     # whole A_4
    "B3": (3,),     # A_2
    "B5": (5,),     # A_4
    "C4": (2,),     # A_1 (the long simple root alone)
    "D4": (2, 2),   # D_4 itself
    "D5": (4,),     # D_5 itself
    "E7": (2,),
    "E8": (),
    "F4": (3,),     # A_2 of long roots
    "G2": (2,),     # A_1 (single long simple root)
    # the rest, appended after the entries above so their test ids stay
    "A1": (2,), "A2": (3,), "A3": (4,), "A5": (6,), "A6": (7,), "A7": (8,), "A8": (9,),
    "B2": (2,), "B4": (4,), "B6": (6,), "B7": (7,), "B8": (8,),  # A_(n-1)
    "C2": (2,), "C3": (2,), "C5": (2,), "C6": (2,), "C7": (2,), "C8": (2,),  # A_1
    "D3": (4,), "D6": (2, 2), "D7": (4,), "D8": (2, 2),  # D_n itself
    "E6": (3,),
}


@pytest.mark.parametrize("label,expected", LONG_SIMPLE.items())
def test_long_simple_fundamental_group(label, expected):
    assert long_simple_fundamental_group(build_root_system(label)) == expected


def test_tilting_bounds():
    assert tilting_generation_bound(build_root_system("A9")) == 1
    assert tilting_generation_bound(build_root_system("E7")) == 19
    assert tilting_generation_bound(build_root_system("C4")) == 4
    assert tilting_generation_bound(build_root_system("B6")) == 5
    assert tilting_generation_bound(build_root_system("D6")) == 4
    assert tilting_generation_bound(build_root_system("E8")) == 31
    assert tilting_generation_bound(build_root_system("G2")) == 3


def test_improved_bounds_flag():
    assert tilting_generation_bound(build_root_system("B6"), improved=True) == 2
    assert tilting_generation_bound(build_root_system("D6"), improved=True) == 2
    # the flag only affects B and D
    assert tilting_generation_bound(build_root_system("C6"), improved=True) == 6
