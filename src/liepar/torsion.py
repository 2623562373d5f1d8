"""Torsion primes by two independent algorithms, plus the prime tables.

The fast criterion reads primes off the coroot coefficients of the highest
root; the oracle enumerates Z-closed subsystems and takes Smith normal
forms of coroot-lattice quotients, producing re-checkable certificates.
The minimal-orbit parity list and the tilting generation bounds, the
threshold t of "p > t" as an int, are served as data tables with
computable cross-checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _linalg
from .config import ORACLE_BUDGET, SUBSYSTEM_RANK_GUARD, check_budget
from .rootsys import RootSystem

PrimeSet = tuple[int, ...]


def _primes_dividing(values) -> PrimeSet:
    primes = set()
    for v in values:
        v = abs(int(v))
        f = 2
        while f * f <= v:
            if v % f == 0:
                primes.add(f)
                while v % f == 0:
                    v //= f
            f += 1
        if v > 1:
            primes.add(v)
    return tuple(sorted(primes))


def torsion_primes_fast(rs: RootSystem) -> PrimeSet:
    """Primes dividing a coroot coefficient of the highest root.

    For a reducible system: the union over irreducible factors.
    """
    primes: set[int] = set()
    for factor in rs.irreducible_factors():
        coeffs, _ = factor.coroot_coefficients()
        primes.update(_primes_dividing(coeffs))
    return tuple(sorted(primes))


class SubsystemCertificate(NamedTuple):
    """A Z-closed subsystem witnessing p-torsion of the coroot-lattice quotient."""

    prime: int
    subsystem: tuple[tuple[int, ...], ...]  # positive roots, simple-root coords
    divisor_witness: int

    def verify(self, rs: RootSystem) -> bool:
        if self.divisor_witness % self.prime != 0:
            return False
        divisors = _coroot_quotient_divisors(rs, self.subsystem)
        return self.divisor_witness in divisors and _is_z_closed(rs, self.subsystem)


def _coroot_quotient_divisors(rs: RootSystem, subsystem) -> tuple[int, ...]:
    """Torsion divisors of Q(coroots of rs) / Q(coroots of the subsystem)."""
    matrix = [list(rs.coroot(r)) for r in subsystem]
    return tuple(_linalg.elementary_divisors(matrix))


def _is_z_closed(rs: RootSystem, subsystem) -> bool:
    hnf = _linalg.row_hermite([list(r) for r in subsystem])
    members = {r for r in rs.positive_roots if _linalg.in_row_lattice(hnf, r)}
    return members == set(subsystem)


def _oracle_generators(rs: RootSystem, exhaustive: bool) -> tuple[tuple[int, ...], ...]:
    if exhaustive:
        # every subsystem has a base of <= rank roots inside the positive roots
        return rs.positive_roots
    # targeted search: the simple roots together with the lowest root of
    # each irreducible factor (extended-base subsystems); sound but
    # exhaustive only through the coroot-coefficient equivalence
    simple = [tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)]
    lowest: list[tuple[int, ...]] = []
    offset = 0
    for factor in rs.irreducible_factors():
        embedded = [0] * rs.rank
        for i, c in enumerate(factor.positive_roots[-1]):  # the highest root
            embedded[offset + i] = -c
        lowest.append(tuple(embedded))
        offset += factor.rank
    return tuple(simple + lowest)


def torsion_primes_subsystem_oracle(
    rs: RootSystem,
) -> tuple[PrimeSet, list[SubsystemCertificate]]:
    """Independent oracle: Smith forms of coroot lattices of Z-closed subsystems.

    Each candidate lattice is spanned by a combination of generators, and
    its subsystem is the set of positive roots it contains.  For rank <= 5
    the generators are the positive roots and combinations have at most
    `rank` members, so the enumeration is exhaustive (every Z-closed
    subsystem has a base of at most `rank` positive roots).  Above that,
    the generators are the simple roots and the lowest root of each factor
    (extended-base subsystems); every certificate is still a genuine
    Z-closed subsystem with a verified divisor, but completeness then rests
    on the coroot-coefficient theorem.  Before the first lattice, the
    sweep's count of combinations, sum over k <= max size of
    C(#generators, k), is held to the oracle budget of `config` (2^(n+1) - 1
    for A_n, so A16 is refused).

    Lattices are met in the order of a sweep over all combinations by size,
    then lexicographically, each lattice where the sweep first spans it; its
    primes and certificates are recorded in that order.  The walk goes size
    by size and extends a combination by a later generator only when that
    combination was the first to span its lattice, skipping generators
    already in the lattice.  Nothing is lost: the prefix of the first
    combination C + (g,) to span a lattice is itself the first to span its
    own lattice, for if an earlier K spanned it, K with g added would span
    the lattice before C + (g,).  Distinct lattices spanned by roots hold
    distinct subsystems, since each is spanned by its subsystem.

    A subsystem is kept as an int bitmask over the sorted positive roots,
    so reading its bits in order gives the sorted subsystem.  A generator
    is a positive root or the negative of one, so whether it lies in a
    lattice is one bit test of that lattice's mask.  Each lattice keeps its
    row HNF and pivot columns; a child lattice inserts its one new generator
    into its parent's HNF (`_linalg.hermite_insert`), starts from the
    parent's mask with the generator's bit set, and tests only the roots
    outside that mask (`_linalg.in_hermite_lattice`).  The certificate
    check keeps its own path (`row_hermite`, `in_row_lattice`); the two
    share only the Smith form of the divisors, which runs on `row_hermite`.
    """
    exhaustive = rs.rank <= SUBSYSTEM_RANK_GUARD
    generators = _oracle_generators(rs, exhaustive)
    max_size = rs.rank if exhaustive else len(generators)
    sweep = sum(math.comb(len(generators), k) for k in range(1, max_size + 1))
    check_budget(ORACLE_BUDGET, sweep, f"torsion oracle sweep of {rs.type_name()} ({sweep} combinations)")
    pos = sorted(rs.positive_roots)
    bit = {r: 1 << i for i, r in enumerate(pos)}
    # a generator is a positive root or the negative of one
    gen_bits = [bit.get(g) or bit[tuple(-x for x in g)] for g in generators]
    seen_lattices: set[tuple] = set()
    primes: set[int] = set()
    certificates: list[SubsystemCertificate] = []
    # (last generator index, HNF, pivot columns, subsystem mask) of each
    # combination of the current size that first spans its lattice; size 0
    # spans the zero lattice
    level: list[tuple[int, list[list[int]], list[int], int]] = [(-1, [], [], 0)]
    for _ in range(max_size):
        extended = []
        for last, parent, pivots, parent_mask in level:
            for j in range(last + 1, len(generators)):
                if parent_mask & gen_bits[j]:
                    continue
                hnf, cols = _linalg.hermite_insert(parent, pivots, generators[j])
                key = tuple(map(tuple, hnf))
                if key in seen_lattices:
                    continue
                seen_lattices.add(key)
                mask = parent_mask | gen_bits[j]
                for i, r in enumerate(pos):
                    if not mask >> i & 1 and _linalg.in_hermite_lattice(hnf, cols, r):
                        mask |= 1 << i
                extended.append((j, hnf, cols, mask))
                subsystem = tuple(r for i, r in enumerate(pos) if mask >> i & 1)
                for d in _coroot_quotient_divisors(rs, subsystem):
                    for p in _primes_dividing([d]):
                        if p not in primes:
                            primes.add(p)
                            certificates.append(SubsystemCertificate(p, subsystem, d))
        level = extended
    return tuple(sorted(primes)), sorted(certificates, key=lambda c: c.prime)


# Bad primes for parity of the minimal nilpotent orbit, per type family.
_MINIMAL_ORBIT_TABLE = {
    "A": (),
    "B": (2,),
    "C": (2,),
    "D": (2,),
    "F": (2,),
    "G": (3,),
    "E6": (2, 3),
    "E7": (2, 3),
    "E8": (2, 3, 5),
}


def minimal_orbit_parity_primes(rs: RootSystem) -> PrimeSet:
    """The bad-prime list for the minimal nilpotent orbit of the type."""
    family, rank = rs.irreducible_type()
    if family == "E":
        return _MINIMAL_ORBIT_TABLE[f"E{rank}"]
    return _MINIMAL_ORBIT_TABLE[family]


def long_simple_fundamental_group(rs: RootSystem) -> tuple[int, ...]:
    """Weight/root lattice quotient of the subsystem generated by long simple
    roots, as its elementary divisors > 1.

    Simple roots J generate the parabolic subsystem Phi_J, whose base is J
    itself (Bourbaki, Lie groups VI §1.7), so the Cartan matrix of the
    subsystem is the submatrix of `rs.cartan` on the long simple indices.
    """
    rs.irreducible_type()
    norms = [rs.root_norm6(tuple(int(j == i) for j in range(rs.rank))) for i in range(rs.rank)]
    long = [i for i, n in enumerate(norms) if n == max(norms)]
    cartan = [[rs.cartan[i][j] for j in long] for i in long]
    return tuple(_linalg.elementary_divisors(cartan))


def tilting_generation_bound(rs: RootSystem, improved: bool = False) -> int:
    """The threshold t of the generation bound "p > t" of the type; `improved`
    lowers B and D to t = 2 (off by default)."""
    family, rank = rs.irreducible_type()
    if family == "A":
        return 1
    if family == "B":
        return 2 if improved else rank - 1
    if family == "D":
        return 2 if improved else rank - 2
    if family == "C":
        return rank
    if family == "E":
        return {6: 3, 7: 19, 8: 31}[rank]
    return 3  # F4, G2
