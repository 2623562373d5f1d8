"""Symmetric-group side of the tensor-power pipeline, at desk scale.

Standard multiplicities f^lambda (hook lengths and direct enumeration),
integral Gram matrices of Specht modules in the standard-polytabloid basis,
simple-module dimensions as ranks of the modular reduction, and the
Jordan-type combinatorics of GL_n nilpotent orbits.

Everything is brute-force transparent: polytabloids are expanded by
explicit column-group enumeration, so this module stays the oracle layer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations

from .config import SPECHT_BUDGET, effective_budget
from .errors import BudgetError, InvariantError, LieparError
from .intform import IntegerSymmetricForm, check_prime, rank_and_radical

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    lam = tuple(int(p) for p in parts)
    if any(p <= 0 for p in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise LieparError(f"{lam} is not a partition")
    return lam


def partitions(d: int) -> list[Partition]:
    """All partitions of d, lexicographically decreasing."""
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(d, d, ())
    return out


def conjugate(lam: Partition) -> Partition:
    lam = check_partition(lam)
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def is_p_regular(lam: Partition, p: int) -> bool:
    """No part repeated p or more times."""
    lam = check_partition(lam)
    return all(lam.count(v) < p for v in set(lam))


def hook_length_count(lam: Partition) -> int:
    """f^lambda by the hook length formula."""
    lam = check_partition(lam)
    conj = conjugate(lam)
    d = sum(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j) + (conj[j] - i) - 1
    if math.factorial(d) % prod != 0:
        raise InvariantError("hook length product must divide d!")
    return math.factorial(d) // prod


def standard_tableaux(lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All standard Young tableaux of shape lambda, entries 1..d.

    Returned in a fixed deterministic order (row-reading words sorted);
    anything convention-dependent downstream is asserted only through
    elementary divisors, which do not see the basis order.
    """
    lam = check_partition(lam)
    d = sum(lam)
    rows = len(lam)
    out: list[tuple[tuple[int, ...], ...]] = []
    filling = [[0] * lam[i] for i in range(rows)]
    lengths = [0] * rows

    def place(value: int):
        if value > d:
            out.append(tuple(tuple(row[: lam[i]]) for i, row in enumerate(filling)))
            return
        for i in range(rows):
            j = lengths[i]
            if j >= lam[i]:
                continue
            if i > 0 and lengths[i - 1] <= j:
                continue
            filling[i][j] = value
            lengths[i] += 1
            place(value + 1)
            lengths[i] -= 1
        return

    place(1)
    return sorted(out, key=lambda t: tuple(x for row in t for x in row))


def standard_multiplicities(n: int, d: int) -> dict[Partition, int]:
    """f^lambda for the partitions of d with at most n rows."""
    if n < 1 or d < 1:
        raise LieparError("n and d must be positive")
    return {lam: hook_length_count(lam) for lam in partitions(d) if len(lam) <= n}


@dataclass(frozen=True)
class GramMatrix:
    """Gram matrix of the bilinear form on a Specht module."""

    form: IntegerSymmetricForm
    basis: tuple[tuple[tuple[int, ...], ...], ...]  # standard tableaux

    @property
    def size(self) -> int:
        return self.form.size


def _tabloid_key(tableau) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(row)) for row in tableau)


@functools.cache
def _column_group(lam: Partition) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """The signed permutations of each column of a tableau of shape lambda.

    Entry j lists (perm, sign) over the permutations of column j, perm[i]
    being the row whose entry moves to row i.  Built once per shape and
    shared, hence tuples.
    """
    conj = conjugate(lam)
    per_column = []
    for j, height in enumerate(conj):
        perms = []
        for perm in permutations(range(height)):
            sign = 1
            seen = [False] * height
            for start in range(height):
                if seen[start]:
                    continue
                length = 0
                k = start
                while not seen[k]:
                    seen[k] = True
                    k = perm[k]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
            perms.append((perm, sign))
        per_column.append(tuple(perms))
    return tuple(per_column)


def polytabloid(lam: Partition, tableau) -> dict[tuple, int]:
    """Expansion of the polytabloid of `tableau` in the tabloid basis."""
    lam = check_partition(lam)
    conj = conjugate(lam)
    per_column = _column_group(lam)
    coeffs: dict[tuple, int] = {}

    def rec(col: int, current: list[list[int]], sign: int):
        if col == len(conj):
            key = _tabloid_key(current)
            coeffs[key] = coeffs.get(key, 0) + sign
            return
        height = conj[col]
        column_entries = [tableau[i][col] for i in range(height)]
        for perm, psign in per_column[col]:
            for i in range(height):
                current[i][col] = column_entries[perm[i]]
            rec(col + 1, current, sign * psign)
        for i in range(height):
            current[i][col] = column_entries[i]

    rec(0, [list(row) for row in tableau], 1)
    return {k: v for k, v in coeffs.items() if v}


def check_specht_budget(d: int, budget: int | None = None) -> None:
    """Raise BudgetError when Specht modules of S_d exceed the budget.

    Callers check d before they enumerate the partitions of d.
    """
    limit = budget if budget is not None else effective_budget(SPECHT_BUDGET)
    if d > limit:
        raise BudgetError(f"|lambda| = {d} exceeds Specht budget {limit}; set LIEPAR_BUDGET to raise it")


def specht_gram(lam: Partition, budget: int | None = None) -> GramMatrix:
    """Gram matrix of the standard polytabloids under the tabloid pairing."""
    lam = check_partition(lam)
    check_specht_budget(sum(lam), budget)
    basis = standard_tableaux(lam)
    vectors = [polytabloid(lam, t) for t in basis]
    size = len(basis)
    matrix = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            value = 0
            vi, vj = vectors[i], vectors[j]
            if len(vj) < len(vi):
                vi, vj = vj, vi
            for key, c in vi.items():
                value += c * vj.get(key, 0)
            matrix[i][j] = matrix[j][i] = value
    form = IntegerSymmetricForm(tuple(tuple(r) for r in matrix),
                                label="S^(" + ",".join(map(str, lam)) + ")")
    return GramMatrix(form, tuple(basis))


def simple_dimension(lam: Partition, p: int) -> int:
    """dim of the simple head of the Specht module in characteristic p.

    Computed as the rank of the Gram matrix over F_p; defined only for
    p-regular partitions.
    """
    lam = check_partition(lam)
    if not is_p_regular(lam, p):
        raise LieparError(f"{lam} is not {p}-regular: it indexes no simple module")
    gram = specht_gram(lam)
    result = rank_and_radical(gram.form, p)
    return result.rank_fp


def simple_dimensions(d: int, p: int) -> dict[Partition, int]:
    """dim of the simple head D^lambda in characteristic p, per p-regular lambda of d.

    Keys are in the order of `partitions(d)`; each Gram matrix is built and
    ranked once.
    """
    check_prime(p)
    check_specht_budget(d)
    return {lam: simple_dimension(lam, p) for lam in partitions(d) if is_p_regular(lam, p)}


def simple_dims_table(d: int, p: int) -> list[int]:
    """Multiset (sorted list) of simple-module dimensions in characteristic p.

    By the tensor-power decomposition this multiset also lists, for n >= d,
    the tilting multiplicities in the d-th tensor power of the vector
    representation of GL_n, i.e. the ranks of the intersection forms of the
    corresponding orbit closures.
    """
    return sorted(simple_dimensions(d, p).values())


def specht_radical_bruteforce(lam: Partition, p: int, limit: int = 10**6) -> int:
    """Simple-head dimension by exhaustive radical enumeration over F_p.

    Enumerates every vector of the Specht module and tests orthogonality
    against all standard polytabloids; only viable for p**f <= limit.
    Serves as an oracle fully independent of matrix elimination.
    """
    lam = check_partition(lam)
    basis = standard_tableaux(lam)
    f = len(basis)
    if p**f > limit:
        raise BudgetError(f"{p}**{f} exceeds brute-force limit")
    vectors = [polytabloid(lam, t) for t in basis]
    keys = sorted({k for v in vectors for k in v})
    idx = {k: i for i, k in enumerate(keys)}
    mat = [[0] * len(keys) for _ in range(f)]
    for r, v in enumerate(vectors):
        for k, c in v.items():
            mat[r][idx[k]] = c % p
    radical = 0
    coeffs = [0] * f
    for code in range(p**f):
        val = code
        for i in range(f):
            coeffs[i] = val % p
            val //= p
        vec = [sum(coeffs[r] * mat[r][c] for r in range(f)) % p for c in range(len(keys))]
        if all(
            sum(vec[c] * mat[r][c] for c in range(len(keys))) % p == 0 for r in range(f)
        ):
            radical += 1
    rad_dim = 0
    while p**rad_dim < radical:
        rad_dim += 1
    if p**rad_dim != radical:
        raise InvariantError(f"radical has {radical} elements, not a power of {p}")
    return f - rad_dim


@dataclass(frozen=True)
class NilpotentOrbitData:
    """Jordan-type combinatorics of a GL_n nilpotent orbit."""

    partition: Partition
    conjugate: Partition
    dimension: int
    centralizer_factors: tuple[int, ...]  # GL_{r_1} x ... x GL_{r_m}
    resolution_source: str

    def to_dict(self) -> dict:
        return {
            "partition": list(self.partition),
            "conjugate": list(self.conjugate),
            "dimension": self.dimension,
            "centralizer": " x ".join(f"GL{r}" for r in self.centralizer_factors),
            "resolution_source": self.resolution_source,
        }


def nilpotent_orbit_data(lam, n: int) -> NilpotentOrbitData:
    """Orbit dimension, conjugate partition and reductive centralizer type."""
    lam = check_partition(lam)
    if sum(lam) != n:
        raise LieparError(f"partition {lam} is not a partition of {n}")
    conj = conjugate(lam)
    dimension = n * n - sum(c * c for c in conj)
    factors = []
    seen = []
    for part in lam:
        if part in seen:
            continue
        seen.append(part)
        factors.append(lam.count(part))
    source = "T*(GL%d/P_(%s))" % (n, ",".join(map(str, conj)))
    return NilpotentOrbitData(lam, conj, dimension, tuple(factors), source)
