"""Symmetric-group side of the tensor-power pipeline, at desk scale.

Standard multiplicities f^lambda (hook lengths and direct enumeration),
integral Gram matrices of Specht modules in the standard-polytabloid basis,
simple-module dimensions as ranks of the modular reduction, and the
Jordan-type combinatorics of GL_n nilpotent orbits, returned as the
document that `liepar nilpotent` prints.

A Gram matrix pairs polytabloids stored as bitmasks over integer-coded
tabloids, signed by one table of column permutations per column height.
Its rank over Q is f^lambda and the p-adic valuation k of its
determinant has a closed form (James and Murphy), so a simple dimension
needs no elimination over Z, and none at all where k <= 1; otherwise
both go to `intform.rank_mod_p`, the checked F_p rank that intersection
forms read from files use too.  `polytabloid` is the readable tuple-keyed
expansion the tests check the Gram matrices against, with its own column
signs.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations
from typing import NamedTuple

from . import _linalg
from .config import SPECHT_BUDGET, check_budget
from .errors import InvariantError, LieparError
from .intform import IntegerSymmetricForm, check_prime, rank_mod_p

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
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0] if lam else 0))


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


class GramMatrix(NamedTuple):
    """Gram matrix of the bilinear form on a Specht module."""

    form: IntegerSymmetricForm
    basis: tuple[tuple[tuple[int, ...], ...], ...]  # standard tableaux

    @property
    def size(self) -> int:
        return self.form.size


@functools.cache
def _signed_permutations(height: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The permutations of range(height), each with its sign, as (perm, sign).

    perm[i] is the row whose entry moves to row i.  Built by insertion:
    putting n at place i of a permutation of range(n) puts it in front of
    n - i smaller entries, so the sign flips n - i times.  Built once per
    height and shared by every column of that height, hence tuples.
    """
    table = [((), 1)]
    for n in range(height):
        table = [(perm[:i] + (n,) + perm[i:], -sign if (n - i) % 2 else sign)
                 for perm, sign in table for i in range(n + 1)]
    return tuple(table)


def polytabloid(lam: Partition, tableau) -> dict[tuple, int]:
    """Expansion of the polytabloid of `tableau` in the tabloid basis.

    The readable oracle for `specht_gram`: it signs each column permutation
    by its inversion count, so it shares no sign with `_signed_permutations`.
    """
    lam = check_partition(lam)
    conj = conjugate(lam)
    per_column = [[(perm, (-1) ** sum(a > b for a, b in combinations(perm, 2)))
                   for perm in permutations(range(height))] for height in conj]
    coeffs: dict[tuple, int] = {}

    def rec(col: int, current: list[list[int]], sign: int):
        if col == len(conj):
            key = tuple(tuple(sorted(row)) for row in current)
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


def check_specht_budget(d: int) -> None:
    """Raise BudgetError when Specht modules of S_d exceed the Specht budget.

    Callers check d before they enumerate the partitions of d.
    """
    check_budget(SPECHT_BUDGET, d, f"Specht |lambda| = {d}")


def _signed_tabloids(tableau, per_column, width: int) -> tuple[list[int], list[int]]:
    """The polytabloid of `tableau` as its lists of positive and negative tabloids.

    A tabloid is one int: the row of entry v sits in the `width` bits from
    bit width*(v-1) up.  A permutation of one column fixes the rows of that
    column's entries, so each column contributes a code and a sign of its
    own, and a tabloid of the polytabloid is a sum of one code per column.
    The tabloids {sigma t} for sigma in the column group are distinct, so
    every coefficient is +1 or -1 and neither list repeats a tabloid.
    """
    positive, negative = [0], []
    for j, column in enumerate(per_column):
        weights = [1 << width * (tableau[i][j] - 1) for i in range(len(column[0][0]))]
        moves = [(sum(i * weights[row] for i, row in enumerate(perm)), sign)
                 for perm, sign in column]
        even = [code for code, sign in moves if sign > 0]
        odd = [code for code, sign in moves if sign < 0]
        positive, negative = (
            [a + b for a in positive for b in even] + [a + b for a in negative for b in odd],
            [a + b for a in positive for b in odd] + [a + b for a in negative for b in even],
        )
    return positive, negative


def specht_gram(lam: Partition) -> GramMatrix:
    """Gram matrix of the standard polytabloids under the tabloid pairing.

    With e_t = P_t - N_t as sets of tabloids (see `_signed_tabloids`),
    <e_s, e_t> = |P_s & P_t| + |N_s & N_t| - |P_s & N_t| - |N_s & P_t|.
    Each tabloid met gets one bit, so each set is an int mask and each
    count a popcount.  Columns of equal height share one
    `_signed_permutations` table.  `polytabloid` is the readable expansion
    that the tests pair against.
    """
    lam = check_partition(lam)
    check_specht_budget(sum(lam))
    basis = standard_tableaux(lam)
    per_column = [_signed_permutations(height) for height in conjugate(lam)]
    width = max(1, (len(lam) - 1).bit_length())
    bit: dict[int, int] = {}
    masks = []
    for t in basis:
        positive, negative = _signed_tabloids(t, per_column, width)
        masks.append(tuple(sum(1 << bit.setdefault(code, len(bit)) for code in codes)
                           for codes in (positive, negative)))
    size = len(basis)
    matrix = [[0] * size for _ in range(size)]
    for i, (pi, ni) in enumerate(masks):
        for j in range(i, size):
            pj, nj = masks[j]
            matrix[i][j] = matrix[j][i] = ((pi & pj).bit_count() + (ni & nj).bit_count()
                                           - (pi & nj).bit_count() - (ni & pj).bit_count())
    form = IntegerSymmetricForm(tuple(tuple(r) for r in matrix),
                                label="S^(" + ",".join(map(str, lam)) + ")")
    return GramMatrix(form, tuple(basis))


def _gram_determinant_factors(lam: Partition, basis) -> tuple[list[int], list[int]]:
    """Factors (numerator, denominator) of |det G^lambda| in closed form.

    |det G^lambda| is the product over the standard tableaux t of
    gamma_t = prod_k prod_A (c_t(k) - c(a)) / prod_R (c_t(k) - c(b)), where
    A and R are the addable and removable nodes of the shape of the entries
    1..k of t in the rows strictly above the row of k, and c(i, j) = j - i
    is the content (James and Murphy, "The determinant of the Gram matrix
    for a Specht module", J. Algebra 59, 1979; Murphy, J. Algebra 152,
    1992).  Those nodes have larger content than k, so no factor is 0.
    """
    numerator: list[int] = []
    denominator: list[int] = []
    for t in basis:
        node = {v: (i, j) for i, row in enumerate(t) for j, v in enumerate(row)}
        shape = [0] * len(lam)
        for k in range(1, len(node) + 1):
            r, c = node[k]
            shape[r] += 1
            content = c - r
            for i in range(r):
                if i == 0 or shape[i - 1] > shape[i]:
                    numerator.append(content - (shape[i] - i))
                if shape[i] > shape[i + 1]:
                    denominator.append(content - (shape[i] - 1 - i))
    return numerator, denominator


def simple_dimension(lam: Partition, p: int) -> int:
    """dim of the simple head of the Specht module in characteristic p.

    The rank of the Gram matrix over F_p; defined only for p-regular
    partitions.  Its rank over Q is f^lambda and the p-adic valuation k of
    its determinant comes from the closed form, so no elimination over Z
    is needed.  The f^lambda p-local Smith valuations of the nonsingular
    Gram matrix sum to k, so k = 0 gives rank f^lambda and k = 1 gives
    f^lambda - 1 with no Gram matrix built.  For k >= 2,
    `intform.rank_mod_p` checks the F_p rank against f^lambda and k.
    """
    lam = check_partition(lam)
    check_prime(p)
    if not is_p_regular(lam, p):
        raise LieparError(f"{lam} is not {p}-regular: it indexes no simple module")
    check_specht_budget(sum(lam))
    basis = standard_tableaux(lam)
    f = hook_length_count(lam)
    if len(basis) != f:
        raise InvariantError(f"{len(basis)} standard tableaux of shape {lam}, "
                             f"but the hook length formula gives {f}")
    numerator, denominator = _gram_determinant_factors(lam, basis)
    k = (sum(_linalg.p_valuation(a, p) for a in numerator)
         - sum(_linalg.p_valuation(b, p) for b in denominator))
    if k <= 1:
        return f - k
    return len(rank_mod_p(specht_gram(lam).form.matrix, p, f, k)[2])


def simple_dimensions(d: int, p: int) -> dict[Partition, int]:
    """dim of the simple head D^lambda in characteristic p, per p-regular lambda of d.

    Keys are in the order of `partitions(d)`; a Gram matrix is built and
    ranked once, and only where `simple_dimension` needs it.
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


def nilpotent_orbit_data(lam, n: int) -> dict:
    """The orbit document: partition, conjugate partition, orbit dimension,
    reductive centralizer type GL_{r_1} x ... x GL_{r_m} and the cotangent
    bundle whose moment map resolves the orbit closure."""
    lam = check_partition(lam)
    if n < 1:
        raise LieparError(f"n must be a positive integer, got {n}")
    if sum(lam) != n:
        raise LieparError(f"partition {lam} is not a partition of {n}")
    conj = conjugate(lam)
    dimension = n * n - sum(c * c for c in conj)
    factors = [lam.count(part) for part in dict.fromkeys(lam)]
    return {
        "partition": list(lam),
        "conjugate": list(conj),
        "dimension": dimension,
        "centralizer": " x ".join(f"GL{r}" for r in factors),
        "resolution_source": "T*(GL%d/P_(%s))" % (n, ",".join(map(str, conj))),
    }
