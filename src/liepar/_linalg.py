"""Exact linear algebra over Z and F_p.

Everything here works on plain lists/tuples of Python ints, never floats.

Over Z there is one lattice kernel, the row Hermite form `row_hermite`:
the integer kernel is read off the Hermite form of [A^T | I], and the
Smith normal form is built on Hermite forms of a matrix and its transpose.
Fraction-free Bareiss, the p-local Smith form and elimination mod p are
separate on purpose: with the Smith form they are the independent rank
checks.  `integer_rows` is the one check that a matrix read from a file
holds ints.

Gauss-Jordan over Q, `rref_q`, and the inverse, solve and rank read off it
(`frac_*`) have no caller in the library; `perfbench/tracing.py` wraps them.
The two that build Fractions import `fractions` inside, so no command loads it.
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import LieparError

IntMatrix = list[list[int]]


def integer_rows(value, what: str) -> list[tuple[int, ...]]:
    """An input file's list of integer lists, or a domain error naming the field.

    JSON booleans and floats are refused, not read as ints.
    """
    if not isinstance(value, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in value):
        raise LieparError(f'"{what}" must be a list of integer lists, got {str(value)[:40]}')
    return [tuple(row) for row in value]


def _bareiss(matrix) -> tuple[int, int]:
    """(rank over Q, last pivot) of an integer matrix, by fraction-free elimination.

    The last pivot is the r x r minor on the pivot rows and columns, so it
    is nonzero; it is 1 for a matrix of rank 0.
    """
    m = [[int(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return 0, 1
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r, prev


def bareiss_rank(matrix) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    return _bareiss(matrix)[0]


def p_valuation(n: int, p: int) -> int:
    """Largest v with p**v dividing the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def local_smith_valuations(matrix, p: int, k: int) -> list[int]:
    """p-adic valuations, ascending, of the nonzero Smith divisors of an integer matrix.

    Exact when every valuation is at most k, which holds when k is the
    valuation of a nonzero r x r minor (r the rank): the valuations sum to
    that of the gcd of those minors.  Elimination runs mod p**(k+1) and
    always pivots on a unit; when no unit is left, the remaining block is
    divided by p.  Below a pivot the column is cleared by row operations,
    after which clearing its row would not touch the remaining block, so
    that is skipped.
    """
    q = p ** (k + 1)
    m = [[x % q for x in row] for row in matrix]
    valuations: list[int] = []
    v = 0
    while m and m[0]:
        unit = next(((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x % p), None)
        if unit is None:
            if not any(any(row) for row in m):
                break
            v += 1
            q //= p
            m = [[x // p for x in row] for row in m]
            continue
        i, j = unit
        pivot = m.pop(i)
        scale = pow(pivot.pop(j), -1, q)
        for n, row in enumerate(m):
            f = row.pop(j) * scale % q
            if f:
                m[n] = [(a - f * b) % q for a, b in zip(row, pivot)]
        valuations.append(v)
    return valuations


def modp_echelon(matrix, p: int) -> tuple[IntMatrix, list[int]]:
    """Row echelon form mod p with unit pivots; returns (echelon form, pivot column list).

    Each pivot clears only the rows below it, and only from its own column
    on: to its left those rows are already zero.  Entries above a pivot
    are left as they fall; `echelon_kernel` back-substitutes through them.
    """
    m = [[x % p for x in row] for row in matrix]
    if not m or not m[0]:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        tail = [x * inv % p for x in m[r][c:]]
        m[r][c:] = tail
        for i in range(r + 1, rows):
            f = m[i][c]
            if f:
                m[i][c:] = [(a - f * b) % p for a, b in zip(m[i][c:], tail)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def modp_rank(matrix, p: int) -> int:
    return len(modp_echelon(matrix, p)[1])


def modp_kernel_basis(matrix, p: int) -> list[list[int]]:
    """Echelonized basis of the right kernel of `matrix` over F_p."""
    if not matrix or not matrix[0]:
        return []
    return echelon_kernel(*modp_echelon(matrix, p), len(matrix[0]), p)


def echelon_kernel(echelon, pivots: list[int], cols: int, p: int) -> list[list[int]]:
    """Right kernel over F_p read off a row echelon form mod p with unit pivots.

    One vector per non-pivot column: 1 there, 0 at the other non-pivot
    columns, and its pivot entries solved by back-substitution from the
    last pivot row up.  These are the vectors a reduced form gives, so the
    basis is itself echelonized.
    """
    rows = list(zip(echelon, pivots))[::-1]
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [0] * cols
        v[fc] = 1
        for row, pc in rows:
            if pc < fc:
                v[pc] = -sum(a * b for a, b in zip(row[pc + 1:fc + 1], v[pc + 1:fc + 1])) % p
        basis.append(v)
    return basis


def smith_normal_form(matrix) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the nonzero elementary divisors d_1 | d_2 | ..., all positive.
    Row Hermite forms of the matrix and of its transpose alternate until
    every row has one nonzero entry (Kannan and Bachem, SIAM J. Comput. 8,
    1979); replacing each pair of those entries by its (gcd, lcm) then
    gives the divisibility chain.
    """
    m = row_hermite(matrix)
    while any(sum(map(bool, row)) > 1 for row in m):
        m = row_hermite(zip(*m))
    divisors = sorted(next(filter(None, row)) for row in m)
    for i, j in itertools.combinations(range(len(divisors)), 2):
        g = gcd(divisors[i], divisors[j])
        divisors[i], divisors[j] = g, divisors[i] * divisors[j] // g
    return divisors


def elementary_divisors(matrix) -> list[int]:
    """Smith divisors greater than 1 (the torsion of the cokernel)."""
    return [d for d in smith_normal_form(matrix) if d > 1]


def row_hermite(matrix) -> list[list[int]]:
    """Canonical row Hermite normal form of the lattice spanned by the rows.

    Rows of the result form a basis in echelon shape with positive pivots
    and entries above each pivot reduced to [0, pivot).
    """
    m = [list(map(int, row)) for row in matrix if any(row)]
    if not m:
        return []
    cols = len(m[0])
    r = 0
    for c in range(cols):
        # gcd-reduce column c over rows >= r
        while True:
            nz = [i for i in range(r, len(m)) if m[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(m[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                q = m[i][c] // m[i0][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[i0])]
        if not nz:
            continue
        i0 = nz[0]
        m[r], m[i0] = m[i0], m[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return m[:r]


def integer_kernel(matrix, cols: int) -> list[list[int]]:
    """Z-basis of {x : matrix @ x = 0} for a matrix with `cols` columns.

    The rows of row_hermite([matrix^T | I]) that vanish on matrix^T: they
    are rows of a unimodular matrix, so the basis is saturated and each
    vector primitive.  An empty matrix gives the standard basis.
    """
    n = len(matrix)
    augmented = [[row[j] for row in matrix] + [int(i == j) for i in range(cols)] for j in range(cols)]
    return [row[n:] for row in row_hermite(augmented) if not any(row[:n])]


def in_row_lattice(hnf: list[list[int]], vector) -> bool:
    """Membership of an integer vector in the lattice with row-HNF basis `hnf`."""
    v = list(map(int, vector))
    for row in hnf:
        c = next((j for j, x in enumerate(row) if x != 0), None)
        if c is None:
            continue
        if v[c] % row[c] != 0:
            return False
        q = v[c] // row[c]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) > 0 and x*a + y*b = g, for a, b not both 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def hermite_insert(hnf, pivots: list[int], vector) -> tuple[list[list[int]], list[int]]:
    """Row HNF and pivot columns of the lattice spanned by `hnf` and `vector`.

    `hnf` is a row Hermite normal form as `row_hermite` returns it and
    `pivots` its pivot columns; neither is changed, and the result equals
    `row_hermite(hnf + [vector])`.  The vector is merged into the row of
    each pivot it meets, by division when that row's pivot divides it and
    by an extended-gcd step otherwise; what is left of it, if anything,
    becomes a new row.  Rows from the first one changed on are then reduced
    above their pivots.  A vector already in the lattice gives back copies
    equal to `hnf` and `pivots`.
    """
    rows = list(hnf)
    cols = list(pivots)
    v = list(map(int, vector))
    first = len(rows)  # index of the first row changed or inserted
    k = 0  # index of the first row whose pivot is at column c or later
    for c in range(len(v)):
        at_pivot = k < len(cols) and cols[k] == c
        if v[c]:
            if not at_pivot:
                rows.insert(k, v if v[c] > 0 else [-x for x in v])
                cols.insert(k, c)
                first = min(first, k)
                break
            row = rows[k]
            a, b = row[c], v[c]
            if b % a:
                g, x, y = _xgcd(a, b)
                rows[k] = [x * r + y * s for r, s in zip(row, v)]
                v = [(a // g) * s - (b // g) * r for r, s in zip(row, v)]
                first = min(first, k)
            else:
                q = b // a
                v = [s - q * r for r, s in zip(row, v)]
        k += at_pivot
    for k in range(first, len(rows)):
        c, pivot = cols[k], rows[k]
        for i in range(k):
            q = rows[i][c] // pivot[c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], pivot)]
    return rows, cols


def in_hermite_lattice(hnf, pivots: list[int], vector) -> bool:
    """Membership of an integer vector in the lattice with row HNF `hnf` and
    pivot columns `pivots`, as `in_row_lattice` but without searching rows
    for their pivots.

    Columns are read left to right.  A nonzero entry in a column without a
    pivot is final once the rows with earlier pivots are subtracted, since
    every later row vanishes there, so the test fails at that column.
    """
    v = vector
    k, rank = 0, len(pivots)
    for c in range(len(v)):
        if k < rank and pivots[k] == c:
            row = hnf[k]
            k += 1
            if v[c]:
                q, r = divmod(v[c], row[c])
                if r:
                    return False
                v = [a - q * b for a, b in zip(v, row)]
        elif v[c]:
            return False
    return True


def rref_q(matrix, cols: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q by Gauss-Jordan; returns (rref, pivot columns).

    Only the first `cols` columns (default: all) are eliminated; any columns
    after them, such as a right-hand side, are carried along.
    """
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in matrix]
    if cols is None:
        cols = len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def frac_matrix_inverse(matrix) -> list[list[Fraction]]:
    """Exact inverse of a square matrix, from the rref of [matrix | I]."""
    n = len(matrix)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    rref, pivots = rref_q(augmented, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in rref]


def frac_solve(matrix, rhs) -> list[Fraction] | None:
    """Solve matrix @ x = rhs exactly; None when inconsistent.

    For underdetermined systems returns one solution (free variables 0).
    """
    from fractions import Fraction
    cols = len(matrix[0]) if matrix else 0
    rref, pivots = rref_q([list(row) + [b] for row, b in zip(matrix, rhs)], cols)
    if any(row[cols] != 0 for row in rref[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(rref, pivots):
        x[c] = row[cols]
    return x


def frac_rank(matrix) -> int:
    """Rank of a matrix with Fraction (or int) entries."""
    return len(rref_q(matrix)[1])
