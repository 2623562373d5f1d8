"""Exact rank/radical calculus for symmetric integer forms over Q and F_p.

The rank of the modular reduction of a stratum's form is the multiplicity
of the corresponding summand.  `decomposition_report` collects these per
stratum, with whether every form is nondegenerate mod p, as the plain
document that `liepar intform` prints.

Every F_p rank in the package, of an intersection form read from a file
or of a Specht Gram matrix, comes from `rank_mod_p`, which computes it by
two independent routes and cross-checks them: the p-local Smith form and
one elimination mod p.  The caller supplies the rank over Q and the
p-adic valuation k of a nonzero minor of that size.  `rank_and_radical`
takes both from fraction-free (Bareiss) elimination and reads the radical
off the elimination mod p; `schurweyl.simple_dimension` takes them from
closed forms.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from . import _linalg
from .errors import InvariantError, LieparError


# Strong-probable-prime tests to the first 13 prime bases decide primality
# exactly below PRIME_LIMIT, the least composite that passes all of them
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n must be below PRIME_LIMIT."""
    if n >= PRIME_LIMIT:
        raise LieparError(f"{n} is too large: primality is decided only below {PRIME_LIMIT}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise a domain error unless p is prime."""
    if not is_prime(p):
        raise LieparError(f"{p} is not prime")


class IntegerSymmetricForm(NamedTuple("IntegerSymmetricForm", [("matrix", tuple), ("label", str)])):
    """A symmetric square integer matrix with a free-form stratum label."""

    __slots__ = ()

    def __new__(cls, matrix, label: str = ""):
        matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        n = len(matrix)
        for row in matrix:
            if len(row) != n:
                raise LieparError("form matrix must be square")
        for i in range(n):
            for j in range(i):
                if matrix[i][j] != matrix[j][i]:
                    raise LieparError("form matrix must be symmetric")
        return super().__new__(cls, matrix, label)

    @property
    def size(self) -> int:
        return len(self.matrix)

    @classmethod
    def from_dict(cls, data: dict) -> "IntegerSymmetricForm":
        if not isinstance(data, dict) or "rows" not in data:
            raise LieparError(f'a form is a JSON object with "rows", got {str(data)[:40]}')
        rows = _linalg.integer_rows(data["rows"], "rows")
        if "n" in data and len(rows) != data["n"]:
            raise LieparError("declared size does not match row count")
        return cls(tuple(rows), str(data.get("label", "")))


def rank_mod_p(matrix, p: int, rank: int, k: int) -> tuple[list[int], _linalg.IntMatrix, list[int]]:
    """Checked F_p rank of an integer matrix: (p-local valuations, echelon form mod p, pivots).

    `rank` is the rank over Q and k the p-adic valuation of a nonzero
    rank x rank minor, so no Smith divisor has valuation above k.  Their
    valuations sum to that of the gcd of the rank x rank minors: at most
    k, and exactly k when the matrix is square and nonsingular, the minor
    then being the determinant.  One elimination mod p runs first.  Where
    the sum is exactly k, the rank - r0 divisors not prime to p, r0 the
    pivot count, share it, so the largest valuation is at least
    c = ceil(k / (rank - r0)) and the p-local Smith form starts mod
    p**(c+1); elsewhere it starts mod p**2.  It doubles the
    exponent, up to k + 1, until it finds `rank` divisors; mod p**(k+1) it
    must.  A pass that finds `rank` divisors has exact valuations whatever
    the pivot count, so the two kernels stay independent checks: the
    elimination must find as many pivots as there are divisors prime to p.
    A failed check raises InvariantError.
    """
    echelon, pivots = _linalg.modp_echelon(matrix, p)
    exact = rank == len(matrix) and all(len(row) == rank for row in matrix)
    nonunits = rank - len(pivots)
    e = 1 - (-k // nonunits) if exact and nonunits > 0 else 2
    while True:
        precision = min(e, k + 1)
        valuations = _linalg.local_smith_valuations(matrix, p, precision - 1)
        if len(valuations) == rank:
            break
        if precision == k + 1:
            raise InvariantError(f"p-local Smith form mod {p}**{k + 1} finds "
                                 f"{len(valuations)} divisors, not {rank}")
        e *= 2
    if sum(valuations) > k or (exact and sum(valuations) != k):
        raise InvariantError(f"p-local Smith valuations sum to {sum(valuations)}, not to "
                             f"{'' if exact else 'at most '}{k}, the valuation of a "
                             f"nonzero {rank} x {rank} minor")
    if len(pivots) != valuations.count(0):
        raise InvariantError("elimination rank mod p disagrees with p-local Smith form")
    return valuations, echelon, pivots


class RankResult(NamedTuple):
    """Ranks of a form over Q and F_p, its radical mod p and its p-local divisors.

    `elementary_divisors` are the p-parts p**v of the nonzero Smith
    divisors, ascending: a divisor is prime to p exactly when its p-part is
    1, so `rank_fp` is the number of ones.
    """

    rank_q: int
    rank_fp: int
    radical_basis: tuple[tuple[int, ...], ...]
    elementary_divisors: tuple[int, ...]


def rank_and_radical(form: IntegerSymmetricForm, p: int) -> RankResult:
    """Rank over Q, rank over F_p and an echelonized radical basis mod p.

    The rank over Q and the last pivot, a nonzero minor of that size, come
    from Bareiss elimination; `rank_mod_p` checks the F_p rank against the
    p-local Smith form, and the radical is read off its elimination mod p.
    Each radical vector v is checked to satisfy G v = 0 mod p.
    """
    check_prime(p)
    rows = [list(r) for r in form.matrix]
    rank_q, minor = _linalg._bareiss(rows)
    valuations, echelon, pivots = rank_mod_p(rows, p, rank_q, _linalg.p_valuation(minor, p))
    rank_fp = len(pivots)
    radical = tuple(tuple(v) for v in _linalg.echelon_kernel(echelon, pivots, form.size, p))
    for v in radical:
        if any(sum(g * x for g, x in zip(row, v)) % p for row in form.matrix):
            raise InvariantError(f"radical vector {v} is not in the kernel of the form mod {p}")
    return RankResult(rank_q, rank_fp, radical, tuple(p**v for v in valuations))


def decomposition_report(forms, p: int) -> dict:
    """The report document: per-stratum ranks and multiplicities, and whether
    the Decomposition Theorem holds, which needs every form nondegenerate mod p."""
    check_prime(p)
    strata = []
    for form in forms:
        res = rank_and_radical(form, p)
        strata.append({
            "label": form.label,
            "size": form.size,
            "rank_q": res.rank_q,
            "rank_fp": res.rank_fp,
            "multiplicity": res.rank_fp,
            "radical_dimension": form.size - res.rank_fp,
            "nondegenerate": res.rank_fp == form.size,
        })
    return {"prime": p, "strata": strata,
            "decomposition_theorem_holds": all(s["nondegenerate"] for s in strata)}


def load_forms(path: str) -> list[IntegerSymmetricForm]:
    """Read forms from a JSON file: a single {label, n, rows} object or a list."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "forms" in data:
        data = data["forms"]
    if not isinstance(data, list):
        data = [data]
    return [IntegerSymmetricForm.from_dict(d) for d in data]
