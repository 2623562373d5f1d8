"""Exact rank/radical calculus for symmetric integer forms over Q and F_p.

The rank of the modular reduction of a stratum's form is the multiplicity
of the corresponding summand; a decomposition report aggregates these per
stratum and flags whether every form is nondegenerate mod p.

`rank_and_radical` computes every rank of a form by two independent
routes and cross-checks them.  Over Q, fraction-free (Bareiss) elimination
is checked against the Smith normal form.  Over F_p, one elimination mod p
gives rank and radical, and it is checked against the p-local Smith form:
elimination mod p**(k+1), where k is the p-adic valuation of the last
Bareiss pivot.  Specht Gram matrices do not come here: their rank over Q
and the valuation of their determinant are known in closed form, and
`schurweyl.simple_dimension` checks its own elimination against them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


@dataclass(frozen=True)
class IntegerSymmetricForm:
    """A symmetric square integer matrix with a free-form stratum label."""

    matrix: tuple[tuple[int, ...], ...]
    label: str = ""

    def __post_init__(self):
        n = len(self.matrix)
        object.__setattr__(self, "matrix", tuple(tuple(int(x) for x in row) for row in self.matrix))
        for row in self.matrix:
            if len(row) != n:
                raise LieparError("form matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise LieparError("form matrix must be symmetric")

    @property
    def size(self) -> int:
        return len(self.matrix)

    def to_dict(self) -> dict:
        return {"label": self.label, "n": self.size, "rows": [list(r) for r in self.matrix]}

    @classmethod
    def from_dict(cls, data: dict) -> "IntegerSymmetricForm":
        if not isinstance(data, dict) or "rows" not in data:
            raise LieparError(f'a form is a JSON object with "rows", got {str(data)[:40]}')
        rows = data["rows"]
        if "n" in data and len(rows) != data["n"]:
            raise LieparError("declared size does not match row count")
        return cls(tuple(tuple(r) for r in rows), str(data.get("label", "")))


@dataclass(frozen=True)
class RankResult:
    """Ranks of a form over Q and F_p, its radical mod p and its elementary divisors.

    Without a prime, `elementary_divisors` are the nonzero Smith divisors.
    With a prime p, they are the p-parts p**v of those divisors, ascending:
    a divisor is prime to p exactly when its p-part is 1, so `rank_fp` is the
    number of ones.
    """

    rank_q: int
    rank_fp: int | None
    radical_basis: tuple[tuple[int, ...], ...]
    elementary_divisors: tuple[int, ...]


def rank_and_radical(form: IntegerSymmetricForm, p: int | None = None) -> RankResult:
    """Rank over Q, rank over F_p and an echelonized radical basis mod p.

    The Bareiss rank over Q is checked against the number of Smith divisors
    when p is None, and against the number of p-local Smith divisors
    otherwise.  Those local divisors come from elimination mod p**(k+1),
    where k is the p-adic valuation of the last Bareiss pivot (a nonzero
    r x r minor), so their valuations must sum to at most k.  The F_p rank
    and the radical come from one elimination mod p; the rank must equal
    the number of local divisors of valuation 0.
    """
    rows = [list(r) for r in form.matrix]
    rank_q, minor = _linalg._bareiss(rows)
    if p is None:
        divisors = tuple(_linalg.smith_normal_form(rows))
        if len(divisors) != rank_q:
            raise InvariantError("Smith rank disagrees with Bareiss rank")
        return RankResult(rank_q, None, (), divisors)
    check_prime(p)
    k = _linalg.p_valuation(minor, p)
    valuations = _linalg.local_smith_valuations(rows, p, k)
    if len(valuations) != rank_q:
        raise InvariantError("p-local Smith rank disagrees with Bareiss rank")
    if sum(valuations) > k:
        raise InvariantError("p-local Smith valuations exceed those of a nonzero minor")
    rref, pivots = _linalg.modp_echelon(rows, p)
    rank_fp = len(pivots)
    if rank_fp != valuations.count(0):
        raise InvariantError("elimination rank mod p disagrees with p-local Smith form")
    radical = tuple(tuple(v) for v in _linalg.echelon_kernel(rref, pivots, form.size, p))
    if len(radical) != form.size - rank_fp:
        raise InvariantError("radical dimension inconsistent with rank")
    return RankResult(rank_q, rank_fp, radical, tuple(p**v for v in valuations))


@dataclass(frozen=True)
class StratumEntry:
    label: str
    size: int
    rank_q: int
    rank_fp: int
    multiplicity: int
    radical_dimension: int
    nondegenerate: bool


@dataclass(frozen=True)
class DecompositionReport:
    prime: int
    strata: tuple[StratumEntry, ...]
    decomposition_theorem_holds: bool

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "decomposition_theorem_holds": self.decomposition_theorem_holds,
            "strata": [
                {
                    "label": s.label,
                    "size": s.size,
                    "rank_q": s.rank_q,
                    "rank_fp": s.rank_fp,
                    "multiplicity": s.multiplicity,
                    "radical_dimension": s.radical_dimension,
                    "nondegenerate": s.nondegenerate,
                }
                for s in self.strata
            ],
        }


def decomposition_report(forms, p: int) -> DecompositionReport:
    """Per-stratum multiplicities; the global flag needs every form nondegenerate mod p."""
    check_prime(p)
    entries = []
    for form in forms:
        res = rank_and_radical(form, p)
        entries.append(
            StratumEntry(
                label=form.label,
                size=form.size,
                rank_q=res.rank_q,
                rank_fp=res.rank_fp,
                multiplicity=res.rank_fp,
                radical_dimension=form.size - res.rank_fp,
                nondegenerate=res.rank_fp == form.size,
            )
        )
    holds = all(e.nondegenerate for e in entries)
    return DecompositionReport(p, tuple(entries), holds)


def load_forms(path: str) -> list[IntegerSymmetricForm]:
    """Read forms from a JSON file: a single {label, n, rows} object or a list."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "forms" in data:
        data = data["forms"]
    if isinstance(data, dict):
        data = [data]
    return [IntegerSymmetricForm.from_dict(d) for d in data]
