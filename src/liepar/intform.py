"""Exact rank/radical calculus for symmetric integer forms over Q and F_p.

The rank of the modular reduction of a stratum's form is the multiplicity
of the corresponding summand; a decomposition report aggregates these per
stratum and flags whether every form is nondegenerate mod p.

Two independent routes are kept for every rank: fraction-free (Bareiss)
elimination and Smith normal form; `rank_and_radical` cross-checks them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import _linalg
from .errors import LieparError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


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
    rank_q: int
    rank_fp: int | None
    radical_basis: tuple[tuple[int, ...], ...]
    elementary_divisors: tuple[int, ...]


def rank_and_radical(form: IntegerSymmetricForm, p: int | None = None) -> RankResult:
    """Rank over Q, rank over F_p and an echelonized radical basis mod p.

    The F_p rank is computed by elimination and verified against the count
    of Smith divisors prime to p.
    """
    rows = [list(r) for r in form.matrix]
    rank_q = _linalg.bareiss_rank(rows)
    divisors = tuple(_linalg.smith_normal_form(rows))
    if len(divisors) != rank_q:
        raise AssertionError("Smith rank disagrees with Bareiss rank")
    if p is None:
        return RankResult(rank_q, None, (), divisors)
    if not _is_prime(p):
        raise LieparError(f"{p} is not prime")
    rank_fp = _linalg.modp_rank(rows, p)
    snf_rank = sum(1 for d in divisors if d % p != 0)
    if rank_fp != snf_rank:
        raise AssertionError("elimination rank mod p disagrees with Smith form")
    radical = tuple(tuple(v) for v in _linalg.modp_kernel_basis(rows, p))
    if len(radical) != form.size - rank_fp:
        raise AssertionError("radical dimension inconsistent with rank")
    return RankResult(rank_q, rank_fp, radical, divisors)


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
    if not _is_prime(p):
        raise LieparError(f"{p} is not prime")
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
