"""Weyl-group engine: enumeration, Bruhat order, parabolic double quotients.

Elements are stored as permutations of the ambient root list (canonical and
hashable) together with one reduced word.  Generation is a breadth-first
closure under right multiplication by simple reflections, so the table is
exhaustive, duplicate-free and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import WEYL_BUDGET, effective_budget
from .errors import BudgetError, LieparError, NotMinimalError
from .rootsys import RootSystem


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element: one reduced word plus its root permutation."""

    word: tuple[int, ...]
    perm: tuple[int, ...]
    system: RootSystem = field(compare=False, repr=False)

    @property
    def length(self) -> int:
        n = len(self.system.positive_roots)
        return sum(1 for i in range(n) if self.perm[i] >= n)

    def __hash__(self) -> int:
        return hash(self.perm)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.perm == other.perm

    def right_descents(self) -> frozenset[int]:
        """Simple indices i (0-based) with l(w s_i) < l(w)."""
        n = len(self.system.positive_roots)
        return frozenset(i for i, k in enumerate(self.system.simple_root_indices)
                         if self.perm[k] >= n)

    def left_descents(self) -> frozenset[int]:
        inv = _invert(self.perm)
        n = len(self.system.positive_roots)
        return frozenset(i for i, k in enumerate(self.system.simple_root_indices)
                         if inv[k] >= n)

    def inverse(self) -> "WeylElement":
        return WeylElement(tuple(reversed(self.word)), _invert(self.perm), self.system)


def _invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement((), tuple(range(len(rs.roots))), rs)


def multiply_simple(w: WeylElement, i: int) -> WeylElement:
    """w * s_i, with the word extended (not necessarily reduced)."""
    s = w.system.simple_reflection_perms[i]
    perm = tuple(w.perm[s[k]] for k in range(len(s)))
    return WeylElement(w.word + (i,), perm, w.system)


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    if u.system is not v.system:
        raise LieparError("elements belong to different root systems")
    perm = tuple(u.perm[v.perm[k]] for k in range(len(u.perm)))
    return WeylElement(u.word + v.word, perm, u.system)


def reduced_word(rs: RootSystem, perm: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical reduced word recovered by greedy descent-following."""
    n = len(rs.positive_roots)
    word: list[int] = []
    current = perm
    while True:
        descent = next(
            (i for i, k in enumerate(rs.simple_root_indices) if current[k] >= n), None
        )
        if descent is None:
            break
        word.append(descent)
        s = rs.simple_reflection_perms[descent]
        current = tuple(current[s[k]] for k in range(len(s)))
    return tuple(reversed(word))


def generate_weyl(rs: RootSystem, length_bound: int | None = None,
                  budget: int | None = None) -> list[WeylElement]:
    """All Weyl elements (up to `length_bound`), each with a reduced word.

    Raises BudgetError when the enumeration would exceed the element budget;
    E7/E8 need an explicit length bound.
    """
    limit = budget if budget is not None else effective_budget(WEYL_BUDGET)
    if length_bound is None and rs.weyl_order() > limit:
        raise BudgetError(
            f"|W| = {rs.weyl_order()} exceeds budget {limit}; pass a length bound"
        )
    e = identity(rs)
    table = {e.perm: e}
    frontier = [e]
    length = 0
    while frontier:
        if length_bound is not None and length >= length_bound:
            break
        next_frontier = []
        for w in frontier:
            for i in range(rs.rank):
                nw = multiply_simple(w, i)
                if nw.perm not in table and nw.length == length + 1:
                    table[nw.perm] = nw
                    next_frontier.append(nw)
                    if len(table) > limit:
                        raise BudgetError(f"enumeration exceeded budget {limit}")
        frontier = next_frontier
        length += 1
    return sorted(table.values(), key=lambda w: (w.length, w.word))


def generate_parabolic(rs: RootSystem, indices) -> list[WeylElement]:
    """The standard parabolic subgroup W_I, I a set of 0-based simple indices."""
    e = identity(rs)
    table = {e.perm: e}
    frontier = [e]
    while frontier:
        next_frontier = []
        for w in frontier:
            for i in sorted(indices):
                nw = multiply_simple(w, i)
                if nw.perm not in table and nw.length == w.length + 1:
                    table[nw.perm] = nw
                    next_frontier.append(nw)
        frontier = next_frontier
    return sorted(table.values(), key=lambda w: (w.length, w.word))


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order, by the standard subword recursion on right descents."""
    if u.system is not w.system:
        raise LieparError("elements belong to different root systems")
    lu, lw = u.length, w.length
    while True:
        if lu > lw:
            return False
        if lu == 0:
            return True
        if u.perm == w.perm:
            return True
        i = min(w.right_descents())
        w = multiply_simple(w, i)
        lw -= 1
        if i in u.right_descents():
            u = multiply_simple(u, i)
            lu -= 1


def bruhat_leq_chain_oracle(elements: list[WeylElement]) -> dict[tuple, set[tuple]]:
    """Independent Bruhat oracle: transitive closure of the covering relation.

    Covers are w -> w*t for reflections t with l(w*t) = l(w) + 1.  Returns,
    for each element, the set of perms of all elements below or equal to it.
    """
    if not elements:
        return {}
    rs = elements[0].system
    by_perm = {w.perm: w for w in elements}
    reflections = _reflection_perms(rs)
    below: dict[tuple, set[tuple]] = {w.perm: {w.perm} for w in elements}
    for w in sorted(elements, key=lambda x: x.length):
        for t in reflections:
            perm = tuple(w.perm[t[k]] for k in range(len(t)))
            higher = by_perm.get(perm)
            if higher is not None and higher.length == w.length + 1:
                below[higher.perm] |= below[w.perm]
    return below


def _reflection_perms(rs: RootSystem) -> list[tuple[int, ...]]:
    """Permutations of all reflections s_alpha, alpha positive."""
    index = {r: k for k, r in enumerate(rs.roots)}
    out = []
    for alpha in rs.positive_roots:
        co = rs.coroot(alpha)
        perm = []
        for root in rs.roots:
            w = rs.root_weight_coords(root)
            pairing = sum(w[k] * co[k] for k in range(rs.rank))
            new = tuple(root[k] - pairing * alpha[k] for k in range(rs.rank))
            perm.append(index[new])
        out.append(tuple(perm))
    return out


def double_quotient_reps(rs: RootSystem, I, J,
                         budget: int | None = None) -> list[WeylElement]:
    """Minimal-length double coset representatives, sorted by (length, word).

    I and J are iterables of 0-based simple indices.
    """
    I, J = frozenset(I), frozenset(J)
    reps = [
        w
        for w in generate_weyl(rs, budget=budget)
        if not (w.left_descents() & I) and not (w.right_descents() & J)
    ]
    return reps


@dataclass(frozen=True)
class CellPolynomial:
    """Polynomial in q with nonnegative integer coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.coeffs):
            raise LieparError("cell polynomial coefficients must be nonnegative")

    def evaluate(self, x: int) -> int:
        return sum(c * x**k for k, c in enumerate(self.coeffs))

    def __add__(self, other: "CellPolynomial") -> "CellPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return CellPolynomial(tuple(x + y for x, y in zip(a, b)))

    @classmethod
    def from_exponents(cls, exponents) -> "CellPolynomial":
        exps = list(exponents)
        coeffs = [0] * (max(exps, default=0) + 1)
        for e in exps:
            coeffs[e] += 1
        return cls(tuple(coeffs))

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                base = "q" if k == 1 else f"q^{k}"
                terms.append(base if c == 1 else f"{c}*{base}")
        return " + ".join(terms) if terms else "0"


def stratum_poincare(rs: RootSystem, I, J, w: WeylElement) -> CellPolynomial:
    """Cell-dimension generating function of the stratum indexed by w.

    Sums q^l(x) over x in W_I w W_J that have no right descent in J; w must
    be the minimal-length representative of its double coset.
    """
    I, J = frozenset(I), frozenset(J)
    if (w.left_descents() & I) or (w.right_descents() & J):
        raise NotMinimalError("w is not a minimal double-coset representative")
    left = generate_parabolic(rs, I)
    right = generate_parabolic(rs, J)
    seen: dict[tuple, int] = {}
    for u in left:
        uw = multiply(u, w)
        for v in right:
            x = multiply(uw, v)
            if x.perm not in seen:
                seen[x.perm] = x.length
    n = len(rs.positive_roots)
    exponents = []
    for perm, length in seen.items():
        descents_in_J = any(perm[rs.simple_root_indices[j]] >= n for j in J)
        if not descents_in_J:
            exponents.append(length)
    return CellPolynomial.from_exponents(exponents)
