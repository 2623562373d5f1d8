"""Weyl-group engine: orbit walks, Bruhat order, parabolic double quotients.

An element w is stored as the regular weight w(rho) in fundamental-weight
coordinates (its `key`: canonical and hashable), its length and one word.
The left descents of w are the negative coordinates of w(rho), and
l(s_i w) = l(w) + 1 exactly when w(rho)_i > 0.

Everything is enumerated by one walk down a Weyl orbit (`orbit`): from a
weight dominant for the generators, apply s_i wherever coordinate i is
positive.  A point nu is kept only when reached from s_i0 nu, i0 its least
negative coordinate, so each point is found once and its word is the
lexicographically first reduced word.

* W is the orbit of rho, and W_I its orbit under the s_i with i in I.
* Let rho_J be 1 off J and 0 on J.  Then x -> x(rho_J) maps the minimal
  left coset representatives W^J of W/W_J one to one onto the orbit of
  rho_J; for x in W^J the left descents of x are the negative coordinates
  of x(rho_J), and l(x) is its depth in the walk.  So the minimal
  representatives of W_I\\W/W_J are the points with no negative coordinate
  in I.
* The elements of W^J in the double coset W_I w W_J make up the W_I-orbit
  of w(rho_J), of lengths l(w) + depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import WEYL_BUDGET, effective_budget
from .errors import BudgetError, LieparError, NotMinimalError
from .rootsys import RootSystem, Weight, _height_product


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element w: the weight w(rho), its length and one word."""

    word: tuple[int, ...] = field(compare=False)
    key: Weight
    length: int = field(compare=False)
    system: RootSystem = field(compare=False, repr=False)

    def left_descents(self) -> frozenset[int]:
        """Simple indices i (0-based) with l(s_i w) < l(w)."""
        return frozenset(i for i, c in enumerate(self.key) if c < 0)

    def right_descents(self) -> frozenset[int]:
        """Simple indices i (0-based) with l(w s_i) < l(w)."""
        return self.inverse().left_descents()

    def inverse(self) -> "WeylElement":
        word = tuple(reversed(self.word))
        return WeylElement(word, _act(self.system, word, self.system.rho), self.length, self.system)


def _act(rs: RootSystem, word, weight) -> Weight:
    """The product of the simple reflections in `word` applied to `weight`."""
    for i in reversed(word):
        weight = rs.reflect(weight, i)
    return weight


def _simple_indices(rs: RootSystem, indices) -> frozenset[int]:
    out = frozenset(indices)
    for i in out:
        if i not in range(rs.rank):
            raise LieparError(f"simple index {i!r} out of range 0..{rs.rank - 1}")
    return out


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement((), rs.rho, 0, rs)


def multiply_simple(w: WeylElement, i: int) -> WeylElement:
    """w * s_i, with the word extended (not necessarily reduced)."""
    rs = w.system
    return multiply(w, WeylElement((i,), rs.reflect(rs.rho, i), 1, rs))


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    """u * v: u's word replayed on v(rho), the length moving by one per letter."""
    if u.system is not v.system:
        raise LieparError("elements belong to different root systems")
    rs, key, length = u.system, v.key, v.length
    for i in reversed(u.word):
        length += 1 if key[i] > 0 else -1
        key = rs.reflect(key, i)
    return WeylElement(u.word + v.word, key, length, rs)


def reduced_word(rs: RootSystem, key: Weight) -> tuple[int, ...]:
    """The first reduced word of the element w with w(rho) = key, read off by
    following least left descents."""
    word: list[int] = []
    while True:
        i = next((k for k, c in enumerate(key) if c < 0), None)
        if i is None:
            return tuple(word)
        word.append(i)
        key = rs.reflect(key, i)


def orbit(rs: RootSystem, weight, gens, length_bound: int | None = None,
          limit: int | None = None) -> dict[Weight, tuple[int, ...]]:
    """The orbit of `weight` under the s_i, i in `gens`, each point with its word.

    `weight` must be dominant for `gens`.  Points come in order of depth, the
    length of their word, up to `length_bound`; BudgetError is raised when
    there are more than `limit` of them.
    """
    gens = sorted(gens)
    start = tuple(weight)
    if any(start[i] < 0 for i in gens):
        raise LieparError(f"weight {start} is not dominant for the generators")
    before = {i: [k for k in gens if k < i] for i in gens}
    words = {start: ()}
    frontier = [start]
    depth = 0
    while frontier and (length_bound is None or depth < length_bound):
        next_frontier = []
        for mu in frontier:
            word = words[mu]
            for i in gens:
                if mu[i] > 0:
                    nu = rs.reflect(mu, i)
                    if not any(nu[k] < 0 for k in before[i]):
                        words[nu] = (i,) + word
                        next_frontier.append(nu)
            if limit is not None and len(words) > limit:
                raise BudgetError(f"enumeration exceeded budget {limit}")
        frontier = next_frontier
        depth += 1
    return words


def _elements(rs: RootSystem, points: dict, keep=None) -> list[WeylElement]:
    """The elements x of an orbit walk's words, sorted by (length, word).

    Each word minus its first letter belongs to an earlier point, so x(rho)
    is one reflection away from a key already known.  `keep` filters points.
    """
    keys = {(): rs.rho}
    out = []
    for nu, word in points.items():
        if word:
            keys[word] = rs.reflect(keys[word[1:]], word[0])
        if keep is None or keep(nu):
            out.append(WeylElement(word, keys[word], len(word), rs))
    return sorted(out, key=lambda w: (w.length, w.word))


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
    return _elements(rs, orbit(rs, rs.rho, range(rs.rank), length_bound, limit))


def generate_parabolic(rs: RootSystem, indices) -> list[WeylElement]:
    """The standard parabolic subgroup W_I, I a set of 0-based simple indices."""
    return _elements(rs, orbit(rs, rs.rho, _simple_indices(rs, indices)))


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order, by the standard subword recursion on left descents."""
    if u.system is not w.system:
        raise LieparError("elements belong to different root systems")
    rs = u.system
    ku, lu, kw, lw = u.key, u.length, w.key, w.length
    while True:
        if lu > lw:
            return False
        if lu == 0 or ku == kw:
            return True
        i = next(k for k, c in enumerate(kw) if c < 0)
        kw, lw = rs.reflect(kw, i), lw - 1
        if ku[i] < 0:
            ku, lu = rs.reflect(ku, i), lu - 1


def bruhat_leq_chain_oracle(elements: list[WeylElement]) -> dict[Weight, set[Weight]]:
    """Independent Bruhat oracle: transitive closure of the covering relation.

    Covers are w -> t*w for reflections t with l(t*w) = l(w) + 1, t acting on
    w(rho) as a reflection.  Returns, for each element, the set of keys of
    all elements below or equal to it.
    """
    if not elements:
        return {}
    rs = elements[0].system
    by_key = {w.key: w for w in elements}
    reflections = [(rs.root_weight_coords(a), rs.coroot(a)) for a in rs.positive_roots]
    below: dict[Weight, set[Weight]] = {w.key: {w.key} for w in elements}
    for w in sorted(elements, key=lambda x: x.length):
        for alpha, co in reflections:
            c = sum(w.key[k] * co[k] for k in range(rs.rank))
            higher = by_key.get(tuple(w.key[k] - c * alpha[k] for k in range(rs.rank)))
            if higher is not None and higher.length == w.length + 1:
                below[higher.key] |= below[w.key]
    return below


def _rho_off(rs: RootSystem, J: frozenset[int]) -> Weight:
    """rho_J: 1 off J, 0 on J."""
    return tuple(0 if k in J else 1 for k in range(rs.rank))


def double_quotient_reps(rs: RootSystem, I, J,
                         budget: int | None = None) -> list[WeylElement]:
    """Minimal-length double coset representatives, sorted by (length, word).

    I and J are iterables of 0-based simple indices.  The representatives
    are the points of the orbit of rho_J with no negative coordinate in I;
    the budget bounds the |W/W_J| points of that orbit.
    """
    I, J = _simple_indices(rs, I), _simple_indices(rs, J)
    limit = budget if budget is not None else effective_budget(WEYL_BUDGET)
    cosets = _height_product(r for r in rs.positive_roots
                             if any(c for k, c in enumerate(r) if k not in J))
    if cosets > limit:
        raise BudgetError(
            f"|W/W_J| = {cosets} exceeds budget {limit}; set LIEPAR_BUDGET to raise it"
        )
    points = orbit(rs, _rho_off(rs, J), range(rs.rank))
    return _elements(rs, points, keep=lambda nu: not any(nu[i] < 0 for i in I))


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

    Sums q^l(x) over x in W_I w W_J that have no right descent in J, read off
    the W_I-orbit of w(rho_J); w must be the minimal-length representative
    of its double coset.
    """
    I, J = _simple_indices(rs, I), _simple_indices(rs, J)
    if (w.left_descents() & I) or (w.right_descents() & J):
        raise NotMinimalError("w is not a minimal double-coset representative")
    points = orbit(rs, _act(rs, w.word, _rho_off(rs, J)), I)
    return CellPolynomial.from_exponents(w.length + len(word) for word in points.values())
