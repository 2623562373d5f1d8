"""Weyl-group engine: orbit walks, Bruhat order, parabolic double quotients.

An element w is stored as the regular weight w(rho) in fundamental-weight
coordinates (its `key`: canonical and hashable), its length and one word.
The left descents of w are the negative coordinates of w(rho), and
l(s_i w) = l(w) + 1 exactly when w(rho)_i > 0.

Everything is enumerated by one walk down a Weyl orbit (`orbit`): from a
weight dominant for the generators, apply s_i wherever coordinate i is
positive.  A point nu is kept only when reached from s_i0 nu, i0 its least
negative coordinate, so each point is found once and its word is the
lexicographically first reduced word.  The walk yields one depth level at
a time and keeps only the level before, so a caller that consumes levels
as they come holds two levels, never the whole orbit.  A level is two
parallel lists, its points and their words, a word as `bytes` with one
byte per letter, so the walk serves simple indices 0..255; the word of a
`WeylElement` is a tuple of ints.

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

from collections.abc import Iterator
from dataclasses import dataclass, field

from .config import WEYL_BUDGET, check_budget, effective_budget
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
          limit: int | None = None) -> Iterator[tuple[list[Weight], list[bytes]]]:
    """The orbit of `weight` under the s_i, i in `gens`, one depth level at a time.

    `weight` must be dominant for `gens`, and every index in `gens` at most
    255; both are checked here, before the first level.  Each level is a
    pair (points, words) of parallel lists, a word as `bytes` with one byte
    per letter (0-based simple indices).  The words of a level have one
    length, the depth, and come in increasing order, so the levels run
    through the orbit in (length, word) order.  Levels stop after depth
    `length_bound`; BudgetError is raised once more than `limit` points are
    found.
    """
    gens = sorted(gens)
    start = tuple(weight)
    if gens and gens[-1] > 255:
        raise LieparError(f"simple index {gens[-1]} does not fit in a one-byte orbit word (0..255)")
    if any(start[i] < 0 for i in gens):
        raise LieparError(f"weight {start} is not dominant for the generators")
    return _levels(rs, start, gens, length_bound, limit)


def _levels(rs: RootSystem, start: Weight, gens: list[int], length_bound, limit):
    """The levels of `orbit`.  A point's word minus its first letter is the
    word of its parent, one level up, so only that level is kept.  The points
    with first letter i come in the order of their parents; concatenating
    them for increasing i sorts the new level with no comparison."""
    before = {i: [k for k in gens if k < i] for i in gens}
    letter = {i: bytes((i,)) for i in gens}
    cartan = rs.cartan
    points, words = [start], [b""]
    found, depth = 1, 0
    while points:
        yield points, words
        if length_bound is not None and depth >= length_bound:
            return
        new_points = {i: [] for i in gens}
        new_words = {i: [] for i in gens}
        for mu, word in zip(points, words):
            for i in gens:
                c = mu[i]
                if c > 0:  # nu = s_i mu, written out: this is the hot loop
                    nu = tuple([x - c * a for x, a in zip(mu, cartan[i])])
                    for k in before[i]:  # a loop, not any(): no generator per point
                        if nu[k] < 0:
                            break
                    else:
                        new_points[i].append(nu)
                        new_words[i].append(letter[i] + word)
        points = [nu for i in gens for nu in new_points[i]]
        words = [word for i in gens for word in new_words[i]]
        found, depth = found + len(points), depth + 1
        if limit is not None and found > limit:
            raise BudgetError(f"enumeration exceeded budget {limit}; set LIEPAR_BUDGET to raise it")


def _elements(rs: RootSystem, start: Weight, gens, keep=None,
              length_bound: int | None = None, limit: int | None = None) -> Iterator[WeylElement]:
    """The elements x of the walk down the orbit of `start`, in (length, word) order.

    From rho each point is x(rho).  From elsewhere, each word minus its first
    letter belongs to a point of the level before, so x(rho) is one
    reflection away from a key of that level.  `keep` filters points.
    """
    from_rho = start == rs.rho
    keys: dict[bytes, Weight] = {}
    for points, words in orbit(rs, start, gens, length_bound, limit):
        parents, keys = keys, {}
        for nu, word in zip(points, words):
            if from_rho:
                key = nu
            else:
                key = rs.reflect(parents[word[1:]], word[0]) if word else rs.rho
                keys[word] = key
            if keep is None or keep(nu):
                yield WeylElement(tuple(word), key, len(word), rs)


def generate_weyl(rs: RootSystem, length_bound: int | None = None) -> list[WeylElement]:
    """All Weyl elements (up to `length_bound`), each with a reduced word.

    Raises BudgetError when the enumeration would exceed the element budget;
    E7/E8 need an explicit length bound.
    """
    limit = effective_budget(WEYL_BUDGET)
    if length_bound is None and rs.weyl_order() > limit:
        raise BudgetError(
            f"|W| = {rs.weyl_order()} exceeds budget {limit}; "
            "pass a length bound or set LIEPAR_BUDGET to raise it"
        )
    return list(_elements(rs, rs.rho, range(rs.rank), length_bound=length_bound, limit=limit))


def generate_parabolic(rs: RootSystem, indices) -> list[WeylElement]:
    """The standard parabolic subgroup W_I, I a set of 0-based simple indices."""
    return list(_elements(rs, rs.rho, _simple_indices(rs, indices)))


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


def _rho_off(rs: RootSystem, J: frozenset[int]) -> Weight:
    """rho_J: 1 off J, 0 on J."""
    return tuple(0 if k in J else 1 for k in range(rs.rank))


def iter_double_quotient_reps(rs: RootSystem, I, J) -> Iterator[WeylElement]:
    """Minimal-length double coset representatives, lazily in (length, word) order.

    I and J are iterables of 0-based simple indices.  The representatives
    are the points of the orbit of rho_J with no negative coordinate in I;
    the budget bounds the |W/W_J| points of that orbit.  The indices and the
    budget are checked here, before the first representative.
    """
    I, J = _simple_indices(rs, I), _simple_indices(rs, J)
    cosets = _height_product(r for r in rs.positive_roots
                             if any(c for k, c in enumerate(r) if k not in J))
    check_budget(WEYL_BUDGET, cosets, f"|W/W_J| = {cosets}")
    return _elements(rs, _rho_off(rs, J), range(rs.rank),
                     keep=lambda nu: not any(nu[i] < 0 for i in I))


def double_quotient_reps(rs: RootSystem, I, J) -> list[WeylElement]:
    """The list of `iter_double_quotient_reps`."""
    return list(iter_double_quotient_reps(rs, I, J))


@dataclass(frozen=True)
class CellPolynomial:
    """Polynomial in q with nonnegative integer coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.coeffs):
            raise LieparError("cell polynomial coefficients must be nonnegative")

    def evaluate(self, x: int) -> int:
        return sum(c * x**k for k, c in enumerate(self.coeffs))

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
    levels = orbit(rs, _act(rs, w.word, _rho_off(rs, J)), I)
    return CellPolynomial((0,) * w.length + tuple(len(points) for points, _ in levels))
