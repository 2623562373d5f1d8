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
as they come holds two levels, never the whole orbit; after each level the
points found so far are held to the Weyl budget of `config`.  A level is two
parallel lists, its points and their words, a word as `bytes` with one
byte per letter, so the walk serves simple indices 0..255.  A `WeylElement`
is a named tuple (word, key, length, system), its word a tuple of ints,
equal to another element when their keys are.  The double quotient and its
strata are read off the words alone: `iter_double_quotient_words` yields
them, and `stratum_poincare` takes one; only `generate_weyl`,
`generate_parabolic` and `double_quotient_reps` build elements.

Inside the walk a point is one int of rank fields, each b bits wide and
biased by 2^(b-1), so s_i mu is mu - c * (row i of the Cartan matrix packed
the same way), and "coordinate k >= 0" is the top bit of field k.  Each
coordinate of w(mu) is <mu, beta-check> for a coroot beta-check, so the
largest |<mu, beta-check>| over the positive coroots bounds every field of
the orbit; b is the least of 8, 16, 32 and 64 that holds it, and an orbit
past 64 bits is refused before its first level.  Callers get unpacked
tuples: each level is unpacked once, by one `struct` call.  Packed points
reach only `iter_double_quotient_words`, which tests I by one mask; an
element's key is a tuple, and off rho it is the reflection of its parent's
key, x(rho) = s_i(x'(rho)) for the word i x' of x.

* W is the orbit of rho, and W_I its orbit under the s_i with i in I.
* Let rho_J be 1 off J and 0 on J.  Then x -> x(rho_J) maps the minimal
  left coset representatives W^J of W/W_J one to one onto the orbit of
  rho_J; for x in W^J the left descents of x are the negative coordinates
  of x(rho_J), and l(x) is its depth in the walk.  So the minimal
  representatives of W_I\\W/W_J are the points with no negative coordinate
  in I.
* The elements of W^J in the double coset W_I w W_J make up the W_I-orbit
  of w(rho_J), of lengths l(w) + depth.
* A word is a reduced word of an element of W^J exactly when, read right
  to left from rho_J, each letter i meets a positive coordinate i: each
  step is then one step down the walk.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Iterator
from operator import mul
from typing import NamedTuple

from .config import WEYL_BUDGET, check_budget
from .errors import LieparError, NotMinimalError
from .rootsys import RootSystem, Weight, _height_product


class WeylElement(NamedTuple("WeylElement", [("word", tuple), ("key", tuple), ("length", int),
                                             ("system", RootSystem)])):
    """A Weyl group element w: the weight w(rho), its length and one word.

    Immutable and unordered; two elements are equal, and hash alike, when
    their keys are."""

    __slots__ = ()

    def __eq__(self, other) -> bool:  # never NotImplemented: tuple's == would compare words
        return isinstance(other, WeylElement) and self[1] == other[1]

    def __ne__(self, other) -> bool:
        return not isinstance(other, WeylElement) or self[1] != other[1]

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __hash__(self) -> int:
        return hash(self[1])

    def __repr__(self) -> str:
        return f"WeylElement(word={self[0]!r}, key={self[1]!r}, length={self[2]!r})"


def _simple_indices(rs: RootSystem, indices) -> frozenset[int]:
    """The indices as a set, refusing the first one, in their order, outside 0..rank-1."""
    indices = tuple(indices)
    for i in indices:
        if i not in range(rs.rank):
            raise LieparError(f"simple index {i!r} out of range 0..{rs.rank - 1}")
    return frozenset(indices)


def orbit(rs: RootSystem, weight, gens,
          length_bound: int | None = None) -> Iterator[tuple[list[Weight], list[bytes]]]:
    """The orbit of `weight` under the s_i, i in `gens`, one depth level at a time.

    `weight` must be dominant for `gens`, and every index in `gens` at most
    255; both are checked here, before the first level.  Each level is a
    pair (points, words) of parallel lists, a point as a tuple and a word as
    `bytes` with one byte per letter (0-based simple indices).  The words of
    a level have one length, the depth, and come in increasing order, so
    the levels run through the orbit in (length, word) order.  Levels stop
    after depth `length_bound`.  A repeated index in `gens` counts once.
    When the walk starts, `weight` must have one coordinate per simple root,
    its coordinates must fit 64-bit packed fields (see the module
    docstring) and every index in `gens` must lie in 0..rank-1; each is
    refused with LieparError.  Every level is held to the Weyl budget of
    `config`: past it, BudgetError names the depth and the points found.
    """
    return (level[1:] for level in _walk(rs, weight, gens, length_bound))


def _walk(rs: RootSystem, weight, gens, length_bound):
    """`orbit`'s checks, then its levels as triples (packed points, points, words)."""
    gens = tuple(sorted(set(gens)))
    start = tuple(weight)
    if gens and gens[-1] > 255:
        raise LieparError(f"simple index {gens[-1]} does not fit in a one-byte orbit word (0..255)")
    if any(c < 0 for i, c in enumerate(start) if i in gens):  # its length is checked in _levels
        raise LieparError(f"weight {start} is not dominant for the generators")
    return _levels(rs, start, gens, length_bound)


_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}  # field bits -> signed struct code


def _width(rs: RootSystem, weight: Weight) -> int:
    """Bits per field of a packed point of the orbit of `weight`.

    Every coordinate of w(weight) is <weight, beta-check> for some coroot,
    so it lies in -m..m with m the largest |<weight, beta-check>| over the
    positive coroots; m is first bounded by sum |weight_k| times the largest
    coroot coordinate k, which settles small weights with no loop over roots.
    """
    m = sum(map(mul, map(abs, weight), rs._coroot_maxima))
    if m >= 128:
        m = max(abs(sum(map(mul, weight, co))) for co in rs.positive_coroots)
    for bits in _FORMATS:
        if m < 1 << (bits - 1):
            return bits
    raise LieparError(f"orbit of {weight} has coordinates up to {m}, past a 64-bit packed field")


def _signs(bits: int, indices) -> int:
    """The top bits of the fields `indices`: set in a packed point exactly
    where those coordinates are >= 0."""
    return sum(1 << (k * bits + bits - 1) for k in indices)


@functools.cache
def _layout(rs: RootSystem, gens: tuple[int, ...], bits: int):
    """The packing of a walk with fields of `bits` bits: for each i in gens,
    (i, packed Cartan row i, parent mask, letter); then the bias of every
    field and the `struct.Struct` of one point in two's complement."""
    steps = [(i, sum(a << k * bits for k, a in enumerate(rs.cartan[i])),
              _signs(bits, [k for k in gens if k < i]), bytes((i,))) for i in gens]
    return steps, _signs(bits, range(rs.rank)), struct.Struct(f"<{rs.rank}{_FORMATS[bits]}")


def _levels(rs: RootSystem, start: Weight, gens: tuple[int, ...], length_bound):
    """The levels of `orbit`, each with its points packed, the points found
    so far held to the Weyl budget after each level.  A point's word
    minus its first letter is the word of its parent, one level up, so only
    that level is kept.  The points with first letter i come in the order of
    their parents; walking the generators in increasing order sorts the new
    level with no comparison.  A packed point XOR the biases is the point in
    two's complement, which `struct` unpacks."""
    start = rs.check_weight(start)
    _simple_indices(rs, gens)
    steps, flip, fmt = _layout(rs, gens, _width(rs, start))
    size = fmt.size
    packed, points, words = [int.from_bytes(fmt.pack(*start), "little") ^ flip], [start], [b""]
    found, depth = 1, 0
    while packed:
        yield packed, points, words
        if length_bound is not None and depth >= length_bound:
            return
        new_packed: list[int] = []
        new_words: list[bytes] = []
        add_point, add_word = new_packed.append, new_words.append
        for i, row, need, letter in steps:
            for packed_mu, mu, word in zip(packed, points, words):
                c = mu[i]
                if c > 0:  # nu = s_i mu, its parent when no coordinate before i is negative
                    nu = packed_mu - c * row
                    if nu & need == need:
                        add_point(nu)
                        add_word(letter + word)
        packed, words = new_packed, new_words
        found, depth = found + len(packed), depth + 1
        check_budget(WEYL_BUDGET, found, f"enumeration at depth {depth} ({found} points)")
        points = list(fmt.iter_unpack(b"".join([(nu ^ flip).to_bytes(size, "little") for nu in packed])))


def _elements(rs: RootSystem, start: Weight, gens, I=frozenset(),
              length_bound: int | None = None) -> Iterator[WeylElement]:
    """The elements x of the walk down the orbit of `start` whose point has no
    negative coordinate in I, in (length, word) order.

    From rho each point is x(rho).  From elsewhere, each word minus its first
    letter belongs to a point of the level before, so x(rho) is one
    reflection of a key of that level.
    """
    new = tuple.__new__  # WeylElement's own __new__ would cost a Python call per element
    rho, reflect, keys = rs.rho, rs.reflect, {}
    for points, words in orbit(rs, start, gens, length_bound):
        if start != rho:  # words come in the order of their points, as dicts keep them
            parents = keys
            keys = {word: reflect(parents[word[1:]], word[0]) if word else rho for word in words}
        for mu, key, word in zip(points, points if start == rho else keys.values(), words):
            if not I or min(map(mu.__getitem__, I)) >= 0:
                yield new(WeylElement, (tuple(word), key, len(word), rs))


def generate_weyl(rs: RootSystem, length_bound: int | None = None) -> list[WeylElement]:
    """All Weyl elements (up to `length_bound`), each with a reduced word.

    With no length bound, |W| is held to the Weyl budget before the walk;
    E7/E8 need an explicit length bound.
    """
    if length_bound is None:
        check_budget(WEYL_BUDGET, rs.weyl_order(), f"|W| = {rs.weyl_order()} with no length bound")
    return list(_elements(rs, rs.rho, range(rs.rank), length_bound=length_bound))


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


def _quotient_start(rs: RootSystem, I, J) -> tuple[frozenset[int], Weight]:
    """I as a set of simple indices and rho_J, the start of the walk of the
    double quotient, once the indices and the |W/W_J| points of that walk
    are checked, the points against the Weyl budget."""
    I, J = _simple_indices(rs, I), _simple_indices(rs, J)
    cosets = _height_product(r for r in rs.positive_roots
                             if any(c for k, c in enumerate(r) if k not in J))
    check_budget(WEYL_BUDGET, cosets, f"|W/W_J| = {cosets}")
    return I, _rho_off(rs, J)


def iter_double_quotient_words(rs: RootSystem, I, J) -> Iterator[list[bytes]]:
    """The words of the minimal-length double coset representatives, one
    list per length.

    I and J are iterables of 0-based simple indices.  The representatives
    are the points of the orbit of rho_J with no negative coordinate in I.
    The d-th list holds the words of the representatives of length d, in
    increasing order, each as `bytes` with one byte per letter; it is empty
    where no representative has that length.  The indices and the |W/W_J|
    points of the walk, held to the Weyl budget, are checked here, before
    the first list; no `WeylElement` is built.
    """
    I, start = _quotient_start(rs, I, J)
    mask = _signs(_width(rs, start), I)
    return ([word for nu, word in zip(packed, words) if nu & mask == mask]
            for packed, _, words in _walk(rs, start, range(rs.rank), None))


def double_quotient_reps(rs: RootSystem, I, J) -> list[WeylElement]:
    """The representatives of `iter_double_quotient_words` as elements, in
    (length, word) order."""
    I, start = _quotient_start(rs, I, J)
    return list(_elements(rs, start, range(rs.rank), I))


class CellPolynomial(NamedTuple("CellPolynomial", [("coeffs", tuple)])):
    """Polynomial in q with nonnegative integer coefficients; immutable."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]):
        if any(c < 0 for c in coeffs):
            raise LieparError("cell polynomial coefficients must be nonnegative")
        return super().__new__(cls, coeffs)

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


def stratum_poincare(rs: RootSystem, I, J, word) -> CellPolynomial:
    """Cell-dimension generating function of the stratum indexed by w.

    `word` is a word of w, 0-based letters in a tuple or `bytes`.  Sums
    q^l(x) over x in W_I w W_J that have no right descent in J, read off the
    W_I-orbit of w(rho_J).  w must be the minimal-length representative of
    its double coset and `word` reduced, checked as the walk builds its
    words: read right to left from rho_J, each letter meets a positive
    coordinate, and w(rho_J) has no negative coordinate in I.
    """
    I, J = _simple_indices(rs, I), _simple_indices(rs, J)
    _simple_indices(rs, word)
    point = _rho_off(rs, J)
    for i in reversed(word):
        if point[i] <= 0:
            raise NotMinimalError("w is not a minimal double-coset representative")
        point = rs.reflect(point, i)
    if any(point[i] < 0 for i in I):
        raise NotMinimalError("w is not a minimal double-coset representative")
    levels = orbit(rs, point, I)
    return CellPolynomial((0,) * len(word) + tuple(len(points) for points, _ in levels))
