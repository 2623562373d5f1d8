"""Exact character arithmetic on dominant weights.

Provides the Weyl dimension formula, weight multiplicities by the
Freudenthal recursion, one Brauer-Klimyk straightening that decomposes
tensor products (over the smaller factor's weight multiset) and, through
Newton's identity over Adams operations, exterior powers, breadth-first
generation certificates over minuscule and highest-short-root generators,
and the dominance order / orbit dimension combinatorics for affine
Grassmannian orbits.

All arithmetic is exact, in Python integers throughout.
Weights are tuples of integers in fundamental-weight coordinates.  A
`Character` is its decomposition into irreducibles, highest weight ->
multiplicity; a weight multiset is a mapping weight -> multiplicity.

Weight systems and Weyl dimensions are computed once per process, keyed by
root system and highest weight, and handed out read-only.  Every weight
system is held to the weight budget of `config` when it is asked for, and
the generation search to the two certificate bounds there.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from operator import add
from types import MappingProxyType
from typing import NamedTuple

from . import _linalg
from .config import CERTIFICATE_EXPANSIONS, CERTIFICATE_WORD_LENGTH, WEIGHT_BUDGET, check_budget
from .errors import BudgetError, InvariantError, LieparError
from .rootsys import RootSystem, Weight
from .weyl import orbit


def _check_dominant(weight: Weight) -> Weight:
    if any(c < 0 for c in weight):
        raise LieparError(f"weight {weight} is not dominant")
    return weight


def weyl_dimension(rs: RootSystem, weight) -> int:
    """dim V(lambda) by the Weyl dimension formula, exact."""
    return _weyl_dimension(rs, _check_dominant(rs.check_weight(weight)))


@functools.cache
def _weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    num = den = 1
    for co in rs.positive_coroots:
        num *= sum((lam[i] + 1) * co[i] for i in range(rs.rank))
        den *= sum(co)
    if num % den != 0:
        raise InvariantError("Weyl dimension formula must give an integer")
    return num // den


def straighten_signed(rs: RootSystem, weight: Weight) -> tuple[Weight, int]:
    """Dominant representative with the sign of the straightening word.

    Reflects at the first negative coordinate until none is left.  Returns
    (rep, 0) when the weight lies on a reflection wall.
    """
    w, sign = weight, 1
    while True:
        for i, c in enumerate(w):
            if c < 0:
                break
        else:
            return tuple(w), 0 if 0 in w else sign
        w = [a - c * b for a, b in zip(w, rs.cartan[i])]
        sign = -sign


def dominant_rep(rs: RootSystem, weight: Weight) -> Weight:
    """The dominant Weyl-orbit representative of a weight."""
    return straighten_signed(rs, weight)[0]


def weyl_orbit(rs: RootSystem, weight) -> list[Weight]:
    """The full Weyl orbit of a weight, as a sorted list."""
    levels = orbit(rs, dominant_rep(rs, rs.check_weight(weight)), range(rs.rank))
    return sorted(point for points, _ in levels for point in points)


def dominant_weight_multiplicities(rs: RootSystem, weight) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of V(lambda), by Freudenthal:

        ((lambda+rho)^2 - (mu+rho)^2) m(mu)
            = 2 sum_{alpha>0, k>=1} m(mu + k alpha) (mu + k alpha, alpha).

    Both sides are scaled by 6 so that every term is an integer.  The left
    factor is (lambda-mu, lambda+mu+2rho), and lambda-mu has integral root
    coordinates.
    """
    lam = _check_dominant(rs.check_weight(weight))
    rank = rs.rank
    # (root coords, weight coords, 6 (alpha, alpha)) of each positive root
    pos = list(zip(rs.positive_roots, rs._positive_weights, rs._positive_norm6))
    depth = {lam: (0,) * rank}  # dominant mu -> root coordinates of lambda - mu
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for ar, aw, _ in pos:
                cand = tuple(w[i] - aw[i] for i in range(rank))
                if all(c >= 0 for c in cand) and cand not in depth:
                    depth[cand] = tuple(d + a for d, a in zip(depth[w], ar))
                    nxt.append(cand)
        frontier = nxt
    # decreasing height of mu = increasing height of lambda - mu
    ordered = sorted(depth, key=lambda w: (-sum(depth[w]), w), reverse=True)

    mults: dict[Weight, int] = {lam: 1}
    for mu in ordered[1:]:
        acc6 = 0
        for ar, aw, norm6 in pos:
            mu6 = rs.form6(ar, mu)
            k = 1
            while True:
                xi = tuple(mu[i] + k * aw[i] for i in range(rank))
                m = mults.get(dominant_rep(rs, xi), 0)
                if m == 0:
                    break
                acc6 += m * (mu6 + k * norm6)
                k += 1
        denom6 = rs.form6(depth[mu], tuple(lam[i] + mu[i] + 2 for i in range(rank)))
        value, rem = divmod(2 * acc6, denom6)
        if rem or value < 0:
            raise InvariantError(
                f"Freudenthal multiplicity {2 * acc6}/{denom6} at {mu} is not natural")
        mults[mu] = value
    return mults


def weight_multiplicities(rs: RootSystem, weight) -> Mapping[Weight, int]:
    """The weight multiset of V(lambda) (Freudenthal + Weyl orbits), read-only.

    Its dimension is held to the weight budget on every call, cached or not.
    """
    lam = rs.check_weight(weight)
    dim = weyl_dimension(rs, lam)
    check_budget(WEIGHT_BUDGET, dim, f"weight system of dimension {dim}")
    return _weight_system(rs, lam)


@functools.cache
def _weight_system(rs: RootSystem, lam: Weight) -> Mapping[Weight, int]:
    out: dict[Weight, int] = {}
    for mu, m in dominant_weight_multiplicities(rs, lam).items():
        for w in weyl_orbit(rs, mu):
            out[w] = m
    if sum(out.values()) != weyl_dimension(rs, lam):
        raise InvariantError("weight multiset does not have the Weyl dimension")
    return MappingProxyType(out)


class Character(NamedTuple("Character", [("system", RootSystem), ("dominant_mults", Mapping)])):
    """A character, as the multiplicity of each irreducible V(lambda) in it."""

    __slots__ = ()

    def __new__(cls, system: RootSystem, dominant_mults: Mapping[Weight, int]):
        # a read-only view of a private copy, so a character never changes
        return super().__new__(cls, system, MappingProxyType(dict(dominant_mults)))

    def dimension(self) -> int:
        return sum(m * weyl_dimension(self.system, w) for w, m in self.dominant_mults.items())

    def sorted_dominant(self) -> list[tuple[Weight, int]]:
        """Highest <lambda, 2 rho-check> (twice the height) first, ties by weight."""
        return sorted(self.dominant_mults.items(), reverse=True,
                      key=lambda kv: (orbit_dimension(self.system, kv[0]), kv[0]))


def _brauer_klimyk(rs: RootSystem, shift: Weight, multiset: Mapping[Weight, int]) -> dict[Weight, int]:
    """Sum of m(nu) sign(w) [w(shift + nu + rho) - rho] over the multiset, w
    straightening shift + nu + rho: Klimyk's formula for V(shift) (x) chi over
    the weights of any Weyl-invariant virtual character chi, Brauer's with
    shift 0.  The sum is signed; `_natural` checks it is a character."""
    shift_rho = tuple(s + 1 for s in shift)
    acc: dict[Weight, int] = {}
    for nu, m in multiset.items():
        dom, sign = straighten_signed(rs, tuple(map(add, shift_rho, nu)))
        if sign:
            res = tuple(c - 1 for c in dom)
            acc[res] = acc.get(res, 0) + sign * m
    return acc


def _natural(acc: Mapping[Weight, int], divisor: int) -> dict[Weight, int]:
    """acc divided by divisor, zeros dropped; raises unless each quotient is a natural number."""
    for w, m in acc.items():
        if m % divisor or m < 0:
            raise InvariantError(f"multiplicity {m}/{divisor} at {w} is not natural")
    return {w: m // divisor for w, m in acc.items() if m}


def tensor_decompose(rs: RootSystem, left, right) -> Character:
    """Decomposition of V(lambda) (x) V(mu) into irreducibles (Klimyk).

    Iterates over the weight multiset of the smaller-dimension factor; the
    larger factor enters only through rho-shifted reflections.
    """
    lam, mu = _check_dominant(rs.check_weight(left)), _check_dominant(rs.check_weight(right))
    if weyl_dimension(rs, mu) > weyl_dimension(rs, lam):
        lam, mu = mu, lam
    return Character(rs, _natural(_brauer_klimyk(rs, lam, weight_multiplicities(rs, mu)), 1))


def decompose_weight_multiset(rs: RootSystem, multiset: dict[Weight, int]) -> dict[Weight, int]:
    """Write a Weyl-invariant weight multiset as a sum of irreducible
    characters, by Brauer's formula.  Raises unless every simple reflection
    fixes the multiset and the sum has nonnegative multiplicities."""
    rem = {w: m for w, m in multiset.items() if m}
    for w, m in rem.items():
        if any(c and rem.get(rs.reflect(w, i), 0) != m for i, c in enumerate(w)):
            raise InvariantError(f"multiset is not Weyl-invariant at {w}")
    return _natural(_brauer_klimyk(rs, (0,) * rs.rank, rem), 1)


def exterior_power_decompose(rs: RootSystem, weight, power: int) -> Character:
    """Decomposition of Lambda^k V(lambda) by Newton's identity, k Lambda^k =
    sum_{i=1..k} (-1)^(i-1) psi^i(V) Lambda^(k-i), the Adams operation psi^i(V)
    having the weights i nu of V: each psi^i(V) V(mu) is one Brauer-Klimyk
    straightening.  Runs to min(k, dim-k), as Lambda^k is dual to Lambda^(dim-k).
    binomial(dim, k) is held to the weight budget before anything is built."""
    lam = _check_dominant(rs.check_weight(weight))
    if power < 0:
        raise LieparError("exterior power must be nonnegative")
    if power == 0:
        return Character(rs, {(0,) * rs.rank: 1})
    dim = weyl_dimension(rs, lam)
    if power > dim:
        return Character(rs, {})
    check_budget(WEIGHT_BUDGET, dim, f"weight system of dimension {dim}")
    depth, size = min(power, dim - power), 1
    for i in range(depth):  # size runs through binomial(dim, i + 1), increasing
        size = size * (dim - i) // (i + 1)
        check_budget(WEIGHT_BUDGET, size, f"exterior power of dimension binomial({dim}, {power})")
    weights = _weight_system(rs, lam).items()
    adams = {i: {tuple(i * c for c in nu): m for nu, m in weights} for i in range(1, depth + 1)}
    powers = [{(0,) * rs.rank: 1}]  # powers[j] is Lambda^j V, highest weight -> multiplicity
    for j in range(1, depth + 1):
        acc: dict[Weight, int] = {}
        for i in range(1, j + 1):
            for mu, n in powers[j - i].items():
                for res, m in _brauer_klimyk(rs, mu, adams[i]).items():
                    acc[res] = acc.get(res, 0) + (-1) ** (i - 1) * n * m
        powers.append(_natural(acc, j))
    top = powers[depth]
    if depth < power:
        top = {dominant_rep(rs, tuple(-c for c in mu)): n for mu, n in top.items()}
    character = Character(rs, top)
    if character.dimension() != size:
        raise InvariantError("exterior power does not have dimension binomial(dim, power)")
    return character


def dominance_leq(rs: RootSystem, lower, upper) -> bool:
    """lambda <= mu iff mu - lambda is a nonnegative integer root combination
    c: the kernel of [C^T | lambda - mu] is the line of (c, 1), so its
    primitive generator (x, t) has c = x / t, integral exactly when t = +-1."""
    lam, mu = _check_dominant(rs.check_weight(lower)), _check_dominant(rs.check_weight(upper))
    rows = [[a[j] for a in rs.cartan] + [l - m] for j, (l, m) in enumerate(zip(lam, mu))]
    *x, t = _linalg.integer_kernel(rows, rs.rank + 1)[0]
    return t in (1, -1) and all(t * c >= 0 for c in x)


def orbit_dimension(rs: RootSystem, weight) -> int:
    """Dimension of the orbit attached to a dominant (co)weight: <lambda, 2 rho-check>."""
    lam = _check_dominant(rs.check_weight(weight))
    return sum(lam[i] * co[i] for co in rs.positive_coroots for i in range(rs.rank))


# -- generation certificates -------------------------------------------------


def generator_weights(rs: RootSystem) -> list[Weight]:
    """Minuscule fundamental weights plus the highest short root, deduplicated."""
    gens = {tuple(int(j == i - 1) for j in range(rs.rank)) for i in rs.minuscule_weights()}
    gens.add(rs.highest_short_root())
    return sorted(gens, key=lambda w: (weyl_dimension(rs, w), w))


class CertificateEntry(NamedTuple):
    fundamental_index: int  # 1-based
    word: tuple[Weight, ...]
    multiplicity: int


class GenerationCertificate(NamedTuple):
    generators: tuple[Weight, ...]
    entries: tuple[CertificateEntry, ...]

    def verify(self, rs: RootSystem) -> bool:
        """Entries for w1..wn in order, each a nonempty word over the generators of rs with its multiplicity."""
        gens = tuple(generator_weights(rs))
        if self.generators != gens or [e.fundamental_index for e in self.entries] != list(range(1, rs.rank + 1)):
            return False
        for i, entry in enumerate(self.entries):
            target = tuple(int(j == i) for j in range(rs.rank))
            if (not entry.word or not set(entry.word) <= set(gens)
                    or not 0 < entry.multiplicity == word_multiplicity(rs, entry.word, target)):
                return False
        return True


def word_multiplicity(rs: RootSystem, word, target) -> int:
    """Multiplicity of V(target) in the tensor product over the word."""
    word = [rs.check_weight(w) for w in word]
    target = rs.check_weight(target)
    if not word:
        return 0
    current: dict[Weight, int] = {word[0]: 1}
    for gen in word[1:]:
        nxt: dict[Weight, int] = {}
        for lam, mult in current.items():
            for nu, c in tensor_decompose(rs, lam, gen).dominant_mults.items():
                nxt[nu] = nxt.get(nu, 0) + mult * c
        current = nxt
    return current.get(target, 0)


def generation_certificate(rs: RootSystem) -> GenerationCertificate:
    """Find, for every fundamental weight, a tensor word over the generators
    whose characteristic-zero decomposition contains it.

    Bounded breadth-first search, expanding the discovered summands one word
    length at a time, each length in order of (dimension, weight), over
    words of at most CERTIFICATE_WORD_LENGTH letters and at most
    CERTIFICATE_EXPANSIONS tensor products.  Raises BudgetError naming the
    bound that stopped the search and the fundamental weights it left
    uncertified.
    """
    gens = generator_weights(rs)
    targets = {tuple(1 if j == i else 0 for j in range(rs.rank)): i + 1 for i in range(rs.rank)}

    def order(w: Weight) -> tuple[int, Weight]:
        return weyl_dimension(rs, w), w

    discovered: dict[Weight, tuple[Weight, ...]] = {g: (g,) for g in gens}
    level = gens  # the words of one length, sorted by (dimension, weight)
    expansions = 0
    for _ in range(CERTIFICATE_WORD_LENGTH - 1):
        found: list[Weight] = []
        for lam in level:
            if all(t in discovered for t in targets):
                break
            for g in gens:
                if expansions == CERTIFICATE_EXPANSIONS:
                    break
                expansions += 1
                for nu in sorted(tensor_decompose(rs, lam, g).dominant_mults, key=order):
                    if nu not in discovered:
                        discovered[nu] = discovered[lam] + (g,)
                        found.append(nu)
        level = sorted(found, key=order)
    missing = [idx for t, idx in targets.items() if t not in discovered]
    if missing:
        bound = (f"CERTIFICATE_EXPANSIONS = {CERTIFICATE_EXPANSIONS} tensor products"
                 if expansions == CERTIFICATE_EXPANSIONS
                 else f"CERTIFICATE_WORD_LENGTH = {CERTIFICATE_WORD_LENGTH} letters")
        raise BudgetError(f"generation search reached {bound}, a fixed bound in liepar.config; "
                          "uncertified fundamental weights: " + ", ".join(f"w{i}" for i in sorted(missing)))
    entries = []
    for t, idx in targets.items():  # in index order
        mult = word_multiplicity(rs, discovered[t], t)
        if mult <= 0:
            raise InvariantError(f"certificate word for w{idx} has multiplicity {mult}")
        entries.append(CertificateEntry(idx, discovered[t], mult))
    return GenerationCertificate(tuple(gens), tuple(entries))
