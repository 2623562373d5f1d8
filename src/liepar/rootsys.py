"""Exact root-system kernel.

Root systems are built from Cartan type labels in Bourbaki numbering and
carry every lattice-level invariant used downstream: the full root list in
simple-root coordinates, coroots in simple-coroot coordinates, highest and
highest short roots, coroot coefficients of the highest root, the dual
Coxeter number, minuscule fundamental weights and the weight/root lattice
quotient.  Each root's weight coordinates, norm and coroot are computed once,
when the system is built, and every later question reads those tables.

Coordinate conventions
----------------------
* ``cartan[i][j]`` is the pairing of the i-th simple root with the j-th
  simple coroot, so a root with simple-root coordinates ``c`` has
  fundamental-weight coordinates ``c @ cartan``.
* The invariant form normalizes long roots to squared length 2 in every
  irreducible factor.  It is kept as the integers 6 d_i, where
  d_i = (alpha_i, alpha_i)/2 is 1, 1/2 or 1/3, so six times any pairing of
  integral vectors is an integer.

Bourbaki numbering per family (nodes are 1-based):

=======  ===========================================================
A_n      chain 1 - 2 - ... - n
B_n      chain, alpha_n short (a[n-1][n] = -2)
C_n      chain, alpha_n long  (a[n][n-1] = -2)
D_n      chain 1..n-2 with both n-1 and n attached to n-2
E_n      chain 1 - 3 - 4 - ... - n with 2 attached to 4
F_4      chain, alpha_1, alpha_2 long (a[2][3] = -2)
G_2      alpha_1 short (a[2][1] = -3)
=======  ===========================================================
"""

from __future__ import annotations

import functools
import math
import re

from . import _linalg
from .config import ROOT_BUDGET, check_budget
from .errors import InvalidTypeError, InvariantError, LieparError, ReducibleError

Weight = tuple[int, ...]
RootCoords = tuple[int, ...]


def _cartan_block(family: str, rank: int) -> tuple[list[list[int]], list[int]]:
    """The Cartan matrix of an irreducible type in Bourbaki numbering, and its
    6 d_i, where d_i = (alpha_i, alpha_i)/2 and long roots have d_i = 1."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    d6 = [6] * rank

    def join(*edges):
        for i, j in edges:
            a[i - 1][j - 1] = a[j - 1][i - 1] = -1

    chain = [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        join(*chain[:-1], (rank - 2, rank))
    elif family == "E":
        join((1, 3), (2, 4), *chain[2:])
    else:
        join(*chain)
    # a bond a[i][j] = -2 or -3 makes alpha_j, and the nodes joined to it by
    # single bonds, short: d_j = 1/2 or 1/3
    if family == "B":
        a[rank - 2][rank - 1], d6[-1] = -2, 3
    elif family == "C":
        a[rank - 1][rank - 2], d6[:-1] = -2, [3] * (rank - 1)
    elif family == "F":
        a[1][2], d6[2:] = -2, [3, 3]
    elif family == "G":
        a[1][0], d6[0] = -3, 2
    return a, d6


def _coxeter_number(family: str, rank: int) -> int:
    """The Coxeter number h, so that the type has rank * h roots (Bourbaki,
    Plates I-IX); the one check that a type exists."""
    if family == "A" and rank >= 1:
        return rank + 1
    if family in ("B", "C") and rank >= 2:
        return 2 * rank
    if family == "D" and rank >= 3:
        return 2 * rank - 2
    if family == "E" and rank in (6, 7, 8):
        return {6: 12, 7: 18, 8: 30}[rank]
    if family == "F" and rank == 4:
        return 12
    if family == "G" and rank == 2:
        return 6
    raise InvalidTypeError(f"invalid Cartan type {family}{rank}")


def _height_product(roots) -> int:
    """prod (ht a + 1)/ht a over positive roots a.  Over all of them it is
    |W| (Macdonald's product formula), and over those not supported in J
    it is |W/W_J|, since the roots supported in J are those of W_J."""
    heights = [sum(r) for r in roots]
    return math.prod(h + 1 for h in heights) // math.prod(heights)


def parse_type_label(label) -> tuple[tuple[str, int], ...]:
    """Parse 'E8', 'A1xA1', [('B', 3)], ... into a factor tuple."""
    if isinstance(label, (list, tuple)):
        factors = tuple((str(f).upper(), int(r)) for f, r in label)
    else:
        factors, text = (), str(label).strip()
        for part in re.split(r"[x*+ ]+", text) if text else ():
            m = re.fullmatch(r"([A-Ga-g])(\d+)", part)
            if not m:  # an empty part is a separator at either end
                raise InvalidTypeError(f"cannot parse type label {part or text!r}")
            factors += ((m.group(1).upper(), int(m.group(2))),)
    if not factors:
        raise InvalidTypeError("empty type label")
    # each type is checked, then the tables' size, before any is built:
    # LIEPAR_BUDGET may raise that guard, but an override set low, to cap an
    # enumeration, refuses no smaller system
    roots = sum(r * _coxeter_number(family, r) for family, r in factors)
    rank = sum(r for _, r in factors)
    if roots * rank > ROOT_BUDGET:
        name = "x".join(f"{family}{r}" for family, r in factors)
        check_budget(ROOT_BUDGET, roots * rank, f"root table of {name} ({roots} roots x rank {rank})")
    return factors


class RootSystem:
    """Immutable root system of a (possibly reducible) finite Cartan type."""

    def __init__(self, type_label):
        self.factors = parse_type_label(type_label)
        self.rank = sum(r for _, r in self.factors)
        cartan: list[list[int]] = [[0] * self.rank for _ in range(self.rank)]
        lengths: list[int] = []
        offset = 0
        for family, rank in self.factors:
            block, d6 = _cartan_block(family, rank)
            for i, row in enumerate(block):
                cartan[offset + i][offset:offset + rank] = row
            lengths.extend(d6)
            offset += rank
        self.cartan: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in cartan)
        self._d6 = tuple(lengths)
        # per positive root, in the order of positive_roots: its weight
        # coordinates, 6 (alpha, alpha) and its coroot; a negative root's are
        # the negated weight and coroot and the same norm
        weights = self._enumerate_roots()
        self._positive_weights = tuple(weights[r] for r in self.positive_roots)
        self._positive_norm6 = tuple(
            self.form6(r, w) for r, w in zip(self.positive_roots, self._positive_weights))
        self.positive_coroots: tuple[RootCoords, ...] = tuple(
            self._coroot(r, n) for r, n in zip(self.positive_roots, self._positive_norm6))
        negated = [tuple(-c for c in co) for co in self.positive_coroots]
        self._coroots = dict(zip(self.roots, self.positive_coroots + tuple(negated)))
        self._norm6 = dict(zip(self.roots, self._positive_norm6 * 2))

    # -- construction -----------------------------------------------------

    def _enumerate_roots(self) -> dict[RootCoords, Weight]:
        """Close the simple roots under the simple reflections; return each
        root's weight coordinates.  A root travels with them, and their j-th
        entry is its pairing with the j-th simple coroot, so s_j moves the
        root by that entry and its weight by that multiple of cartan[j]."""
        cartan = self.cartan
        simple = [tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)]
        seen = dict(zip(simple, cartan))
        queue = list(seen.items())
        while queue:
            root, weight = queue.pop()
            for j, c in enumerate(weight):
                if c:
                    new = list(root)
                    new[j] -= c
                    t = tuple(new)
                    if t not in seen:
                        seen[t] = tuple([w - c * a for w, a in zip(weight, cartan[j])])
                        queue.append((t, seen[t]))
        positive = sorted(
            (r for r in seen if all(c >= 0 for c in r)),
            key=lambda r: (sum(r), r),
        )
        self.positive_roots: tuple[RootCoords, ...] = tuple(positive)
        self.roots: tuple[RootCoords, ...] = tuple(positive) + tuple(
            tuple(-c for c in r) for r in positive
        )
        return seen

    # -- basic pairings ----------------------------------------------------

    def check_weight(self, weight) -> Weight:
        """A weight as a tuple of ints, refused unless it has one coordinate per simple root."""
        w = tuple(int(c) for c in weight)
        if len(w) != self.rank:
            raise LieparError(f"weight {list(w)} does not have {self.rank} coordinates, "
                              f"the rank of {self.type_name()}")
        return w

    def form6(self, root, weight) -> int:
        """6 (beta, lambda): beta in simple-root and lambda in fundamental-weight
        coordinates, using (alpha_j, omega_i) = d_j delta_ij."""
        return sum(root[j] * self._d6[j] * weight[j] for j in range(self.rank))

    def _coroot(self, root: RootCoords, norm6: int) -> RootCoords:
        """Simple-coroot coordinates of alpha-check = 2 alpha/(alpha, alpha),
        given alpha in root coordinates and 6 (alpha, alpha)."""
        coords = []
        for i in range(self.rank):
            c, rem = divmod(2 * root[i] * self._d6[i], norm6)
            if rem:
                raise InvariantError("coroot coordinates must be integral")
            coords.append(c)
        return tuple(coords)

    def _root_entry(self, table: dict, root):
        entry = table.get(tuple(root))
        if entry is None:
            raise LieparError(f"{tuple(root)} is not a root of {self.type_name()}")
        return entry

    def root_norm6(self, root: RootCoords) -> int:
        """6 (alpha, alpha), an integer as for `form6`, of a root alpha in root coordinates."""
        return self._root_entry(self._norm6, root)

    def coroot(self, root: RootCoords) -> RootCoords:
        """Simple-coroot coordinates of the coroot of a root."""
        return self._root_entry(self._coroots, root)

    # -- derived data -------------------------------------------------------

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank

    def reflect(self, weight, i: int) -> Weight:
        """Simple reflection s_i acting on fundamental-weight coordinates."""
        c = weight[i]
        return tuple([x - c * a for x, a in zip(weight, self.cartan[i])])

    def is_irreducible(self) -> bool:
        return len(self.factors) == 1

    def irreducible_type(self) -> tuple[str, int]:
        """(family, rank) of an irreducible system; a product raises ReducibleError."""
        if not self.is_irreducible():
            raise ReducibleError(f"operation requires an irreducible system, got {self.type_name()}")
        return self.factors[0]

    def irreducible_factors(self) -> list["RootSystem"]:
        return [build_root_system([f]) for f in self.factors]

    def type_name(self) -> str:
        return "x".join(f"{fam}{rk}" for fam, rk in self.factors)

    def highest_root(self) -> Weight:
        """The highest root, in fundamental-weight coordinates."""
        self.irreducible_type()
        theta = self.positive_roots[-1]
        if not all(all(a >= b for a, b in zip(theta, r)) for r in self.positive_roots):
            raise InvariantError("highest root must dominate every positive root")
        return self._positive_weights[-1]

    def highest_short_root(self) -> Weight:
        """The dominant short root (equals the highest root when simply laced)."""
        self.irreducible_type()
        # positive_roots ascend in (height, coords), so the last short one is highest
        short = min(self._positive_norm6)
        top = max(i for i, n in enumerate(self._positive_norm6) if n == short)
        w = self._positive_weights[top]
        if any(c < 0 for c in w):
            raise InvariantError("highest short root must be dominant")
        return w

    def coroot_coefficients(self) -> tuple[tuple[int, ...], int]:
        """Coefficients n_i of the highest root's coroot on the simple coroots.

        Returns (coefficients, max coefficient).
        """
        self.irreducible_type()
        co = self.positive_coroots[-1]
        return co, max(co)

    def dual_coxeter_number(self) -> int:
        co, _ = self.coroot_coefficients()
        return 1 + sum(co)

    def minimal_orbit_dimension(self) -> int:
        return 2 * self.dual_coxeter_number() - 2

    def coxeter_number(self) -> int:
        """ht(theta) + 1, theta the highest root."""
        self.irreducible_type()
        return sum(self.positive_roots[-1]) + 1

    def weyl_order(self) -> int:
        return _height_product(self.positive_roots)

    @functools.cached_property
    def _coroot_maxima(self) -> tuple[int, ...]:
        """The largest coordinate k over the positive coroots, for each k."""
        return tuple(map(max, zip(*self.positive_coroots)))

    def minuscule_weights(self) -> tuple[int, ...]:
        """1-based indices i with <w_i, alpha-check> <= 1 for all positive roots."""
        self.irreducible_type()
        return tuple(i + 1 for i, m in enumerate(self._coroot_maxima) if m == 1)

    def fundamental_group(self) -> tuple[int, ...]:
        """Weight lattice modulo root lattice, as its elementary divisors > 1
        in divisibility order."""
        return tuple(_linalg.elementary_divisors([list(r) for r in self.cartan]))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "type_label": [[fam, rk] for fam, rk in self.factors],
            "cartan": [list(r) for r in self.cartan],
            "roots": [list(r) for r in self.roots],
        }

    def __repr__(self) -> str:
        return f"RootSystem({self.type_name()!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, RootSystem) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)


def build_root_system(type_label) -> RootSystem:
    """The root system of a type label such as 'E8' or 'A1xA1'.

    Each type is built once per process; every label of it gets that one
    (immutable) instance.
    """
    return _build_once(parse_type_label(type_label))


@functools.cache
def _build_once(factors: tuple[tuple[str, int], ...]) -> RootSystem:
    return RootSystem(factors)
