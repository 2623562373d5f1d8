"""Rational polyhedral fans and T-stable affine pavings of resolution fibers.

A fan is a set of cones on a common ray list, closed under faces and
intersections; every fan the library builds is held to these axioms by its
one constructor, `Fan.from_max_cones`, so every operation can rely on them.
Given a refinement of a full-dimensional cone tau that is smooth and
carries a strictly convex support function, the fiber over the
torus-fixed point is paved by cells read off from positive walls: order
the maximal cones by the value of their covector at a generic point,
intersect each maximal cone with its positive walls to get gamma(sigma),
and collect the cones sandwiched between gamma(sigma) and sigma.  The cell attached to sigma has complex dimension
equal to the codimension of gamma(sigma).

All geometry is exact and runs over the integers: rays, span equations and
facet normals are primitive integer vectors, the last two read off integer
kernels (`_linalg.integer_kernel`), so every membership or wall test is an
integer dot product.  The linear program that finds a support function
pivots integer rows, and the covectors and heights it returns are integers.
"""

from __future__ import annotations

import functools
import itertools
import random
from math import gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from . import _linalg
from .errors import InfeasibleError, InvariantError, LieparError
from .weyl import CellPolynomial

Ray = tuple[int, ...]
ConeKey = tuple[int, ...]  # sorted ray indices; () is the zero cone


def _primitive(vector) -> Ray:
    """The primitive integer vector on the ray of a nonzero integer vector."""
    g = gcd(*vector)
    if g == 0:
        raise LieparError("zero vector is not a ray")
    return tuple(x // g for x in vector)


def _dot(u, v):
    """The dot product of two integer vectors."""
    return sum(map(mul, u, v))


class Cone:
    """A rational cone given by generating rays.

    Its H-representation is found once, by brute force over (dim-1)-subsets
    of rays, which is adequate at desk scale.  Every face is an intersection
    of facets (Ziegler, Lectures on Polytopes, section 2.1).
    """

    def __init__(self, rays: tuple[Ray, ...], ambient_dim: int):
        self.rays = tuple(rays)
        self.ambient_dim = ambient_dim

    @functools.cached_property
    def _equations(self) -> tuple[Ray, ...]:
        """Primitive integer equations of the span of the rays."""
        return tuple(map(tuple, _linalg.integer_kernel(self.rays, self.ambient_dim)))

    @functools.cached_property
    def dim(self) -> int:
        return self.ambient_dim - len(self._equations)

    @functools.cached_property
    def _hrep(self) -> tuple[tuple[Ray, ...], tuple[tuple[int, ...], ...]]:
        """(inward primitive facet normals, ray positions on each facet).

        A (dim-1)-subset of rays spans a candidate hyperplane of the span
        when the kernel it leaves there is a line; its normal, which lies in
        the span, is a facet normal when the rays all lie on one side.  The
        primitive inward normal names the facet, however many subsets find it.
        """
        facets: dict[Ray, tuple[int, ...]] = {}
        for subset in itertools.combinations(self.rays, self.dim - 1) if self.dim else ():
            kernel = _linalg.integer_kernel(subset + self._equations, self.ambient_dim)
            if len(kernel) != 1:
                continue
            u = tuple(kernel[0])
            values = [_dot(u, r) for r in self.rays]
            if all(v <= 0 for v in values):
                u, values = tuple(-x for x in u), [-v for v in values]
            elif not all(v >= 0 for v in values):
                continue
            facets.setdefault(u, tuple(p for p, v in enumerate(values) if v == 0))
        return tuple(facets), tuple(facets.values())

    def contains(self, point) -> bool:
        if any(_dot(eq, point) for eq in self._equations):
            return False
        return all(_dot(u, point) >= 0 for u in self._hrep[0])

    def faces(self) -> set[tuple[Ray, ...]]:
        """Every face, as its rays in cone order: the cone, () and each
        intersection of facets."""
        facets = [frozenset(f) for f in self._hrep[1]]
        found = {frozenset(range(len(self.rays))), frozenset()}
        layer = set(facets)
        while layer:
            found |= layer
            layer = {f & g for f in layer for g in facets} - found
        return {tuple(self.rays[p] for p in sorted(face)) for face in found}


def _maximal(cones) -> list[ConeKey]:
    """The cones contained in no other, in the given order."""
    maximal: list[frozenset] = []
    for c in sorted(map(frozenset, cones), key=len, reverse=True):
        if not any(c < m for m in maximal):
            maximal.append(c)
    keep = set(maximal)
    return [c for c in cones if frozenset(c) in keep]


class Fan(NamedTuple("Fan", [("rank", int), ("rays", tuple), ("cones", tuple)])):
    """A fan: primitive rays and cones (ray-index tuples) closed under faces.

    The tuple (rank, rays, cones).  Its `Cone` objects, maximal cones and
    walls are derived once, lazily, and cached on the instance, which has
    no `__slots__` for them; equality and hashing see only the fields.
    """

    @classmethod
    def from_max_cones(cls, rank: int, rays, max_cones) -> "Fan":
        """The fan of the cones on `max_cones` and all their faces, refused
        unless it satisfies the fan axioms (`_check_axioms`)."""
        prim = tuple(_primitive(r) for r in rays)
        if len(set(prim)) != len(prim):
            raise LieparError("duplicate rays")
        index = {r: i for i, r in enumerate(prim)}
        cone_keys: set[ConeKey] = set()
        for cone in max_cones:
            for face in Cone(tuple(prim[i] for i in cone), rank).faces():
                cone_keys.add(tuple(sorted(index[r] for r in face)))
        fan = cls(rank, prim, tuple(sorted(cone_keys, key=lambda c: (len(c), c))))
        _check_axioms(fan)
        return fan

    def cone_rays(self, key: ConeKey) -> tuple[Ray, ...]:
        return tuple(self.rays[i] for i in key)

    @functools.cached_property
    def _cone_table(self) -> MappingProxyType:
        return MappingProxyType({key: Cone(self.cone_rays(key), self.rank) for key in self.cones})

    def cone(self, key: ConeKey) -> Cone:
        return self._cone_table[key]

    def facets(self, key: ConeKey) -> tuple[ConeKey, ...]:
        """The facets of a cone, as ray-index tuples."""
        return tuple(tuple(key[p] for p in f) for f in self.cone(key)._hrep[1])

    @functools.cached_property
    def _maximal_cones(self) -> tuple[ConeKey, ...]:
        return tuple(sorted(_maximal(self.cones)))

    def maximal_cones(self) -> tuple[ConeKey, ...]:
        return self._maximal_cones

    def dim(self, key: ConeKey) -> int:
        return self.cone(key).dim

    @functools.cached_property
    def walls(self) -> MappingProxyType:
        """Each facet of a maximal cone -> the maximal cones it bounds."""
        walls: dict[ConeKey, tuple[ConeKey, ...]] = {}
        for key in self.maximal_cones():
            for facet in self.facets(key):
                walls[facet] = walls.get(facet, ()) + (key,)
        return MappingProxyType(walls)

    def support_contains(self, point) -> bool:
        return any(self.cone(c).contains(point) for c in self.maximal_cones())

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "rays": [list(r) for r in self.rays],
            "cones": [list(c) for c in self.cones],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Fan":
        if not isinstance(data, dict) or not {"rank", "rays", "cones"} <= data.keys():
            raise LieparError('a fan is a JSON object with "rank", "rays" and "cones"')
        rank = data["rank"]
        if type(rank) is not int or rank < 1:
            raise LieparError(f"fan rank must be a positive integer, got {rank!r}")
        rays = _linalg.integer_rows(data["rays"], "rays")
        for ray in rays:
            if len(ray) != rank:
                raise LieparError(f"ray {list(ray)} does not have {rank} coordinates")
        cones = [tuple(sorted(c)) for c in _linalg.integer_rows(data["cones"], "cones")]
        for cone in cones:
            if any(not 0 <= i < len(rays) for i in cone):
                raise LieparError(f"cone {list(cone)} names a ray outside 0..{len(rays) - 1}")
            if len(set(cone)) != len(cone):
                raise LieparError(f"cone {list(cone)} names a ray twice")
        fan = cls.from_max_cones(rank, rays, _maximal(cones))
        missing = set(cones) - set(fan.cones)
        if missing:
            raise LieparError(f"cone list is not closed under faces near {sorted(missing)}")
        return fan


def _cone_is_smooth(fan: Fan, key: ConeKey) -> bool:
    if len(key) != fan.dim(key):
        return False
    divisors = _linalg.smith_normal_form([list(r) for r in fan.cone_rays(key)])
    return all(d == 1 for d in divisors)


def _check_axioms(fan: Fan) -> None:
    """Raise unless every maximal cone is strongly convex and every two meet
    in the cone on their common rays.  That is all of it: a face of a
    strongly convex cone is strongly convex, and `Fan.from_max_cones` adds
    every face itself."""
    for key in fan.maximal_cones():
        cone = fan.cone(key)
        if any(cone.contains(tuple(-x for x in r)) for r in cone.rays):
            raise LieparError(f"cone {key} is not strongly convex")
    for a, b in itertools.combinations(fan.maximal_cones(), 2):
        if not _separated(fan, a, b):
            raise LieparError(f"cones {a} and {b} do not meet in a common face")


def _separated(fan: Fan, a: ConeKey, b: ConeKey) -> bool:
    """Whether some u has u.r = 0 on the rays common to a and b, u.r >= 1 on
    a's other rays and u.r <= -1 on b's: exactly when a and b meet in the
    cone on their common rays, a face of each (Cox-Little-Schenck, Toric
    Varieties, Lemma 1.2.13).  One feasibility program, u split in two parts
    and one surplus variable per inequality."""
    common = set(a) & set(b)
    beyond = ([fan.rays[i] for i in a if i not in common]
              + [tuple(-x for x in fan.rays[i]) for i in b if i not in common])
    width = 2 * fan.rank + len(beyond)
    rows = [_split_row(width, (0, fan.rays[i])) for i in sorted(common)]
    for k, r in enumerate(beyond):
        rows.append(_split_row(width, (0, r)))
        rows[-1][2 * fan.rank + k] = -1
    return _phase_one(rows, [0] * len(common) + [1] * len(beyond), width) is not None


def validate_fan(fan: Fan, tau: "Fan | None" = None) -> dict:
    """Structural report {simplicial, smooth, complete, refines_tau}, the
    last None without tau.  Every fan the library builds is already checked
    against the fan axioms (`Fan.from_max_cones`)."""
    return {
        "simplicial": all(len(c) == fan.dim(c) for c in fan.maximal_cones()),
        "smooth": all(_cone_is_smooth(fan, c) for c in fan.maximal_cones()),
        "complete": _is_complete(fan),
        "refines_tau": _refines(fan, tau) if tau is not None else None,
    }


def _is_complete(fan: Fan) -> bool:
    maxes = fan.maximal_cones()
    return (bool(maxes) and all(fan.dim(c) == fan.rank for c in maxes)
            and all(len(owners) == 2 for owners in fan.walls.values()))


def _tau_cone(tau: Fan) -> Cone:
    tau_max = tau.maximal_cones()
    if len(tau_max) != 1 or tau.dim(tau_max[0]) != tau.rank:
        raise LieparError("tau must consist of a single full-dimensional cone")
    return tau.cone(tau_max[0])


def _on_tau_wall(tau_cone: Cone, rays) -> bool:
    """Whether rays that lie in tau lie together on one facet of tau."""
    return any(all(_dot(u, r) == 0 for r in rays) for u in tau_cone._hrep[0])


def _refines(fan: Fan, tau: Fan) -> bool:
    """Support equality |fan| = |tau| for tau a single full-dimensional cone."""
    if fan.rank != tau.rank:
        raise LieparError(f"fan has rank {fan.rank} but tau has rank {tau.rank}")
    tau_cone = _tau_cone(tau)
    for key in fan.maximal_cones():
        if fan.dim(key) != fan.rank:
            return False
        if not all(tau_cone.contains(r) for r in fan.cone_rays(key)):
            return False
    # interior facets shared by two cones, boundary facets inside tau's walls
    for facet, owners in fan.walls.items():
        if len(owners) == 2:
            continue
        if len(owners) != 1 or not _on_tau_wall(tau_cone, fan.cone_rays(facet)):
            return False
    return all(fan.support_contains(r) for r in tau.rays)


def star_subdivision(fan: Fan, ray) -> Fan:
    """Stellar subdivision of a fan along a primitive ray in its support."""
    new_ray = _primitive(ray)
    if len(new_ray) != fan.rank:
        raise LieparError(f"ray {new_ray} does not have {fan.rank} coordinates")
    if not fan.support_contains(new_ray):
        raise LieparError(f"ray {new_ray} lies outside the support of the fan")
    new_max: list[tuple[Ray, ...]] = []
    for key in fan.maximal_cones():
        cone = fan.cone(key)
        if not cone.contains(new_ray) or new_ray in cone.rays:
            new_max.append(cone.rays)
            continue
        # the new ray lies in the cone, so off a facet exactly when off its hyperplane
        for u, facet in zip(*cone._hrep):
            if _dot(u, new_ray) != 0:
                new_max.append(tuple(cone.rays[p] for p in facet) + (new_ray,))
    rays = list(dict.fromkeys([r for c in new_max for r in c]))
    index = {r: i for i, r in enumerate(rays)}
    return Fan.from_max_cones(fan.rank, rays, [[index[r] for r in c] for c in new_max])


class PLFunction(NamedTuple):
    """A continuous piecewise linear function given per maximal cone."""

    heights: tuple[int, ...]                   # one value per ray
    covectors: dict[ConeKey, tuple[int, ...]]  # per maximal cone


def _interior_walls(fan: Fan) -> list[tuple[ConeKey, ConeKey, ConeKey]]:
    """(one cone, the other cone, the wall) for each wall bounding two cones."""
    return [(*owners, wall) for wall, owners in fan.walls.items() if len(owners) == 2]


def _split_row(width: int, *terms) -> list[int]:
    """The row of sum <u_c, v> over the terms (c, v), each unknown covector
    u_c split into nonnegative parts: u_c[j] = x[c + 2j] - x[c + 2j + 1]."""
    out = [0] * width
    for c, v in terms:
        for j, x in enumerate(v):
            out[c + 2 * j] += x
            out[c + 2 * j + 1] -= x
    return out


def _phase_one(rows, rhs, nvars: int) -> list[int] | None:
    """A point x >= 0 with rows @ x = rhs (rhs >= 0), scaled to integers, or None.

    Phase 1 of the simplex method over Z with Bland's rule (lowest entering
    column, ratio ties to the lowest basic variable); the artificials, one per
    row, never return once they leave, so only the original columns are kept.
    Each row is a positive multiple of its rational value: a pivot on p > 0
    maps it to p*row - f*pivot_row over its gcd (Edmonds 1967, Bareiss 1968),
    which moves no sign or ratio the rule reads.  The answer is the rational
    one times the lcm of the basic variables' own entries.
    """
    tableau = [list(row) + [b] for row, b in zip(rows, rhs)]
    basis = [nvars + i for i in range(len(rows))]
    cost = [-sum(row[j] for row in tableau) for j in range(nvars + 1)]  # cost[-1] = -objective
    while (enter := next((j for j in range(nvars) if cost[j] < 0), None)) is not None:
        leave, *rest = [i for i, row in enumerate(tableau) if row[enter] > 0]
        for i in rest:  # the least ratio rhs / entry, compared crosswise
            d = tableau[i][-1] * tableau[leave][enter] - tableau[leave][-1] * tableau[i][enter]
            if d < 0 or d == 0 and basis[i] < basis[leave]:
                leave = i
        pivot, p = tableau[leave], tableau[leave][enter]
        for row in tableau + [cost]:
            f = row[enter]
            if row is not pivot and f:
                row[:] = [p * a - f * b for a, b in zip(row, pivot)]
                if (g := gcd(*row)) > 1:
                    row[:] = [a // g for a in row]
        basis[leave] = enter
    if cost[-1]:
        return None
    basic = {j: row for j, row in zip(basis, tableau) if j < nvars}
    scale = lcm(*(row[j] for j, row in basic.items()))
    return [basic[j][-1] * (scale // basic[j][j]) if j in basic else 0 for j in range(nvars)]


def strictly_convex_support(fan: Fan) -> PLFunction:
    """A strictly convex support function, found by one exact linear program.

    The unknowns are one covector per maximal cone, each coordinate split
    into two nonnegative parts.  The covectors of all cones on a ray agree
    on it, so every wall is continuous, and across each interior wall each
    covector is at least 1 below the other cone's on every ray beyond the
    wall (one surplus variable per such row).  These conditions are
    invariant under scaling, so the margin 1 loses nothing: InfeasibleError
    means the fan is not regular.  The answer is re-verified independently.
    """
    maxes = fan.maximal_cones()
    if not maxes:
        raise LieparError("fan has no maximal cones")
    if any(fan.dim(c) != fan.rank for c in maxes):
        raise LieparError("support function search needs full-dimensional maximal cones")
    d = fan.rank
    column = {key: 2 * d * k for k, key in enumerate(maxes)}
    beyond = [(own, other, i) for a, b, wall in _interior_walls(fan)
              for own, other in ((a, b), (b, a)) for i in own if i not in wall]
    width = 2 * d * len(maxes) + len(beyond)

    def row(plus: ConeKey, minus: ConeKey, i: int) -> list[int]:
        """<m_plus - m_minus, ray i> over the split unknowns."""
        return _split_row(width, (column[plus], fan.rays[i]),
                          (column[minus], tuple(-x for x in fan.rays[i])))

    owner: dict[int, ConeKey] = {}  # the first cone on each ray; the others equal it there
    rows = [row(key, owner[i], i) for key in maxes for i in key
            if owner.setdefault(i, key) != key]
    rhs = [0] * len(rows) + [1] * len(beyond)
    for k, (own, other, i) in enumerate(beyond):
        rows.append(row(own, other, i))
        rows[-1][width - len(beyond) + k] = -1
    x = _phase_one(rows, rhs, width)
    if x is None:
        raise InfeasibleError("no strictly convex support function exists: the fan is not regular")
    covectors = {key: tuple(x[c + 2 * j] - x[c + 2 * j + 1] for j in range(d))
                 for key, c in column.items()}
    heights = tuple(_dot(covectors[owner[i]], r) if i in owner else 0
                    for i, r in enumerate(fan.rays))
    pl = PLFunction(heights, covectors)
    try:
        verify_support_function(fan, pl)
    except InfeasibleError as exc:
        raise InvariantError(f"simplex solution fails verification: {exc}") from exc
    return pl


def verify_support_function(fan: Fan, pl: PLFunction) -> None:
    """Exact linearity and strict wall convexity checks; raises on failure.

    The function must give one height per ray and one covector per maximal
    cone, and each covector must take the heights of the rays of its cone.
    Two cones on a wall share its rays, so this also makes the function
    continuous.
    """
    if len(pl.heights) != len(fan.rays):
        raise InfeasibleError(f"support function has {len(pl.heights)} heights "
                              f"for {len(fan.rays)} rays")
    if pl.covectors.keys() != set(fan.maximal_cones()):
        raise InfeasibleError("support function covectors do not match the maximal cones of the fan")
    for key, m in pl.covectors.items():
        for i in key:
            if _dot(m, fan.rays[i]) != pl.heights[i]:
                raise InfeasibleError("support function is not linear on a cone")
    for a, b, wall in _interior_walls(fan):
        for source, m in ((b, pl.covectors[a]), (a, pl.covectors[b])):
            for i in source:
                if i not in wall and _dot(m, fan.rays[i]) >= pl.heights[i]:
                    raise InfeasibleError("support function not strictly convex across a wall")


class PavingResult(NamedTuple):
    """The cells, each the document {sigma, gamma, members, complex_dimension}
    of a maximal cone, its gamma face and the cones of its cell."""

    cells: list[dict]
    polynomial: CellPolynomial
    generic_point: tuple[int, ...]
    relevant_cones: tuple[ConeKey, ...]

    def is_even(self) -> bool:
        return all(c == 0 for k, c in enumerate(self.polynomial.coeffs) if k % 2 == 1)


def _generic_point(fan: Fan, pl: PLFunction, seed: int) -> tuple[int, ...]:
    """A point where the covectors of the maximal cones all differ: a seeded
    positive combination of the rays or, should every draw tie, sum t^i r_i.
    For u != v, sum t^i (u - v).r_i is a nonzero polynomial with coefficients at
    most the spread s of the covectors on a ray: t = s + 2 beats its Cauchy bound."""
    rng = random.Random(seed)
    maxes = fan.maximal_cones()
    for _ in range(1000):
        coeffs = [rng.randint(1, 97) for _ in fan.rays]
        point = tuple(sum(c * r[j] for c, r in zip(coeffs, fan.rays)) for j in range(fan.rank))
        values = [_dot(pl.covectors[key], point) for key in maxes]
        if len(set(values)) == len(values):
            return point
    on_rays = [[_dot(pl.covectors[key], r) for key in maxes] for r in fan.rays]
    t = 2 + max(max(v) - min(v) for v in on_rays)
    return tuple(sum(t ** i * r[j] for i, r in enumerate(fan.rays)) for j in range(fan.rank))


def paving(fan: Fan, tau: Fan, seed: int = 0) -> PavingResult:
    """T-stable affine paving of the fiber over the fixed point of tau.

    Requires `fan` to be a refinement of the full-dimensional cone tau with
    a strictly convex support function, which is found and verified here.
    The paving is certified: cells must exactly partition the cones not
    contained in any wall of tau.  Past those checks, a tie across a wall at
    the generic point or a failed partition is a failed invariant.
    """
    if not _refines(fan, tau):
        raise LieparError("fan does not refine tau with equal support")
    pl = strictly_convex_support(fan)
    x0 = _generic_point(fan, pl, seed)
    maxes = fan.maximal_cones()
    values = {key: _dot(pl.covectors[key], x0) for key in maxes}

    positive_walls: dict[ConeKey, list[ConeKey]] = {key: [] for key in maxes}
    for a, b, wall in _interior_walls(fan):
        if values[a] > values[b]:
            positive_walls[b].append(wall)
        elif values[b] > values[a]:
            positive_walls[a].append(wall)
        else:
            raise InvariantError("generic point produced a tie across a wall")

    tau_cone = _tau_cone(tau)
    relevant = tuple(sorted(c for c in fan.cones
                            if not _on_tau_wall(tau_cone, fan.cone_rays(c))))

    cells = []
    covered: dict[ConeKey, ConeKey] = {}
    for sigma in maxes:
        gamma_key = tuple(sorted(set(sigma).intersection(*positive_walls[sigma])))
        members = sorted(c for c in fan.cones if set(gamma_key) <= set(c) <= set(sigma))
        cells.append({"sigma": list(sigma), "gamma": list(gamma_key), "members": [list(m) for m in members],
                      "complex_dimension": fan.rank - fan.dim(gamma_key)})
        for member in members:
            if member in covered:
                raise InvariantError(
                    f"cone {member} lies in two cells ({covered[member]} and {sigma})"
                )
            covered[member] = sigma
    if set(covered) != set(relevant):
        raise InvariantError("paving cells do not partition the cones of the fiber")
    polynomial = CellPolynomial.from_exponents(2 * c["complex_dimension"] for c in cells)
    return PavingResult(cells, polynomial, x0, relevant)


class OrbitPoset(NamedTuple):
    """Cones ordered by reverse face inclusion, with orbit dimensions."""

    cones: tuple[ConeKey, ...]
    orbit_dimensions: tuple[int, ...]
    relations: tuple[tuple[ConeKey, ConeKey], ...]  # (smaller orbit, larger orbit)


def orbit_poset(fan: Fan) -> OrbitPoset:
    """Orbit stratification poset: orbit of omega lies in the closure of orbit
    of tau exactly when tau is a face of omega."""
    cones = tuple(sorted(fan.cones, key=lambda c: (fan.dim(c), c)))
    dims = tuple(fan.rank - fan.dim(c) for c in cones)
    relations = []
    for a in cones:
        for b in cones:
            if a != b and set(a) <= set(b) and fan.dim(a) < fan.dim(b):
                # orbit of b has smaller dimension; it lies in the closure of orbit of a
                relations.append((b, a))
    return OrbitPoset(cones, dims, tuple(sorted(relations)))
