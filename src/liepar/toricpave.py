"""Rational polyhedral fans and T-stable affine pavings of resolution fibers.

A fan is a set of cones on a common ray list, closed under faces and
intersections.  Given a refinement of a full-dimensional cone tau that is
smooth and carries a strictly convex support function, the fiber over the
torus-fixed point is paved by cells read off from positive walls: order the
maximal cones by the value of their covector at a generic point, intersect
each maximal cone with its positive walls to get gamma(sigma), and collect
the cones sandwiched between gamma(sigma) and sigma.  The cell attached to
sigma has complex dimension equal to the codimension of gamma(sigma).

All geometry is exact: rays are primitive integer vectors and every
membership or wall test runs over the rationals.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import _linalg
from .errors import InfeasibleError, InvariantError, LieparError
from .weyl import CellPolynomial

Ray = tuple[int, ...]
ConeKey = tuple[int, ...]  # sorted ray indices; () is the zero cone


def _primitive(vector) -> Ray:
    v = [int(x) for x in vector]
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        raise LieparError("zero vector is not a ray")
    return tuple(x // g for x in v)


def _dot(u, v) -> Fraction:
    return sum(Fraction(a) * b for a, b in zip(u, v))


class Cone:
    """A strongly convex rational cone given by generating rays."""

    def __init__(self, rays: tuple[Ray, ...], ambient_dim: int):
        self.rays = tuple(rays)
        self.ambient_dim = ambient_dim
        self.dim = _linalg.frac_rank(self.rays)
        self._facet_normals: list[list[Fraction]] | None = None
        self._span_equations: list[list[Fraction]] | None = None

    def _hrep(self) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
        """(equations cutting out the span, inequalities valid on the cone).

        Facet inequalities are found by brute force over (dim-1)-subsets of
        rays, adequate at desk scale.
        """
        if self._facet_normals is not None:
            return self._span_equations, self._facet_normals
        n = self.ambient_dim
        equations = _linalg.nullspace_q(self.rays, n)
        normals: list[list[Fraction]] = []
        if self.dim >= 1:
            if self.dim == 1:
                # a single ray: inequalities <u, x> >= 0 for u with <u, ray> > 0
                ray = self.rays[0]
                j = next(i for i, x in enumerate(ray) if x != 0)
                u = [Fraction(0)] * n
                u[j] = Fraction(1) if ray[j] > 0 else Fraction(-1)
                normals.append(u)
            else:
                seen = set()
                for subset in itertools.combinations(self.rays, self.dim - 1):
                    if _linalg.frac_rank(subset) != self.dim - 1:
                        continue
                    kernel = _linalg.nullspace_q(list(subset) + equations, n)
                    if not kernel:
                        continue
                    u = kernel[0]
                    values = [_dot(u, r) for r in self.rays]
                    if all(v <= 0 for v in values):
                        u = [-x for x in u]
                    elif not all(v >= 0 for v in values):
                        continue
                    key = _normal_key(u)
                    if key not in seen:
                        seen.add(key)
                        normals.append(u)
        self._span_equations = equations
        self._facet_normals = normals
        return equations, normals

    def contains(self, point) -> bool:
        equations, normals = self._hrep()
        if any(_dot(eq, point) != 0 for eq in equations):
            return False
        return all(_dot(u, point) >= 0 for u in normals)

    def facet_ray_sets(self) -> list[tuple[Ray, ...]]:
        """Generating rays of each facet (codimension-1 face)."""
        if self.dim == 0:
            return []
        if self.dim == 1:
            return [()]
        _, normals = self._hrep()
        out = []
        for u in normals:
            face = tuple(r for r in self.rays if _dot(u, r) == 0)
            if _linalg.frac_rank(face) == self.dim - 1:
                out.append(face)
        return out


def _normal_key(u) -> tuple:
    nz = next(x for x in u if x != 0)
    return tuple(x / abs(nz) for x in u)


def _all_faces(rays: tuple[Ray, ...], ambient_dim: int) -> set[tuple[Ray, ...]]:
    """All faces of the cone spanned by `rays`, each as a ray tuple (sorted)."""
    todo = [tuple(sorted(rays))]
    faces: set[tuple[Ray, ...]] = {tuple(sorted(rays)), ()}
    while todo:
        current = todo.pop()
        cone = Cone(current, ambient_dim)
        for facet in cone.facet_ray_sets():
            key = tuple(sorted(facet))
            if key not in faces:
                faces.add(key)
                todo.append(key)
    return faces


def _integer_rows(value, what: str) -> list[tuple[int, ...]]:
    """A fan file's list of integer lists, or a domain error naming the field."""
    if not isinstance(value, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in value):
        raise LieparError(f'"{what}" must be a list of integer lists, got {str(value)[:40]}')
    return [tuple(row) for row in value]


@dataclass(frozen=True)
class Fan:
    """A fan: primitive rays and cones (ray-index tuples) closed under faces."""

    rank: int
    rays: tuple[Ray, ...]
    cones: tuple[ConeKey, ...]

    @classmethod
    def from_max_cones(cls, rank: int, rays, max_cones) -> "Fan":
        prim = tuple(_primitive(r) for r in rays)
        if len(set(prim)) != len(prim):
            raise LieparError("duplicate rays")
        index = {r: i for i, r in enumerate(prim)}
        cone_keys: set[ConeKey] = set()
        for cone in max_cones:
            ray_tuple = tuple(prim[i] for i in cone)
            for face in _all_faces(ray_tuple, rank):
                cone_keys.add(tuple(sorted(index[r] for r in face)))
        return cls(rank, prim, tuple(sorted(cone_keys, key=lambda c: (len(c), c))))

    def cone_rays(self, key: ConeKey) -> tuple[Ray, ...]:
        return tuple(self.rays[i] for i in key)

    def cone(self, key: ConeKey) -> Cone:
        return Cone(self.cone_rays(key), self.rank)

    def maximal_cones(self) -> list[ConeKey]:
        keys = set(self.cones)
        out = []
        for c in self.cones:
            if not any(set(c) < set(d) for d in keys if d != c):
                out.append(c)
        return sorted(out)

    def dim(self, key: ConeKey) -> int:
        return _linalg.frac_rank(self.cone_rays(key))

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
        rays = _integer_rows(data["rays"], "rays")
        for ray in rays:
            if len(ray) != rank:
                raise LieparError(f"ray {list(ray)} does not have {rank} coordinates")
        cones = [tuple(sorted(c)) for c in _integer_rows(data["cones"], "cones")]
        for cone in cones:
            if any(not 0 <= i < len(rays) for i in cone):
                raise LieparError(f"cone {list(cone)} names a ray outside 0..{len(rays) - 1}")
            if len(set(cone)) != len(cone):
                raise LieparError(f"cone {list(cone)} names a ray twice")
        maximal = [c for c in cones if not any(set(c) < set(d) for d in cones)]
        fan = cls.from_max_cones(rank, rays, maximal)
        missing = set(map(tuple, cones)) - set(fan.cones)
        if missing:
            raise LieparError(f"cone list is not closed under faces near {sorted(missing)}")
        return fan

    @classmethod
    def from_json(cls, text: str) -> "Fan":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class FanReport:
    simplicial: bool
    smooth: bool
    complete: bool
    refines_tau: bool | None


def _cone_is_smooth(fan: Fan, key: ConeKey) -> bool:
    rays = fan.cone_rays(key)
    if not rays:
        return True
    if len(rays) != _linalg.frac_rank(rays):
        return False
    divisors = _linalg.smith_normal_form([list(r) for r in rays])
    return all(d == 1 for d in divisors)


def validate_fan(fan: Fan, tau: "Fan | None" = None) -> FanReport:
    """Structural report: simplicial, smooth, complete, refinement of tau.

    Also checks the fan axioms (faces present, pairwise intersections are
    common faces) and raises on malformed input.
    """
    cone_set = set(fan.cones)
    for key in fan.cones:
        cone = fan.cone(key)
        for r in cone.rays:
            if cone.contains(tuple(-x for x in r)):
                raise LieparError(f"cone {key} is not strongly convex")
        for facet in cone.facet_ray_sets():
            fk = tuple(sorted(fan.rays.index(r) for r in facet))
            if fk not in cone_set:
                raise LieparError(f"face {fk} of cone {key} missing from fan")
    for a, b in itertools.combinations(fan.maximal_cones(), 2):
        common = tuple(sorted(set(a) & set(b)))
        if common not in cone_set:
            raise LieparError(f"intersection of {a} and {b} is not a listed cone")
        ca, cb = fan.cone(a), fan.cone(b)
        inter_rays = fan.cone_rays(common)
        # the intersection must be exactly the cone on the common rays
        inter = Cone(inter_rays, fan.rank)
        for r in fan.rays:
            if ca.contains(r) and cb.contains(r) and not inter.contains(r):
                raise LieparError(f"cones {a} and {b} do not meet in a common face")
    simplicial = all(len(c) == fan.dim(c) for c in fan.maximal_cones())
    smooth = all(_cone_is_smooth(fan, c) for c in fan.maximal_cones())
    complete = _is_complete(fan)
    refines = _refines(fan, tau) if tau is not None else None
    return FanReport(simplicial, smooth, complete, refines)


def _facet_count(fan: Fan) -> dict[tuple, list[ConeKey]]:
    walls: dict[tuple, list[ConeKey]] = {}
    for key in fan.maximal_cones():
        cone = fan.cone(key)
        for facet in cone.facet_ray_sets():
            fk = tuple(sorted(facet))
            walls.setdefault(fk, []).append(key)
    return walls


def _is_complete(fan: Fan) -> bool:
    maxes = fan.maximal_cones()
    if not maxes:
        return False
    if any(fan.dim(c) != fan.rank for c in maxes):
        return False
    return all(len(v) == 2 for v in _facet_count(fan).values())


def _refines(fan: Fan, tau: Fan) -> bool:
    """Support equality |fan| = |tau| for tau a single full-dimensional cone."""
    tau_max = tau.maximal_cones()
    if len(tau_max) != 1 or tau.dim(tau_max[0]) != tau.rank:
        raise LieparError("tau must consist of a single full-dimensional cone")
    tau_cone = tau.cone(tau_max[0])
    for key in fan.maximal_cones():
        if fan.dim(key) != fan.rank:
            return False
        if not all(tau_cone.contains(r) for r in fan.cone_rays(key)):
            return False
    # interior facets shared by two cones, boundary facets inside tau's walls
    tau_facets = [Cone(f, tau.rank) for f in tau_cone.facet_ray_sets()]
    for facet, owners in _facet_count(fan).items():
        if len(owners) == 2:
            continue
        if len(owners) != 1:
            return False
        if not any(all(tf.contains(r) for r in facet) for tf in tau_facets):
            return False
    if not all(fan.support_contains(r) for r in tau.rays):
        return False
    return True


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
        if not cone.contains(new_ray):
            new_max.append(fan.cone_rays(key))
            continue
        if new_ray in cone.rays:
            new_max.append(fan.cone_rays(key))
            continue
        for facet in cone.facet_ray_sets():
            if Cone(facet, fan.rank).contains(new_ray):
                continue
            new_max.append(tuple(facet) + (new_ray,))
    rays = list(dict.fromkeys([r for c in new_max for r in c]))
    index = {r: i for i, r in enumerate(rays)}
    return Fan.from_max_cones(fan.rank, rays, [[index[r] for r in c] for c in new_max])


@dataclass(frozen=True)
class PLFunction:
    """A continuous piecewise linear function given per maximal cone."""

    heights: tuple[Fraction, ...]               # one value per ray
    covectors: dict[ConeKey, tuple[Fraction, ...]]  # per maximal cone

    def value(self, cone_key: ConeKey, point) -> Fraction:
        return _dot(self.covectors[cone_key], point)


def _interior_walls(fan: Fan) -> list[tuple[ConeKey, ConeKey, tuple[Ray, ...]]]:
    walls = []
    for facet, owners in _facet_count(fan).items():
        if len(owners) == 2:
            walls.append((owners[0], owners[1], facet))
    return walls


def _phase_one(rows, rhs, nvars: int) -> list[Fraction] | None:
    """A point x >= 0 with rows @ x = rhs (rhs >= 0), or None if there is none.

    Phase 1 of the simplex method over Q: one artificial variable per row
    starts in the basis and their sum is minimized, with Bland's rule (lowest
    entering column, ratio ties to the lowest basic variable) against
    cycling.  Artificials that leave the basis never return, so only the
    original columns are stored.
    """
    tableau = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    basis = [nvars + i for i in range(len(rows))]
    cost = [-sum(row[j] for row in tableau) for j in range(nvars + 1)]  # cost[-1] = -objective
    while (enter := next((j for j in range(nvars) if cost[j] < 0), None)) is not None:
        _, _, leave = min((row[-1] / row[enter], basis[i], i)
                          for i, row in enumerate(tableau) if row[enter] > 0)
        pivot, scale = tableau[leave], tableau[leave][enter]
        support = [j for j, a in enumerate(pivot) if a]  # rows stay sparse
        for j in support:
            pivot[j] /= scale
        for row in tableau + [cost]:
            f = row[enter]
            if row is not pivot and f:
                for j in support:
                    row[j] -= f * pivot[j]
        basis[leave] = enter
    values = {j: row[-1] for j, row in zip(basis, tableau)}
    return None if cost[-1] else [values.get(j, Fraction(0)) for j in range(nvars)]


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
    beyond = [(own, other, i) for a, b, facet in _interior_walls(fan)
              for own, other in ((a, b), (b, a)) for i in own if fan.rays[i] not in facet]
    width = 2 * d * len(maxes) + len(beyond)

    def row(plus: ConeKey, minus: ConeKey, i: int) -> list[int]:
        """<m_plus - m_minus, ray i> over the split unknowns."""
        out = [0] * width
        for key, sign in ((plus, 1), (minus, -1)):
            for j, x in enumerate(fan.rays[i]):
                out[column[key] + 2 * j] += sign * x
                out[column[key] + 2 * j + 1] -= sign * x
        return out

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
    heights = tuple(_dot(covectors[owner[i]], r) if i in owner else Fraction(0)
                    for i, r in enumerate(fan.rays))
    pl = PLFunction(heights, covectors)
    try:
        verify_support_function(fan, pl)
    except InfeasibleError as exc:
        raise InvariantError(f"simplex solution fails verification: {exc}") from exc
    return pl


def verify_support_function(fan: Fan, pl: PLFunction) -> None:
    """Exact continuity and strict wall convexity checks; raises on failure."""
    for key, m in pl.covectors.items():
        for i in key:
            if _dot(m, fan.rays[i]) != pl.heights[i]:
                raise InfeasibleError("support function is not linear on a cone")
    for a, b, facet in _interior_walls(fan):
        ma, mb = pl.covectors[a], pl.covectors[b]
        facet_set = set(facet)
        for r in facet:
            if _dot(ma, r) != _dot(mb, r):
                raise InfeasibleError("support function discontinuous across a wall")
        for source, m in ((b, ma), (a, mb)):
            for i in source:
                ray = fan.rays[i]
                if ray in facet_set:
                    continue
                if _dot(m, ray) >= pl.heights[i]:
                    raise InfeasibleError("support function not strictly convex across a wall")


@dataclass(frozen=True)
class PavingCell:
    """One affine cell: a maximal cone, its gamma face, and the member cones."""

    sigma: ConeKey
    gamma: ConeKey
    member_cones: tuple[ConeKey, ...]
    complex_dimension: int


@dataclass(frozen=True)
class PavingResult:
    cells: tuple[PavingCell, ...]
    polynomial: CellPolynomial
    seed: int
    generic_point: tuple[Fraction, ...]
    relevant_cones: tuple[ConeKey, ...]

    def is_even(self) -> bool:
        return all(c == 0 for k, c in enumerate(self.polynomial.coeffs) if k % 2 == 1)


def _generic_point(fan: Fan, pl: PLFunction, seed: int) -> tuple[Fraction, ...]:
    rng = random.Random(seed)
    maxes = fan.maximal_cones()
    for _ in range(1000):
        coeffs = [rng.randint(1, 97) for _ in fan.rays]
        point = tuple(
            Fraction(sum(c * r[j] for c, r in zip(coeffs, fan.rays)))
            for j in range(fan.rank)
        )
        values = [pl.value(key, point) for key in maxes]
        if len(set(values)) == len(values):
            return point
    raise LieparError("could not find a generic point in 1000 draws")


def paving(fan: Fan, tau: Fan, seed: int = 0,
           support: PLFunction | None = None) -> PavingResult:
    """T-stable affine paving of the fiber over the fixed point of tau.

    Requires `fan` to be a refinement of the full-dimensional cone tau with
    a strictly convex support function.  The paving is certified: cells must
    exactly partition the cones not contained in any wall of tau.
    """
    if not _refines(fan, tau):
        raise LieparError("fan does not refine tau with equal support")
    pl = support if support is not None else strictly_convex_support(fan)
    x0 = _generic_point(fan, pl, seed)
    maxes = fan.maximal_cones()
    values = {key: pl.value(key, x0) for key in maxes}

    walls = _interior_walls(fan)
    ray_index = {r: i for i, r in enumerate(fan.rays)}
    positive_walls: dict[ConeKey, list[ConeKey]] = {key: [] for key in maxes}
    for a, b, facet in walls:
        wall_key = tuple(sorted(ray_index[r] for r in facet))
        if values[a] > values[b]:
            positive_walls[b].append(wall_key)
        elif values[b] > values[a]:
            positive_walls[a].append(wall_key)
        else:
            raise LieparError("generic point produced a tie across a wall")

    tau_cone = tau.cone(tau.maximal_cones()[0])
    tau_facets = [Cone(f, tau.rank) for f in tau_cone.facet_ray_sets()]

    def in_tau_wall(key: ConeKey) -> bool:
        rays = fan.cone_rays(key)
        return any(all(tf.contains(r) for r in rays) for tf in tau_facets)

    relevant = tuple(sorted(c for c in fan.cones if not in_tau_wall(c)))

    cells = []
    covered: dict[ConeKey, ConeKey] = {}
    for sigma in maxes:
        pw = positive_walls[sigma]
        gamma = set(sigma)
        for wall in pw:
            gamma &= set(wall)
        gamma_key = tuple(sorted(gamma))
        members = tuple(
            sorted(c for c in fan.cones if set(gamma_key) <= set(c) <= set(sigma))
        )
        dim_gamma = fan.dim(gamma_key)
        cell = PavingCell(sigma, gamma_key, members, fan.rank - dim_gamma)
        cells.append(cell)
        for member in members:
            if member in covered:
                raise LieparError(
                    f"cone {member} lies in two cells ({covered[member]} and {sigma})"
                )
            covered[member] = sigma
    if set(covered) != set(relevant):
        raise LieparError("paving cells do not partition the cones of the fiber")
    polynomial = CellPolynomial.from_exponents(2 * c.complex_dimension for c in cells)
    return PavingResult(tuple(cells), polynomial, seed, x0, relevant)


@dataclass(frozen=True)
class OrbitPoset:
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
