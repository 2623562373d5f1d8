import importlib.util
import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liepar import toricpave
from liepar.errors import InfeasibleError, LieparError
from liepar.toricpave import (
    Cone,
    Fan,
    PLFunction,
    orbit_poset,
    paving,
    star_subdivision,
    strictly_convex_support,
    validate_fan,
    verify_support_function,
)
from orbit_sum_oracle import orbit_sum
from simplex_oracle import phase_one


def quadrant():
    return Fan.from_max_cones(2, [(1, 0), (0, 1)], [[0, 1]])


def a_n_fixture(n):
    tau = Fan.from_max_cones(2, [(1, 0), (1, n + 1)], [[0, 1]])
    rays = [(1, i) for i in range(n + 2)]
    dprime = Fan.from_max_cones(2, rays, [[i, i + 1] for i in range(n + 1)])
    return dprime, tau


def square_cone():
    return Fan.from_max_cones(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], [[0, 1, 2, 3]])


def test_validate_quadrant():
    rep = validate_fan(quadrant())
    assert rep["simplicial"] and rep["smooth"] and not rep["complete"]


def test_validate_singular_cone():
    fan = Fan.from_max_cones(2, [(1, 0), (1, 2)], [[0, 1]])
    rep = validate_fan(fan)
    assert rep["simplicial"] and not rep["smooth"]


def test_validate_square_cone_not_simplicial():
    rep = validate_fan(square_cone())
    assert not rep["simplicial"] and not rep["smooth"]


def test_complete_fan_p1():
    fan = Fan.from_max_cones(1, [(1,), (-1,)], [[0], [1]])
    assert validate_fan(fan)["complete"]
    fan2 = Fan.from_max_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])
    assert validate_fan(fan2)["complete"]


def test_malformed_cone_list_rejected():
    with pytest.raises(LieparError):
        Fan.from_dict({"rank": 3,
                       "rays": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]],
                       "cones": [[0, 1, 2, 3], [0, 3]]})  # diagonal is not a face


@pytest.mark.parametrize("rays, cones, message", [
    ([(1, 0), (0, 1)], [[0, 0, 1]], "cone [0, 0, 1] names a ray twice"),
    ([(1, 0), (0, 1)], [[0, -1]], "cone [0, -1] names a ray outside 0..1"),
    ([(1, 0), (0, 1)], [[0, 5]], "cone [0, 5] names a ray outside 0..1"),
    ([(1, 0, 0), (0, 1)], [[0, 1]], "ray [1, 0, 0] does not have 2 coordinates"),
], ids=["repeated_index", "negative_index", "index_past_rays", "long_ray"])
def test_constructor_refuses_malformed_rays_and_cones(rays, cones, message):
    # the checks of a fan document hold for every fan, however it is built
    with pytest.raises(LieparError, match=f"^{re.escape(message)}$") as info:
        Fan.from_max_cones(2, rays, cones)
    assert type(info.value) is LieparError


def test_duplicate_rays_rejected():
    with pytest.raises(LieparError):
        Fan.from_max_cones(2, [(1, 0), (2, 0)], [[0, 1]])


def test_non_strongly_convex_cone_rejected():
    # a half-plane, refused by name of its maximal cone however the fan is built
    with pytest.raises(LieparError, match=r"^cone \(0, 1, 2\) is not strongly convex$"):
        Fan.from_dict({"rank": 2, "rays": [[1, 0], [-1, 0], [0, 1]], "cones": [[0, 1, 2]]})
    with pytest.raises(LieparError, match=r"^cone \(0, 1, 2\) is not strongly convex$"):
        Fan.from_max_cones(2, [(1, 0), (-1, 0), (0, 1)], [[0, 1, 2]])


@pytest.mark.parametrize("data, a, b", [
    # two triangles at height 1 crossing as a star of David: no ray of either
    # lies in the other, yet their interiors meet
    ({"rank": 3, "rays": [[0, 0, 1], [4, 0, 1], [2, 3, 1], [0, 2, 1], [4, 2, 1], [2, -1, 1]],
      "cones": [[0, 1, 2], [3, 4, 5]]}, (0, 1, 2), (3, 4, 5)),
    # the quadrant cut at (1, 1) and, on top of it, at (1, 2)
    ({"rank": 2, "rays": [[1, 0], [1, 1], [0, 1], [1, 2]], "cones": [[0, 1], [1, 2], [0, 3], [2, 3]]},
     (0, 1), (0, 3)),
])
def test_overlapping_cones_rejected(data, a, b):
    with pytest.raises(LieparError, match=rf"^cones {re.escape(str(a))} and {re.escape(str(b))} "
                                          "do not meet in a common face$"):
        Fan.from_dict(data)


def test_separation_finds_common_faces():
    # the cones of the three-cone fan of P^2 meet pairwise in a ray
    fan = Fan.from_max_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])
    assert all(toricpave._separated(fan, a, b) and toricpave._separated(fan, b, a)
               for a in fan.maximal_cones() for b in fan.maximal_cones() if a != b)
    # two cones of one line's opposite rays meet only at the origin
    line = Fan.from_max_cones(1, [(1,), (-1,)], [[0], [1]])
    assert toricpave._separated(line, (0,), (1,))
    # a ray inside the other cone: they meet in more than the origin, so
    # this is no fan, and only the bare tuple, never a constructor, makes it
    overlap = Fan(2, ((1, 0), (0, 1), (1, 1), (2, 1)), ((), (0,), (1,), (2,), (3,), (0, 1), (2, 3)))
    assert not toricpave._separated(overlap, (0, 1), (2, 3))


def test_star_subdivision_resolves_a1():
    fan = Fan.from_max_cones(2, [(1, 0), (1, 2)], [[0, 1]])
    sub = star_subdivision(fan, (1, 1))
    rep = validate_fan(sub, tau=fan)
    assert rep["smooth"] and rep["refines_tau"]
    assert len(sub.maximal_cones()) == 2


def test_star_subdivision_existing_ray_is_identity():
    fan = Fan.from_max_cones(2, [(1, 0), (1, 2)], [[0, 1]])
    sub = star_subdivision(fan, (1, 2))
    assert sub.rays == fan.rays and sub.cones == fan.cones
    # non-primitive input is normalized first
    sub = star_subdivision(fan, (2, 4))
    assert sub.cones == fan.cones


def test_star_subdivision_body_ray_of_square():
    sub = star_subdivision(square_cone(), (1, 1, 1))
    rep = validate_fan(sub, tau=square_cone())
    assert rep["simplicial"] and rep["refines_tau"]
    assert len(sub.maximal_cones()) == 4


def test_star_subdivision_outside_support():
    with pytest.raises(LieparError):
        star_subdivision(quadrant(), (-1, -1))


def test_orbit_poset_examples():
    op = orbit_poset(quadrant())
    assert sorted(op.orbit_dimensions) == [0, 1, 1, 2]
    assert len(op.cones) == 4
    # closure order: the fixed point lies in the closure of each ray orbit,
    # and every orbit lies in the closure of the open orbit (zero cone)
    assert ((0, 1), (0,)) in op.relations
    assert ((0, 1), (1,)) in op.relations
    assert ((0, 1), ()) in op.relations
    assert ((0,), ()) in op.relations and ((1,), ()) in op.relations
    assert len(op.relations) == 5
    fan = Fan.from_max_cones(1, [(1,), (-1,)], [[0], [1]])
    op = orbit_poset(fan)
    assert sorted(op.orbit_dimensions) == [0, 0, 1]
    sub = star_subdivision(Fan.from_max_cones(2, [(1, 0), (1, 2)], [[0, 1]]), (1, 1))
    assert len(orbit_poset(sub).cones) == 6
    # zero cone is the open orbit
    assert op.cones[0] == () and op.orbit_dimensions[0] == 1


def test_support_function_verified():
    dprime, _ = a_n_fixture(1)
    pl = strictly_convex_support(dprime)
    verify_support_function(dprime, pl)
    # one covector per maximal cone, each matching the heights on its rays
    assert set(pl.covectors) == set(dprime.maximal_cones())
    for key, m in pl.covectors.items():
        assert all(sum(a * b for a, b in zip(m, dprime.rays[i])) == pl.heights[i] for i in key)
    assert all(type(x) is int for x in pl.heights + sum(pl.covectors.values(), ()))


def test_support_function_trivial_cone():
    fan = quadrant()
    pl = strictly_convex_support(fan)
    assert len(pl.covectors) == 1


def test_support_function_infeasible():
    # a function that is linear across the wall, so not strictly convex
    dprime, _ = a_n_fixture(1)
    bad = PLFunction(
        heights=(0, 0, 0),
        covectors={k: (0, 0) for k in dprime.maximal_cones()},
    )
    with pytest.raises(InfeasibleError):
        verify_support_function(dprime, bad)


def mother_of_all_examples():
    """A subdivision of a triangle cone with a twisted inner triangle; no
    strictly convex support function exists (it is not regular)."""
    rays = [(x, y, 1) for x, y in ((0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2))]
    cones = [[0, 1, 4], [1, 2, 5], [2, 0, 3], [0, 3, 4], [1, 4, 5], [2, 5, 3], [3, 4, 5]]
    return Fan.from_max_cones(3, rays, cones), Fan.from_max_cones(3, rays[:3], [[0, 1, 2]])


def test_support_function_non_regular_fan():
    fan, tau = mother_of_all_examples()
    assert validate_fan(fan, tau=tau)["refines_tau"]
    with pytest.raises(InfeasibleError):
        strictly_convex_support(fan)
    with pytest.raises(InfeasibleError):
        paving(fan, tau, seed=0)


@pytest.mark.parametrize("n", range(1, 11))
def test_paving_a_n_chain(n):
    dprime, tau = a_n_fixture(n)
    result = paving(dprime, tau, seed=0)
    assert result.polynomial.coeffs == (1, 0, n)
    assert str(result.polynomial) == ("1 + q^2" if n == 1 else f"1 + {n}*q^2")
    assert result.is_even()
    assert len(result.cells) == n + 1
    members = [tuple(m) for cell in result.cells for m in cell["members"]]
    assert sorted(members) == sorted(result.relevant_cones)
    assert len(members) == 2 * n + 1


def stellar_subdivision(seed):
    """The square cone star-subdivided four times, each time at a random
    positive combination of the rays of a random maximal cone."""
    rng = random.Random(seed)
    fan = square_cone()
    for _ in range(4):
        rays = fan.cone_rays(rng.choice(fan.maximal_cones()))
        coeffs = [rng.randint(1, 3) for _ in rays]
        fan = star_subdivision(fan, [sum(c * r[j] for c, r in zip(coeffs, rays)) for j in range(3)])
    return fan


@pytest.mark.parametrize("seed", range(3))
def test_stellar_subdivisions_stay_regular(seed):
    # a star subdivision of a regular fan is regular, however large the
    # heights it needs
    fan = stellar_subdivision(seed)
    verify_support_function(fan, strictly_convex_support(fan))
    result = paving(fan, square_cone(), seed=seed)
    assert result.is_even() and sum(result.polynomial.coeffs) == len(fan.maximal_cones())


def test_paving_trivial():
    tau = quadrant()
    result = paving(tau, tau, seed=0)
    assert result.polynomial.coeffs == (1,)
    assert len(result.cells) == 1


def test_paving_square_diagonal():
    tau = square_cone()
    dprime = Fan.from_max_cones(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],
                                [[0, 1, 2], [1, 2, 3]])
    assert validate_fan(dprime, tau=tau)["refines_tau"]
    result = paving(dprime, tau, seed=0)
    assert result.polynomial.coeffs == (1, 0, 1)
    assert result.is_even()


@pytest.mark.parametrize("fixture", ["a3", "square"])
def test_paving_seed_independent(fixture):
    if fixture == "a3":
        dprime, tau = a_n_fixture(3)
    else:
        tau = square_cone()
        dprime = Fan.from_max_cones(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],
                                    [[0, 1, 2], [1, 2, 3]])
    baseline = paving(dprime, tau, seed=0)
    for seed in range(1, 20):
        result = paving(dprime, tau, seed=seed)
        assert result.polynomial.coeffs == baseline.polynomial.coeffs
        assert result.generic_point != baseline.generic_point or seed == 0


def test_paving_requires_refinement():
    dprime, tau = a_n_fixture(2)
    with pytest.raises(LieparError):
        paving(dprime, quadrant(), seed=0)


def test_fan_json_roundtrip():
    dprime, _ = a_n_fixture(2)
    again = Fan.from_dict(dprime.to_dict())
    assert again == dprime


def _all_faces_recursive(rays, ambient_dim):
    """Reference: faces found by recursing into facets of facets, each facet
    cone built and searched anew."""
    todo = [tuple(sorted(rays))]
    faces = {tuple(sorted(rays)), ()}
    while todo:
        cone = Cone(todo.pop(), ambient_dim)
        for facet in (tuple(cone.rays[p] for p in f) for f in cone._hrep[1]):
            key = tuple(sorted(facet))
            if key not in faces:
                faces.add(key)
                todo.append(key)
    return faces


def square_subdivision(depth):
    """The square cone subdivided depth times, each time at the sum of the
    rays of one maximal cone (first at its body ray (1, 1, 1))."""
    fan = square_cone()
    for step in range(depth):
        maxes = fan.maximal_cones()
        rays = fan.cone_rays(maxes[step % len(maxes)])
        fan = star_subdivision(fan, [sum(r[j] for r in rays) for j in range(3)])
    return fan


@pytest.mark.parametrize("kind,size", [("chain", n) for n in range(1, 9)]
                         + [("square", depth) for depth in range(5)])
def test_faces_are_intersections_of_facets(kind, size):
    fan = a_n_fixture(size)[0] if kind == "chain" else square_subdivision(size)
    for key in fan.cones:
        rays = fan.cone_rays(key)
        found = {tuple(sorted(face)) for face in Cone(rays, fan.rank).faces()}
        assert found == _all_faces_recursive(rays, fan.rank)
    faces_of_max = {f for key in fan.maximal_cones() for f in fan.cone(key).faces()}
    assert {tuple(sorted(f)) for f in faces_of_max} == {
        tuple(sorted(fan.cone_rays(key))) for key in fan.cones}


def test_faces_of_a_half_plane():
    rays = ((1, 0), (-1, 0), (0, 1))
    faces = {tuple(sorted(f)) for f in Cone(rays, 2).faces()}
    assert faces == _all_faces_recursive(rays, 2)
    assert faces == {tuple(sorted(rays)), ((-1, 0), (1, 0)), ()}


def test_line_cone_contains_both_directions():
    line = Cone(((1, 0), (-1, 0)), 2)
    assert line.dim == 1
    assert line.contains((-3, 0)) and line.contains((5, 0))
    assert not line.contains((0, 1))
    ray = Cone(((1, 2),), 2)
    assert ray.contains((2, 4)) and not ray.contains((-1, -2)) and not ray.contains((1, 0))
    assert tuple(tuple(ray.rays[p] for p in f) for f in ray._hrep[1]) == ((),)


def test_fan_tables_are_read_only_and_ignored_by_equality():
    dprime, tau = a_n_fixture(3)
    paving(dprime, tau, seed=0)
    validate_fan(dprime, tau=tau)
    orbit_poset(dprime)
    again = Fan.from_dict(dprime.to_dict())
    assert again == dprime and hash(again) == hash(dprime)
    assert isinstance(dprime.maximal_cones(), tuple)
    assert dprime.walls[(0,)] == ((0, 1),)
    wall = (1,)
    assert dprime.walls[wall] == ((0, 1), (1, 2))
    with pytest.raises(TypeError):
        dprime.walls[wall] = ()
    with pytest.raises(TypeError):
        dprime.walls[wall] += ((3, 4),)
    assert all(isinstance(owners, tuple) for owners in dprime.walls.values())
    # the same Cone object each time, its facets found once
    assert dprime.cone((0, 1)) is dprime.cone((0, 1))


@pytest.mark.parametrize("apex", [1, -1])
def test_cube_cone_has_one_primitive_inward_normal_per_facet(apex):
    # each facet of the cube holds four rays, so four triples of rays find
    # it; over the lower cube the kernel vectors found point outward
    rays = [(a, b, c, apex) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    cone = Cone(rays, 4)
    normals, facets = cone._hrep
    assert cone.dim == 4 and len(normals) == len(set(normals)) == 6
    assert all(len(f) == 4 for f in facets)
    for u in normals:
        assert all(type(x) is int for x in u) and math.gcd(*u) == 1
        assert all(sum(a * b for a, b in zip(u, r)) >= 0 for r in rays)
    assert sorted(normals) == sorted(
        tuple(s * (j == i) for j in range(3)) + (apex,) for i in range(3) for s in (1, -1))
    assert cone.contains((0, 0, 0, apex)) and not cone.contains((2, 0, 0, apex))


def test_redundant_generator_lies_on_the_facets_through_it():
    # e1 + e2 generates nothing new: the cone is the positive orthant
    e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    rays = (e[0], (1, 1, 0, 0), e[1], e[2], e[3])
    cone = Cone(rays, 4)
    assert cone.dim == 4
    assert len(cone._hrep[1]) == 4
    assert len(cone.faces()) == 16
    assert (e[0], (1, 1, 0, 0), e[1]) in cone.faces()
    assert all(type(x) is int for eq in Cone(rays[:3], 4)._equations for x in eq)
    assert Cone(rays[:3], 4).dim == 2


def test_verify_refuses_a_covector_off_the_heights():
    dprime, _ = a_n_fixture(1)
    pl = strictly_convex_support(dprime)
    first, second = dprime.maximal_cones()
    # the first covector moved off its cone's outer ray
    m = pl.covectors[first]
    moved = {**pl.covectors, first: (m[0] + 1, m[1])}
    with pytest.raises(InfeasibleError, match="^support function is not linear on a cone$"):
        verify_support_function(dprime, PLFunction(pl.heights, moved))
    # a covector that disagrees with its neighbour on the shared wall ray
    # is off that ray's height, so a discontinuous function is refused too
    (i,) = set(first) & set(second)
    shifted = {**pl.covectors, second: tuple(x + y for x, y in zip(pl.covectors[second], dprime.rays[i]))}
    with pytest.raises(InfeasibleError, match="^support function is not linear on a cone$"):
        verify_support_function(dprime, PLFunction(pl.heights, shifted))


def test_verify_refuses_covectors_that_miss_a_maximal_cone():
    dprime, _ = a_n_fixture(1)
    pl = strictly_convex_support(dprime)
    first = dprime.maximal_cones()[0]
    with pytest.raises(InfeasibleError, match="do not match the maximal cones"):
        verify_support_function(dprime, PLFunction(pl.heights, {first: pl.covectors[first]}))
    extra = {**pl.covectors, (0,): pl.covectors[first]}  # a wall is not a maximal cone
    with pytest.raises(InfeasibleError, match="do not match the maximal cones"):
        verify_support_function(dprime, PLFunction(pl.heights, extra))


def test_verify_refuses_heights_that_miss_a_ray():
    dprime, _ = a_n_fixture(1)
    pl = strictly_convex_support(dprime)
    with pytest.raises(InfeasibleError, match="^support function has 2 heights for 3 rays$"):
        verify_support_function(dprime, PLFunction(pl.heights[:2], pl.covectors))


def assert_positive_multiple(rows, rhs, nvars, x):
    """x, the integer simplex's answer, is None exactly when the rational
    simplex finds no point, and otherwise that point times some c > 0."""
    y = phase_one(rows, rhs, nvars)
    assert (x is None) == (y is None)
    if x is None:
        return None
    assert all(type(v) is int for v in x) and len(x) == nvars
    assert [a for a, b in zip(x, y) if not b] == [0] * y.count(0)
    scales = {Fraction(a) / b for a, b in zip(x, y) if b}
    assert len(scales) <= 1 and all(c > 0 for c in scales)
    return scales.pop() if scales else None


def test_integer_simplex_matches_the_rational_one_on_random_programs():
    # small dense programs, many of them with ties in the ratio test,
    # where a different choice of leaving row ends at another vertex
    rng = random.Random(0)
    feasible = 0
    for _ in range(400):
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        rows = [[rng.choice((-1, 0, 1, 1, 2)) for _ in range(n)] for _ in range(m)]
        rhs = [rng.choice((1, 1, 2)) for _ in range(m)]
        x = toricpave._phase_one(rows, rhs, n)
        assert_positive_multiple(rows, rhs, n, x)
        feasible += x is not None
    assert 100 < feasible < 300


def test_integer_simplex_is_a_positive_multiple_of_the_rational_one(monkeypatch):
    # every linear program the support search poses, solved again over Q
    # by the rational simplex it replaced
    # the fixtures are built first: building a fan poses its separation programs
    fans = ([quadrant(), square_cone()] + [a_n_fixture(n)[0] for n in range(1, 9)]
            + [square_subdivision(depth) for depth in range(6)] + [stellar_subdivision(s) for s in range(3)])
    irregular = mother_of_all_examples()[0]
    programs = []
    integer_phase_one = toricpave._phase_one

    def recorded(rows, rhs, nvars):
        x = integer_phase_one(rows, rhs, nvars)
        programs.append((rows, rhs, nvars, x))
        return x

    monkeypatch.setattr(toricpave, "_phase_one", recorded)
    for fan in fans:
        strictly_convex_support(fan)
    with pytest.raises(InfeasibleError):
        strictly_convex_support(irregular)
    assert len(programs) == len(fans) + 1
    scales = {assert_positive_multiple(*program) for program in programs}
    assert scales - {1, None}  # some programs end on pivots other than 1
    assert programs[-1][3] is None


def test_generic_point_falls_back_when_every_draw_ties(monkeypatch):
    # every coefficient 0 draws the origin, where all covectors vanish
    class TiedRandom(random.Random):
        def randint(self, a, b):
            return 0

    fans = ([a_n_fixture(n) for n in (1, 3, 6)] + [(square_subdivision(d), square_cone()) for d in (1, 3, 5)]
            + [(stellar_subdivision(seed), square_cone()) for seed in range(3)])
    monkeypatch.setattr(toricpave.random, "Random", TiedRandom)
    for fan, tau in fans:
        pl = strictly_convex_support(fan)
        point = toricpave._generic_point(fan, pl, seed=0)
        values = [sum(a * b for a, b in zip(pl.covectors[key], point)) for key in fan.maximal_cones()]
        assert len(set(values)) == len(values)
        result = paving(fan, tau)
        assert result.is_even() and sum(result.polynomial.coeffs) == len(fan.maximal_cones())


def _catalog_pavings():
    """The distinct (fan, tau) pairs of the benchmark catalog's `toric --paving` jobs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("liepar_perfbench_jobs", path)
    jobs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    pairs = {tuple(text for _, text in job.inputs) for job in jobs.catalog() if "--paving" in job.argv}
    return [tuple(Fan.from_dict(json.loads(text)) for text in pair) for pair in sorted(pairs)]


CATALOG_PAVINGS = _catalog_pavings()


def test_catalog_has_eight_pavings():
    # chains of 1, 4, 5, 6 and 7 P^1s and three subdivisions of the square cone
    assert len(CATALOG_PAVINGS) == 8


@pytest.mark.parametrize("k", range(len(CATALOG_PAVINGS)))
def test_catalog_pavings_are_orbit_sums(k):
    fan, tau = CATALOG_PAVINGS[k]
    assert list(paving(fan, tau, seed=0).polynomial.coeffs) == orbit_sum(fan, tau)


def simplicial_cone(n):
    """The cone on e_1, ..., e_(n-1) and (1, ..., 1, 2): simplicial, not smooth."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n - 1)] + [(1,) * (n - 1) + (2,)]
    return Fan.from_max_cones(n, rays, [list(range(n))])


def seeded_subdivision(tau, seed, steps):
    """`tau` star-subdivided `steps` times, each time at a random positive
    combination of the rays of a random cone of dimension at least 2, so
    that new rays fall inside tau and on its faces."""
    rng = random.Random(seed)
    fan = tau
    for _ in range(steps):
        rays = fan.cone_rays(rng.choice([c for c in fan.cones if len(c) >= 2]))
        coeffs = [rng.randint(1, 3) for _ in rays]
        fan = star_subdivision(fan, [sum(c * r[j] for c, r in zip(coeffs, rays)) for j in range(fan.rank)])
    return fan


@pytest.mark.parametrize("kind,seed", [(n, seed) for n in (2, 3) for seed in range(10)]
                         + [(4, seed) for seed in range(5)] + [("square", seed) for seed in range(10)])
def test_seeded_pavings_are_orbit_sums(kind, seed):
    tau = square_cone() if kind == "square" else simplicial_cone(kind)
    fan = seeded_subdivision(tau, seed, 1 + seed % (3 if kind == 4 else 5))
    assert list(paving(fan, tau, seed=seed).polynomial.coeffs) == orbit_sum(fan, tau)
