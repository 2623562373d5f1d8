"""Orbit sums for toric fibers: the oracle of `toricpave.paving`'s polynomial.

Let the fan refine a full-dimensional cone tau in dimension n.  The fiber
of the toric morphism over the fixed point of tau is the union of the torus
orbits O(sigma) of the cones sigma whose relative interior lies in the
interior of tau, and O(sigma) is a torus of dimension n - dim sigma
(Cox-Little-Schenck, Toric Varieties, 2011, 3.2 and 3.3).  A torus of
dimension k has virtual Poincare polynomial (q^2 - 1)^k, so a paving by
affine spaces has the polynomial sum over those sigma of
(q^2 - 1)^(n - dim sigma) (compare Fulton, Introduction to Toric Varieties,
1993, 4.5).

This reads the fan's rays and cones and tau's rays, nothing else: the
facets of tau are found here from determinants, and no support function,
generic point or gamma face is used.  A polynomial in q is a list of
integer coefficients, lowest degree first, with no trailing zero.
"""

from itertools import combinations
from math import comb


def det(rows):
    """The determinant of a square integer matrix, by expansion along its first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a * det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def rank(vectors, n):
    """The rank of integer vectors in dimension n: the size of a largest nonzero minor."""
    vectors = [list(v) for v in vectors]
    return max(k for k in range(min(len(vectors), n) + 1)
               if any(det([[v[j] for j in cols] for v in sub])
                      for sub in combinations(vectors, k) for cols in combinations(range(n), k)))


def facets(tau_rays, n):
    """The facets of the full-dimensional cone on `tau_rays`, each as
    (sign, n - 1 rays): x lies strictly inside tau exactly when
    sign * det(rays + [x]) > 0 for every facet."""
    tau_rays = [list(r) for r in tau_rays]
    found = []
    for sub in combinations(tau_rays, n - 1):
        values = [det(list(sub) + [r]) for r in tau_rays]
        if any(values) and all(v >= 0 for v in values):
            found.append((1, sub))
        elif any(values) and all(v <= 0 for v in values):
            found.append((-1, sub))
    return found


def orbit_sum(fan, tau):
    """The sum of (q^2 - 1)^(n - dim sigma) over the cones sigma of `fan` whose
    relative interior, where the sum of their rays lies, is inside tau."""
    n = fan.rank
    tau_facets = facets(tau.rays, n)
    total = [0] * (2 * n + 1)
    for cone in fan.cones:
        rays = [fan.rays[i] for i in cone]
        point = [sum(r[j] for r in rays) for j in range(n)]
        if all(sign * det(list(sub) + [point]) > 0 for sign, sub in tau_facets):
            k = n - rank(rays, n)
            for i in range(k + 1):  # (q^2 - 1)^k
                total[2 * i] += comb(k, i) * (-1) ** (k - i)
    while len(total) > 1 and not total[-1]:
        total.pop()
    return total
