"""Closed forms for the Weyl walk, after Macdonald: the oracle of its level sizes.

The length generating function of W is the product, over the positive roots,
of [ht a + 1]_q / [ht a]_q (Macdonald, "The Poincare series of a Coxeter
group", Math. Ann. 199, 1972; Humphreys, Reflection Groups and Coxeter
Groups, 1990, 1.11), and that of a standard parabolic W_J is the same
product over the roots supported on J.  So the minimal coset
representatives W^J have W(q)/W_J(q), and a stratum, the W_I-orbit of
w(rho_J), has q^l(w) W_I(q)/W_K(q), where W_K, K the i in I with
w(rho_J)_i = 0, is the stabilizer of that point in W_I (Humphreys, 1.12).

Nothing here walks an orbit: it reads the positive roots, in simple-root
coordinates, and for a stratum the Cartan matrix.  A polynomial in q is a
list of integer coefficients, lowest degree first.
"""


def times_one_minus(f, m):
    """f * (1 - q^m)."""
    g = list(f) + [0] * m
    for k, c in enumerate(f):
        g[k + m] -= c
    return g


def over_one_minus(f, m):
    """f / (1 - q^m), refused unless the division is exact."""
    g = []
    for k in range(len(f) - m):
        g.append(f[k] + (g[k - m] if k >= m else 0))
    if times_one_minus(g, m) != list(f):
        raise ArithmeticError(f"{f} is not a multiple of 1 - q^{m}")
    return g


def height_quotient(heights):
    """The product of [h + 1]_q / [h]_q = (1 - q^(h+1)) / (1 - q^h) over `heights`."""
    f = [1]
    for h in heights:
        f = times_one_minus(f, h + 1)
    for h in heights:
        f = over_one_minus(f, h)
    return f


def _outside(roots, J):
    """The heights of the roots not supported on J."""
    return [sum(r) for r in roots if any(c for k, c in enumerate(r) if k not in J)]


def quotient_poincare(rs, J):
    """The length generating function of W^J, W(q)/W_J(q)."""
    return height_quotient(_outside(rs.positive_roots, set(J)))


def stratum_poincare_closed(rs, I, J, word):
    """q^l(w) W_I(q)/W_K(q) for the minimal representative w with reduced `word`."""
    point = [0 if k in J else 1 for k in range(rs.rank)]
    for i in reversed(word):
        c = point[i]
        point = [x - c * a for x, a in zip(point, rs.cartan[i])]
    roots_of_I = [r for r in rs.positive_roots if all(k in I for k, c in enumerate(r) if c)]
    K = {i for i in I if point[i] == 0}
    return [0] * len(word) + height_quotient(_outside(roots_of_I, K))
