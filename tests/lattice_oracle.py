"""Weight and root coordinates over Q, for tests only.

The library answers every lattice question in integers; these rational
conversions give the tests a second way to the same answers.
"""

import functools
from fractions import Fraction

from liepar import _linalg


def root_weight_coords(rs, root):
    """Fundamental-weight coordinates c @ cartan of a vector c in root coordinates."""
    return tuple(sum(root[i] * rs.cartan[i][j] for i in range(rs.rank)) for j in range(rs.rank))


@functools.cache
def cartan_inverse(rs):
    return _linalg.frac_matrix_inverse([list(r) for r in rs.cartan])


def weight_root_coords(rs, weight):
    """Simple-root coordinates, exact rationals, of a weight in fundamental-weight coordinates."""
    inverse = cartan_inverse(rs)
    return tuple(sum(Fraction(weight[i]) * inverse[i][j] for i in range(rs.rank)) for j in range(rs.rank))
