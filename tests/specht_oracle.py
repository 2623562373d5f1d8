"""Exhaustive oracle for simple Specht-head dimensions, shared by the tests.

It enumerates vectors over F_p and uses no matrix elimination, so it checks
`schurweyl.simple_dimension` independently on small shapes.
"""

from liepar.errors import BudgetError, InvariantError
from liepar.schurweyl import Partition, check_partition, polytabloid, standard_tableaux


def specht_radical_bruteforce(lam: Partition, p: int, limit: int = 10**6) -> int:
    """Simple-head dimension by exhaustive radical enumeration over F_p.

    Enumerates every vector of the Specht module and tests orthogonality
    against all standard polytabloids; only viable for p**f <= limit.
    Serves as an oracle fully independent of matrix elimination.
    """
    lam = check_partition(lam)
    basis = standard_tableaux(lam)
    f = len(basis)
    if p**f > limit:
        raise BudgetError(f"{p}**{f} exceeds brute-force limit")
    vectors = [polytabloid(lam, t) for t in basis]
    keys = sorted({k for v in vectors for k in v})
    idx = {k: i for i, k in enumerate(keys)}
    mat = [[0] * len(keys) for _ in range(f)]
    for r, v in enumerate(vectors):
        for k, c in v.items():
            mat[r][idx[k]] = c % p
    radical = 0
    coeffs = [0] * f
    for code in range(p**f):
        val = code
        for i in range(f):
            coeffs[i] = val % p
            val //= p
        vec = [sum(coeffs[r] * mat[r][c] for r in range(f)) % p for c in range(len(keys))]
        if all(
            sum(vec[c] * mat[r][c] for c in range(len(keys))) % p == 0 for r in range(f)
        ):
            radical += 1
    rad_dim = 0
    while p**rad_dim < radical:
        rad_dim += 1
    if p**rad_dim != radical:
        raise InvariantError(f"radical has {radical} elements, not a power of {p}")
    return f - rad_dim
