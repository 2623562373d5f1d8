"""Gauss-Jordan over Q (`rref_q` and the functions read off it) on seeded
random integer matrices, with fraction-free Bareiss as the rank oracle; the
integer kernel; the Smith form against gcds of minors computed here; the
p-local Smith form against the global one; the kernel mod p against the one
read off Gauss-Jordan mod p."""

import itertools
import math
import random

import pytest

from liepar import _linalg, schurweyl


def _product(left, right):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def _random(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _matrices(seed):
    """Empty, zero, rectangular and rank-deficient integer matrices."""
    rng = random.Random(seed)
    out = [[], [[0, 0, 0]], [[0, 0], [0, 0], [0, 0]], [[3]], [[1, 2], [2, 4]]]
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        out.append(_random(rng, rows, cols))
        inner = rng.randint(1, min(rows, cols))
        out.append(_product(_random(rng, rows, inner, -2, 2), _random(rng, inner, cols, -2, 2)))
    return out


def _cols(matrix):
    return len(matrix[0]) if matrix else 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rref_shape(seed):
    for matrix in _matrices(seed):
        rref, pivots = _linalg.rref_q(matrix)
        assert pivots == sorted(set(pivots))
        for r, c in enumerate(pivots):
            assert [row[c] for row in rref] == [int(i == r) for i in range(len(rref))]
            assert not any(rref[r][:c])
        assert not any(any(row) for row in rref[len(pivots):])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rank_matches_bareiss(seed):
    for matrix in _matrices(seed):
        assert _linalg.frac_rank(matrix) == _linalg.bareiss_rank(matrix)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_inverse(seed):
    rng = random.Random(seed)
    assert _linalg.frac_matrix_inverse([]) == []
    checked = 0
    for matrix in _matrices(seed):
        if len(matrix) != _cols(matrix):
            continue
        n = len(matrix)
        if _linalg.bareiss_rank(matrix) < n:
            with pytest.raises(ValueError):
                _linalg.frac_matrix_inverse(matrix)
            continue
        inverse = _linalg.frac_matrix_inverse(matrix)
        assert _product(inverse, matrix) == [[int(i == j) for j in range(n)] for i in range(n)]
        checked += 1
    assert checked
    with pytest.raises(ValueError):
        _linalg.frac_matrix_inverse(_product(_random(rng, 4, 2), _random(rng, 2, 4)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve(seed):
    rng = random.Random(seed)
    inconsistent = 0
    for matrix in _matrices(seed):
        cols = _cols(matrix)
        x0 = [rng.randint(-3, 3) for _ in range(cols)]
        rhs = [sum(a * b for a, b in zip(row, x0)) for row in matrix]
        x = _linalg.frac_solve(matrix, rhs)
        assert [sum(a * b for a, b in zip(row, x)) for row in matrix] == rhs
        # a nonzero y with y.A = 0 makes A x = y inconsistent, since y.y > 0
        left_kernel = _linalg.integer_kernel([list(col) for col in zip(*matrix)], len(matrix))
        if left_kernel:
            assert _linalg.frac_solve(matrix, left_kernel[0]) is None
            inconsistent += 1
    assert inconsistent


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_kernel(seed):
    for matrix in _matrices(seed):
        cols = _cols(matrix)
        basis = _linalg.integer_kernel(matrix, cols)
        assert len(basis) == cols - _linalg.bareiss_rank(matrix)
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in matrix)
        # saturated: independent, and every integer vector of its Q-span is
        # an integer combination, so the basis spans the kernel over Z
        assert _linalg.smith_normal_form(basis) == [1] * len(basis)


def test_integer_kernel_of_no_equations_is_the_standard_basis():
    assert _linalg.integer_kernel([], 3) == [[int(i == j) for j in range(3)] for i in range(3)]


def _det(matrix):
    """Determinant by cofactor expansion along the first row."""
    if not matrix:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
               for j, a in enumerate(matrix[0]) if a)


def _minor_gcds(matrix):
    """The gcd of the k x k minors for k = 1, 2, ..., up to the last nonzero one."""
    rows, cols = len(matrix), _cols(matrix)
    gcds = []
    for k in range(1, min(rows, cols) + 1):
        g = math.gcd(*(_det([[matrix[i][j] for j in picked_cols] for i in picked_rows])
                       for picked_rows in itertools.combinations(range(rows), k)
                       for picked_cols in itertools.combinations(range(cols), k)))
        if g == 0:
            break
        gcds.append(g)
    return gcds


def _small_matrices(seed):
    """Integer matrices up to 5 x 5: empty, zero, random, rank-deficient,
    and with entries sharing factors, so that divisors above 1 occur."""
    rng = random.Random(seed)
    out = [[], [[0, 0]], [[4]], [[2, 4], [6, 8]]]
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        out.append(_random(rng, rows, cols))
        inner = rng.randint(1, min(rows, cols))
        out.append(_product(_random(rng, rows, inner, -2, 2), _random(rng, inner, cols, -2, 2)))
        out.append([[rng.choice((0, 2, 4, 6, 12, -18)) for _ in range(cols)] for _ in range(rows)])
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_smith_form_against_minor_gcds(seed):
    # Smith's theorem: d_1 ... d_k is the gcd of the k x k minors
    for matrix in _small_matrices(seed):
        divisors = _linalg.smith_normal_form(matrix)
        assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
        assert [math.prod(divisors[:k]) for k in range(1, len(divisors) + 1)] == _minor_gcds(matrix)


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1, from the identity
    by adding multiples of rows to other rows and negating rows."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = rng.randint(-2, 2)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_smith_form_is_invariant_under_unimodular_operations(seed):
    rng = random.Random(seed)
    for matrix in _small_matrices(seed)[1:]:
        moved = _product(_product(_unimodular(rng, len(matrix)), matrix),
                         _unimodular(rng, _cols(matrix)))
        assert _linalg.smith_normal_form(moved) == _linalg.smith_normal_form(matrix)


def _check_local_smith(matrix, divisors, p):
    rank, minor = _linalg._bareiss(matrix)
    k = _linalg.p_valuation(minor, p)
    valuations = _linalg.local_smith_valuations(matrix, p, k)
    assert valuations == [_linalg.p_valuation(d, p) for d in divisors]
    assert len(valuations) == rank and sum(valuations) <= k


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_local_smith_matches_global_smith(seed, p):
    for matrix in _matrices(seed):
        # scaling by p**2 raises every valuation, so k must follow it
        for scaled in (matrix, [[p * p * x for x in row] for row in matrix]):
            _check_local_smith(scaled, _linalg.smith_normal_form(scaled), p)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_last_bareiss_pivot_is_a_nonzero_minor(seed):
    # the product of the Smith divisors is the gcd of the r x r minors
    for matrix in _matrices(seed):
        rank, minor = _linalg._bareiss(matrix)
        divisors = _linalg.smith_normal_form(matrix)
        assert rank == len(divisors) and minor != 0
        assert minor % math.prod(divisors) == 0


@pytest.mark.parametrize("d", range(1, 8))
def test_local_smith_of_specht_grams(d):
    for lam in schurweyl.partitions(d):
        matrix = [list(r) for r in schurweyl.specht_gram(lam).form.matrix]
        divisors = _linalg.smith_normal_form(matrix)
        for p in (2, 3, 5, 7):
            _check_local_smith(matrix, divisors, p)


def _gauss_jordan_kernel_mod_p(matrix, p, cols):
    """Right kernel mod p read off the reduced row echelon form by Gauss-Jordan."""
    m = [[x % p for x in row] for row in matrix]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(a - m[i][c] * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc] % p
        basis.append(v)
    return basis


def test_echelon_kernel_is_the_kernel_mod_p():
    for p in (2, 3, 5, 7):
        for matrix in _matrices(p):
            cols = _cols(matrix)
            rref, pivots = _linalg.modp_echelon(matrix, p)
            basis = _linalg.echelon_kernel(rref, pivots, cols, p)
            assert len(basis) == cols - len(pivots)
            assert _linalg.modp_rank(basis, p) == len(basis)
            for v in basis:
                assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in matrix)
            # back-substitution through the one-sided form gives, vector for
            # vector, the basis a reduced form gives: 1 at its free column, 0
            # at the others
            assert basis == _gauss_jordan_kernel_mod_p(matrix, p, cols)


def _pivots(hnf):
    return [next(j for j, x in enumerate(row) if x) for row in hnf]


def _combination(rng, rows, cols):
    coeffs = [rng.randint(-3, 3) for _ in rows]
    return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(cols)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hermite_insert_matches_row_hermite(seed):
    """Inserting a vector into an HNF gives the HNF of the rows with the
    vector appended, on zero, rank-deficient and negative inputs, and for
    zero, repeated, scaled, member and random vectors; a member of the
    lattice gives back the HNF and pivots unchanged."""
    rng = random.Random(seed)
    for matrix in _matrices(seed):
        cols = _cols(matrix)
        if not cols:
            continue
        hnf = _linalg.row_hermite(matrix)
        pivots = _pivots(hnf)
        vectors = [[0] * cols, *matrix, [6 * x for x in matrix[0]],
                   _combination(rng, matrix, cols), [rng.randint(-9, 9) for _ in range(cols)]]
        for v in vectors:
            before = ([list(row) for row in hnf], list(pivots))
            out, out_pivots = _linalg.hermite_insert(hnf, pivots, v)
            assert out == _linalg.row_hermite(matrix + [v])
            assert out_pivots == _pivots(out)
            assert (hnf, pivots) == before
            if _linalg.in_row_lattice(hnf, v):
                assert (out, out_pivots) == (hnf, pivots)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hermite_insert_one_row_at_a_time(seed):
    # the oracle's use: every lattice grown from the zero lattice
    for matrix in _matrices(seed):
        hnf, pivots = [], []
        for k, row in enumerate(matrix):
            hnf, pivots = _linalg.hermite_insert(hnf, pivots, row)
            assert hnf == _linalg.row_hermite(matrix[:k + 1])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_in_hermite_lattice_matches_in_row_lattice(seed):
    rng = random.Random(seed)
    for matrix in _matrices(seed):
        cols = _cols(matrix)
        if not cols:
            continue
        hnf = _linalg.row_hermite(matrix)
        pivots = _pivots(hnf)
        for _ in range(10):
            for v in (_combination(rng, matrix, cols),
                      [rng.randint(-4, 4) for _ in range(cols)],
                      [x + rng.randint(-1, 1) for x in _combination(rng, matrix, cols)]):
                assert (_linalg.in_hermite_lattice(hnf, pivots, v)
                        == _linalg.in_row_lattice(hnf, v))
