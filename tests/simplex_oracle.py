"""Phase 1 of the simplex method over Q, the oracle of the integer simplex
in `liepar.toricpave`.

It divides each pivot row by its pivot, in Fractions, so it shares Bland's
rule with the library and none of its integer row arithmetic: the library's
answer must be this one times a positive number.
"""

from fractions import Fraction


def phase_one(rows, rhs, nvars: int) -> list[Fraction] | None:
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
