"""The stationary vector by one sparse elimination modulo a prime: the
tests' oracle for the power iteration of
:func:`fplrs.groundstate.stationary_vector`.

:func:`kernel_mod` solves the dihedral quotient rows that
``groundstate._quotient`` builds modulo ``PRIME`` with class 0 at 1, and
:func:`stationary_classes` lifts that solution to (-p/2, p/2].  With
p = 2^61 - 1 the lift is the true vector for n <= 13, whose largest
entry A_{n-1} stays below p/2.
"""

from __future__ import annotations

from fplrs.groundstate import _quotient, build_h_matrix

PRIME = 2**61 - 1


def kernel_mod(rows: list[dict[int, int]]) -> list[int] | None:
    """The kernel vector of the square sparse matrix ``rows`` modulo
    ``PRIME`` with x_0 = 1, or None unless the rank is size - 1 with
    x_0 free.

    Eliminates the columns from the last down to 1, each on the
    shortest pending row that holds it, so a pivot row holds its own
    column and lower ones only; the one row left over must vanish.
    Back substitution then runs upwards from x_0.
    """
    prime = PRIME
    pending = [{c: v % prime for c, v in row.items() if v % prime} for row in rows]
    pivots: list[tuple[int, dict[int, int]]] = []
    for col in range(len(rows) - 1, 0, -1):
        holding = [row for row in pending if col in row]
        if not holding:
            return None
        pivot = min(holding, key=len)
        pending = [row for row in pending if row is not pivot]
        inv = pow(pivot[col], -1, prime)
        for row in holding:
            if row is not pivot:
                f = row[col] * inv % prime
                for c, v in pivot.items():
                    w = (row.get(c, 0) - f * v) % prime
                    if w:
                        row[c] = w
                    else:
                        del row[c]
        pivots.append((col, pivot))
    if pending[0]:
        return None
    x = [0] * len(rows)
    x[0] = 1
    for col, row in reversed(pivots):
        rest = sum(v * x[c] for c, v in row.items() if c != col)
        x[col] = -rest * pow(row[col], -1, prime) % prime
    return x


def stationary_classes(n: int) -> tuple[list[int], list[int]] | None:
    """The class of every basis index at size n, and the kernel value of
    every class lifted from :func:`kernel_mod` to (-p/2, p/2]; None when
    the quotient has no kernel line modulo ``PRIME``."""
    class_of, rows = _quotient(build_h_matrix(n), n)
    x = kernel_mod(rows)
    if x is None:
        return None
    return class_of, [v - PRIME if 2 * v > PRIME else v for v in x]
