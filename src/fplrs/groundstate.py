"""The loop-model Hamiltonian on link-pattern space and its exact
stationary vector.

H = e_1 + ... + e_2n is stored sparsely in the lexicographic word
basis: column j lists the 2n row indices of the capping generators
applied to basis[j].  H is nonnegative and every column sums to 2n, so
2n is its spectral radius; when the digraph j -> e_k(j) is strongly
connected, Perron-Frobenius makes 2n a simple eigenvalue with a
positive eigenvector.  The kernel-dimension certificate is therefore a
graph search, and a positive vector that (H - 2n) kills exactly is the
stationary vector.  :func:`stationary_vector` solves for it on the
dihedral classes by one sparse elimination modulo the prime 2^61 - 1,
with the nested arcs at 1 so that the entries are integers, and accepts
it only by those exact checks on the full H.  No floating point, no
tolerance.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import fplcore
from .errors import KernelDimensionError
from .linkpat import (
    LinkPattern,
    LpVector,
    all_patterns,
    asm_count_formula,
    reflect,
    rotate,
    tl_e,
)

__all__ = [
    "HamiltonianMatrix",
    "build_h_matrix",
    "stationary_vector",
    "verify_rs",
    "RsReport",
    "kernel_dimension_certificate",
]

_PRIME = 2**61 - 1


class HamiltonianMatrix(NamedTuple):
    """Sparse integer matrix of H in the lexicographic word basis.

    cols[j] lists the index of tl_e(basis[j], k) for k = 1..2n, so the
    entry H[i, j] is the number of times i occurs in cols[j].
    """

    n: int
    basis: tuple[LinkPattern, ...]
    cols: tuple[tuple[int, ...], ...]


def build_h_matrix(n: int) -> HamiltonianMatrix:
    basis = all_patterns(n)
    index = {p: i for i, p in enumerate(basis)}
    cols = tuple(
        tuple(index[tl_e(p, k)] for k in range(1, 2 * n + 1)) for p in basis
    )
    return HamiltonianMatrix(n, basis, cols)


def _quotient(h: HamiltonianMatrix, n: int) -> tuple[list[int], list[dict[int, int]]]:
    """The dihedral class of every basis index, and (H - 2n) on the
    classes as sparse rows: row c is row (H - 2n) at the first index of
    class c, its columns summed over each class.  Rotation and
    reflection commute with H, so the kernel vector is constant on
    classes and solves this system.  The classes are numbered in the
    breadth-first order over these rows from the nested arcs, basis[0],
    which are class 0; :func:`_kernel_mod`, eliminating from the last
    class down, so takes the classes farthest from them first."""
    index = {p: i for i, p in enumerate(h.basis)}
    class_of = [-1] * len(h.basis)
    first: dict[int, int] = {}
    for i, p in enumerate(h.basis):
        if class_of[i] < 0:
            for q in (p, reflect(p)):
                for _ in range(2 * n):
                    class_of[index[q]] = len(first)
                    q = rotate(q)
            first[i] = len(first)
    rows: list[dict[int, int]] = [{c: -2 * n} for c in range(len(first))]
    for j, col in enumerate(h.cols):
        for i in col:
            if i in first:
                row = rows[first[i]]
                row[class_of[j]] = row.get(class_of[j], 0) + 1
    order = _visit_order(rows)
    # classes the search misses (only on a reducible H, which the full-H
    # checks then reject) go last, so every class keeps a number
    order += sorted(set(range(len(rows))).difference(order))
    renumber = {c: new for new, c in enumerate(order)}
    return [renumber[c] for c in class_of], [
        {renumber[c]: v for c, v in rows[c].items() if v} for c in order
    ]


def _kernel_mod(rows: list[dict[int, int]]) -> list[int] | None:
    """The kernel vector of the square sparse matrix ``rows`` modulo
    ``_PRIME`` with x_0 = 1, or None unless the rank is size - 1 with
    x_0 free.

    Eliminates the columns from the last down to 1, each on the
    shortest pending row that holds it, so a pivot row holds its own
    column and lower ones only; the one row left over must vanish.
    Back substitution then runs upwards from x_0.
    """
    prime = _PRIME
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


def _residual(h: HamiltonianMatrix, x: list[int]) -> list[int]:
    """(H - 2n) x, exactly, one sparse column at a time."""
    y = [-2 * h.n * v for v in x]
    for col, v in zip(h.cols, x):
        for i in col:
            y[i] += v
    return y


def stationary_vector(n: int) -> LpVector:
    """Exact kernel vector of (H - 2n), as positive integers with the
    nested arcs at 1.

    That normalisation makes the vector integral with its largest entry
    A_{n-1} (the serial arcs), so one solve of the dihedral quotient
    modulo ``_PRIME``, lifted to (-p/2, p/2], is the vector.  The class
    values, spread over every pattern, are returned only when
    :func:`_pf_violation` accepts them on the full H, so neither the
    quotient nor the modular step needs trusting.  Raises
    :class:`KernelDimensionError` otherwise (a failure means a bug
    upstream, or entries past p/2).

    With p = 2^61 - 1 the lift is exact for n <= 13: A_12 is about
    1.26e16, below p/2 (about 1.15e18).  At n = 14, A_13 is about
    8.64e18, past p/2, so the checks reject the lift and this raises.
    """
    h = build_h_matrix(n)
    class_of, rows = _quotient(h, n)
    x = _kernel_mod(rows)
    if x is not None:
        lifted = [v - _PRIME if 2 * v > _PRIME else v for v in x]
        ints = [lifted[c] for c in class_of]
        if not _pf_violation(h, n, ints):
            return LpVector(n, dict(zip(h.basis, ints)))
    raise KernelDimensionError(
        f"no exact kernel vector of the shifted matrix at n={n} modulo {_PRIME}"
    )


class RsReport(NamedTuple):
    """Outcome of the stationary-state comparison at one size."""

    n: int
    rs_is_zero: bool
    kernel_matches_counts: bool
    total: int
    expected_total: int
    first_violation: str = ""

    @property
    def passed(self) -> bool:
        return (
            self.rs_is_zero
            and self.kernel_matches_counts
            and self.total == self.expected_total
        )


def verify_rs(n: int) -> RsReport:
    """Certify that the refined counts are stationary and match the kernel.

    Builds the sparse H once.  The integer count vector, read over the
    basis, must pass :func:`_pf_violation` (a malformed H fails the
    report instead of raising), which makes it a positive vector
    spanning the kernel; with coprime entries and none outside the
    basis it *is* the vector :func:`stationary_vector` returns.  The
    component sum must match the product formula.
    """
    counts = fplcore.refined_counts(n, "+")
    h = build_h_matrix(n)
    x = [counts.coeff(p) for p in h.basis]
    violation = _pf_violation(h, n, x)
    rs_zero = violation in ("", _NOT_THE_KERNEL)
    if not violation and not (len(counts.entries) == len(x) and math.gcd(*x) == 1):
        violation = _NOT_THE_KERNEL
    return RsReport(
        n=n,
        rs_is_zero=rs_zero,
        kernel_matches_counts=not violation,
        total=counts.total(),
        expected_total=asm_count_formula(n),
        first_violation=violation,
    )


def _visit_order(succ) -> list[int]:
    """The vertices that a breadth-first search from vertex 0 along
    ``succ`` visits, in the order it visits them."""
    seen = [False] * len(succ)
    seen[0] = True
    order = [0]
    for v in order:
        for i in succ[v]:
            if not seen[i]:
                seen[i] = True
                order.append(i)
    return order


def _well_formed(h: HamiltonianMatrix, n: int) -> bool:
    """Whether every column of H holds 2n row indices inside the basis."""
    size = len(h.basis)
    return all(len(col) == 2 * n and all(0 <= i < size for i in col) for col in h.cols)


def _irreducible(h: HamiltonianMatrix) -> bool:
    """Whether a forward and a backward search from pattern 0 both
    reach every pattern of a well-formed H."""
    pred: list[list[int]] = [[] for _ in h.basis]
    for j, col in enumerate(h.cols):
        for i in col:
            pred[i].append(j)
    size = len(h.basis)
    return len(_visit_order(h.cols)) == size and len(_visit_order(pred)) == size


_NOT_THE_KERNEL = "kernel differs from counts"


def _pf_violation(h: HamiltonianMatrix, n: int, x: list) -> str:
    """Why ``x`` does not span the kernel of (H - 2n), or "" when it
    does: H well formed, (H - 2n) x exactly zero, x positive and H
    irreducible, as in :func:`kernel_dimension_certificate`."""
    if not _well_formed(h, n):
        return "H has a malformed column"
    first = min(((p.word, c) for p, c in zip(h.basis, _residual(h, x)) if c), default=None)
    if first is not None:
        return f"residual {first[1]} at {first[0]}"
    if all(v > 0 for v in x) and _irreducible(h):
        return ""
    return _NOT_THE_KERNEL


def kernel_dimension_certificate(n: int) -> bool:
    """Certify kernel dimension exactly one, by Perron-Frobenius.

    Every entry of H is a nonnegative count and every column sums to
    2n, so the all-ones vector is a left eigenvector for 2n and 2n is
    the spectral radius.  A forward and a backward search from pattern
    0 that both reach every pattern make H irreducible, and for an
    irreducible nonnegative matrix the spectral radius is an
    algebraically simple eigenvalue with a positive eigenvector (Horn
    & Johnson, *Matrix Analysis*, section 8.4).  So the kernel of
    (H - 2n) is a line.  No elimination is done.
    """
    h = build_h_matrix(n)
    return _well_formed(h, n) and _irreducible(h)
