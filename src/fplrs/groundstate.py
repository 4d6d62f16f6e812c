"""The loop-model Hamiltonian on link-pattern space and its exact
stationary vector.

H = e_1 + ... + e_2n is stored sparsely in the lexicographic word
basis: column j lists the 2n row indices of the capping generators
applied to basis[j].  H is nonnegative and every column sums to 2n, so
2n is its spectral radius; when the digraph j -> e_k(j) is strongly
connected, Perron-Frobenius makes 2n a simple eigenvalue with a
positive eigenvector.  The kernel-dimension certificate is therefore a
graph search, and a positive vector that (H - 2n) kills exactly is the
stationary vector.  :func:`stationary_vector` finds it on the dihedral
classes by power iteration in integer fixed point, with the nested arcs
at 1 so that the entries are integers, and accepts it only by those
exact checks on the full H.  No floating point, no tolerance.
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

# power steps before stationary_vector gives up; it stops after 462 at
# n = 13 and 620 at n = 14
_MAX_STEPS = 10_000


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
    classes and solves this system.  The nested arcs, basis[0], are
    class 0."""
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
    return class_of, [{c: v for c, v in row.items() if v} for row in rows]


def _times_rows(rows: list[dict[int, int]], x: list[int], shift: int) -> list[int]:
    """(rows + shift I) x, exactly, for the square sparse matrix
    ``rows``."""
    return [shift * v + sum(w * x[c] for c, w in row.items()) for row, v in zip(rows, x)]


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
    A_{n-1} (the serial arcs).  H is nonnegative, irreducible and has a
    nonzero diagonal, so the power iteration x <- (Q + 2n) x on the
    dihedral quotient Q converges to it.  The iteration runs in integer
    fixed point, rescaled after each step so that x_0 = 2^K with K the
    bit length of A_{n-1} plus 40 (so the rescale's truncations stay far
    below half a unit even on the largest entry), and stops once x
    rounded to integers, x_0 = 1, repeats and is killed exactly by Q.
    The class values, spread over every pattern, are returned only when
    :func:`_pf_violation` accepts them on the full H, so neither the
    quotient nor the stop needs trusting.  Raises
    :class:`KernelDimensionError` otherwise, or after ``_MAX_STEPS``
    steps (either means a bug upstream).
    """
    h = build_h_matrix(n)
    class_of, rows = _quotient(h, n)
    one = 1 << (asm_count_formula(max(n - 1, 1)).bit_length() + 40)
    x, last = [one] * len(rows), None
    for _ in range(_MAX_STEPS):
        y = _times_rows(rows, x, 2 * n)
        x = [one * v // y[0] for v in y]
        rounded = [(v + one // 2) // one for v in x]
        if rounded == last and not any(_times_rows(rows, rounded, 0)):
            ints = [rounded[c] for c in class_of]
            if not _pf_violation(h, n, ints):
                return LpVector(n, dict(zip(h.basis, ints)))
            break
        last = rounded
    raise KernelDimensionError(f"no exact kernel vector of the shifted matrix at n={n}")


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
    irreducible, as in :func:`kernel_dimension_certificate`.

    Given the vector, the forward search from pattern 0 alone shows
    irreducibility.  H / 2n is column stochastic, and a positive x with
    (H - 2n) x = 0 is a stationary measure of its chain, so no pattern
    is transient: a pattern that 0 reaches reaches 0 again.  So when 0
    reaches every pattern, every pattern reaches 0 as well."""
    if not _well_formed(h, n):
        return "H has a malformed column"
    first = min(((p.word, c) for p, c in zip(h.basis, _residual(h, x)) if c), default=None)
    if first is not None:
        return f"residual {first[1]} at {first[0]}"
    if all(v > 0 for v in x) and len(_visit_order(h.cols)) == len(h.basis):
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
