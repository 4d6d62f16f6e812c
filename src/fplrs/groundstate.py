"""The loop-model Hamiltonian on link-pattern space and its exact
stationary vector.

H = e_1 + ... + e_2n is stored sparsely in the lexicographic word
basis: column j lists the 2n row indices of the capping generators
applied to basis[j].  H is nonnegative and every column sums to 2n, so
2n is its spectral radius; when the digraph j -> e_k(j) is strongly
connected, Perron-Frobenius makes 2n a simple eigenvalue with a
positive eigenvector.  The kernel-dimension certificate is therefore a
graph search, and the Razumov-Stroganov check needs no elimination: a
positive, coprime integer vector that (H - 2n) kills is the stationary
vector.  The stationary vector itself comes from the row echelon form
of the shifted matrix modulo 31-bit primes, lifted by CRT and rational
reconstruction.  No floating point, no tolerance: a vector built from
residues is accepted only after an exact integer residual check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import KernelDimensionError
from .fplcore import asm_count_formula, refined_counts
from .linkpat import (
    LinkPattern,
    LpVector,
    all_patterns,
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

# 31-bit, so every product of two residues fits in an int64
_PRIMES = (2_147_483_629, 2_147_483_587, 2_147_483_579, 2_147_483_563, 2_147_483_549)


@dataclass(frozen=True)
class HamiltonianMatrix:
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


def _echelon_mod(h: HamiltonianMatrix, prime: int):
    """Row echelon form of (H - 2n) modulo ``prime``.

    Returns the pivot rows, each scaled so its pivot is 1, as an int64
    array, and the increasing tuple of their pivot columns.
    """
    import numpy as np

    size = len(h.basis)
    a = np.zeros((size, size), dtype=np.int64)
    # a[i, j] += 1 for each i in cols[j]
    np.add.at(a, (np.array(h.cols), np.arange(size)[:, None]), 1)
    a[np.diag_indices(size)] -= 2 * h.n
    a %= prime
    pivots: list[int] = []
    for col in range(size):
        row = len(pivots)
        nz = row + np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        p = int(nz[0])
        if p != row:
            a[[row, p]] = a[[p, row]]
        inv = pow(int(a[row, col]), prime - 2, prime)
        # rows from `row` down are zero left of col, so only the columns
        # from col on change
        a[row, col:] = (a[row, col:] * inv) % prime
        # H is sparse: only the rows below with a nonzero in this column
        # change, and after the swap those are exactly nz[1:]
        below = nz[1:]
        a[below, col:] = (a[below, col:] - np.outer(a[below, col], a[row, col:])) % prime
        pivots.append(col)
    return a[:len(pivots)], tuple(pivots)


def _kernel_mod(h: HamiltonianMatrix, prime: int) -> tuple[int, list[int]] | None:
    """The kernel vector of (H - 2n) mod ``prime`` with its free
    coordinate set to 1, as (free column, residues); None unless the
    rank is size - 1.  The echelon dies with this call, so a caller
    looping over primes never holds two."""
    rows, cols = _echelon_mod(h, prime)
    size = len(h.basis)
    if len(cols) != size - 1:
        return None
    free = min(set(range(size)).difference(cols))
    # back substitution, one pivot column at a time: acc[i] holds
    # row i of the echelon applied to the coordinates fixed so far
    x = [0] * size
    x[free] = 1
    acc = rows[:, free].copy()
    for i in reversed(range(len(cols))):
        x[cols[i]] = -int(acc[i]) % prime
        acc[:i] = (acc[:i] + rows[:i, cols[i]] * x[cols[i]]) % prime
    return free, x


def _rational(u: int, m: int) -> Fraction | None:
    """The fraction r/s with |r|, s <= sqrt(m/2) congruent to u mod m,
    or None when there is none (rational reconstruction by the extended
    Euclidean algorithm)."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _residual(h: HamiltonianMatrix, x: list[int]) -> list[int]:
    """(H - 2n) x, exactly, one sparse column at a time."""
    y = [-2 * h.n * v for v in x]
    for col, v in zip(h.cols, x):
        for i in col:
            y[i] += v
    return y


def stationary_vector(n: int) -> LpVector:
    """Exact kernel vector of (H - 2n), as coprime positive integers.

    For each prime of ``_PRIMES`` whose echelon has rank size - 1,
    the kernel vector mod p with its free coordinate set to 1 is
    CRT-combined with those of the earlier primes that had the same
    free column, and every coordinate is rationally reconstructed.  A
    candidate is returned only when it is strictly positive and killed
    exactly by the integer matrix, so no modular step needs trusting.
    Raises :class:`KernelDimensionError` when the primes run out (the
    kernel is always a line; a failure means a bug upstream).
    """
    h = build_h_matrix(n)
    size = len(h.basis)
    combined: dict[int, tuple[list[int], int]] = {}
    for prime in _PRIMES:
        solved = _kernel_mod(h, prime)
        if solved is None:
            continue
        free, x = solved
        residues, m = combined.get(free, ([0] * size, 1))
        # CRT: lift each residue mod m to the one mod m*prime agreeing with x
        minv = pow(m, -1, prime)
        residues = [r + m * ((xi - r) * minv % prime) for r, xi in zip(residues, x)]
        m *= prime
        combined[free] = residues, m
        fracs = [_rational(r, m) for r in residues]
        if None in fracs:
            continue
        # the free coordinate is 1, so clearing the denominators leaves
        # coprime integers, positive there
        scale = math.lcm(*(f.denominator for f in fracs))
        ints = [int(f * scale) for f in fracs]
        if all(v > 0 for v in ints) and _residual(h, ints) == [0] * size:
            return LpVector(n, {p: Fraction(v) for p, v in zip(h.basis, ints)})
    raise KernelDimensionError(
        f"no exact kernel vector of the shifted matrix at n={n} from {len(_PRIMES)} primes"
    )


@dataclass(frozen=True)
class RsReport:
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

    Builds the sparse H once and checks on it, all exactly: H has one
    column of 2n in-range row indices per pattern (a malformed H fails
    the report instead of raising); (H - 2n) applied to the count vector
    vanishes componentwise; the kernel equals the count table entrywise;
    the component sum matches the product formula.  The second needs no
    elimination: when the same H is irreducible, as in
    :func:`kernel_dimension_certificate`, the kernel is the line of one
    positive vector, so a count vector in it with a positive entry at
    every pattern and coprime entries *is* the coprime positive kernel
    vector :func:`stationary_vector` returns.
    """
    counts = refined_counts(n, "+").as_vector()
    h = build_h_matrix(n)
    rs_zero = matches = False
    violation = "H has a malformed column"
    if _well_formed(h, n):
        x = [counts.entries.get(p, 0) for p in h.basis]
        first = min(
            ((p.word, c) for p, c in zip(h.basis, _residual(h, x)) if c),
            default=None,
        )
        rs_zero = first is None
        violation = "" if rs_zero else f"residual {first[1]} at {first[0]}"
        matches = (
            rs_zero
            and len(counts.entries) == len(x)
            and all(v > 0 and v.denominator == 1 for v in x)
            and math.gcd(*(int(v) for v in x)) == 1
            and _irreducible(h)
        )
        if rs_zero and not matches:
            violation = "kernel differs from counts"
    return RsReport(
        n=n,
        rs_is_zero=rs_zero,
        kernel_matches_counts=matches,
        total=int(counts.total()),
        expected_total=asm_count_formula(n),
        first_violation=violation,
    )


def _reaches_all(succ) -> bool:
    """Whether a search from vertex 0 along ``succ`` visits every vertex."""
    seen = [False] * len(succ)
    seen[0] = True
    stack = [0]
    while stack:
        for i in succ[stack.pop()]:
            if not seen[i]:
                seen[i] = True
                stack.append(i)
    return all(seen)


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
    return _reaches_all(h.cols) and _reaches_all(pred)


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
