"""The loop-model Hamiltonian on link-pattern space and its exact
stationary vector.

The matrix is assembled column by column from the capping generators in
the lexicographic word basis; each column sums to twice the system
size, so that value is always an eigenvalue of the transpose.  One
routine, the row echelon form of the shifted matrix modulo a 31-bit
prime, serves both the kernel-dimension certificate and the stationary
vector, whose entries are the refined configuration counts by the
identity this package certifies.  No floating point, no tolerance: a
vector built from residues is accepted only after an exact integer
residual check.
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
    apply_hamiltonian,
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
    """Dense integer matrix of H in the lexicographic word basis.

    rows[i][j] counts the generators sending basis[j] to basis[i].
    """

    n: int
    basis: tuple[LinkPattern, ...]
    rows: tuple[tuple[int, ...], ...]

    def column_sums(self) -> tuple[int, ...]:
        size = len(self.basis)
        return tuple(
            sum(self.rows[i][j] for i in range(size)) for j in range(size)
        )


def build_h_matrix(n: int) -> HamiltonianMatrix:
    basis = all_patterns(n)
    index = {p: i for i, p in enumerate(basis)}
    size = len(basis)
    rows = [[0] * size for _ in range(size)]
    for j, p in enumerate(basis):
        for k in range(1, 2 * n + 1):
            rows[index[tl_e(p, k)]][j] += 1
    return HamiltonianMatrix(n, basis, tuple(tuple(r) for r in rows))


def _echelon_mod(h: HamiltonianMatrix, prime: int):
    """Row echelon form of (H - 2n) modulo ``prime``.

    Returns the pivot rows, each scaled so its pivot is 1, as an int64
    array, and the increasing tuple of their pivot columns.
    """
    import numpy as np

    size = len(h.basis)
    a = np.array(h.rows, dtype=np.int64)
    a[np.diag_indices(size)] -= 2 * h.n
    a %= prime
    cols: list[int] = []
    for col in range(size):
        row = len(cols)
        nz = row + np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        p = int(nz[0])
        if p != row:
            a[[row, p]] = a[[p, row]]
        inv = pow(int(a[row, col]), prime - 2, prime)
        a[row] = (a[row] * inv) % prime
        # H is sparse: only the rows below with a nonzero in this column
        # change, and after the swap those are exactly nz[1:]
        below = nz[1:]
        a[below] = (a[below] - np.outer(a[below, col], a[row])) % prime
        cols.append(col)
    return a[:len(cols)], tuple(cols)


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
        if all(v > 0 for v in ints) and all(
            sum(a * v for a, v in zip(row, ints)) == 2 * n * ints[i]
            for i, row in enumerate(h.rows)
        ):
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

    Checks, all exactly: (H - 2n) applied to the count vector vanishes
    componentwise; the normalized kernel equals the count table
    entrywise; the component sum matches the product formula.
    """
    counts = refined_counts(n, "+").as_vector()
    residual = apply_hamiltonian(counts) - 2 * n * counts
    rs_zero = residual.is_zero()
    violation = ""
    if not rs_zero:
        word, coeff = sorted(
            ((p.word, c) for p, c in residual.entries.items())
        )[0]
        violation = f"residual {coeff} at {word}"
    kernel = stationary_vector(n)
    matches = kernel == counts
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


def kernel_dimension_certificate(n: int) -> bool:
    """Certify kernel dimension exactly one, on one modular echelon.

    The column sums force singularity over the rationals, so the kernel
    has dimension at least one; a modular rank of size-1 forces the
    rational rank that high as well (a nonzero minor mod p is nonzero
    over the integers).  Together the dimension is exactly one.
    """
    h = build_h_matrix(n)
    return len(_echelon_mod(h, _PRIMES[0])[1]) == len(h.basis) - 1
