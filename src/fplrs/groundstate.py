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
rotation classes, modulo 31-bit primes lifted by CRT and rational
reconstruction, and accepts it only by those exact checks on the full
H.  No floating point, no tolerance.
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
    rotation_class_of,
    rotation_classes,
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


def _quotient(h: HamiltonianMatrix, n: int) -> tuple[list[int], list[list[int]]]:
    """The rotation class of every basis index, and (H - 2n) on the
    classes: row c is row (H - 2n) at the representative of class c,
    its columns summed over each class.  Rotation commutes with H, so
    the kernel vector is constant on classes and solves this system."""
    number = {rc.representative: c for c, rc in enumerate(rotation_classes(n))}
    class_of = [number[rotation_class_of(p)] for p in h.basis]
    rep_rows = {i: number[p] for i, p in enumerate(h.basis) if p in number}
    m = [[0] * len(number) for _ in number]
    for j, col in enumerate(h.cols):
        for i in col:
            if i in rep_rows:
                m[rep_rows[i]][class_of[j]] += 1
    for c, row in enumerate(m):
        row[c] -= 2 * n
    return class_of, m


def _kernel_mod(a: list[list[int]], prime: int) -> tuple[int, list[int]] | None:
    """The kernel vector of the square matrix ``a`` modulo ``prime``
    with its free coordinate set to 1, as (free column, residues); None
    unless the rank is size - 1."""
    size = len(a)
    rows = [[v % prime for v in row] for row in a]
    pivots: list[int] = []
    for col in range(size):
        r = len(pivots)
        below = [k for k in range(r, size) if rows[k][col]]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        inv = pow(rows[r][col], -1, prime)
        # rows from r down are zero left of col, so only columns col on change
        pivot = rows[r][col:] = [v * inv % prime for v in rows[r][col:]]
        # after the swap the rows below with a nonzero here are below[1:]
        for k in below[1:]:
            f = rows[k][col]
            rows[k][col:] = [(v - f * w) % prime for v, w in zip(rows[k][col:], pivot)]
        pivots.append(col)
    if len(pivots) != size - 1:
        return None
    free = min(set(range(size)).difference(pivots))
    # back substitution, each pivot row fixing its pivot coordinate
    x = [0] * size
    x[free] = 1
    for row, col in reversed(list(zip(rows, pivots))):
        x[col] = -sum(v * w for v, w in zip(row[col + 1:], x[col + 1:])) % prime
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

    For each prime of ``_PRIMES`` where the rotation quotient has rank
    size - 1, its kernel vector mod p with the free coordinate set to 1
    is CRT-combined with those of the earlier primes that had the same
    free column and rationally reconstructed.  The class values, spread
    over every pattern, are returned only when :func:`_pf_violation`
    accepts them on the full H, so neither the quotient nor a modular
    step needs trusting.  Raises :class:`KernelDimensionError` when the
    primes run out (a failure means a bug upstream).
    """
    h = build_h_matrix(n)
    class_of, q = _quotient(h, n)
    combined: dict[int, tuple[list[int], int]] = {}
    for prime in _PRIMES:
        solved = _kernel_mod(q, prime)
        if solved is None:
            continue
        free, x = solved
        residues, m = combined.get(free, ([0] * len(q), 1))
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
        ints = [int(fracs[c] * scale) for c in class_of]
        if not _pf_violation(h, n, ints):
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

    Builds the sparse H once.  The count vector, read over the basis,
    must pass :func:`_pf_violation` (a malformed H fails the report
    instead of raising), which makes it a positive vector spanning the
    kernel; with integer, coprime entries and none outside the basis it
    *is* the vector :func:`stationary_vector` returns.  The component
    sum must match the product formula.
    """
    counts = refined_counts(n, "+").as_vector()
    h = build_h_matrix(n)
    x = [counts.entries.get(p, 0) for p in h.basis]
    violation = _pf_violation(h, n, x)
    rs_zero = violation in ("", _NOT_THE_KERNEL)
    whole = len(counts.entries) == len(x) and all(v.denominator == 1 for v in x)
    if not violation and not (whole and math.gcd(*(int(v) for v in x)) == 1):
        violation = _NOT_THE_KERNEL
    return RsReport(
        n=n,
        rs_is_zero=rs_zero,
        kernel_matches_counts=not violation,
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
