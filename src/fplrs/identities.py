"""Auxiliary states of the bottom-row refinement and the identity suite.

Every configuration of the alternating square has exactly one c vertex
in its bottom row, with b's to the left and a's to the right.  The
auxiliary states refine the count vector by the type letter at one
bottom-row site: odd-column sites (positions 2j-1) and even-column
sites (positions 2j) get separate families.  Each identity in the
registry is an exact vector equation between such states.  All of them
read one cached census per size: the counting engine tallies the
configurations by black pattern, the type words of the two bottom rows
and the bottom-face indicators, and every state is a weighted sum over
those keys.

All states are computed on the full square with type filters; the
frozen-region reductions the proofs use become cross-checks (the
rectangle built by :func:`shat_c_rectangle` must reproduce the filtered
table exactly) rather than alternative code paths.

The rotation directions in the gyration relations are not hard-coded:
the two sources in the underlying derivation disagree, so the registry
pins them by brute force at sizes 3 and 4 and exposes the result via
:func:`gyration_directions`.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import GeometryMismatch, IndexOutOfRange, UnknownIdentity
from .fplcore import FplConfig, _transfer, plaquette_indicator, psi_counts, vertex_type
from .lattice import EAST, NORTH, BoundaryCondition, Domain, build_square
from .linkpat import (
    LinkPattern,
    LpVector,
    apply_a,
    apply_c,
    apply_e,
    apply_hamiltonian,
    apply_rotation,
    apply_sym,
    first_difference,
)

__all__ = [
    "IdentityResult",
    "SprReport",
    "aux_state",
    "s_vector",
    "nalpha_vector",
    "rs_vector",
    "gyration_directions",
    "check_identity",
    "check_spr",
    "shat_c_rectangle",
    "spr_instance",
    "run_identity_suite",
]


def n_odd_sites(n: int) -> int:
    return (n + 1) // 2


def n_even_sites(n: int) -> int:
    return n // 2


@lru_cache(maxsize=None)
def _census(n: int) -> Mapping:
    """The plus ensemble counted by what the identity suite reads of a
    configuration: its black pattern, the type letters of the two bottom
    rows and the bottom-face indicators.

    One sweep keeps the internal edges of the two bottom rows; with the
    black terminations, which the sweep's bits carry, they fix every
    edge those keys read.  Read-only, since every caller shares it.
    """
    d, t = build_square(n, "+")
    rows = [(x, y) for y in (1, 2) if y <= n for x in range(1, n + 1)]
    keep = sorted({e for v in rows for e in d.vertex_edges[v] if e < d.n_internal})
    census: dict = {}
    for (bits, pattern), v in _transfer(d, t, keep=keep).items():
        phi = FplConfig(d, bits)
        row = lambda y: "".join(vertex_type(phi, (x, y)) for x in range(1, n + 1))
        alphas = tuple(plaquette_indicator(phi, (2 * j - 1, 1)) for j in range(1, n // 2 + 1))
        key = pattern, row(1), row(2) if n >= 2 else "", alphas
        census[key] = census.get(key, 0) + v
    return MappingProxyType(census)


def _vector(n: int, weight: Callable[[str, str, tuple[int, ...]], int]) -> LpVector:
    """Census counts summed per pattern, each key weighted by
    ``weight(bottom, row2, alphas)``."""
    counts: dict[LinkPattern, int] = {}
    for (pattern, bottom, row2, alphas), v in _census(n).items():
        w = weight(bottom, row2, alphas)
        if w:
            counts[pattern] = counts.get(pattern, 0) + w * v
    return LpVector(n, counts)


@lru_cache(maxsize=None)
def s_vector(n: int) -> LpVector:
    """The full refined-count vector of the plus ensemble; cached, and
    read-only like every vector."""
    return _vector(n, lambda bottom, row2, alphas: 1)


@lru_cache(maxsize=None)
def aux_state(n: int, parity: str, j: int, vtype: str) -> LpVector:
    """The count vector restricted by one bottom-row site type; cached,
    so every identity that reads a state shares one vector.  Parity
    picks the site column: "odd" is column 2j-1, "even" column 2j.

    For ``vtype`` "cb"/"cx" (odd parity only) the site must be a c and
    the site above it is constrained to b, respectively to a or c.
    """
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    limit = n_odd_sites(n) if parity == "odd" else n_even_sites(n)
    if not 1 <= j <= limit:
        raise IndexOutOfRange(f"j={j} outside [1, {limit}] for parity {parity}")
    col = 2 * j - 1 if parity == "odd" else 2 * j
    if vtype in ("a", "b", "c"):
        return _vector(n, lambda bottom, row2, alphas: bottom[col - 1] == vtype)
    if vtype in ("cb", "cx"):
        if parity != "odd":
            raise IndexOutOfRange("the c-state split refines odd sites only")
        if n < 2:
            raise IndexOutOfRange("the c-state split needs a second row")
        above = "b" if vtype == "cb" else "ac"
        return _vector(
            n,
            lambda bottom, row2, alphas: bottom[col - 1] == "c" and row2[col - 1] in above,
        )
    raise ValueError(f"unknown vertex type {vtype!r}")


def nalpha_vector(n: int, j: int) -> LpVector:
    """Signed counts under the bottom-row face indicator at column 2j-1.

    Exists for 2j <= n; the callers treat the missing last face of odd
    sizes as the zero vector (its would-be coefficient class is empty).
    """
    if not 1 <= j <= n // 2:
        raise IndexOutOfRange(f"no bottom face at column {2 * j - 1} for n={n}")
    return _vector(n, lambda bottom, row2, alphas: alphas[j - 1])


def rs_vector(n: int) -> LpVector:
    """(H - 2n) applied to the count vector; the identity says zero."""
    s = s_vector(n)
    return apply_hamiltonian(s) - 2 * n * s


def _e_cyclic(v: LpVector, j: int) -> LpVector:
    """e_j with the index taken cyclically (e_0 means e_2n)."""
    size = 2 * v.n
    return apply_e(v, ((j - 1) % size) + 1)


_GYR_FAMILIES = {
    # name -> (parity, letter, neighbour offset)
    "gyr_a_odd": ("odd", "a", -1),
    "gyr_b_odd": ("odd", "b", -1),
    "gyr_c_odd": ("odd", "c", -1),
    "gyr_a_even": ("even", "a", -1),
    "gyr_b_even": ("even", "b", +1),
}


@lru_cache(maxsize=None)
def gyration_directions() -> dict[str, int]:
    """Empirically pinned rotation exponents of the gyration relations.

    For each family the relation reads  e_j s = R^dir e_{j+off} s  and
    the exponent is the unique one consistent across sizes 3 and 4 for
    every admissible j.  Degenerate cases (zero states) accept both
    directions and do not discriminate.
    """
    candidates = {name: {1, -1} for name in _GYR_FAMILIES}
    for n in (3, 4):
        for name, (parity, letter, off) in _GYR_FAMILIES.items():
            limit = n_odd_sites(n) if parity == "odd" else n_even_sites(n)
            for j in range(1, limit + 1):
                v = aux_state(n, parity, j, letter)
                lhs = _e_cyclic(v, j)
                rhs = _e_cyclic(v, j + off)
                candidates[name] = {
                    k
                    for k in candidates[name]
                    if lhs == apply_rotation(rhs, k)
                }
    for name, dirs in candidates.items():
        if len(dirs) != 1:
            raise AssertionError(
                f"gyration relation {name} not pinned: candidates {sorted(dirs)}"
            )
    return {name: dirs.pop() for name, dirs in candidates.items()}


# ---------------------------------------------------------------------------
# Frozen-region rectangle and simple path reversal


def shat_c_rectangle(n: int, j: int) -> tuple[Domain, BoundaryCondition]:
    """The width-n, height-(n-1) rectangle carrying the frozen reduction
    of the odd c-state: alternating boundary except three consecutive
    black legs at bottom columns 2j-2, 2j-1, 2j (labels j-1, j, j+1)."""
    if n < 2:
        raise IndexOutOfRange("the reduction needs at least two rows")
    if not 1 <= j <= n_odd_sites(n):
        raise IndexOutOfRange(f"j={j} outside [1, {n_odd_sites(n)}]")
    h = n - 1
    cells = frozenset((x, y) for x in range(1, n + 1) for y in range(1, h + 1))
    d = Domain(cells, anchor=0)
    colours: list[int] = []
    for c in range(1, n + 1):  # south legs, columns left to right
        colours.append(1 if (c % 2 == 0 or c == 2 * j - 1) else 0)
    for r in range(1, h + 1):  # east legs, bottom to top
        colours.append(1 if (n + r) % 2 == 0 else 0)
    for c in range(n, 0, -1):  # north legs, right to left
        colours.append(1 if (n + c) % 2 == 0 else 0)
    for r in range(h, 0, -1):  # west legs, top to bottom
        colours.append(1 if r % 2 == 1 else 0)
    return d, BoundaryCondition(tuple(colours))


def spr_instance(n: int, j: int) -> tuple[Domain, BoundaryCondition]:
    """The c-state rectangle re-anchored so the adjacent black legs at
    bottom columns 2j-1, 2j become the last two boundary positions."""
    if not 1 <= j <= n_even_sites(n):
        raise IndexOutOfRange(f"need column 2j <= n, got j={j} for n={n}")
    d, t = shat_c_rectangle(n, j)
    shift = 2 * j  # old position of bottom column 2j, plus one
    d2 = Domain(d.cells, anchor=shift)
    t2 = BoundaryCondition(t.colours[shift:] + t.colours[:shift])
    return d2, t2


class SprReport(NamedTuple):
    """Outcome of one simple-path-reversal check."""

    m: int
    side1: int
    side2: int
    e_identity: bool
    c_identity: bool

    @property
    def passed(self) -> bool:
        return self.e_identity and self.c_identity


def check_spr(d: Domain, t1: BoundaryCondition) -> SprReport:
    """Reverse the three-edge path at the last two (black) legs.

    Side one keeps configurations whose connecting edge is white, side
    two flips the two legs white and keeps the edge black; capping or
    adding the last arc must transport one side onto the other exactly.
    """
    size = d.perimeter
    if t1.colours[size - 2] != 1 or t1.colours[size - 1] != 1:
        raise GeometryMismatch("the last two terminations must be black")
    va = d.terminations[size - 2][0]
    vb = d.terminations[size - 1][0]
    if abs(va[0] - vb[0]) + abs(va[1] - vb[1]) != 1:
        raise GeometryMismatch("the last two legs must attach to adjacent sites")
    lo, hi = sorted((va, vb))
    e = d.vertex_edges[lo][EAST if lo[1] == hi[1] else NORTH]
    m = t1.n_black // 2
    cols = list(t1.colours)
    cols[size - 2] = cols[size - 1] = 0
    t2 = BoundaryCondition(tuple(cols))
    side1 = psi_counts(d, t1, [(e, 0)])
    side2 = psi_counts(d, t2, [(e, 1)])
    v1 = LpVector(m, side1)
    v2 = LpVector(m - 1, side2)
    e_ok = apply_e(v1, 2 * m - 1) == apply_a(v2, 2 * m - 1)
    c_ok = apply_c(v1, 2 * m - 1) == v2
    return SprReport(
        m=m,
        side1=sum(side1.values()),
        side2=sum(side2.values()),
        e_identity=e_ok,
        c_identity=c_ok,
    )


# ---------------------------------------------------------------------------
# The registry


class IdentityResult(NamedTuple):
    identity: str
    n: int
    j: int | None
    status: bool
    witness: str = ""


def _pair(lhs: LpVector, rhs: LpVector) -> tuple[bool, str]:
    ok = lhs == rhs
    return ok, "" if ok else first_difference(lhs, rhs)


def _check_ose(n: int, j: int) -> tuple[bool, str]:
    s = s_vector(n)
    for parity, limit in (("odd", n_odd_sites(n)), ("even", n_even_sites(n))):
        if j > limit:
            continue
        total = (
            aux_state(n, parity, j, "a")
            + aux_state(n, parity, j, "b")
            + aux_state(n, parity, j, "c")
        )
        ok, witness = _pair(s, total)
        if not ok:
            return False, f"{parity}: {witness}"
    return True, ""


def _check_lrd(n: int, _j) -> tuple[bool, str]:
    total = LpVector.zero(n)
    for j in range(1, n_odd_sites(n) + 1):
        total = total + aux_state(n, "odd", j, "c")
    for j in range(1, n_even_sites(n) + 1):
        total = total + aux_state(n, "even", j, "c")
    return _pair(s_vector(n), total)


def _check_ec(n: int, j: int) -> tuple[bool, str]:
    v = aux_state(n, "even", j, "c")
    return _pair(apply_e(v, j), v)


def _check_rec_a1(n: int, j: int) -> tuple[bool, str]:
    lhs = aux_state(n, "odd", j, "a")
    rhs = aux_state(n, "even", j - 1, "c") + aux_state(n, "even", j - 1, "a")
    return _pair(lhs, rhs)


def _check_rec_b1(n: int, j: int) -> tuple[bool, str]:
    lhs = aux_state(n, "odd", j, "b")
    rhs = aux_state(n, "even", j, "c") + aux_state(n, "even", j, "b")
    return _pair(lhs, rhs)


def _check_rec_a2(n: int, j: int) -> tuple[bool, str]:
    lhs = aux_state(n, "even", j, "a")
    rhs = aux_state(n, "odd", j, "c") + aux_state(n, "odd", j, "a")
    return _pair(lhs, rhs)


def _check_rec_b2(n: int, j: int) -> tuple[bool, str]:
    lhs = aux_state(n, "even", j, "b")
    rhs = aux_state(n, "odd", j + 1, "c") + aux_state(n, "odd", j + 1, "b")
    return _pair(lhs, rhs)


def _make_gyr_check(name: str):
    parity, letter, off = _GYR_FAMILIES[name]

    def check(n: int, j: int) -> tuple[bool, str]:
        direction = gyration_directions()[name]
        v = aux_state(n, parity, j, letter)
        lhs = _e_cyclic(v, j)
        rhs = apply_rotation(_e_cyclic(v, j + off), direction)
        return _pair(lhs, rhs)

    return check


def _check_split_c(n: int, j: int) -> tuple[bool, str]:
    lhs = aux_state(n, "odd", j, "c")
    rhs = aux_state(n, "odd", j, "cb") + aux_state(n, "odd", j, "cx")
    return _pair(lhs, rhs)


def _check_ncx(n: int, j: int) -> tuple[bool, str]:
    v = aux_state(n, "odd", j, "cx")
    lhs = apply_e(v, j) - v
    rhs = nalpha_vector(n, j) if j <= n // 2 else LpVector.zero(n)
    return _pair(lhs, rhs)


def _check_rs_decomposition(n: int, _j) -> tuple[bool, str]:
    lhs = rs_vector(n)
    rhs = LpVector.zero(n)
    for j in range(1, n // 2 + 1):
        rhs = rhs + apply_sym(nalpha_vector(n, j))
    ok, witness = _pair(lhs, rhs)
    if ok and not lhs.is_zero():
        return False, "decomposition agrees but is not zero"
    return ok, witness


def _check_spr_registry(n: int, j: int) -> tuple[bool, str]:
    d, t1 = spr_instance(n, j)
    report = check_spr(d, t1)
    if report.passed:
        return True, ""
    return False, f"e:{report.e_identity} c:{report.c_identity} m={report.m}"


def _range_odd(n: int) -> tuple[int, ...]:
    return tuple(range(1, n_odd_sites(n) + 1))


def _range_even(n: int) -> tuple[int, ...]:
    return tuple(range(1, n_even_sites(n) + 1))


_REGISTRY: dict[str, tuple[str, Callable[[int], tuple[int, ...]], Callable]] = {
    "ose": (
        "site expansion: s = a + b + c at one bottom site (both parities)",
        _range_odd,
        _check_ose,
    ),
    "lrd": (
        "last-row decomposition: s = sum of all c-states",
        lambda n: (None,),
        _check_lrd,
    ),
    "ec": (
        "even c-states are fixed by their capping generator",
        _range_even,
        _check_ec,
    ),
    "rec_a1": (
        "odd a-state splits over the site to its left",
        lambda n: tuple(range(2, n_odd_sites(n) + 1)),
        _check_rec_a1,
    ),
    "rec_b1": (
        "odd b-state splits over the site to its right",
        _range_even,
        _check_rec_b1,
    ),
    "rec_a2": (
        "even a-state splits over the site to its left",
        _range_even,
        _check_rec_a2,
    ),
    "rec_b2": (
        "even b-state splits over the site to its right",
        lambda n: tuple(range(1, n_odd_sites(n))),
        _check_rec_b2,
    ),
    "gyr_a_odd": (
        "gyration relation for odd a-states",
        _range_odd,
        _make_gyr_check("gyr_a_odd"),
    ),
    "gyr_b_odd": (
        "gyration relation for odd b-states",
        _range_odd,
        _make_gyr_check("gyr_b_odd"),
    ),
    "gyr_c_odd": (
        "gyration relation for odd c-states",
        _range_odd,
        _make_gyr_check("gyr_c_odd"),
    ),
    "gyr_a_even": (
        "gyration relation for even a-states",
        _range_even,
        _make_gyr_check("gyr_a_even"),
    ),
    "gyr_b_even": (
        "gyration relation for even b-states (opposite rotation)",
        _range_even,
        _make_gyr_check("gyr_b_even"),
    ),
    "split_c": (
        "odd c-state splits by the site above the matching black leg",
        lambda n: _range_odd(n) if n >= 2 else (),
        _check_split_c,
    ),
    "ncx": (
        "the cx remainder equals the signed bottom-face projection",
        lambda n: _range_odd(n) if n >= 2 else (),
        _check_ncx,
    ),
    "rs_decomposition": (
        "the stationarity defect decomposes over bottom faces and vanishes",
        lambda n: (None,),
        _check_rs_decomposition,
    ),
    "spr": (
        "simple path reversal on the re-anchored rectangle",
        lambda n: _range_even(n) if n >= 2 else (),
        _check_spr_registry,
    ),
}


def check_identity(name: str, n: int, j: int | None = None) -> IdentityResult:
    """Run one registered identity at the given size and site index."""
    if name not in _REGISTRY:
        raise UnknownIdentity(name)
    _, j_values, check = _REGISTRY[name]
    if j is None and tuple(j_values(n)) != (None,):
        raise IndexOutOfRange(f"identity {name} needs a site index at n={n}")
    if j is not None and j not in j_values(n):
        raise IndexOutOfRange(f"j={j} not admissible for {name} at n={n}")
    ok, witness = check(n, j)
    return IdentityResult(name, n, j, ok, witness)


def run_identity_suite(n_values: Iterable[int]) -> list[IdentityResult]:
    """Every registered identity at every admissible index."""
    results = []
    for n in n_values:
        for name, (_, j_values, _check) in _REGISTRY.items():
            for j in j_values(n):
                results.append(check_identity(name, n, j))
    return results
