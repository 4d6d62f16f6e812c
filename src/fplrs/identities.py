"""Auxiliary states of the bottom-row refinement and the identity suite.

Every configuration of the alternating square has exactly one c vertex
in its bottom row, with b's to the left and a's to the right.  The
auxiliary states refine the count vector by the type letter at one
bottom-row site: odd-column sites (positions 2j-1) and even-column
sites (positions 2j) get separate families.  One rule, :func:`_sites`,
gives the sites of each parity; the bottom faces are the even sites,
and every site or face bound below reads that rule.  Each identity in
the registry is an exact vector equation between such states, checked
at each of its admissible sites.  The recursions and the gyration
relations are one family table each, and a recursion is admissible
wherever both of the sites it relates exist.  All of them
read one cached census per size: the counting engine tallies the
configurations by black pattern and by the black edges of the two
bottom rows, and every state weights a few of those edge bits: the
slots of one or two vertices read as a type letter, or the edges of one
bottom face.

All states are computed on the full square with type filters; the
frozen-region reductions the proofs use become cross-checks (the
rectangle built by :func:`shat_c_rectangle` must reproduce the filtered
table exactly) rather than alternative code paths.

Two conventions are constants here, each derived by brute force in the
tests and checked by the suite at every size it runs: the type letter
of each placement of a vertex's two black edges (:data:`VERTEX_TYPES`,
under which every bottom row reads b..bca..a), and the rotation
exponent of each gyration relation, a column of the family table (the
two sources of the derivation disagree on them).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import GeometryMismatch, IndexOutOfRange, UnknownIdentity
from .fplcore import _transfer, psi_counts
from .lattice import EAST, NORTH, SOUTH, WEST, BoundaryCondition, Cell, Domain, build_square
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
    "VERTEX_TYPES",
    "aux_state",
    "s_vector",
    "nalpha_vector",
    "rs_vector",
    "check_identity",
    "check_spr",
    "shat_c_rectangle",
    "spr_instance",
    "run_identity_suite",
]


def _sites(n: int, parity: str) -> range:
    """The bottom-row sites of one parity: odd site j is column 2j-1,
    even site j is column 2j.  The bottom faces (columns 2j-1 and 2j)
    are exactly the even sites."""
    return range(1, (n + (parity == "odd")) // 2 + 1)


@lru_cache(maxsize=None)
def _census(n: int) -> Mapping:
    """The plus ensemble counted by black pattern and by the black edges
    the states read: the sweep's own counts, keyed ``(bits, pattern)``,
    keeping the internal edges of the two bottom rows.  ``bits`` carries
    the black terminations too, so it fixes every slot of a vertex in
    those rows and every edge of a bottom face.  Read-only, since every
    caller shares it.
    """
    d, t = build_square(n, "+")
    rows = [(x, y) for y in (1, 2) if y <= n for x in range(1, n + 1)]
    keep = sorted({e for v in rows for e in d.vertex_edges[v] if e < d.n_internal})
    return MappingProxyType(_transfer(d, t, keep=keep))


def _vector(n: int, mask: int, weights: Mapping[int, int]) -> LpVector:
    """Census counts summed per pattern, each key weighted by
    ``weights.get(bits & mask, 0)``."""
    counts: dict[LinkPattern, int] = {}
    for (bits, pattern), v in _census(n).items():
        w = weights.get(bits & mask, 0)
        if w:
            counts[pattern] = counts.get(pattern, 0) + w * v
    return LpVector(n, counts)


# The type letter of each placement of a vertex's two black edges, keyed
# by their slots: the straight pairs are c, and the corners split into
# a and b.  Every bottom row of the plus square reads b..bca..a under it,
# and under no other split of the six placements.
VERTEX_TYPES: Mapping[frozenset[int], str] = MappingProxyType({
    frozenset((EAST, NORTH)): "a", frozenset((WEST, SOUTH)): "a",
    frozenset((EAST, SOUTH)): "b", frozenset((WEST, NORTH)): "b",
    frozenset((EAST, WEST)): "c", frozenset((NORTH, SOUTH)): "c",
})


def _placements(n: int, v: Cell, letters: str) -> tuple[int, list[int]]:
    """The slot mask of vertex v of the size-n square, and the black
    edges of each of its placements whose type letter is in ``letters``:
    the slots' bits fix the placement, and the placement the letter."""
    slots = build_square(n, "+")[0].vertex_edges[v]
    placements = [
        sum(1 << slots[k] for k in dirs)
        for dirs, letter in VERTEX_TYPES.items()
        if letter in letters
    ]
    return sum(1 << e for e in slots), placements


@lru_cache(maxsize=None)
def s_vector(n: int) -> LpVector:
    """The full refined-count vector of the plus ensemble; cached, and
    read-only like every vector."""
    return _vector(n, 0, {0: 1})


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
    sites = _sites(n, parity)
    if j not in sites:
        raise IndexOutOfRange(f"j={j} outside [1, {len(sites)}] for parity {parity}")
    col = 2 * j - 1 if parity == "odd" else 2 * j
    if vtype in ("a", "b", "c"):
        mask, placements = _placements(n, (col, 1), vtype)
        return _vector(n, mask, dict.fromkeys(placements, 1))
    if vtype in ("cb", "cx"):
        if parity != "odd":
            raise IndexOutOfRange("the c-state split refines odd sites only")
        if n < 2:
            raise IndexOutOfRange("the c-state split needs a second row")
        below, cs = _placements(n, (col, 1), "c")
        above, xs = _placements(n, (col, 2), "b" if vtype == "cb" else "ac")
        # a union that disagrees on the shared edge matches no key
        return _vector(n, below | above, {c | x: 1 for c in cs for x in xs})
    raise ValueError(f"unknown vertex type {vtype!r}")


def nalpha_vector(n: int, j: int) -> LpVector:
    """Signed counts under the bottom-row face indicator at column 2j-1:
    +1 where the face's two horizontal edges are black and its two
    vertical ones white, -1 for the colour complement.

    Exists for 2j <= n; the callers treat the missing last face of odd
    sizes as the zero vector (its would-be coefficient class is empty).
    """
    if j not in _sites(n, "even"):
        raise IndexOutOfRange(f"no bottom face at column {2 * j - 1} for n={n}")
    h, v = build_square(n, "+")[0].face_masks[(2 * j - 1, 1)]
    return _vector(n, h | v, {h: 1, v: -1})


def rs_vector(n: int) -> LpVector:
    """(H - 2n) applied to the count vector; the identity says zero."""
    s = s_vector(n)
    return apply_hamiltonian(s) - 2 * n * s


def _e_cyclic(v: LpVector, j: int) -> LpVector:
    """e_j with the index taken cyclically (e_0 means e_2n)."""
    size = 2 * v.n
    return apply_e(v, ((j - 1) % size) + 1)


_REC_FAMILIES = {
    # name -> (parity, letter, other parity, offset): the state at site j
    # splits into the c- and same-letter states of the other parity at
    # site j + offset, wherever both sites exist
    "rec_a1": ("odd", "a", "even", -1),  # over the site to its left
    "rec_b1": ("odd", "b", "even", 0),  # over the site to its right
    "rec_a2": ("even", "a", "odd", 0),  # over the site to its left
    "rec_b2": ("even", "b", "odd", +1),  # over the site to its right
}

_GYR_FAMILIES = {
    # name -> (parity, letter, neighbour offset, rotation exponent): the
    # relation reads  e_j s = R^exponent e_{j+offset} s  at every site j
    "gyr_a_odd": ("odd", "a", -1, -1),
    "gyr_b_odd": ("odd", "b", -1, -1),
    "gyr_c_odd": ("odd", "c", -1, -1),
    "gyr_a_even": ("even", "a", -1, -1),
    "gyr_b_even": ("even", "b", +1, 1),  # rotates opposite to the other four
}


# ---------------------------------------------------------------------------
# Frozen-region rectangle and simple path reversal


def shat_c_rectangle(n: int, j: int) -> tuple[Domain, BoundaryCondition]:
    """The width-n, height-(n-1) rectangle carrying the frozen reduction
    of the odd c-state: alternating boundary except three consecutive
    black legs at bottom columns 2j-2, 2j-1, 2j (labels j-1, j, j+1)."""
    if n < 2:
        raise IndexOutOfRange("the reduction needs at least two rows")
    sites = _sites(n, "odd")
    if j not in sites:
        raise IndexOutOfRange(f"j={j} outside [1, {len(sites)}]")
    cells = frozenset((x, y) for x in range(1, n + 1) for y in range(1, n))
    d = Domain(cells, anchor=0)
    # alternating from a white anchor, as build_square's "-" colouring;
    # the leg at bottom column c is at position c - 1
    colours = [k % 2 for k in range(d.perimeter)]
    colours[2 * j - 2] = 1
    return d, BoundaryCondition(colours)


def spr_instance(n: int, j: int) -> tuple[Domain, BoundaryCondition]:
    """The c-state rectangle re-anchored so the adjacent black legs at
    bottom columns 2j-1, 2j become the last two boundary positions."""
    if j not in _sites(n, "even"):
        raise IndexOutOfRange(f"need column 2j <= n, got j={j} for n={n}")
    d, t = shat_c_rectangle(n, j)
    shift = 2 * j  # old position of bottom column 2j, plus one
    d2 = Domain(d.cells, anchor=shift)
    t2 = BoundaryCondition(t.colours[shift:] + t.colours[:shift])
    return d2, t2


class SprReport(NamedTuple):
    """Outcome of one simple-path-reversal check."""

    m: int
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
    cols = list(t1.colours)
    cols[size - 2] = cols[size - 1] = 0
    t2 = BoundaryCondition(tuple(cols))
    v1 = psi_counts(d, t1, [(e, 0)])
    v2 = psi_counts(d, t2, [(e, 1)])
    last = 2 * v1.n - 1
    return SprReport(
        m=v1.n,
        e_identity=apply_e(v1, last) == apply_a(v2, last),
        c_identity=apply_c(v1, last) == v2,
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
    for parity in ("odd", "even"):
        if j not in _sites(n, parity):
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
    for parity in ("odd", "even"):
        for j in _sites(n, parity):
            total = total + aux_state(n, parity, j, "c")
    return _pair(s_vector(n), total)


def _check_ec(n: int, j: int) -> tuple[bool, str]:
    v = aux_state(n, "even", j, "c")
    return _pair(apply_e(v, j), v)


def _rec_family(name: str):
    parity, letter, other, off = _REC_FAMILIES[name]

    def sites(n: int) -> list[int]:
        return [j for j in _sites(n, parity) if j + off in _sites(n, other)]

    def check(n: int, j: int) -> tuple[bool, str]:
        lhs = aux_state(n, parity, j, letter)
        rhs = aux_state(n, other, j + off, "c") + aux_state(n, other, j + off, letter)
        return _pair(lhs, rhs)

    return sites, check


def _gyr_family(name: str):
    parity, letter, off, power = _GYR_FAMILIES[name]

    def check(n: int, j: int) -> tuple[bool, str]:
        v = aux_state(n, parity, j, letter)
        lhs = _e_cyclic(v, j)
        rhs = apply_rotation(_e_cyclic(v, j + off), power)
        return _pair(lhs, rhs)

    return lambda n: _sites(n, parity), check


def _check_split_c(n: int, j: int) -> tuple[bool, str]:
    lhs = aux_state(n, "odd", j, "c")
    rhs = aux_state(n, "odd", j, "cb") + aux_state(n, "odd", j, "cx")
    return _pair(lhs, rhs)


def _check_ncx(n: int, j: int) -> tuple[bool, str]:
    v = aux_state(n, "odd", j, "cx")
    lhs = apply_e(v, j) - v
    rhs = nalpha_vector(n, j) if j in _sites(n, "even") else LpVector.zero(n)
    return _pair(lhs, rhs)


def _check_rs_decomposition(n: int, _j) -> tuple[bool, str]:
    lhs = rs_vector(n)
    rhs = LpVector.zero(n)
    for j in _sites(n, "even"):
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


# name -> (admissible sites at size n, check); an identity checked once
# per size has the single site None
_REGISTRY: dict[str, tuple[Callable[[int], Iterable], Callable]] = {
    # s = a + b + c at one bottom site, of both parities where they exist
    "ose": (lambda n: _sites(n, "odd"), _check_ose),
    # s = the sum of all c-states
    "lrd": (lambda n: (None,), _check_lrd),
    # even c-states are fixed by their capping generator
    "ec": (lambda n: _sites(n, "even"), _check_ec),
    **{name: _rec_family(name) for name in _REC_FAMILIES},
    **{name: _gyr_family(name) for name in _GYR_FAMILIES},
    # the odd c-state splits by the site above it, so needs a second row
    "split_c": (lambda n: _sites(n, "odd") if n >= 2 else (), _check_split_c),
    # the cx remainder equals the signed bottom-face projection
    "ncx": (lambda n: _sites(n, "odd") if n >= 2 else (), _check_ncx),
    # the stationarity defect decomposes over bottom faces and vanishes
    "rs_decomposition": (lambda n: (None,), _check_rs_decomposition),
    # simple path reversal on the re-anchored rectangle
    "spr": (lambda n: _sites(n, "even"), _check_spr_registry),
}


def check_identity(name: str, n: int, j: int | None = None) -> IdentityResult:
    """Run one registered identity at the given size and site index."""
    if name not in _REGISTRY:
        raise UnknownIdentity(name)
    sites, check = _REGISTRY[name]
    if j not in sites(n):
        raise IndexOutOfRange(f"j={j} not admissible for {name} at n={n}")
    ok, witness = check(n, j)
    return IdentityResult(name, n, j, ok, witness)


def run_identity_suite(n_values: Iterable[int]) -> Iterator[IdentityResult]:
    """Every registered identity at every admissible index, each result
    as soon as its check has run."""
    for n in n_values:
        for name, (sites, _check) in _REGISTRY.items():
            for j in sites(n):
                yield check_identity(name, n, j)
