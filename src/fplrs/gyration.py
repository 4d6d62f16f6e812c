"""The cycle-flipping bijection on configurations and its orbits.

Given a valid gluing, the map acts cycle by cycle: a 4-cycle whose
colours alternate is left alone, every other cycle is colour
complemented.  On the square this gives the two parity maps (plus and
minus pairing) whose composition generates the orbits; the plaquette
balance along every orbit and the triplet conservation across one pass
are the facts the verification suites certify.

Swapped gluings conjugate: when the gluing recorded convex-corner
swaps, the map exchanges the two leg colours at each swapped corner,
applies the cycle rule, and swaps back, so it still sends the original
boundary condition to its complement.

The pass works on bitmasks: the gluing caches each 4-cycle's edge mask
and its two alternating colourings, so a pass is one masked test per
4-cycle and one XOR over all edges.  Orbits step on plain ints through
the two cached square gluings, and the face counts along an orbit read
each face's horizontal and vertical edge masks off the same ints.  The
orbit partition takes each configuration's black pattern from the
enumeration walk, which meets it anyway, instead of tracing it.

Link data on the glued graph is read over the bichromatic glued
vertices (pairs whose two legs differ), labelled in pair order; both
the black and the white matching live on those points, and closed
monochromatic cycles are counted after gluing.  The paths are walked by
the flat tracer's walker in ``fplcore``: a monochromatic pair passes a
path from one leg to the other, and may close a loop of legs alone.
One pass preserves this triplet exactly; the rotation of
anchor-labelled patterns appears only when reading the result back
through the ungluing, and its direction is pinned empirically, not
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import InvalidTriplet
from .fplcore import (
    FplConfig,
    _trace_colour,
    _walk,
    _walk_paths,
    enumerate_configs,
    psi_counts,
)
from .lattice import (
    BoundaryCondition,
    Domain,
    GluedGraph,
    build_square,
    glue_and_gamma,
)
from .linkpat import (
    LinkPattern,
    LpVector,
    apply_c,
    first_difference,
    rotate,
    rotation_class_of,
)

__all__ = [
    "Orbit",
    "PairLinkData",
    "apply_h",
    "gyrate",
    "orbit",
    "orbit_partition",
    "orbit_faces",
    "pair_link_data",
    "square_rotation_direction",
    "generalized_gyration_check",
    "GyrationReport",
]


def _swap_legs(bits: int, g: GluedGraph) -> int:
    """Exchange the colours of the two legs over every recorded swap."""
    d = g.domain
    for k in g.swaps:
        a = d.termination_id(k)
        b = d.termination_id((k + 1) % d.perimeter)
        if ((bits >> a) ^ (bits >> b)) & 1:
            bits ^= (1 << a) | (1 << b)
    return bits


def _pass(bits: int, g: GluedGraph) -> int:
    """The cycle rule on a bitmask: complement every cycle except the
    4-cycles that read one of their two alternating colourings."""
    bits = _swap_legs(bits, g)
    flip, quads = g.cycle_masks
    for mask, alt0, alt1 in quads:
        s = bits & mask
        if s == alt0 or s == alt1:
            flip ^= mask
    return _swap_legs(bits ^ flip, g)


def apply_h(phi: FplConfig, g: GluedGraph) -> FplConfig:
    """One gyration pass; sends the boundary condition to its complement.

    Alternating 4-cycles are fixed, all other cycles complemented.  An
    involution on its domain of definition.
    """
    if phi.domain is not g.domain and phi.domain != g.domain:
        raise InvalidTriplet("configuration and gluing live on different domains")
    return FplConfig(g.domain, _pass(phi.bits, g))


@lru_cache(maxsize=None)
def _square_glued(n: int, parity: str) -> GluedGraph:
    d, t = build_square(n, "+")
    return glue_and_gamma(d, t, parity)


def _square_gluings(d: Domain) -> tuple[GluedGraph, GluedGraph]:
    """The plus and minus gluings of an anchored square domain."""
    n2 = len(d.cells)
    n = int(round(n2 ** 0.5))
    if n * n != n2:
        raise InvalidTriplet("gyrate is defined on square domains")
    plus = _square_glued(n, "plus")
    if d is not plus.domain and d != plus.domain:
        raise InvalidTriplet("gyrate needs the anchored square domain")
    return plus, _square_glued(n, "minus")


def gyrate(phi: FplConfig) -> FplConfig:
    """The full gyration: the plus pass followed by the minus pass.

    Acts within each of the two alternating square ensembles; the
    domain must be an anchored square.
    """
    plus, minus = _square_gluings(phi.domain)
    return FplConfig(phi.domain, _pass(_pass(phi.bits, plus), minus))


@dataclass(frozen=True)
class Orbit:
    """One cycle of repeated gyration: the config bitmasks in gyration
    order from the seed, and the black pattern of each."""

    seed: FplConfig
    hashes: tuple[int, ...]
    patterns: tuple[LinkPattern, ...]

    @property
    def period(self) -> int:
        return len(self.hashes)

    def configs(self) -> Iterator[FplConfig]:
        for bits in self.hashes:
            yield FplConfig(self.seed.domain, bits)


def _cycle(start: int, plus: GluedGraph, minus: GluedGraph) -> tuple[int, ...]:
    """The gyration cycle through a bitmask, stepped on plain ints."""
    hashes = [start]
    cur = _pass(_pass(start, plus), minus)
    while cur != start:
        hashes.append(cur)
        cur = _pass(_pass(cur, plus), minus)
    return tuple(hashes)


def orbit(phi: FplConfig) -> Orbit:
    """The gyration cycle through phi, each configuration's pattern
    traced."""
    d = phi.domain
    hashes = _cycle(phi.bits, *_square_gluings(d))
    patterns = tuple(_trace_colour(FplConfig(d, bits), 1)[0] for bits in hashes)
    return Orbit(phi, hashes, patterns)


def orbit_partition(n: int, sign: str = "+") -> list[Orbit]:
    """All gyration orbits of the square ensemble, seeds in stream order.

    The walk gives every configuration with its pattern.  An orbit is
    formed at the first of its configurations the walk meets, and
    ``pattern`` then holds each of its configurations, keyed by the
    orbit's own ints, until the walk reaches it with its pattern; so
    ``pattern`` also tells which configurations an orbit already holds.
    """
    d, t = build_square(n, sign)
    plus, minus = _square_gluings(d)
    pattern: dict[int, LinkPattern | None] = {}
    cycles: list[tuple[int, ...]] = []
    for bits, p in _walk(d, t):
        if bits not in pattern:
            hashes = _cycle(bits, plus, minus)
            cycles.append(hashes)
            pattern.update(dict.fromkeys(hashes))
        # the key stays the orbit's int; the walk's is let go
        pattern[bits] = p
    orbits = []
    for hashes in cycles:
        patterns = tuple(pattern[bits] for bits in hashes)
        if None in patterns:
            raise AssertionError("gyration left the ensemble")
        orbits.append(Orbit(FplConfig(d, hashes[0]), hashes, patterns))
    return orbits


def orbit_faces(o: Orbit) -> tuple[tuple[str, ...], dict[tuple[int, int], tuple[int, int]]]:
    """The rotation classes of the black patterns the orbit carries,
    sorted (one class, by Wieland's theorem), and for every face how
    many of the orbit's configurations score +1 and -1 on it: the face's
    horizontal edges black and vertical ones white, or the reverse."""
    d = o.seed.domain
    # sorted by word: a set of patterns iterates in identity-hash order
    classes = tuple(sorted(c.word for c in {rotation_class_of(p) for p in o.patterns}))
    faces = {}
    for alpha, (h, v) in d.face_masks.items():
        both = h | v
        plus = minus = 0
        for bits in o.hashes:
            s = bits & both
            if s == h:
                plus += 1
            elif s == v:
                minus += 1
        faces[alpha] = (plus, minus)
    return classes, faces


@lru_cache(maxsize=None)
def square_rotation_direction() -> int:
    """The empirical k with pattern(G phi) = R^k pattern(phi) on squares.

    Determined at sizes 2 and 3 and asserted to be consistent; the two
    candidate directions first differ at size 3.
    """
    candidates = {1, -1}
    for n in (2, 3):
        d, t = build_square(n, "+")
        for phi in enumerate_configs(d, t):
            before = _trace_colour(phi, 1)[0]
            after = _trace_colour(gyrate(phi), 1)[0]
            candidates = {
                k for k in candidates if rotate(before, k) == after
            }
            if not candidates:
                raise AssertionError("gyration does not rotate patterns uniformly")
    if len(candidates) != 1:
        raise AssertionError("rotation direction still ambiguous at size 3")
    return candidates.pop()


# ---------------------------------------------------------------------------
# Link data on the glued graph


@dataclass(frozen=True)
class PairLinkData:
    """Triplet read over the bichromatic glued vertices."""

    black: LinkPattern
    white: LinkPattern
    loops: int


def pair_link_data(phi: FplConfig, g: GluedGraph) -> PairLinkData:
    """Trace paths on the glued graph of the (swap-conjugated) config.

    Endpoints are the bichromatic pairs, labelled by their order in the
    pairing; monochromatic pairs are passed through.  Loops of both
    colours are counted together.
    """
    d = g.domain
    bits = _swap_legs(phi.bits, g)
    white: dict[int, int] = {}
    black: dict[int, int] = {}
    glue: dict[int, int] = {}
    for (a, b), bichromatic in zip(g.pairs, g.bichromatic):
        ta, tb = d.termination_id(a), d.termination_id(b)
        if bichromatic:
            if (bits >> ta) & 1:
                ta, tb = tb, ta
            white[ta] = black[tb] = len(black)
        else:
            glue[ta], glue[tb] = tb, ta
    black_pattern, black_loops = _walk_paths(d, bits, black, glue)
    white_pattern, white_loops = _walk_paths(d, ~bits, white, glue)
    return PairLinkData(black_pattern, white_pattern, black_loops + white_loops)


# ---------------------------------------------------------------------------
# Generalized gyration (monochromatic pairs capped by diagram operators)


@dataclass(frozen=True)
class GyrationReport:
    """Outcome of one generalized-gyration comparison."""

    parity: str
    j_left: tuple[int, ...]
    j_right: tuple[int, ...]
    swaps: tuple[int, ...]
    passed: bool
    detail: str = ""


def _black_label_sets(t: BoundaryCondition) -> tuple[int, ...]:
    """1-based black labels of the left legs of (black, black) pairs.

    Pairs are (0,1), (2,3), ... over the anchored termination order.
    """
    cols = t.colours
    labels: dict[int, int] = {}
    running = 0
    for pos, c in enumerate(cols):
        if c:
            running += 1
            labels[pos] = running
    return tuple(
        labels[2 * i]
        for i in range(len(cols) // 2)
        if cols[2 * i] and cols[2 * i + 1]
    )


def _capped_vector(d: Domain, t: BoundaryCondition, caps: tuple[int, ...]) -> LpVector:
    counts = psi_counts(d, t)
    n = sum(t.colours) // 2
    vec = LpVector.from_counts(n, counts)
    for j in sorted(caps, reverse=True):
        vec = apply_c(vec, j)
    return vec


def generalized_gyration_check(
    d: Domain, t: BoundaryCondition, parity: str = "plus"
) -> GyrationReport:
    """Compare the capped refined counts of an ensemble and its complement.

    Monochromatic pairs under the chosen pairing are capped by diagram
    operators on each side; the resulting vectors over the bichromatic
    points must agree exactly.  The minus pairing is reduced to the plus
    pairing of the once-rotated anchor, so no affine cap is ever needed.
    """
    if parity == "minus":
        shift = Domain(d.cells, (d.anchor + 1) % d.perimeter)
        t_shift = BoundaryCondition(t.colours[1:] + t.colours[:1])
        inner = generalized_gyration_check(shift, t_shift, "plus")
        return GyrationReport(
            "minus", inner.j_left, inner.j_right, inner.swaps, inner.passed, inner.detail
        )
    g = glue_and_gamma(d, t, "plus", allow_swaps=True)
    t1 = g.swapped_bc
    t2 = t1.complemented()
    j1 = _black_label_sets(t1)
    j2 = _black_label_sets(t2)
    lhs = _capped_vector(d, t1, j1)
    rhs = _capped_vector(d, t2, j2)
    passed = lhs == rhs
    detail = "" if passed else first_difference(lhs, rhs)
    return GyrationReport("plus", j1, j2, g.swaps, passed, detail)
