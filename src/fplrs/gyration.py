"""The cycle-flipping bijection on configurations and its orbits.

Given a valid gluing, the map acts cycle by cycle: a 4-cycle whose
colours alternate is left alone, every other cycle is colour
complemented.  On the square this gives the two parity maps (plus and
minus pairing) whose composition generates the orbits; the plaquette
balance along every orbit and the triplet conservation across one pass
are the facts the verification suites certify.

Swapped gluings conjugate: when the gluing recorded convex-corner
swaps, the map reads the two legs at each swapped corner exchanged,
applies the cycle rule, and writes them back, so it still sends the
original boundary condition to its complement.  The swaps are disjoint
exchanges of two legs at one vertex, so this is a relabelling of leg
bits, which the gluing applies once to its cycle masks and pair legs;
the pass itself is the bare cycle rule.

A configuration is its bitmask, a plain int; the domain comes from the
gluing (``g.domain``) or the orbit (``Orbit.domain``).  The gluing
holds each 4-cycle's edge mask and its two alternating colourings, so
a pass is one masked test per 4-cycle and one XOR over all edges.
Orbits step on those ints through the two cached square gluings, and
the face counts along an orbit read each face's horizontal and
vertical edge masks off the same ints.  The orbit partition takes each
configuration's black pattern from the enumeration walk, which meets it
anyway, instead of tracing it.

Link data on the glued graph is read over the bichromatic glued
vertices (pairs whose two legs differ), labelled in pair order; both
the black and the white matching live on those points, and closed
monochromatic cycles are counted after gluing.  The paths are walked by
the flat tracer's walker in ``fplcore``: a monochromatic pair passes a
path from one leg to the other, and may close a loop of legs alone.
One pass preserves this triplet exactly; the rotation of
anchor-labelled patterns appears only when reading the result back
through the ungluing.  One full gyration sends pattern(phi) to
R^k pattern(phi) with k = :data:`ROTATION`, a constant of this
package's anchor conventions: the tests derive it from the orbits at
sizes 2 and 3, the wieland suite checks it there, and the orbits suite
checks it on every step of every orbit at each size.

The capped check reads the caller's gluing and glues nothing.  Its
labels run from the first pair's left leg, so the minus pairs, the plus
pairs read one leg on, need no wrapping cap.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .fplcore import _walk, _walk_paths, psi_counts
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
    apply_rotation,
    first_difference,
    rotate,
    rotation_class_of,
)

__all__ = [
    "Orbit",
    "PairLinkData",
    "apply_h",
    "orbit_partition",
    "orbit_faces",
    "pair_link_data",
    "ROTATION",
    "step_rotations",
    "generalized_gyration_check",
    "GyrationReport",
]

# The k with pattern(G phi) = R^k pattern(phi) on every step of every
# square orbit: a full gyration moves each arc (i, j) to (i + 1, j + 1).
ROTATION = -1


def apply_h(bits: int, g: GluedGraph) -> int:
    """One gyration pass on a configuration of ``g.domain``, given as its
    bitmask; sends the boundary condition to its complement.

    The cycle rule: alternating 4-cycles, those that read one of their
    two alternating colourings, are fixed, and all other cycles
    complemented.  An involution on its domain of definition.
    """
    flip, quads = g.cycle_masks
    for mask, alt0, alt1 in quads:
        s = bits & mask
        if s == alt0 or s == alt1:
            flip ^= mask
    return bits ^ flip


@lru_cache(maxsize=None)
def _square_glued(n: int, parity: str) -> GluedGraph:
    """The plus or minus gluing of the anchored n x n square, which both
    square ensembles share."""
    d, t = build_square(n, "+")
    return glue_and_gamma(d, t, parity)


class Orbit(NamedTuple):
    """One cycle of repeated gyration: the domain its configurations
    live on, their bitmasks in gyration order from the seed
    ``hashes[0]``, and the black pattern of each."""

    domain: Domain
    hashes: tuple[int, ...]
    patterns: tuple[LinkPattern, ...]

    @property
    def period(self) -> int:
        return len(self.hashes)


def _cycle(start: int, plus: GluedGraph, minus: GluedGraph) -> tuple[int, ...]:
    """The gyration cycle through a bitmask, stepped on plain ints: the
    full gyration is the plus pass followed by the minus pass."""
    hashes = [start]
    cur = apply_h(apply_h(start, plus), minus)
    while cur != start:
        hashes.append(cur)
        cur = apply_h(apply_h(cur, plus), minus)
    return tuple(hashes)


def orbit_partition(n: int, sign: str = "+") -> list[Orbit]:
    """All gyration orbits of the square ensemble, seeds in stream order.

    The walk gives every configuration with its pattern.  An orbit is
    formed at the first of its configurations the walk meets, and
    ``pattern`` then holds each of its configurations, keyed by the
    orbit's own ints, until the walk reaches it with its pattern; so
    ``pattern`` also tells which configurations an orbit already holds.
    """
    d, t = build_square(n, sign)
    plus, minus = _square_glued(n, "plus"), _square_glued(n, "minus")
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
        orbits.append(Orbit(d, hashes, patterns))
    return orbits


def orbit_faces(o: Orbit) -> tuple[str, dict[tuple[int, int], tuple[int, int]]]:
    """The rotation class of the orbit's seed pattern, as the word of its
    representative, and for every face how many of the orbit's
    configurations score +1 and -1 on it: the face's horizontal edges
    black and vertical ones white, or the reverse, read off each
    configuration's int with the face masks of ``o.domain``.  The class
    is the orbit's only one when every step rotates its pattern, which
    :func:`step_rotations` checks."""
    faces = {}
    for alpha, (h, v) in o.domain.face_masks.items():
        both = h | v
        plus = minus = 0
        for bits in o.hashes:
            s = bits & both
            if s == h:
                plus += 1
            elif s == v:
                minus += 1
        faces[alpha] = (plus, minus)
    return rotation_class_of(o.patterns[0]).word, faces


def step_rotations(orbits: list[Orbit]) -> set[int]:
    """The k in {1, -1} with pattern(G phi) = R^k pattern(phi) on every
    step of the orbits.  An orbit lists pattern(phi) and pattern(G phi)
    next to each other, cyclically.  A repeated step is tested once, so
    ``rotate`` runs at most twice per distinct step, not per
    configuration."""
    steps = {step for o in orbits for step in zip(o.patterns, o.patterns[1:] + o.patterns[:1])}
    return {k for k in (1, -1) if all(rotate(before, k) == after for before, after in steps)}


# ---------------------------------------------------------------------------
# Link data on the glued graph


class PairLinkData(NamedTuple):
    """Triplet read over the bichromatic glued vertices."""

    black: LinkPattern
    white: LinkPattern
    loops: int


def pair_link_data(bits: int, g: GluedGraph) -> PairLinkData:
    """Trace the paths of a configuration of ``g.domain``, given as its
    bitmask, on the glued graph, the legs read through the swaps.

    Endpoints are the bichromatic pairs, labelled by their order in the
    pairing; monochromatic pairs are passed through.  Loops of both
    colours are counted together.
    """
    d = g.domain
    white: dict[int, int] = {}
    black: dict[int, int] = {}
    glue: dict[int, int] = {}
    for (ta, tb), bichromatic in zip(g.legs, g.bichromatic):
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


class GyrationReport(NamedTuple):
    """Outcome of one generalized-gyration comparison."""

    j_left: tuple[int, ...]
    j_right: tuple[int, ...]
    passed: bool
    detail: str = ""


def _capped_vector(d: Domain, t: BoundaryCondition, pairs) -> tuple[tuple[int, ...], LpVector]:
    """The caps of one side, at the black labels of the left legs of the
    (black, black) pairs, and its capped counts.  A label is the number
    of black legs from the first pair's left leg up to and including
    this one, so no cap wraps round; counts labelled from a black leg 0
    are rotated by one label when the pairs start at leg 1."""
    cols, first = t.colours, pairs[0][0]
    caps = tuple(sum(cols[first : a + 1]) for a, b in pairs if cols[a] and cols[b])
    vec = psi_counts(d, t)
    if first and cols[0]:
        vec = apply_rotation(vec, 1)
    for j in reversed(caps):
        vec = apply_c(vec, j)
    return caps, vec


def generalized_gyration_check(g: GluedGraph) -> GyrationReport:
    """Compare the capped refined counts of a gluing's ensemble and its
    complement.

    Monochromatic pairs of the caller's gluing ``g`` are capped by
    diagram operators on each side, in the colours as swapped; the
    resulting vectors over the bichromatic points must agree exactly.
    Nothing is glued here.
    """
    t = g.swapped_bc
    j1, lhs = _capped_vector(g.domain, t, g.pairs)
    j2, rhs = _capped_vector(g.domain, t.complemented(), g.pairs)
    passed = lhs == rhs
    return GyrationReport(j1, j2, passed, "" if passed else first_difference(lhs, rhs))
