"""Square-lattice domains, boundary data, and termination gluing.

A domain is a finite set of lattice vertices ("cells") forming an
edge-connected, simply-connected polyomino.  Every vertex carries four
slots, one per direction E, N, W, S; a slot towards another cell is an
internal edge, a slot towards the outside is a termination, or leg.
The counter-clockwise boundary walk goes from leg to leg and visits
every termination once.  The turn between consecutive legs is the
change of their outward slot: left (+1), straight (0) or right (-1);
the turn sequence is ``Domain.steps`` and always sums to 4.

Canonical edge order: ``Domain.vertex_edges`` builds it in one pass,
numbering the internal edges row-major over vertices (sorted by (y, x)),
per vertex first the east then the north edge, and then the
terminations in boundary order starting at the anchor.  Configurations
are stored as bitmasks over this order, so streams and caches are
bit-exact.  A domain caches what the bit-level code reads of it, the
per-face edge masks and the path-tracing table, as it is first asked
for.  A gluing is one record that :func:`glue_and_gamma` fills at once,
its cycle masks too, from the colours it has swapped; nothing on it is
computed later.

Gluing: terminations are paired consecutively, pairs (1,2),(3,4),...
for the plus parity and (2,3),...,(2N,1) for the minus parity, the plus
pairing read one leg on.  Each pair forces a short boundary cycle (a
digon over a convex corner, a triangle over a straight stretch, a
4-cycle over a concave corner), and the remaining internal edges are
covered by the lattice plaquettes of one chequerboard colour, the colour
of the face above the lowest of them.  The cycles must partition the
edges, or the gluing is rejected.  A pairing is valid when every cycle
has length at most 4 and every cycle through a bichromatic glued vertex
has length at most 3; when a concave corner breaks this, the two
terminations over an adjacent convex corner are interchanged (a
count-preserving swap; swaps are always tried) and the test repeated.
The turn between two glued terminations already fixes the length of
their cycle, so this test runs on the boundary walk alone, before any
edge ids or plaquettes are built.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import InvalidTriplet, NonUniqueGamma, immutable

__all__ = [
    "EAST",
    "NORTH",
    "WEST",
    "SOUTH",
    "DIRS",
    "Domain",
    "BoundaryCondition",
    "GluedGraph",
    "build_square",
    "glue_and_gamma",
]

EAST, NORTH, WEST, SOUTH = 0, 1, 2, 3
DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))

Cell = tuple[int, int]


def _neighbour(v: Cell, d: int) -> Cell:
    dx, dy = DIRS[d]
    return (v[0] + dx, v[1] + dy)


def _trace_boundary(cells: frozenset[Cell]) -> tuple[tuple[Cell, int], ...]:
    """Counter-clockwise boundary walk from leg to leg.

    Returns the terminations in cyclic order, starting at the south leg
    of the bottom-most-then-left-most cell.  A leg (v, slot) is walked
    along slot + 1 with the domain on the left.  The cell ``ahead`` of
    v along that heading, and the cell ``beyond`` it across the leg's
    slot, fix the next leg: v's next slot when ``ahead`` is outside (a
    convex corner), ``ahead``'s leg on the same slot when only it is
    inside (a straight stretch), and ``beyond``'s slot turned right
    when both are (a concave corner).
    """
    start = leg = (min(cells, key=lambda c: (c[1], c[0])), SOUTH)
    legs = []
    while True:
        legs.append(leg)
        v, slot = leg
        heading = (slot + 1) % 4
        ahead = _neighbour(v, heading)
        beyond = _neighbour(ahead, slot)
        if ahead not in cells:
            if beyond in cells:
                # v and beyond touch at a corner only
                raise ValueError("boundary is pinched; domain is not simply connected")
            leg = (v, heading)
        elif beyond in cells:
            leg = (beyond, (slot + 3) % 4)
        else:
            leg = (ahead, slot)
        if leg == start:
            return tuple(legs)


class Domain:
    """A simply-connected polyomino of lattice vertices with an anchor.

    ``anchor`` indexes into the canonical boundary order produced by
    :func:`_trace_boundary`; ``terminations`` starts there, and
    ``n_internal`` counts the adjacent pairs.  Both are set once, by
    the one trace that ``__init__`` makes.  Immutable, and equal by
    cells and anchor.
    """

    cells: frozenset[Cell]
    anchor: int
    terminations: tuple[tuple[Cell, int], ...]
    n_internal: int
    __setattr__ = __delattr__ = immutable

    def __init__(self, cells, anchor: int = 0) -> None:
        cells = frozenset((int(x), int(y)) for x, y in cells)
        if not cells:
            raise ValueError("domain needs at least one cell")
        # a pinched boundary raises.  A second component or a hole
        # leaves legs off the outer walk, so the walk falls short of the
        # 4|cells| - 2|adjacent pairs| legs
        legs = _trace_boundary(cells)
        pairs = sum(((x + 1, y) in cells) + ((x, y + 1) in cells) for x, y in cells)
        if len(legs) != 4 * len(cells) - 2 * pairs:
            raise ValueError("cells are not edge-connected or enclose a hole; not simply connected")
        if not 0 <= anchor < len(legs):
            raise ValueError("anchor out of range")
        self.__dict__.update(
            cells=cells, anchor=anchor, terminations=legs[anchor:] + legs[:anchor], n_internal=pairs
        )

    def __eq__(self, other) -> bool:
        if type(other) is not Domain:
            return NotImplemented
        return self.cells == other.cells and self.anchor == other.anchor

    def __hash__(self) -> int:
        return hash((self.cells, self.anchor))

    @cached_property
    def vertices(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells, key=lambda c: (c[1], c[0])))

    @cached_property
    def steps(self) -> tuple[int, ...]:
        """steps[k] is the turn between terminations k and k+1 (0-based):
        +1, 0 or -1 as the outward slot turns left, stays or turns right."""
        slots = [d for _, d in self.terminations]
        return tuple((b - a + 1) % 4 - 1 for a, b in zip(slots, slots[1:] + slots[:1]))

    @property
    def perimeter(self) -> int:
        return len(self.terminations)

    @cached_property
    def vertex_edges(self) -> dict[Cell, tuple[int, int, int, int]]:
        """Edge ids of the four slots of each vertex, in E, N, W, S order:
        the canonical edge order, built here.  Each vertex in ``vertices``
        order numbers its E and then its N internal edge, a neighbour's W
        or S slot too; the terminations follow in anchored order."""
        slots = {v: [0, 0, 0, 0] for v in self.cells}
        e = 0
        for v in self.vertices:
            for d in (EAST, NORTH):
                w = _neighbour(v, d)
                if w in slots:
                    slots[v][d] = slots[w][d + 2] = e
                    e += 1
        for k, (v, d) in enumerate(self.terminations, e):
            slots[v][d] = k
        return {v: tuple(ids) for v, ids in slots.items()}

    @cached_property
    def edge_vertices(self) -> tuple[tuple[Cell, ...], ...]:
        """The incident domain vertices of every edge (two or one): an
        internal edge lists first the vertex whose E or N slot it is."""
        slots, n = self.vertex_edges, self.n_internal
        out: list[tuple[Cell, ...]] = [()] * n + [(v,) for v, _ in self.terminations]
        for v in self.vertices:
            for d in (EAST, NORTH):
                if (e := slots[v][d]) < n:
                    out[e] = (v, _neighbour(v, d))
        return tuple(out)

    @cached_property
    def faces(self) -> tuple[Cell, ...]:
        """Bottom-left vertices of lattice faces with all four edges internal."""
        out = []
        for v in self.vertices:
            x, y = v
            if {(x + 1, y), (x, y + 1), (x + 1, y + 1)} <= self.cells:
                out.append(v)
        return tuple(out)

    def face_edges(self, face: Cell) -> tuple[int, int, int, int]:
        """Edge ids around a face in cyclic order: bottom, right, top, left."""
        x, y = face
        slots = self.vertex_edges
        return (
            slots[face][EAST],
            slots[(x + 1, y)][NORTH],
            slots[(x, y + 1)][EAST],
            slots[face][NORTH],
        )

    @cached_property
    def face_masks(self) -> dict[Cell, tuple[int, int]]:
        """Per face, in ``faces`` order, the bitmasks of its horizontal
        (bottom, top) and of its vertical (right, left) edges."""
        out = {}
        for f in self.faces:
            bottom, right, top, left = self.face_edges(f)
            out[f] = (1 << bottom | 1 << top, 1 << right | 1 << left)
        return out

    @cached_property
    def walk(self) -> tuple[tuple[int, ...], ...]:
        """The path-tracing table, over states s = 2e + k: "at end k of
        edge e", where end k is the k-th entry of ``edge_vertices[e]``
        (a termination's end 1 is outside the domain).  ``walk[s]``
        holds, for the vertex at that end, its other three edges, each
        as the state at its far end; a path leaving along edge e2 is
        next at state ``walk[s][i]``, with ``e2 = walk[s][i] >> 1``.
        The outside ends of terminations have no entries."""
        ends, slots = self.edge_vertices, self.vertex_edges
        out: list[tuple[int, ...]] = []
        for e, vs in enumerate(ends):
            for v in vs:
                out.append(tuple(
                    2 * e2 + 1 - ends[e2].index(v) for e2 in slots[v] if e2 != e
                ))
            if len(vs) == 1:
                out.append(())
        return tuple(out)

    def termination_id(self, k: int) -> int:
        """Canonical edge id of the k-th termination (0-based, anchored)."""
        return self.n_internal + k


class BoundaryCondition:
    """Colours of the terminations, indexed parallel to the anchored order.

    1 is black, 0 is white.  The number of black entries must be even,
    and so is the number of white ones on any closed boundary.
    Immutable, and equal by colours.
    """

    colours: tuple[int, ...]
    __setattr__ = __delattr__ = immutable

    def __init__(self, colours) -> None:
        colours = self.__dict__["colours"] = tuple(int(c) for c in colours)
        if any(c not in (0, 1) for c in colours):
            raise ValueError("colours must be 0 (white) or 1 (black)")
        if len(colours) % 2 or sum(colours) % 2:
            raise ValueError("termination and black counts must both be even")

    def __eq__(self, other) -> bool:
        return self.colours == other.colours if type(other) is BoundaryCondition else NotImplemented

    def __hash__(self) -> int:
        return hash((self.colours,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundaryCondition(colours={self.colours!r})"

    @property
    def n_black(self) -> int:
        return sum(self.colours)

    def complemented(self) -> "BoundaryCondition":
        return BoundaryCondition(tuple(1 - c for c in self.colours))


def build_square(n: int, sign: str = "+") -> tuple[Domain, BoundaryCondition]:
    """The n x n square with alternating boundary colours.

    The anchor is the vertical (south) termination of the bottom-left
    vertex; for sign "+" it is black, for sign "-" white, and colours
    alternate from there counter-clockwise.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    cells = frozenset((x, y) for x in range(1, n + 1) for y in range(1, n + 1))
    d = Domain(cells, anchor=0)
    first = 1 if sign == "+" else 0
    colours = tuple((first + k) % 2 for k in range(d.perimeter))
    return d, BoundaryCondition(colours)


class GluedGraph(NamedTuple):
    """A domain with terminations glued in consecutive pairs, plus the
    forced cycle partition, as :func:`glue_and_gamma` builds it once.

    ``swapped_bc`` is the boundary condition actually glued: the given
    one with the recorded convex-corner ``swaps`` applied.  Cycles list
    canonical edge ids in cyclic order.  ``bichromatic[i]`` marks pairs
    whose two legs carry different colours (the glued vertex then counts
    as a path endpoint).  The swaps are disjoint exchanges of the two
    legs at one vertex (their indices share one parity); ``legs`` (the
    edge ids of each pair's two legs) and ``cycle_masks`` carry them as
    a relabelling of leg ids, so a configuration's own bits are read
    through the swaps.  ``cycle_masks`` is the bitmask of all edges,
    which the cycles partition, and for every 4-cycle its edge mask plus
    its two alternating colourings (cycle positions 0 and 2 black, or 1
    and 3) as masks.
    """

    domain: Domain
    swapped_bc: BoundaryCondition
    pairs: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]
    swaps: tuple[int, ...]
    bichromatic: tuple[bool, ...]
    legs: tuple[tuple[int, int], ...]
    cycle_masks: tuple[int, tuple[tuple[int, int, int], ...]]


def _pairing(n_terms: int, parity: str) -> tuple[tuple[int, int], ...]:
    if parity not in ("plus", "minus"):
        raise ValueError("parity must be 'plus' or 'minus'")
    first = parity == "minus"
    return tuple((k, (k + 1) % n_terms) for k in range(first, n_terms, 2))


def _boundary_cycles(d: Domain, pairs) -> tuple[tuple[int, ...], ...]:
    """The forced cycle through each glued pair as canonical edge ids,
    read off the turn between its two terminations: the first
    termination, the internal edges between them, the second.

    Consecutive terminations attach at the same vertex over a convex
    corner (turn +1: a digon), at adjacent vertices over a straight
    stretch (turn 0: a triangle, through the edge along the walk's
    heading) and at diagonal vertices over a concave corner (turn -1: a
    4-cycle through the corner's vertex, which is in the domain since
    the walk turned right there, and is the only common neighbour of
    the two), so each cycle is unique.
    """
    terms, steps, slots = d.terminations, d.steps, d.vertex_edges
    out = []
    for a, b in pairs:
        va, leg = terms[a]
        # the walk passes va heading along leg + 1; over a concave
        # corner it turns right at the next vertex
        heading = (leg + 1) % 4
        inner: tuple[int, ...] = ()
        if steps[a] == 0:
            inner = (slots[va][heading],)
        elif steps[a] == -1:
            corner = _neighbour(va, heading)
            inner = (slots[va][heading], slots[corner][(heading + 3) % 4])
        out.append((d.termination_id(a),) + inner + (d.termination_id(b),))
    return tuple(out)


def _plaquette_cover(d: Domain, used: set[int]) -> tuple[tuple[int, ...], ...]:
    """The plaquettes that cover the internal edges outside the boundary
    cycles (``used``): every face that shares no edge with a boundary
    cycle and has the chequerboard colour ``(x + y) % 2`` of the face
    above the lowest free internal edge, in ``faces`` order.

    The choice is forced wherever any plaquette set partitions the free
    edges R.  Faces of one colour never share an edge.  The lowest edge
    of R is an east edge: a north edge at v lies on the face at v or on
    the face to its west, and either face's bottom edge is a lower edge
    of R.  Only the face above it can cover it, since the face below
    holds a lower edge of R, so the colour is that face's.  That the partition then takes the
    whole free part of that colour class is not proved here; the
    caller's partition certificate rejects any gluing where it fails.
    """
    lowest = next((e for e in range(d.n_internal) if e not in used), None)
    if lowest is None:
        return ()
    x, y = d.edge_vertices[lowest][0]
    colour = (x + y) % 2
    faces = (d.face_edges(f) for f in d.faces if sum(f) % 2 == colour)
    return tuple(fe for fe in faces if used.isdisjoint(fe))


def _validity_offence(pairs, steps, cols) -> int | None:
    """Index of the first pair breaking validity, or None if valid.

    Every cycle has length <= 4 by construction, so the only possible
    offence is a 4-cycle, a pair over a concave corner, through a
    bichromatic glued vertex.
    """
    for i, (a, b) in enumerate(pairs):
        if steps[a] == -1 and cols[a] != cols[b]:
            return i
    return None


def glue_and_gamma(d: Domain, t: BoundaryCondition, parity: str = "plus") -> GluedGraph:
    """Glue terminations pairwise and compute the forced cycle partition.

    A bichromatic pair over a concave corner is always tried with a
    convex-corner swap next to it.  Raises :class:`InvalidTriplet` when
    no such swap fixes the pair and :class:`NonUniqueGamma`
    when the boundary cycles and the plaquettes of
    :func:`_plaquette_cover` do not partition the edge set.

    The colour test (with its swaps) needs only the boundary walk's
    terminations and turns; edge ids, cycles and plaquettes are built
    only for a pairing that passes it.  So a pairing that fails the
    colour test raises its colour :class:`InvalidTriplet` even where the
    partition would also have failed.  A pairing that passes gets every
    field of its :class:`GluedGraph` here, read off the colours as
    swapped and the swap list.
    """
    steps, n_terms = d.steps, d.perimeter
    if len(t.colours) != n_terms:
        raise ValueError("boundary condition length mismatch")
    pairs = _pairing(n_terms, parity)
    cols, swaps = list(t.colours), []
    while (offence := _validity_offence(pairs, steps, cols)) is not None:
        a, b = pairs[offence]
        for k in ((a - 1) % n_terms, b % n_terms):
            # the swap at k exchanges the colours at k and k + 1
            # (cyclic); it moves a new colour onto a or b, and so makes
            # the pair monochromatic, exactly when the two colours differ
            k2 = (k + 1) % n_terms
            if steps[k] == 1 and k not in swaps and cols[k] != cols[k2]:
                cols[k], cols[k2] = cols[k2], cols[k]
                swaps.append(k)
                break
        else:
            raise InvalidTriplet(
                f"no convex-corner swap fixes pair {pairs[offence]}"
            )

    base = d.n_internal
    n_edges = base + n_terms
    b_cycles = _boundary_cycles(d, pairs)
    cycles = b_cycles + _plaquette_cover(d, {e for cyc in b_cycles for e in cyc})
    covered = sorted(e for cyc in cycles for e in cyc)
    if covered != list(range(n_edges)):
        raise NonUniqueGamma("cycle partition does not cover the edge set")
    # every edge id, with the two legs of each swap exchanged
    ids = list(range(n_edges))
    for k in swaps:
        a, b = base + k, base + (k + 1) % n_terms
        ids[a], ids[b] = b, a
    quads = []
    for cyc in cycles:
        if len(cyc) == 4:
            a, b, c, e = (1 << ids[x] for x in cyc)
            quads.append((a | b | c | e, a | c, b | e))
    return GluedGraph(
        domain=d,
        swapped_bc=BoundaryCondition(cols) if swaps else t,
        pairs=pairs,
        cycles=cycles,
        swaps=tuple(swaps),
        bichromatic=tuple(cols[a] != cols[b] for a, b in pairs),
        legs=tuple((ids[base + a], ids[base + b]) for a, b in pairs),
        cycle_masks=((1 << n_edges) - 1, tuple(quads)),
    )
