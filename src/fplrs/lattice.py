"""Square-lattice domains, boundary data, and termination gluing.

A domain is a finite set of lattice vertices ("cells") forming an
edge-connected, simply-connected polyomino.  Every vertex carries four
slots, one per direction E, N, W, S; a slot towards another cell is an
internal edge, a slot towards the outside is a termination.  Walking
the polyomino boundary counter-clockwise visits every termination once
and turns left (+1), straight (0) or right (-1) between consecutive
ones; the turn sequence is ``Domain.steps`` and always sums to 4.

Canonical edge order: ``Domain.vertex_edges`` builds it in one pass,
numbering the internal edges row-major over vertices (sorted by (y, x)),
per vertex first the east then the north edge, and then the
terminations in boundary order starting at the anchor.  Configurations
are stored as bitmasks over this order, so streams and caches are
bit-exact.  Domains and gluings cache what the bit-level code reads:
per-face edge masks, the path-tracing table and the cycle masks.

Gluing: terminations are paired consecutively, pairs (1,2),(3,4),...
for the plus parity and (2N,1),(2,3),... for the minus parity.  Each
pair forces a short boundary cycle (a digon over a convex corner, a
triangle over a straight stretch, a 4-cycle over a concave corner), and
the remaining internal edges are covered by the lattice plaquettes of
one chequerboard colour, the colour of the face above the lowest of
them.  The cycles must partition the edges, or the gluing is rejected.
A pairing is valid when every cycle has length at most 4 and every
cycle through a bichromatic glued vertex has length at most 3; when a
concave corner breaks this, the two terminations over an adjacent
convex corner may be interchanged (a count-preserving swap) and the
test repeated.  The turn between two glued terminations already fixes
the length of their cycle, so this test runs on the boundary walk
alone, before any edge ids or plaquettes are built.
"""

from __future__ import annotations

from functools import cached_property

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


# The boundary walk runs on the shifted grid: corner (a, b) is the
# lower-left corner of cell (a, b).  The four cells around a corner are
# indexed by direction: cell h lies on the left of a walk leaving the
# corner with heading h, and cell h - 1 on its right.
#   heading E: left cell (a, b),     right cell (a, b-1),   leg ((a, b), S)
#   heading N: left cell (a-1, b),   right cell (a, b),     leg ((a-1, b), E)
#   heading W: left cell (a-1, b-1), right cell (a-1, b),   leg ((a-1, b-1), N)
#   heading S: left cell (a, b-1),   right cell (a-1, b-1), leg ((a, b-1), W)
_AROUND = ((0, 0), (-1, 0), (-1, -1), (0, -1))


def _next_heading(heading: int, occupied: int) -> int:
    """The one heading among left, straight and right whose left cell is
    in the domain and whose right cell is not, or -1 if there is not
    exactly one; ``occupied`` has bit h set when cell h is in the domain."""
    ok = [
        d for d in ((heading + 1) % 4, heading, (heading + 3) % 4)
        if occupied >> d & 1 and not occupied >> (d + 3) % 4 & 1
    ]
    return ok[0] if len(ok) == 1 else -1


# _STEPS[16 * heading + occupied]: the next heading and the turn to it,
# or None where the boundary is pinched
_STEPS = tuple(
    None if (nxt := _next_heading(h, occ)) < 0 else (nxt, (nxt - h + 1) % 4 - 1)
    for h in range(4)
    for occ in range(16)
)


def _trace_boundary(cells: frozenset[Cell]) -> tuple[tuple[tuple[Cell, int], ...], tuple[int, ...]]:
    """Counter-clockwise boundary walk.

    Returns the terminations in cyclic order, starting at the south leg
    of the bottom-most-then-left-most cell, and the turn taken after
    each termination.  Each step reads the four cells around the next
    corner and looks the turn up in ``_STEPS``.
    """
    # Walking east along the south side of the start cell keeps the
    # region on the left, i.e. the walk is counter-clockwise.
    x0, y0 = min(cells, key=lambda c: (c[1], c[0]))
    x, y, heading = x0, y0, EAST
    terms: list[tuple[Cell, int]] = []
    turns: list[int] = []
    while True:
        dx, dy = _AROUND[heading]
        terms.append(((x + dx, y + dy), (heading + 3) % 4))
        dx, dy = DIRS[heading]
        x += dx
        y += dy
        step = _STEPS[
            16 * heading
            | ((x, y) in cells)
            | ((x - 1, y) in cells) << 1
            | ((x - 1, y - 1) in cells) << 2
            | ((x, y - 1) in cells) << 3
        ]
        if step is None:
            raise ValueError("boundary is pinched; domain is not simply connected")
        heading, turn = step
        turns.append(turn)
        if heading == EAST and x == x0 and y == y0:
            break
    return tuple(terms), tuple(turns)


class Domain:
    """A simply-connected polyomino of lattice vertices with an anchor.

    ``anchor`` indexes into the canonical boundary order produced by
    :func:`_trace_boundary`; the public termination order starts there.
    Immutable, and equal by cells and anchor.
    """

    cells: frozenset[Cell]
    anchor: int
    __setattr__ = __delattr__ = immutable

    def __init__(self, cells, anchor: int = 0) -> None:
        cells = frozenset((int(x), int(y)) for x, y in cells)
        self.__dict__.update(cells=cells, anchor=anchor)
        if not cells:
            raise ValueError("domain needs at least one cell")
        # traced once here and cached; a pinched boundary raises.  A
        # second component or a hole leaves legs off the outer walk, so
        # the walk falls short of the 4|cells| - 2|adjacent pairs| legs
        canon_terms, _ = self._canonical_boundary
        pairs = sum(((x + 1, y) in cells) + ((x, y + 1) in cells) for x, y in cells)
        if len(canon_terms) != 4 * len(cells) - 2 * pairs:
            raise ValueError("cells are not edge-connected or enclose a hole; not simply connected")
        if not 0 <= self.anchor < len(canon_terms):
            raise ValueError("anchor out of range")

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
    def _canonical_boundary(self) -> tuple[tuple[tuple[Cell, int], ...], tuple[int, ...]]:
        return _trace_boundary(self.cells)

    @cached_property
    def terminations(self) -> tuple[tuple[Cell, int], ...]:
        terms, _ = self._canonical_boundary
        k = self.anchor
        return terms[k:] + terms[:k]

    @cached_property
    def steps(self) -> tuple[int, ...]:
        """steps[k] is the turn between terminations k and k+1 (0-based)."""
        _, turns = self._canonical_boundary
        k = self.anchor
        return turns[k:] + turns[:k]

    @property
    def perimeter(self) -> int:
        return len(self.terminations)

    @property
    def n_internal(self) -> int:
        """The number of internal edges, which ``__init__`` counts as adjacent pairs."""
        return (4 * len(self.cells) - self.perimeter) // 2

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

    def swapped(self, k: int) -> "BoundaryCondition":
        """Exchange the colours at positions k and k+1 (cyclic, 0-based)."""
        cols = list(self.colours)
        a, b = k % len(cols), (k + 1) % len(cols)
        cols[a], cols[b] = cols[b], cols[a]
        return BoundaryCondition(tuple(cols))


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


class GluedGraph:
    """A domain with terminations glued in consecutive pairs, plus the
    forced cycle partition.

    ``swapped_bc`` is the boundary condition actually glued; it differs
    from ``bc`` exactly at the recorded convex-corner swaps.  Cycles
    list canonical edge ids in cyclic order.  ``bichromatic[i]`` marks
    pairs whose two legs carry different colours (the glued vertex then
    counts as a path endpoint).  Immutable, and equal by its fields.
    """

    domain: Domain
    bc: BoundaryCondition
    parity: str
    pairs: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]
    swaps: tuple[int, ...]
    __setattr__ = __delattr__ = immutable

    def __init__(self, domain, bc, parity, pairs, cycles, swaps=()) -> None:
        self.__dict__.update(
            domain=domain, bc=bc, parity=parity, pairs=pairs, cycles=cycles, swaps=swaps
        )

    def _key(self) -> tuple:
        return self.domain, self.bc, self.parity, self.pairs, self.cycles, self.swaps

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is GluedGraph else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def swapped_bc(self) -> BoundaryCondition:
        bc = self.bc
        for k in self.swaps:
            bc = bc.swapped(k)
        return bc

    @cached_property
    def bichromatic(self) -> tuple[bool, ...]:
        cols = self.swapped_bc.colours
        return tuple(cols[a] != cols[b] for a, b in self.pairs)

    @cached_property
    def cycle_masks(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """The bitmask of all edges, which the cycles partition, and for
        every 4-cycle its edge mask plus its two alternating colourings
        (cycle positions 0 and 2 black, or 1 and 3) as masks."""
        quads = []
        for cyc in self.cycles:
            if len(cyc) == 4:
                a, b, c, d = (1 << e for e in cyc)
                quads.append((a | b | c | d, a | c, b | d))
        return (1 << len(self.domain.edge_vertices)) - 1, tuple(quads)


def _pairing(n_terms: int, parity: str) -> tuple[tuple[int, int], ...]:
    if parity == "plus":
        return tuple((2 * i, 2 * i + 1) for i in range(n_terms // 2))
    if parity == "minus":
        return ((n_terms - 1, 0),) + tuple(
            (2 * i + 1, 2 * i + 2) for i in range(n_terms // 2 - 1)
        )
    raise ValueError("parity must be 'plus' or 'minus'")


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


def glue_and_gamma(
    d: Domain,
    t: BoundaryCondition,
    parity: str = "plus",
    allow_swaps: bool = False,
) -> GluedGraph:
    """Glue terminations pairwise and compute the forced cycle partition.

    Raises :class:`InvalidTriplet` when the colour test fails (even
    after permitted convex-corner swaps) and :class:`NonUniqueGamma`
    when the boundary cycles and the plaquettes of
    :func:`_plaquette_cover` do not partition the edge set.

    The colour test (with its swaps) needs only the boundary walk's
    terminations and turns; edge ids, cycles and plaquettes are built
    only for a pairing that passes it.  So a pairing that fails the
    colour test raises its colour :class:`InvalidTriplet` even where the
    partition would also have failed.
    """
    if len(t.colours) != d.perimeter:
        raise ValueError("boundary condition length mismatch")
    pairs = _pairing(d.perimeter, parity)
    cols, swaps = list(t.colours), []
    steps, n_terms = d.steps, d.perimeter
    while (offence := _validity_offence(pairs, steps, cols)) is not None:
        if not allow_swaps:
            raise InvalidTriplet(
                f"bichromatic pair {pairs[offence]} sits over a concave corner"
            )
        a, b = pairs[offence]
        for k in ((a - 1) % n_terms, b % n_terms):
            # the swap at k (as BoundaryCondition.swapped) moves a new
            # colour onto a or b, and so makes the pair monochromatic,
            # exactly when the two colours it exchanges differ
            k2 = (k + 1) % n_terms
            if steps[k] == 1 and k not in swaps and cols[k] != cols[k2]:
                cols[k], cols[k2] = cols[k2], cols[k]
                swaps.append(k)
                break
        else:
            raise InvalidTriplet(
                f"no convex-corner swap fixes pair {pairs[offence]}"
            )

    b_cycles = _boundary_cycles(d, pairs)
    cycles = b_cycles + _plaquette_cover(d, {e for cyc in b_cycles for e in cyc})
    covered = sorted(e for cyc in cycles for e in cyc)
    if covered != list(range(len(d.edge_vertices))):
        raise NonUniqueGamma("cycle partition does not cover the edge set")
    return GluedGraph(
        domain=d,
        bc=t,
        parity=parity,
        pairs=pairs,
        cycles=cycles,
        swaps=tuple(swaps),
    )

