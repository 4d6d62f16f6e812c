"""The gluing's cycle partition found by face propagation: the oracle
for ``lattice.glue_and_gamma``, which takes one chequerboard colour of
plaquettes directly.

``_pair_paths``, ``_boundary_cycles`` and ``_plaquette_cover`` are the
propagation-era functions as they stood, and :func:`glue` is the
gluing body they ran in, up to the coverage check.  It shares the
pairing and the colour test (``_pairing``, ``_validity_offence``) with
the code under test; only the cycle construction differs.
"""

from __future__ import annotations

from fplrs.errors import InvalidTriplet, NonUniqueGamma
from fplrs.lattice import (
    DIRS,
    BoundaryCondition,
    Cell,
    Domain,
    _neighbour,
    _pairing,
    _validity_offence,
)


def _pair_paths(d: Domain, pairs) -> tuple[tuple[Cell, ...], ...]:
    """The vertices that the forced cycle through each glued pair visits,
    read off the turn between its two terminations.

    Consecutive terminations attach at the same vertex over a convex
    corner (turn +1: a digon), at adjacent vertices over a straight
    stretch (turn 0: a triangle) and at diagonal vertices over a concave
    corner (turn -1: a 4-cycle).  The concave corner's vertex is in the
    domain, since the walk turned right there, and it is the only common
    neighbour of the two, so each cycle is unique.  Raises
    :class:`InvalidTriplet` when two cycles share an internal edge.
    """
    terms, steps = d.terminations, d.steps
    paths: list[tuple[Cell, ...]] = []
    used: set[tuple[Cell, Cell]] = set()
    for a, b in pairs:
        (va, leg), (vb, _) = terms[a], terms[b]
        turn = steps[a]
        if turn == 1:
            path: tuple[Cell, ...] = (va,)
        elif turn == 0:
            path = (va, vb)
        else:
            # the walk passes va heading along leg + 1 and turns right
            # at the next vertex
            path = (va, _neighbour(va, (leg + 1) % 4), vb)
        for v, w in zip(path, path[1:]):
            link = (v, w) if v < w else (w, v)
            if link in used:
                raise InvalidTriplet("boundary cycles overlap")
            used.add(link)
        paths.append(path)
    return tuple(paths)


def _boundary_cycles(d: Domain, pairs, paths) -> tuple[tuple[int, ...], ...]:
    """The forced cycle through each glued vertex as canonical edge ids:
    the first termination, the internal edges along the pair's path,
    the second termination."""
    slots = d.vertex_edges
    return tuple(
        (d.termination_id(a),)
        + tuple(slots[v][DIRS.index((w[0] - v[0], w[1] - v[1]))] for v, w in zip(path, path[1:]))
        + (d.termination_id(b),)
        for (a, b), path in zip(pairs, paths)
    )


def _plaquette_cover(d: Domain, used: set[int]) -> tuple[tuple[int, ...], ...]:
    """Partition the remaining internal edges into lattice plaquettes.

    Forced faces are selected by propagation from edges with a single
    candidate; a stall with every open edge ambiguous means the domain
    is malformed.
    """
    remaining = {e for e in range(d.n_internal) if e not in used}
    if not remaining:
        return ()
    edges_of_face = {f: d.face_edges(f) for f in d.faces}
    alive = {f for f, fe in edges_of_face.items() if not used.intersection(fe)}
    candidates: dict[int, set[Cell]] = {e: set() for e in remaining}
    for f in alive:
        for e in edges_of_face[f]:
            candidates[e].add(f)

    def discard(f: Cell) -> None:
        alive.discard(f)
        for fe in edges_of_face[f]:
            candidates[fe].discard(f)
            if fe not in covered and len(candidates[fe]) <= 1:
                queue.append(fe)

    chosen: list[Cell] = []
    covered: set[int] = set()
    queue = [e for e, fs in candidates.items() if len(fs) <= 1]
    while covered != remaining:
        if not queue:
            raise NonUniqueGamma("plaquette parity not forced by the boundary")
        e = queue.pop()
        if e in covered or len(candidates[e]) > 1:
            continue
        if not candidates[e]:
            raise InvalidTriplet("an internal edge cannot be covered by a plaquette")
        (f,) = candidates[e]
        chosen.append(f)
        alive.discard(f)
        covered.update(edges_of_face[f])
        for fe in edges_of_face[f]:
            for g in list(candidates[fe]):
                if g != f:
                    discard(g)
    return tuple(edges_of_face[f] for f in chosen)


def glue(
    d: Domain,
    t: BoundaryCondition,
    parity: str = "plus",
    allow_swaps: bool = False,
):
    """``(pairs, swaps, boundary cycles, plaquettes)`` of the gluing, or
    the exception ``glue_and_gamma`` raised for it."""
    if len(t.colours) != d.perimeter:
        raise ValueError("boundary condition length mismatch")
    pairs = _pairing(d.perimeter, parity)
    paths = _pair_paths(d, pairs)
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

    b_cycles = _boundary_cycles(d, pairs, paths)
    used = {e for cyc in b_cycles for e in cyc}
    plaquettes = _plaquette_cover(d, used)
    covered = sorted(e for cyc in b_cycles + plaquettes for e in cyc)
    if covered != list(range(len(d.edge_vertices))):
        raise NonUniqueGamma("cycle partition does not cover the edge set")
    return pairs, tuple(swaps), b_cycles, plaquettes
