"""An edge-by-edge depth-first enumerator: the independent oracle for
``fplcore._walk`` and everything built on it.

It shares no code with the frontier sweep or the walk: it decides edges,
not vertices, propagates the ice rule over the whole domain, and
carries no path tags.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from fplrs.fplcore import FplConfig
from fplrs.lattice import BoundaryCondition, Domain


def search(
    domain: Domain,
    bc: BoundaryCondition,
    forced: Sequence[tuple[int, int]] = (),
    split_depth: int | None = None,
):
    """Depth-first search branching on the first undecided edge in
    canonical order, white before black, with the ice rule propagated:
    once a vertex has two edges of one colour its others are forced.

    Yields solution bitmasks in lexicographic bit order, or, when
    ``split_depth`` is given, ``("prefix", decisions)`` once the decision stack reaches that depth
    (the subtree is then skipped) alongside ``("done", bits)`` for
    solutions found earlier.
    """
    if len(bc.colours) != domain.perimeter:
        raise ValueError("boundary condition length mismatch")
    n_edges = len(domain.edge_vertices)
    n_internal = domain.n_internal
    verts = domain.vertices
    v_index = {v: i for i, v in enumerate(verts)}
    edges_of_vert = [tuple(domain.vertex_edges[v]) for v in verts]
    vert_of_edge: list[tuple[int, ...]] = [
        tuple(v_index[v] for v in vs) for vs in domain.edge_vertices
    ]

    colour = [-1] * n_edges
    nb = [0] * len(verts)
    nw = [0] * len(verts)
    trail: list[int] = []

    def assign(e0: int, c0: int) -> bool:
        stack = [(e0, c0)]
        while stack:
            e, c = stack.pop()
            cur = colour[e]
            if cur >= 0:
                if cur != c:
                    return False
                continue
            colour[e] = c
            trail.append(e)
            # count both endpoints before failing: undo uncounts both
            counts = nb if c else nw
            over = False
            for v in vert_of_edge[e]:
                counts[v] += 1
                if counts[v] > 2:
                    over = True
                elif counts[v] == 2:
                    for e2 in edges_of_vert[v]:
                        if colour[e2] < 0:
                            stack.append((e2, 1 - c))
            if over:
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            c = colour[e]
            colour[e] = -1
            counts = nb if c else nw
            for v in vert_of_edge[e]:
                counts[v] -= 1

    ok = True
    for k, c in enumerate(bc.colours):
        if not assign(n_internal + k, c):
            ok = False
            break
    if ok:
        for e, c in forced:
            if not assign(e, c):
                ok = False
                break
    if not ok:
        return

    def encode() -> int:
        bits = 0
        for e in range(n_edges):
            if colour[e]:
                bits |= 1 << e
        return bits

    splitting = split_depth is not None
    decisions: list[list[int]] = []  # [edge, trail mark, colour tried]
    ptr = 0
    descending = True
    while True:
        if descending:
            while ptr < n_edges and colour[ptr] >= 0:
                ptr += 1
            if ptr == n_edges:
                yield ("done", encode()) if splitting else encode()
                descending = False
                continue
            if splitting and len(decisions) == split_depth:
                yield ("prefix", tuple((d[0], d[2]) for d in decisions))
                descending = False
                continue
            decisions.append([ptr, len(trail), 0])
            descending = assign(ptr, 0)
        else:
            if not decisions:
                return
            edge, mark, tried = decisions[-1]
            undo(mark)
            if tried == 0:
                decisions[-1][2] = 1
                ptr = edge
                descending = assign(edge, 1)
            else:
                decisions.pop()


def oracle_configs(
    d: Domain, t: BoundaryCondition, forced: Sequence[tuple[int, int]] = ()
) -> Iterator[FplConfig]:
    """Every configuration by the DFS, in its stream order."""
    for bits in search(d, t, forced):
        yield FplConfig(d, bits)
