"""The canonical edge numbering built from tagged tuples: the oracle for
``lattice.Domain.vertex_edges``, which numbers the slots directly, and
for what the domain reads off it.

:func:`numbering` is the construction as it stood: the internal edges
``("i", v, w)`` with v < w, row-major over ``vertices`` and per vertex
east before north; the terminations ``("t", v, dir)`` after them in
anchored order; every id looked up in a dict of those tuples.
"""

from __future__ import annotations

from fplrs.lattice import EAST, NORTH, Domain, _neighbour


def numbering(d: Domain) -> tuple:
    """``(n_internal, vertex_edges, edge_vertices, face_masks)`` of d."""
    internal = []
    for v in d.vertices:
        for w in (_neighbour(v, EAST), _neighbour(v, NORTH)):
            if w in d.cells:
                internal.append(("i", v, w) if v < w else ("i", w, v))
    edges = internal + [("t", v, dir_) for v, dir_ in d.terminations]
    index = {e: i for i, e in enumerate(edges)}

    vertex_edges = {}
    for v in d.cells:
        ids = []
        for dir_ in range(4):
            w = _neighbour(v, dir_)
            if w in d.cells:
                key = ("i", v, w) if v < w else ("i", w, v)
            else:
                key = ("t", v, dir_)
            ids.append(index[key])
        vertex_edges[v] = tuple(ids)

    edge_vertices = tuple((e[1], e[2]) if e[0] == "i" else (e[1],) for e in edges)

    face_masks = {}
    for x, y in d.faces:
        bottom = index[("i", (x, y), (x + 1, y))]
        right = index[("i", (x + 1, y), (x + 1, y + 1))]
        top = index[("i", (x, y + 1), (x + 1, y + 1))]
        left = index[("i", (x, y), (x, y + 1))]
        face_masks[(x, y)] = (1 << bottom | 1 << top, 1 << right | 1 << left)
    return len(internal), vertex_edges, edge_vertices, face_masks
