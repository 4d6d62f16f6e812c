"""Type letters and bottom-face indicators read off one configuration,
vertex by vertex and face by face: the tests' oracles for the identity
census, whose states read the same facts off the sweep's edge bits.

:func:`vertex_type` looks a vertex's black slots up in
``fplcore.vertex_type_table``, the one place the letters are pinned;
:func:`plaquette_indicator` reads the four edges of a face one at a
time.
"""

from __future__ import annotations

from fplrs.fplcore import FplConfig, vertex_type_table
from fplrs.lattice import Cell


def vertex_type(phi: FplConfig, v: Cell) -> str:
    """Type letter of an internal vertex under the calibrated table."""
    slots = phi.domain.vertex_edges[v]
    return vertex_type_table()[frozenset(k for k in range(4) if phi.colour(slots[k]))]


def plaquette_indicator(phi: FplConfig, alpha: Cell) -> int:
    """+1 for two black horizontal and two white vertical edges around
    the face whose bottom-left vertex is ``alpha``; -1 for the colour
    complement; 0 otherwise."""
    bottom, right, top, left = (phi.colour(e) for e in phi.domain.face_edges(alpha))
    if bottom == top != right == left:
        return 1 if bottom else -1
    return 0
