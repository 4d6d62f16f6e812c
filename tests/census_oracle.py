"""Type letters and bottom-face indicators read off one configuration,
vertex by vertex and face by face: the tests' oracles for the identity
census, whose states read the same facts off the sweep's edge bits.
A configuration is its bitmask, given with its domain.

:func:`vertex_type` looks a vertex's black slots up in
``identities.VERTEX_TYPES``, the one place the letters are held;
:func:`plaquette_indicator` reads the four edges of a face one at a
time.
"""

from __future__ import annotations

from fplrs.identities import VERTEX_TYPES
from fplrs.lattice import Cell, Domain


def vertex_type(d: Domain, bits: int, v: Cell) -> str:
    """Type letter of an internal vertex of the configuration ``bits``
    under the package's table."""
    slots = d.vertex_edges[v]
    return VERTEX_TYPES[frozenset(k for k in range(4) if (bits >> slots[k]) & 1)]


def plaquette_indicator(d: Domain, bits: int, alpha: Cell) -> int:
    """+1 for two black horizontal and two white vertical edges around
    the face whose bottom-left vertex is ``alpha``; -1 for the colour
    complement; 0 otherwise."""
    bottom, right, top, left = ((bits >> e) & 1 for e in d.face_edges(alpha))
    if bottom == top != right == left:
        return 1 if bottom else -1
    return 0
