"""Both colours of a configuration traced, its terminations read, and
the ice rule checked edge by edge: the tests' oracles for what the walk
and the sweep hand out with every configuration.

A configuration is its bitmask over the domain's edges, given with its
domain.  :func:`link_data` runs ``fplcore._trace_colour``, the flat
tracer, on the black edges and on the complemented bits;
:func:`boundary` and :func:`obeys_ice_rule` read the colours off the
bits one edge at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from fplrs.fplcore import _trace_colour
from fplrs.lattice import BoundaryCondition, Domain
from fplrs.linkpat import LinkPattern


@dataclass(frozen=True)
class LinkData:
    """Black and white link patterns plus closed-cycle counts."""

    black: LinkPattern
    white: LinkPattern
    loops_black: int
    loops_white: int

    @property
    def loops(self) -> int:
        return self.loops_black + self.loops_white


def link_data(d: Domain, bits: int) -> LinkData:
    """Trace all open paths and closed cycles of both colours.

    Black endpoints are labelled cyclically counter-clockwise starting
    from the first black termination at or after the anchor, white ones
    likewise.
    """
    mask = (1 << len(d.edge_vertices)) - 1
    black, lb = _trace_colour(d, bits)
    white, lw = _trace_colour(d, bits ^ mask)
    return LinkData(black, white, lb, lw)


def boundary(d: Domain, bits: int) -> BoundaryCondition:
    """The colours of the terminations, in anchor order."""
    return BoundaryCondition(tuple((bits >> d.termination_id(k)) & 1 for k in range(d.perimeter)))


def obeys_ice_rule(d: Domain, bits: int) -> bool:
    """Whether every vertex has exactly two black edges."""
    return all(
        sum((bits >> e) & 1 for e in slots) == 2 for slots in d.vertex_edges.values()
    )
