"""Both colours of a configuration traced, and the ice rule checked
edge by edge: the tests' oracles for what the walk and the sweep hand
out with every configuration.

:func:`link_data` runs ``fplcore._trace_colour``, the flat tracer, on
the black edges and on the complemented bits; :func:`obeys_ice_rule` reads the colours off the bits one
edge at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from fplrs.fplcore import FplConfig, _trace_colour
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


def link_data(phi: FplConfig) -> LinkData:
    """Trace all open paths and closed cycles of both colours.

    Black endpoints are labelled cyclically counter-clockwise starting
    from the first black termination at or after the anchor, white ones
    likewise.
    """
    mask = (1 << len(phi.domain.edge_vertices)) - 1
    black, lb = _trace_colour(phi)
    white, lw = _trace_colour(FplConfig(phi.domain, phi.bits ^ mask))
    return LinkData(black, white, lb, lw)


def obeys_ice_rule(phi: FplConfig) -> bool:
    """Whether every vertex has exactly two black edges."""
    return all(
        sum(phi.colour(e) for e in slots) == 2 for slots in phi.domain.vertex_edges.values()
    )
