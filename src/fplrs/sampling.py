"""Seeded random geometry for the property suites.

Random polyominoes grown cell by cell (resampled until simply
connected) and random even-black boundary conditions, used by the
verification suites that exercise gyration on general domains.  All
draws go through an explicit ``random.Random`` so runs are
reproducible from the seed alone.
"""

from __future__ import annotations

import random

from .errors import FplrsError, InvalidTriplet, NonUniqueGamma
from .fplcore import count_configs
from .lattice import BoundaryCondition, Domain, glue_and_gamma

__all__ = ["random_domain", "random_boundary", "random_glueable"]

DOMAIN_TRIES = 200  # growths per domain before giving up
GLUEABLE_TRIES = 2000  # draws per glueable pair before giving up
MIN_CONFIGS, MAX_CONFIGS = 2, 4000  # the ensemble sizes a glueable pair may have


def random_domain(rng: random.Random, n_cells: int) -> Domain:
    """A random simply-connected polyomino with the given cell count."""
    for _ in range(DOMAIN_TRIES):
        cells = {(0, 0)}
        while len(cells) < n_cells:
            x, y = rng.choice(tuple(cells))
            dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
            cells.add((x + dx, y + dy))
        try:
            return Domain(frozenset(cells))
        except ValueError:
            continue
    raise FplrsError("could not grow a simply-connected domain")


def random_boundary(rng: random.Random, d: Domain) -> BoundaryCondition:
    """Near-alternating colours with the black count forced even.

    Fully random colours almost never extend to a valid configuration
    on a branchy polyomino, so we scramble an alternating string with
    adjacent transpositions instead; that is the regime where ensembles
    are actually populated.
    """
    phase = rng.randint(0, 1)
    cols = [(k + phase) % 2 for k in range(d.perimeter)]
    if sum(cols) % 2:
        cols[rng.randrange(len(cols))] ^= 1
    for _ in range(rng.randint(0, d.perimeter)):
        k = rng.randrange(d.perimeter)
        k2 = (k + 1) % d.perimeter
        cols[k], cols[k2] = cols[k2], cols[k]
    return BoundaryCondition(tuple(cols))


def random_glueable(
    rng: random.Random, n_cells: int, parity: str = "plus"
) -> tuple[Domain, BoundaryCondition]:
    """A random domain and colours whose gluing is valid (swaps allowed)
    and whose ensemble is populated but small enough to enumerate.

    Each try draws a domain (traced once, when it is built) and its
    colours, then glues.  :func:`glue_and_gamma` runs the colour test on
    the boundary walk alone, so a rejected try builds no edge ids and no
    plaquettes; only a glueable pair is then counted.  The rejected
    tries still consume their random numbers, so the stream depends on
    the seed alone."""
    for _ in range(GLUEABLE_TRIES):
        d = random_domain(rng, n_cells)
        t = random_boundary(rng, d)
        try:
            glue_and_gamma(d, t, parity, allow_swaps=True)
        except (InvalidTriplet, NonUniqueGamma):
            continue
        if MIN_CONFIGS <= count_configs(d, t) <= MAX_CONFIGS:
            return d, t
    raise FplrsError("no glueable pair with a populated ensemble found")
