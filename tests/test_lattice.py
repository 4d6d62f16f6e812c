"""Domains, boundary walks, and termination gluing."""

import hashlib
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import edge_oracle
import glue_oracle
from fplrs import gyration, lattice, sampling, suites
from fplrs.errors import FplrsError, InvalidTriplet, NonUniqueGamma
from fplrs.lattice import (
    DIRS,
    EAST,
    NORTH,
    SOUTH,
    WEST,
    BoundaryCondition,
    Domain,
    _neighbour,
    _trace_boundary,
    build_square,
    glue_and_gamma,
)
from fplrs.sampling import random_boundary, random_domain


def l_shape():
    cells = {(x, y) for x in range(1, 4) for y in range(1, 4)} - {(3, 3)}
    return Domain(frozenset(cells))


class TestDomain:
    def test_square_shape(self):
        d, t = build_square(4, "+")
        assert len(d.cells) == 16
        assert d.perimeter == 16
        assert t.n_black == 8

    def test_anchor_is_bottom_left_vertical(self):
        d, t = build_square(3, "+")
        assert d.terminations[0] == ((1, 1), 3)  # south leg
        assert t.colours[0] == 1

    def test_single_vertex(self):
        d, t = build_square(1, "+")
        # south, east, north, west in counter-clockwise order
        assert [dir_ for _, dir_ in d.terminations] == [3, 0, 1, 2]
        assert t.colours == (1, 0, 1, 0)

    def test_minus_is_complement(self):
        _, plus = build_square(2, "+")
        _, minus = build_square(2, "-")
        assert minus == plus.complemented()

    def test_every_vertex_has_four_slots(self):
        d = l_shape()
        for v in d.cells:
            assert len(d.vertex_edges[v]) == 4
        # n_internal is defined by this count; the oracle counts the edges
        assert d.n_internal == edge_oracle.numbering(d)[0] == 10

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            Domain(frozenset({(0, 0), (2, 0)}))

    def test_rejects_hole(self):
        ring = {(x, y) for x in range(3) for y in range(3)} - {(1, 1)}
        with pytest.raises(ValueError):
            Domain(frozenset(ring))

    def test_rejects_pinch(self):
        hook = {(0, 0), (0, -1), (1, -1), (2, -1), (2, 0), (2, 1), (1, 1)}
        with pytest.raises(ValueError):
            Domain(frozenset(hook))

    def test_boundary_traced_once(self, monkeypatch):
        # construction traces once, and terminations and steps read
        # what that trace stored
        from fplrs import lattice

        calls = []
        real = lattice._trace_boundary

        def counted(cells):
            calls.append(len(cells))
            return real(cells)

        monkeypatch.setattr(lattice, "_trace_boundary", counted)
        d, _ = build_square(3, "+")
        assert d.terminations and d.steps
        assert calls == [9]

    def test_anchor_rotates_terminations(self):
        d0 = l_shape()
        d3 = Domain(d0.cells, anchor=3)
        assert d3.terminations == d0.terminations[3:] + d0.terminations[:3]
        assert d3.steps == d0.steps[3:] + d0.steps[:3]


def _reference_domain(cells):
    """What Domain(cells) must give, found without its leg count: the
    reference walk's error text where it is pinched, None where an
    edge-connectivity search or a hole search over the padded bounding
    box rejects the cells, and otherwise the walk's legs and turns."""
    try:
        walk = _reference_trace_boundary(cells)
    except ValueError as exc:
        return str(exc)
    # edge-connectivity
    seen = {next(iter(cells))}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for d in range(4):
            w = _neighbour(v, d)
            if w in cells and w not in seen:
                seen.add(w)
                frontier.append(w)
    if seen != cells:
        return None
    # simple connectivity: every absent cell of the padded bounding
    # box must reach the outer margin
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    outside = {(x0, y0)}
    frontier = [(x0, y0)]
    while frontier:
        v = frontier.pop()
        for d in range(4):
            w = _neighbour(v, d)
            if x0 <= w[0] <= x1 and y0 <= w[1] <= y1 and w not in cells and w not in outside:
                outside.add(w)
                frontier.append(w)
    box_holes = (x1 - x0 + 1) * (y1 - y0 + 1) - len(cells) - len(outside)
    if box_holes:
        return None
    return walk


def test_domain_acceptance_matches_the_searches():
    # every nonempty subset of a 4x4 box: the leg count accepts exactly
    # the connected, hole-free, unpinched sets, with the reference
    # walk's legs and turns; a pinched set raises the reference's error
    box = [(x, y) for y in range(4) for x in range(4)]
    accepted = 0
    for mask in range(1, 1 << len(box)):
        cells = frozenset(c for k, c in enumerate(box) if mask >> k & 1)
        try:
            d = Domain(cells)
            got = d.terminations, d.steps
        except ValueError as exc:
            got = str(exc)
        want = _reference_domain(cells)
        if want is None:
            assert isinstance(got, str), sorted(cells)
        else:
            assert got == want, sorted(cells)
            accepted += isinstance(want, tuple)
    assert accepted == 9349


class TestBoundaryString:
    def test_square_is_four_left_turns(self):
        for n in (1, 2, 5):
            steps = build_square(n, "+")[0].steps
            assert steps.count(1) == 4
            assert steps.count(-1) == 0
            assert steps.count(0) == len(steps) - 4

    def test_notched_square_has_one_right_turn(self):
        steps = l_shape().steps
        assert steps.count(-1) == 1

    def test_step_sum_on_random_domains(self):
        rng = random.Random(7)
        for _ in range(40):
            d = random_domain(rng, rng.randint(1, 20))
            assert sum(d.steps) == 4


class TestBoundaryCondition:
    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            BoundaryCondition((1, 0, 0, 0))

    def test_complement(self):
        t = BoundaryCondition((1, 0, 0, 1))
        assert t.complemented().colours == (0, 1, 1, 0)


@pytest.mark.parametrize(
    "make",
    [
        l_shape,
        lambda: Domain(l_shape().cells, anchor=3),
        lambda: BoundaryCondition((1, 0, 0, 1, 1, 1)),
        lambda: glue_and_gamma(*build_square(3, "+"), "minus"),
        lambda: sampling.random_glueable(random.Random(5), 12, "plus")[2],
    ],
    ids=["domain", "anchored-domain", "boundary", "square-gluing", "swapped-gluing"],
)
def test_lattice_values_compare_hash_and_stay_immutable(make):
    # built twice, equal values are equal objects with equal hashes; a
    # field cannot be set or deleted, nor a new attribute added
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    fields = ("cells", "anchor", "colours", "domain", "swapped_bc", "swaps")
    for name in [f for f in fields if hasattr(a, f)] + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


@pytest.mark.parametrize("make", [l_shape, lambda: build_square(4, "-")[1]], ids=["domain", "boundary"])
def test_domain_and_boundary_survive_a_pickle(make):
    # the pool ships both to its workers
    a = make()
    if isinstance(a, Domain):
        a.walk  # a cached property travels with the domain
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a) and back is not a
    assert vars(back).keys() == vars(a).keys()


class TestGlueAndGamma:
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_square_valid_both_parities_no_swaps(self, n, sign):
        d, t = build_square(n, sign)
        for parity in ("plus", "minus"):
            g = glue_and_gamma(d, t, parity)
            assert g.swaps == ()
            covered = sorted(e for cyc in g.cycles for e in cyc)
            assert covered == list(range(len(d.edge_vertices)))
            for cyc, flag in zip(g.cycles[: len(g.pairs)], g.bichromatic):
                assert len(cyc) <= (3 if flag else 4)

    def test_deterministic(self):
        d, t = build_square(4, "+")
        assert glue_and_gamma(d, t, "plus") == glue_and_gamma(d, t, "plus")

    def test_notch_bichromatic_pair_needs_swap(self):
        d = l_shape()
        t = BoundaryCondition(tuple(k % 2 for k in range(d.perimeter)))
        # the lone concave corner sits at an odd step index, so it is
        # glued by the minus pairing; alternating colours make the pair
        # bichromatic there
        assert glue_and_gamma(d, t, "plus").swaps == ()  # fine as is
        pairs = lattice._pairing(d.perimeter, "minus")
        assert lattice._validity_offence(pairs, d.steps, t.colours) is not None
        g = glue_and_gamma(d, t, "minus")
        assert len(g.swaps) == 1
        step = g.swaps[0]
        assert d.steps[step] == 1  # swapped over a convex corner
        # after the swap the offending pair is monochromatic
        offending = next(
            i
            for i, (a, b) in enumerate(g.pairs)
            if len(g.cycles[i]) == 4
        )
        a, b = g.pairs[offending]
        cols = g.swapped_bc.colours
        assert cols[a] == cols[b]

    def test_a_swap_wraps_around_the_anchor(self):
        # the plus pairing of this alternating colouring records the
        # swap (11, 0) across the anchor as well as (5, 6)
        d = Domain(frozenset([(-2, 1), (-2, 2), (-1, 1), (0, 0), (0, 1)]))
        t = BoundaryCondition(tuple(k % 2 for k in range(d.perimeter)))
        g = glue_and_gamma(d, t, "plus")
        assert d.perimeter == 12 and g.swaps == (5, 11)
        assert g.swapped_bc.colours == (1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0)
        assert _replays_the_swaps(g, t)

    def test_gamma_cycles_are_short(self):
        rng = random.Random(11)
        for _ in range(25):
            d = random_domain(rng, rng.randint(2, 18))
            t = random_boundary(rng, d)
            try:
                g = glue_and_gamma(d, t, "plus")
            except InvalidTriplet:
                continue
            assert all(len(c) <= 4 for c in g.cycles)
            covered = sorted(e for cyc in g.cycles for e in cyc)
            assert covered == list(range(len(d.edge_vertices)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), size=st.integers(2, 16))
def test_boundary_walk_covers_each_termination_once(seed, size):
    d = random_domain(random.Random(seed), size)
    assert len(set(d.terminations)) == d.perimeter
    assert sum(d.steps) == 4


def _reference_trace_boundary(cells):
    """The boundary walk on the corner grid, independent of the leg to
    leg walk: at each corner, each candidate heading builds its (left
    cell, right cell, leg) triple through two closures."""
    start_cell = min(cells, key=lambda c: (c[1], c[0]))

    def sides(p, d):
        a, b = p
        if d == EAST:
            return (a, b), (a, b - 1), ((a, b), SOUTH)
        if d == NORTH:
            return (a - 1, b), (a, b), ((a - 1, b), EAST)
        if d == WEST:
            return (a - 1, b - 1), (a - 1, b), ((a - 1, b - 1), NORTH)
        return (a, b - 1), (a - 1, b - 1), ((a, b - 1), WEST)

    def ok(p, d):
        left, right, _ = sides(p, d)
        return left in cells and right not in cells

    pos, heading = start_cell, EAST
    terms, turns = [], []
    while True:
        terms.append(sides(pos, heading)[2])
        pos = (pos[0] + DIRS[heading][0], pos[1] + DIRS[heading][1])
        choices = [
            d for d in ((heading + 1) % 4, heading, (heading + 3) % 4)
            if ok(pos, d)
        ]
        if len(choices) != 1:
            raise ValueError("boundary is pinched; domain is not simply connected")
        nxt = choices[0]
        turns.append((nxt - heading + 1) % 4 - 1)
        heading = nxt
        if pos == start_cell and heading == EAST:
            break
    return tuple(terms), tuple(turns)


def _trace_outcome(trace, cells):
    try:
        return trace(cells)
    except ValueError as exc:
        return str(exc)


def test_boundary_walk_matches_the_reference():
    # random growth without the resampling of random_domain, so that
    # pinched and holed polyominoes occur among the 500
    rng = random.Random(4)
    pinched = holed = 0
    for _ in range(500):
        cells = {(0, 0)}
        for _ in range(rng.randint(0, 40)):
            x, y = rng.choice(sorted(cells))
            dx, dy = rng.choice(DIRS)
            cells.add((x + dx, y + dy))
        cells = frozenset(cells)
        want = _trace_outcome(_reference_trace_boundary, cells)
        got = _trace_outcome(_trace_boundary, cells)
        if isinstance(want, str):
            assert got == want
            pinched += 1
            continue
        assert got == want[0]
        if _reference_domain(cells) is not None:
            assert Domain(cells).steps == want[1]
        else:
            holed += 1
            with pytest.raises(ValueError, match="enclose a hole"):
                Domain(cells)
    assert pinched and holed


def _draw_outcomes(seed, draws=300):
    """Per random draw: the swaps of its gluing, or "x" where the gluing
    raises; then the same for a gluing that may not swap, as the digests
    were computed with one, which is the first outcome where no swap was
    needed and "x" where one was."""
    rng = random.Random(seed)
    out = []
    for k in range(draws):
        d = random_domain(rng, rng.randint(6, 24))
        t = random_boundary(rng, d)
        parity = "plus" if k % 2 == 0 else "minus"
        try:
            swaps = ",".join(map(str, glue_and_gamma(d, t, parity).swaps))
        except (InvalidTriplet, NonUniqueGamma):
            swaps = "x"
        out.append(f"{swaps}|{swaps if swaps in ('', 'x') else 'x'}")
    return out


@pytest.mark.parametrize(
    "seed, accepted, digest",
    [
        (1, 165, "00857d4282ec6c885d059ccfae4bc5f1176df2593dc62ea4d52d82512423884a"),
        (10216, 148, "695df2f4f2af6d7d9d88b5235f97bdec05868486b95a2247a1ff49209ba1f713"),
        (10314, 131, "1d6d3cb271048b4c64031a75b07bb114139cbe5becd13299cb65ea93b9c5ccdf"),
        (10404, 144, "511134e5b0f7a8f157f97e0e0afb1e043564ace9a4196bb28944e01ff0b3bae6"),
    ],
)
def test_glue_accepts_and_rejects_the_same_draws(seed, accepted, digest):
    # computed when the plaquette cover still ran before the colour
    # test; checking colours first must not change which draws pass
    # or their swaps.  Any other exception type fails the test.
    out = _draw_outcomes(seed)
    assert sum(row.split("|")[0] != "x" for row in out) == accepted
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == digest


def test_colour_fault_is_raised_before_the_plaquette_cover(monkeypatch):
    # a pairing with a colour fault that no swap fixes raises the colour
    # InvalidTriplet, and the cover, which might have failed too, is
    # never built; a fault that a swap fixes goes on to the cover
    def broken_cover(d, used):
        raise NonUniqueGamma("plaquette parity not forced by the boundary")

    monkeypatch.setattr(lattice, "_plaquette_cover", broken_cover)
    d = l_shape()
    # the minus pair (5, 6) sits over the concave corner, between the
    # convex corners 4 and 6; repeating colour 5 at 4 and colour 6 at 7
    # leaves neither swap anything to exchange
    assert (d.steps[4], d.steps[5], d.steps[6]) == (1, -1, 1)
    stuck = BoundaryCondition((1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1))
    with pytest.raises(InvalidTriplet, match=r"no convex-corner swap fixes pair \(5, 6\)"):
        glue_and_gamma(d, stuck, "minus")
    alternating = BoundaryCondition(tuple(k % 2 for k in range(d.perimeter)))
    with pytest.raises(NonUniqueGamma):
        glue_and_gamma(d, alternating, "minus")


def test_rejected_draws_build_no_plaquette_cover(monkeypatch):
    # at seed 1, 897 draws of random_glueable reach glue_and_gamma and
    # 364 pass the colour test; only those build a plaquette cover
    drawing = []
    counts = {"draws": 0, "covers": 0}
    real_draw, real_glue, real_cover = sampling.random_glueable, sampling.glue_and_gamma, lattice._plaquette_cover

    def draw(*args, **kwargs):
        drawing.append(True)
        try:
            return real_draw(*args, **kwargs)
        finally:
            drawing.pop()

    def glue(*args, **kwargs):
        counts["draws"] += bool(drawing)
        return real_glue(*args, **kwargs)

    def cover(*args):
        counts["covers"] += bool(drawing)
        return real_cover(*args)

    monkeypatch.setattr(sampling, "random_glueable", draw)
    # random_glueable calls the name that sampling imported
    monkeypatch.setattr(sampling, "glue_and_gamma", glue)
    monkeypatch.setattr(lattice, "_plaquette_cover", cover)
    list(suites._suite_gyration_general(5, 1))
    assert counts == {"draws": 897, "covers": 364}


def test_every_draw_is_glued_once(monkeypatch):
    # the conservation lines and the capped checks of a drawn pair read
    # the gluing the sampler handed out, which is that pair's own
    # gluing; no key is glued twice
    glued = Counter()
    drawn = []
    real_draw, real_glue = sampling.random_glueable, lattice.glue_and_gamma

    def draw(rng, n_cells, parity):
        d, t, g = real_draw(rng, n_cells, parity)
        assert g == real_glue(d, t, parity)
        drawn.append((d.cells, d.anchor, t.colours, parity))
        return d, t, g

    def glue(d, t, parity):
        glued[d.cells, d.anchor, t.colours, parity] += 1
        return real_glue(d, t, parity)

    monkeypatch.setattr(sampling, "random_glueable", draw)
    for module in (lattice, sampling, gyration):
        monkeypatch.setattr(module, "glue_and_gamma", glue)
    list(suites._suite_gyration_general(5, 1))
    assert len(drawn) == 65 and sum(glued.values()) == 913
    assert max(glued.values()) == 1


@pytest.mark.parametrize("fault", ["dropped", "doubled"])
def test_partition_certificate_rejects_a_faulty_cover(monkeypatch, fault):
    # the coverage check is the gluing's one gate after the colour test:
    # a cover that leaves a face's edges out, or covers them twice,
    # fails it
    real_cover = lattice._plaquette_cover

    def faulty_cover(d, used):
        cover = real_cover(d, used)
        assert cover
        return cover[1:] if fault == "dropped" else cover + cover[:1]

    monkeypatch.setattr(lattice, "_plaquette_cover", faulty_cover)
    d, t = build_square(4, "+")
    with pytest.raises(NonUniqueGamma, match="does not cover the edge set"):
        glue_and_gamma(d, t, "plus")


def _polyominoes(max_cells):
    """Every fixed polyomino of at most max_cells cells, once each, as
    the cells grown from (0, 0), its lowest-then-leftmost cell
    (Redelmeier's enumeration)."""

    def grow(cells, untried, seen):
        untried = list(untried)
        while untried:
            x, y = untried.pop()
            grown = cells + ((x, y),)
            yield grown
            if len(grown) < max_cells:
                new = [
                    c for c in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1))
                    if (c[1], c[0]) > (0, 0) and c not in seen
                ]
                yield from grow(grown, untried + new, seen | set(new))

    return grow((), [(0, 0)], {(0, 0)})


def _glue_outcome(glue, d, t, parity):
    """What a gluing returns, or the exception type it raises."""
    try:
        return glue(d, t, parity)
    except FplrsError as exc:
        return type(exc)


def _comparable(out):
    """An exception type as it is, else a gluing's pairs, swaps,
    boundary cycles in order and set of plaquettes."""
    if isinstance(out, type):
        return out
    if isinstance(out, lattice.GluedGraph):
        n_pairs = len(out.pairs)
        out = out.pairs, out.swaps, out.cycles[:n_pairs], out.cycles[n_pairs:]
    pairs, swaps, boundary, plaquettes = out
    return pairs, swaps, boundary, frozenset(plaquettes)


def test_minus_pairing_is_the_plus_pairing_read_from_leg_1():
    # at every anchor, the minus gluing is the plus gluing of the domain
    # anchored one leg on, its colours rotated by one leg: both glue or
    # both raise, and the colours, swaps and pairs are the same legs
    rng = random.Random(20260)
    glued = 0
    for _ in range(40):
        cells = random_domain(rng, rng.randint(2, 16)).cells
        for anchor in range(Domain(cells).perimeter):
            d = Domain(cells, anchor)
            t = random_boundary(rng, d)
            n_terms = d.perimeter
            on = lambda k: (k + 1) % n_terms
            minus = _glue_outcome(glue_and_gamma, d, t, "minus")
            plus = _glue_outcome(
                glue_and_gamma,
                Domain(cells, on(anchor)),
                BoundaryCondition(t.colours[1:] + t.colours[:1]),
                "plus",
            )
            if isinstance(minus, type) or isinstance(plus, type):
                assert minus == plus
                continue
            glued += 1
            cols = minus.swapped_bc.colours
            assert cols[1:] + cols[:1] == plus.swapped_bc.colours
            assert minus.swaps == tuple(on(k) for k in plus.swaps)
            assert minus.pairs == tuple((on(a), on(b)) for a, b in plus.pairs)
    assert glued > 300


def _replays_the_swaps(g, t):
    """Whether the gluing's colours are t with each recorded swap
    (k, k + 1 mod N) replayed in turn, and its bichromatic flags the
    colour inequality over its pairs."""
    cols = list(t.colours)
    for k in g.swaps:
        k2 = (k + 1) % len(cols)
        cols[k], cols[k2] = cols[k2], cols[k]
    return g.swapped_bc.colours == tuple(cols) and g.bichromatic == tuple(
        cols[a] != cols[b] for a, b in g.pairs
    )


def _compare_with_the_oracle(domains_and_colours):
    """Glue each domain and colouring under both parities, with swaps
    allowed, and check that the construction matches the propagation
    oracle and that an accepted gluing's colours replay its swaps;
    returns how many gluings ran, how many were accepted with
    plaquettes, how many were accepted with swaps and how many raised."""
    tally = {"gluings": 0, "plaquettes": 0, "swapped": 0, "raised": 0}
    for d, t in domains_and_colours:
        for parity in ("plus", "minus"):
            tally["gluings"] += 1
            want = _comparable(_glue_outcome(glue_oracle.glue, d, t, parity))
            got = _glue_outcome(glue_and_gamma, d, t, parity)
            assert _comparable(got) == want, (sorted(d.cells), t, parity)
            if isinstance(want, type):
                tally["raised"] += 1
                continue
            assert _replays_the_swaps(got, t), (sorted(d.cells), t, parity)
            # every swap index is odd under the plus pairing and even
            # under the minus one, so the swaps (k, k + 1) are disjoint
            # and GluedGraph reads them as one relabelling of leg ids
            assert all(k % 2 == (parity == "plus") for k in want[1]), (sorted(d.cells), t, parity)
            tally["plaquettes"] += bool(want[3])
            tally["swapped"] += bool(want[1])
    return tally


def _polyomino_gluings(min_cells, max_cells, seed):
    """Every simply-connected polyomino of min_cells to max_cells cells,
    coloured all white, alternating and at random, with the last colour
    flipped wherever the black count would be odd."""
    rng = random.Random(seed)
    for cells in _polyominoes(max_cells):
        if len(cells) < min_cells:
            continue
        try:
            d = Domain(frozenset(cells))
        except ValueError:
            continue
        size = d.perimeter
        for cols in (
            [0] * size,
            [k % 2 for k in range(size)],
            [rng.randint(0, 1) for _ in range(size)],
        ):
            cols[-1] ^= sum(cols) % 2
            yield d, BoundaryCondition(tuple(cols))


def test_polyomino_enumeration_counts():
    # the numbers of fixed polyominoes (OEIS A001168)
    sizes = [0] * 11
    for cells in _polyominoes(10):
        sizes[len(cells)] += 1
    assert sizes[1:] == [1, 2, 6, 19, 63, 216, 760, 2725, 9910, 36446]


def _numbering(d):
    """What the domain reads off its edge numbering, as the oracle
    returns it, with the key order of its dicts."""
    return d.n_internal, list(d.vertex_edges.items()), d.edge_vertices, list(d.face_masks.items())


def test_edge_numbering_matches_the_tuple_oracle():
    # every simply-connected polyomino of at most 7 cells under every
    # anchor, and of 8 cells at anchor 0
    domains = anchors = 0
    for cells in _polyominoes(8):
        try:
            d = Domain(frozenset(cells))
        except ValueError:
            continue
        domains += 1
        for anchor in range(d.perimeter if len(cells) <= 7 else 1):
            da = Domain(d.cells, anchor)
            n, slots, ends, masks = edge_oracle.numbering(da)
            assert _numbering(da) == (n, list(slots.items()), ends, list(masks.items())), (cells, anchor)
            anchors += 1
    assert (domains, anchors) == (3747, 18284)


def test_glue_matches_the_propagation_oracle_up_to_8_cells():
    # 3,747 simply-connected polyominoes, 3 colourings, 2 parities
    tally = _compare_with_the_oracle(_polyomino_gluings(1, 8, seed=8))
    assert tally == {"gluings": 22482, "plaquettes": 3244, "swapped": 6339, "raised": 5181}


@pytest.mark.slow
def test_glue_matches_the_propagation_oracle_on_9_and_10_cells():
    tally = _compare_with_the_oracle(_polyomino_gluings(9, 10, seed=10))
    assert tally["gluings"] == 267408 and tally["plaquettes"] and tally["raised"]


@pytest.mark.slow
def test_glue_matches_the_propagation_oracle_on_random_domains():
    # 6,000 random domains of 1-30 cells, each with its drawn colours
    # and all white, under both parities: 24,000 gluings
    def draws():
        rng = random.Random(14)
        for _ in range(6000):
            d = random_domain(rng, rng.randint(1, 30))
            yield d, random_boundary(rng, d)
            yield d, BoundaryCondition((0,) * d.perimeter)

    tally = _compare_with_the_oracle(draws())
    assert tally["gluings"] == 24000 and tally["plaquettes"] and tally["raised"]
