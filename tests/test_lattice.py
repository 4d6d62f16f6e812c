"""Domains, boundary walks, and termination gluing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fplrs.errors import InvalidTriplet
from fplrs.lattice import (
    BoundaryCondition,
    Domain,
    _neighbour,
    _trace_boundary,
    boundary_string,
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
        assert t.to_string() == "bwbw"

    def test_minus_is_complement(self):
        _, plus = build_square(2, "+")
        _, minus = build_square(2, "-")
        assert minus == plus.complemented()

    def test_every_vertex_has_four_slots(self):
        d = l_shape()
        for v in d.cells:
            assert len(d.vertex_edges[v]) == 4
        assert 2 * len(d.internal_edges) + d.perimeter == 4 * len(d.cells)

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

    def test_json_round_trip(self):
        d = Domain(l_shape().cells, anchor=3)
        again = Domain.from_json(d.to_json())
        assert again == d
        assert again.terminations == d.terminations

    def test_boundary_traced_once(self, monkeypatch):
        # the anchor check at construction reads the cached trace that
        # terminations and steps use
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


def _reference_accepts(cells):
    """Reference acceptance for Domain, independent of its leg count: an
    edge-connectivity search, a hole search over the padded bounding
    box, then the boundary trace's pinch check."""
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
        return False
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
        return False
    try:
        _trace_boundary(cells)
    except ValueError:
        return False
    return True


def test_domain_acceptance_matches_the_searches():
    # every nonempty subset of a 4x4 box: the leg count accepts exactly
    # the connected, hole-free, unpinched sets
    box = [(x, y) for y in range(4) for x in range(4)]
    accepted = 0
    for mask in range(1, 1 << len(box)):
        cells = frozenset(c for k, c in enumerate(box) if mask >> k & 1)
        try:
            Domain(cells)
            ok = True
        except ValueError:
            ok = False
        assert ok == _reference_accepts(cells), sorted(cells)
        accepted += ok
    assert accepted == 9349


class TestBoundaryString:
    def test_square_is_four_left_turns(self):
        for n in (1, 2, 5):
            steps = boundary_string(build_square(n, "+")[0]).steps
            assert steps.count(1) == 4
            assert steps.count(-1) == 0
            assert steps.count(0) == len(steps) - 4

    def test_notched_square_has_one_right_turn(self):
        steps = boundary_string(l_shape()).steps
        assert steps.count(-1) == 1

    def test_step_sum_on_random_domains(self):
        rng = random.Random(7)
        for _ in range(40):
            d = random_domain(rng, rng.randint(1, 20))
            assert sum(boundary_string(d).steps) == 4


class TestBoundaryCondition:
    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            BoundaryCondition((1, 0, 0, 0))

    def test_string_round_trip(self):
        t = BoundaryCondition.from_string("bwwb")
        assert t.to_string() == "bwwb"
        assert t.complemented().to_string() == "wbbw"

    def test_swap(self):
        t = BoundaryCondition.from_string("bwwb")
        assert t.swapped(0).to_string() == "wbwb"
        assert t.swapped(2).to_string() == "bwbw"
        assert t.swapped(3).to_string() == "bwwb"  # cyclic wrap, both legs equal


class TestGlueAndGamma:
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_square_valid_both_parities_no_swaps(self, n, sign):
        d, t = build_square(n, sign)
        for parity in ("plus", "minus"):
            g = glue_and_gamma(d, t, parity)
            assert g.swaps == ()
            covered = sorted(e for cyc in g.cycles for e in cyc)
            assert covered == list(range(len(d.edges)))
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
        glue_and_gamma(d, t, "plus")  # fine as is
        with pytest.raises(InvalidTriplet):
            glue_and_gamma(d, t, "minus", allow_swaps=False)
        g = glue_and_gamma(d, t, "minus", allow_swaps=True)
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

    def test_gamma_cycles_are_short(self):
        rng = random.Random(11)
        for _ in range(25):
            d = random_domain(rng, rng.randint(2, 18))
            t = random_boundary(rng, d)
            try:
                g = glue_and_gamma(d, t, "plus", allow_swaps=True)
            except InvalidTriplet:
                continue
            assert all(len(c) <= 4 for c in g.cycles)
            covered = sorted(e for cyc in g.cycles for e in cyc)
            assert covered == list(range(len(d.edges)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), size=st.integers(2, 16))
def test_boundary_walk_covers_each_termination_once(seed, size):
    d = random_domain(random.Random(seed), size)
    assert len(set(d.terminations)) == d.perimeter
    assert sum(d.steps) == 4
