"""Auxiliary states and the identity registry."""

import random
from collections import Counter

import pytest

from census_oracle import plaquette_indicator, vertex_type
from dfs_oracle import search
from fplrs.errors import GeometryMismatch, IndexOutOfRange, UnknownIdentity
from fplrs.fplcore import psi_counts
from fplrs.identities import (
    _GYR_FAMILIES,
    _REGISTRY,
    VERTEX_TYPES,
    _e_cyclic,
    _sites,
    aux_state,
    check_identity,
    check_spr,
    nalpha_vector,
    run_identity_suite,
    s_vector,
    shat_c_rectangle,
    spr_instance,
)
from fplrs.lattice import EAST, NORTH, BoundaryCondition, Domain, build_square
from fplrs.linkpat import LpVector, apply_rotation
from trace_oracle import link_data


class TestAuxStates:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_left_corner_cannot_be_a(self, n):
        assert aux_state(n, "odd", 1, "a").is_zero()

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_sizes_right_edge_zero(self, n):
        assert aux_state(n, "even", n // 2, "b").is_zero()

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_sizes_right_edge_zero(self, n):
        assert aux_state(n, "odd", (n + 1) // 2, "b").is_zero()

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_sizes_last_cx_state_vanishes(self, n):
        # the corner column forces the site above the last black leg to
        # b, so the a-or-c refinement there is empty
        assert aux_state(n, "odd", (n + 1) // 2, "cx").is_zero()

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            aux_state(4, "odd", 3, "c")
        with pytest.raises(IndexOutOfRange):
            aux_state(4, "even", 0, "c")
        with pytest.raises(IndexOutOfRange):
            aux_state(4, "even", 1, "cx")
        with pytest.raises(IndexOutOfRange):
            aux_state(1, "odd", 1, "cb")

    def test_even_c_state_forces_the_adjacent_arc(self):
        # every pattern supporting the even c-state links legs j, j+1
        for n in (3, 4, 5):
            for j in range(1, n // 2 + 1):
                v = aux_state(n, "even", j, "c")
                assert not v.is_zero()
                for p in v.entries:
                    assert p.match[j - 1] == j  # 0-based: legs j and j + 1



def _states_oracle(n):
    """Every auxiliary state and bottom-face vector of size n, tallied
    over the DFS's configurations, one configuration at a time, with the
    oracle's type letters and face indicators.  Keyed (parity, j, letter)
    and ("face", j); a missing key is the zero vector."""
    d, t = build_square(n, "+")
    tally: dict = {}
    for phi in search(d, t):
        p = link_data(d, phi).black
        for col in range(1, n + 1):
            site = ("odd" if col % 2 else "even", (col + 1) // 2)
            letter = vertex_type(d, phi, (col, 1))
            letters = [letter]
            if col % 2 and n >= 2 and letter == "c":
                letters.append("cb" if vertex_type(d, phi, (col, 2)) == "b" else "cx")
            for key in letters:
                tally.setdefault((*site, key), Counter())[p] += 1
        for j in range(1, n // 2 + 1):
            tally.setdefault(("face", j), Counter())[p] += plaquette_indicator(d, phi, (2 * j - 1, 1))
    return tally


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_states_match_the_oracle(n):
    # every state the registry reads, at every site, with every letter
    # the site admits, against the per-configuration tally
    tally = _states_oracle(n)
    expected = lambda key: LpVector(n, tally.get(key, {}))
    for col in range(1, n + 1):
        parity, j = ("odd" if col % 2 else "even"), (col + 1) // 2
        letters = "a b c cb cx".split() if col % 2 and n >= 2 else "abc"
        for letter in letters:
            assert aux_state(n, parity, j, letter) == expected((parity, j, letter))
    for j in range(1, n // 2 + 1):
        assert nalpha_vector(n, j) == expected(("face", j))


class TestRegistry:
    def test_names_are_closed(self):
        # every registered identity has an admissible index at n = 2 or 3
        assert {r.identity for r in run_identity_suite([2, 3])} == {
            "ose", "lrd", "ec",
            "rec_a1", "rec_a2", "rec_b1", "rec_b2",
            "gyr_a_odd", "gyr_b_odd", "gyr_c_odd",
            "gyr_a_even", "gyr_b_even",
            "split_c", "ncx", "rs_decomposition", "spr",
        }

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            check_identity("nope", 3, 1)

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            check_identity("ec", 3, 5)
        with pytest.raises(IndexOutOfRange):
            check_identity("ose", 3)
        # a site given to an identity checked once per size
        with pytest.raises(IndexOutOfRange):
            check_identity("lrd", 3, 1)
        with pytest.raises(IndexOutOfRange):
            check_identity("rs_decomposition", 4, 2)
        # n = 1 has no even site, so no rectangle
        with pytest.raises(IndexOutOfRange):
            check_identity("spr", 1, 1)
        with pytest.raises(IndexOutOfRange):
            nalpha_vector(4, 3)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_admissible_sites(self, n):
        # the sites the registry checks, in suite order, read without
        # running a check, against each identity's range written out by
        # hand rather than derived from the site rule
        odd = range(1, (n + 1) // 2 + 1)
        even = range(1, n // 2 + 1)
        once = (None,)
        table = {
            "ose": odd,
            "lrd": once,
            "ec": even,
            "rec_a1": range(2, (n + 1) // 2 + 1),
            "rec_b1": even,
            "rec_a2": even,
            "rec_b2": range(1, (n + 1) // 2),
            "gyr_a_odd": odd,
            "gyr_b_odd": odd,
            "gyr_c_odd": odd,
            "gyr_a_even": even,
            "gyr_b_even": even,
            "split_c": odd if n >= 2 else (),
            "ncx": odd if n >= 2 else (),
            "rs_decomposition": once,
            "spr": even if n >= 2 else (),
        }
        expected = [(name, j) for name, sites in table.items() for j in sites]
        assert [(name, j) for name, (sites, _) in _REGISTRY.items() for j in sites(n)] == expected

    def test_example_checks(self):
        assert check_identity("ose", 3, 1).status
        assert check_identity("gyr_c_odd", 4, 2).status
        assert check_identity("rs_decomposition", 4, None).status

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_suite(self, n):
        results = list(run_identity_suite([n]))
        assert results, "suite must produce checks"
        failures = [r for r in results if not r.status]
        assert failures == []

    def test_directions_are_pinned(self):
        # derived at sizes 3 and 4, where the two candidates separate: the
        # one exponent with e_j s = R^k e_{j+off} s at every site, asserted
        # unique; the even-b family rotates opposite to the other four
        derived = {}
        for name, (parity, letter, off, _) in _GYR_FAMILIES.items():
            fits = {1, -1}
            for n in (3, 4):
                for j in _sites(n, parity):
                    v = aux_state(n, parity, j, letter)
                    lhs, rhs = _e_cyclic(v, j), _e_cyclic(v, j + off)
                    fits = {k for k in fits if lhs == apply_rotation(rhs, k)}
            assert len(fits) == 1, (name, fits)
            derived[name] = fits.pop()
        assert derived == {name: row[3] for name, row in _GYR_FAMILIES.items()}
        assert derived == {
            "gyr_a_odd": -1,
            "gyr_b_odd": -1,
            "gyr_c_odd": -1,
            "gyr_a_even": -1,
            "gyr_b_even": 1,
        }

    def test_cached_tables_are_read_only(self):
        # every caller shares the one vertex table, so none may write it
        with pytest.raises(TypeError):
            VERTEX_TYPES[frozenset((0, 1))] = "b"


class TestFrozenRectangle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reduction_reproduces_filtered_table(self, n):
        for j in range(1, (n + 1) // 2 + 1):
            d, t = shat_c_rectangle(n, j)
            rect = psi_counts(d, t)
            assert rect == aux_state(n, "odd", j, "c")

    def test_three_consecutive_black_legs(self):
        n, j = 4, 2
        d, t = shat_c_rectangle(n, j)
        cols = t.colours
        run = [k for k in range(d.perimeter) if cols[k]]
        # bottom columns 2j-2, 2j-1, 2j are consecutive blacks
        assert {2 * j - 3, 2 * j - 2, 2 * j - 1} <= set(run)


class TestNalpha:
    def test_signed_counts_sum_to_zero_under_sym(self):
        from fplrs.linkpat import apply_sym

        for n in (2, 3, 4):
            for j in range(1, n // 2 + 1):
                assert apply_sym(nalpha_vector(n, j)).is_zero()

    def test_face_bound(self):
        with pytest.raises(IndexOutOfRange):
            nalpha_vector(3, 2)


def _spr_sides(d, t1) -> tuple[int, int]:
    """How many configurations each side of :func:`check_spr` holds:
    side one with the edge between the last two legs white, side two
    with those legs white and the edge black."""
    size = d.perimeter
    lo, hi = sorted(d.terminations[k][0] for k in (size - 2, size - 1))
    e = d.vertex_edges[lo][EAST if lo[1] == hi[1] else NORTH]
    t2 = BoundaryCondition(t1.colours[:-2] + (0, 0))
    return psi_counts(d, t1, [(e, 0)]).total(), psi_counts(d, t2, [(e, 1)]).total()


class TestSimplePathReversal:
    def test_minimal_case(self):
        # the 2x2 square with the two west legs as the only blacks: one
        # configuration routes around the square (edge white), one
        # straight through (edge black), matching across the reversal
        d = Domain(frozenset({(1, 1), (2, 1), (1, 2), (2, 2)}))
        t1 = BoundaryCondition((0, 0, 0, 0, 0, 0, 1, 1))
        report = check_spr(d, t1)
        assert report.passed
        assert report.m == 1
        assert _spr_sides(d, t1) == (1, 1)

    def test_degenerate_strip(self):
        # a 1x2 strip forces the path through the edge; both filtered
        # sides are empty and the identities hold vacuously
        d = Domain(frozenset({(1, 1), (1, 2)}))
        t1 = BoundaryCondition((0, 0, 0, 0, 1, 1))
        assert check_spr(d, t1).passed
        assert _spr_sides(d, t1) == (0, 0)

    def test_geometry_mismatch(self):
        d = Domain(frozenset({(1, 1), (2, 1)}))
        # last two legs share the attachment vertex here
        with pytest.raises(GeometryMismatch):
            check_spr(d, BoundaryCondition((0, 0, 0, 0, 1, 1)))
        d2 = Domain(frozenset({(1, 1), (1, 2)}))
        with pytest.raises(GeometryMismatch):
            check_spr(d2, BoundaryCondition((1, 1, 0, 0, 0, 0)))

    def test_random_two_row_strips(self):
        rng = random.Random(23)
        passed = 0
        for _ in range(60):
            width = rng.randint(2, 4)
            cells = frozenset(
                (x, y) for x in range(1, width + 1) for y in (1, 2)
            )
            d = Domain(cells)
            cols = [rng.randint(0, 1) for _ in range(d.perimeter - 2)] + [1, 1]
            if sum(cols) % 2:
                cols[rng.randrange(d.perimeter - 2)] ^= 1
            t1 = BoundaryCondition(tuple(cols))
            report = check_spr(d, t1)
            assert report.e_identity and report.c_identity
            if _spr_sides(d, t1)[0]:
                passed += 1
        assert passed > 10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rectangle_instances(self, n):
        for j in range(1, n // 2 + 1):
            d, t1 = spr_instance(n, j)
            assert check_spr(d, t1).passed


class TestVectors:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_s_vector_totals(self, n):
        from fplrs.linkpat import asm_count_formula

        assert s_vector(n).total() == asm_count_formula(n)

    def test_vectors_are_built_once_and_read_only(self):
        s = s_vector(4)
        state = aux_state(4, "odd", 1, "c")
        assert s_vector(4) is s
        assert aux_state(4, "odd", 1, "c") is state
        p = next(iter(s.entries))
        for v in (s, state):
            with pytest.raises(TypeError):
                v.entries[p] = 0
        assert s_vector(4) is s and s.total() == 42

    def test_counts_stay_ints(self):
        assert all(type(c) is int for c in s_vector(4).entries.values())


@pytest.mark.slow
class TestSizeSix:
    """Spot checks one size past the acceptance range, exercising the
    132-dimensional pattern space end to end."""

    def test_decompositions_scale(self):
        from fplrs.linkpat import asm_count_formula

        assert check_identity("lrd", 6, None).status
        assert check_identity("rs_decomposition", 6, None).status
        assert check_identity("ose", 6, 2).status
        assert s_vector(6).total() == asm_count_formula(6)


@pytest.mark.slow
class TestSizeSeven:
    """The whole registry at n = 7, on the swept census."""

    def test_every_identity_holds(self):
        from fplrs.fplcore import refined_counts

        results = list(run_identity_suite([7]))
        assert len(results) == 50
        assert [r for r in results if not r.status] == []
        assert s_vector(7) == refined_counts(7)


class TestFrozenRegions:
    """Constraining one bottom-row site freezes a predictable stretch of
    the bottom row: everything for c, the left part (through the site's
    own east edge) for b, the right part (from the site's west edge) for
    a.  Frozen means one colour across every contributing config."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bottom_row_freezes(self, n):
        from fplrs.fplcore import enumerate_configs
        from fplrs.lattice import build_square

        d, t = build_square(n, "+")
        groups: dict[tuple[int, str], list] = {}
        for phi in enumerate_configs(d, t):
            for col in range(1, n + 1):
                groups.setdefault((col, vertex_type(d, phi, (col, 1))), []).append(phi)
        for (col, letter), configs in groups.items():
            if letter == "c":
                h_claim = range(1, n)
                v_claim = range(1, n + 1)
            elif letter == "b":
                h_claim = range(1, min(col, n - 1) + 1)
                v_claim = range(1, col + 1)
            else:
                h_claim = range(max(col - 1, 1), n)
                v_claim = range(col, n + 1)
            for x in h_claim:
                e = d.vertex_edges[(x, 1)][EAST]
                assert len({(phi >> e) & 1 for phi in configs}) == 1
            for x in v_claim:
                e = d.vertex_edges[(x, 1)][NORTH]
                assert len({(phi >> e) & 1 for phi in configs}) == 1
