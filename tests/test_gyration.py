"""Gyration passes, orbits, conservation laws, generalized gyration."""

import random
from collections import Counter

import pytest

from fplrs.fplcore import (
    FplConfig,
    _trace_colour,
    asm_count_formula,
    count_configs,
    enumerate_configs,
    plaquette_indicator,
    refined_counts,
)
import fplrs.gyration
from fplrs.gyration import (
    apply_h,
    generalized_gyration_check,
    gyrate,
    orbit_faces,
    orbit_partition,
    PairLinkData,
    _swap_legs,
    pair_link_data,
    square_rotation_direction,
)
from fplrs.lattice import build_square, glue_and_gamma
from fplrs.linkpat import LinkPattern, LpVector, rotate, rotation_class_of
from fplrs.sampling import random_glueable
from trace_oracle import link_data, obeys_ice_rule


def _members(o):
    """The orbit's configurations in gyration order from its seed."""
    return [FplConfig(o.seed.domain, bits) for bits in o.hashes]


def _reference_apply_h(phi, g):
    """The pass as first written: swap the legs, walk the cycles one by
    one, keep an alternating 4-cycle and complement every other cycle
    edge by edge, swap back.  Kept as the oracle for the mask pass."""
    d = g.domain

    def swap_legs(bits):
        for k in g.swaps:
            a = d.termination_id(k)
            b = d.termination_id((k + 1) % d.perimeter)
            if (bits >> a) & 1 != (bits >> b) & 1:
                bits ^= (1 << a) | (1 << b)
        return bits

    bits = swap_legs(phi.bits)
    for cyc in g.cycles:
        cols = [(bits >> e) & 1 for e in cyc]
        if len(cyc) == 4 and cols[0] != cols[1] and cols[1] != cols[2] and cols[2] != cols[3]:
            continue
        for e in cyc:
            bits ^= 1 << e
    return swap_legs(bits)


class TestPassOracle:
    """The mask pass against the cycle-by-cycle reference."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("parity", ["plus", "minus"])
    @pytest.mark.parametrize("sign", "+-")
    def test_every_square_config(self, n, parity, sign):
        d, t = build_square(n, sign)
        g = glue_and_gamma(d, build_square(n, "+")[1], parity)
        for phi in enumerate_configs(d, t):
            assert apply_h(phi, g).bits == _reference_apply_h(phi, g)

    def test_random_domains_with_swaps(self):
        rng = random.Random(20100615)
        swapped = 0
        for k in range(20):
            parity = "plus" if k % 2 == 0 else "minus"
            d, t = random_glueable(rng, rng.randint(6, 20), parity)
            g = glue_and_gamma(d, t, parity, allow_swaps=True)
            swapped += bool(g.swaps)
            for phi in enumerate_configs(d, t):
                assert apply_h(phi, g).bits == _reference_apply_h(phi, g)
        # the conjugation by leg swaps is exercised, not only the cycle rule
        assert swapped > 0

    @pytest.mark.parametrize(
        "black, kept",
        [
            ((0, 1), False),  # bottom and right: adjacent, complemented
            ((1, 2), False),
            ((0,), False),
            ((0, 1, 2), False),
            ((0, 2), True),  # bottom and top: alternating, kept
            ((1, 3), True),
        ],
    )
    def test_hand_built_face(self, black, kept):
        # the minus gluing of the 2x2 square has its one face as a
        # 4-cycle; colour only that face, by hand
        d, t = build_square(2, "+")
        g = glue_and_gamma(d, t, "minus")
        face = d.face_edges((1, 1))
        assert face in g.cycles
        bits = sum(1 << face[i] for i in black)
        phi = FplConfig(d, bits)
        psi = apply_h(phi, g)
        assert psi.bits == _reference_apply_h(phi, g)
        face_mask = sum(1 << e for e in face)
        expected = bits if kept else bits ^ face_mask
        assert psi.bits & face_mask == expected


def _reference_pair_link_data(phi, g):
    """The glued tracer as first written, over tuple pair nodes built
    from ``vertex_edges`` and ``edge_vertices``.  Kept as the oracle for
    the shared walker."""
    d = g.domain
    work = FplConfig(d, _swap_legs(phi.bits, g))
    n_internal = d.n_internal
    # generalized endpoints: internal edges join two vertices, a
    # termination joins its vertex to its glued pair node ("p", i)
    pair_node: dict[int, tuple] = {}
    legs_of_pair: list[tuple[int, int]] = []
    for i, (a, b) in enumerate(g.pairs):
        ta, tb = d.termination_id(a), d.termination_id(b)
        pair_node[ta] = pair_node[tb] = ("p", i)
        legs_of_pair.append((ta, tb))
    ends: list[tuple] = []
    for e in range(len(d.edge_vertices)):
        if e < n_internal:
            ends.append(d.edge_vertices[e])
        else:
            ends.append((d.edge_vertices[e][0], pair_node[e]))
    edges_of_vert = d.vertex_edges

    def step(eid: int, node, colour: int) -> tuple[int, object]:
        """Cross ``node`` coming in along ``eid``; return the next edge
        and the node at its far side."""
        if isinstance(node, tuple) and node and node[0] == "p":
            ta, tb = legs_of_pair[node[1]]
            nxt = tb if eid == ta else ta
        else:
            nxt = next(
                e2
                for e2 in edges_of_vert[node]
                if e2 != eid and work.colour(e2) == colour
            )
        far = ends[nxt][1] if ends[nxt][0] == node else ends[nxt][0]
        return nxt, far

    bichromatic = [i for i, flag in enumerate(g.bichromatic) if flag]
    label = {i: k for k, i in enumerate(bichromatic)}
    seen: set[tuple[int, int]] = set()  # (edge, colour)
    patterns: list[LinkPattern] = []
    for colour in (1, 0):
        match = [-1] * len(bichromatic)
        for i in bichromatic:
            ta, tb = legs_of_pair[i]
            leg = ta if work.colour(ta) == colour else tb
            if (leg, colour) in seen:
                continue
            seen.add((leg, colour))
            eid, node = leg, ends[leg][0]
            while True:
                eid, node = step(eid, node, colour)
                seen.add((eid, colour))
                if isinstance(node, tuple) and node and node[0] == "p":
                    j = node[1]
                    if g.bichromatic[j]:
                        match[label[i]], match[label[j]] = label[j], label[i]
                        break
                    # slide through the monochromatic glued vertex
                    eid, node = step(eid, node, colour)
                    seen.add((eid, colour))
        patterns.append(LinkPattern(tuple(match)))

    loops = 0
    for colour in (1, 0):
        todo = {
            e
            for e in range(len(d.edge_vertices))
            if work.colour(e) == colour and (e, colour) not in seen
        }
        while todo:
            loops += 1
            start = todo.pop()
            eid, node = start, ends[start][0]
            while True:
                eid, node = step(eid, node, colour)
                if eid == start:
                    break
                todo.discard(eid)
    return PairLinkData(patterns[0], patterns[1], loops)


def _glued_components(phi, g):
    """The monochromatic components of the glued graph as edge lists,
    by union-find: the two edges of one colour at every vertex are
    joined, and so are the two legs of every monochromatic pair."""
    d = g.domain
    bits = _swap_legs(phi.bits, g)
    parent = list(range(len(d.edge_vertices)))

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for slots in d.vertex_edges.values():
        for colour in (0, 1):
            a, b = [e for e in slots if (bits >> e) & 1 == colour]
            parent[find(a)] = find(b)
    for (a, b), bichromatic in zip(g.pairs, g.bichromatic):
        if not bichromatic:
            parent[find(d.termination_id(a))] = find(d.termination_id(b))
    comps: dict[int, list[int]] = {}
    for e in range(len(d.edge_vertices)):
        comps.setdefault(find(e), []).append(e)
    return list(comps.values())


class TestGluedWalkerOracle:
    """The glued tracer on the shared walker against the tuple-node
    reference, and its loop count against a union-find count."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("parity", ["plus", "minus"])
    @pytest.mark.parametrize("sign", "+-")
    def test_every_square_config(self, n, parity, sign):
        d, t = build_square(n, sign)
        g = glue_and_gamma(d, t, parity)
        for phi in enumerate_configs(d, t):
            assert pair_link_data(phi, g) == _reference_pair_link_data(phi, g)

    def test_random_domains_with_swaps(self):
        rng = random.Random(20100615)
        swapped = through = leg_loops = 0
        for k in range(20):
            parity = "plus" if k % 2 == 0 else "minus"
            d, t = random_glueable(rng, rng.randint(6, 20), parity)
            g = glue_and_gamma(d, t, parity, allow_swaps=True)
            swapped += bool(g.swaps)
            n_internal = d.n_internal
            ends = {
                d.termination_id(k)
                for (a, b), bichromatic in zip(g.pairs, g.bichromatic)
                if bichromatic
                for k in (a, b)
            }
            for phi in enumerate_configs(d, t):
                got = pair_link_data(phi, g)
                assert got == _reference_pair_link_data(phi, g)
                closed = 0
                for comp in _glued_components(phi, g):
                    legs = [e for e in comp if e >= n_internal]
                    if ends.intersection(legs):
                        through += len(legs) > 2
                    else:
                        closed += 1
                        leg_loops += len(legs) == len(comp)
                assert got.loops == closed
        # the leg swaps, the pass through a monochromatic pair and the
        # loops closed by glued legs alone are all exercised
        assert swapped > 0
        assert through > 0
        assert leg_loops > 0


class TestPass:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("parity", ["plus", "minus"])
    def test_involution_onto_complement(self, n, parity):
        d, t = build_square(n, "+")
        g = glue_and_gamma(d, t, parity)
        for phi in enumerate_configs(d, t):
            psi = apply_h(phi, g)
            assert obeys_ice_rule(psi)
            assert psi.boundary() == t.complemented()
            assert apply_h(psi, g).bits == phi.bits

    def test_alternating_plaquette_is_fixed(self):
        # the minus gluing of the 2x2 square leaves its single face
        # alone exactly when that face alternates
        d, t = build_square(2, "+")
        g = glue_and_gamma(d, t, "minus")
        face = d.face_edges((1, 1))
        for phi in enumerate_configs(d, t):
            psi = apply_h(phi, g)
            cols = [phi.colour(e) for e in face]
            alternating = cols[0] != cols[1] and cols[1] != cols[2] and cols[2] != cols[3]
            unchanged = all(phi.colour(e) == psi.colour(e) for e in face)
            assert unchanged == alternating

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("parity", ["plus", "minus"])
    def test_glued_triplet_conserved(self, n, parity):
        d, t = build_square(n, "+")
        g = glue_and_gamma(d, t, parity)
        for phi in enumerate_configs(d, t):
            assert pair_link_data(phi, g) == pair_link_data(apply_h(phi, g), g)

    def test_conservation_on_random_domains(self):
        rng = random.Random(3)
        for k in range(12):
            parity = "plus" if k % 2 else "minus"
            d, t = random_glueable(rng, rng.randint(6, 20), parity)
            g = glue_and_gamma(d, t, parity, allow_swaps=True)
            count = 0
            for phi in enumerate_configs(d, t):
                count += 1
                psi = apply_h(phi, g)
                assert psi.boundary() == t.complemented()
                assert apply_h(psi, g).bits == phi.bits
                assert pair_link_data(phi, g) == pair_link_data(psi, g)
            assert count >= 2

    def test_counts_agree_across_the_pass(self):
        # a bijection forces equal ensemble sizes
        rng = random.Random(5)
        for _ in range(6):
            d, t = random_glueable(rng, rng.randint(6, 16), "plus")
            assert count_configs(d, t) == count_configs(d, t.complemented())


class TestGyrate:
    def test_single_vertex_orbit(self):
        d, t = build_square(1, "+")
        phi = next(enumerate_configs(d, t))
        assert gyrate(phi) == phi
        assert [o.period for o in orbit_partition(1)] == [1]

    def test_rejects_non_square_domains(self):
        from fplrs.errors import InvalidTriplet
        from fplrs.fplcore import FplConfig
        from fplrs.lattice import Domain

        strip = Domain(frozenset({(1, 1), (2, 1)}))
        with pytest.raises(InvalidTriplet):
            gyrate(FplConfig(strip, 0))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orbits_partition_ensemble(self, n):
        orbits = orbit_partition(n)
        total = sum(o.period for o in orbits)
        assert total == asm_count_formula(n)
        seen = set()
        for o in orbits:
            assert not seen.intersection(o.hashes)
            seen.update(o.hashes)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_period_is_minimal(self, n):
        for o in orbit_partition(n):
            phi = o.seed
            for k in range(1, o.period):
                phi = gyrate(phi)
                assert phi.bits != o.seed.bits
            assert gyrate(phi).bits == o.seed.bits

    def test_replayed_orbit_is_a_gyration_cycle(self):
        # the stored hashes rebuild the orbit; each configuration must
        # still be the gyration image of the one before it
        for o in orbit_partition(4):
            c = _members(o)
            assert c[0] == o.seed
            for i in range(o.period):
                assert gyrate(c[i]).bits == c[(i + 1) % o.period].bits

    def test_rotation_direction_is_pinned(self):
        # derived at sizes 2 and 3, not assumed; under this package's
        # anchor conventions the full turn lowers indices by one step
        assert square_rotation_direction() == -1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_patterns_rotate_along_orbits(self, n):
        k = square_rotation_direction()
        d, t = build_square(n, "+")
        for phi in enumerate_configs(d, t):
            before = link_data(phi).black
            after = link_data(gyrate(phi)).black
            assert after == rotate(before, k)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orbit_stays_in_one_rotation_class(self, n):
        for o in orbit_partition(n):
            reps = {
                rotation_class_of(link_data(phi).black).word
                for phi in _members(o)
            }
            assert len(reps) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_minus_table_from_one_pass(self, n):
        d, t = build_square(n, "+")
        g = glue_and_gamma(d, t, "plus")
        table = Counter(link_data(apply_h(phi, g)).black for phi in enumerate_configs(d, t))
        assert LpVector(n, table) == refined_counts(n, "-")


class TestTracerAgreement:
    """The flat tracer (anchor labels) and the glued tracer (pair
    labels) share one walker, so agreeing here does not make either
    right; the reference tracers of both are what keep the check
    independent.  On the alternating square every pair holds exactly
    one black leg, the i-th one, so the two black patterns and the loop
    counts must coincide."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_glued_and_flat_tracing_agree(self, n, sign):
        d, t = build_square(n, sign)
        g = glue_and_gamma(d, t, "plus")
        for phi in enumerate_configs(d, t):
            flat = link_data(phi)
            glued = pair_link_data(phi, g)
            assert glued.black == flat.black
            assert glued.loops == flat.loops


class TestOrbitSums:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_orbit_and_face(self, n):
        d, _ = build_square(n, "+")
        for o in orbit_partition(n):
            configs = _members(o)
            for alpha in d.faces:
                assert sum(plaquette_indicator(phi, alpha) for phi in configs) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_minus_ensemble_orbits(self, n):
        # gyration closes on the complementary ensemble too, with the
        # same partition and balance structure
        d, _ = build_square(n, "-")
        orbits = orbit_partition(n, "-")
        assert sum(o.period for o in orbits) == asm_count_formula(n)
        for o in orbits:
            configs = _members(o)
            for alpha in d.faces:
                assert sum(plaquette_indicator(phi, alpha) for phi in configs) == 0

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_orbit_faces_agrees_with_direct_sums(self, sign):
        d, _ = build_square(4, sign)
        for o in orbit_partition(4, sign):
            classes, faces = orbit_faces(o)
            assert classes == (rotation_class_of(link_data(o.seed).black).word,)
            assert set(faces) == set(d.faces)
            for alpha, (plus, minus) in faces.items():
                values = [plaquette_indicator(phi, alpha) for phi in _members(o)]
                assert (plus, minus) == (values.count(1), values.count(-1))
                assert plus == minus

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_orbit_patterns_are_the_traced_ones(self, n, sign):
        # the partition takes its patterns from the walk; each must be
        # the traced black pattern of its configuration, and the members
        # the gyration cycle through the seed
        for o in orbit_partition(n, sign):
            assert len(o.patterns) == o.period
            members = _members(o)
            for i, (phi, p) in enumerate(zip(members, o.patterns)):
                assert p is _trace_colour(phi, 1)[0]
                assert gyrate(phi) == members[(i + 1) % o.period]

    def test_a_cycle_leaving_the_ensemble_is_an_error(self, monkeypatch):
        # one flipped edge breaks the ice rule, so the walk never meets
        # that member and its pattern stays unknown
        monkeypatch.setattr(fplrs.gyration, "_cycle", lambda bits, plus, minus: (bits, bits ^ 1))
        with pytest.raises(AssertionError, match="left the ensemble"):
            orbit_partition(3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_class_level_sums(self, n):
        d, t = build_square(n, "+")
        sums: dict[tuple[str, tuple[int, int]], int] = {}
        for phi in enumerate_configs(d, t):
            cls = rotation_class_of(link_data(phi).black).word
            for alpha in d.faces:
                key = (cls, alpha)
                sums[key] = sums.get(key, 0) + plaquette_indicator(phi, alpha)
        assert all(v == 0 for v in sums.values())


class TestInversionStrings:
    """The sign structure behind the orbit sums: for a border face, the
    indicator along the orbit records exactly the colour inversions of
    its border edge, +1 when black flips away for a horizontal edge
    (-1 for a vertical one)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_border_edge_inversions(self, n):
        d, t = build_square(n, "+")
        g_plus = glue_and_gamma(d, t, "plus")
        g_minus = glue_and_gamma(d, t, "minus")
        n_internal = d.n_internal
        counts: dict[int, list] = {}
        for alpha in d.faces:
            for e in d.face_edges(alpha):
                counts.setdefault(e, []).append(alpha)
        border = {e: faces[0] for e, faces in counts.items() if len(faces) == 1}
        cycle_plus = {e: cyc for cyc in g_plus.cycles for e in cyc}
        cycle_minus = {e: cyc for cyc in g_minus.cycles for e in cyc}
        full = (1 << len(d.edge_vertices)) - 1
        checked = 0
        for o in orbit_partition(n):
            configs = _members(o)
            for e, alpha in border.items():
                cyc = cycle_plus[e]
                in_plus = len(cyc) == 4 and all(x < n_internal for x in cyc)
                if in_plus:
                    samples = configs
                else:
                    cyc_m = cycle_minus[e]
                    assert len(cyc_m) == 4 and all(x < n_internal for x in cyc_m)
                    samples = [FplConfig(d, apply_h(phi, g_plus).bits ^ full) for phi in configs]
                v, w = d.edge_vertices[e]
                sign = 1 if v[1] == w[1] else -1
                mu = [phi.colour(e) for phi in samples]
                nu = [plaquette_indicator(phi, alpha) for phi in samples]
                period = len(samples)
                for k in range(period):
                    nxt = mu[(k + 1) % period]
                    if mu[k] == nxt:
                        assert nu[k] == 0
                    else:
                        assert nu[k] == (sign if mu[k] == 1 else -sign)
                checked += 1
        assert checked > 0


class TestGeneralizedGyration:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("parity", ["plus", "minus"])
    def test_square_reduces_to_equality(self, n, parity):
        d, t = build_square(n, "+")
        r = generalized_gyration_check(d, t, parity)
        assert r.passed
        assert r.j_left == () and r.j_right == ()

    def test_random_domains(self):
        rng = random.Random(17)
        nontrivial = 0
        for _ in range(10):
            d, t = random_glueable(rng, rng.randint(6, 16), "plus")
            r = generalized_gyration_check(d, t, "plus")
            assert r.passed
            if r.j_left or r.j_right:
                nontrivial += 1
        assert nontrivial > 0
