"""Configuration enumeration, path tracing, vertex types, tables."""

import random
from collections import Counter

import pytest

from dfs_oracle import oracle_configs, search
from fplrs import fplcore
from fplrs.fplcore import (
    FplConfig,
    _patterns,
    _trace_colour,
    _transfer,
    _walk,
    asm_count_formula,
    count_configs,
    enumerate_configs,
    plaquette_indicator,
    psi_counts,
    refined_counts,
    split_prefixes,
    vertex_type,
    vertex_type_table,
)
from fplrs.groundstate import stationary_vector
from fplrs.identities import _census, aux_state, s_vector
from fplrs.lattice import BoundaryCondition, build_square
from fplrs.linkpat import LinkPattern, LpVector, apply_rotation, lp_vector_to_json
from fplrs.sampling import random_glueable
from trace_oracle import LinkData, link_data, obeys_ice_rule

ASM_NUMBERS = [1, 2, 7, 42, 429, 7436, 218348]


def _complement(phi: FplConfig) -> FplConfig:
    """Every edge's colour flipped."""
    return FplConfig(phi.domain, phi.bits ^ ((1 << len(phi.domain.edge_vertices)) - 1))


def _site(col: int) -> tuple[str, int]:
    """The (parity, j) naming bottom-row column ``col`` in aux_state."""
    return ("odd", (col + 1) // 2) if col % 2 else ("even", col // 2)


class TestCountFormula:
    def test_known_values(self):
        assert [asm_count_formula(n) for n in range(1, 8)] == ASM_NUMBERS

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            asm_count_formula(0)


class TestEnumerate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_formula(self, n):
        d, t = build_square(n, "+")
        assert count_configs(d, t) == asm_count_formula(n)

    def test_single_vertex_forced(self):
        d, t = build_square(1, "+")
        configs = list(enumerate_configs(d, t))
        assert len(configs) == 1
        assert configs[0].boundary() == t

    def test_stream_is_lexicographic_and_deterministic(self):
        d, t = build_square(3, "+")
        # edge 0 first, so that string order is the walk's order
        width = len(d.edge_vertices)
        first = [format(phi.bits, f"0{width}b")[::-1] for phi in enumerate_configs(d, t)]
        second = [format(phi.bits, f"0{width}b")[::-1] for phi in enumerate_configs(d, t)]
        assert first == second == sorted(first)
        assert len(set(first)) == len(first)

    @pytest.mark.parametrize("n", [2, 3])
    def test_ice_rule_everywhere(self, n):
        d, t = build_square(n, "+")
        for phi in enumerate_configs(d, t):
            assert obeys_ice_rule(phi)

    @pytest.mark.parametrize("n", [2, 3])
    def test_complement_bijection(self, n):
        d, t = build_square(n, "+")
        plus = {_complement(phi).bits for phi in enumerate_configs(d, t)}
        minus = {phi.bits for phi in enumerate_configs(d, t.complemented())}
        assert plus == minus

    def test_empty_ensemble_is_a_stream_not_an_error(self):
        d, _ = build_square(2, "+")
        empty = 0
        for colours in range(256):
            bits = tuple((colours >> k) & 1 for k in range(8))
            if sum(bits) % 2:
                continue
            t = BoundaryCondition(bits)
            if count_configs(d, t) == 0:
                assert list(enumerate_configs(d, t)) == []
                assert psi_counts(d, t) == {}
                empty += 1
        assert empty > 0

    def test_split_reproduces_stream(self):
        d, t = build_square(4, "+")
        done, prefixes = split_prefixes(d, t, 3)
        merged = list(done)
        for prefix in prefixes:
            merged.extend(phi.bits for phi in enumerate_configs(d, t, prefix))
        assert sorted(merged) == sorted(phi.bits for phi in enumerate_configs(d, t))
        assert len(merged) == asm_count_formula(4)

    def test_parallel_count_agrees(self):
        d, t = build_square(4, "+")
        assert count_configs(d, t, jobs=2) == asm_count_formula(4)

    @pytest.mark.parametrize("seed", [10216, 10314, 10404])
    def test_gyration_suite_ensembles(self, seed):
        # the 50 random domains of `verify gyration-general --seed S`.
        # Each seed holds one ensemble where an edge rejected at its
        # first endpoint was never counted at its second, whose count
        # then stayed one low, so the DFS yielded configs with three
        # edges of one colour there.
        for d, t in _suite_ensembles(seed):
            configs = list(oracle_configs(d, t))
            assert len(configs) == count_configs(d, t)
            assert all(obeys_ice_rule(phi) for phi in configs)


class TestLinkData:
    def test_single_vertex(self):
        d, t = build_square(1, "+")
        ld = link_data(next(enumerate_configs(d, t)))
        assert ld.black.word == "()"
        assert ld.white.word == "()"
        assert ld.loops == 0

    def test_two_by_two_patterns(self):
        d, t = build_square(2, "+")
        words = sorted(link_data(phi).black.word for phi in enumerate_configs(d, t))
        assert words == ["(())", "()()"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_complement_swaps_colours(self, n):
        d, t = build_square(n, "+")
        for phi in enumerate_configs(d, t):
            ld = link_data(phi)
            ld_bar = link_data(_complement(phi))
            assert ld.black == ld_bar.white
            assert ld.white == ld_bar.black
            assert ld.loops_black == ld_bar.loops_white

    def test_broken_colour_raises(self):
        # clearing one black inner edge leaves two vertices with a single
        # black edge; a walk reaching one must raise, not leave along a
        # white edge (which looped for ever on some of these)
        d, t = build_square(4, "+")
        phi = next(p for p in enumerate_configs(d, t) if link_data(p).loops_black)
        inner = [e for e in range(d.n_internal) if phi.colour(e)]
        assert len(inner) == 12
        for e in inner:
            with pytest.raises(ValueError, match="stops at an inner vertex"):
                _trace_colour(FplConfig(d, phi.bits & ~(1 << e)), 1)

    def test_patterns_are_valid_involutions(self):
        # LinkPattern construction rejects crossings and fixed points,
        # so tracing every configuration is itself the assertion.
        d, t = build_square(4, "+")
        for phi in enumerate_configs(d, t):
            link_data(phi)


def _reference_trace(phi, want):
    """The tracer as first written: one colour test per slot per step,
    vertices as cells, visited edges in a set.  Kept as the oracle for
    the table-driven ``_trace_colour``."""
    d = phi.domain
    n_internal = d.n_internal
    terms = [
        k for k in range(d.perimeter) if phi.colour(d.termination_id(k)) == want
    ]
    label = {k: i for i, k in enumerate(terms)}
    edges_of_vert = d.vertex_edges
    vert_of_edge = d.edge_vertices
    seen = set()
    match = [-1] * len(terms)
    for start in terms:
        eid = d.termination_id(start)
        if eid in seen:
            continue
        seen.add(eid)
        v = vert_of_edge[eid][0]
        while True:
            nxt = next(
                e2
                for e2 in edges_of_vert[v]
                if e2 != eid and phi.colour(e2) == want
            )
            seen.add(nxt)
            if nxt >= n_internal:
                end = nxt - n_internal
                match[label[start]] = label[end]
                match[label[end]] = label[start]
                break
            a, b = vert_of_edge[nxt]
            v = b if a == v else a
            eid = nxt
    loops = 0
    for eid in range(n_internal):
        if phi.colour(eid) != want or eid in seen:
            continue
        loops += 1
        v = vert_of_edge[eid][1]
        cur = eid
        while True:
            seen.add(cur)
            nxt = next(
                e2
                for e2 in edges_of_vert[v]
                if e2 != cur and phi.colour(e2) == want
            )
            if nxt == eid:
                break
            a, b = vert_of_edge[nxt]
            v = b if a == v else a
            cur = nxt
    return LinkPattern(tuple(match)), loops


def _assert_tracer_matches_reference(d, t):
    count = 0
    for phi in enumerate_configs(d, t):
        black, loops_black = _reference_trace(phi, 1)
        white, loops_white = _reference_trace(phi, 0)
        assert link_data(phi) == LinkData(black, white, loops_black, loops_white)
        count += 1
    return count


class TestTracerOracle:
    """The table-driven tracer against the reference tracer: black and
    white patterns, labels and both loop counts.  The frontier sweep is
    cross-checked on black patterns only, so this is what guards the
    white patterns and the loop counts."""

    # n = 6 is the first size where one colour closes two loops
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", "+-")
    def test_every_square_config(self, n, sign):
        d, t = build_square(n, sign)
        assert _assert_tracer_matches_reference(d, t) == ASM_NUMBERS[n - 1]

    @pytest.mark.parametrize("parity", ["plus", "minus"])
    def test_random_domains(self, parity):
        loops = 0
        for d, t in _random_ensembles(parity):
            assert _assert_tracer_matches_reference(d, t) >= 2
            loops += sum(link_data(phi).loops for phi in enumerate_configs(d, t))
        # closed loops occur, so the loop walk is exercised too
        assert loops > 0


class TestVertexTypes:
    def test_calibrated_table(self):
        # Pinned by the bottom-row law at sizes 2 and 3; the assignment
        # groups antipodal placements: straight pairs are c, the two
        # corner classes split into a and b.
        names = {0: "E", 1: "N", 2: "W", 3: "S"}
        table = {
            "".join(sorted(names[x] for x in key)): letter
            for key, letter in vertex_type_table().items()
        }
        assert table == {
            "EN": "a", "SW": "a",
            "ES": "b", "NW": "b",
            "EW": "c", "NS": "c",
        }

    def test_single_vertex_is_c(self):
        d, t = build_square(1, "+")
        phi = next(enumerate_configs(d, t))
        assert vertex_type(phi, (1, 1)) == "c"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bottom_row_reads_b_c_a(self, n):
        d, t = build_square(n, "+")
        for phi in enumerate_configs(d, t):
            row = [vertex_type(phi, (x, 1)) for x in range(1, n + 1)]
            assert row.count("c") == 1
            k = row.index("c")
            assert all(v == "b" for v in row[:k])
            assert all(v == "a" for v in row[k + 1:])

    def test_c_position_partitions_the_ensemble(self):
        n = 4
        d, t = build_square(n, "+")
        per_position = [0] * n
        for phi in enumerate_configs(d, t):
            row = [vertex_type(phi, (x, 1)) for x in range(1, n + 1)]
            per_position[row.index("c")] += 1
        assert sum(per_position) == 42


class TestPlaquetteIndicator:
    def test_values_and_antisymmetry(self):
        d, t = build_square(3, "+")
        seen = set()
        for phi in enumerate_configs(d, t):
            for alpha in d.faces:
                v = plaquette_indicator(phi, alpha)
                seen.add(v)
                assert v in (-1, 0, 1)
                assert plaquette_indicator(_complement(phi), alpha) == -v
        assert seen == {-1, 0, 1}

    def test_class_balance_at_fig3_face(self):
        # at n=4, face (3,2): within every rotation class the +1 and -1
        # configurations pair off
        from fplrs.linkpat import rotation_class_of

        d, t = build_square(4, "+")
        tally: dict[str, list[int]] = {}
        for phi in enumerate_configs(d, t):
            cls = rotation_class_of(link_data(phi).black).word
            v = plaquette_indicator(phi, (3, 2))
            pm = tally.setdefault(cls, [0, 0])
            if v == 1:
                pm[0] += 1
            elif v == -1:
                pm[1] += 1
        assert len(tally) == 3
        assert all(pm[0] == pm[1] for pm in tally.values())


def _by_word(n: int, counts: dict[str, int]) -> LpVector:
    """The count vector with the given entries, keyed by word."""
    return LpVector(n, {LinkPattern.from_word(w): v for w, v in counts.items()})


class TestRefinedCounts:
    def test_two_by_two_table(self):
        assert refined_counts(2) == _by_word(2, {"()()": 1, "(())": 1})

    def test_n4_table_sums_to_42(self):
        table = refined_counts(4)
        assert table.total() == 42
        assert len(table.entries) == 14

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_propp_serial_arcs(self, n):
        table = refined_counts(n)
        serial = LinkPattern.from_word("()" * n)
        assert table.coeff(serial) == asm_count_formula(n - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rotation_invariance(self, n):
        table = refined_counts(n)
        assert apply_rotation(table, 1) == table

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sign_independence(self, n):
        assert refined_counts(n, "+") == refined_counts(n, "-")

    def test_constrained_tables_partition(self):
        # the a/b/c auxiliary states of one bottom-row site add up to
        # the pattern-only table, at every site
        n = 4
        full = refined_counts(n)
        for col in range(1, n + 1):
            parity, j = _site(col)
            parts = [aux_state(n, parity, j, letter) for letter in "abc"]
            assert parts[0] + parts[1] + parts[2] == full

    def test_all_zero_table_is_allowed(self):
        empty = LpVector.zero(2)
        assert empty.total() == 0
        assert lp_vector_to_json(empty) == {"n": 2, "entries": {}}
        # the corner cannot be an a: its auxiliary state is the empty table
        assert aux_state(2, "odd", 1, "a") == empty

    def test_parallel_table_agrees(self):
        assert refined_counts(4, "+", jobs=2) == refined_counts(4)

    def test_json_round_trip(self):
        # the counts as `enumerate` writes them read back to the vector
        table = refined_counts(3)
        entries = lp_vector_to_json(table)["entries"]
        assert all(type(v) is str for v in entries.values())
        assert _by_word(3, {w: int(v) for w, v in entries.items()}) == table

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_census_agrees_with_pattern_table(self, n):
        # the keyed identity census and the pattern-only tally are two
        # keys over one engine; summed over the extra keys they agree
        assert s_vector(n) == refined_counts(n)


def _suite_ensembles(seed):
    """The 50 random domains of `verify gyration-general --seed S`,
    drawn as the suite draws them."""
    rng = random.Random(seed)
    return [
        random_glueable(rng, rng.randint(6, 24), "plus" if k % 2 == 0 else "minus")
        for k in range(50)
    ]


def _oracle(d, t, forced=()):
    """Black-pattern counts by tracing every DFS leaf."""
    return dict(Counter(link_data(phi).black for phi in oracle_configs(d, t, forced)))


def _census_oracle(n):
    """The identity census by the DFS: every configuration's black
    pattern, bottom two type words and bottom-face indicators."""
    d, t = build_square(n, "+")
    keys = Counter()
    for phi in oracle_configs(d, t):
        row = lambda y: "".join(vertex_type(phi, (x, y)) for x in range(1, n + 1))
        alphas = tuple(plaquette_indicator(phi, (2 * j - 1, 1)) for j in range(1, n // 2 + 1))
        keys[link_data(phi).black, row(1), row(2) if n >= 2 else "", alphas] += 1
    return keys


def _random_ensembles(parity, count=10, seed=20100615):
    rng = random.Random(f"{seed}-{parity}")
    return [random_glueable(rng, rng.randint(6, 16), parity) for _ in range(count)]


class TestFrontierSweep:
    """The transfer-matrix sweep against tracing every DFS leaf."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", "+-")
    def test_square_tables_match_the_oracle(self, n, sign):
        d, t = build_square(n, sign)
        assert refined_counts(n, sign) == LpVector(n, _oracle(d, t))

    @pytest.mark.parametrize("parity", ["plus", "minus"])
    def test_random_domains_match_the_oracle(self, parity):
        for d, t in _random_ensembles(parity):
            expected = _oracle(d, t)
            assert psi_counts(d, t) == expected
            assert count_configs(d, t) == sum(expected.values())

    @pytest.mark.parametrize("parity", ["plus", "minus"])
    def test_forced_edges_match_the_oracle(self, parity):
        rng = random.Random(parity)
        for d, t in _random_ensembles(parity):
            e = rng.randrange(d.n_internal)
            for c in (0, 1):
                assert psi_counts(d, t, [(e, c)]) == _oracle(d, t, [(e, c)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_census_matches_the_oracle(self, n):
        # the sweep that keeps the bottom two rows' edges gives the
        # identity census key for key
        assert dict(_census(n)) == dict(_census_oracle(n))

    def test_split_prefixes_match_the_dfs(self):
        d, t = build_square(5, "+")
        done, prefixes = split_prefixes(d, t, 3)
        assert prefixes
        for prefix in prefixes:
            leaves = sum(1 for _ in oracle_configs(d, t, prefix))
            assert sum(psi_counts(d, t, prefix).values()) == leaves
        total = len(done) + sum(sum(psi_counts(d, t, p).values()) for p in prefixes)
        assert total == asm_count_formula(5)

    def test_contradictory_forced_edges_leave_nothing(self):
        d, t = build_square(3, "+")
        for forced in ([(0, 0), (0, 1)], [(d.termination_id(0), 0)]):
            assert list(enumerate_configs(d, t, forced)) == []
            assert psi_counts(d, t, forced) == {}

    def test_pooled_sweep_agrees(self):
        (d, t), = _random_ensembles("plus", count=1, seed=7)
        assert _patterns(d, t, jobs=2) == _patterns(d, t)
        assert count_configs(d, t, jobs=2) == count_configs(d, t)


def _walk_tally(d, t, forced, keep):
    """The walk's leaves counted by the bitmask of the black edges in
    ``keep`` and of the black terminations, and by black pattern, as
    the sweep keys its counts."""
    mask = sum(1 << e for e in keep)
    mask |= sum(1 << d.termination_id(k) for k in range(d.perimeter))
    return dict(Counter((bits & mask, p) for bits, p in _walk(d, t, forced)))


def _record_run_starts(monkeypatch) -> list:
    """A list that, from now on, gets the start state ``(k, tags)`` of
    every call of the ``run`` that ``fplcore._runs`` builds."""
    starts = []
    real = fplcore._runs

    def counting(*args):
        built = real(*args)
        if built is None:
            return None
        run, decode = built

        def counted(k, tags):
            starts.append((k, tags))
            return run(k, tags)

        return counted, decode

    monkeypatch.setattr(fplcore, "_runs", counting)
    return starts


def _assert_each_state_runs_once(starts: list, d, t) -> None:
    """The sweep runs each state the walk reaches exactly once: a sweep
    that re-created a bucket it had already run would run its states
    again.  ``starts`` is the list of :func:`_record_run_starts`."""
    starts.clear()
    _transfer(d, t)
    swept = list(starts)
    starts.clear()
    list(_walk(d, t))
    assert len(swept) == len(set(swept))
    assert set(swept) == set(starts)


class TestSweepMergesTheWalk:
    """The sweep merges the walk's runs by cut, so its counts are the
    walk's leaves tallied by pattern and kept-edge colours.  Both share
    one transition function: this checks the merge alone, and the DFS
    oracle above checks the transitions."""

    @pytest.mark.parametrize("seed", [20100615, 10216, 10314, 10404])
    def test_suite_ensembles_with_random_keep_and_forced_edge(self, seed):
        rng = random.Random(f"merge-{seed}")
        populated = 0
        for d, t in _suite_ensembles(seed):
            edges = range(d.n_internal)
            keep = rng.sample(edges, rng.randint(0, len(edges)))
            forced = [(rng.choice(edges), rng.randint(0, 1))]
            expected = _walk_tally(d, t, forced, keep)
            assert _transfer(d, t, forced, keep) == expected
            populated += bool(expected)
        assert populated > 25

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", "+-")
    def test_squares_with_the_census_keep(self, n, sign):
        d, t = build_square(n, sign)
        rows = [(x, y) for y in (1, 2) if y <= n for x in range(1, n + 1)]
        keep = sorted({e for v in rows for e in d.vertex_edges[v] if e < d.n_internal})
        expected = _walk_tally(d, t, (), keep)
        assert sum(expected.values()) == asm_count_formula(n)
        assert _transfer(d, t, keep=keep) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", "+-")
    def test_squares_run_each_state_once(self, monkeypatch, n, sign):
        _assert_each_state_runs_once(_record_run_starts(monkeypatch), *build_square(n, sign))

    def test_suite_ensembles_run_each_state_once(self, monkeypatch):
        starts = _record_run_starts(monkeypatch)
        for d, t in _suite_ensembles(20100615):
            _assert_each_state_runs_once(starts, d, t)


def _walks_like_the_oracle(d, t, forced=()):
    """The walk gives the DFS's stream, in its order, each leaf with its
    traced black pattern; ``enumerate_configs`` is that stream."""
    walked = list(_walk(d, t, forced))
    stream = [bits for bits, _ in walked]
    assert stream == list(search(d, t, forced))
    assert [phi.bits for phi in enumerate_configs(d, t, forced)] == stream
    for bits, p in walked:
        assert p is _trace_colour(FplConfig(d, bits), 1)[0]
    return stream


class TestWalk:
    """The depth-first walk over the sweep's transitions against the
    DFS oracle, which decides edges rather than vertices."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sign", "+-")
    def test_squares(self, n, sign):
        d, t = build_square(n, sign)
        assert len(_walks_like_the_oracle(d, t)) == asm_count_formula(n)

    @pytest.mark.parametrize("seed", [20100615, 10216, 10314, 10404])
    def test_suite_ensembles(self, seed):
        for d, t in _suite_ensembles(seed):
            _walks_like_the_oracle(d, t)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("sign", "+-")
    def test_every_depth_3_prefix(self, n, sign):
        d, t = build_square(n, sign)
        done, prefixes = split_prefixes(d, t, 3)
        merged = list(done)
        for prefix in prefixes:
            merged += _walks_like_the_oracle(d, t, prefix)
        stream = list(search(d, t))
        assert sorted(merged) == sorted(stream)
        if not done:
            assert merged == stream
        # the DFS's own prefixes force the walk just as well
        for kind, payload in search(d, t, split_depth=3):
            if kind == "prefix":
                _walks_like_the_oracle(d, t, payload)

    def test_a_split_below_every_decision_is_the_stream(self):
        d, t = build_square(4, "-")
        done, prefixes = split_prefixes(d, t, 10**6)
        assert prefixes == [] and done == list(search(d, t))

    def test_bad_boundary_raises(self):
        d, _ = build_square(2, "+")
        with pytest.raises(ValueError):
            list(enumerate_configs(d, BoundaryCondition((1, 0))))


@pytest.mark.slow
class TestLargeCounts:
    def test_n6(self):
        d, t = build_square(6, "+")
        assert count_configs(d, t) == 7436

    def test_n7_psi_rotation_invariance(self):
        # the table itself is the slow part; rotation invariance and the
        # total both come out of one pass
        table = refined_counts(7, "+", jobs=2)
        assert table.total() == 218348
        assert apply_rotation(table, 1) == table
        assert table.coeff(LinkPattern.from_word("()" * 7)) == asm_count_formula(6)
        # the Razumov-Stroganov identity at n=7, on the same table
        assert stationary_vector(7) == table

    def test_n8_table(self):
        plus = refined_counts(8, "+")
        assert plus.total() == 10850216 == asm_count_formula(8)
        assert plus.coeff(LinkPattern.from_word("()" * 8)) == asm_count_formula(7)
        assert apply_rotation(plus, 1) == plus
        assert refined_counts(8, "-") == plus

    def test_n6_psi_rotation_and_signs(self):
        plus = refined_counts(6, "+")
        minus = refined_counts(6, "-")
        assert plus == minus
        assert apply_rotation(plus, 1) == plus
