"""Link patterns, diagram operators, and exact vectors."""

import copy
import math
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fplrs
from fplrs import linkpat
from fplrs.errors import ArityMismatch
from fplrs.fplcore import _patterns
from fplrs.lattice import build_square
from fplrs.linkpat import (
    LinkPattern,
    LpVector,
    add_a,
    all_patterns,
    apply_a,
    apply_c,
    apply_e,
    apply_hamiltonian,
    apply_rotation,
    apply_sym,
    close_c,
    first_difference,
    lp_vector_to_json,
    reflect,
    rotate,
    rotation_class_of,
    rotation_classes,
    tl_e,
)


def pat(*pairs):
    """The pattern with the given 1-based arcs."""
    match = [-1] * (2 * len(pairs))
    for i, j in pairs:
        match[i - 1], match[j - 1] = j - 1, i - 1
    return LinkPattern(tuple(match))


def wrap(j, size):
    return ((j - 1) % size) + 1


class TestLinkPattern:
    def test_word_round_trip(self):
        for n in range(5):
            for p in all_patterns(n):
                assert LinkPattern.from_word(p.word) == p

    def test_rejects_crossings(self):
        with pytest.raises(ValueError):
            pat((1, 3), (2, 4))

    def test_rejects_fixed_points(self):
        with pytest.raises(ValueError):
            LinkPattern((0, 1, 2, 3))

    def test_counts_are_catalan(self):
        assert [len(all_patterns(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]
        for n in range(8):
            assert len(all_patterns(n)) == math.comb(2 * n, n) // (n + 1)

    def test_empty_pattern(self):
        empty = LinkPattern(())
        assert empty.n == 0 and empty.word == ""
        assert add_a(empty, 1) == LinkPattern.from_word("()")


class TestInterning:
    """One object per matching: validated once, equal means identical."""

    def test_one_object_per_matching(self):
        for n in range(5):
            for p in all_patterns(n):
                assert LinkPattern(tuple(list(p.match))) is p
                assert LinkPattern.from_word(p.word) is p

    @pytest.mark.parametrize(
        "match, message",
        [
            ((1, 0, 2), "even number of points"),
            ((0, 1, 2, 3), "fixed-point-free involution"),
            ((1, 0, 3, 4), "fixed-point-free involution"),
            ((2, 3, 0, 1), "crossing arcs"),
        ],
    )
    def test_invalid_match_raises_every_time_and_is_not_stored(self, match, message):
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                LinkPattern(match)
            assert match not in linkpat._interned

    def test_pickle_and_copy_return_the_interned_object(self):
        for p in all_patterns(4):
            assert pickle.loads(pickle.dumps(p)) is p
            assert copy.copy(p) is p
            assert copy.deepcopy(p) is p
        table = {p: k for k, p in enumerate(all_patterns(3))}
        assert pickle.loads(pickle.dumps(table)) == table

    def test_pool_keys_are_the_serial_objects(self):
        # the jobs > 1 sweep ships its counts back through pickle
        d, t = build_square(5, "+")
        serial = _patterns(d, t)
        # checked first: a pool whose result fails to unpickle hangs
        assert pickle.loads(pickle.dumps(serial)) == serial
        pooled = _patterns(d, t, jobs=2)
        assert pooled == serial
        lp5 = set(map(id, all_patterns(5)))
        assert all(id(p) in lp5 for p in pooled)

    def test_match_is_read_only(self):
        p = LinkPattern.from_word("(())")
        with pytest.raises(AttributeError):
            p.match = (1, 0, 3, 2)
        with pytest.raises(AttributeError):
            del p.match
        with pytest.raises(AttributeError):
            p.extra = 1
        assert p.match == (3, 2, 1, 0) and p.word == "(())"

    def test_threads_building_fresh_matchings_share_one_object(self):
        # patterns on 2 * 207 points: no other test builds them
        words = ["()" * k + "(" * 7 + ")" * 7 + "()" * (200 - k) for k in range(201)]
        assert all(len(m) != 414 for m in linkpat._interned)
        barrier = threading.Barrier(4)
        built: list[list[LinkPattern]] = [[] for _ in range(4)]

        def build(out: list) -> None:
            barrier.wait(timeout=60)
            out.extend(LinkPattern.from_word(w) for w in words)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(out,)) for out in built]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
        finally:
            sys.setswitchinterval(switch)
        for objects in zip(*built):
            assert all(q is objects[0] for q in objects)
            assert linkpat._interned[objects[0].match] is objects[0]
        assert len({id(p) for p in built[0]}) == len(words)


def test_build_h_validates_each_matching_once():
    # a fresh interpreter, so that no earlier test has built LP(5); each
    # distinct matching is checked once, not once per tl_e result
    probe = """
from fplrs import linkpat
from fplrs.groundstate import build_h_matrix
calls = []
check = linkpat._check_match
def counted(m):
    calls.append(m)
    check(m)
linkpat._check_match = counted
build_h_matrix(5)
print(len(calls), len(set(calls)))
"""
    src = str(Path(fplrs.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    calls, distinct = map(int, result.stdout.split())
    assert 0 < calls == distinct <= math.comb(10, 5) // 6


class TestRotate:
    def test_example_shift(self):
        p = pat((1, 6), (2, 3), (4, 5), (7, 10), (8, 9))
        expected = pat((10, 5), (1, 2), (3, 4), (6, 9), (7, 8))
        assert rotate(p, 1) == expected

    def test_full_turn_and_inverse(self):
        for p in all_patterns(3):
            assert rotate(p, 6) == p
            assert rotate(rotate(p, 1), -1) == p


class TestGenerators:
    def test_fixed_when_arc_present(self):
        p = pat((1, 6), (2, 3), (4, 5), (7, 10), (8, 9))
        assert tl_e(p, 2) == p

    def test_rewiring_branch(self):
        p = pat((1, 6), (2, 3), (4, 5), (7, 10), (8, 9))
        assert tl_e(p, 1) == pat((1, 2), (3, 6), (4, 5), (7, 10), (8, 9))

    def test_affine_generator_wraps(self):
        p = pat((1, 4), (2, 3))
        assert tl_e(p, 4) == p  # 4 and 1 are matched
        q = pat((1, 2), (3, 4))
        assert tl_e(q, 4) == pat((1, 4), (2, 3))

    def test_cap_on_existing_arc(self):
        assert close_c(pat((1, 2), (3, 4)), 1) == LinkPattern.from_word("()")

    def test_cap_rewires_partners(self):
        assert close_c(pat((1, 4), (2, 3)), 1) == LinkPattern.from_word("()")

    def test_index_ranges(self):
        p = pat((1, 2), (3, 4))
        with pytest.raises(ArityMismatch):
            close_c(p, 4)
        with pytest.raises(ArityMismatch):
            add_a(p, 6)


def _reference_close_c(p, j):
    """close_c as it was written before its relabelling became
    arithmetic: a dict from kept positions to their new labels."""
    size = len(p.match)
    if not 1 <= j <= size - 1:
        raise ArityMismatch(f"close_c index {j} out of range for 2n={size}")
    a, b = j - 1, j
    m = list(p.match)
    pa, pb = m[a], m[b]
    if pa != b:
        m[pa], m[pb] = pb, pa
    keep = [i for i in range(size) if i not in (a, b)]
    relabel = {old: new for new, old in enumerate(keep)}
    return LinkPattern(tuple(relabel[m[old]] for old in keep))


def _reference_add_a(p, j):
    """add_a as it was written before it became two slices."""
    size = len(p.match)
    if not 1 <= j <= size + 1:
        raise ArityMismatch(f"add_a index {j} out of range for 2n={size}")
    shift = [old + 2 if old >= j - 1 else old for old in p.match]
    out = []
    for old in range(size + 2):
        if old == j - 1:
            out.append(j)
        elif old == j:
            out.append(j - 1)
        else:
            src = old - 2 if old > j else old
            out.append(shift[src])
    return LinkPattern(tuple(out))


def _outcome(op, p, j):
    try:
        return op(p, j)
    except ArityMismatch as exc:
        return str(exc)


@pytest.mark.parametrize(
    "op, reference", [(close_c, _reference_close_c), (add_a, _reference_add_a)],
    ids=["close_c", "add_a"],
)
@pytest.mark.parametrize("n", range(7))
def test_cap_and_add_match_the_reference(op, reference, n):
    # every index from two below the range to two above it, so both
    # ends of the ArityMismatch range are covered
    size = 2 * n
    rejected = 0
    for p in all_patterns(n):
        for j in range(-1, size + 4):
            want = _outcome(reference, p, j)
            assert _outcome(op, p, j) == want
            rejected += isinstance(want, str)
    assert rejected


class TestRelationsExhaustive:
    """The defining relations, exhaustively through size 5."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_conjugation_idempotence_commutation(self, n):
        size = 2 * n
        for p in all_patterns(n):
            for i in range(1, size + 1):
                ei = tl_e(p, i)
                assert ei == rotate(tl_e(rotate(p, -1), wrap(i + 1, size)), 1)
                assert tl_e(ei, i) == ei
                assert tl_e(tl_e(tl_e(p, i), wrap(i + 1, size)), i) == ei
                assert tl_e(tl_e(tl_e(p, i), wrap(i - 1, size)), i) == ei
                for j in range(1, size + 1):
                    if min((i - j) % size, (j - i) % size) > 1:
                        assert tl_e(tl_e(p, j), i) == tl_e(tl_e(p, i), j)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cap_add_identities(self, n):
        size = 2 * n
        for p in all_patterns(n):
            for j in range(1, size):
                assert close_c(add_a(p, j), j) == p
                assert add_a(close_c(p, j), j) == tl_e(p, j)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_add_is_injective(self, n):
        for j in range(1, 2 * n + 2):
            images = {add_a(p, j) for p in all_patterns(n)}
            assert len(images) == math.comb(2 * n, n) // (n + 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ladder_products_match_generator_products(self, n):
        # subsets of 1..2n-1 with no two consecutive members
        size = 2 * n
        sets = [()]
        for j in range(1, size):
            sets += [s + (j,) for s in sets if not s or s[-1] < j - 1]
        for p in all_patterns(n):
            for js in sets:
                lhs = p
                for j in sorted(js, reverse=True):
                    lhs = close_c(lhs, j)
                for j in sorted(js):
                    lhs = add_a(lhs, j)
                rhs = p
                for j in js:
                    rhs = tl_e(rhs, j)
                assert lhs == rhs


def patterns_strategy(n):
    pats = all_patterns(n)
    return st.integers(min_value=0, max_value=len(pats) - 1).map(lambda i: pats[i])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=7),
    seed=st.integers(min_value=0, max_value=10**9),
    data=st.data(),
)
def test_relations_random_samples(n, seed, data):
    p = data.draw(patterns_strategy(n))
    size = 2 * n
    i = data.draw(st.integers(min_value=1, max_value=size))
    j = data.draw(st.integers(min_value=1, max_value=size))
    ei = tl_e(p, i)
    assert ei == rotate(tl_e(rotate(p, -1), wrap(i + 1, size)), 1)
    assert tl_e(ei, i) == ei
    assert tl_e(tl_e(tl_e(p, i), wrap(i + 1, size)), i) == ei
    if min((i - j) % size, (j - i) % size) > 1:
        assert tl_e(tl_e(p, j), i) == tl_e(ei, j)
    if i < size:
        assert close_c(add_a(p, i), i) == p
        assert add_a(close_c(p, i), i) == ei


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=7), k=st.integers(-20, 20), data=st.data())
def test_rotation_is_invertible(n, k, data):
    p = data.draw(patterns_strategy(n))
    assert rotate(rotate(p, k), -k) == p
    assert rotate(p, 2 * n) == p


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reflection_conjugates_the_generators(n):
    # i -> 2n-1-i sends e_j to e_{2n-j} and fixes e_2n
    size = 2 * n
    for p in all_patterns(n):
        assert reflect(reflect(p)) == p
        for j in range(1, size + 1):
            assert reflect(tl_e(p, j)) == tl_e(reflect(p), (size - j - 1) % size + 1)


class TestRotationClasses:
    def test_orbits_partition(self):
        for n in range(1, 8):
            classes = rotation_classes(n)
            assert sum(len(c.members) for c in classes) == math.comb(2 * n, n) // (n + 1)
            seen = set()
            for c in classes:
                assert c.stabilizer_order * len(c.members) == 2 * n
                assert 2 * n % c.stabilizer_order == 0
                assert not seen.intersection(c.members)
                seen.update(c.members)

    def test_small_class_counts(self):
        # LP(2) is a single orbit of size 2: the partition identity
        # sum of orbit sizes = catalan(n) leaves no other option.
        assert [len(c.members) for c in rotation_classes(2)] == [2]
        assert sorted(len(c.members) for c in rotation_classes(3)) == [2, 3]
        # three classes at size 4, the blocks of the orbit census
        assert sorted(len(c.members) for c in rotation_classes(4)) == [2, 4, 8]

    def test_representative_is_word_minimal(self):
        for c in rotation_classes(4):
            assert c.representative.word == min(m.word for m in c.members)
            for m in c.members:
                assert rotation_class_of(m) == c.representative

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lookup_matches_brute_force(self, n):
        # the lookup against the least word over all 2n rotations
        for p in all_patterns(n):
            best = min((rotate(p, k) for k in range(2 * n)), key=lambda q: q.word)
            assert rotation_class_of(p) == best


class TestLpVector:
    def test_zero_entries_dropped(self):
        p, q = all_patterns(2)
        v = LpVector(2, {p: 1, q: 0})
        assert q not in v.entries and v.coeff(p) == 1

    def test_arity_checked(self):
        p = all_patterns(2)[0]
        with pytest.raises(ArityMismatch):
            LpVector(3, {p: 1})
        with pytest.raises(ArityMismatch):
            apply_e(LpVector(p.n, {p: 1}), 5)

    def test_sym_example(self):
        v = LpVector(2, {LinkPattern.from_word("()()"): 1})
        result = apply_sym(v)
        assert result.coeff(LinkPattern.from_word("()()")) == 2
        assert result.coeff(LinkPattern.from_word("(())")) == 2

    def test_sym_absorbs_rotation(self):
        for p in all_patterns(3):
            v = LpVector(p.n, {p: 1})
            assert apply_sym(apply_rotation(v, 1)) == apply_sym(v)

    def test_hamiltonian_on_single_arc(self):
        v = LpVector(1, {LinkPattern.from_word("()"): 1})
        assert apply_hamiltonian(v) == 2 * v

    def test_cap_changes_size(self):
        v = LpVector(2, {LinkPattern.from_word("()()"): 1})
        assert apply_c(v, 1).n == 1
        assert apply_a(v, 1).n == 3

    def test_exact_arithmetic(self):
        p, q = all_patterns(2)
        v = LpVector(2, {p: 10**30 + 1})
        w = LpVector(2, {p: -10**30, q: 5})
        total = v + w
        assert total.coeff(p) == 1 and total.coeff(q) == 5
        assert (v - v).is_zero()

    def test_json_round_trip(self):
        p, q = all_patterns(2)
        v = LpVector(2, {p: 7, q: -3})
        data = lp_vector_to_json(v)
        assert data == {"n": 2, "entries": {p.word: "7", q.word: "-3"}}

    def test_coefficients_are_ints_only(self):
        p, q = all_patterns(2)
        v = LpVector(2, {p: 3, q: -2})
        assert type(v.coeff(p)) is int and type(v.total()) is int
        assert type((2 * v + v).coeff(q)) is int
        assert first_difference(v, 2 * v) == f"{p.word}: 3 != 6"
        assert type(LpVector(2, {p: True}).coeff(p)) is int
        for bad in (0.5, Fraction(1)):
            with pytest.raises(TypeError):
                LpVector(2, {p: bad})
            with pytest.raises(TypeError):
                bad * v

    def test_entries_are_read_only(self):
        p, q = all_patterns(2)
        v = LpVector(p.n, {p: 1})
        with pytest.raises(TypeError):
            v.entries[q] = 1
        assert v.entries == {p: 1}

    def test_first_difference_names_the_least_word(self):
        a = LinkPattern.from_word("(())()")
        b = LinkPattern.from_word("()()()")
        lhs = LpVector(3, {a: 2, b: 1})
        rhs = LpVector(3, {a: 3, b: 4})
        assert first_difference(lhs, rhs) == "(())(): 2 != 3"

    def test_first_difference_of_different_sizes(self):
        # no word tells two zero vectors of different sizes apart
        assert first_difference(LpVector.zero(2), LpVector.zero(3)) == "sizes differ"

    def test_vector_is_an_immutable_unhashable_value(self):
        p, q = all_patterns(2)
        v = LpVector(2, {p: 3, q: -1})
        back = pickle.loads(pickle.dumps(v))
        assert back == v and back is not v and type(back.entries) is type(v.entries)
        assert back.entries == {p: 3, q: -1} and back != LpVector(2, {p: 3})
        for name in ("n", "entries", "extra"):
            with pytest.raises(AttributeError):
                setattr(v, name, 1)
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert v.n == 2 and v.entries == {p: 3, q: -1}
        with pytest.raises(TypeError):
            hash(v)
