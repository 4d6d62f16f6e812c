"""Hamiltonian matrix, exact kernels, and the stationarity identity."""

import math
from collections import Counter

import pytest

from fplrs import fplcore, groundstate
from fplrs.cli import main
from fplrs.errors import KernelDimensionError
from fplrs.fplcore import refined_counts
from fplrs.groundstate import (
    HamiltonianMatrix,
    _quotient,
    build_h_matrix,
    kernel_dimension_certificate,
    stationary_vector,
    verify_rs,
)
from fplrs.linkpat import (
    LinkPattern,
    LpVector,
    all_patterns,
    apply_hamiltonian,
    apply_rotation,
    asm_count_formula,
    reflect,
    rotate,
)


def _entries(h):
    """Each column as {row index: entry}."""
    return [dict(Counter(col)) for col in h.cols]


class TestMatrix:
    def test_one_arc(self):
        # H = [[2]]
        h = build_h_matrix(1)
        assert _entries(h) == [{0: 2}]

    def test_two_arcs(self):
        # both generators fix each pattern once and map it across once,
        # worked out directly from the capping rule: H = [[2, 2], [2, 2]]
        h = build_h_matrix(2)
        assert [p.word for p in h.basis] == ["(())", "()()"]
        assert _entries(h) == [{0: 2, 1: 2}, {0: 2, 1: 2}]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_column_sums_and_entry_bounds(self, n):
        # column j sums to len(cols[j]); an entry is a multiplicity
        h = build_h_matrix(n)
        assert {len(col) for col in h.cols} == {2 * n}
        assert all(0 <= i < len(h.basis) for col in h.cols for i in col)
        assert max(max(e.values()) for e in _entries(h)) <= 2 * n

    @pytest.mark.slow
    def test_column_sums_n7(self):
        h = build_h_matrix(7)
        assert {len(col) for col in h.cols} == {14}
        assert all(0 <= i < len(h.basis) for col in h.cols for i in col)
        assert max(max(e.values()) for e in _entries(h)) <= 14


class TestStationaryVector:
    def test_small_values(self):
        assert {p.word: c for p, c in stationary_vector(1).entries.items()} == {
            "()": 1
        }
        assert {p.word: c for p, c in stationary_vector(2).entries.items()} == {
            "()()": 1,
            "(())": 1,
        }

    def test_three_arcs(self):
        # kernel of the 5x5 shifted matrix: twos on the serial-arc
        # orbit, ones on the nested orbit, summing to 7
        vec = stationary_vector(3)
        values = {p.word: int(c) for p, c in vec.entries.items()}
        assert values == {
            "((()))": 1,
            "(())()": 1,
            "()(())": 1,
            "(()())": 2,
            "()()()": 2,
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_sum_rule(self, n):
        assert stationary_vector(n).total() == asm_count_formula(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
    def test_rotation_invariance(self, n):
        vec = stationary_vector(n)
        assert apply_rotation(vec, 1) == vec

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_normalization(self, n):
        values = [int(c) for c in stationary_vector(n).entries.values()]
        assert all(v > 0 for v in values)
        assert math.gcd(*values) == 1
        assert len(values) == math.comb(2 * n, n) // (n + 1)

    def test_n8(self):
        # the smallest size whose largest entry, A_7 = 218348 on the
        # serial arcs, needs more than 17 bits of the prime
        vec = stationary_vector(8)
        assert len(vec.entries) == math.comb(16, 8) // 9 == 1430
        assert vec.total() == asm_count_formula(8) == 10850216
        assert vec.coeff(LinkPattern.from_word("()" * 8)) == asm_count_formula(7)
        assert vec.coeff(LinkPattern.from_word("(" * 8 + ")" * 8)) == 1
        assert apply_rotation(vec, 1) == vec
        # the Razumov-Stroganov identity at n=8, against the refined table
        assert vec == refined_counts(8)

    @pytest.mark.slow
    def test_n9(self):
        assert stationary_vector(9) == refined_counts(9)

    @pytest.mark.slow
    def test_n10(self):
        # the refined table at n=10 is too slow to compare against, so
        # the sum rule, the two pinned entries and the symmetries
        vec = stationary_vector(10)
        assert len(vec.entries) == math.comb(20, 10) // 11 == 16796
        assert vec.total() == asm_count_formula(10)
        assert vec.coeff(LinkPattern.from_word("(" * 10 + ")" * 10)) == 1
        assert vec.coeff(LinkPattern.from_word("()" * 10)) == asm_count_formula(9)
        assert apply_rotation(vec, 1) == vec
        assert vec.map_patterns(reflect, 10) == vec

    def test_prime_too_small_raises(self, monkeypatch):
        # the serial-arcs entry 218348 lifts to a wrong value mod 100003,
        # and the full-H check must reject it rather than return it
        monkeypatch.setattr(groundstate, "_PRIME", 100_003)
        with pytest.raises(KernelDimensionError):
            stationary_vector(8)


class TestQuotient:
    @pytest.mark.parametrize(
        "n, classes", [(1, 1), (2, 1), (3, 2), (4, 3), (5, 6), (6, 12), (7, 27), (8, 65)]
    )
    def test_dihedral_class_counts(self, n, classes):
        class_of, rows = _quotient(build_h_matrix(n), n)
        assert len(rows) == max(class_of) + 1 == classes

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_classes_are_dihedral_orbits(self, n):
        h = build_h_matrix(n)
        class_of, _ = _quotient(h, n)
        index = {p: i for i, p in enumerate(h.basis)}
        assert class_of[0] == 0
        for i, p in enumerate(h.basis):
            assert class_of[index[rotate(p)]] == class_of[index[reflect(p)]] == class_of[i]
        # and no coarser: each class is one orbit of the 4n symmetries
        for c in set(class_of):
            p = h.basis[class_of.index(c)]
            orbit = {rotate(q, k) for q in (p, reflect(p)) for k in range(2 * n)}
            assert orbit == {q for q, d in zip(h.basis, class_of) if d == c}

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_classes_in_breadth_first_order(self, n):
        # _kernel_mod eliminates from the last class down, so the classes
        # are numbered by breadth-first distance over the rows from the
        # nested arcs: the farthest go first
        class_of, rows = _quotient(build_h_matrix(n), n)
        assert all_patterns(n)[0] == LinkPattern.from_word("(" * n + ")" * n)
        assert class_of[0] == 0
        dist, layer, far = {0: 0}, {0}, 0
        while layer:
            far += 1
            layer = {c for r in layer for c in rows[r]} - dist.keys()
            dist.update(dict.fromkeys(layer, far))
        assert sorted(dist) == list(range(len(rows)))
        assert all(dist[c] <= dist[c + 1] for c in range(len(rows) - 1))


class TestVerifyRs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_identity_holds(self, n):
        report = verify_rs(n)
        assert report.rs_is_zero
        assert report.kernel_matches_counts
        assert report.passed

    def test_matrix_route_agrees_with_operator_route(self):
        # the same residual through the sparse columns, as a second path
        n = 4
        h = build_h_matrix(n)
        counts = refined_counts(n, "+")

        def through_cols(x):
            y = [-2 * n * v for v in x]
            for col, v in zip(h.cols, x):
                for i in col:
                    y[i] += v
            return y

        def through_operator(x):
            vec = LpVector(n, dict(zip(h.basis, x)))
            residual = apply_hamiltonian(vec) - 2 * n * vec
            return [residual.coeff(p) for p in h.basis]

        x = [counts.coeff(p) for p in h.basis]
        assert through_cols(x) == through_operator(x) == [0] * len(x)
        # and off the kernel, where the residual is not zero
        z = list(range(1, len(x) + 1))
        assert through_cols(z) == through_operator(z) != [0] * len(z)

    @pytest.mark.slow
    def test_n9(self):
        assert verify_rs(9).passed
        assert kernel_dimension_certificate(9)


def _patched_table(monkeypatch, edit):
    """Make verify_rs read the n=4 count vector with ``edit`` applied to
    a copy of its entries."""
    counts = dict(refined_counts(4, "+").entries)
    edit(counts)
    monkeypatch.setattr(fplcore, "refined_counts", lambda n, sign: LpVector(4, counts))


def _bump(counts):
    counts[LinkPattern.from_word("()" * 4)] += 1


class TestVerifyRsRejects:
    def test_untouched_table_passes(self, monkeypatch):
        # the patch itself changes nothing
        _patched_table(monkeypatch, lambda counts: None)
        assert verify_rs(4).passed

    def test_bumped_entry(self, monkeypatch):
        _patched_table(monkeypatch, _bump)
        report = verify_rs(4)
        assert not report.rs_is_zero
        assert not report.kernel_matches_counts
        assert not report.passed
        assert report.first_violation.startswith("residual ")
        assert " at " in report.first_violation

    def test_doubled_table(self, monkeypatch):
        # 2x counts is in the kernel, but not the coprime vector
        _patched_table(monkeypatch, lambda counts: counts.update({p: 2 * v for p, v in counts.items()}))
        report = verify_rs(4)
        assert report.rs_is_zero
        assert not report.kernel_matches_counts
        assert not report.passed
        assert report.first_violation == "kernel differs from counts"

    def test_missing_entry(self, monkeypatch):
        _patched_table(monkeypatch, lambda counts: counts.pop(LinkPattern.from_word("(((())))")))
        report = verify_rs(4)
        assert not report.kernel_matches_counts
        assert not report.passed

    def test_uncertified_kernel(self, monkeypatch):
        # true counts, but an H whose every pattern only maps to itself:
        # the kernel is no line, so the counts are not "the" kernel
        def diagonal(n):
            basis = all_patterns(n)
            return HamiltonianMatrix(n, basis, tuple((j,) * 2 * n for j in range(len(basis))))

        monkeypatch.setattr(groundstate, "build_h_matrix", diagonal)
        report = verify_rs(4)
        assert report.rs_is_zero
        assert not report.kernel_matches_counts
        assert report.first_violation == "kernel differs from counts"

    def test_cli_exit_code(self, monkeypatch, capsys):
        _patched_table(monkeypatch, _bump)
        assert main(["verify", "rs", "--n-max", "4"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] rs: (H-2n) kills the count vector, n=4 (residual " in out
        assert out.splitlines()[-1].startswith("FAILED: ")


def _toy(cols):
    """A hand-built 2x2 H at n=2, whose columns must hold 4 entries."""
    return HamiltonianMatrix(2, all_patterns(2), tuple(map(tuple, cols)))


class TestKernelDimension:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exact_dimension_small(self, n):
        # stationary_vector raises unless the kernel is a line
        stationary_vector(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_certificate(self, n):
        assert kernel_dimension_certificate(n)

    def test_certificate_n8(self):
        assert kernel_dimension_certificate(8)

    @pytest.mark.parametrize(
        "cols, certified",
        [
            ([[0, 1, 0, 1], [0, 1, 0, 1]], True),  # the true H at n=2
            ([[0, 0, 0, 0], [1, 1, 1, 1]], False),  # two blocks, no arc between them
            ([[0, 0, 1, 1], [1, 1, 1, 1]], False),  # 0 -> 1 only: the backward search fails
            ([[0, 0, 0, 0], [0, 1, 1, 1]], False),  # 1 -> 0 only: the forward search fails
            ([[0, 1, 0, 1], [0, 1, 0]], False),  # a column sums to 3, not 4
            ([[0, 1, 0, 1], [0, 1, 0, 1, 1]], False),  # a column sums to 5
            ([[0, 1, 0, 1], [0, 1, 0, 2]], False),  # row 2 is outside the 2x2 matrix
        ],
        ids=["irreducible", "two-blocks", "one-way-out", "one-way-in", "short", "long", "out-of-range"],
    )
    def test_hand_built_matrix(self, monkeypatch, cols, certified):
        monkeypatch.setattr(groundstate, "build_h_matrix", lambda n: _toy(cols))
        assert kernel_dimension_certificate(2) is certified

    def test_reducible_h_has_no_stationary_vector(self, monkeypatch):
        # the two blocks form one rotation class, so the quotient is the
        # 1x1 zero matrix and (1, 1) has zero residual on the toy H: only
        # the irreducibility check rejects it
        cols = [[0, 0, 0, 0], [1, 1, 1, 1]]
        monkeypatch.setattr(groundstate, "build_h_matrix", lambda n: _toy(cols))
        assert groundstate._residual(_toy(cols), [1, 1]) == [0, 0]
        with pytest.raises(KernelDimensionError):
            stationary_vector(2)


class TestVerifyRsOneH:
    def test_each_pattern_capped_once(self, monkeypatch):
        # one H serves the residual and the certificate, so every
        # pattern meets each of the 2n generators exactly once
        from fplrs import linkpat

        calls = []
        real = linkpat.tl_e

        def counted(p, j):
            calls.append(j)
            return real(p, j)

        monkeypatch.setattr(linkpat, "tl_e", counted)
        monkeypatch.setattr(groundstate, "tl_e", counted)
        assert verify_rs(5).passed
        assert len(calls) == math.comb(10, 5) // 6 * 10 == 420

    @pytest.mark.parametrize(
        "n, cols",
        [
            (2, [[0, 1, 0, 1], [0, 1, 0]]),  # a short column
            (2, [[0, 1, 0, 1], [0, 1, 0, 2]]),  # row 2 is outside the basis
            (3, [[0, 1, 0, 1], [0, 1, 0, 1]]),  # the n=2 matrix asked for n=3
        ],
        ids=["short", "out-of-range", "wrong-size"],
    )
    def test_malformed_h_fails_the_report(self, monkeypatch, n, cols):
        monkeypatch.setattr(groundstate, "build_h_matrix", lambda n: _toy(cols))
        report = verify_rs(n)
        assert not report.rs_is_zero
        assert not report.kernel_matches_counts
        assert not report.passed
        assert report.first_violation == "H has a malformed column"
