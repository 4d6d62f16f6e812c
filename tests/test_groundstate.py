"""Hamiltonian matrix, exact kernels, and the stationarity identity."""

from fractions import Fraction

import pytest

from fplrs.fplcore import asm_count_formula, refined_counts
from fplrs.groundstate import (
    _rational,
    build_h_matrix,
    kernel_dimension_certificate,
    stationary_vector,
    verify_rs,
)
from fplrs.linkpat import LinkPattern, LpVector, apply_rotation, catalan


class TestMatrix:
    def test_one_arc(self):
        h = build_h_matrix(1)
        assert h.rows == ((2,),)

    def test_two_arcs(self):
        # both generators fix each pattern once and map it across once,
        # worked out directly from the capping rule
        h = build_h_matrix(2)
        assert [p.word for p in h.basis] == ["(())", "()()"]
        assert h.rows == ((2, 2), (2, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_column_sums_and_entry_bounds(self, n):
        h = build_h_matrix(n)
        assert set(h.column_sums()) == {2 * n}
        assert max(max(row) for row in h.rows) <= 2 * n

    @pytest.mark.slow
    def test_column_sums_n7(self):
        h = build_h_matrix(7)
        assert set(h.column_sums()) == {14}


class TestStationaryVector:
    def test_small_values(self):
        assert {p.word: c for p, c in stationary_vector(1).entries.items()} == {
            "()": Fraction(1)
        }
        assert {p.word: c for p, c in stationary_vector(2).entries.items()} == {
            "()()": Fraction(1),
            "(())": Fraction(1),
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
        import math

        values = [int(c) for c in stationary_vector(n).entries.values()]
        assert all(v > 0 for v in values)
        assert math.gcd(*values) == 1
        assert len(values) == catalan(n)

    @pytest.mark.slow
    def test_n8(self):
        # the smallest size where one prime's modulus is too small to
        # reconstruct the vector, so the only run through the CRT lift
        vec = stationary_vector(8)
        assert len(vec.entries) == catalan(8) == 1430
        assert vec.total() == asm_count_formula(8) == 10850216
        assert vec.coeff(LinkPattern.serial_arcs(8)) == asm_count_formula(7)
        assert vec.coeff(LinkPattern.from_word("(" * 8 + ")" * 8)) == 1
        assert apply_rotation(vec, 1) == vec
        # the Razumov-Stroganov identity at n=8, against the refined table
        assert vec == refined_counts(8).as_vector()


class TestRationalReconstruction:
    @pytest.mark.parametrize(
        "f", [Fraction(0), Fraction(1), Fraction(218348), Fraction(3, 7), Fraction(-5, 12)]
    )
    def test_round_trip(self, f):
        m = 2_147_483_629 * 2_147_483_587
        u = f.numerator * pow(f.denominator, -1, m) % m
        assert _rational(u, m) == f

    def test_past_the_bound(self):
        # mod 101 the bound is 7, and no r/s with |r|, s <= 7 is 8
        assert _rational(8, 101) is None


class TestVerifyRs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_identity_holds(self, n):
        report = verify_rs(n)
        assert report.rs_is_zero
        assert report.kernel_matches_counts
        assert report.passed

    def test_matrix_route_agrees_with_operator_route(self):
        # the same residual through the explicit matrix, as a second path
        n = 4
        h = build_h_matrix(n)
        counts = refined_counts(n, "+")
        x = [counts.value(p) for p in h.basis]
        for i in range(len(h.basis)):
            acc = sum(h.rows[i][j] * x[j] for j in range(len(x)))
            assert acc == 2 * n * x[i]


class TestKernelDimension:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exact_dimension_small(self, n):
        # stationary_vector raises unless the kernel is a line
        stationary_vector(n)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_certificate(self, n):
        assert kernel_dimension_certificate(n)

    @pytest.mark.slow
    def test_certificate_n8(self):
        assert kernel_dimension_certificate(8)
