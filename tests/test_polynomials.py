"""Exact polynomials: the shifted Eulerian family by four finite routes,
Stirling numbers, Worpitzky summations, and the joint polynomials.

Expected values either come straight from the printed coefficient tables or
are frozen from brute-force oracles written in this file.
"""
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import derangement_excedances_per_word, fix_exc_counts_per_word

from eulerian import permutations as perms
from eulerian import polynomials
from eulerian.permutations import enumerate_class
from eulerian.polynomials import (
    Identity,
    Poly,
    T,
    abar_polynomial,
    as_int,
    check_divisibility_and_mass,
    check_mixed_specializations,
    check_multiset_transport,
    check_reciprocal_descent_interpretation,
    check_symmetry,
    comb0,
    eulerian_at_minus_one,
    eulerian_by_enumeration,
    eulerian_coefficient_explicit,
    eulerian_explicit,
    eulerian_polynomial,
    eulerian_shift_recurrence,
    eulerian_triangle_recurrence,
    frobenius_identity,
    injection_polynomial,
    newcomb_specialization,
    q_identity_integer_shift,
    q_identity_reciprocal,
    q_polynomial,
    reciprocal_poly,
    riordan_stirling_identity,
    roselle_at_minus_one,
    roselle_by_rises,
    roselle_polynomial,
    stirling2,
    stirling2_by_quasi_permutations,
    worpitzky,
    worpitzky_generalized,
)

# reduced coefficient tables (the polynomial coefficients divided by r!),
# shifts 1..5, sizes r..8
REDUCED_TABLE = {
    1: {
        1: (1,),
        2: (1, 1),
        3: (1, 4, 1),
        4: (1, 11, 11, 1),
        5: (1, 26, 66, 26, 1),
        6: (1, 57, 302, 302, 57, 1),
        7: (1, 120, 1191, 2416, 1191, 120, 1),
        8: (1, 247, 4293, 15619, 15619, 4293, 247, 1),
    },
    2: {
        2: (1,),
        3: (2, 1),
        4: (4, 7, 1),
        5: (8, 33, 18, 1),
        6: (16, 131, 171, 41, 1),
        7: (32, 473, 1208, 718, 88, 1),
        8: (64, 1611, 7197, 8422, 2682, 183, 1),
    },
    3: {
        3: (1,),
        4: (3, 1),
        5: (9, 10, 1),
        6: (27, 67, 25, 1),
        7: (81, 376, 326, 56, 1),
        8: (243, 1909, 3134, 1314, 119, 1),
    },
    4: {
        4: (1,),
        5: (4, 1),
        6: (16, 13, 1),
        7: (64, 113, 32, 1),
        8: (256, 821, 531, 71, 1),
    },
    5: {
        5: (1,),
        6: (5, 1),
        7: (25, 16, 1),
        8: (125, 171, 39, 1),
    },
}


def table_poly(n, r):
    return Poly(tuple(factorial(r) * c for c in REDUCED_TABLE[r][n]))


def partitions_into_blocks(p, q):
    """Brute-force oracle: number of set partitions of {1..p} into q blocks."""
    def rec(element, blocks):
        if element > p:
            return 1 if len(blocks) == q else 0
        if len(blocks) > q:
            return 0
        total = 0
        for i in range(len(blocks)):
            blocks[i].append(element)
            total += rec(element + 1, blocks)
            blocks[i].pop()
        blocks.append([element])
        total += rec(element + 1, blocks)
        blocks.pop()
        return total

    return rec(1, [])


def count_monotone_maps(m, n, distinguished):
    """Brute-force oracle: weakly increasing maps {1..n} -> {1..m} that are
    strict except possibly at the distinguished adjacent indices; the count
    equals binomial(m + s, n) for s distinguished indices."""
    dist = set(distinguished)
    if not dist <= set(range(1, n)):
        raise ValueError("distinguished indices must lie in 1..n-1")
    s = len(dist)
    if not 0 <= s < n <= m + s:
        raise ValueError("need 0 <= s < n <= m + s")
    return sum(
        all(phi[i - 1] != phi[i] or i in dist for i in range(1, n))
        for phi in itertools.combinations_with_replacement(range(1, m + 1), n)
    )


# Six more vector statistics whose shifted generating polynomial is the one
# eulerian_by_enumeration counts (lowered excedances): for each, the class
# swept, its size, the vector and the operator, given n and r.
STATISTICS = {
    # excedance vector cropped r times
    "delta_prime_excedance": lambda n, r: (perms.ALL, n, perms.excedance_vector, lambda v: v[r:]),
    # rise vector lowered r times
    "delta_rise": lambda n, r: (perms.ALL, n, perms.rise_vector, lambda v: perms.delta_power(v, r)),
    # descent-plus-certificate vector lowered r times
    "delta_descent_certificate": lambda n, r: (
        perms.ALL, n, perms.descent_plus_certificate, lambda v: perms.delta_power(v, r)
    ),
    # descent vector lowered once and cropped r - 1 times (r >= 1)
    "descent": lambda n, r: (perms.ALL, n, perms.descent_vector, lambda v: perms.delta(v)[r - 1 :]),
    # excedance vector lowered r + 1 times over the circular words of size n + 1
    "circular": lambda n, r: (perms.CIRCULAR, n + 1, perms.excedance_vector, lambda v: perms.delta_power(v, r + 1)),
    # descent vector lowered once and cropped r times over the size-(n + 1)
    # words that start with their largest value
    "first_letter_descent": lambda n, r: (perms.FIRST_IS_N, n + 1, perms.descent_vector, lambda v: perms.delta(v)[r:]),
}


def statistic_polynomial(n, r, stat):
    """Generating polynomial of the positive entries of one of STATISTICS."""
    if r >= n:
        return Poly((factorial(n),))
    tag, size, vec, op = STATISTICS[stat](n, r)
    counts = [0] * (n + 1)
    for p in enumerate_class(size, tag):
        counts[perms.positive_count(op(vec(p)))] += 1
    return Poly(counts)


class TestPoly:
    def test_normalization(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert not Poly((0, 0))
        assert Poly(()) == 0

    def test_arithmetic(self):
        p = Poly((1, 2))
        q = Poly((3, 0, 1))
        assert (p + q).coeffs == (4, 2, 1)
        assert (p * q).coeffs == (3, 6, 1, 2)
        assert (p - p) == 0
        assert (2 * p).coeffs == (2, 4)
        assert (p**3).coeffs == (1, 6, 12, 8)

    def test_eval_and_compose(self):
        p = Poly((1, 11, 11, 1))
        assert p.eval(1) == 24
        assert p.eval(-1) == 0
        shifted = p.eval(Poly((1, 1)))
        assert shifted.coeffs == (24, 36, 14, 1)

    @given(
        st.lists(st.integers(-(2**40), 2**40), max_size=13),
        st.fractions(min_value=-20, max_value=20, max_denominator=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_eval_at_a_rational_matches_fraction_horner(self, coeffs, x):
        p = Poly(coeffs)
        want = 0
        for c in reversed(p.coeffs):
            want = want * x + c
        got = p.eval(x)
        assert got == want and type(got) is type(want)

    def test_eval_at_a_rational_keeps_the_result_types(self):
        zero = Poly().eval(Fraction(-2, 3))
        assert zero == 0 and type(zero) is int
        const = Poly((5,)).eval(Fraction(-2, 3))
        assert const == 5 and type(const) is Fraction
        at_zero = Poly((-4, 0, 7)).eval(Fraction(0))
        assert at_zero == -4 and type(at_zero) is Fraction
        assert Poly((1, 11, 11, 1)).eval(Fraction(-1, 2)) == Fraction(-15, 8)
        # Fraction and nested coefficients take the generic Horner loop
        assert Poly((Fraction(1, 2), 1)).eval(Fraction(1, 3)) == Fraction(5, 6)
        assert Poly((Poly((1, 1)), 1)).eval(Fraction(1, 2)) == Poly((Fraction(3, 2), 1))

    @pytest.mark.parametrize("k", [2, 3, 7, 64])
    def test_balanced_digits_at_the_edges(self, k):
        half = 1 << (k - 1)
        for coeffs in ([-half], [half - 1], [0, -half, half - 1, 0, -half], [half - 1, -half, 0, half - 1]):
            p = Poly(coeffs)
            assert Poly.from_balanced_digits(p.eval(1 << k), k) == p
        assert Poly.from_balanced_digits(0, k) == Poly()

    def test_balanced_digits_need_two_bits(self):
        with pytest.raises(ValueError, match="k >= 2"):
            Poly.from_balanced_digits(1, 1)

    @given(st.integers(2, 90), st.data())
    @settings(max_examples=100, deadline=None)
    def test_balanced_digits_invert_evaluation_at_a_power_of_two(self, k, data):
        half = 1 << (k - 1)
        p = Poly(data.draw(st.lists(st.integers(-half, half - 1), max_size=15)))
        assert Poly.from_balanced_digits(p.eval(1 << k), k) == p

    def test_shift_down(self):
        assert Poly((0, 0, 3, 1)).shift_down(2) == Poly((3, 1))
        with pytest.raises(ArithmeticError):
            Poly((1, 2)).shift_down()

    def test_reciprocal_poly(self):
        assert reciprocal_poly(Poly((4, 2)), 1) == Poly((2, 4))
        assert reciprocal_poly(Poly((1, 4, 1)), 2) == Poly((1, 4, 1))

    def test_nested_equality(self):
        inner = Poly((2,))
        assert Poly((inner,)) == Poly((2,))
        assert Poly((inner, T)) == Poly((2, T))

    def test_comb0(self):
        assert comb0(4, 2) == comb(4, 2)
        assert comb0(4, -1) == 0
        assert comb0(2, 3) == 0


class TestEulerianRoutes:
    @pytest.mark.parametrize("r", sorted(REDUCED_TABLE))
    def test_triangle_recurrence_matches_tables(self, r):
        for n, _ in REDUCED_TABLE[r].items():
            assert eulerian_triangle_recurrence(n, r) == table_poly(n, r)

    def test_enumeration_examples(self):
        assert eulerian_by_enumeration(4, 1) == table_poly(4, 1)
        assert eulerian_by_enumeration(5, 2) == table_poly(5, 2)
        assert eulerian_by_enumeration(0, 1) == Poly((1,))

    @pytest.mark.parametrize("stat", ["delta_excedance", *STATISTICS])
    def test_all_statistics_agree(self, stat):
        for n in range(1, 6):
            for r in range(1 if stat == "descent" else 0, n + 1):
                got = eulerian_by_enumeration(n, r) if stat == "delta_excedance" else statistic_polynomial(n, r, stat)
                assert got == eulerian_triangle_recurrence(n, r), (stat, n, r)

    def test_shift_recurrence_examples(self):
        assert eulerian_shift_recurrence(3, 0) == T * eulerian_polynomial(3)
        assert eulerian_shift_recurrence(5, 5) == Poly((120,))
        assert eulerian_shift_recurrence(6, 3) == table_poly(6, 3)

    def test_explicit_coefficient_examples(self):
        # size 7 = (n-1) + r with r = 2 forces n = 6
        assert eulerian_coefficient_explicit(6, 2, 3) == 2 * 718
        for n in range(2, 7):
            for r in range(1, 4):
                assert eulerian_coefficient_explicit(n, r, 0) == factorial(r) * r ** (n - 1)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_large_triangle_matches_explicit_coefficient(self, data):
        # the shifted polynomial of size m = (n - 1) + r has degree m - r
        m = data.draw(st.integers(2, 300))
        r = data.draw(st.integers(1, m - 1))
        k = data.draw(st.integers(0, m - r))
        assert eulerian_triangle_recurrence(m, r).coefficient(k) == eulerian_coefficient_explicit(m - r + 1, r, k)

    def test_explicit_assembly_matches_triangle(self):
        for m in range(1, 8):
            for r in range(1, m + 1):
                assert eulerian_explicit(m, r) == eulerian_triangle_recurrence(m, r)

    def test_convention_for_large_shift(self):
        assert eulerian_triangle_recurrence(3, 7) == Poly((6,))
        assert eulerian_by_enumeration(3, 7) == Poly((6,))

    def test_cross_method_full(self):
        for n in range(1, 8):
            for r in range(1, n + 1):
                base = eulerian_triangle_recurrence(n, r)
                assert eulerian_by_enumeration(n, r) == base
                assert eulerian_shift_recurrence(n, r) == base
                assert eulerian_explicit(n, r) == base


class TestStirling:
    def test_against_partition_oracle(self):
        for p in range(1, 7):
            for q in range(1, p + 1):
                assert stirling2(p, q) == partitions_into_blocks(p, q)

    def test_quasi_permutation_mode(self):
        for p in range(1, 7):
            for q in range(1, p + 1):
                assert stirling2_by_quasi_permutations(p, q) == stirling2(p, q)

    def test_edges(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 5) == 1
        assert stirling2(5, 1) == 1
        with pytest.raises(ValueError):
            stirling2(3, 0)

    def test_frobenius(self):
        for n in range(1, 9):
            assert frobenius_identity(n).ok
        assert eulerian_polynomial(8).coeffs[:4] == (1, 247, 4293, 15619)

    def test_riordan_stirling(self):
        for n in range(1, 8):
            for r in range(1, n + 1):
                assert riordan_stirling_identity(n, r).ok


class TestWorpitzky:
    def test_base_identity(self):
        for m in range(1, 9):
            for n in range(1, 9):
                assert worpitzky(m, n).ok

    @given(st.integers(1, 10**6), st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_large_m_and_n(self, m, n):
        assert worpitzky(m, n).ok

    def test_m_one_reduces_to_top_coefficient(self):
        for n in range(1, 8):
            ident = worpitzky(1, n)
            assert ident.ok and ident.lhs == 1

    def test_generalized(self):
        for n in range(1, 7):
            for m in range(1, 7):
                for r in range(1, min(m, n) + 1):
                    assert worpitzky_generalized(m, n, r).ok
        ident = worpitzky_generalized(4, 4, 2)
        assert ident.rhs == 192

    def test_monotone_map_counts(self):
        # the count only depends on how many indices are distinguished
        assert count_monotone_maps(3, 3, ()) == comb(3, 3)
        assert count_monotone_maps(3, 3, (1,)) == comb(4, 3)
        assert count_monotone_maps(4, 3, (2, 1)) == comb(6, 3)
        for m, n in ((3, 3), (4, 2), (5, 4)):
            for s in range(n):
                distinguished = tuple(range(s, 0, -1))
                assert count_monotone_maps(m, n, distinguished) == comb(m + s, n)


class TestInterpretations:
    def test_newcomb_specialization(self):
        assert newcomb_specialization(4, 2).ok
        assert newcomb_specialization(5, 3).ok
        for n in range(2, 7):
            for r in range(2, n + 1):
                assert newcomb_specialization(n, r).ok

    def test_newcomb_reversed_table_row(self):
        ident = newcomb_specialization(4, 2)
        assert ident.lhs == Poly((2, 14, 8))

    def test_roselle(self):
        assert roselle_polynomial(1) == 0
        assert roselle_polynomial(2) == Poly((0, 1))
        for n in range(1, 9):
            a = roselle_polynomial(n)
            derangements = sum(
                (-1) ** k * comb(n, k) * factorial(n - k) for k in range(n + 1)
            )
            assert a.eval(1) == derangements
            if n <= 7:
                assert a == roselle_by_rises(n)

    def test_position_sum_routes_match_per_word_loops(self):
        for n in range(10):
            assert polynomials._fix_exc_counts(n) == fix_exc_counts_per_word(n), n
            assert polynomials._roselle_counts(n) == derangement_excedances_per_word(n), n

    def test_abar_small(self):
        assert abar_polynomial(1) == Poly((0, 1))
        assert abar_polynomial(2) == Poly((T, Poly(), Poly((1,))))

    def test_abar_specializations(self):
        for n in range(7):
            assert check_mixed_specializations(n).ok
        spec = abar_polynomial(5).eval(1)
        assert spec == Poly((1, 26, 66, 26, 1))

    def test_q_polynomial_base(self):
        assert q_polynomial(1) == Poly((Poly(), Poly((1,))))

    def test_q_identities(self):
        for n in range(1, 6):
            for r in (1, 2, 3):
                assert q_identity_integer_shift(n, r).ok
            assert q_identity_reciprocal(n).ok

    def test_q_coefficients_nonnegative_integers(self):
        for n in range(1, 6):
            for row in q_polynomial(n).coeffs:
                entries = row.coeffs if isinstance(row, Poly) else (row,)
                assert all(isinstance(c, int) and c >= 0 for c in entries)

    def test_q_shift_spot_value(self):
        q3 = q_polynomial(3)
        val = q3.eval(2)
        assert factorial(1) * val == eulerian_triangle_recurrence(4, 2)

    def test_injection_polynomials(self):
        assert injection_polynomial(4, 2) == Poly((4, 7, 1))
        assert injection_polynomial(5, 3) == Poly((9, 10, 1))
        assert injection_polynomial(4, 4) == Poly((1,))
        for n in range(1, 7):
            for r in range(n + 1):
                assert factorial(r) * injection_polynomial(n, r) == eulerian_triangle_recurrence(n, r)

    def test_evaluations_at_minus_one(self):
        assert eulerian_at_minus_one(4) == 0
        assert eulerian_at_minus_one(7) == -272
        assert roselle_at_minus_one(8) == 1385
        assert roselle_at_minus_one(3) == 0


class TestStructuralChecks:
    def test_symmetry(self):
        for n in range(1, 9):
            assert check_symmetry(n).ok

    def test_reciprocal_descent(self):
        for n in range(1, 7):
            for r in range(1, min(n, 3) + 1):
                assert check_reciprocal_descent_interpretation(n, r).ok

    def test_divisibility_and_mass(self):
        assert check_divisibility_and_mass(8).ok

    def test_multiset_transport(self):
        for n in range(1, 6):
            for a in range(4):
                for b in range(4 - a):
                    if a + b <= n:
                        assert check_multiset_transport(n, a, b).ok

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_mass_is_factorial(self, n, r):
        assert eulerian_triangle_recurrence(n, r).eval(1) == factorial(n)

    def test_identity_witness_carries_both_sides(self):
        ident = frobenius_identity(5)
        assert isinstance(ident, Identity)
        assert ident.lhs == ident.rhs
        assert as_int(ident.lhs.eval(1)) == 120

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            newcomb_specialization(4, 1)
        with pytest.raises(ValueError):
            injection_polynomial(3, 4)
        with pytest.raises(ValueError):
            worpitzky_generalized(2, 4, 3)
        with pytest.raises(ValueError):
            eulerian_by_enumeration(4, -1)
        with pytest.raises(ValueError):
            count_monotone_maps(3, 3, (7,))
        with pytest.raises(ValueError):
            roselle_by_rises(-1)
        with pytest.raises(ValueError):
            stirling2_by_quasi_permutations(3, 0)


def test_row_caches_need_no_recursion():
    # rows are built in a loop, so sizes far above the stack limit work; a
    # fresh process starts with cold caches
    code = """
import sys
from math import comb, factorial
sys.setrecursionlimit(150)
from eulerian.polynomials import _TRIANGLE_ROWS, eulerian_triangle_recurrence, stirling2
assert sum(eulerian_triangle_recurrence(300, 1).coeffs) == factorial(300)
assert sorted(_TRIANGLE_ROWS) == [(299, 1), (300, 1)], sorted(_TRIANGLE_ROWS)
explicit = sum((-1) ** j * comb(7, j) * (7 - j) ** 300 for j in range(8)) // factorial(7)
assert stirling2(300, 7) == explicit
"""
    env = dict(os.environ, PYTHONPATH=str(Path(polynomials.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
