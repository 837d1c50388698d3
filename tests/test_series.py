"""Truncated series arithmetic, matrices, closed forms, and the series-level
identity battery at unit-test scale (the acceptance module pushes the same
checks to their full stated orders)."""
import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian.endofunctions import canonical_factorization, subdomains
from eulerian.polynomials import Poly, T, abar_polynomial, eulerian_polynomial
from eulerian.series import (
    SquareMatrix,
    TruncSeries,
    biexcedent_weight,
    check_bernoulli_ode,
    check_convolution_recurrence,
    check_cycle_weighted_power,
    check_fixed_point_split_relations,
    check_mixed_egf_closed_form,
    check_mixed_egf_exponential_form,
    check_mixed_permanent,
    check_permanent_determinant,
    check_secant_is_exp_integral_tangent,
    check_shifted_egf_powers,
    check_staircase_examples,
    check_tree_equation,
    classical_egf_closed_form,
    constant_series,
    cycle_indicator_weight,
    determinant,
    eulerian_from_egf,
    exp_of_linear,
    exponential_formula_bundle,
    fixed_point_split_weight,
    matrix_entry_weight,
    mixed_egf_closed_form,
    permanent,
    roselle_egf_closed_form,
    series_from_polynomials,
    series_identity,
    tangent_secant_series,
    weighted_permutation_sums,
)
from eulerian.series import _MIXED, _at, _closed_form, _cycle_table, _decode, _unit_values
from references import REFERENCE_DENOMINATORS, ordinary, ref_closed_form, ref_over_one_minus_t, ref_reciprocal

rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
)
small_series = st.lists(rationals, min_size=7, max_size=7).map(
    lambda cs: TruncSeries(6, cs)
)


class TestArithmetic:
    def test_exp_of_zero(self):
        zero = TruncSeries(5)
        assert zero.exp() == constant_series(Fraction(1), 5)

    def test_geometric_reciprocal(self):
        geo = TruncSeries(8, (1, -1)).reciprocal()
        assert all(geo.coefficient(k) == 1 for k in range(9))

    def test_derivative_of_integral(self):
        s = TruncSeries(5, (3, 1, 4, 1, 5, 9))
        assert s.integral().derivative() == s

    def test_derivative_at_order_zero_is_unknown(self):
        with pytest.raises(ValueError, match="order 0"):
            TruncSeries(0, (1, 5)).derivative()
        assert check_bernoulli_ode(0).ok

    def test_exp_log_roundtrip(self):
        s = TruncSeries(7, (0, 1, Fraction(1, 2), 0, 2))
        assert s.exp().log() == s
        u = TruncSeries(7, (1, 2, Fraction(3, 5)))
        assert series_identity(u.log().exp(), u).ok

    def test_invariant_errors_name_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            TruncSeries(3, (1, 1)).exp()
        with pytest.raises(ValueError, match="constant term"):
            TruncSeries(3, (2, 1)).reciprocal()
        with pytest.raises(ValueError, match="constant term"):
            TruncSeries(3, (0, 1)).log()

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            TruncSeries(3) + TruncSeries(4)

    @given(small_series, small_series)
    @settings(max_examples=50, deadline=None)
    def test_ring_laws(self, a, b):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) - b == a

    @given(small_series)
    @settings(max_examples=50, deadline=None)
    def test_substitution_commutes_with_multiplication(self, s):
        # lift scalars to polynomials in t, multiply, then evaluate at -1:
        # same as evaluating first (the substitution is a ring homomorphism)
        lifted = s.map_coefficients(lambda c: Poly((c,)) + 0 * T)
        tpoly = constant_series(T, 6)
        combined = (lifted * tpoly + lifted).substitute(-1)
        direct = s * Fraction(-1) + s
        assert series_identity(combined, direct).ok

    @given(small_series)
    @settings(max_examples=30, deadline=None)
    def test_substitution_commutes_with_exp(self, s):
        shifted = TruncSeries(6, (0,) + s.coeffs[1:])
        lifted = shifted.map_coefficients(lambda c: Poly((0, c)))  # c * t'
        assert series_identity(lifted.exp().substitute(-1), (shifted * Fraction(-1)).exp()).ok


# -- the ordinary-coefficient reference ---------------------------------------
#
# Lists of ordinary coefficients [u^n], with the divisions that representation
# needs: an independent route that the EGF-value kernel is compared with
# through `coefficient(k)`. The reciprocal and the closed forms' references
# live in references.py, which the differential table shares.


def ref_mul(a, b):
    return [sum((a[i] * b[m - i] for i in range(m + 1)), 0) for m in range(len(a))]


def ref_exp(a):
    out = [Fraction(1)]
    for m in range(1, len(a)):
        out.append(sum((k * a[k] * out[m - k] for k in range(1, m + 1)), 0) * Fraction(1, m))
    return out


def ref_log(a):
    out = [0]
    for m in range(1, len(a)):
        acc = sum((k * out[k] * a[m - k] for k in range(1, m)), 0)
        out.append(a[m] - acc * Fraction(1, m))
    return out


def ref_derivative(a):
    return [k * a[k] for k in range(1, len(a))]


def ref_integral(a):
    return [0] + [c * Fraction(1, k + 1) for k, c in enumerate(a)]


def ref_shift_up(a):
    return [0] + a[:-1]


COEFFICIENT_KINDS = {
    "int": st.integers(-4, 4),
    "Fraction": rationals,
    "Poly": st.lists(st.integers(-3, 3), max_size=3).map(Poly),
}


class TestAgainstOrdinaryReference:
    @pytest.mark.parametrize("kind", COEFFICIENT_KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernel(self, kind, data):
        order = data.draw(st.integers(0, 8))
        values = st.lists(COEFFICIENT_KINDS[kind], min_size=order + 1, max_size=order + 1)
        a = TruncSeries(order, data.draw(values))
        b = TruncSeries(order, data.draw(values))
        oa = ordinary(a)
        assert ordinary(a * b) == ref_mul(oa, ordinary(b))
        assert ordinary(a.shift_up()) == ref_shift_up(oa)
        assert ordinary(a.integral()) == ref_integral(oa)
        if order:
            assert ordinary(a.derivative()) == ref_derivative(oa)
        unit = TruncSeries(order, (1,) + a.coeffs[1:])
        assert ordinary(unit.reciprocal()) == ref_reciprocal(ordinary(unit))
        assert ordinary(unit.log()) == ref_log(ordinary(unit))
        nilpotent = TruncSeries(order, (0,) + a.coeffs[1:])
        assert ordinary(nilpotent.exp()) == ref_exp(ordinary(nilpotent))

    @pytest.mark.parametrize("form", REFERENCE_DENOMINATORS, ids=lambda f: f.__name__)
    def test_closed_forms(self, form):
        for order in range(9):
            assert ordinary(form(order)) == ref_closed_form(REFERENCE_DENOMINATORS[form](order)), order


def poly_reciprocal(a):
    """The reciprocal's EGF values by the binomial recurrence, in the
    generic Poly arithmetic."""
    out = [1]
    for n in range(1, len(a)):
        out.append(-sum((comb(n, i) * a[i] * out[n - i] for i in range(1, n + 1)), Poly()))
    return out


WIDE = st.integers(-(2**80), 2**80)
# ints and integer polynomials of degree up to 12, zeros included
INTEGER_VALUES = st.one_of(st.just(0), st.just(Poly()), WIDE, st.lists(WIDE, max_size=13).map(Poly))


class TestIntegerReciprocal:
    """The reciprocal of a series of integer polynomials in one variable runs
    on ints at t = 2**k; it must agree with the Poly recurrence and with the
    ordinary-coefficient reference."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_poly_recurrence(self, data):
        order = data.draw(st.integers(0, 14))
        head = data.draw(st.sampled_from((1, Poly((1,)))))
        s = TruncSeries(order, [head] + data.draw(st.lists(INTEGER_VALUES, min_size=order, max_size=order)))
        assert list(s.reciprocal().coeffs) == poly_reciprocal(s.coeffs)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_the_ordinary_reference(self, data):
        order = data.draw(st.integers(0, 8))
        small = st.lists(st.integers(-(2**80), 2**80), max_size=5).map(Poly)
        s = TruncSeries(order, [1] + data.draw(st.lists(st.one_of(small, WIDE), min_size=order, max_size=order)))
        assert ordinary(s.reciprocal()) == ref_reciprocal(ordinary(s))

    def test_only_univariate_integer_polynomials_take_the_integer_route(self):
        assert TruncSeries(3, (1, T, 2, Poly((0, 5))))._digit_width() > 0
        assert TruncSeries(3, (1, 2, 3, 4))._digit_width() == 0  # already on ints
        assert TruncSeries(2, (1, Fraction(1, 2), T))._digit_width() == 0
        assert TruncSeries(2, (1, Poly((Fraction(1, 2),)), T))._digit_width() == 0
        assert TruncSeries(2, (1, Poly((T, -1)), 0))._digit_width() == 0

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_generic_route_matches_the_poly_recurrence(self, data):
        order = data.draw(st.integers(0, 6))
        nested = st.lists(st.lists(st.integers(-3, 3), max_size=3).map(Poly), max_size=3).map(Poly)
        fractional = st.lists(rationals, max_size=3).map(Poly)
        values = data.draw(st.lists(st.one_of(nested, fractional), min_size=order, max_size=order))
        s = TruncSeries(order, [1] + values)
        assert list(s.reciprocal().coeffs) == poly_reciprocal(s.coeffs)

    @pytest.mark.parametrize("slope", [T, -T], ids=["positive", "alternating"])
    def test_coefficients_at_the_edge_of_a_digit(self, slope):
        # 1/(1 - slope u): the n-th EGF value is n! slope^n, one coefficient
        # that meets the 1-norm bound, so at the top order it fills every
        # bit of a digit but the sign
        order = 14
        s = TruncSeries(order, (1, -slope))
        assert factorial(order).bit_length() == s._digit_width() - 1
        assert s.reciprocal().coeffs[1:] == tuple(factorial(n) * slope**n for n in range(1, order + 1))


class TestDivisionByOneMinusT:
    """The closed forms divide their denominators by 1 - t at one point,
    exactly: at t = 2**k the remainder test is divisibility by 1 - t."""

    # exp(t u) - t exp(2u): constant term 1 - t, but 1 - t does not divide
    # its u-coefficient t - 2t
    NOT_DIVISIBLE = ((1, T), (-T, 2))

    def test_nested_coefficient_divides_exactly(self):
        quotient = Poly((Poly((2, 5, 1)), 0, Poly((-3, 0, 4))))  # in t', over t
        terms = ((quotient * Poly((1 - T,)), 0),)  # a constant series
        x = 1 << 8
        (unit,) = _unit_values(terms, 0, x)
        assert unit == _at(quotient, x)
        assert _decode(unit, 8) == quotient
        # the mixed form's unit, read back at a wide enough point
        ref = REFERENCE_DENOMINATORS[mixed_egf_closed_form](6)
        units = _unit_values(_MIXED, 6, 1 << 16)
        for n, den in enumerate(ref):
            assert _decode(units[n], 16) == ref_over_one_minus_t(den * factorial(n)), n

    def test_nonzero_remainder(self):
        with pytest.raises(ArithmeticError, match="remainder"):
            _closed_form(self.NOT_DIVISIBLE, 3)
        nested = ((1, Poly((T, Poly((-1,))))), (-T, Poly((Poly((2,)), Poly((-1,))))))
        with pytest.raises(ArithmeticError, match="remainder"):
            _closed_form(nested, 3)

    def test_nonzero_scalar(self):
        with pytest.raises(ArithmeticError, match="remainder"):
            _closed_form(self.NOT_DIVISIBLE, 3, at=3)
        with pytest.raises(ArithmeticError, match="remainder"):
            _closed_form(self.NOT_DIVISIBLE, 3, at=-2)


class TestClosedForms:
    def test_classical_coefficients(self):
        cl = classical_egf_closed_form(6)
        for n in range(7):
            assert cl.coefficient(n) * factorial(n) == eulerian_polynomial(n)

    def test_family_egf_examples(self):
        egf = series_from_polynomials(eulerian_polynomial, 4)
        assert egf.coefficient(2) == Poly((Fraction(1, 2), Fraction(1, 2)))
        assert egf.coefficient(4) == eulerian_polynomial(4) * Fraction(1, 24)
        ordinary = series_from_polynomials(lambda n: factorial(n), 6)
        assert all(ordinary.coefficient(k) == 1 for k in range(7))
        ones = series_from_polynomials(lambda n: 1, 6)
        assert ones == TruncSeries(6, (0, 1)).exp()

    def test_mixed_closed_form_and_specializations(self):
        for name, ident in check_mixed_egf_closed_form(6):
            assert ident.ok, (name, ident.note)

    @pytest.mark.parametrize("at", [None, 1, -1])
    def test_negative_order(self, at):
        with pytest.raises(ValueError, match="nonnegative"):
            classical_egf_closed_form(-2, at=at)

    def test_mixed_closed_form_bivariate_coefficient(self):
        mixed = mixed_egf_closed_form(3)
        assert mixed.coefficient(2) * 2 == abar_polynomial(2)

    def test_exponential_form(self):
        assert check_mixed_egf_exponential_form(6).ok

    def test_split_relations(self):
        for name, ident in check_fixed_point_split_relations(8):
            assert ident.ok, name

    def test_shifted_powers(self):
        for r in range(1, 6):
            assert check_shifted_egf_powers(r, 8).ok

    def test_bernoulli(self):
        assert check_bernoulli_ode(8).ok
        assert check_convolution_recurrence(8).ok

    def test_convolution_smallest_cases(self):
        a0, a1, a2 = (eulerian_polynomial(n) for n in range(3))
        assert a1 == a0
        assert a2 == a1 + T * a0 * a1

    def test_substitute_outer_variable(self):
        mixed = mixed_egf_closed_form(5)
        at_one = mixed.substitute(1)
        assert series_identity(at_one, classical_egf_closed_form(5)).ok


def check_exponential_formula(weight, order):
    return exponential_formula_bundle({"weight": weight}, order)["weight"]


class TestExponentialFormula:
    def test_constant_weight_counts_factorials(self):
        eq_exp, eq_inv = check_exponential_formula(lambda w: 1, 5)
        assert eq_exp.ok and eq_inv.ok
        # exp(sum u^n / n) = 1/(1 - u): the plain EGF is the geometric series
        assert all(eq_exp.lhs.coefficient(k) == 1 for k in range(6))

    def test_cycle_indicator_weight(self):
        xs = [Fraction(k) for k in range(1, 7)]
        eq_exp, eq_inv = check_exponential_formula(cycle_indicator_weight(xs), 5)
        assert eq_exp.ok and eq_inv.ok

    def test_biexcedent_weight(self):
        eq_exp, eq_inv = check_exponential_formula(biexcedent_weight, 6)
        assert eq_exp.ok and eq_inv.ok
        # connected even sizes count the alternating words of odd size below
        conn = eq_exp.rhs  # exp argument side was consumed; recompute simply
        assert eq_exp.lhs.coefficient(4) * factorial(4) == 5

    def test_matrix_weight(self):
        eq_exp, eq_inv = check_exponential_formula(matrix_entry_weight(2, 1, 3), 5)
        assert eq_exp.ok and eq_inv.ok

    def test_fixed_point_split_weight(self):
        eq_exp, eq_inv = check_exponential_formula(fixed_point_split_weight, 5)
        assert eq_exp.ok and eq_inv.ok

    def test_bundle_matches_singles(self):
        bundle = exponential_formula_bundle(
            {"ones": lambda w: 1, "bi": biexcedent_weight}, 4
        )
        assert all(a.ok and b.ok for a, b in bundle.values())

    def test_cycle_weighted_powers(self):
        for r in (1, 2, 3):
            assert check_cycle_weighted_power(r, 6).ok, r

    def test_tree_equation(self):
        assert check_tree_equation(6).ok


def factorization_sums(fns, order):
    """The slow reference for the insertion sweep: factorize every word of
    S_n through the canonical factorization and multiply the weights of its
    factors; the sign is (-1)**(n - cycles)."""
    plain = [[1] + [0] * order for _ in fns]
    signed = [[1] + [0] * order for _ in fns]
    for n in range(1, order + 1):
        for word in itertools.permutations(range(1, n + 1)):
            factors = canonical_factorization(word)
            odd = (len(factors) + n) % 2
            for i, fn in enumerate(fns):
                val = 1
                for g, _dom in factors:
                    val = val * fn(g)
                plain[i][n] = plain[i][n] + val
                signed[i][n] = signed[i][n] - val if odd else signed[i][n] + val
    return plain, signed


def _pairs(scale, first, second):
    """scale * a * b summed over a in `first` and b in `second`, one product
    per pair."""
    return sum(itertools.starmap(mul, itertools.product(map(mul, itertools.repeat(scale), first), second)))


def per_node_sums(fns, order):
    """The reference for the shape-batched sweep: the same insertion sweep
    and cycle table, with each node of size order - 2 adding its
    descendants on its own, over table slices."""
    count = len(fns)
    if order == 0:
        return [[1] for _ in fns], [[1] for _ in fns]
    by_parity = [([0] * count, [0] * count) for _ in range(order + 1)]
    tables = _cycle_table(fns, order, by_parity[order][(order - 1) % 2])

    def visit(n, factors):
        # `factors` is a permutation of [n] as (size, code) pairs
        k = len(factors)
        bulk = n == order - 2
        for i, table in enumerate(tables):
            loop = table[1][0]
            weights = [table[m][x] for m, x in factors]
            kids = [table[m + 1][x * m : (x + 1) * m] for m, x in factors]
            before = [1]
            for w in weights:
                before.append(before[-1] * w)
            after = [1] * (k + 1)
            for c in range(k - 1, -1, -1):
                after[c] = weights[c] * after[c + 1]
            others = [before[c] * after[c + 1] for c in range(k)]
            by_parity[n + 1][(n - k) % 2][i] += before[k] * loop
            by_parity[n + 1][(n + 1 - k) % 2][i] += sum(
                sum(map(mul, itertools.repeat(others[c]), kids[c])) for c in range(k)
            )
            if not bulk:
                continue
            even_more = before[k] * loop * loop
            one_more = before[k] * table[2][0] if k else 0
            for c, (m, x) in enumerate(factors):
                one_more += sum(map(mul, itertools.repeat(others[c] * loop), kids[c] * 2))
                if m < n:
                    grandkids = table[m + 2][x * m * (m + 1) : (x + 1) * m * (m + 1)]
                    even_more += sum(map(mul, itertools.repeat(others[c]), grandkids))
                rest = before[c]
                for d in range(c + 1, k):
                    scale = rest * after[d + 1]
                    even_more += _pairs(scale, kids[c], kids[d]) + _pairs(scale, kids[d], kids[c])
                    rest = rest * weights[d]
            by_parity[n + 2][(n - k) % 2][i] += even_more
            by_parity[n + 2][(n + 1 - k) % 2][i] += one_more
        if not bulk:
            for c, (m, x) in enumerate(factors):
                for code in range(x * m, (x + 1) * m):
                    visit(n + 1, factors[:c] + [(m + 1, code)] + factors[c + 1 :])
            visit(n + 1, factors + [(1, 0)])

    if order >= 2:
        visit(0, [])
    plain = [[1] + [even[i] + odd[i] for even, odd in by_parity[1:]] for i in range(count)]
    signed = [[1] + [even[i] - odd[i] for even, odd in by_parity[1:]] for i in range(count)]
    return plain, signed


SWEEP_WEIGHTS = (
    cycle_indicator_weight(list(range(1, 10))),
    biexcedent_weight,
    matrix_entry_weight(2, 1, 3),
    lambda g: 1,
)


def truncated(sums, order):
    return tuple([row[: order + 1] for row in rows] for rows in sums)


class TestInsertionSweep:
    @pytest.fixture(scope="class")
    def reference(self):
        return factorization_sums(SWEEP_WEIGHTS, 8)

    @pytest.fixture(scope="class")
    def split_reference(self):
        return factorization_sums((fixed_point_split_weight,), 7)

    @pytest.mark.parametrize("order", range(9))
    def test_matches_factorization(self, reference, order):
        assert weighted_permutation_sums(SWEEP_WEIGHTS, order) == truncated(reference, order)

    @pytest.mark.parametrize("order", range(8))
    def test_matches_factorization_poly_weight(self, split_reference, order):
        sums = weighted_permutation_sums((fixed_point_split_weight,), order)
        assert sums == truncated(split_reference, order)

    # a shape is weighed early once it holds 256 nodes, which first happens
    # at order 9 (720 nodes of one shape, against at most 120 at order 8)
    @pytest.mark.parametrize("order", range(10))
    def test_matches_per_node_sweep(self, order):
        assert weighted_permutation_sums(SWEEP_WEIGHTS, order) == per_node_sums(SWEEP_WEIGHTS, order)

    @pytest.mark.parametrize("order", range(8))
    def test_matches_per_node_sweep_poly_weight(self, order):
        weights = (fixed_point_split_weight,)
        assert weighted_permutation_sums(weights, order) == per_node_sums(weights, order)

    def test_weights_see_connected_factor_maps(self):
        seen = []

        def record(g):
            seen.append(g)
            return 1

        weighted_permutation_sums((record,), 6)
        assert all(type(g) is tuple for g in seen)
        # the weighed factors are exactly the connected words of size <= 6
        assert {tuple(g) for g in seen} == {
            w
            for n in range(1, 7)
            for w in itertools.permutations(range(1, n + 1))
            if len(subdomains(w)) == 1
        }

    def test_one_weight_call_per_connected_factor(self):
        calls = []
        weighted_permutation_sums((lambda g: calls.append(g) or 1,), 8)
        # the cycles of size m <= 8 number (m - 1)!
        assert len(calls) == sum(factorial(m - 1) for m in range(1, 9)) == 5914

    def test_each_side_weighs_every_cycle_itself(self):
        # once per cycle on the insertion side, once per word of the
        # circular class on the other
        calls = Counter()

        def counting(name):
            def weight(g):
                calls[name] += 1
                return 1

            return weight

        exponential_formula_bundle({name: counting(name) for name in "ab"}, 8)
        assert calls == {"a": 2 * 5914, "b": 2 * 5914}

    def test_budget(self):
        from eulerian.permutations import BudgetError

        with pytest.raises(BudgetError):
            weighted_permutation_sums(SWEEP_WEIGHTS, 9, max_n=8)


class TestMatrices:
    def test_permanent_and_determinant_basics(self):
        eye = SquareMatrix(((1, 0), (0, 1)))
        assert determinant(eye) == 1 and permanent(eye) == 1
        ones = SquareMatrix.banded(4, 1, 1, 1)
        assert permanent(ones) == 24 and determinant(ones) == 0

    def test_empty_matrix(self):
        m = SquareMatrix(())
        assert permanent(m) == 1 and determinant(m) == 1

    def test_permanent_budget(self):
        from eulerian.permutations import BudgetError

        with pytest.raises(BudgetError):
            permanent(SquareMatrix.banded(10, 1, 1, 1))
        assert permanent(SquareMatrix.banded(10, 1, 1, 1), max_n=10) == factorial(10)

    def test_polynomial_entries(self):
        m = SquareMatrix.banded(3, T, Poly((1,)), 2)
        per = permanent(m)
        det = determinant(m)
        assert per.eval(1) == permanent(SquareMatrix.banded(3, 1, 1, 2))
        assert det.eval(1) == determinant(SquareMatrix.banded(3, 1, 1, 2))

    def test_banded_identities(self):
        for abc in ((2, 1, 3), (1, 1, 1), (2, 5, 2), (0, 3, 1), (3, 3, 3)):
            for name, ident in check_permanent_determinant(*abc, 7):
                assert ident.ok, (abc, name, ident.note)

    def test_staircase_examples(self):
        for name, ident in check_staircase_examples(7):
            assert ident.ok, name

    def test_mixed_permanent(self):
        assert check_mixed_permanent(5).ok


class TestTangentSecant:
    def test_table_coefficients(self):
        tan, sec = tangent_secant_series(14)
        assert tan.coefficient(1) == 1
        assert tan.coefficient(3) * factorial(3) == 2
        assert tan.coefficient(5) * factorial(5) == 16
        assert sec.coefficient(0) == 1
        assert sec.coefficient(2) * 2 == 1
        assert sec.coefficient(10) * factorial(10) == 50521
        assert sec.coefficient(14) * factorial(14) == 199360981

    def test_parities(self):
        tan, sec = tangent_secant_series(9)
        assert all(tan.coefficient(2 * k) == 0 for k in range(5))
        assert all(sec.coefficient(2 * k + 1) == 0 for k in range(4))

    def test_exp_integral_identity(self):
        assert check_secant_is_exp_integral_tangent(10).ok

    def test_roselle_closed_form_at_minus_one(self):
        g = roselle_egf_closed_form(8).substitute(-1)
        assert g.coefficient(8) * factorial(8) == 1385

    def test_egf_extraction(self):
        from eulerian.polynomials import eulerian_triangle_recurrence

        for n in range(1, 7):
            for r in range(1, n + 1):
                assert eulerian_from_egf(n, r) == eulerian_triangle_recurrence(n, r)

    def test_exp_of_linear(self):
        e = exp_of_linear(Fraction(2), 5)
        assert e.coefficient(3) == Fraction(8, 6)
        ep = exp_of_linear(T - 1, 3)
        assert ep.coefficient(2) == (T - 1) ** 2 * Fraction(1, 2)


def _boustrophedon_euler_numbers(n_max: int) -> list[int]:
    """E_0..E_{n_max} by the Seidel-Entringer boustrophedon: each row is
    the running sums of the previous row read backwards."""
    row, out = [1], [1]
    for n in range(1, n_max + 1):
        new = [0]
        for k in range(n):
            new.append(new[-1] + row[n - 1 - k])
        row = new
        out.append(row[-1])
    return out


class TestEvaluatedClosedForms:
    """The closed forms evaluated at t before the reciprocal, against the
    bivariate route and against routes that share no code with them."""

    @pytest.mark.parametrize("form", [classical_egf_closed_form, roselle_egf_closed_form])
    def test_matches_bivariate_then_substitute(self, form):
        for order in range(15):
            bivariate = form(order)
            for t in (-1, 0, 1, 2, 3, Fraction(1, 2)):
                assert form(order, at=t) == bivariate.substitute(t), (order, t)

    def test_tangent_secant_order60_against_boustrophedon(self):
        tan, sec = tangent_secant_series(60)
        euler = _boustrophedon_euler_numbers(60)
        for k in range(61):
            odd, even = tan.coefficient(k) * factorial(k), sec.coefficient(k) * factorial(k)
            assert (odd, even) == ((euler[k], 0) if k % 2 else (0, euler[k])), k

    @pytest.mark.parametrize("t", [-1, 2])
    def test_classical_at_value_against_triangle(self, t):
        egf = classical_egf_closed_form(40, at=t)
        for n in range(41):
            assert egf.coefficient(n) * factorial(n) == eulerian_polynomial(n).eval(t), n

    def test_derangement_at_two_against_binomial_inverse(self):
        # the derangement EGF is exp(-u) times the classical one
        egf = roselle_egf_closed_form(40, at=2)
        classical = [eulerian_polynomial(k).eval(2) for k in range(41)]
        for n in range(41):
            expected = sum(comb(n, k) * (-1) ** (n - k) * classical[k] for k in range(n + 1))
            assert egf.coefficient(n) * factorial(n) == expected, n

