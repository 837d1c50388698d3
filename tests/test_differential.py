"""Differential tests, generated from one table of (fast, slow, domain)
rows: each fast kernel of the package must agree with a slower,
independent reference from ``references.py`` on every input its domain
lists, and on large inputs that hypothesis draws where the domain has
them."""
import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    REFERENCE_DENOMINATORS,
    brute_descent_vector,
    brute_rise_vector,
    cycles_are_loops,
    derangement_excedances_per_word,
    dprime_by_maxima_set,
    fix_exc_counts_per_word,
    fraction_horner,
    fundamental_by_keys,
    fundamental_by_preimage_segments,
    fundamental_inverse_by_segments,
    injections_per_entry,
    literal_ultimately_idempotent,
    lowered_excedances_per_word,
    ordinary,
    ref_closed_form,
    ref_exp_of_linear,
    ref_reciprocal,
)

from eulerian.endofunctions import count_class_functions
from eulerian.permutations import (
    _GENERATORS,
    ClassTag,
    descent_vector,
    dprime_vector,
    enumerate_class,
    is_in_class,
    rise_vector,
)
from eulerian.polynomials import (
    Poly,
    T,
    _fix_exc_counts,
    _roselle_counts,
    eulerian_by_enumeration,
    injection_polynomial,
)
from eulerian.series import TruncSeries, _closed_form, classical_egf_closed_form, roselle_egf_closed_form
from eulerian.transforms import fundamental, fundamental_inverse


class Domain(NamedTuple):
    every: Callable[[], Iterable]  # every input, checked exhaustively
    large: st.SearchStrategy | None = None  # large inputs, drawn by hypothesis


# every word of S_0..S_8, and words of size 50 to 500
WORDS = Domain(
    lambda: itertools.chain.from_iterable(enumerate_class(n) for n in range(9)),
    st.integers(50, 500).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple),
)
# the sizes n of the maps of {1..n} to itself, every map of each size swept
MAPS_UP_TO_7 = Domain(lambda: range(8))
MAPS_UP_TO_5 = Domain(lambda: range(6))
# every size n <= 8, each swept in full
SIZES_UP_TO_8 = Domain(lambda: range(9))
# every size n <= 8 with every shift 0 <= r <= n
SHIFTS_UP_TO_8 = Domain(lambda: ((n, r) for n in range(9) for r in range(n + 1)))
# each class that enumerate_class generates directly, at every size n <= 8
GENERATED_CLASSES = Domain(lambda: itertools.product(sorted(set(_GENERATORS) - {"all"}), range(9)))

# every closed form at every order <= 14: the classical and derangement ones
# at each evaluation point as well, the 0-shift and the nested one over Z[t]
POINTS = (None, -1, 0, 1, 2, 3, Fraction(1, 2))
CLOSED_FORMS = Domain(
    lambda: (
        (form, order, at)
        for form in REFERENCE_DENOMINATORS
        for order in range(15)
        for at in (POINTS if form in (classical_egf_closed_form, roselle_egf_closed_form) else (None,))
    )
)
# every declared denominator exp((a + b t)u) - t exp((c + (a + b - c) t)u),
# which 1 - t divides, with a, b, c in -3..3, at order 8, over Z[t] and at
# three points: results with coefficients of both signs, unlike the paper's
TWO_TERM_FORMS = Domain(
    lambda: ((a, b, c, at) for a, b, c in itertools.product(range(-3, 4), repeat=3) for at in (None, -1, 1, 3))
)
# unit series over Z[t]: every one of order <= 3 with u-coefficients from a
# small pool, and wide ones of order <= 14
_POOL = (0, 2, -T, Poly((1, -1)), Poly((0, 3, 1)))
_WIDE = st.integers(-(2**80), 2**80)
INTEGER_UNITS = Domain(
    lambda: (
        TruncSeries(order, (Poly((1,)),) + values)
        for order in range(4)
        for values in itertools.product(_POOL, repeat=order)
    ),
    st.integers(0, 14).flatmap(
        lambda order: st.lists(
            st.one_of(_WIDE, st.lists(_WIDE, max_size=13).map(Poly)), min_size=order, max_size=order
        ).map(lambda values: TruncSeries(order, [Poly((1,))] + values))
    ),
)
# integer polynomials of degree <= 3 with coefficients in -2..2, at rationals
RATIONAL_POINTS = Domain(
    lambda: itertools.product(
        (Poly(cs) for size in range(5) for cs in itertools.product(range(-2, 3), repeat=size)),
        (Fraction(-3, 2), Fraction(0), Fraction(1, 3), Fraction(2), Fraction(5, -7)),
    ),
    st.tuples(
        st.lists(st.integers(-(2**40), 2**40), max_size=13).map(Poly),
        st.fractions(min_value=-20, max_value=20, max_denominator=60),
    ),
)


def closed_form(case):
    form, order, at = case
    return ordinary(form(order) if at is None else form(order, at=at))


@lru_cache(maxsize=None)
def _reference_series(form, order):
    return ref_closed_form(REFERENCE_DENOMINATORS[form](order))


def closed_form_by_reference(case):
    form, order, at = case
    ref = _reference_series(form, order)
    return ref if at is None else [c.eval(at) if isinstance(c, Poly) else c for c in ref]


def _two_terms(a, b, c):
    return ((1, a + b * T), (-T, c + (a + b - c) * T))


def declared_form(case):
    *slopes, at = case
    return ordinary(_closed_form(_two_terms(*slopes), 8, at))


@lru_cache(maxsize=None)
def _reference_of_terms(a, b, c):
    den = [0] * 9
    for d, slope in _two_terms(a, b, c):
        den = [x + d * y for x, y in zip(den, ref_exp_of_linear(slope, 8))]
    return ref_closed_form(den)


def declared_form_by_reference(case):
    *slopes, at = case
    ref = _reference_of_terms(*slopes)
    return ref if at is None else [c.eval(at) if isinstance(c, Poly) else c for c in ref]


def reciprocal(s):
    return ordinary(s.reciprocal())


def reciprocal_by_reference(s):
    return ref_reciprocal(ordinary(s))


def eval_at_rational(case):
    # with its type: the integer route must return what the loop returns
    value = case[0].eval(case[1])
    return type(value), value


def horner_over_fractions(case):
    value = fraction_horner(*case)
    return type(value), value


def ultimately_idempotent(n):
    return count_class_functions(n, "ultimately_idempotent")


def loops_over_every_map(n):
    return sum(map(cycles_are_loops, itertools.product(range(1, n + 1), repeat=n)))


def literal_over_every_map(n):
    return sum(map(literal_ultimately_idempotent, itertools.product(range(1, n + 1), repeat=n)))


def enumerated_eulerian(case):
    return eulerian_by_enumeration(*case)


def lowered_excedances_by_word(case):
    return lowered_excedances_per_word(*case)


def injections(case):
    return injection_polynomial(*case)


def injections_by_entry(case):
    return injections_per_entry(*case)


def generated_class(case):
    # a Counter, so that a word generated twice shows
    kind, n = case
    return Counter(enumerate_class(n, ClassTag(kind)))


def filtered_class(case):
    kind, n = case
    return Counter(filter(partial(is_in_class, tag=ClassTag(kind)), itertools.permutations(range(1, n + 1))))


TABLE = [
    (fundamental, fundamental_by_preimage_segments, WORDS),
    (fundamental, fundamental_by_keys, WORDS),
    (fundamental_inverse, fundamental_inverse_by_segments, WORDS),
    (descent_vector, brute_descent_vector, WORDS),
    (rise_vector, brute_rise_vector, WORDS),
    (dprime_vector, dprime_by_maxima_set, WORDS),
    (ultimately_idempotent, loops_over_every_map, MAPS_UP_TO_7),
    (ultimately_idempotent, literal_over_every_map, MAPS_UP_TO_5),
    (generated_class, filtered_class, GENERATED_CLASSES),
    (_fix_exc_counts, fix_exc_counts_per_word, SIZES_UP_TO_8),
    (_roselle_counts, derangement_excedances_per_word, SIZES_UP_TO_8),
    (enumerated_eulerian, lowered_excedances_by_word, SHIFTS_UP_TO_8),
    (injections, injections_by_entry, SHIFTS_UP_TO_8),
    (closed_form, closed_form_by_reference, CLOSED_FORMS),
    (declared_form, declared_form_by_reference, TWO_TERM_FORMS),
    (reciprocal, reciprocal_by_reference, INTEGER_UNITS),
    (eval_at_rational, horner_over_fractions, RATIONAL_POINTS),
]
LARGE = [row for row in TABLE if row[2].large is not None]


def _ids(rows):
    return [f"{fast.__name__}-vs-{slow.__name__}" for fast, slow, _ in rows]


@pytest.mark.parametrize("fast, slow, domain", TABLE, ids=_ids(TABLE))
def test_fast_matches_slow_on_every_input(fast, slow, domain):
    assert next((x for x in domain.every() if fast(x) != slow(x)), None) is None


@pytest.mark.parametrize("fast, slow, domain", LARGE, ids=_ids(LARGE))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_fast_matches_slow_on_large_inputs(fast, slow, domain, data):
    x = data.draw(domain.large)
    assert fast(x) == slow(x)
