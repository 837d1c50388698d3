"""Differential tests, generated from one table of (fast, slow, domain)
rows: each fast kernel of the package must agree with a slower,
independent reference from ``references.py`` on every input its domain
lists, and on large inputs that hypothesis draws where the domain has
them."""
import itertools
from collections import Counter
from functools import partial
from typing import Callable, Iterable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    brute_descent_vector,
    brute_rise_vector,
    cycles_are_loops,
    dprime_by_maxima_set,
    fundamental_by_keys,
    fundamental_by_preimage_segments,
    fundamental_inverse_by_segments,
    literal_ultimately_idempotent,
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
# each class that enumerate_class generates directly, at every size n <= 8
GENERATED_CLASSES = Domain(lambda: itertools.product(sorted(set(_GENERATORS) - {"all"}), range(9)))


def ultimately_idempotent(n):
    return count_class_functions(n, "ultimately_idempotent")


def loops_over_every_map(n):
    return sum(map(cycles_are_loops, itertools.product(range(1, n + 1), repeat=n)))


def literal_over_every_map(n):
    return sum(map(literal_ultimately_idempotent, itertools.product(range(1, n + 1), repeat=n)))


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
