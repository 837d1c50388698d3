"""Statistic vectors, operators, and class predicates.

Derived expectations are frozen from independent oracles implemented here
(direct definition evaluation, inclusion-exclusion counts), never from the
code under test.
"""
import itertools
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import brute_descent_vector, brute_rise_vector

from eulerian.cli import parse_permutation
from eulerian.permutations import (
    _is_alternating,
    _is_biexcedent,
    ALL,
    ALTERNATING,
    BIEXCEDENT,
    CIRCULAR,
    DERANGEMENT,
    FIRST_IS_N,
    LAST_IS_1,
    BudgetError,
    SUCCESSION_FREE,
    check_budget,
    class_size,
    cycle_count,
    delta,
    delta_prime,
    delta_second,
    descent_plus_certificate,
    descent_vector,
    dprime_vector,
    enumerate_class,
    excedance_vector,
    fixed_point_vector,
    is_in_class,
    lambda_op,
    left_to_right_maxima,
    orbits,
    position_sum_counts,
    positive_count,
    r_tail_ordered,
    rise_vector,
    signature,
)

RUNNING = (6, 4, 1, 2, 5, 3)

perm_words = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


class TestVectors:
    def test_excedance_running_example(self):
        assert excedance_vector(RUNNING) == (6, 3, 0, 0, 1, 0)

    def test_excedance_identity_marks_fixed_points(self):
        assert excedance_vector((1, 2, 3, 4)) == (1, 1, 1, 1)

    def test_excedance_empty(self):
        assert excedance_vector(()) == ()

    def test_descent_running_example(self):
        assert descent_vector(RUNNING) == (4, 0, 3, 3, 0, 0)

    def test_descent_identity(self):
        assert descent_vector((1, 2, 3)) == brute_descent_vector((1, 2, 3)) == (0, 0, 0)

    def test_descent_empty(self):
        assert descent_vector(()) == ()

    def test_rise_running_example(self):
        assert rise_vector(RUNNING) == (6, 1, 3, 0, 0, 0)

    def test_rise_reversed_example(self):
        assert rise_vector((3, 5, 2, 1, 4, 6)) == (3, 3, 0, 2, 2, 0)

    def test_rise_singleton(self):
        assert rise_vector((1,)) == brute_rise_vector((1,)) == (1,)

    @given(perm_words)
    @settings(max_examples=120, deadline=None)
    def test_descent_rise_against_brute_force(self, word):
        p = tuple(word)
        assert descent_vector(p) == brute_descent_vector(tuple(word))
        assert rise_vector(p) == brute_rise_vector(tuple(word))

    def test_dprime_running_image(self):
        tau = (4, 2, 5, 6, 1, 3)
        assert dprime_vector(tau) == (0, 0, 0, 0, 1, 0)
        assert descent_plus_certificate(tau) == (6, 3, 0, 0, 1, 0)

    def test_dprime_identity_all_ones(self):
        n = 5
        assert dprime_vector(tuple(range(1, n + 1))) == (1,) * n

    def test_dprime_singleton(self):
        assert dprime_vector((1,)) == (1,)

    def test_fixed_points_running_example(self):
        assert fixed_point_vector(RUNNING) == (0, 0, 0, 0, 1, 0)

    def test_fixed_points_identity(self):
        assert fixed_point_vector((1, 2, 3, 4)) == (1, 1, 1, 1)

    def test_fixed_points_derangements_vanish(self):
        for p in enumerate_class(4, DERANGEMENT):
            assert fixed_point_vector(p) == (0, 0, 0, 0)


class TestOperators:
    def test_delta_examples(self):
        v = (6, 3, 0, 0, 1, 0)
        assert delta(v) == (5, 2, 0, 0, 0)
        assert delta((1, 1)) == (0,)
        assert delta(delta(v)) == (4, 1, 0, 0)

    def test_delta_prime_examples(self):
        v = (6, 3, 0, 0, 1, 0)
        assert delta_prime(v) == (3, 0, 0, 1, 0)
        assert delta_prime((5,)) == ()
        assert delta_prime(delta_prime(v)) == (0, 0, 1, 0)

    def test_delta_second_examples(self):
        v = (6, 3, 0, 0, 1, 0)
        assert delta_second(v) == (6, 3, 0, 0, 1)
        assert delta_second((5,)) == ()
        assert delta(delta_prime(v)) == (2, 0, 0, 0)

    def test_lambda_examples(self):
        assert lambda_op((6, 3, 0, 0, 1, 0)) == (5, 2, 0, 0, 0, 0)
        assert lambda_op(()) == ()
        assert lambda_op(lambda_op((3, 1))) == (1, 0)

    def test_empty_vector_errors(self):
        for op in (delta, delta_prime, delta_second):
            with pytest.raises(ValueError):
                op(())

    def test_positive_count(self):
        assert positive_count((6, 3, 0, 0, 1, 0)) == 3
        assert positive_count(()) == 0
        assert positive_count((5, 2, 0, 0, 0)) == 2

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_operators_commute_pairwise(self, entries):
        v = tuple(entries)
        assert delta(delta_prime(v)) == delta_prime(delta(v))
        assert delta(delta_second(v)) == delta_second(delta(v))
        assert delta_prime(delta_second(v)) == delta_second(delta_prime(v))

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_delta_factors_through_lambda(self, entries):
        v = tuple(entries)
        assert delta(v) == lambda_op(delta_second(v)) == delta_second(lambda_op(v))


class TestStructure:
    def test_orbits_running_example(self):
        assert orbits(RUNNING) == ((1, 6, 3), (2, 4), (5,))
        assert cycle_count(RUNNING) == 3

    def test_identity_orbits(self):
        assert cycle_count((1, 2, 3, 4, 5)) == 5
        assert signature((1, 2, 3, 4, 5)) == 1

    def test_transposition_signature(self):
        assert cycle_count((2, 1)) == 1
        assert signature((2, 1)) == -1

    def test_left_to_right_maxima(self):
        assert left_to_right_maxima((4, 2, 5, 6, 1, 3)) == (1, 3, 4)
        assert left_to_right_maxima((1, 2, 3, 4)) == (1, 2, 3, 4)
        assert left_to_right_maxima((4, 3, 2, 1)) == (1,)

    @given(perm_words)
    @settings(max_examples=100, deadline=None)
    def test_descent_entries_zero_or_at_least_two(self, word):
        p = tuple(word)
        d = descent_vector(p)
        assert all(x == 0 or x >= 2 for x in d)
        if len(d):
            assert d[-1] == 0

    @given(perm_words)
    @settings(max_examples=100, deadline=None)
    def test_excedance_split(self, word):
        p = tuple(word)
        e = excedance_vector(p)
        if len(e):
            assert positive_count(e) == positive_count(fixed_point_vector(p)) + positive_count(delta(e))


class TestClasses:
    def test_section_table_membership(self):
        p = (2, 1, 4, 3)
        assert is_in_class(p, BIEXCEDENT)
        assert is_in_class(p, ALTERNATING)

    def test_biexcedent_size_four(self):
        members = list(enumerate_class(4, BIEXCEDENT))
        assert len(members) == 5
        assert members == sorted(members)

    def test_class_counts(self):
        assert class_size(4, ALL) == 24
        assert class_size(3, CIRCULAR) == 2
        assert class_size(4, FIRST_IS_N) == 6
        assert class_size(4, LAST_IS_1) == 6

    def test_derangement_counts_inclusion_exclusion(self):
        # oracle: D(n) = sum (-1)^k C(n,k) (n-k)!
        for n in range(7):
            expected = sum((-1) ** k * comb(n, k) * factorial(n - k) for k in range(n + 1))
            assert class_size(n, DERANGEMENT) == expected

    def test_succession_free_matches_filter_oracle(self):
        for n in range(1, 7):
            expected = sum(
                1
                for w in itertools.permutations(range(1, n + 1))
                if w[0] != 1 and all(w[j + 1] != w[j] + 1 for j in range(n - 1))
            )
            assert class_size(n, SUCCESSION_FREE) == expected

    def test_alternating_small_counts(self):
        assert [class_size(n, ALTERNATING) for n in range(1, 7)] == [1, 1, 2, 5, 16, 61]

    def test_r_tail_ordered_size(self):
        for n in range(1, 6):
            for r in range(1, n + 1):
                assert class_size(n, r_tail_ordered(r)) == factorial(n) // factorial(r)

    def test_r_tail_ordered_validation(self):
        with pytest.raises(ValueError):
            is_in_class((1, 2), r_tail_ordered(5))

    def test_budget_errors(self):
        with pytest.raises(BudgetError):
            list(enumerate_class(11, ALL))
        with pytest.raises(BudgetError):
            list(enumerate_class(5, ALL, max_n=4))
        # the guard fires on the call itself, before any word is asked for
        with pytest.raises(BudgetError):
            enumerate_class(11, CIRCULAR)

    def test_budget_boundary(self):
        # a size equal to the limit fits; one more does not
        assert check_budget(10, 10, "sweep") is None
        with pytest.raises(BudgetError, match="sweep at n=11"):
            check_budget(11, 10, "sweep")

    @pytest.mark.parametrize(
        "tag, pred, ordered",
        [
            (ALTERNATING, _is_alternating, True),
            (BIEXCEDENT, _is_biexcedent, True),
            (FIRST_IS_N, lambda w: len(w) > 0 and w[0] == len(w), True),
            (LAST_IS_1, lambda w: len(w) > 0 and w[-1] == 1, True),
            (CIRCULAR, lambda w: len(w) > 0 and len(orbits(w)) == 1, False),
        ],
        ids=["alternating", "biexcedent", "first_is_n", "last_is_1", "circular"],
    )
    def test_generated_class_matches_filter(self, tag, pred, ordered):
        # a direct generator must yield exactly the filtered words, in word
        # order except for the circular class, which is checked as a set
        # without repeats
        for n in range(10):
            expected = [w for w in itertools.permutations(range(1, n + 1)) if pred(w)]
            members = list(enumerate_class(n, tag))
            assert all(type(w) is tuple for w in members)
            if ordered:
                assert members == expected
            else:
                assert sorted(members) == expected

    def test_circular_order_follows_the_cycle(self):
        # the n-cycles (n, a_1, ..., a_{n-1}) in lexicographic order of the
        # a_i: 4 -> 1 -> 2 -> 3 -> 4 first, then 4 -> 1 -> 3 -> 2 -> 4, which
        # leaves word order from n = 4 on
        members = list(enumerate_class(4, CIRCULAR))
        assert members == [(2, 3, 4, 1), (3, 4, 2, 1), (3, 1, 4, 2), (4, 3, 1, 2), (2, 4, 1, 3), (4, 1, 2, 3)]
        assert members != sorted(members)
        assert list(enumerate_class(3, CIRCULAR)) == [(2, 3, 1), (3, 1, 2)]

    @pytest.mark.parametrize("word", [(2, 2), (1, 1, 3), (2, 3, 2)])
    def test_a_word_that_is_not_a_permutation_is_not_circular(self, word):
        # the orbit of 1 never returns to 1 (or returns too early); the walk
        # must still end
        assert not is_in_class(word, CIRCULAR)

    @pytest.mark.parametrize("tag", [ALTERNATING, BIEXCEDENT], ids=["alternating", "biexcedent"])
    def test_generated_class_budget(self, tag):
        with pytest.raises(BudgetError):
            list(enumerate_class(11, tag))

    def test_enumeration_is_lexicographic(self):
        words = [tuple(p) for p in enumerate_class(4, ALL)]
        assert words == sorted(words)
        assert len(words) == 24

    def test_permutation_validation(self):
        # words are bare tuples; outside input is validated where it is parsed
        with pytest.raises(ValueError):
            parse_permutation("1 1")
        with pytest.raises(ValueError):
            parse_permutation("0 1")


def per_word_position_sums(n, weight):
    """The reference for `position_sum_counts`: add up each word's weights
    one word at a time."""
    counts = {}
    for word in enumerate_class(n):
        total = sum(weight[i][v - 1] for i, v in enumerate(word))
        counts[total] = counts.get(total, 0) + 1
    return counts


weight_tables = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


class TestPositionSumCounts:
    @given(weight_tables)
    @settings(max_examples=30, deadline=None)
    def test_matches_per_word_sums(self, weight):
        assert dict(position_sum_counts(len(weight), weight)) == per_word_position_sums(len(weight), weight)

    def test_every_word_is_counted_apart(self):
        # weights that spell out the word in base n + 1 give each word its
        # own total, so every count is 1 and the totals number n!
        for n in range(8):
            weight = [[(j + 1) * (n + 1) ** i for j in range(n)] for i in range(n)]
            counts = position_sum_counts(n, weight)
            assert set(counts.values()) <= {1} and len(counts) == factorial(n)


def biexcedent_by_positions(word):
    """The reference for `_is_biexcedent`: each point lies below both its
    image and its preimage, or above both, with the preimages read from a
    position array."""
    n = len(word)
    pos = [0] * (n + 1)
    for j, v in enumerate(word, start=1):
        pos[v] = j
    for j in range(1, n + 1):
        v, w = word[j - 1], pos[j]
        if not ((j < v and j < w) or (j > v and j > w)):
            return False
    return True


@st.composite
def large_biexcedent_words(draw):
    """A biexcedent word of even size 50..500: its values cut into blocks
    of even length, each block one cycle that alternates between its lower
    and its upper half, so every point is a valley or a peak of its cycle."""
    half = draw(st.integers(25, 250))
    values = draw(st.permutations(range(1, 2 * half + 1)))
    cuts = draw(st.lists(st.booleans(), min_size=half - 1, max_size=half - 1))
    bounds = [0] + [2 * j + 2 for j, cut in enumerate(cuts) if cut] + [2 * half]
    word = [0] * (2 * half)
    for start, end in zip(bounds, bounds[1:]):
        block = values[start:end]
        middle = sorted(block)[len(block) // 2]
        lows = [v for v in block if v < middle]
        highs = [v for v in block if v >= middle]
        cycle = [v for pair in zip(lows, highs) for v in pair]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            word[a - 1] = b
    return tuple(word)


class TestBiexcedentPredicate:
    def test_matches_position_reference(self):
        for n in range(9):
            for word in itertools.permutations(range(1, n + 1)):
                assert _is_biexcedent(word) == biexcedent_by_positions(word), word

    @given(large_biexcedent_words(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_large_words(self, word, data):
        assert _is_biexcedent(word) and biexcedent_by_positions(word)
        # one transposition of two letters, which may or may not break it
        i, j = data.draw(st.lists(st.integers(0, len(word) - 1), min_size=2, max_size=2, unique=True))
        swapped = list(word)
        swapped[i], swapped[j] = word[j], word[i]
        assert _is_biexcedent(swapped) == biexcedent_by_positions(swapped)
