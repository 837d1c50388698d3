"""Valley words, the derivation that grows them, the positive triangle, and
the alternating-permutation counts."""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian.permutations import (
    ALTERNATING,
    FIRST_IS_N,
    class_size,
    delta,
    descent_vector,
    enumerate_class,
    is_in_class,
    positive_count,
)
from eulerian.polynomials import T, eulerian_at_minus_one, eulerian_polynomial
from eulerian.registry import _registry
from eulerian.words import (
    Letter,
    c_triangle,
    c_triangle_by_abelianization,
    check_derivation_step,
    check_secant_alternating_sum,
    euler_numbers,
    nabla,
    render_word,
    valley_expansion,
    valley_word,
    word_multiset,
)

EULER_TABLE = (1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765, 22368256, 199360981)


def parse_word(text):
    """The inverse of render_word."""
    letters = {render_word((x,)): x for x in Letter}
    return tuple(letters[ch] for ch in text)


def valley_word_by_comparison(p):
    """The reference for `valley_word`: with p(n + 1) = n, position j is a
    descent when p(j) > p(j + 1), and a letter is marked when it borders a
    valley, a value below both its neighbours: a descent that ends at one,
    or a rise that starts at one."""
    n = len(p)
    ext = p + (n,)
    valleys = {j for j in range(1, n) if ext[j - 1] > ext[j] < ext[j + 1]}
    out = []
    for j in range(n):
        if ext[j] > ext[j + 1]:
            out.append(Letter.MARKED_DESCENT if j + 1 in valleys else Letter.DESCENT)
        else:
            out.append(Letter.MARKED_RISE if j in valleys else Letter.RISE)
    return tuple(out)


large_first_is_n = st.integers(50, 500).flatmap(lambda n: st.permutations(range(1, n))).map(
    lambda rest: (len(rest) + 1, *rest)
)


class TestValleyWord:
    @given(large_first_is_n)
    @settings(max_examples=30, deadline=None)
    def test_large_words_match_comparison_definition(self, p):
        assert valley_word(p) == valley_word_by_comparison(p)

    def test_worked_example(self):
        w = valley_word((7, 1, 4, 6, 3, 2, 5))
        assert render_word(w) == "DMmdDMm"

    def test_smallest_word(self):
        assert render_word(valley_word((2, 1))) == "DM"

    def test_alternating_words_are_marked_pairs(self):
        for n in (4, 6):
            for p in enumerate_class(n, FIRST_IS_N):
                if is_in_class(p, ALTERNATING):
                    assert render_word(valley_word(p)) == "DM" * (n // 2)

    def test_requires_first_letter_n(self):
        with pytest.raises(ValueError):
            valley_word((1, 2))
        with pytest.raises(ValueError):
            valley_word((1,))

    def test_marked_letters_come_in_adjacent_pairs(self):
        for n in range(2, 8):
            for p in enumerate_class(n, FIRST_IS_N):
                w = valley_word(p)
                assert w[0] in (Letter.DESCENT, Letter.MARKED_DESCENT)
                assert w[-1] in (Letter.RISE, Letter.MARKED_RISE)
                for i, x in enumerate(w):
                    if x is Letter.MARKED_DESCENT:
                        assert w[i + 1] is Letter.MARKED_RISE
                    if x is Letter.MARKED_RISE:
                        assert w[i - 1] is Letter.MARKED_DESCENT

    def test_descent_letters_count_lowered_descents(self):
        for n in range(2, 9):
            for p in enumerate_class(n, FIRST_IS_N):
                w = valley_word(p)
                d_letters = sum(1 for x in w if x in (Letter.DESCENT, Letter.MARKED_DESCENT))
                assert d_letters == positive_count(delta(descent_vector(p)))


class TestDerivation:
    def test_single_replacement_example(self):
        base = parse_word("DMmdDMm")
        image = nabla({base: 1})
        # the two plain-rise replacements from the worked example
        assert image[parse_word("DMDMdDMm")] == 1
        assert image[parse_word("DMmdDMDM")] == 1

    def test_empty_set(self):
        assert nabla(Counter()) == Counter()

    def test_base_case_and_first_step(self):
        assert word_multiset(2) == Counter({parse_word("DM"): 1})
        assert word_multiset(3) == nabla(word_multiset(2))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_derivation_steps(self, n):
        assert check_derivation_step(n).ok

    def test_derivation_commutes_with_abelianization(self):
        # words with equal letter counts have derivation images with equal
        # letter-count multisets, so the derivation descends to the
        # commutative level
        def abelian(word):
            return tuple(sorted(Counter(word).items()))

        for n in (4, 5, 6):
            images = {}
            for word in word_multiset(n):
                image = Counter()
                for out_word, mult in nabla({word: 1}).items():
                    image[abelian(out_word)] += mult
                key = abelian(word)
                frozen = tuple(sorted(image.items()))
                assert images.setdefault(key, frozen) == frozen


class TestTriangle:
    def test_base_values(self):
        tri = c_triangle(4)
        assert tri[(2, 1)] == 1
        assert tri[(3, 1)] == 1
        assert tri[(4, 2)] == 2

    def test_modes_agree(self):
        assert c_triangle(7) == c_triangle_by_abelianization(7)

    def test_positivity_strip(self):
        tri = c_triangle(9)
        for (m, k), c in tri.items():
            assert 2 <= 2 * k <= m
            assert c > 0

    def test_middle_column_counts_alternating(self):
        tri = c_triangle(9)
        for p in range(1, 5):
            assert tri[(2 * p, p)] == EULER_TABLE[2 * p - 2]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_valley_expansion(self, n):
        assert valley_expansion(n) == T * eulerian_polynomial(n - 1)

    def test_expansion_smallest_cases(self):
        from eulerian.polynomials import Poly

        tri = c_triangle(4)
        assert T * Poly((1, 4, 1)) == tri[(4, 1)] * T * (1 + T) ** 2 + tri[(4, 2)] * T**2


class TestEulerNumbers:
    def test_recurrence_route(self):
        assert euler_numbers(14) == EULER_TABLE

    def test_series_route(self):
        assert euler_numbers(14, "series") == EULER_TABLE

    def test_enumeration_route(self):
        assert euler_numbers(8, "enumeration") == EULER_TABLE[:8]

    @pytest.mark.parametrize("mode", ("enumeration", "c_triangle", "series"))
    def test_smallest_sizes(self, mode):
        assert euler_numbers(0, mode) == ()
        assert euler_numbers(1, mode) == (1,)
        assert euler_numbers(2, mode) == (1, 1)

    def test_budget(self):
        from eulerian.permutations import BudgetError

        with pytest.raises(BudgetError):
            euler_numbers(11, "enumeration")

    @pytest.mark.parametrize("p", (1, 2, 3))
    def test_tangent_clause(self, p):
        assert eulerian_at_minus_one(2 * p) == 0
        assert (-1) ** (p - 1) * eulerian_at_minus_one(2 * p - 1) == class_size(2 * p - 1, ALTERNATING)

    @pytest.mark.parametrize("p", (1, 2, 3))
    def test_secant_clause(self, p):
        assert check_secant_alternating_sum(p).ok

    def test_first_letter_alternating_matches_lower_size(self):
        for p in range(1, 5):
            n = 2 * p
            t_first = sum(
                1
                for q in enumerate_class(n, FIRST_IS_N)
                if is_in_class(q, ALTERNATING)
            )
            assert t_first == class_size(n - 1, ALTERNATING)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_reversal_bridge(self, n):
        # the bridge is declared in the verify registry as a statistic transport
        bridge = next(decl.run for decl in _registry() if decl.name == "reversal-bridge")
        assert bridge(n=n).ok
