"""Canonical factorization of self-maps and the tree-like map counts.

The literal iterate definitions serve as oracles for the structural
implementations at small sizes.
"""
import itertools

import pytest
from references import literal_arborescence, literal_ultimately_idempotent

from eulerian.endofunctions import canonical_factorization, count_class_functions, subdomains
from eulerian.permutations import BudgetError, excedance_vector


class TestFactorization:
    def test_permutation_factors_are_relabelled_cycles(self):
        f = (6, 4, 1, 2, 5, 3)
        factors = canonical_factorization(f)
        assert [dom for _, dom in factors] == [(1, 3, 6), (2, 4), (5,)]
        assert [len(g) for g, _ in factors] == [3, 2, 1]
        assert all(len(subdomains(g)) == 1 for g, _ in factors)

    def test_constant_map_single_factor(self):
        f = (1, 1, 1, 1)
        assert len(subdomains(f)) == 1
        ((g, dom),) = canonical_factorization(f)
        assert dom == (1, 2, 3, 4)
        assert tuple(g) == (1, 1, 1, 1)

    def test_identity_map_factors(self):
        f = (1, 2, 3)
        factors = canonical_factorization(f)
        assert len(factors) == 3
        assert all(tuple(g) == (1,) for g, _ in factors)

    def test_factors_preserve_excedance_pattern(self):
        # the increasing relabelling keeps the sign of f(i) - i pointwise
        for word in itertools.product(range(1, 5), repeat=4):
            for g, dom in canonical_factorization(word):
                for local, orig in enumerate(dom, start=1):
                    lhs = (word[orig - 1] > orig) - (word[orig - 1] < orig)
                    rhs = (g[local - 1] > local) - (g[local - 1] < local)
                    assert lhs == rhs

    def test_permutation_factor_excedances_sum(self):
        p = (6, 4, 1, 2, 5, 3)
        total = sum(
            sum(1 for k, v in enumerate(g, start=1) if v > k)
            for g, _ in canonical_factorization(p)
        )
        strict = sum(1 for k, v in enumerate(p, start=1) if v > k)
        assert total == strict == 2
        assert excedance_vector(p) == (6, 3, 0, 0, 1, 0)

    def test_subdomains_partition(self):
        for word in itertools.product(range(1, 4), repeat=3):
            doms = subdomains(word)
            flat = sorted(x for d in doms for x in d)
            assert flat == [1, 2, 3]


def arborescences(n):
    """The maps of {1..n} whose (n-1)-st iterate is constant, counted from
    the literal definition."""
    return sum(map(literal_arborescence, itertools.product(range(1, n + 1), repeat=n)))


class TestCounts:
    def test_structural_matches_literal_definitions(self):
        for n in range(1, 6):
            literal = sum(map(literal_ultimately_idempotent, itertools.product(range(1, n + 1), repeat=n)))
            assert count_class_functions(n, "ultimately_idempotent") == literal

    def test_known_values(self):
        assert count_class_functions(0, "ultimately_idempotent") == 1
        assert arborescences(1) == 1
        assert arborescences(2) == 2

    def test_tree_count_relation(self):
        for n in range(1, 7):
            assert arborescences(n) == n * count_class_functions(n - 1, "ultimately_idempotent")

    def test_the_budget_stops_the_scan_before_any_map(self, monkeypatch):
        monkeypatch.setattr(itertools, "product", lambda *args, **kwargs: pytest.fail("visited a map"))
        with pytest.raises(BudgetError):
            count_class_functions(8, "ultimately_idempotent")

    def test_budget(self):
        with pytest.raises(ValueError):
            count_class_functions(3, "nonsense")
