"""The fundamental transformation and its companion bijections."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import fundamental_by_keys, fundamental_inverse_by_segments, orbit_keys

from eulerian.permutations import (
    CIRCULAR,
    DERANGEMENT,
    LAST_IS_1,
    SUCCESSION_FREE,
    delta,
    descent_plus_certificate,
    descent_vector,
    enumerate_class,
    excedance_vector,
    is_in_class,
    orbits,
    rise_vector,
)
from eulerian.registry import _registry
from eulerian.transforms import (
    complement_reverse,
    excedance_to_descent,
    excedance_to_rise,
    excedance_to_rise_steps,
    fundamental,
    fundamental_inverse,
    reverse,
    to_circular,
    word_rotate,
)

RUNNING = (6, 4, 1, 2, 5, 3)
# the exhaustive certifications, as the verify registry declares them
DECLARED = {decl.name: decl.run for decl in _registry()}


large_perms = st.integers(50, 500).flatmap(lambda n: st.permutations(range(1, n + 1)))

# the five biexcedent words of size 4 and their images, as printed in the
# reference table
BIEXCEDENT_TABLE = [
    ((2, 1, 4, 3), (2, 1, 4, 3)),
    ((3, 4, 1, 2), (3, 1, 4, 2)),
    ((4, 3, 2, 1), (3, 2, 4, 1)),
    ((4, 3, 1, 2), (4, 1, 3, 2)),
    ((3, 4, 2, 1), (4, 2, 3, 1)),
]


class TestFundamental:
    def test_orbit_keys_running_example(self):
        # orbits {1,6,3} (max 6), {2,4} (max 4), {5}: pair (max, steps-to-max)
        assert orbit_keys(RUNNING) == ((6, 1), (4, 1), (6, 2), (4, 0), (5, 0), (6, 0))

    def test_orbit_keys_total_order(self):
        for p in enumerate_class(6):
            keys = orbit_keys(p)
            assert len(set(keys)) == len(keys)
            for k, (m, steps) in enumerate(keys, start=1):
                orbit = next(orb for orb in orbits(p) if k in orb)
                assert steps < len(orbit)
                assert m == max(orbit)

    def test_running_example(self):
        assert fundamental(RUNNING) == (4, 2, 5, 6, 1, 3)

    @given(large_perms)
    @settings(max_examples=40, deadline=None)
    def test_large_words(self, word):
        p = tuple(word)
        image = fundamental(p)
        assert image == fundamental_by_keys(p)
        assert fundamental_inverse(image) == p
        assert fundamental_inverse(p) == fundamental_inverse_by_segments(p)

    def test_identity_fixed(self):
        p = (1, 2, 3, 4, 5)
        assert fundamental(p) == p

    def test_biexcedent_table_rows(self):
        for source, image in BIEXCEDENT_TABLE:
            assert fundamental(source) == image

    def test_inverse_running_example(self):
        assert fundamental_inverse((4, 2, 5, 6, 1, 3)) == RUNNING

    def test_inverse_identity(self):
        p = (1, 2, 3, 4)
        assert fundamental_inverse(p) == p

    def test_roundtrip_exhaustive(self):
        for n in range(7):
            assert DECLARED["fundamental-roundtrip"](n=n).ok


class TestSimpleMaps:
    def test_reverse(self):
        assert reverse(RUNNING) == (3, 5, 2, 1, 4, 6)
        assert reverse(reverse(RUNNING)) == RUNNING
        assert reverse((1,)) == (1,)

    def test_complement_reverse(self):
        assert complement_reverse(RUNNING) == (4, 2, 5, 6, 3, 1)
        assert complement_reverse(complement_reverse(RUNNING)) == RUNNING
        p = (1, 2, 3, 4, 5)
        assert complement_reverse(p) == p

    def test_word_rotate(self):
        assert word_rotate(RUNNING, 1) == (4, 1, 2, 5, 3, 6)
        assert word_rotate(RUNNING, 0) == RUNNING
        assert word_rotate(RUNNING, 6) == RUNNING

    def test_word_rotate_is_a_bijection(self):
        for n in (1, 4, 5):
            for r in range(n):
                images = {word_rotate(p, r) for p in enumerate_class(n)}
                assert len(images) == len(list(enumerate_class(n)))
                for p in enumerate_class(n):
                    assert word_rotate(word_rotate(p, r), n - r) == p


class TestComposites:
    def test_rise_map_running_example(self):
        s1, s2, bar = excedance_to_rise_steps(RUNNING)
        assert s1 == (4, 1, 2, 5, 3, 6)
        assert s2 == (5, 4, 1, 2, 3, 6)
        assert bar == (6, 3, 2, 1, 4, 5)
        assert excedance_vector(RUNNING) == rise_vector(bar)

    def test_rise_map_singleton(self):
        assert excedance_to_rise((1,)) == (1,)

    def test_derangements_onto_succession_free(self):
        images = {excedance_to_rise(p) for p in enumerate_class(4, DERANGEMENT)}
        assert images == set(enumerate_class(4, SUCCESSION_FREE))

    def test_descent_map_smallest_case(self):
        assert excedance_to_descent((2, 1)) == (2, 1)

    def test_descent_map_rejects_bad_input(self):
        with pytest.raises(ValueError):
            excedance_to_descent((1, 2))

    def test_descent_map_bijection_and_transport(self):
        for n in (1, 2, 5, 6):
            assert DECLARED["descent-transport"](n=n).ok

    def test_descent_map_statistics_exhaustive(self):
        for p in enumerate_class(6, LAST_IS_1):
            q = excedance_to_descent(p)
            assert delta(excedance_vector(p)) == delta(descent_vector(q))

    def test_circular_embedding_empty(self):
        image = to_circular(())
        assert image == (1,)

    def test_circular_embedding_counts(self):
        images = {to_circular(p) for p in enumerate_class(3)}
        assert len(images) == 6  # (4-1)!

    def test_circular_embedding_statistics(self):
        for n in (2, 5, 6):
            assert DECLARED["circular-embedding"](n=n).ok


class TestLargeWords:
    """The transported statistics on single words of size 50 to 500, far
    beyond the exhaustive sweeps."""

    @given(large_perms)
    @settings(max_examples=30, deadline=None)
    def test_fundamental_carries_excedances_to_descents(self, word):
        p = tuple(word)
        assert excedance_vector(p) == descent_plus_certificate(fundamental(p))

    @given(large_perms)
    @settings(max_examples=30, deadline=None)
    def test_excedance_to_rise(self, word):
        p = tuple(word)
        assert excedance_vector(p) == rise_vector(excedance_to_rise(p))

    @given(large_perms)
    @settings(max_examples=30, deadline=None)
    def test_to_circular_lands_in_the_circular_class(self, word):
        p = tuple(word)
        image = to_circular(p)
        assert is_in_class(image, CIRCULAR)
        assert excedance_vector(p) == delta(excedance_vector(image))


class TestCertifications:
    """The registry's transport declarations at unit-test scale."""

    @pytest.mark.parametrize("n", range(7))
    def test_fundamental_statistics(self, n):
        assert DECLARED["fundamental-statistics"](n=n).ok

    @pytest.mark.parametrize("n", range(7))
    def test_fundamental_bijection(self, n):
        assert DECLARED["fundamental-bijection"](n=n).ok

    @pytest.mark.parametrize("n", range(1, 7))
    def test_record_orbit_lemma(self, n):
        assert DECLARED["record-orbit-lemma"](n=n).ok

    @pytest.mark.parametrize("n", range(1, 7))
    def test_valley_position_lemma(self, n):
        assert DECLARED["valley-position-lemma"](n=n).ok

    @pytest.mark.parametrize("n", range(1, 7))
    def test_biexcedent_alternating(self, n):
        assert DECLARED["biexcedent-alternating"](n=n).ok

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rise_transport(self, n):
        assert DECLARED["rise-transport"](n=n).ok

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reverse_rise(self, n):
        assert DECLARED["reverse-rise"](n=n).ok

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rotation_shift(self, n):
        for r in range(n + 1):
            assert DECLARED["rotation-shift"](n=n, r=r).ok

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complement_count(self, n):
        assert DECLARED["complement-count"](n=n).ok

    @pytest.mark.parametrize("n", range(1, 7))
    def test_fixed_point_split(self, n):
        assert DECLARED["fixed-point-split"](n=n).ok
