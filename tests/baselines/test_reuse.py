"""Unit tests for stack distances, reuse histograms and the LRU stack."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reuse import COLD, LRUStack, ReuseHistogram, stack_distances


class TestStackDistances:
    def test_all_cold(self):
        assert stack_distances([1, 2, 3]) == [COLD, COLD, COLD]

    def test_immediate_reuse_is_zero(self):
        assert stack_distances([1, 1]) == [COLD, 0]

    def test_classic_example(self):
        # a b c a: distance of final a = 2 distinct (b, c) in between.
        assert stack_distances(["a", "b", "c", "a"]) == [COLD, COLD, COLD, 2]

    def test_duplicates_between_count_once(self):
        # a b b a: only one distinct item (b) between the two a's.
        assert stack_distances(["a", "b", "b", "a"]) == [COLD, COLD, 0, 1]

    def test_interleaved_streams(self):
        assert stack_distances([1, 2, 1, 2, 1, 2]) == [COLD, COLD, 1, 1, 1, 1]

    def test_empty(self):
        assert stack_distances([]) == []

    def test_matches_naive_lru_on_random_input(self):
        rng = random.Random(3)
        items = [rng.randrange(12) for _ in range(300)]

        # Naive reference: explicit LRU stack.
        stack = []
        expected = []
        for item in items:
            if item in stack:
                depth = stack.index(item)
                expected.append(depth)
                stack.remove(item)
            else:
                expected.append(COLD)
            stack.insert(0, item)
        assert stack_distances(items) == expected


class TestReuseHistogram:
    def test_fit_counts(self):
        histogram = ReuseHistogram.fit([COLD, 0, 0, 3])
        assert histogram.cold_count == 1
        assert histogram.counts[0] == 2
        assert histogram.counts[3] == 1
        assert histogram.total == 4

    def test_cold_fraction(self):
        histogram = ReuseHistogram.fit([COLD, 0, 0, 0])
        assert histogram.cold_fraction() == 0.25

    def test_empty_sample_is_cold(self):
        assert ReuseHistogram().sample(random.Random(0)) == COLD

    def test_sample_only_observed(self):
        histogram = ReuseHistogram.fit([1, 2, 2, 1])
        rng = random.Random(0)
        for _ in range(50):
            assert histogram.sample(rng) in (1, 2)

    def test_clamp_folds_large_distances(self):
        histogram = ReuseHistogram.fit([0, 31, 32, 100, COLD]).clamped(32)
        assert histogram.counts[31] == 3  # 31, 32 and 100 folded
        assert histogram.cold_count == 1

    def test_clamp_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            ReuseHistogram().clamped(0)

    def test_roundtrip(self):
        histogram = ReuseHistogram.fit([COLD, 0, 5, 5])
        assert ReuseHistogram.from_dict(histogram.to_dict()) == histogram


class TestLRUStack:
    def test_access_and_depth(self):
        stack = LRUStack()
        stack.access("a")
        stack.access("b")
        stack.access("c")
        assert stack.at_depth(0) == "c"
        assert stack.at_depth(1) == "b"
        assert stack.at_depth(2) == "a"

    def test_reaccess_moves_to_front(self):
        stack = LRUStack()
        for item in ("a", "b", "c"):
            stack.access(item)
        stack.access("a")
        assert stack.at_depth(0) == "a"
        assert stack.at_depth(1) == "c"
        assert len(stack) == 3

    def test_contains_and_len(self):
        stack = LRUStack()
        assert "x" not in stack
        stack.access("x")
        assert "x" in stack
        assert len(stack) == 1

    def test_remove(self):
        stack = LRUStack()
        stack.access("a")
        stack.access("b")
        stack.remove("a")
        assert "a" not in stack
        assert len(stack) == 1
        assert stack.at_depth(0) == "b"

    def test_depth_of(self):
        stack = LRUStack()
        for item in range(5):
            stack.access(item)
        for depth in range(5):
            assert stack.depth_of(stack.at_depth(depth)) == depth

    def test_at_depth_out_of_range(self):
        stack = LRUStack()
        stack.access(1)
        with pytest.raises(IndexError):
            stack.at_depth(1)
        with pytest.raises(IndexError):
            stack.at_depth(-1)

    def test_grows_past_initial_capacity(self):
        stack = LRUStack()
        for i in range(5000):
            stack.access(i % 700)  # forces many slot reallocations
        assert len(stack) == 700
        assert stack.at_depth(0) == 4999 % 700

    def test_matches_naive_lru(self):
        rng = random.Random(9)
        stack = LRUStack()
        naive = []
        for _ in range(2000):
            item = rng.randrange(50)
            stack.access(item)
            if item in naive:
                naive.remove(item)
            naive.insert(0, item)
            probe = rng.randrange(len(naive))
            assert stack.at_depth(probe) == naive[probe]


# -- Property tests: the fast kernels against their straightforward twins --

distance_lists = st.lists(
    st.one_of(st.just(COLD), st.integers(0, 40), st.integers(0, 5000)),
    min_size=1,
    max_size=80,
)


def choices_draws(counts, rng, draws):
    """The reference draw: ``random.choices`` over the sorted keys."""
    keys = sorted(counts)
    weights = [counts[key] for key in keys]
    return [rng.choices(keys, weights=weights, k=1)[0] for _ in range(draws)]


class TestReuseHistogramSampleProperties:
    @given(distance_lists, st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_fresh_histogram_matches_choices(self, distances, seed):
        histogram = ReuseHistogram.fit(distances)
        rng = random.Random(seed)
        draws = [histogram.sample(rng) for _ in range(30)]
        assert draws == choices_draws(histogram.counts, random.Random(seed), 30)

    @given(distance_lists, distance_lists, st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_add_invalidates_the_draw_table(self, distances, added, seed):
        histogram = ReuseHistogram.fit(distances)
        before = dict(histogram.counts)
        rng = random.Random(seed)
        draws = [histogram.sample(rng) for _ in range(10)]
        for distance in added:
            histogram.add(distance)
            draws.append(histogram.sample(rng))

        reference_rng = random.Random(seed)
        expected = choices_draws(before, reference_rng, 10)
        for distance in added:
            before[distance] = before.get(distance, 0) + 1
            expected += choices_draws(before, reference_rng, 1)
        assert draws == expected

    @given(distance_lists, st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_empty_then_added_histogram(self, added, seed):
        histogram = ReuseHistogram()
        rng = random.Random(seed)
        assert histogram.sample(rng) == COLD
        for distance in added:
            histogram.add(distance)
        draws = [histogram.sample(rng) for _ in range(10)]
        reference_rng = random.Random(seed)
        assert draws == choices_draws(histogram.counts, reference_rng, 10)

    @given(distance_lists, st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_from_dict_matches_choices(self, distances, seed):
        original = ReuseHistogram.fit(distances)
        original.sample(random.Random(0))  # a built table must not leak
        restored = ReuseHistogram.from_dict(original.to_dict())
        rng = random.Random(seed)
        draws = [restored.sample(rng) for _ in range(30)]
        assert draws == choices_draws(original.counts, random.Random(seed), 30)

    @given(distance_lists, st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_clamped_matches_choices(self, distances, rows, seed):
        original = ReuseHistogram.fit(distances)
        original.sample(random.Random(0))
        clamped = original.clamped(rows)
        rng = random.Random(seed)
        draws = [clamped.sample(rng) for _ in range(30)]
        assert draws == choices_draws(clamped.counts, random.Random(seed), 30)

    def test_zero_total_rejected_like_choices(self):
        histogram = ReuseHistogram.from_dict({"counts": [[3, 0]]})
        with pytest.raises(ValueError):
            random.Random(0).choices([3], weights=[0])
        with pytest.raises(ValueError):
            histogram.sample(random.Random(0))


class TestStackDistanceProperties:
    @given(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 30)), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_lru(self, items):
        stack, expected = [], []
        for item in items:
            if item in stack:
                expected.append(stack.index(item))
                stack.remove(item)
            else:
                expected.append(COLD)
            stack.insert(0, item)
        assert stack_distances(items) == expected


class TestLRUStackProperties:
    """``at_depth``/``depth_of`` against a plain list, across ``_grow``.

    Every access takes a fresh slot and the tree starts at 1024 slots,
    so 2,100+ operations cross both the 1024 and the 2048 boundary; the
    large universes also keep more than 1024 items live at once.
    """

    @given(
        st.integers(0, 2**32),
        st.sampled_from([3, 50, 700, 1500]),
        st.integers(2200, 2700),
        st.sampled_from([0.0, 0.05]),
    )
    @settings(max_examples=12, deadline=None)
    def test_matches_naive_list(self, seed, universe, operations, remove_rate):
        rng = random.Random(seed)
        stack = LRUStack()
        naive = []
        boundaries = {1023, 1024, 1025, 2047, 2048, 2049}
        for step in range(operations):
            if naive and rng.random() < remove_rate:
                item = rng.choice(naive)
                stack.remove(item)
                naive.remove(item)
            else:
                item = rng.randrange(universe)
                stack.access(item)
                if item in naive:
                    naive.remove(item)
                naive.insert(0, item)
            assert len(stack) == len(naive)
            if step in boundaries:
                depths = range(len(naive))
            elif naive:
                depths = [0, len(naive) - 1, rng.randrange(len(naive))]
            else:
                depths = []
            for depth in depths:
                item = stack.at_depth(depth)
                assert item == naive[depth]
                assert stack.depth_of(item) == depth
