"""Tests for the summary-statistics helpers."""

import statistics

import pytest

from repro.sim.stats import percentile, summarize


class TestPercentile:
    def test_single_value(self):
        assert percentile([7], 50) == 7
        assert percentile([7], 99) == 7

    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_extremes(self):
        data = list(range(1, 101))
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 100
        assert percentile(data, 90) == 90

    def test_unsorted_input(self):
        assert percentile([5, 1, 9, 3], 50) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_agrees_with_statistics_median_on_odd_samples(self):
        data = [9, 2, 5, 7, 1]
        assert percentile(data, 50) == statistics.median(data)


class TestSummarize:
    def test_full_summary(self):
        s = summarize([4, 1, 3, 2])
        assert s["n"] == 4
        assert s["min"] == 1 and s["max"] == 4
        assert s["mean"] == 2.5
        assert s["p50"] == 2

    def test_empty_sample_marker(self):
        assert summarize([]) == {"n": 0}


class TestJainIndex:
    def test_all_equal_is_one(self):
        from repro.sim.stats import jain_index

        assert jain_index([5, 5, 5]) == pytest.approx(1.0)

    def test_maximally_unfair_is_one_over_n(self):
        from repro.sim.stats import jain_index

        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero_none(self):
        from repro.sim.stats import jain_index

        assert jain_index([]) is None
        assert jain_index([0, 0]) is None

    def test_bounds(self):
        from repro.sim.stats import jain_index

        v = jain_index([1, 2, 3, 4, 100])
        assert 0 < v <= 1
