"""Tests for the fixed-bin, mergeable histogram."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.metrics.histogram import Histogram, merge_states


def _filled(bin_width, values):
    histogram = Histogram(bin_width)
    for value in values:
        histogram.record(value)
    return histogram


class TestHistogram:
    def test_binning(self):
        histogram = _filled(10.0, [0.0, 5.0, 9.9, 10.0, 25.0])
        bins = histogram.bins()
        assert bins == [(0.0, 10.0, 3), (10.0, 20.0, 1), (20.0, 30.0, 1)]

    def test_mean_is_running_sum_over_count(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        histogram = _filled(1.0, values)
        assert histogram.mean() == sum(values) / len(values) == 5.0
        assert histogram.count == 8

    def test_empty_statistics(self):
        histogram = Histogram(1.0)
        assert histogram.mean() == 0.0
        assert histogram.count == 0
        assert histogram.percentile(50) == 0.0

    def test_percentiles(self):
        # Samples 1..n at bin width 1: sample k sits in [k, k + 1), so
        # the answer is the upper edge of the rank-th sample's bin,
        # rank = max(1, ceil(q * n / 100)).
        cases = [
            (100, 50, 51.0),
            (100, 90, 91.0),
            (100, 100, 101.0),
            (100, 0, 2.0),
            # q * n / 100 is exactly 999 here, so rank 999, not the
            # maximum -- q / 100 * n would round up to 999.0000000000001.
            (1000, 99.9, 1000.0),
        ]
        for n, q, edge in cases:
            histogram = _filled(1.0, [float(v) for v in range(1, n + 1)])
            assert histogram.percentile(q) == edge, (n, q)

    def test_invalid_inputs(self):
        with pytest.raises(ReproError):
            Histogram(0.0)
        histogram = Histogram(1.0)
        with pytest.raises(ReproError):
            histogram.record(-1.0)
        with pytest.raises(ReproError):
            histogram.percentile(101)


class TestEmptyHistogram:
    def test_percentiles_on_empty_histogram_are_zero(self):
        histogram = Histogram(10.0)
        for q in (0, 50, 95, 100):
            assert histogram.percentile(q) == 0.0

    def test_empty_histogram_summary_stats(self):
        histogram = Histogram(10.0)
        assert histogram.count == 0
        assert histogram.mean() == 0.0
        assert histogram.bins() == []

    def test_percentile_bounds_still_enforced_when_empty(self):
        histogram = Histogram(10.0)
        with pytest.raises(ReproError):
            histogram.percentile(-0.1)
        with pytest.raises(ReproError):
            histogram.percentile(100.1)


class TestBinBoundaries:
    def test_value_on_exact_bin_boundary_opens_the_next_bin(self):
        histogram = Histogram(10.0)
        histogram.record(10.0)
        assert histogram.bins() == [(10.0, 20.0, 1)]

    def test_zero_lands_in_first_bin(self):
        histogram = Histogram(10.0)
        histogram.record(0.0)
        assert histogram.bins() == [(0.0, 10.0, 1)]


class TestMergeAndWindows:
    def test_merge_adds_bins_count_and_sum(self):
        merged = _filled(5.0, [1.0, 7.0])
        merged.merge(_filled(5.0, [2.0, 12.0]))
        assert merged.bins() == [(0.0, 5.0, 2), (5.0, 10.0, 1),
                                 (10.0, 15.0, 1)]
        assert merged.count == 4
        assert merged.mean() == 5.5

    def test_merge_rejects_a_different_width(self):
        with pytest.raises(ReproError, match="bin width"):
            Histogram(5.0).merge(Histogram(10.0))

    def test_since_an_earlier_copy_is_the_window(self):
        histogram = _filled(5.0, [1.0, 6.0])
        earlier = histogram.copy()
        for value in (2.0, 2.5, 11.0):
            histogram.record(value)
        window = histogram.since(earlier)
        assert window.bins() == [(0.0, 5.0, 2), (10.0, 15.0, 1)]
        assert window.count == 3
        assert window.mean() == pytest.approx(15.5 / 3)
        assert earlier.count == 2  # the copy did not move
        assert histogram.since(None).bins() == histogram.bins()

    def test_snapshot_state_is_the_registry_shape(self):
        histogram = _filled(5.0, [1.0, 6.0, 7.0])
        assert histogram.snapshot_state() == {
            "count": 3,
            "mean": 14.0 / 3,
            "bins": [[0.0, 5.0, 1], [5.0, 10.0, 2]],
        }

    def test_merge_states_folds_snapshots_in_order(self):
        parts = [_filled(5.0, [1.0, 6.0]), Histogram(5.0),
                 _filled(5.0, [7.5])]
        merged = merge_states([part.snapshot_state() for part in parts])
        assert merged.bin_width == 5.0
        assert merged.bins() == [(0.0, 5.0, 1), (5.0, 10.0, 2)]
        weighted = 0.0
        for part in parts:
            weighted += part.mean() * part.count
        assert merged.mean() == weighted / 3

    def test_merge_states_rejects_bins_off_the_width_grid(self):
        state = {"count": 2, "mean": 1.0,
                 "bins": [[0.0, 1.0, 1], [1.5, 2.5, 1]]}
        with pytest.raises(ReproError, match="grid"):
            merge_states([state])


_samples = st.lists(st.floats(min_value=0.0, max_value=500.0,
                              allow_nan=False), max_size=60)


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(_samples, min_size=1, max_size=4))
def test_merging_parts_equals_recording_every_sample(parts):
    whole = Histogram(5.0)
    merged = Histogram(5.0)
    for part in parts:
        for value in part:
            whole.record(value)
        merged.merge(_filled(5.0, part))
    assert merged.bins() == whole.bins()
    assert merged.count == whole.count
    for q in (50, 99, 99.9):
        assert merged.percentile(q) == whole.percentile(q)
