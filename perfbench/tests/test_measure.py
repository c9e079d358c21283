"""Percentile rank rule, the ten-beyond-the-tail rule, and the share test."""

import math
import random

import pytest

from perfbench import measure, run, workloads


def test_rank_is_exact_where_floating_point_is_not():
    # 0.95 * 200 == 190.00000000000003 in floating point.
    assert measure.percentile_rank(200, 95) == 190
    assert measure.percentile_rank(100, 50) == 50
    assert measure.percentile_rank(101, 50) == 51
    assert measure.percentile_rank(1, 95) == 1
    assert measure.percentile_rank(1000, 99) == 990


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    random.Random(3).shuffle(values)
    assert measure.percentile(values, 95) == 190
    assert measure.percentile(values, 50) == 100
    assert measure.percentile(values, 100) == 200
    assert measure.percentile([7.5], 95) == 7.5


@pytest.mark.parametrize("count, q", [(0, 50), (10, 0), (10, 101)])
def test_percentile_rejects_bad_arguments(count, q):
    with pytest.raises(ValueError):
        measure.percentile_rank(count, q)


def test_ten_samples_beyond_the_tail():
    assert measure.samples_beyond(200, 95) == 10
    assert measure.samples_beyond(199, 95) == 9
    assert measure.min_samples_for_tail(95) == 200
    assert measure.min_samples_for_tail(99) == 1000
    assert measure.min_samples_for_tail(50) == 20
    assert run.MIN_SLICES == measure.min_samples_for_tail(95)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_pass_gives_p95_its_ten_samples(name):
    # p95 is taken over one pass's slice floors, so a single pass must
    # hold enough slices.
    assert workloads.make_workload(name, 1).slices >= run.MIN_SLICES


def test_floors_keep_each_positions_fastest_repeat():
    assert measure.floors([[3.0, 1.0, 5.0], [2.0, 4.0, 6.0],
                           [9.0, 9.0, 0.5]]) == [2.0, 1.0, 0.5]
    assert measure.floors([[1.5, 2.5]]) == [1.5, 2.5]
    with pytest.raises(ValueError):
        measure.floors([])
    with pytest.raises(ValueError):
        measure.floors([[1.0, 2.0], [1.0]])


def test_reference_loop_does_fixed_work():
    # The loop defines the unit of every end-to-end time; its work must
    # not change (see measure.REFERENCE_UNIT_S).
    assert measure.reference_work() == measure.reference_work() == 315150711
    assert measure.time_reference() > 0


def test_reference_scale_is_unit_over_median_floor():
    unit = measure.REFERENCE_UNIT_S
    # Floors per position: [unit, 2 unit, 4 unit]; median 2 unit.
    repeats = [[unit, 2 * unit, 5 * unit], [3 * unit, 2 * unit, 4 * unit]]
    assert measure.reference_scale(repeats) == pytest.approx(0.5)
    # A host twice as slow everywhere halves the scale.
    slow = [[2 * t for t in timings] for timings in repeats]
    assert measure.reference_scale(slow) == pytest.approx(0.25)


def test_chi_square_survival_closed_form():
    assert measure.chi2_sf_even(0.0, 12) == pytest.approx(1.0)
    assert measure.chi2_sf_even(3.0, 2) == pytest.approx(math.exp(-1.5))
    # Tabulated critical value of chi-square(12) at p = 0.001.
    assert measure.chi2_sf_even(32.909, 12) == pytest.approx(0.001, rel=1e-3)
    with pytest.raises(ValueError):
        measure.chi2_sf_even(1.0, 3)


def test_chi_square_statistic():
    assert measure.chi_square([50, 50], [0.5, 0.5]) == 0.0
    assert measure.chi_square([60, 40], [0.5, 0.5]) == pytest.approx(4.0)
