"""Tests for ``stats.py`` — arithmetic only, no clock anywhere."""

import pytest

import stats


def test_median_of_windows_ignores_one_bad_window():
    assert stats.median([100.0, 101.0, 99.0, 12.0]) == 99.5
    assert stats.median([7.0]) == 7.0
    with pytest.raises(stats.InsufficientSamples):
        stats.median([])


def test_pooled_percentile_needs_samples_beyond_it():
    samples = list(range(1, 201))            # 200 samples: 100 beyond the median
    assert stats.pooled_percentile(samples, 50) == 100
    with pytest.raises(stats.InsufficientSamples):
        stats.pooled_percentile(samples[:199], 50)
    with pytest.raises(stats.InsufficientSamples):
        stats.pooled_percentile(samples, 95)   # only 10 beyond p95
    assert stats.pooled_percentile(list(range(1, 2001)), 95) == 1900
    # low percentiles count the samples below them
    with pytest.raises(stats.InsufficientSamples):
        stats.pooled_percentile(samples, 5)
    assert stats.pooled_percentile(samples, 5, min_beyond=10) == 10


def test_pooled_percentile_is_order_independent_and_validates():
    shuffled = [5, 1, 4, 2, 3]
    assert stats.pooled_percentile(shuffled, 50, min_beyond=1) == 3
    for bad in (0, 100, -1):
        with pytest.raises(ValueError):
            stats.pooled_percentile(shuffled, bad, min_beyond=1)


def test_highest_percentile_falls_back_to_what_the_samples_answer():
    assert stats.highest_percentile(list(range(1, 201))) == (50.0, 100.0)
    assert stats.highest_percentile(list(range(1, 10_001)))[0] == 99.0
    assert stats.highest_percentile(list(range(1, 2001)))[0] == 95.0
    with pytest.raises(stats.InsufficientSamples):
        stats.highest_percentile([1.0] * 50)


def test_spread_share_matches_the_drivers_definition():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4) of 10..19 gives 11.75, 14.5, 17.25
    assert stats.spread_share(values) == pytest.approx(5.5 / 14.5)
    assert stats.spread_share([3.0, 3.0, 3.0]) == 0.0
    with pytest.raises(stats.InsufficientSamples):
        stats.spread_share([1.0])


def test_bound_comparison_is_signed_by_direction():
    assert stats.worse_by(100.0, 108.0, "lower") == pytest.approx(0.08)
    assert stats.worse_by(100.0, 92.0, "higher") == pytest.approx(0.08)
    assert stats.worse_by(100.0, 92.0, "lower") == pytest.approx(-0.08)
    assert stats.within_bound(100.0, 108.0, "lower", 0.08)
    assert not stats.within_bound(100.0, 108.1, "lower", 0.08)
    assert stats.within_bound(100.0, 50.0, "lower", 0.0)       # better is fine
    assert not stats.within_bound(10.0, 10.0001, "lower", 0.0)  # exact metric
    with pytest.raises(ValueError):
        stats.worse_by(1.0, 1.0, "sideways")
    with pytest.raises(ZeroDivisionError):
        stats.worse_by(0.0, 1.0, "lower")
