import pytest

from bench.stats import (
    MIN_BEYOND,
    best_vector,
    percentile,
    trimmed_ops_per_second,
)


def test_best_vector_takes_the_fastest_rep_per_call():
    reps = [[3.0, 1.0, 5.0], [2.0, 4.0, 5.0], [9.0, 9.0, 0.5]]
    assert best_vector(reps) == [2.0, 1.0, 0.5]


def test_best_vector_rejects_reps_of_different_length():
    with pytest.raises(ValueError):
        best_vector([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        best_vector([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([7.0], 50) == 7.0


def test_p99_needs_ten_samples_beyond_it():
    enough = list(range(1000))
    assert percentile(enough, 99) == 989
    assert len(enough) - 990 == MIN_BEYOND
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == 89


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_trimmed_throughput_drops_the_slowest_tenth():
    samples = [0.001] * 90 + [1.0] * 10
    assert trimmed_ops_per_second(samples) == pytest.approx(1000.0)
    assert trimmed_ops_per_second([0.5]) == pytest.approx(2.0)
