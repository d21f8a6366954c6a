import pytest

from stats import percentile, tail


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 500) == 5
    assert percentile(values, 900) == 9
    assert percentile(values, 999) == 10
    assert percentile([3.0], 500) == 3.0


@pytest.mark.parametrize(
    "n, pct",
    [(20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    values = [float(i) for i in range(n)]
    value, got_pct, count = tail(values)
    assert (got_pct, count) == (pct, n)
    beyond = sum(1 for v in values if v > value)
    assert beyond >= 10


def test_tail_falls_back_to_maximum_below_twenty_samples():
    values = [0.5, 0.1, 0.9, 0.3]
    assert tail(values) == (0.9, 100.0, 4)
    assert tail([float(i) for i in range(19)])[1:] == (100.0, 19)

