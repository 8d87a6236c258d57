"""The declared range of a setting: open and closed ends, NaN and infinities."""

import math

import pytest

from diarkit.errors import Interval, InvalidInputError

INF = math.inf


@pytest.mark.parametrize("interval,inside,outside", [
    (Interval("x", 0.0, 1.0), [0.0, 0.5, 1 - 1e-16], [1.0, -1e-300, math.nan, INF, -INF]),
    (Interval("x", 0.0, 1.0, "(]"), [1e-300, 1.0], [0.0, 1.5, math.nan, INF]),
    (Interval("x", 1), [1, 2, 10**30], [0, -1, INF, math.nan]),
    (Interval("x", -INF, INF, "[]"), [-INF, INF, 0.0], [math.nan]),
    (Interval("x", 1.5, ends="()"), [1.5000001], [1.5, INF, -INF, math.nan]),
])
def test_membership(interval, inside, outside):
    assert all(v in interval for v in inside)
    assert not any(v in interval for v in outside)
    assert all(interval.check(v) is v for v in inside)


def test_check_names_the_setting_and_the_interval():
    with pytest.raises(InvalidInputError, match=r"^collar must be in \[0, inf\), got nan$"):
        Interval("collar", 0.0).check(math.nan)
    with pytest.raises(InvalidInputError, match=r"^fraction must be in \(0, 1\], got 0$"):
        Interval("fraction", 0.0, 1.0, "(]").check(0)
    assert str(Interval("t", -INF, INF, "[]")) == "[-inf, inf]"
