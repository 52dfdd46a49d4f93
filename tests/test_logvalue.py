import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lepart import LogValue

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_from_float_round_trip():
    for x in (1.5, 2.25, 1e-300, 1e300, 3.0):
        assert close(LogValue.from_float(x).to_float(), x)


def test_from_float_rejects_nonpositive():
    for x in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            LogValue.from_float(x)


@given(positive, positive)
def test_multiplication_matches_floats(a, b):
    got = (LogValue.from_float(a) * LogValue.from_float(b)).to_float()
    assert close(got, a * b, tol=1e-9)


def test_division():
    x = LogValue.from_float(21.0) / LogValue.from_float(3.0)
    assert close(x.to_float(), 7.0)


def test_huge_values_stay_finite_in_log_space():
    big = LogValue.from_log(5e5)  # exp would overflow
    prod = big * big
    assert prod.logmag == 1e6
    assert math.isinf(prod.to_float())
    ratio = prod / big
    assert close(ratio.logmag, 5e5)


def test_integer_powers():
    x = LogValue.from_float(2.0)
    assert close((x**3).to_float(), 8.0)
    assert close((x**2).to_float(), 4.0)
    assert close((x**-1).to_float(), 0.5)
    with pytest.raises(TypeError):
        x ** 0.5


def test_log_requires_positive():
    with pytest.raises(ValueError):
        LogValue.from_float(-1.0).log()
    assert LogValue.from_float(math.e).log() == pytest.approx(1.0)
