import math

from lepart import LogValue


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_from_float_round_trip():
    for x in (1.5, 2.25, 1e-300, 1e300, 3.0, math.e):
        v = LogValue(math.log(x))
        assert close(v.to_float(), x)
        assert v.log() == math.log(x)


def test_huge_values_stay_finite_in_log_space():
    big = LogValue(1e6)  # exp would overflow
    assert big.log() == 1e6
    assert math.isinf(big.to_float())


def test_tiny_values_underflow_to_zero():
    tiny = LogValue(-1e6)
    assert tiny.log() == -1e6
    assert tiny.to_float() == 0.0
