"""Estimate container invariants."""

import pytest

from designlab.estimate import Estimate


def test_exact_requires_zero_error():
    Estimate(1.0, 0.0, 1, method="exact")
    with pytest.raises(ValueError):
        Estimate(1.0, 0.1, 1, method="exact")
    with pytest.raises(ValueError):
        Estimate(1.0, 0.0, 10, method="monte-carlo")


def test_converged_time_average_has_zero_error():
    # a time average whose halves agree to the last bit reports 0, not a marker
    assert Estimate(256.0, 0.0, 1024, method="time-average").std_error == 0.0
    assert Estimate(4.1, 0.02, 1024, method="time-average").std_error == 0.02


def test_sample_count_positive():
    with pytest.raises(ValueError):
        Estimate(1.0, 0.1, 0, method="monte-carlo")


def test_unknown_method():
    with pytest.raises(ValueError):
        Estimate(1.0, 0.1, 5, method="guess")


def test_real_accessor():
    assert Estimate(complex(2.0, 0.5), 0.1, 5).real == 2.0
