"""Checks of the reference computation that normalizes the benchmark's times.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from reference import BURST_S, REFERENCE_S, Speedometer, reference  # noqa: E402


def test_reference_is_fixed():
    a = reference()
    b = reference()
    assert (a == b).all()


def test_burst_times_at_least_its_length():
    speed = Speedometer()
    speed.burst()
    assert speed.times
    assert sum(speed.times) <= BURST_S + 2 * max(speed.times)
    assert sum(speed.times) + max(speed.times) >= BURST_S


def test_normalized_is_the_ratio_of_means_in_reference_units():
    speed = Speedometer()
    speed.times = [1e-3, 3e-3]       # mean 2 ms
    assert speed.normalized([4.0, 8.0]) == pytest.approx(6.0 / 2e-3 * REFERENCE_S)
    # a machine slowed by a common factor leaves the result unchanged
    speed.times = [2e-3, 6e-3]
    assert speed.normalized([8.0, 16.0]) == pytest.approx(6.0 / 2e-3 * REFERENCE_S)
