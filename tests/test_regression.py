"""The reduced workload problems reproduce their recorded results.

``make_regression.py`` defines the problems and regenerates
``regression.json``.  Every record is compared at 1e-12 relative: reordered
sums move these numbers by a few ulps, a changed scheme by far more.
"""

import json

import numpy as np
import pytest

from make_regression import CASES, DATA

RECORDS = json.loads(DATA.read_text())


def test_every_case_is_recorded():
    assert RECORDS.keys() == CASES.keys()


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_its_record(name):
    got = CASES[name]()
    want = RECORDS[name]
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0.0,
                                   err_msg=f"{name}: {key}")
