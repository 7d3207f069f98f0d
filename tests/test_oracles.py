"""The working precision of ``oracles.exact_point`` follows its inputs.

At a fixed 80 digits the oracle lost every digit of a value that is a
difference of terms more than 1e80 times its size: n_L - n_R of a hot spin
bath, the measures of a hot bath, which fall like (omega/T)^2, and the
measures of a cold state within a tiny weight of a pure one. Each point here
was wrong at 80 digits; at the precision chosen from its inputs it agrees
with a far more precise evaluation to some 70 digits.
"""

import mpmath
import pytest
from oracles import exact_point


def _agree(value, reference, digits=70):
    return abs(value - reference) <= mpmath.mpf(10) ** -digits * abs(reference)


def test_a_hot_spin_current():
    # at T = 1e300, n_L - n_R of a spin bath is some 1e-301 of either n
    args = (0.2, 1.0, "spin", 1e300, 1e300, 1e300, 2e300)
    point, reference = exact_point(*args), exact_point(*args, digits=800)
    assert float(point.heat_current) == pytest.approx(-0.065, rel=1e-12)
    assert _agree(point.heat_current, reference.heat_current)
    # the measures, some 1e-600, as well
    assert 0 < point.mutual_information < mpmath.mpf(10) ** -590
    for field in ("discord", "mutual_information", "classical_correlation"):
        assert _agree(getattr(point, field), getattr(reference, field))
    assert exact_point(*args, digits=80).heat_current == 0


def test_a_cold_inverted_state():
    # channel weights down to 1e-290 at T = 0.003 and 0.004: the state is within
    # some 2e-109 of |dd>, and the measures are about that size
    args = (1.5, 0.5, "boson", 1.0, 0.3, 0.004, 0.003)
    point, reference = exact_point(*args), exact_point(*args, digits=600)
    assert float(point.mutual_information) == pytest.approx(2.0532232427240695e-109, rel=1e-12)
    for field in point._fields:
        assert _agree(getattr(point, field), getattr(reference, field))
    assert exact_point(*args, digits=80).mutual_information < 0
