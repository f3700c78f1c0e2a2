import pytest

from fibcobweb.fence import count_ideals
from fibcobweb.guards import GuardExceeded
from fibcobweb.verify import count_ideals_oracle, linear_ideal_counts


def test_count_ideals_examples():
    assert count_ideals(0) == 1
    assert count_ideals(3) == 5
    assert count_ideals(10) == 144
    with pytest.raises(ValueError):
        count_ideals(-1)


def test_oracle_examples():
    assert count_ideals_oracle(1) == 2
    assert count_ideals_oracle(2) == 3
    assert count_ideals_oracle(4) == 8


def test_oracle_guard():
    with pytest.raises(GuardExceeded):
        count_ideals_oracle(21)


def test_matrix_power_matches_linear_transfer():
    for m, want in enumerate(linear_ideal_counts(2000)):
        assert count_ideals(m) == want
    *_, even, odd = linear_ideal_counts(40001)
    assert (count_ideals(40000), count_ideals(40001)) == (even, odd)
