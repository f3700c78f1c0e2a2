import pytest

from fibcobweb.fence import FencePoset, beck_identities, count_ideals
from fibcobweb.guards import GuardExceeded
from fibcobweb.seqcore import fib
from fibcobweb.verify import (
    count_filters_oracle,
    count_ideals_oracle,
    linear_ideal_counts,
)


def test_fence_covers():
    assert FencePoset(0).covers == ()
    assert FencePoset(1).covers == ()
    assert FencePoset(2).covers == ((1, 2),)
    assert FencePoset(4).covers == ((1, 2), (3, 2), (3, 4))
    with pytest.raises(ValueError):
        FencePoset(-1)


def test_fence_poset_is_an_immutable_value():
    assert FencePoset(3) == FencePoset(3)
    assert FencePoset(3) != FencePoset(4)
    assert FencePoset(3) != 3
    assert hash(FencePoset(3)) == hash(FencePoset(3))
    assert len({FencePoset(3), FencePoset(3), FencePoset(4)}) == 2
    assert repr(FencePoset(3)) == "FencePoset(size=3)"
    with pytest.raises(AttributeError):
        FencePoset(3).size = 4


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


def test_transfer_matches_oracle():
    for m in range(13):
        assert count_ideals(m) == count_ideals_oracle(m)


def test_matrix_power_matches_linear_transfer():
    for m, want in enumerate(linear_ideal_counts(2000)):
        assert count_ideals(m) == want
    *_, even, odd = linear_ideal_counts(40001)
    assert (count_ideals(40000), count_ideals(40001)) == (even, odd)


def test_ideal_count_is_fibonacci():
    for m in range(31):
        assert count_ideals(m) == fib(m + 2)


def test_filters_match_ideals():
    for m in range(13):
        assert count_filters_oracle(m) == count_ideals_oracle(m)


def test_beck_identities_examples():
    assert beck_identities(6, 3)
    assert fib(6) == fib(3) * fib(4) + fib(2) * fib(3)  # 8 = 2*3 + 1*2
    assert beck_identities(10, 5)
    assert fib(10) == fib(5) * fib(6) + fib(4) * fib(5)  # 55 = 5*8 + 3*5
    for n in range(2, 41):
        assert beck_identities(n, 2)


def test_beck_identities_range():
    for n in range(2, 26):
        for k in range(2, n + 1):
            assert beck_identities(n, k)


def test_beck_identities_validation():
    with pytest.raises(ValueError):
        beck_identities(5, 1)
    with pytest.raises(ValueError):
        beck_identities(3, 4)
