import math
import time
import tracemalloc

import pytest

from fibcobweb.guards import GuardExceeded
from fibcobweb.seqcore import q_binomial
from fibcobweb.weighted import (
    WeightVector,
    c_coeff,
    c_coeff_oracle,
    preset_log2,
    preset_weights,
    s_coeff,
    s_coeff_oracle,
)


def test_weight_vector_validation():
    assert WeightVector((1, 2, 2, 5)) == (1, 2, 2, 5)
    assert WeightVector(()) == ()
    with pytest.raises(ValueError, match="weights must be >= 1, got 0"):
        WeightVector((0, 1))
    with pytest.raises(ValueError, match=r"nondecreasing, got \(2, 1\)"):
        WeightVector((2, 1))
    # a positive weight is checked before the order
    with pytest.raises(ValueError, match=">= 1, got 0"):
        WeightVector((2, 1, 0))


def test_weight_vector_rejects_non_integers():
    # int() would truncate 1.9 to 1 and accept "3"
    for weights in ((1.9, 2.7), ("3",), (1, 2.0)):
        with pytest.raises(TypeError):
            WeightVector(weights)
        with pytest.raises(TypeError):
            c_coeff(weights, 2)
        with pytest.raises(TypeError):
            s_coeff(weights, 2)


def test_weight_vector_is_a_checked_tuple():
    wv = WeightVector((1, 2))
    assert isinstance(wv, tuple)
    assert wv == (1, 2) and (1, 2) == wv and wv != (1, 3)
    assert hash(wv) == hash((1, 2))
    assert len({wv, (1, 2), WeightVector([1, 2])}) == 1
    assert len(wv) == 2 and wv[1] == 2 and list(wv) == [1, 2]
    assert repr(wv) == "WeightVector(1, 2)"


def test_weight_vector_is_immutable():
    wv = WeightVector((1, 2))
    with pytest.raises(AttributeError):
        wv.weights = (9,)
    with pytest.raises(TypeError):
        wv[0] = 9


def test_c_coeff_examples():
    assert c_coeff((1, 1, 1), 2) == 3
    assert c_coeff((1, 2, 3), 2) == 11
    assert c_coeff((1, 2, 3), 5) == 0
    assert c_coeff((), 0) == 1


def test_s_coeff_examples():
    assert s_coeff((1, 1, 1), 2) == 6
    assert s_coeff((1, 2, 3), 2) == 25
    assert s_coeff((4, 9), 0) == 1
    # no k >= 1 objects can be chosen from no boxes, as in the first kind
    assert s_coeff((), 1) == 0


def test_s_coeff_over_no_boxes_builds_no_row():
    # a (k + 1)-cell row at k = 10**12 would need terabytes
    tracemalloc.start()
    try:
        started = time.perf_counter()
        assert s_coeff((), 10**12) == 0
        assert s_coeff((), 0) == 1
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1 << 20


def test_oracle_examples():
    assert c_coeff_oracle((1, 1, 1, 1), 2) == 6
    assert s_coeff_oracle((1, 2, 4), 2) == 35
    assert c_coeff_oracle((5,), 1) == 5


def test_oracle_guards():
    with pytest.raises(GuardExceeded):
        c_coeff_oracle((1,) * 13, 2)
    with pytest.raises(GuardExceeded):
        s_coeff_oracle((1, 2), 13)


def test_coefficients_reject_negative_k():
    with pytest.raises(ValueError):
        c_coeff((1, 2), -1)
    with pytest.raises(ValueError):
        s_coeff((1, 2), -1)


def test_preset_examples():
    assert preset_weights("ones", 3) == (1, 1, 1)
    assert preset_weights("arithmetic", 4) == (1, 2, 3, 4)
    assert preset_weights("geometric", 3, 2) == (1, 2, 4)


def test_preset_validation():
    with pytest.raises(ValueError):
        preset_weights("harmonic", 3)
    with pytest.raises(ValueError):
        preset_weights("ones", 0)
    with pytest.raises(ValueError):
        preset_weights("geometric", 3, 0)
    with pytest.raises(ValueError):
        preset_weights("geometric", 3)


@pytest.mark.parametrize("kind", ["ones", "arithmetic"])
def test_only_the_geometric_preset_takes_a_ratio(kind):
    with pytest.raises(ValueError, match=f"{kind} preset takes no ratio, got 2"):
        preset_weights(kind, 3, 2)
    with pytest.raises(ValueError, match="takes no ratio"):
        preset_log2(kind, 3, 2)


def test_geometric_preset_is_the_powers_of_its_ratio():
    for n in range(1, 12):
        for q in range(1, 6):
            assert preset_weights("geometric", n, q) == tuple(q**i for i in range(n))


def test_preset_log2_bounds_the_largest_weight_without_building_it():
    for n in range(1, 40):
        assert preset_log2("ones", n) == 0
        assert preset_log2("arithmetic", n) == math.ceil(math.log2(n))
        for q in range(1, 9):
            bound = preset_log2("geometric", n, q)
            assert bound == (n - 1) * math.ceil(math.log2(q))
            assert preset_weights("geometric", n, q)[-1] <= 2**bound
    # a length no vector of weights could reach
    assert preset_log2("geometric", 10**12, 3) == 2 * (10**12 - 1)


def test_ones_preset_gives_binomials():
    for n in range(1, 9):
        ones = preset_weights("ones", n)
        for k in range(9):
            assert c_coeff(ones, k) == math.comb(n, k)
            assert s_coeff(ones, k) == math.comb(n + k - 1, k)


def _stirling1_table(rows):
    # unsigned first kind: c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k)
    table = [[0] * (rows + 1) for _ in range(rows + 1)]
    table[0][0] = 1
    for n in range(1, rows + 1):
        for k in range(1, n + 1):
            table[n][k] = table[n - 1][k - 1] + (n - 1) * table[n - 1][k]
    return table


def _stirling2_table(rows):
    # second kind: S(n, k) = S(n-1, k-1) + k S(n-1, k)
    table = [[0] * (rows + 1) for _ in range(rows + 1)]
    table[0][0] = 1
    for n in range(1, rows + 1):
        for k in range(1, n + 1):
            table[n][k] = table[n - 1][k - 1] + k * table[n - 1][k]
    return table


def test_arithmetic_preset_gives_stirling_numbers():
    s1 = _stirling1_table(8)
    s2 = _stirling2_table(14)
    for n in range(1, 7):
        arith = preset_weights("arithmetic", n)
        for k in range(7):
            assert c_coeff(arith, k) == s1[n + 1][n + 1 - k]
            assert s_coeff(arith, k) == s2[n + k][n]


def test_geometric_preset_gives_q_binomials():
    for q in (2, 3):
        for n in range(1, 6):
            geo = preset_weights("geometric", n, q)
            for k in range(6):
                assert s_coeff(geo, k) == q_binomial(n + k - 1, k).evaluate(q)


def test_geometric_preset_first_kind_exploratory():
    # first-kind analog carries an extra triangular power of q
    for q in (2, 3):
        for n in range(1, 6):
            geo = preset_weights("geometric", n, q)
            for k in range(6):
                assert c_coeff(geo, k) == q ** (k * (k - 1) // 2) * q_binomial(
                    n, k
                ).evaluate(q)
