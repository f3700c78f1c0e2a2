import math
import time
from dataclasses import fields
from itertools import product
from typing import Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcobweb import tiling, verify
from fibcobweb.cobweb import VertexCoord
from fibcobweb.guards import GuardExceeded
from fibcobweb.seqcore import f_factorial, f_falling, fib, fibonomial
from fibcobweb.tiling import (
    ChainTuple,
    CopySpec,
    TilingSolution,
    copy_count,
    count_all_tilings,
    find_tiling,
    no_cover_reason,
    verify_tiling,
)


def _copies(k, m):
    """The box grid of the height-m copies above a level-k root: its grid,
    its boxes (the copies' chosen subsets) and their cells (the chains)."""
    return verify._box_grid(*verify._copy_shape(k, m))


def test_enumerate_copies_counts():
    assert len(_copies(1, 2)[1]) == 2
    assert len(_copies(2, 3)[1]) == 60
    assert len(_copies(1, 1)[1]) == 1


def test_copy_count_formula():
    for k, m in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        want = math.prod(math.comb(fib(k + s), fib(s)) for s in range(1, m + 1))
        assert copy_count(k, m) == want
        assert len(_copies(k, m)[1]) == want


def test_enumerate_copies_guard():
    def guarded():
        return verify.check_copy_enumeration(((6, 3),))  # 13 * 21 * C(34, 2) copies

    result = verify._run_check("copy enumeration counts", guarded)
    assert result.name == "copy enumeration counts"
    assert not result.passed
    assert result.detail == (
        "raised GuardExceeded: candidate copy count = 153153 exceeds guard limit 100000"
    )
    with pytest.raises(GuardExceeded):
        _copies(6, 3)


def test_copy_structure():
    boxes = _copies(2, 3)[1]
    for chosen in boxes:
        assert [len(s) for s in chosen] == [fib(1), fib(2), fib(3)]
    assert boxes == sorted(boxes)


@pytest.mark.parametrize("m,expected", [(2, 1), (3, 2), (4, 6)])
def test_chains_per_copy(m, expected):
    _, boxes, cells = _copies(1, m)
    assert cells[0] == frozenset(product(*boxes[0]))
    assert len(cells[0]) == expected
    assert expected == f_factorial(m)


def test_chain_universe():
    u = list(_copies(2, 3)[0])
    assert len(u) == 30
    assert u == sorted(u)
    assert u[0] == (1, 1, 1)
    assert u[-1] == (2, 3, 5)


FEASIBLE = [
    (1, 1, 1), (1, 1, 2), (2, 1, 2), (3, 1, 2), (3, 2, 2), (3, 1, 3),
    (6, 1, 3),  # 153153 candidate copies, more than the verify box grid allows
]
COVERLESS = [(1, 1, 3), (2, 1, 3), (2, 1, 4), (4, 1, 3), (1, 1, 5)]


@pytest.mark.parametrize("k,r,m", FEASIBLE)
def test_find_tiling_feasible(k, r, m):
    solution = find_tiling(k, r, m)
    assert solution is not None
    assert solution.root == VertexCoord(r, k)
    assert len(solution.copies) == fibonomial(k + m, m)
    assert verify_tiling(solution)


@pytest.mark.parametrize("k,r,m", COVERLESS)
def test_find_tiling_exhausts(k, r, m):
    assert find_tiling(k, r, m) is None


def test_find_tiling_guard():
    with pytest.raises(GuardExceeded):
        find_tiling(1, 1, 10)


def test_guards_and_validation_come_before_the_divisibility_rule():
    # each instance below fails the rule, so a pre-check placed too early
    # would return None or 0 instead of raising
    with pytest.raises(GuardExceeded):
        find_tiling(1, 1, 7)  # 65520-chain universe
    with pytest.raises(GuardExceeded):
        count_all_tilings(1, 1, 7)  # 65520-chain universe
    for call in (find_tiling, count_all_tilings):
        with pytest.raises(ValueError):
            call(2, 1, 0)
        with pytest.raises(ValueError):
            call(2, 2, 3)  # level 2 has 1 position
        with pytest.raises(ValueError):
            call(0, 1, 3)
        with pytest.raises(ValueError, match="height must be >= 1, got -5"):
            call(1, 1, -5)
        # int() would truncate 1.5 to 1
        for k, r, m in ((3, 1.5, 2), (3.0, 1, 2), (3, 1, 2.0), (3, "1", 2)):
            with pytest.raises(TypeError):
                call(k, r, m)


def test_guard_message_shows_long_values_as_digit_counts():
    with pytest.raises(GuardExceeded) as exc:
        find_tiling(1000, 1, 1)
    assert exc.value.value == fib(1001)
    assert str(exc.value) == (
        "chain universe size = a 209-digit number exceeds guard limit 10000"
    )


def test_divisibility_rule_closed_form():
    # gcd(F_a, F_b) = F_gcd(a, b): F_s | F_{k+s} for every s <= m exactly
    # when m <= 2 or every s in 3..m divides k
    for k in range(1, 31):
        for m in range(1, 31):
            want = m <= 2 or k % math.lcm(*range(3, m + 1)) == 0
            assert (no_cover_reason(k, m) is None) == want
    assert no_cover_reason(2, 3) == "F_3 does not divide F_5"
    # F_m | F_{k+m} holds in these; a lower level breaks the rule
    assert no_cover_reason(4, 4) == "F_3 does not divide F_7"
    assert no_cover_reason(5, 5) == "F_4 does not divide F_9"
    assert no_cover_reason(8, 4) == "F_3 does not divide F_11"


def test_divisibility_rule_from_the_indices_matches_the_fibonacci_numbers():
    # the rule read off the Fibonacci numbers themselves: the largest s <= m
    # whose F_s leaves a remainder on F_{k+s}
    def by_remainders(k, m):
        for s in range(m, 0, -1):
            if fib(k + s) % fib(s):
                return f"F_{s} does not divide F_{k + s}"
        return None

    for k in range(301):
        for m in range(41):
            assert no_cover_reason(k, m) == by_remainders(k, m), (k, m)


def test_no_cover_below_the_top_level_answers_without_search():
    # (4, 4) has 4.1M candidate copies; the rule answers before any is built
    assert find_tiling(4, 1, 4, unsafe_limits=True) is None
    assert count_all_tilings(4, 1, 4, unsafe_limits=True) == 0


@pytest.mark.parametrize(
    "k,r,m", [(1, 1, 3), (2, 1, 3), (1, 1, 4), (3, 1, 3), (3, 2, 3), (2, 1, 4)]
)
def test_divisibility_rule_matches_direct_search(k, r, m):
    # the exhaustive search, not through find_tiling; (2, 1, 4) takes ~1 s
    cover = verify._first_box_cover(*verify._copy_shape(k, m))
    assert (cover is None) == (no_cover_reason(k, m) is not None)
    if cover is not None:
        assert [c.chosen for c in find_tiling(k, r, m).copies] == cover


def test_find_tiling_deterministic():
    a = find_tiling(3, 1, 3)
    b = find_tiling(3, 1, 3)
    assert a == b
    assert a.assignment == b.assignment


def test_find_tiling_search_order_is_pinned():
    # the first cover in the search order: one position each on levels 1
    # and 2, consecutive pairs on level 3
    chosen = [c.chosen for c in find_tiling(3, 1, 3).copies]
    assert chosen == [
        ((a,), (b,), pair)
        for a in (1, 2, 3)
        for b in (1, 2, 3, 4, 5)
        for pair in ((1, 2), (3, 4), (5, 6), (7, 8))
    ]


def test_find_tiling_deeper_than_the_recursion_limit():
    # 1870 copies, one search level each
    solution = find_tiling(8, 1, 2)
    assert solution is not None
    assert len(solution.copies) == fibonomial(10, 2)
    assert verify_tiling(solution)


def test_a_copy_is_its_root_and_chosen_subsets():
    assert CopySpec._fields == ("root", "chosen")
    copy = find_tiling(3, 1, 2).copies[0]
    assert copy == (VertexCoord(1, 3), ((1,), (1,)))
    root, chosen = copy
    assert (root, chosen) == (copy.root, copy.chosen)
    assert copy.height == 2
    with pytest.raises(AttributeError):
        copy.root = VertexCoord(2, 3)


@pytest.mark.parametrize("k, m", [(7, 2), (6, 3)])
def test_find_tiling_looks_up_each_block_size_once(monkeypatch, k, m):
    calls = []

    def counting_fib(n):
        calls.append(n)
        return fib(n)

    monkeypatch.setattr(tiling, "fib", counting_fib)
    assert find_tiling(k, 1, m) is not None
    assert len(calls) <= 2 * m + 1  # F_k, then F_s and F_{k+s} per level


def test_verify_tiling_rejects_tampering():
    solution = find_tiling(3, 1, 2)
    assert verify_tiling(solution)

    # duplicated copy covers a chain twice
    tampered = TilingSolution(
        solution.root, solution.height, (solution.copies[0],) + solution.copies
    )
    assert not verify_tiling(tampered)

    # dropped copy leaves chains uncovered
    tampered = TilingSolution(solution.root, solution.height, solution.copies[1:])
    assert not verify_tiling(tampered)

    # root mismatch
    moved = TilingSolution(VertexCoord(2, 3), solution.height, solution.copies)
    assert not verify_tiling(moved)

    # chain (1, 1) uncovered, (1, 1.5) covered instead: every count still holds
    first = solution.copies[0]
    assert first.chosen == ((1,), (1,))
    half = CopySpec(first.root, ((1,), (1.5,)))
    assert not verify_tiling(
        TilingSolution(solution.root, solution.height, (half,) + solution.copies[1:])
    )

    # a root or height that only equals an integer
    for root, height in ((VertexCoord(1.0, 3), 2), (VertexCoord(1, 3.0), 2), (solution.root, 2.0)):
        copies = tuple(CopySpec(root, c.chosen) for c in solution.copies)
        assert not verify_tiling(TilingSolution(root, height, copies))


def test_verify_tiling_rejects_no_copies_before_building_the_universe():
    # the universe F_2 ... F_6001 has about 1.2e7 bits
    started = time.perf_counter()
    assert not verify_tiling(TilingSolution(VertexCoord(1, 1), 6000, ()))
    assert time.perf_counter() - started < 1


def test_verify_tiling_rejects_malformed_copy():
    solution = find_tiling(1, 1, 2)
    bad_copy = CopySpec(solution.root, ((1,), (0,)))  # position 0 out of range
    tampered = TilingSolution(
        solution.root, solution.height, (bad_copy,) + solution.copies[1:]
    )
    assert not verify_tiling(tampered)


def test_a_tiling_is_its_copies():
    assert [f.name for f in fields(TilingSolution)] == ["root", "height", "copies"]
    t = find_tiling(3, 1, 3)
    # the same partition numbered backwards: the map follows the copies
    renumbered = TilingSolution(t.root, t.height, t.copies[::-1])
    assert verify_tiling(renumbered)
    last = len(t.copies) - 1
    assert renumbered.assignment == {
        chain: last - idx for chain, idx in t.assignment.items()
    }


def _verify_tiling_per_copy(t: TilingSolution) -> bool:
    """The per-copy verify_tiling that the bulk check replaced: the reference."""
    k, m = t.root.s, t.height
    if not all(isinstance(v, int) for v in (k, t.root.j, m)):
        return False
    if not (k >= 1 and 1 <= t.root.j <= fib(k) and m >= 1):
        return False
    seen: Set[ChainTuple] = set()
    for c in t.copies:
        if c.root != t.root or c.height != m:
            return False
        for s, subset in enumerate(c.chosen, start=1):
            if len(subset) != fib(s) or len(set(subset)) != len(subset):
                return False
            if not all(isinstance(pos, int) and 1 <= pos <= fib(k + s) for pos in subset):
                return False
        for chain in product(*c.chosen):
            if chain in seen:
                return False
            seen.add(chain)
    return len(seen) == f_falling(k + m, m)


def _with_list_subsets(t):
    return TilingSolution(t.root, t.height, tuple(
        CopySpec(c.root, tuple(list(subset) for subset in c.chosen)) for c in t.copies
    ))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_tiling_matches_the_per_copy_reference(data):
    k, m = data.draw(
        st.sampled_from([(k, m) for k in range(1, 8) for m in (1, 2)] + [(3, 3), (6, 3)])
    )
    t = find_tiling(k, data.draw(st.integers(1, fib(k))), m)
    if data.draw(st.booleans()):
        t = _with_list_subsets(t)
    _, tamper = data.draw(st.sampled_from((("none", None),) + verify.TILING_TAMPERINGS))
    if tamper is not None:
        copy_index = st.integers(0, len(t.copies) - 1)
        i, j = data.draw(copy_index), data.draw(copy_index)
        s, p = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, 1))
        t = tamper(t, i, j, s, p) or t
    assert verify_tiling(t) is _verify_tiling_per_copy(t)


def test_verify_tiling_accepts_list_subsets():
    assert verify_tiling(_with_list_subsets(find_tiling(6, 1, 3)))


def test_verify_tiling_looks_up_each_fibonacci_number_once(monkeypatch):
    solution = find_tiling(8, 1, 2)  # 1870 copies
    calls = []

    def counting_fib(n):
        calls.append(n)
        return fib(n)

    monkeypatch.setattr(tiling, "fib", counting_fib)
    assert verify_tiling(solution)
    assert len(calls) <= 4 * 2 + 2  # 4m + 2, whatever the number of copies


def test_count_all_tilings():
    assert count_all_tilings(1, 1, 2) == 1
    assert count_all_tilings(2, 1, 2) == 1
    assert count_all_tilings(3, 1, 2) == 1
    assert count_all_tilings(1, 1, 3) == 0
    assert count_all_tilings(2, 1, 3) == 0
    # 15 fibres, each a line of F_6 = 8 chains cut into pairs in 7!! ways
    assert count_all_tilings(3, 1, 3) == 105**15


def test_count_all_tilings_at_height_three():
    # 13 * 21 fibres, each a line of F_9 = 34 chains: 33!! pairings apiece
    assert count_all_tilings(6, 1, 3) == math.prod(range(33, 0, -2)) ** 273
    assert count_all_tilings(6, 8, 3) == count_all_tilings(6, 1, 3)
    for k in (1, 2, 4, 5, 7, 8, 10):
        # F_{k+3} is odd: no line splits into pairs
        assert count_all_tilings(k, 1, 3, unsafe_limits=True) == 0


def test_count_all_tilings_above_height_three_has_no_closed_form():
    # the rule holds at (12, 4); its fibres are 610 x 987 grids of 2 x 3 boxes
    assert no_cover_reason(12, 4) is None
    with pytest.raises(ValueError, match="no closed form"):
        count_all_tilings(12, 1, 4, unsafe_limits=True)
    with pytest.raises(GuardExceeded):
        count_all_tilings(12, 1, 4)

