import math
from itertools import product

import pytest

from fibcobweb import cli, cobweb, tiling, verify
from fibcobweb.seqcore import fib


def test_suite_names():
    assert set(verify.SUITE_NAMES) == {"arith", "poset", "tiling", "paths", "fence", "all"}
    assert cli.VERIFY_SUITES == verify.SUITE_NAMES  # the --suite choices


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


def test_arith_suite_passes():
    results = verify.run_suite("arith")
    assert results
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_fence_suite_passes():
    assert all(r.passed for r in verify.run_suite("fence"))


def test_zeta_fault_injection_reports_counterexample(monkeypatch):
    zeta_explicit = cobweb.zeta_explicit

    def flipped(p):  # entry (3, 5) flipped once the dimension reaches 5
        z = zeta_explicit(p)
        if z.dim < 5:
            return z
        rows = [list(row) for row in z.rows]
        rows[2][4] ^= 1
        return cobweb.IncMatrix(rows)

    monkeypatch.setattr(cobweb, "zeta_explicit", flipped)
    result = verify.check_zeta_equivalence(max_level=6)
    assert not result.passed
    assert "(3, 5)" in result.detail


def test_tiling_outcomes_frozen():
    outcomes = verify.tiling_outcomes()
    found = {pair for pair, sol in outcomes.items() if sol is not None}
    assert found == {(1, 1), (1, 2), (2, 2), (3, 2)}
    assert {pair for pair, sol in outcomes.items() if sol is None} == {(1, 3), (2, 3)}


def test_tiling_check_reports_absences_explicitly():
    result = verify.check_tiling_instances()
    assert result.passed
    assert "no cover exists" in result.detail
    assert "(1,3)" in result.detail and "(2,3)" in result.detail
    assert "(2,2)" in result.detail


def test_tiling_count_check_passes():
    result = verify.check_tiling_counts()
    assert result.passed, result.detail


@pytest.mark.parametrize(
    "wrong,where",
    [
        # forgets that an odd line has no pairing
        (lambda a, b, c: math.prod(range(c - 1, 0, -2)) ** (a * b), "1x1x1 grid"),
        # one factor per axis instead of one per line
        (lambda a, b, c: 0 if c % 2 else math.prod(range(c - 1, 0, -2)) ** (a + b),
         "1x1x8 grid"),
    ],
)
def test_tiling_count_check_fails_on_a_wrong_fibre_formula(monkeypatch, wrong, where):
    monkeypatch.setattr(tiling, "_pair_tilings", wrong)
    result = verify.check_tiling_counts()
    assert not result.passed
    assert where in result.detail


def test_tiling_rejection_check_passes():
    result = verify.check_tiling_rejections()
    assert result.passed, result.detail
    assert "(3,3)" in result.detail


def test_tiling_rejection_check_fails_without_the_disjointness_test(monkeypatch):
    def overlaps_allowed(t):
        # verify_tiling's other tests: shared root, F_s distinct positions in
        # range at each level, every chain covered, the implied assignment
        k, m = t.root.s, t.height
        chains = {chain: idx for idx, c in enumerate(t.copies) for chain in product(*c.chosen)}
        well_formed = all(
            c.root == t.root
            and [len(set(x)) for x in c.chosen] == [fib(s) for s in range(1, m + 1)]
            and all(1 <= pos <= fib(k + s) for s, x in enumerate(c.chosen, 1) for pos in x)
            for c in t.copies
        )
        return (
            well_formed
            and sorted(chains) == tiling.chain_universe(k, m)
            and t.assignment == chains
        )

    monkeypatch.setattr(tiling, "verify_tiling", overlaps_allowed)
    result = verify.check_tiling_rejections()
    assert not result.passed
    assert result.detail == "counterexample: (k, m) = (1, 1) accepted: duplicate a copy"


def test_stirling_helpers():
    assert verify.stirling1_unsigned(4, 2) == 11
    assert verify.stirling2(4, 2) == 7
    assert verify.stirling2(5, 3) == 25


def test_stirling_helpers_past_the_recursion_limit():
    assert verify.stirling2(1500, 3) == (3**1500 - 3 * 2**1500 + 3) // 6
    assert verify.stirling1_unsigned(1500, 1499) == math.comb(1500, 2)
