import math
from dataclasses import replace
from itertools import product

import pytest

from fibcobweb import cli, cobweb, tiling, verify, weighted
from fibcobweb.seqcore import fib


def test_suite_names():
    assert set(verify.SUITE_NAMES) == {"arith", "poset", "tiling", "paths", "fence", "all"}
    assert cli.VERIFY_SUITES == verify.SUITE_NAMES  # the --suite choices


def test_each_check_reports_under_its_one_name_in_the_table():
    names = [name for suite in verify.SUITES.values() for name, _ in suite]
    assert len(set(names)) == len(names) == 29
    assert [r.name for r in verify.run_suite("all")] == names


def test_a_failing_check_reports_under_its_passing_name(monkeypatch):
    c_coeff = weighted.c_coeff
    monkeypatch.setattr(weighted, "c_coeff", lambda ws, k: c_coeff(ws, k) + 1)
    results = {r.name: r for r in verify.run_suite("arith")}
    failed = results["weighted coefficients vs brute-force oracles"]
    assert not failed.passed
    assert failed.detail == "counterexample: first kind, w = (), k = 0"
    assert results["fibonomial symmetry"].passed


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
        # range at each level, every chain covered
        k, m = t.root.s, t.height
        universe = sorted(product(*(range(1, fib(k + s) + 1) for s in range(1, m + 1))))
        chains = {chain for c in t.copies for chain in product(*c.chosen)}
        well_formed = all(
            c.root == t.root
            and [len(set(x)) for x in c.chosen] == [fib(s) for s in range(1, m + 1)]
            and all(1 <= pos <= fib(k + s) for s, x in enumerate(c.chosen, 1) for pos in x)
            for c in t.copies
        )
        return well_formed and sorted(chains) == universe

    monkeypatch.setattr(tiling, "verify_tiling", overlaps_allowed)
    result = verify.check_tiling_rejections()
    assert not result.passed
    assert result.detail == "counterexample: (k, m) = (1, 1) accepted: duplicate a copy"


def test_recurrence_split_check_passes():
    result = verify.check_recurrence_split()
    assert result.passed, result.detail
    instances = [f"({k},2)" for k in range(1, 10)] + ["(3,3)", "(6,3)"]
    assert result.detail == f"variants A and B at {', '.join(instances)}"


@pytest.mark.parametrize(
    "wrong,where",
    [
        # the (k+m-1 m)_F of (5, 2)
        ((6, 2), "(5, 2) variant B"),
        # the (k+m-1 m-1)_F of (1, 2), which variant B weighs by F_0 = 0
        ((2, 1), "(1, 2) variant A"),
    ],
)
def test_recurrence_split_check_fails_on_a_wrong_fibonomial(monkeypatch, wrong, where):
    fibonomial = verify.fibonomial

    def off_by_one(n, k):
        return fibonomial(n, k) + ((n, k) == wrong)

    monkeypatch.setattr(verify, "fibonomial", off_by_one)
    result = verify.check_recurrence_split()
    assert not result.passed
    assert result.detail == f"counterexample: (k, m) = {where} class sizes"


def test_recurrence_split_check_fails_on_straddling_top_subsets(monkeypatch):
    find_tiling = tiling.find_tiling

    def interleaved(k, r, m):
        # the top pairs (1, 2), (3, 4), (5, 6), (7, 8) of (3, 3) become {1, 3},
        # {2, 4}, {5, 7}, {6, 8}: still a cover of the top level, but the cut
        # at F_4 F_3 = 6 splits {5, 7}
        t = find_tiling(k, r, m)
        if (k, m) != (3, 3):
            return t

        def pair(top):
            a = top[0]
            return (a, a + 2) if a % 4 == 1 else (a - 1, a + 1)

        return replace(t, copies=tuple(
            tiling.CopySpec(c.root, c.chosen[:-1] + (pair(c.chosen[-1]),)) for c in t.copies
        ))

    monkeypatch.setattr(tiling, "find_tiling", interleaved)
    result = verify.check_recurrence_split()
    assert not result.passed
    assert result.detail == (
        "counterexample: (k, m) = (3, 3) a top subset straddles the cut at 6"
    )


def test_recurrence_split_check_fails_on_reordered_lower_levels(monkeypatch):
    find_tiling = tiling.find_tiling

    def reversed_above_height_one(k, r, m):
        # the same copies, so the classes keep their sizes, but the second
        # class no longer runs through the (k, m-1) tiling in order
        t = find_tiling(k, r, m)
        return t if t is None or m < 2 else replace(t, copies=t.copies[::-1])

    monkeypatch.setattr(tiling, "find_tiling", reversed_above_height_one)
    result = verify.check_recurrence_split()
    assert not result.passed
    assert result.detail == (
        "counterexample: (k, m) = (2, 2) variant B second class below the top level"
    )


def test_stirling_helpers():
    assert verify.stirling1_unsigned(4, 2) == 11
    assert verify.stirling2(4, 2) == 7
    assert verify.stirling2(5, 3) == 25


def test_stirling_helpers_past_the_recursion_limit():
    assert verify.stirling2(1500, 3) == (3**1500 - 3 * 2**1500 + 3) // 6
    assert verify.stirling1_unsigned(1500, 1499) == math.comb(1500, 2)


def test_determinant_check_fails_on_a_lost_row_swap_sign(monkeypatch):
    # a path matrix never needs a row swap, its column reversal does
    monkeypatch.setattr(verify, "det_exact", lambda m: abs(verify.det_cofactor(m)))
    assert verify.check_paths_identity(6).passed
    result = verify.check_determinant_routes()
    assert not result.passed
    assert result.detail == "counterexample: R = (0, 1), n = 1"


def test_paths_check_fails_on_a_shifted_path_matrix(monkeypatch):
    def shifted(r, n):
        k = len(r)
        return [[math.comb(r[i], n + 1 - r[k - 1 - j]) for j in range(k)] for i in range(k)]

    monkeypatch.setattr(verify, "_path_matrix", shifted)
    result = verify.check_paths_identity()
    assert not result.passed
    assert result.detail == "counterexample: (n, k) = (0, 1)"


def test_transfer_check_fails_on_swapped_steps(monkeypatch):
    up, down = verify.UP, verify.DOWN
    monkeypatch.setattr(verify, "UP", down)
    monkeypatch.setattr(verify, "DOWN", up)
    result = verify.check_fence_transfer()
    assert not result.passed
    assert result.detail == "counterexample: m = 1"
