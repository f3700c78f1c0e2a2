"""Acceptance gate: every contract criterion at its stated range and time
budget, one pass/fail line printed per criterion. All equalities are exact
(zero tolerance). Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion report."""

import json
import subprocess
import sys
import time

from fibcobweb import cobweb, tiling, verify
from fibcobweb.cobweb import VertexCoord, build
from fibcobweb.seqcore import exact_div, f_factorial, fib, fibonomial


class Gate:
    """Wall-clock budget for one criterion; prints its verdict line."""

    def __init__(self, number, budget_seconds):
        self.number = number
        self.budget = budget_seconds
        self.started = time.perf_counter()

    def done(self, detail=""):
        elapsed = time.perf_counter() - self.started
        suffix = f" [{elapsed:.2f}s < {self.budget}s]"
        print(f"criterion {self.number}: PASS {detail}{suffix}")
        assert elapsed < self.budget, f"criterion {self.number} exceeded time budget"


# Upper-left 15x15 block of the level-6 order-indicator matrix, frozen.
EXPECTED_ZETA_BLOCK_15 = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
)


def _passes(*verdicts):
    for verdict in verdicts:
        assert verdict.passed, verdict.detail


def test_criterion_1_fibonomial_engine():
    gate = Gate(1, 1.0)
    _passes(
        verify.check_fibonomial_recurrences(30),
        verify.check_fibonomial_symmetry(40),
    )
    gate.done("product formula, both recurrences (n <= 30), symmetry (n <= 40)")


def test_criterion_2_zeta_equivalence_and_block():
    gate = Gate(2, 1.0)
    _passes(verify.check_zeta_equivalence(10))
    z6 = cobweb.zeta_explicit(build(6))
    block = tuple(row[:15] for row in z6.rows[:15])
    assert block == EXPECTED_ZETA_BLOCK_15
    gate.done("explicit = order build for N <= 10; level-6 15x15 block matches")


def test_criterion_3_mobius_inverse():
    gate = Gate(3, 5.0)
    _passes(verify.check_mobius_inverse(10))
    gate.done("zeta * mobius = identity exactly for N = 1..10")


def test_criterion_4_chain_observations():
    gate = Gate(4, 2.0)
    _passes(verify.check_chain_observations(6))
    p = build(6)
    assert len(cobweb.enumerate_max_chains(p, VertexCoord(1, 1), 5)) == 30
    assert len(cobweb.enumerate_max_chains(p, VertexCoord(1, 3), 6)) == 120
    gate.done("exhaustive enumeration matches closed forms on build(6)")


def test_criterion_5_tiling_instances():
    instances = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2))
    outcomes = []
    for k, m in instances:
        started = time.perf_counter()
        solution = tiling.find_tiling(k, 1, m)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"instance ({k},{m}) exceeded its 10s budget"
        if solution is None:
            reason = f"F_{m} does not divide F_{k + m}"
            outcomes.append(f"({k},{m}): no cover exists ({reason})")
            continue
        assert tiling.verify_tiling(solution)
        assert len(solution.copies) == fibonomial(k + m, m)
        outcomes.append(f"({k},{m}): {len(solution.copies)} copies VALID")
    report = "; ".join(outcomes)
    print(f"criterion 5 instance report: {report}")
    # Feasibility is forced by the copy structure: covered instances split into
    # per-chain-prefix fibers whose sizes must be multiples of the copy's top
    # subset size, which fails for (1,3) and (2,3). The suite must state the
    # absence explicitly rather than hide it.
    assert "(1,1): 1 copies VALID" in report
    assert "(1,2): 2 copies VALID" in report
    assert "(2,2): 6 copies VALID" in report
    assert "(3,2): 15 copies VALID" in report
    assert "(1,3): no cover exists" in report
    assert "(2,3): no cover exists" in report
    check = verify.check_tiling_instances()
    assert check.passed
    assert "no cover exists" in check.detail
    print(
        "criterion 5: PASS (verified tilings for (1,1),(1,2),(2,2),(3,2);"
        " the divisibility rule reports no cover for (1,3),(2,3))"
    )


def test_criterion_6_ratio_and_rewrite():
    gate = Gate(6, 1.0)
    for n in range(1, 41):
        for k in range(1, n + 1):
            ratio = exact_div(f_factorial(n), f_factorial(k))
            assert ratio == fibonomial(n, k) * f_factorial(n - k)
            assert fib(n - k) * fibonomial(n, k - 1) == fib(n - k) * fibonomial(
                n, n - k + 1
            )
    gate.done("ratio identity and symmetry rewrite for 0 < k <= n <= 40")


def test_criterion_7_konvalina():
    gate = Gate(7, 30.0)
    _passes(
        verify.check_konvalina_oracles(8, (1, 2, 3), 8),
        verify.check_konvalina_binomial_preset(10, 10),
        verify.check_konvalina_stirling_presets(7, 7),
        verify.check_konvalina_gaussian_preset(6, 6, (2, 3)),
    )
    gate.done("oracles (len <= 8 over {1,2,3}), binomial/Stirling/Gaussian presets")


def test_criterion_8_path_determinants():
    gate = Gate(8, 60.0)
    _passes(verify.check_paths_identity(12))
    gate.done("sum of path determinants = fibonomial(n+1, k) for n <= 12")


def test_criterion_9_fence():
    gate = Gate(9, 5.0)
    _passes(
        verify.check_fence_oracle(15),
        verify.check_fence_fibonacci(30),
        verify.check_beck_identities(40),
    )
    gate.done("transfer vs brute force (m <= 15), Fibonacci form (m <= 30), splits (n <= 40)")


def test_criterion_10_cli_verify_all():
    gate = Gate(10, 120.0)
    proc = subprocess.run(
        [sys.executable, "-m", "fibcobweb", "verify", "--suite", "all"],
        capture_output=True,
        text=True,
        timeout=118,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "suite all: PASS" in proc.stdout
    assert "FAIL" not in proc.stdout
    for argv in (
        ["fibonomial", "12", "6"],
        ["tiling", "3", "1", "2"],
        ["verify", "--suite", "fence"],
    ):
        emitted = subprocess.run(
            [sys.executable, "-m", "fibcobweb", *argv, "--format", "json"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert emitted.returncode == 0
        record = json.loads(emitted.stdout)
        assert json.dumps(record, sort_keys=True) + "\n" == emitted.stdout
    gate.done("`verify --suite all` exits 0; emitted JSON round-trips")
