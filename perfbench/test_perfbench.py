"""The benchmark's own tests: its oracles agree with the program on genuine
outputs and catch corrupted ones.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fibcobweb as fc  # noqa: E402

import cliops  # noqa: E402
import workloads  # noqa: E402
from oracles import Oracles, count_tilings, tiling_fault  # noqa: E402

SEED = 7


def _ops(kind):
    make_ops, _ = workloads.IN_PROCESS[kind]
    return make_ops(fc, Oracles(), SEED)


def _bump(value):
    """A corrupted copy of a program result, changed in one place."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return [_bump(value[0])] + value[1:]
    if isinstance(value, fc.IntPolynomial):
        return value + fc.IntPolynomial((0, 1))
    if isinstance(value, fc.IncMatrix):
        rows = [list(r) for r in value.rows]
        rows[0][-1] += 1
        return fc.IncMatrix(rows)
    raise TypeError(type(value))


# ----------------------------------------------------------------- oracles


def test_fibonomial_oracle_matches_textbook_quotient():
    orc = Oracles()
    for n in range(40):
        falling = 1
        for k in range(n + 1):
            factorial = 1
            for i in range(1, k + 1):
                factorial *= orc.fib(i)
            assert orc.fibonomial(n, k) * factorial == falling
            falling *= orc.fib(n - k)


def test_fib_table_and_doubling_agree():
    orc = Oracles()
    table = [orc.fib(i) for i in range(30)]
    assert table[:8] == [0, 1, 1, 2, 3, 5, 8, 13]
    big = Oracles()
    assert big.fib(9000) == big.fib(8999) + big.fib(8998)


def test_presets_and_q_pascal_match_brute_force():
    orc = Oracles()
    for n in range(1, 8):
        for k in range(n + 1):
            want = fc.q_binomial(n, k).coeffs
            assert orc.q_binomial(n, k) == want
            assert orc.q_binomial_at(n, k, 3) == fc.q_binomial(n, k).evaluate(3)
        for kind, q in (("ones", 1), ("arithmetic", 1), ("geometric", 2)):
            weights = fc.preset_weights(kind, n, q if kind == "geometric" else None)
            for k in range(6):
                assert orc.preset_coeff(kind, True, n, k, q) == fc.c_coeff_oracle(weights, k)
                assert orc.preset_coeff(kind, False, n, k, q) == fc.s_coeff_oracle(weights, k)


def test_level_closed_forms_match_dense_routes_at_n9():
    orc = Oracles()
    p = fc.build(9)
    mob = fc.mobius(p)
    for x in range(1, p.vertex_count + 1):
        for y in range(x, p.vertex_count + 1):
            assert mob.entry(x, y) == orc.mobius_entry(x, y)
            assert fc.count_all_chains(p, x, y) == orc.chains_entry(x, y)


def test_tiling_count_oracle_matches_search():
    orc = Oracles()
    for k, m in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3)):
        assert count_tilings(orc, k, m) == fc.tiling.count_all_tilings(k, 1, m)


# ---------------------------------------------------- in-process workloads


@pytest.mark.parametrize("kind", ["arith", "poset"])
def test_genuine_results_pass_and_corrupted_ones_fail(kind):
    seen = set()
    for op in _ops(kind):
        if op.name in seen or op.name == "fibonomial_rec_deep":
            continue
        seen.add(op.name)
        result = op.call()
        assert op.check(result) is None, op.name
        if op.name == "enumerate_max_chains":
            assert op.check(result[:-1]) is not None
            assert op.check(result[::-1]) is not None
        else:
            assert op.check(_bump(result)) is not None, op.name


def test_deep_recursion_fails_today_and_its_answer_is_checked():
    (op,) = [op for op in _ops("arith") if op.name == "fibonomial_rec_deep"]
    orc = Oracles()
    assert op.check(orc.fibonomial(2500, 2)) is None
    assert op.check(orc.fibonomial(2500, 2) + 1) is not None


def test_tiling_checks_catch_broken_tilings():
    orc = Oracles()
    solution = fc.find_tiling(3, 2, 3)
    ok = [(c.root, c.chosen) for c in solution.copies]
    assert tiling_fault(orc, 3, 2, 3, ok, solution.assignment) is None
    assert tiling_fault(orc, 3, 2, 3, ok[:-1]) is not None  # too few copies
    assert tiling_fault(orc, 3, 2, 3, ok[:-1] + ok[:1]) is not None  # overlap
    moved = [((1, 3), chosen) for _, chosen in ok]
    assert tiling_fault(orc, 3, 2, 3, moved) is not None  # wrong root
    wrong = dict(solution.assignment)
    wrong[next(iter(wrong))] += 1
    assert tiling_fault(orc, 3, 2, 3, ok, wrong) is not None

    for op in _ops("tiling"):
        result = op.call()
        assert op.check(result) is None, op.name
        if op.name == "find_tiling" and result is not None:
            broken = dataclasses.replace(result, copies=result.copies[1:])
            assert op.check(broken) is not None
            assert op.check(None) is not None  # NO COVER where F_m | F_{k+m}
        elif op.name == "find_tiling":
            assert op.check(solution) is not None  # a "tiling" of a NO COVER instance
        elif op.name == "count_all_tilings":
            assert op.check(result + 1) is not None


# ----------------------------------------------------------------- the CLI


def _corrupt_text(out: str) -> str:
    """Change the last digit of the output (before a JSON record's version)."""
    end = out.find('"version"')
    for i in range((end if end >= 0 else len(out)) - 1, -1, -1):
        if out[i].isdigit():
            return out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :]
    return out + "x"


def test_cli_outputs_pass_and_corrupted_outputs_fail(tmp_path):
    ops = cliops.cli_ops(Oracles(), SEED, str(tmp_path))
    for op in ops:
        if op.argv[-1].endswith(os.path.join("no-such-dir", "out.txt")):
            with pytest.raises(cliops.CliFailure):
                cliops.run_cli(ROOT, op)
            continue
        proc = cliops.run_cli(ROOT, op)
        out = proc.stdout.decode("utf-8")
        assert op.check(out) is None, op.argv
        assert proc.stdout == cliops.run_cli(ROOT, op).stdout, op.argv
        if out:
            assert op.check(_corrupt_text(out)) is not None, op.argv


def test_cli_exit_code_mismatch_is_a_failure(tmp_path):
    op = cliops.CliOp(["mobius", "13"], 0, lambda out: None)
    with pytest.raises(cliops.CliFailure):
        cliops.run_cli(ROOT, op)
