"""The operations of one round of the `cli` workload.

Each operation runs `python -m fibcobweb ARGS` as a child process, one at a
time, and parses what it prints. Values are compared with `oracles.py`,
never with a stored copy of earlier output. An invocation whose exit code
differs from the documented one (0 success, 1 verification failure, 2 usage
error, 3 guard exceeded), or which prints a traceback, counts as failed.

The poset commands (mobius 10 and 11, zeta 12 --check, hasse 10) are the
same for every seed, since they set most of a round's time; the seed moves
the arguments of the quick commands by small amounts.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from oracles import Oracles, count_tilings, tiling_fault
from workloads import jitter


class CliFailure(Exception):
    """The child exited with an undocumented code or printed a traceback."""


@dataclass
class CliOp:
    argv: list
    expect_exit: int
    check: Callable[[str], Optional[str]]

    @property
    def name(self) -> str:
        return "cli_" + self.argv[0]


def child_env(root: str) -> dict:
    """Environment for a child interpreter that imports the checkout's src/."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def run_cli(root: str, op: CliOp) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "fibcobweb", *op.argv],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        timeout=60,
    )
    if proc.returncode != op.expect_exit or b"Traceback" in proc.stderr:
        raise CliFailure(f"exit {proc.returncode}, expected {op.expect_exit}")
    return proc


# ------------------------------------------------------------------ parsing


def _record(out: str, command: str):
    rec = json.loads(out)
    if rec.get("command") != command or set(rec) != {"command", "inputs", "result", "version"}:
        raise ValueError("malformed JSON record")
    return rec["result"]


def _ints(rows) -> list:
    return [[int(v) for v in row] for row in rows]


def _csv(out: str) -> list:
    return list(csv.reader(io.StringIO(out)))


def _guarded(check):
    """Turn a parse error into a fault description."""

    def wrapped(out: str) -> Optional[str]:
        try:
            return check(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output: {exc}"

    return wrapped


def _equal(label, want_fn):
    return _guarded(lambda got: None if got == want_fn() else f"{label}: differs from the oracle")


def _hasse_want(orc: Oracles, n: int):
    levels = orc.level_table(n)
    coords, first = [], {}
    for x in range(1, len(levels)):
        first.setdefault(levels[x], x)
        coords.append([x - first[levels[x]] + 1, levels[x]])
    edges = [
        [x, y]
        for x in range(1, len(levels))
        for y in range(1, len(levels))
        if levels[y] == levels[x] + 1
    ]
    return coords, edges


def _tiling_text(out: str):
    copies, assignment = [], {}
    for line in out.splitlines():
        if line.startswith("copy "):
            head, *levels = line.split("; ")
            root = tuple(int(v) for v in head.split("root ")[1].split(","))
            chosen = tuple(tuple(int(v) for v in part.split(": ")[1].split()) for part in levels)
            copies.append((root, chosen))
        elif line.startswith("chain "):
            chain, idx = line[len("chain ") :].split(" -> copy ")
            assignment[tuple(int(v) for v in chain.split(","))] = int(idx)
    return copies, assignment, out.splitlines()[-1]


# --------------------------------------------------------------- the round


def cli_ops(orc: Oracles, seed: int, out_dir: str) -> list:
    rng = random.Random(f"cli/{seed}")
    ops = []

    def add(argv, check, expect_exit=0):
        ops.append(CliOp([str(a) for a in argv], expect_exit, check))

    def text_int(want_fn, label):
        return _equal(label, lambda: f"{want_fn()}\n")

    # Quick commands: start-up, import, argparse and rendering dominate.
    n = jitter(rng, 150)
    k = n // 2 + rng.randrange(-1, 2)
    add(["fibonomial", n, k], text_int(lambda: orc.fibonomial(n, k), "fibonomial"))
    n_row = jitter(rng, 40)
    add(
        ["fibonomial", n_row, "--format", "json"],
        _guarded(
            lambda out: None
            if _record(out, "fibonomial") == [str(v) for v in orc.fibonomial_row(n_row)]
            else "fibonomial row differs from the oracle"
        ),
    )
    rows = jitter(rng, 18)
    add(
        ["fibonomial", "--triangle", rows, "--format", "csv"],
        _guarded(
            lambda out: None
            if _ints(_csv(out)) == [orc.fibonomial_row(i) for i in range(rows + 1)]
            else "triangle differs from the oracle"
        ),
    )
    m = jitter(rng, 8000)
    add(["fence", m], text_int(lambda: orc.fib(m + 2), "fence"))
    m_json = jitter(rng, 500)
    add(
        ["fence", m_json, "--format", "json"],
        _guarded(
            lambda out: None
            if _record(out, "fence") == str(orc.fib(m_json + 2))
            else "fence differs from the oracle"
        ),
    )

    kn, kk = jitter(rng, 25), jitter(rng, 5)
    add(
        ["konvalina", "first", kk, "--preset", f"arithmetic:{kn}"],
        text_int(lambda: orc.preset_coeff("arithmetic", True, kn, kk), "konvalina first"),
    )
    gn, gk, gq = jitter(rng, 12), jitter(rng, 5), rng.randrange(2, 6)
    add(
        ["konvalina", "second", gk, "--preset", f"geometric:{gn}:{gq}", "--format", "json"],
        _guarded(
            lambda out: None
            if _record(out, "konvalina") == str(orc.preset_coeff("geometric", False, gn, gk, gq))
            else "konvalina second differs from the oracle"
        ),
    )
    on, ok = jitter(rng, 15), jitter(rng, 5)
    add(
        ["konvalina", "second", ok, "--preset", f"ones:{on}", "--format", "csv"],
        text_int(lambda: orc.preset_coeff("ones", False, on, ok), "konvalina ones"),
    )
    weights = sorted(rng.randrange(1, 10) for _ in range(7))
    wk = jitter(rng, 3)
    add(
        ["konvalina", "first", wk, "--weights", ",".join(map(str, weights))],
        text_int(lambda: _elementary(weights, wk), "konvalina weights"),
    )

    gvn = 8
    gvk = rng.choice((4, 5))  # C(9, 4) = C(9, 5) determinants either way
    add(["gv", gvn, gvk], text_int(lambda: orc.fibonomial(gvn + 1, gvk), "gv"))

    ck = rng.randrange(1, 6)
    cn = ck + jitter(rng, 8)
    add(["chains", ck, cn], text_int(lambda: orc.max_chain_count(ck, cn), "chains"))
    ek = rng.choice((1, 2))  # F_2 = 1: the same number of chains from either
    en = ek
    while orc.max_chain_count(ek, en + 1) <= 500:
        en += 1
    add(
        ["chains", ek, en, "--enumerate", "--format", "csv"],
        _guarded(lambda out: _enumerated_fault(orc, _csv(out), ek, en)),
    )

    tk, tm = 4, 2
    tr = rng.randrange(1, orc.fib(tk) + 1)
    add(["tiling", tk, tr, tm], _guarded(lambda out: _tiling_text_fault(orc, out, tk, tr, tm)))
    sk = 3
    sr = rng.randrange(1, orc.fib(sk) + 1)
    add(
        ["tiling", sk, sr, 2, "--format", "csv"],
        _guarded(
            lambda out: tiling_fault(
                orc,
                sk,
                sr,
                2,
                [
                    (tuple(int(v) for v in row[1].split(",")), tuple(tuple(map(int, c.split())) for c in row[2:]))
                    for row in _csv(out)
                ],
            )
        ),
    )
    jr = rng.randrange(1, 3)
    add(
        ["tiling", 3, jr, 3, "--format", "json"],
        _guarded(lambda out: _tiling_json_fault(orc, _record(out, "tiling"), 3, jr, 3)),
    )

    def no_cover_fault(out: str) -> Optional[str]:
        lines = out.splitlines()
        want = [
            "tiling k=2 r=1 m=3",
            f"universe {orc.universe(2, 3)}",
            f"candidates {orc.candidates(2, 3)}",
        ]
        if orc.tileable(2, 3) or lines[:3] != want or len(lines) != 4:
            return "expected the header and one NO COVER line"
        # The reason in parentheses may change; the verdict may not.
        return None if lines[3].startswith("NO COVER") else f"verdict line {lines[3]!r}"

    add(["tiling", 2, 1, 3], _guarded(no_cover_fault))
    ak, am = rng.choice(((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3)))
    add(
        ["tiling", ak, 1, am, "--count-all"],
        text_int(lambda: f"covers {count_tilings(orc, ak, am)}", "tiling --count-all"),
    )

    # Poset commands: every call pays the dense build, cold. Six of about
    # the same cost under mobius 11, so the 90th percentile falls among them.
    add(
        ["mobius", 11],
        _guarded(lambda out: orc.matrix_fault("mobius", _ints(r.split() for r in out.splitlines()), 11, "mobius")),
    )
    add(
        ["mobius", 10],
        _guarded(lambda out: orc.matrix_fault("mobius", _ints(r.split() for r in out.splitlines()), 10, "mobius")),
    )
    add(
        ["mobius", 10, "--format", "json"],
        _guarded(lambda out: orc.matrix_fault("mobius", _ints(_record(out, "mobius")), 10, "mobius")),
    )
    add(
        ["mobius", 10, "--format", "csv"],
        _guarded(lambda out: orc.matrix_fault("mobius", _ints(_csv(out)), 10, "mobius")),
    )
    add(["zeta", 12, "--check"], _equal("zeta check", lambda: "zeta check N=12: OK\n"))
    add(
        ["zeta", 12, "--check", "--format", "json"],
        _guarded(
            lambda out: None
            if _record(out, "zeta") == {"dim": str(orc.fib(14) - 1), "equal": True}
            else "zeta check record differs"
        ),
    )
    add(["hasse", 10, "--format", "dot"], _guarded(lambda out: _dot_fault(orc, out, 10)))
    xn = jitter(rng, 7)
    add(
        ["zeta", xn, "--explicit"],
        _guarded(lambda out: orc.matrix_fault("zeta", _ints(r.split() for r in out.splitlines()), xn, "zeta")),
    )
    hn = jitter(rng, 7)
    add(
        ["hasse", hn, "--format", "json"],
        _guarded(
            lambda out: None
            if _hasse_json(_record(out, "hasse")) == _hasse_want(orc, hn)
            else "hasse record differs from the level layout"
        ),
    )

    # Documented error exits.
    add(["mobius", 13], _equal("guard", lambda: ""), expect_exit=3)
    add(["fibonomial", 5, 2, "--format", "dot"], _equal("usage", lambda: ""), expect_exit=2)

    out_file = os.path.join(out_dir, "cli-out.txt")
    fm = jitter(rng, 500)

    def out_file_fault(out: str) -> Optional[str]:
        with open(out_file, encoding="utf-8") as fh:
            written = fh.read()
        if out or written != f"{orc.fib(fm + 2)}\n":
            return "--out file differs from the oracle"
        return None

    add(["fence", fm, "--out", out_file], _guarded(out_file_fault))
    # Kept failing operation: --out into a missing directory. Documented:
    # exit 2 and a one-line error. The program lets FileNotFoundError
    # escape from _Output.write, which prints a traceback and exits 1.
    add(
        ["fibonomial", 5, 2, "--out", os.path.join(out_dir, "no-such-dir", "out.txt")],
        _equal("--out into a missing directory", lambda: ""),
        expect_exit=2,
    )
    return ops


def _elementary(weights: list, k: int) -> int:
    """Sum of products over k-subsets, by brute force."""
    return sum(math.prod(c) for c in combinations(weights, k))


def _enumerated_fault(orc: Oracles, rows: list, k: int, n: int) -> Optional[str]:
    chains = [tuple(tuple(int(v) for v in cell.split(",")) for cell in row) for row in rows]
    want = orc.max_chain_count(k, n)
    if len(chains) != want:
        return f"{len(chains)} chains listed, expected {want}"
    if any(a >= b for a, b in zip(chains, chains[1:])):
        return "chains not in increasing lexicographic order"
    for chain in chains:
        if chain[0] != (1, k) or [s for _, s in chain] != list(range(k, n + 1)):
            return f"chain {chain} does not climb one level at a time from (1, {k})"
        if not all(1 <= j <= orc.fib(s) for j, s in chain):
            return f"chain {chain} has a vertex off its level"
    return None


def _tiling_text_fault(orc: Oracles, out: str, k: int, r: int, m: int) -> Optional[str]:
    copies, assignment, last = _tiling_text(out)
    head = out.splitlines()[:4]
    want = [
        f"tiling k={k} r={r} m={m}",
        f"universe {orc.universe(k, m)}",
        f"candidates {orc.candidates(k, m)}",
        f"copies {len(copies)}",
    ]
    if head != want:
        return f"header {head} differs from {want}"
    if last != "verdict VALID":
        return f"last line is {last!r}"
    return tiling_fault(orc, k, r, m, copies, assignment)


def _tiling_json_fault(orc: Oracles, result: dict, k: int, r: int, m: int) -> Optional[str]:
    if result["verdict"] != "VALID":
        return f"verdict {result['verdict']}"
    if (result["universe"], result["candidates"]) != (str(orc.universe(k, m)), str(orc.candidates(k, m))):
        return "universe or candidate count differs from the oracle"
    copies = [
        (tuple(int(v) for v in c["root"]), tuple(tuple(int(v) for v in s) for s in c["chosen"]))
        for c in result["copies"]
    ]
    assignment = {
        tuple(int(v) for v in chain.split(",")): int(idx)
        for chain, idx in result["assignment"].items()
    }
    return tiling_fault(orc, k, r, m, copies, assignment)


def _hasse_json(result: dict):
    return _ints(result["vertices"]), _ints(result["edges"])


def _dot_fault(orc: Oracles, out: str, n: int) -> Optional[str]:
    coords, edges = _hasse_want(orc, n)
    lines = out.splitlines()
    if lines[0] != "digraph cobweb {" or lines[-1] != "}":
        return "not a DOT digraph"
    labels = [ln for ln in lines if "[label=" in ln]
    want_labels = [f'  v{x} [label="{j},{s} #{x}"];' for x, (j, s) in enumerate(coords, start=1)]
    if labels != want_labels:
        return "DOT vertex labels differ from the level layout"
    got_edges = [ln for ln in lines if "->" in ln]
    if got_edges != [f"  v{x} -> v{y};" for x, y in edges]:
        return "DOT edges differ from the consecutive-level covers"
    ranks = [ln for ln in lines if "rank=same" in ln]
    if len(ranks) != n:
        return f"{len(ranks)} rank groups, expected {n}"
    return None
