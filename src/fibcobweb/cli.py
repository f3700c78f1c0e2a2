"""Command-line front end: every computation behind one `cobweb` command.

_COMMANDS is the command table: each command's handler, summary, arguments
in argparse's terms, exclusive groups and whether it draws a graph. _parse
reads a well-formed command line from the table without importing
argparse; it declines anything else (help, --version, a usage error, an
unusual spelling), which goes to the argparse tree built from the same
table and prints and exits as argparse does. Results go to stdout (or
--out), diagnostics to stderr. Exit codes: 0 on success, 1 on verification
failure, 2 on usage errors, 3 when a desk-scale guard is exceeded (override
with --unsafe-limits) or memory runs out (one stderr line, no traceback).
Numbers are emitted as exact decimal strings; output for a fixed invocation
is byte-identical across runs.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from types import SimpleNamespace

from . import __version__
from .guards import GuardExceeded, ensure_within

# Each command imports the modules it runs, after the guards it can check
# without them, so an invocation loads only those and a refusal loads none.

TEXT_MATRIX_LIMIT = 12
HASSE_LIMIT = 10
# `chains 1 N` takes about 1 s at N = 2500: the count has about 0.35 N^2 bits.
CHAINS_LIMIT = 2500
# `konvalina` builds and checks a preset's n weights of up to log2(max w)
# bits, makes a row of k + 1 cells, then sweeps it once per weight: a
# multiply-add on up to k log2(max w) + min(n, k) log2(n + k) bits per cell,
# plus a loop step worth about KONVALINA_CELL_BITS bits; each weight costs
# another 8 such steps to build and check, and 8 in the sweep. A call at the
# limit takes about 1 s (Python 3.11, 2 vCPUs): geometric:400:3 at k = 200
# estimates 1.3e10 and took 0.5 s (first kind) and 1.4 s (second kind);
# ones:1100000 at k = 1 estimates 9.6e9 and took 0.9 s (first kind).
KONVALINA_LIMIT = 10**10
KONVALINA_CELL_BITS = 512
# A `cobweb fence M` child takes about 0.7 s at M = 3,000,000 and 2.0 s at
# 5,000,000 (Python 3.11, 2 vCPUs).
FENCE_LIMIT = 3 * 10**6
# The Fibonomial (n k)_F is about phi^(k (n - k)), so it has about
# 0.694 k (n - k) bits; a row sums that over k, a triangle over its rows. Each shape's limit
# is near 5 s of output (Python 3.11, 2 vCPUs): `fibonomial 7000 3500`
# (8.5e6 bits) took 4.1-4.4 s and `7500 3750` (9.8e6) 6.0-6.6 s; row 884
# (8.0e7) took 4.7 s and row 1000 (1.2e8) 9.2 s; `--triangle 318` (3.0e8)
# took 4.6 s and `--triangle 330` (3.5e8) 5.5 s.
FIBONOMIAL_BITS_LIMIT = 9 * 10**6
FIBONOMIAL_ROW_BITS_LIMIT = 8 * 10**7
FIBONOMIAL_TRIANGLE_BITS_LIMIT = 3 * 10**8
# verify.SUITE_NAMES, spelled out so that the command table does not load
# every layer; tests/test_verify.py pins the two equal.
VERIFY_SUITES = ("arith", "poset", "tiling", "paths", "fence", "all")


# Bit length above which decimal_str leaves str(), which is quadratic before
# CPython 3.12. Measured on Python 3.11.7 (shared 2-vCPU x86-64 host), one
# conversion in a fresh process, the one-off `import decimal` (about 2 ms)
# counted: str() is faster at 64000 bits, the decimal route at 72000.
DECIMAL_STR_BITS = 1 << 16
_LEAF_BITS = 128  # pieces this short go to Decimal directly
# Rows are written in pieces of at least this many characters: unbuffered
# stdout makes each write a system call, and the whole output need not be
# held at once.
CHUNK_CHARS = 1 << 16


def decimal_str(n: int) -> str:
    """str(n), in subquadratic time above DECIMAL_STR_BITS."""
    if n.bit_length() <= DECIMAL_STR_BITS:
        return str(n)
    return _decimal_digits(n)


def _decimal_digits(n: int) -> str:
    """str(n) as CPython 3.12's _pylong computes it, for n of any length:
    n = hi * 2^w + lo with w half its bit length, the halves converted
    recursively and recombined in exact decimal arithmetic, whose products
    are subquadratic; each 2^w is built once from the powers below it."""
    import decimal

    D = decimal.Decimal
    powers = {}

    def power(w):
        result = powers.get(w)
        if result is None:
            if w <= _LEAF_BITS:
                result = D(1 << w)
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                result = power(w >> 1) * power(w - (w >> 1))
            powers[w] = result
        return result

    def convert(n, w):
        if w <= _LEAF_BITS:
            return D(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        size = abs(n)
        text = str(convert(size, size.bit_length()))
    return "-" + text if n < 0 else text


def _stringify(value):
    """Ints become exact decimal strings (floats never appear)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return decimal_str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    return value


def _write_stdout(chunks) -> None:
    """Write an iterable of strings to stdout and flush it. A failed write (a
    closed pipe, a full disk) becomes a ValueError, so main exits 2 with one
    line."""
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes stdout again at exit: send what is left in
        # its buffer nowhere, so that no second error follows
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        finally:
            os.close(null)
        raise ValueError(f"cannot write stdout: {exc}") from exc


class _Output:
    """Rendered output destined for stdout or --out."""

    def __init__(self, args):
        self.command = args.command
        self.format = args.format
        self.path = args.out

    def write(self, chunks) -> None:
        """Write an iterable of strings in order; a generator renders the
        output as it is written. A failed write becomes a ValueError, so
        main exits 2 with one line."""
        if not self.path:
            _write_stdout(chunks)
            return
        try:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from exc

    def emit(self, inputs: dict, result, rows, text=None, dot=None) -> None:
        """Write the --format representation of args.command's result.
        result (the JSON record's result), rows (the result as rows of
        cells), text and dot (lines) are zero-argument callables; only those
        the chosen format needs are called. A cell is an int, printed
        through decimal_str, or a str (not a bool, which would share a table
        entry with 0 or 1); each row is a sequence. CSV is the rows; text is
        the lines a command gives, else the rows with cells space-separated.
        Only a command whose table entry sets dot admits --format dot, and
        its handler passes dot."""
        lines = dot if self.format == "dot" else text
        if self.format == "json":
            import json

            record = {
                "command": self.command,
                "inputs": inputs,
                "result": result(),
                "version": __version__,
            }
            self.write([json.dumps(_stringify(record), sort_keys=True) + "\n"])
        elif self.format != "csv" and lines is not None:
            self.write(["\n".join(lines()) + "\n"])
        else:
            self.write(self._row_chunks(rows()))

    def _row_chunks(self, rows):
        """The rendered rows, joined into strings of at least CHUNK_CHARS
        characters (the last may be shorter), so that neither the whole
        output nor a write per row is needed. Each distinct cell of a chunk
        is rendered once, into a table kept until the chunk is written."""
        lines = []
        if self.format == "csv":
            import csv
            from types import SimpleNamespace

            sink = SimpleNamespace(write=lines.append)
            writerow = csv.writer(sink, lineterminator="\n").writerow
        else:

            def writerow(cells):
                lines.append(" ".join(cells) + "\n")

        shown = {}
        held = 0
        for row in rows:
            for cell in set(row).difference(shown):
                shown[cell] = decimal_str(cell) if isinstance(cell, int) else cell
            writerow(map(shown.__getitem__, row))
            held += len(lines[-1])
            if held >= CHUNK_CHARS:
                yield "".join(lines)
                lines.clear()
                shown.clear()
                held = 0
        if lines:
            yield "".join(lines)

    def emit_value(self, inputs: dict, value) -> None:
        """One number: the text line, the CSV row and the JSON result."""
        self.emit(inputs, lambda: value, lambda: [[value]])


def _coord_text(v) -> str:
    return f"{v.j},{v.s}"


def _fibonomial_within(shape: str, log_phi: int, limit: int, unsafe: bool):
    """seqcore.fibonomial, once a shape whose values have log_phi as the sum
    of their k (n - k) is within its limit of estimated bits."""
    bits = log_phi * 694 // 1000
    ensure_within(f"fibonomial {shape} bits estimate", bits, limit, unsafe)
    from .seqcore import fibonomial

    return fibonomial


def _cmd_fibonomial(args, out: _Output) -> int:
    n, k, unsafe = args.n, args.k, args.unsafe_limits
    if args.triangle is not None:
        if n is not None:
            raise ValueError("fibonomial takes either N (with optional K) or --triangle ROWS")
        r = args.triangle
        if r < 0:
            raise ValueError("--triangle rows must be >= 0")
        # sum over rows m <= r of (m - 1) m (m + 1) / 6
        log_phi = (r - 1) * r * (r + 1) * (r + 2) // 24
        fibonomial = _fibonomial_within("triangle", log_phi, FIBONOMIAL_TRIANGLE_BITS_LIMIT, unsafe)

        def rows():  # computed as they are written; JSON alone holds them all
            return ([fibonomial(m, j) for j in range(m + 1)] for m in range(r + 1))

        inputs, result = {"triangle": r}, lambda: list(rows())
    elif n is None:
        raise ValueError("fibonomial needs N (with optional K) or --triangle ROWS")
    elif k is None:
        if n < 0:
            raise ValueError(f"indices must be >= 0, got {n}")
        # sum over j <= n of j (n - j)
        log_phi = (n - 1) * n * (n + 1) // 6
        fibonomial = _fibonomial_within("row", log_phi, FIBONOMIAL_ROW_BITS_LIMIT, unsafe)
        row = [fibonomial(n, j) for j in range(n + 1)]
        inputs, result, rows = {"n": n}, lambda: row, lambda: [row]
    else:
        # seqcore refuses a negative index and gives 0 for k > n at once
        log_phi = k * (n - k) if 0 <= k <= n else 0
        fibonomial = _fibonomial_within("value", log_phi, FIBONOMIAL_BITS_LIMIT, unsafe)
        out.emit_value({"n": n, "k": k}, fibonomial(n, k))
        return 0
    out.emit(inputs, result, rows)
    return 0


def _matrix_guard(n: int, unsafe: bool) -> None:
    # matrix dimension grows like phi^n; the dump itself becomes the bottleneck
    ensure_within("matrix dump level", n, TEXT_MATRIX_LIMIT, unsafe)


def _cmd_zeta(args, out: _Output) -> int:
    _matrix_guard(args.n, args.unsafe_limits)
    from . import cobweb

    poset = cobweb.build(args.n)
    if args.check:
        zeta = cobweb.zeta_from_order(poset, args.unsafe_limits)
        diff = zeta.first_difference(cobweb.zeta_explicit(poset, args.unsafe_limits))
        if diff is not None:
            print(f"zeta construction mismatch at (row, col) = {diff}", file=sys.stderr)
            return 1
        dim = poset.vertex_count
        out.emit(
            {"n": args.n, "check": True},
            lambda: {"equal": True, "dim": dim},
            lambda: [["OK", dim]],
            text=lambda: [f"zeta check N={args.n}: OK"],
        )
        return 0
    builder = cobweb.zeta_explicit if args.explicit else cobweb.zeta_from_order
    mode = "explicit" if args.explicit else "order"
    matrix = builder(poset, args.unsafe_limits)
    out.emit({"n": args.n, "build": mode}, lambda: matrix, lambda: matrix)
    return 0


def _cmd_mobius(args, out: _Output) -> int:
    _matrix_guard(args.n, args.unsafe_limits)
    from . import cobweb

    matrix = cobweb.mobius(cobweb.build(args.n), args.unsafe_limits)
    out.emit({"n": args.n}, lambda: matrix, lambda: matrix)
    return 0


def _cmd_chains(args, out: _Output) -> int:
    ensure_within("chains target level", args.n, CHAINS_LIMIT, args.unsafe_limits)
    if args.k > args.n:
        raise ValueError(f"start level {args.k} is above target level {args.n}")
    from . import cobweb

    poset = cobweb.build(max(args.n, 1))
    start = cobweb.VertexCoord(1, args.k)
    if args.enumerate:
        chains = cobweb.enumerate_max_chains(poset, start, args.n, args.unsafe_limits)

        def rows():
            # one string per vertex, so that emit hashes each text once
            texts = {v: _coord_text(v) for v in set().union(*chains)}
            return ([texts[v] for v in chain] for chain in chains)

        out.emit({"k": args.k, "n": args.n, "enumerate": True}, lambda: chains, rows)
        return 0
    value = cobweb.count_max_chains_from_vertex(poset, start, args.n)
    out.emit_value({"k": args.k, "n": args.n}, value)
    return 0


def _chain_text(chain) -> str:
    return ",".join(map(str, chain))


def _tiling_lines(solution) -> list[str]:
    lines = [f"copies {len(solution.copies)}"]
    for idx, c in enumerate(solution.copies):
        chosen = "; ".join(
            f"level {solution.root.s + s}: " + " ".join(map(str, subset))
            for s, subset in enumerate(c.chosen, start=1)
        )
        lines.append(f"copy {idx}: root {_coord_text(c.root)}; {chosen}")
    # one read: each read of the property builds the map again
    for chain, idx in sorted(solution.assignment.items()):
        lines.append(f"chain {_chain_text(chain)} -> copy {idx}")
    return lines


def _cmd_tiling(args, out: _Output) -> int:
    from . import tiling
    from .seqcore import f_falling

    k, r, m = args.k, args.r, args.m
    inputs = {"k": k, "r": r, "m": m}
    # solve first: the guards live behind these calls
    if args.count_all:
        covers = tiling.count_all_tilings(k, r, m, args.unsafe_limits)
    else:
        solution = tiling.find_tiling(k, r, m, args.unsafe_limits)
    universe = f_falling(k + m, m)
    candidates = tiling.copy_count(k, m)
    result = {"universe": universe, "candidates": candidates}
    if args.count_all:
        out.emit(
            {**inputs, "count_all": True},
            lambda: {**result, "covers": covers},
            lambda: [[covers]],
            text=lambda: [f"covers {decimal_str(covers)}"],
        )
        return 0
    header = [
        f"tiling k={k} r={r} m={m}",
        f"universe {decimal_str(universe)}",
        f"candidates {decimal_str(candidates)}",
    ]
    if solution is None:
        out.emit(
            inputs,
            lambda: {**result, "copies": None, "verdict": "NO COVER"},
            lambda: [["NO COVER"]],
            text=lambda: header + [f"NO COVER ({tiling.no_cover_reason(k, m)})"],
        )
        return 0
    valid = tiling.verify_tiling(solution)
    verdict = "VALID" if valid else "INVALID"

    def record():
        return {
            **result,
            "copies": [
                {"root": [c.root.j, c.root.s], "chosen": [list(s) for s in c.chosen]}
                for c in solution.copies
            ],
            "assignment": {
                _chain_text(chain): idx for chain, idx in solution.assignment.items()
            },
            "verdict": verdict,
        }

    out.emit(
        inputs,
        record,
        lambda: [
            [idx, _coord_text(c.root)] + [" ".join(map(str, s)) for s in c.chosen]
            for idx, c in enumerate(solution.copies)
        ],
        text=lambda: header + _tiling_lines(solution) + [f"verdict {verdict}"],
    )
    return 0 if valid else 1


def _cmd_gv(args, out: _Output) -> int:
    from .gvpaths import fibonomial_via_paths

    value = fibonomial_via_paths(args.n, args.k, args.unsafe_limits)
    out.emit_value({"n": args.n, "k": args.k}, value)
    return 0


def _cmd_konvalina(args, out: _Output) -> int:
    from . import weighted

    if args.weights is not None:
        try:
            entries = [int(w) for w in args.weights.split(",") if w != ""]
        except ValueError as exc:
            raise ValueError(f"bad --weights value: {args.weights!r}") from exc
        wv = weighted.WeightVector(entries)
        n, log2_max = len(wv), (max(wv, default=1) - 1).bit_length()
    else:
        kind, *fields = args.preset.split(":")
        try:
            if len(fields) > 1 + (kind == "geometric"):
                raise ValueError("only geometric takes a ratio")
            n, *q = map(int, fields)
        except ValueError as exc:
            raise ValueError(
                f"bad --preset value: {args.preset!r}; use ones:N, arithmetic:N or geometric:N:Q"
            ) from exc
        log2_max = weighted.preset_log2(kind, n, *q)
    first, k = args.kind == "first", args.k
    coefficient = weighted.c_coeff if first else weighted.s_coeff
    if k < 0:
        coefficient((), k)  # the library's refusal, before any weight is built
    step = 8 * KONVALINA_CELL_BITS
    cost = 0 if args.weights is not None else n * (log2_max + step)
    if not (first and k > n):  # else 0, with no sweep
        cell_bits = k * log2_max + min(n, k) * (n + k).bit_length() + KONVALINA_CELL_BITS
        cost += (n + 1) * (k * cell_bits + step)
    ensure_within("konvalina cost estimate", cost, KONVALINA_LIMIT, args.unsafe_limits)
    if args.weights is None:  # geometric:1000000:3 would hold about 100 GB
        wv = weighted.preset_weights(kind, n, *q)
    value = coefficient(wv, k)
    out.emit_value({"kind": args.kind, "weights": list(wv), "k": k}, value)
    return 0


def _cmd_fence(args, out: _Output) -> int:
    ensure_within("fence size", args.m, FENCE_LIMIT, args.unsafe_limits)
    from .fence import count_ideals

    out.emit_value({"m": args.m}, count_ideals(args.m))
    return 0


def _hasse_dot(poset) -> list[str]:
    lines = ["digraph cobweb {", "  rankdir=BT;", '  node [shape=circle];']
    for x in range(1, poset.vertex_count + 1):
        v = poset.coord_of(x)
        lines.append(f'  v{x} [label="{v.j},{v.s} #{x}"];')
    for s in range(1, poset.max_level + 1):
        members = " ".join(f"v{x};" for x in poset.level_range(s))
        lines.append(f"  {{ rank=same; {members} }}")
    for x, y in poset.hasse_edges():
        lines.append(f"  v{x} -> v{y};")
    lines.append("}")
    return lines


def _cmd_hasse(args, out: _Output) -> int:
    ensure_within("hasse level", args.n, HASSE_LIMIT, args.unsafe_limits)
    from . import cobweb

    poset = cobweb.build(args.n)
    vertices = range(1, poset.vertex_count + 1)
    edges = list(poset.hasse_edges())
    out.emit(
        {"n": args.n},
        lambda: {"vertices": [poset.coord_of(x) for x in vertices], "edges": edges},
        lambda: edges,
        text=lambda: [f"vertices {poset.vertex_count}"]
        + [f"{x} {_coord_text(poset.coord_of(x))}" for x in vertices]
        + [f"{x} -> {y}" for x, y in edges],
        dot=lambda: _hasse_dot(poset),
    )
    return 0


def _cmd_verify(args, out: _Output) -> int:
    import time

    from . import verify

    started = time.perf_counter()
    results = verify.run_suite(args.suite)
    elapsed = time.perf_counter() - started
    all_passed = all(r.passed for r in results)
    out.emit(
        {"suite": args.suite},
        lambda: {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
            "passed": all_passed,
        },
        lambda: [[r.name, str(r.passed), r.detail] for r in results],
        text=lambda: [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f" ({r.detail})" if r.detail else "")
            for r in results
        ]
        + [f"suite {args.suite}: {'PASS' if all_passed else 'FAIL'}"],
    )
    for r in results:
        print(f"check {r.name} wall time: {r.seconds:.3f}s", file=sys.stderr)
    print(f"suite {args.suite} wall time: {elapsed:.2f}s", file=sys.stderr)
    return 0 if all_passed else 1


def _arg(name, **keywords):
    """One argument: its name and the keywords argparse's add_argument takes."""
    return name, keywords


def _group(*arguments, required=False):
    """A mutually exclusive group of options."""
    return required, arguments


def _command(run, summary, *arguments, groups=(), dot=False):
    """A command's handler, its summary, its arguments in the order they are
    added, its groups, added after them, and whether it draws a graph."""
    return run, summary, arguments, groups, dot


# The command table, in the order help lists it; _COMMON holds the options
# every command takes. Of argparse's keywords, _parse reads type (int),
# nargs ("?"), choices, action ("store_true") and default; metavar and help
# are argparse's alone.
_COMMON = (
    _arg(
        "--format",
        choices=("text", "json", "csv", "dot"),
        default="text",
        help="output format (dot is valid only for graph-producing commands)",
    ),
    _arg("--out", metavar="PATH", help="write output to PATH"),
    _arg(
        "--unsafe-limits",
        action="store_true",
        help="override desk-scale guards (prints a warning)",
    ),
)
_COMMANDS = {
    "fibonomial": _command(
        _cmd_fibonomial,
        "Fibonomial coefficients",
        _arg("n", type=int, nargs="?"),
        _arg("k", type=int, nargs="?"),
        _arg("--triangle", type=int, metavar="ROWS", help="print rows 0..ROWS"),
    ),
    "zeta": _command(
        _cmd_zeta,
        "order-indicator matrix",
        _arg("n", type=int),
        groups=[
            _group(
                _arg("--explicit", action="store_true", help="delta-expansion build"),
                _arg("--order", action="store_true", help="comparability build (default)"),
                _arg("--check", action="store_true", help="build both ways and compare"),
            )
        ],
    ),
    "mobius": _command(_cmd_mobius, "Mobius matrix", _arg("n", type=int)),
    "chains": _command(
        _cmd_chains,
        "maximal chains between levels",
        _arg("k", type=int, help="start level (first vertex of the level)"),
        _arg("n", type=int, help="target level"),
        _arg("--enumerate", action="store_true", help="list the chains"),
    ),
    "tiling": _command(
        _cmd_tiling,
        "max-disjoint copy tiling",
        _arg("k", type=int, help="root level"),
        _arg("r", type=int, help="root position within level k"),
        _arg("m", type=int, help="copy height"),
        _arg("--count-all", action="store_true", help="count every tiling"),
    ),
    "gv": _command(
        _cmd_gv, "path-determinant Fibonomial sum", _arg("n", type=int), _arg("k", type=int)
    ),
    "konvalina": _command(
        _cmd_konvalina,
        "weighted-box coefficients",
        _arg("kind", choices=("first", "second")),
        _arg("k", type=int),
        groups=[
            _group(
                _arg("--weights", metavar="W1,W2,...", help="explicit weight vector"),
                _arg(
                    "--preset",
                    metavar="KIND:N[:Q]",
                    help="ones:N, arithmetic:N, or geometric:N:Q",
                ),
                required=True,
            )
        ],
    ),
    "fence": _command(_cmd_fence, "fence-poset ideal count", _arg("m", type=int)),
    "hasse": _command(_cmd_hasse, "Hasse diagram export", _arg("n", type=int), dot=True),
    "verify": _command(
        _cmd_verify,
        "run self-verification suites",
        _arg("--suite", choices=VERIFY_SUITES, default="all", help="suite to run"),
    ),
}


def _parse(argv: list[str]):
    """The namespace argparse makes of argv, read from the command table, or
    None where argv is not in the well-formed shape: a command name, its
    positionals in one run, then its options by their full names, each once
    and at most one of a group, with any value in the next token. No other
    token may start with "-", and every int and choice must be valid.
    argparse handles the rest, errors included."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    run, _, arguments, groups, dot = _COMMANDS[argv[0]]
    values = {"command": argv[0], "run": run, "dot": dot}
    positionals, options = [], {}
    for name, keywords in _COMMON + arguments + tuple(a for _, g in groups for a in g):
        if name.startswith("-"):
            options[name] = keywords
            flag = keywords.get("action") == "store_true"
            values[_dest(name)] = keywords.get("default", False if flag else None)
        else:
            positionals.append((name, keywords))
    tokens = iter(argv[1:])
    token = next(tokens, None)
    try:
        for name, keywords in positionals:
            if token is not None and not token.startswith("-"):
                values[name] = _convert(token, keywords)
                token = next(tokens, None)
            elif keywords.get("nargs") == "?":
                values[name] = keywords.get("default")
            else:
                return None
        given = set()
        while token is not None:
            keywords = options.get(token)
            if keywords is None or token in given:
                return None
            given.add(token)
            if keywords.get("action") == "store_true":
                value = True
            else:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    return None
                value = _convert(value, keywords)
            values[_dest(token)] = value
            token = next(tokens, None)
    except ValueError:  # a bad int or choice
        return None
    for required, group in groups:
        count = sum(name in given for name, _ in group)
        if count > 1 or (required and not count):
            return None
    return SimpleNamespace(**values)


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _convert(text: str, keywords: dict):
    """text as argparse converts it; a ValueError where argparse refuses it."""
    value = keywords.get("type", str)(text)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(f"invalid choice: {value!r}")
    return value


def _build_parser():
    """The argparse tree of the command table. It reads only the command
    lines _parse declines: help, --version and usage errors keep argparse's
    own bytes and exit codes."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Help and version text go through the guarded stdout write, so
        that a failed write exits 2 (argparse drops the error and exits 0)."""

        def _print_message(self, message, file=None):
            if message and file is sys.stdout:
                _write_stdout([message])
            else:
                super()._print_message(message, file)

    parser = _Parser(
        prog="cobweb",
        description="Exact Fibonacci cobweb poset combinatorics",
    )
    parser.add_argument("--version", action="version", version=f"cobweb {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    for name, keywords in _COMMON:
        common.add_argument(name, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, summary, arguments, groups, dot) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=summary)
        p.set_defaults(run=run, dot=dot)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        for required, group in groups:
            exclusive = p.add_mutually_exclusive_group(required=required)
            for name, keywords in group:
                exclusive.add_argument(name, **keywords)
    return parser


@contextmanager
def unlimited_int_str():
    """Lift CPython's limit on the digits of int <-> str conversions (3.10.7+)
    for the duration, so results print as exact decimals of any length."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    with unlimited_int_str():
        try:
            if argv is None:
                argv = sys.argv[1:]
            args = _parse(argv) or _build_parser().parse_args(argv)
            if args.format == "dot" and not args.dot:
                raise ValueError("dot output is valid only for graph-producing commands")
            if args.unsafe_limits:
                print("warning: desk-scale guards overridden (--unsafe-limits)", file=sys.stderr)
            return args.run(args, _Output(args))
        except GuardExceeded as exc:
            print(f"guard exceeded: {exc}", file=sys.stderr)
            print("rerun with --unsafe-limits to override", file=sys.stderr)
            return 3
        except (MemoryError, OverflowError) as exc:
            # OverflowError, an ArithmeticError, is raised for a size no list
            # can hold, such as a dense build at N = 100 under --unsafe-limits
            print(f"guard exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (ArithmeticError, AssertionError) as exc:
            print(f"verification failure: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
