"""The command line: the strict parse against argparse, and argparse's bytes.

`cli._parse` reads the well-formed shape of a command line straight from the
command table and declines everything else; argparse, built from the same
table, is its oracle. Help, version and usage-error bytes are pinned, as
argparse printed them before the strict parse existed.
"""

import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_stdout import GOLDEN

from fibcobweb import cli

# sha256 of stdout, exit code 0 and no stderr; recorded with COLUMNS=80.
HELP_DIGESTS = [
    ("--help", "a77d21c9c7373a10120da1faa9e3b2b3a212a5a068aae209f2c3df72ea7cf530"),
    ("fibonomial --help", "d0e22555b7c445da637384ab6cb6ba9328e1d14d234c5d46a125c1f04ec0df2f"),
    ("zeta --help", "9f9640c16f8877cb796108c709cf9ccb18e11de008859b78b9c7a575e9b84775"),
    ("mobius --help", "30771dfccae88e880f2a6488abc931a6b1cc44628fe71778138e5dd7a67008cc"),
    ("chains --help", "82b944f45c6774d3c3bb52c0517a24af06506d5f817bd5ce61ec0dca9acc2dad"),
    ("tiling --help", "12daa427ce601899f29db40956a7d0ff91f67a8ef1fafa0206864508b3f10ca1"),
    ("gv --help", "222fe4663cdc59909636f4e72724569d2c5da53f2e8089f67d64987ce0565835"),
    ("konvalina --help", "1c13848b62c32a92c2ccc8fb3ce39c347efedaad3e853adcb8272181f62657c9"),
    ("fence --help", "8c44688f15215fa4b449787012642d792a5a5c033eafc61346ec29b820bb8e8e"),
    ("hasse --help", "76ff2f9e8e24ec5c11ef33166211cb47218ecb4fb4cb2d7d67fd1d332ca6bf95"),
    ("verify --help", "8685975eea7170673f6b13d0247bd9e8d0d7dfa65ab95e6fc5345c4d3f6dc5a6"),
    ("--version", "c0cd485d5e32e2f90929c81d21ccdd01b8c978574360a8b468e78f8f5e7b34a8"),
]
# sha256 of stderr and the exit code, with no stdout; recorded with COLUMNS=80.
USAGE_DIGESTS = [
    ("", 2, "4f9eb1943f92d851b848b4589cbb054def89050a23643d72973f9d25846d52d6"),
    ("nosuchcommand", 2, "15bb9b233a10d2d12686415dd47fcf8eeedc2b857872a2b93b00cd3f11d333ce"),
    ("fibonomial 5 --format json 2", 2,
     "8fe026075e8d44ee71df85025bc042a23fbd4c4a04357a687efb12d028921b14"),
    ("zeta 3 --check --explicit", 2,
     "3c12b60a7908ac4238282089aa97f8f5c9f8af2c5e8579e11899d9be48f8f14b"),
    ("konvalina first 2", 2,
     "a3188032fcf72fd23fa529333e3998f9e6a533e81c7b5e7b69d4dbb25056b05d"),
    ("fence 10 --format xml", 2,
     "3108a350e299d1002a78231188f2b350dafb14f3b26b1d19092b28979df68bde"),
]

# argparse's help and usage text may change between Python versions; the
# digests are those Python 3.11 prints.
pinned_python = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests recorded with Python 3.11"
)


def _cobweb(invocation: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fibcobweb", *invocation.split()],
        capture_output=True,
        env={**os.environ, "COLUMNS": "80"},
        timeout=60,
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pinned_python
@pytest.mark.parametrize("invocation, digest", HELP_DIGESTS)
def test_help_and_version_bytes_are_pinned(invocation, digest):
    proc = _cobweb(invocation)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert _sha256(proc.stdout) == digest


@pinned_python
@pytest.mark.parametrize("invocation, code, digest", USAGE_DIGESTS)
def test_usage_error_bytes_are_pinned(invocation, code, digest):
    proc = _cobweb(invocation)
    assert (proc.returncode, proc.stdout) == (code, b"")
    assert _sha256(proc.stderr) == digest


# ---------------------------------------------------------------- the oracle

PARSER = cli._build_parser()
COMMANDS = tuple(cli._COMMANDS)
# One argv of each shape the benchmark's cli round runs.
BENCHMARK_SHAPES = [
    "fibonomial 150 75",
    "fibonomial 40 --format json",
    "fibonomial --triangle 18 --format csv",
    "fence 7944",
    "fence 500 --format json",
    "fence 500 --out PATH",
    "konvalina first 5 --preset arithmetic:25",
    "konvalina second 6 --preset geometric:12:3 --format json",
    "konvalina second 5 --preset ones:15 --format csv",
    "konvalina first 3 --weights 1,2,2,4,6,8,9",
    "gv 8 4",
    "chains 3 11",
    "chains 1 9 --enumerate --format csv",
    "tiling 4 2 2",
    "tiling 3 1 2 --format csv",
    "tiling 3 2 3 --format json",
    "tiling 2 1 3",
    "tiling 1 1 3 --count-all",
    "mobius 11",
    "mobius 10 --format json",
    "mobius 10 --format csv",
    "mobius 13",
    "zeta 12 --check",
    "zeta 12 --check --format json",
    "zeta 7 --explicit",
    "hasse 10 --format dot",
    "hasse 7 --format json",
    "fibonomial 5 2 --format dot",
    "fibonomial 5 2 --out PATH",
]


def _arguments(command: str) -> tuple:
    _, _, arguments, groups, _ = cli._COMMANDS[command]
    return cli._COMMON + arguments + tuple(a for _, group in groups for a in group)


OPTIONS = sorted({name for c in COMMANDS for name, _ in _arguments(c) if name.startswith("-")})
VALUES = ["0", "1", "2", "5", "12", "7944", "1,2,3", "ones:3", "geometric:4:2", "PATH"]
VALUES += sorted({v for c in COMMANDS for _, kw in _arguments(c) for v in kw.get("choices", ())})
# Spellings argparse reads in its own way or refuses; int() reads "+4",
# " 3", "1_000" and the Arabic-Indic digit three.
HOSTILE = [
    "-h", "--help", "--", "--version", "-", "--form", "--tri", "--e", "--unsafe",
    "--format=json", "--out=PATH", "--suite=fence", "-3", "-1", "-0", "--5",
    "", " ", "x", "1.5", " 3", "+4", "0x10", "1_000", "\u0663", "xml", "fib", "nosuchcommand",
]
TOKENS = [*COMMANDS, *OPTIONS, *VALUES, *HOSTILE]


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def _value(keywords: dict):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if keywords.get("type") is int:
        return st.integers(0, 10**6).map(str)
    return st.sampled_from(["1,2,3", "ones:3", "geometric:4:2", "PATH", "", "a=b", "x y"])


@st.composite
def well_formed(draw):
    """A command line in the shape the strict parse reads."""
    command = draw(st.sampled_from(COMMANDS))
    _, _, arguments, groups, _ = cli._COMMANDS[command]
    positionals = [kw for name, kw in arguments if not name.startswith("-")]
    optional = sum(kw.get("nargs") == "?" for kw in positionals)
    given_count = len(positionals) - optional + draw(st.integers(0, optional))
    argv = [command] + [draw(_value(kw)) for kw in positionals[:given_count]]
    plain = [a for a in cli._COMMON + arguments if a[0].startswith("-")]
    chosen = draw(st.lists(st.sampled_from(plain), unique_by=lambda a: a[0]))
    for required, group in groups:
        pick = st.sampled_from(group)
        chosen += [draw(pick)] if required else draw(st.lists(pick, max_size=1))
    for name, kw in draw(st.permutations(chosen)):
        argv.append(name)
        if kw.get("action") != "store_true":
            argv.append(draw(_value(kw)))
    return argv


@st.composite
def mutated(draw):
    """A well-formed command line with one token inserted, replaced or
    repeated, or two tokens swapped."""
    argv = draw(well_formed())
    i = draw(st.integers(0, len(argv) - 1))
    j = draw(st.integers(0, len(argv)))
    kind = draw(st.sampled_from(["insert", "replace", "repeat", "swap"]))
    if kind == "insert":
        argv.insert(j, draw(st.sampled_from(TOKENS)))
    elif kind == "replace":
        argv[i] = draw(st.sampled_from(TOKENS))
    elif kind == "repeat":
        argv.insert(j, argv[i])
    else:
        j = min(j, len(argv) - 1)
        argv[i], argv[j] = argv[j], argv[i]
    return argv


soup = st.lists(st.sampled_from(TOKENS), max_size=8)


@settings(max_examples=400, deadline=None)
@given(well_formed())
def test_the_strict_parse_reads_every_well_formed_line_as_argparse_does(argv):
    parsed = cli._parse(argv)
    assert parsed is not None, argv
    assert vars(parsed) == _argparse_vars(argv)


@settings(max_examples=1500, deadline=None)
@given(st.one_of(mutated(), soup))
def test_the_strict_parse_declines_or_agrees_with_argparse(argv):
    parsed = cli._parse(argv)
    if parsed is not None:
        # where argparse exits, the strict parse has declined
        assert vars(parsed) == _argparse_vars(argv), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["fibonomial", "-3"],  # a negative positional
        ["fibonomial", "5", "--format", "json", "2"],  # a positional after an option
        ["tiling", "--format", "csv", "3", "1", "2"],
        ["fibonomial", "5", "2", "3"],
        ["fence", "10", "--format=json"],
        ["fence", "10", "--form", "json"],
        ["fence", "10", "-h"],
        ["fence", "--", "10"],
        ["fence", "10", "--format", "json", "--format", "csv"],
        ["zeta", "3", "--check", "--explicit"],
        ["konvalina", "first", "2"],
        ["konvalina", "third", "2", "--weights", "1"],
        ["fence", "ten"],
        ["fence", "10", "--format", "xml"],
        ["fence", "10", "--out"],
        ["fence", "10", "--out", "-"],
        ["--version"],
        ["fence"],
        [],
    ],
)
def test_the_strict_parse_declines_what_argparse_must_read(argv):
    assert cli._parse(argv) is None


@pytest.mark.parametrize("invocation", [g[0] for g in GOLDEN] + BENCHMARK_SHAPES)
def test_the_strict_parse_reads_every_golden_and_benchmark_line(invocation):
    argv = invocation.split()
    parsed = cli._parse(argv)
    assert parsed is not None
    assert vars(parsed) == _argparse_vars(argv)
