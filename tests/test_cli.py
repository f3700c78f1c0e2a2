import argparse
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcobweb import cli, verify
from fibcobweb.cli import (
    CHAINS_LIMIT,
    FENCE_LIMIT,
    _decimal_digits,
    decimal_str,
    main,
    unlimited_int_str,
)
from fibcobweb.fence import count_ideals
from fibcobweb.gvpaths import SUM_LIMIT
from fibcobweb.seqcore import fibonomial
from fibcobweb.verify import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fibonomial_value(capsys):
    code, out, _ = run(capsys, "fibonomial", "5", "2")
    assert code == 0
    assert out == "15\n"


def test_fibonomial_long_decimal(capsys):
    code, out, _ = run(capsys, "fibonomial", "300", "150")
    assert code == 0
    with unlimited_int_str():
        assert out == f"{fibonomial(300, 150)}\n"
    assert len(out) > 4300


def test_fibonomial_boundary(capsys):
    code, out, _ = run(capsys, "fibonomial", "0", "3")
    assert code == 0
    assert out == "0\n"


def test_fibonomial_triangle(capsys):
    code, out, _ = run(capsys, "fibonomial", "--triangle", "4")
    assert code == 0
    assert out.splitlines() == ["1", "1 1", "1 1 1", "1 2 2 1", "1 3 6 3 1"]


@pytest.mark.parametrize("indices", [("5",), ("5", "2")])
def test_fibonomial_triangle_with_indices(capsys, indices):
    code, out, err = run(capsys, "fibonomial", *indices, "--triangle", "3")
    assert code == 2
    assert out == ""
    assert err == "error: fibonomial takes either N (with optional K) or --triangle ROWS\n"


def test_fibonomial_row(capsys):
    code, out, _ = run(capsys, "fibonomial", "4")
    assert code == 0
    assert out == "1 3 6 3 1\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fibonomial_negative_row(capsys, fmt):
    code, out, err = run(capsys, "fibonomial", "-3", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: indices must be >= 0, got -3\n"


def test_fibonomial_missing_args(capsys):
    code, _, err = run(capsys, "fibonomial")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2


def test_zeta_single_vertex(capsys):
    code, out, _ = run(capsys, "zeta", "1")
    assert code == 0
    assert out == "1\n"


def test_zeta_figure_rows(capsys):
    code, out, _ = run(capsys, "zeta", "6", "--explicit")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 20
    assert rows[2].startswith("0 0 1 0 1 1")
    assert rows[7].split()[8:12] == ["0", "0", "0", "0"]


def test_zeta_check(capsys):
    code, out, _ = run(capsys, "zeta", "8", "--check")
    assert code == 0
    assert "OK" in out


@pytest.mark.parametrize("build", ["--explicit", "--order"])
def test_zeta_check_takes_no_build_flag(build, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "3", "--check", build])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_zeta_text_guard(capsys):
    code, _, err = run(capsys, "zeta", "13")
    assert code == 3
    assert "guard" in err
    code, out, err = run(capsys, "zeta", "13", "--unsafe-limits")
    assert code == 0
    assert "warning" in err
    assert len(out.splitlines()) == 609


def test_mobius_dump(capsys):
    code, out, _ = run(capsys, "mobius", "3")
    assert code == 0
    assert out.splitlines() == ["1 -1 0 0", "0 1 -1 -1", "0 0 1 0", "0 0 0 1"]


def test_chains_count(capsys):
    code, out, _ = run(capsys, "chains", "2", "5")
    assert code == 0
    assert out == "30\n"


def test_chains_enumerate(capsys):
    code, out, _ = run(capsys, "chains", "2", "5", "--enumerate")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 30
    assert lines[0] == "1,2 1,3 1,4 1,5"
    assert lines[-1] == "1,2 2,3 3,4 5,5"


def test_chains_guard(capsys):
    code, _, err = run(capsys, "chains", "1", "12", "--enumerate")
    assert code == 3
    assert "guard" in err


def test_tiling_valid(capsys):
    code, out, _ = run(capsys, "tiling", "3", "1", "2")
    assert code == 0
    lines = out.splitlines()
    assert "copies 15" in lines
    assert lines[-1] == "verdict VALID"
    assert sum(1 for line in lines if line.startswith("chain ")) == 15


def test_tiling_deeper_than_the_recursion_limit(capsys):
    # 1870 copies, one search level each
    code, out, _ = run(capsys, "tiling", "8", "1", "2")
    assert code == 0
    lines = out.splitlines()
    assert f"copies {fibonomial(10, 2)}" in lines
    assert lines[-1] == "verdict VALID"


def test_tiling_beyond_the_candidate_guard(capsys):
    code, out, _ = run(capsys, "tiling", "6", "1", "3")
    assert code == 0
    lines = out.splitlines()
    assert "copies 4641" in lines
    assert lines[-1] == "verdict VALID"


def test_tiling_no_cover_below_the_top_level(capsys):
    # F_4 divides F_8, but F_3 does not divide F_7
    code, out, _ = run(capsys, "tiling", "4", "1", "4", "--unsafe-limits")
    assert code == 0
    assert out.splitlines()[-1] == "NO COVER (F_3 does not divide F_7)"
    code, out, _ = run(capsys, "tiling", "4", "1", "4", "--unsafe-limits", "--count-all")
    assert code == 0
    assert out == "covers 0\n"


def test_tiling_no_cover(capsys):
    code, out, _ = run(capsys, "tiling", "2", "1", "3")
    assert code == 0
    assert out.splitlines()[-1] == "NO COVER (F_3 does not divide F_5)"
    assert "universe 30" in out
    assert "candidates 60" in out


def test_tiling_count_all(capsys):
    code, out, _ = run(capsys, "tiling", "2", "1", "2", "--count-all")
    assert code == 0
    assert out == "covers 1\n"


def test_tiling_count_all_guard(capsys):
    code, _, err = run(capsys, "tiling", "9", "1", "3", "--count-all")
    assert code == 3
    assert "guard" in err


def test_tiling_count_all_closed_form(capsys):
    code, out, _ = run(capsys, "tiling", "3", "1", "3", "--count-all")
    assert code == 0
    assert out == "covers 2078928179411367257720947265625\n"


@pytest.mark.parametrize(
    "argv,exit_code",
    [(["tiling", "3", "1", "3"], 0), (["tiling", "12", "1", "4"], 2)],
)
def test_tiling_count_all_unsafe_ends_quickly(argv, exit_code):
    proc = subprocess.run(
        [sys.executable, "-m", "fibcobweb", *argv, "--count-all", "--unsafe-limits"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == exit_code
    assert "Traceback" not in proc.stderr
    if exit_code == 2:
        assert proc.stderr.splitlines()[-1].startswith("error: no closed form")


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv",
    [["tiling", "3000000", "1", "1"], ["chains", "1", "3000000", "--unsafe-limits"]],
)
def test_out_of_memory_exits_3_without_traceback(argv):
    # Under 1 GiB of address space in the child, both exit 3 with no traceback.
    # The tiling memoises F_3000000 and F_3000001 and the O(log n) values
    # below them that its checks need, so its universe guard refuses. The
    # chains run, its guard overridden, stores every level size of a
    # height-3000000 poset and runs out of memory.
    proc = subprocess.run(
        [sys.executable, "-m", "fibcobweb", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    if argv[0] == "tiling":
        assert proc.stderr == (
            "guard exceeded: chain universe size = a 626963-digit number"
            " exceeds guard limit 10000\n"
            "rerun with --unsafe-limits to override\n"
        )
    else:
        assert proc.stderr == (
            "warning: desk-scale guards overridden (--unsafe-limits)\n"
            "guard exceeded: out of memory\n"
        )


@pytest.mark.parametrize("argv", [["mobius", "100"], ["zeta", "100", "--explicit"]])
def test_a_dense_build_past_any_list_size_exits_3_without_traceback(argv):
    # The height-100 poset has F_102 - 1 > 2**63 vertices, so the first row
    # buffer raises OverflowError, an ArithmeticError, before allocating.
    proc = subprocess.run(
        [sys.executable, "-m", "fibcobweb", *argv, "--unsafe-limits"],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "warning: desk-scale guards overridden (--unsafe-limits)",
        "guard exceeded: cannot fit 'int' into an index-sized integer",
    ]


def test_chains_guard_refuses_a_high_target_level():
    proc = subprocess.run(
        [sys.executable, "-m", "fibcobweb", "chains", "1", "20000"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"guard exceeded: chains target level = 20000 exceeds guard limit {CHAINS_LIMIT}",
        "rerun with --unsafe-limits to override",
    ]


@pytest.mark.parametrize(
    "argv,exit_code,timeout",
    [
        (["fence", "100000000"], 3, 5),  # ran past 15 s unguarded
        (["fence", str(FENCE_LIMIT)], 0, 30),
        (["fence", str(FENCE_LIMIT + 1), "--unsafe-limits", "--format", "json"], 0, 30),
    ],
)
def test_fence_guard_refuses_before_computing(argv, exit_code, timeout):
    proc = subprocess.run(
        [sys.executable, "-m", "fibcobweb", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == exit_code
    if exit_code == 3:
        assert proc.stderr.splitlines() == [
            f"guard exceeded: fence size = 100000000 exceeds guard limit {FENCE_LIMIT}",
            "rerun with --unsafe-limits to override",
        ]
    else:
        assert "guard exceeded" not in proc.stderr


@pytest.mark.parametrize(
    "argv,guard",
    [
        # each ran past 8 s unguarded
        (["fibonomial", "100000", "50000"], "value bits estimate = 1735000000"),
        (["fibonomial", "5000"], "row bits estimate = 14458332755"),
        (["fibonomial", "--triangle", "5000"], "triangle bits estimate = 18080145110127"),
        # ran past 20 s unguarded
        (["fibonomial", "20000", "10000"], "value bits estimate = 69400000"),
    ],
)
def test_fibonomial_guards_refuse_before_computing(argv, guard):
    proc = subprocess.run(
        [sys.executable, "-m", "fibcobweb", *argv],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    first, second = proc.stderr.splitlines()
    assert first.startswith(f"guard exceeded: fibonomial {guard} exceeds guard limit ")
    assert second == "rerun with --unsafe-limits to override"


@pytest.mark.parametrize(
    "argv",
    [
        ["fibonomial", "5000", "2500"],
        ["fibonomial", "600"],
        ["fibonomial", "--triangle", "300"],
        ["fibonomial", "2000", "1000", "--format", "json"],
        ["fibonomial", "--triangle", "200"],
        ["fibonomial", "7", "20000000"],  # k > n is 0 at once
        ["fibonomial", "100000", "50000", "--unsafe-limits"],
    ],
)
def test_fibonomial_guards_admit(monkeypatch, capsys, argv):
    # the values are not computed: only the guards are under test
    monkeypatch.setattr("fibcobweb.seqcore.fibonomial", lambda n, k: 0)
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert "guard exceeded" not in err


def test_chains_refuses_a_start_level_above_the_target_before_building():
    # Building the height-3000000 poset would store every level size, far
    # past the 1 GiB address-space limit of the child.
    proc = subprocess.run(
        [sys.executable, "-m", "fibcobweb", "chains", "3000000", "1"],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: start level 3000000 is above target level 1\n"


def test_tiling_guard_message_is_short(capsys):
    # the guarded universe F_1001 has 209 digits
    code, _, err = run(capsys, "tiling", "1000", "1", "1")
    assert code == 3
    assert "209-digit" in err
    assert len(err.encode()) < 200


def test_tiling_root_position_message_is_short(capsys):
    # the bound F_5000 has 1045 digits
    code, out, err = run(capsys, "tiling", "5000", "0", "1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "1045-digit" in err
    assert len(err) < 100


def test_tiling_oversized_instance_rejected_quickly(capsys):
    code, _, err = run(capsys, "tiling", "1", "1", "12")
    assert code == 3
    assert "guard" in err


def test_mobius_guard_applies_to_json_too(capsys):
    code, _, err = run(capsys, "mobius", "14", "--format", "json")
    assert code == 3
    assert "guard" in err


def test_gv_value(capsys):
    code, out, _ = run(capsys, "gv", "3", "2")
    assert code == 0
    assert out == "6\n"


def test_gv_guard(capsys):
    code, out, err = run(capsys, "gv", str(SUM_LIMIT + 1), "3")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        f"guard exceeded: path sum upper index = {SUM_LIMIT + 1}"
        f" exceeds guard limit {SUM_LIMIT}",
        "rerun with --unsafe-limits to override",
    ]


def test_konvalina_weights(capsys):
    code, out, _ = run(capsys, "konvalina", "first", "2", "--weights", "1,2,3")
    assert code == 0
    assert out == "11\n"


def test_konvalina_preset(capsys):
    code, out, _ = run(capsys, "konvalina", "second", "2", "--preset", "geometric:3:2")
    assert code == 0
    assert out == "35\n"


def test_konvalina_bad_weights(capsys):
    code, _, err = run(capsys, "konvalina", "first", "2", "--weights", "1,x")
    assert code == 2
    assert "error" in err


def test_konvalina_bad_preset(capsys):
    code, _, err = run(capsys, "konvalina", "first", "2", "--preset", "geometric")
    assert code == 2
    assert "error" in err


def test_konvalina_second_kind_from_no_boxes(capsys):
    assert run(capsys, "konvalina", "second", "2", "--weights", "")[:2] == (0, "0\n")
    assert run(capsys, "konvalina", "second", "0", "--weights", "")[:2] == (0, "1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("first", "20000", "--preset", "arithmetic:40000"),
        ("second", "20000", "--preset", "arithmetic:200"),
        ("second", "200", "--preset", "geometric:400:3"),
        # the weights would take about 100 GB: refused before they are built
        ("second", "2", "--preset", "geometric:1000000:3"),
        ("second", "1000000000", "--weights", ""),
    ],
)
def test_konvalina_guard_refuses_before_computing(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "fibcobweb", "konvalina", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("guard exceeded: konvalina cost estimate = ")
    assert lines[0].endswith(f" exceeds guard limit {cli.KONVALINA_LIMIT}")
    assert lines[1] == "rerun with --unsafe-limits to override"


def test_konvalina_guard_admits_cheap_calls():
    # a first-kind k > n is 0 at once; one unit weight is a long cheap sweep
    for argv, want in (
        (("first", "1000000000", "--preset", "arithmetic:5"), "0\n"),
        (("second", "3000000", "--weights", "1"), "1\n"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "fibcobweb", "konvalina", *argv],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, ""), argv


@pytest.mark.parametrize(
    "preset", ["arithmetic:5:3", "ones:4:2", "geometric:3:2:9", "ones:", "arithmetic"]
)
def test_konvalina_preset_with_wrong_fields(capsys, preset):
    code, out, err = run(capsys, "konvalina", "first", "2", "--preset", preset)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: bad --preset value: {preset!r};"
        " use ones:N, arithmetic:N or geometric:N:Q\n"
    )


def test_fence_value(capsys):
    code, out, _ = run(capsys, "fence", "10")
    assert code == 0
    assert out == "144\n"


def test_fence_long_value_in_every_format(capsys):
    with unlimited_int_str():
        want = str(count_ideals(300000))
    for fmt in ("text", "csv"):
        code, out, _ = run(capsys, "fence", "300000", "--format", fmt)
        assert (code, out) == (0, want + "\n")
    code, out, _ = run(capsys, "fence", "300000", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == want


@st.composite
def _long_ints(draw, max_bits):
    """Up to max_bits bits: random, or next to a power of two or of ten."""
    bits = draw(st.integers(0, max_bits))
    kind = draw(st.sampled_from(("random", "two", "ten")))
    if kind == "random":
        n = random.Random(draw(st.integers(0, 2**32))).getrandbits(bits)
    elif kind == "two":
        n = 1 << bits
    else:
        n = 10 ** (bits * 3 // 10)
    n += draw(st.integers(-2, 2))
    return -n if draw(st.booleans()) else n


@settings(max_examples=30, deadline=None)
@given(_long_ints(332_193))  # 10^5 digits
def test_decimal_str_is_str(n):
    with unlimited_int_str():
        assert decimal_str(n) == str(n)


@settings(max_examples=300, deadline=None)
@given(_long_ints(4096))
def test_recursive_decimal_digits_are_str_at_any_size(n):
    assert _decimal_digits(n) == str(n)


def test_hasse_dot(capsys):
    code, out, _ = run(capsys, "hasse", "5", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("label") == 12
    assert out.count("rank=same") == 5
    assert "v1 -> v2;" in out


def test_hasse_text(capsys):
    code, out, _ = run(capsys, "hasse", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertices 4"
    assert "2 -> 3" in lines and "2 -> 4" in lines


def test_hasse_guard(capsys):
    code, _, err = run(capsys, "hasse", "11")
    assert code == 3
    assert "guard" in err


def test_dot_rejected_for_non_graph(capsys):
    # valid arguments for every command but hasse; the refusal comes before
    # any guard, so mobius 13 and chains 1 3000 exit 2, not 3
    for argv in (
        ("fibonomial", "5", "2"),
        ("zeta", "4"),
        ("mobius", "13"),
        ("chains", "1", "3000"),
        ("tiling", "3", "1", "2"),
        ("gv", "4", "2"),
        ("konvalina", "first", "2", "--weights", "1,2,3"),
        ("fence", "10"),
        ("verify", "--suite", "arith"),
    ):
        code, out, err = run(capsys, *argv, "--format", "dot")
        assert (code, out) == (2, ""), argv
        assert err == "error: dot output is valid only for graph-producing commands\n", argv


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run(capsys, "fibonomial", "5", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "15\n"


def test_out_missing_directory(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "result.txt"
    code, out, err = run(capsys, "fibonomial", "5", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not target.exists()


def test_out_is_directory(tmp_path, capsys):
    code, out, err = run(capsys, "fibonomial", "5", "2", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _assert_one_stdout_error(returncode, stderr):
    assert returncode == 2
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    assert stderr.startswith("error: cannot write stdout: ")
    assert len(stderr.splitlines()) == 1


def test_closed_stdout_pipe_exits_2_with_one_line(tmp_path):
    # `cobweb fibonomial --triangle 200 | head -c 100`: 14 MB of rows, and the
    # reader leaves after 100 bytes
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "fibcobweb", "fibonomial", "--triangle", "200"],
            stdout=subprocess.PIPE,
            stderr=err,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        returncode = proc.wait(timeout=60)
        err.seek(0)
        _assert_one_stdout_error(returncode, err.read())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2_with_one_line():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "fibcobweb", "fibonomial", "5", "2"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=30,
        )
    _assert_one_stdout_error(proc.returncode, proc.stderr)


def _run_on(stdout, argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "fibcobweb", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=30,
        env=env,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [("--version",), ("--help",)])
def test_help_and_version_on_full_stdout_exit_2(argv, unbuffered):
    with open("/dev/full", "w") as full:
        proc = _run_on(full, argv, unbuffered)
    _assert_one_stdout_error(proc.returncode, proc.stderr)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_on_closed_stdout_pipe_exits_2(unbuffered):
    # `cobweb tiling --help | head -c 10` where the reader has left before
    # the help is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_on(write_end, ("tiling", "--help"), unbuffered)
    finally:
        os.close(write_end)
    _assert_one_stdout_error(proc.returncode, proc.stderr)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit"
)
def test_main_restores_the_int_string_limit(capsys):
    # an in-process main, after it exits 0 or 2, leaves the host's limit as
    # it found it
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(capsys, "fence", "10")[0] == 0
        assert sys.get_int_max_str_digits() == 4300
        assert run(capsys, "fibonomial", "5", "2", "--format", "dot")[0] == 2
        assert sys.get_int_max_str_digits() == 4300
        with unlimited_int_str():
            assert sys.get_int_max_str_digits() == 0
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_json_record_shape(capsys):
    code, out, _ = run(capsys, "fibonomial", "10", "5", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "command": "fibonomial",
        "inputs": {"n": "10", "k": "5"},
        "result": "136136",
        "version": record["version"],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("fibonomial", "10", "5"),
        ("fibonomial", "--triangle", "5"),
        ("zeta", "4"),
        ("mobius", "4"),
        ("chains", "2", "5", "--enumerate"),
        ("tiling", "3", "1", "2"),
        ("tiling", "2", "1", "3"),
        ("gv", "4", "2"),
        ("konvalina", "second", "3", "--preset", "arithmetic:4"),
        ("fence", "7"),
        ("hasse", "4"),
    ],
)
def test_json_round_trip_and_determinism(argv, capsys):
    code, first, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    record = json.loads(first)
    assert json.dumps(record, sort_keys=True) + "\n" == first
    assert set(record) == {"command", "inputs", "result", "version"}
    code, second, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert second == first


def test_text_determinism(capsys):
    code, first, _ = run(capsys, "tiling", "3", "1", "3")
    assert code == 0
    code, second, _ = run(capsys, "tiling", "3", "1", "3")
    assert second == first


def test_csv_output(capsys):
    code, out, _ = run(capsys, "fibonomial", "--triangle", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1", "1,1", "1,1,1", "1,2,2,1"]


@pytest.mark.parametrize(
    "fmt, want", [("text", "{0} -1 {0}\na,b 7\n"), ("csv", '{0},-1,{0}\n"a,b",7\n')]
)
def test_emit_prints_each_distinct_int_once_through_decimal_str(fmt, want, monkeypatch, capsys):
    big = 3**50000  # 79249 bits, above DECIMAL_STR_BITS
    with unlimited_int_str():
        digits = str(big)
    converted = []

    def counting(n):
        converted.append(n)
        return decimal_str(n)

    monkeypatch.setattr(cli, "decimal_str", counting)
    out = cli._Output(argparse.Namespace(command="x", format=fmt, out=None))
    out.emit({}, lambda: None, lambda: [(big, -1, big), ["a,b", 7]])
    assert capsys.readouterr().out == want.format(digits)
    assert sorted(converted) == [-1, 7, big]


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_emit_writes_rows_in_chunks_as_they_come(fmt, monkeypatch):
    # about 800 KB of rows: more than one write, each but the last at least
    # CHUNK_CHARS, and the first before the last row is rendered
    total, produced, writes = 2000, [], []

    def rows():
        for i in range(total):
            produced.append(i)
            yield [10**40 + i] * 10

    class Sink(io.TextIOBase):
        def write(self, chunk):
            writes.append((chunk, len(produced)))
            return len(chunk)

    monkeypatch.setattr(sys, "stdout", Sink())
    out = cli._Output(argparse.Namespace(command="x", format=fmt, out=None))
    out.emit({}, None, rows)
    sep = " " if fmt == "text" else ","
    assert "".join(w for w, _ in writes) == "".join(
        sep.join([str(10**40 + i)] * 10) + "\n" for i in range(total)
    )
    assert len(writes) > 1
    assert all(len(w) >= cli.CHUNK_CHARS for w, _ in writes[:-1])
    assert writes[0][1] < total


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_triangle_rows_are_computed_as_they_are_written(fmt, monkeypatch):
    # rows 0..60 render to about 120 KB, more than one chunk: the first write
    # comes before the last row's first entry is computed
    from fibcobweb import seqcore

    last, computed, writes = 60, [], []

    def counted(n, k):
        computed.append(n)
        return fibonomial(n, k)

    class Sink(io.TextIOBase):
        def write(self, chunk):
            writes.append((chunk, max(computed)))
            return len(chunk)

    monkeypatch.setattr(seqcore, "fibonomial", counted)
    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(["fibonomial", "--triangle", str(last), "--format", fmt]) == 0
    assert len(writes) > 1
    assert writes[0][1] < last


def test_verify_suite_arith(capsys):
    code, out, err = run(capsys, "verify", "--suite", "arith")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "suite arith: PASS"
    assert "wall time" in err


def test_verify_times_each_check(capsys):
    code, out, err = run(capsys, "verify", "--suite", "fence")
    assert code == 0
    timings = [line for line in err.splitlines() if line.startswith("check ")]
    assert len(timings) == len(verify.SUITES["fence"])
    for line, result in zip(timings, out.splitlines()):
        name = result.removeprefix("PASS ").split(" (")[0]
        assert line.startswith(f"check {name} wall time: ") and line.endswith("s")
    assert err.splitlines()[-1].startswith("suite fence wall time: ")


def test_verify_reports_failures(monkeypatch, capsys):
    def fake_run_suite(name):
        return [CheckResult("always broken", False, "counterexample: (3, 5)")]

    monkeypatch.setattr(verify, "run_suite", fake_run_suite)
    code, out, _ = run(capsys, "verify", "--suite", "poset")
    assert code == 1
    assert "FAIL always broken" in out
    assert "(3, 5)" in out


def test_verify_reports_a_raising_check(monkeypatch, capsys):
    def check_broken_route():
        raise IndexError("list index out of range")

    fence = verify.SUITES["fence"]
    monkeypatch.setitem(verify.SUITES, "fence", (("broken route", check_broken_route), *fence))
    code, out, err = run(capsys, "verify", "--suite", "fence")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL broken route (raised IndexError: list index out of range)"
    assert err.splitlines()[0].startswith("check broken route wall time: ")
    assert len(lines) == len(fence) + 2
    assert all(line.startswith("PASS") for line in lines[1:-1])
    assert lines[-1] == "suite fence: FAIL"
    assert "Traceback" not in err


def test_verify_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fence", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["passed"] is True
    assert json.dumps(record, sort_keys=True) + "\n" == out
