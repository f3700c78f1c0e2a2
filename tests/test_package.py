"""The package surface and what a CLI invocation loads."""

import pkgutil
import subprocess
import sys

import pytest

import fibcobweb

MODULES = {info.name for info in pkgutil.iter_modules(fibcobweb.__path__)}


def _fresh(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by(*argv, exit_code=0, exits=False) -> set:
    """Modules that `cobweb ARGV` adds to a fresh interpreter's sys.modules.
    main returns exit_code, or with exits raises SystemExit(exit_code)."""
    call = f"main({list(argv)!r})"
    if exits:
        run = (
            f"try:\n    {call}\nexcept SystemExit as exc:\n    assert exc.code == {exit_code}\n"
            "else:\n    raise AssertionError('main returned')\n"
        )
    else:
        run = f"assert {call} == {exit_code}\n"
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from fibcobweb.cli import main\n"
        f"{run}"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    return set(_fresh(code).splitlines()[-1].split())


# what parsing by argparse loads; a well-formed command line needs none of it
ARGPARSE = {"argparse", "gettext", "locale"}


def _parsed_by_table(*argv, exit_code=0) -> set:
    loaded = _loaded_by(*argv, exit_code=exit_code)
    assert not loaded & ARGPARSE, argv
    return loaded


def test_the_lazy_loader_knows_every_module():
    assert MODULES == fibcobweb._SUBMODULES | {"__main__"}


def test_a_command_loads_only_what_it_runs():
    loaded = _parsed_by_table("fibonomial", "5", "2")
    assert "fibcobweb.seqcore" in loaded
    layers = MODULES - {"__main__", "cli", "guards", "seqcore"}
    unwanted = {f"fibcobweb.{m}" for m in layers} | {"dataclasses", "json", "csv"}
    assert not loaded & unwanted
    for argv in (
        ("mobius", "5"),
        ("zeta", "5", "--check"),
        ("hasse", "3", "--format", "dot"),
        ("chains", "2", "5", "--enumerate"),
    ):
        loaded = _parsed_by_table(*argv)
        assert "fibcobweb.cobweb" in loaded, argv
        unwanted = {"fibcobweb.tiling", "fibcobweb.verify", "dataclasses", "inspect"}
        assert not loaded & unwanted, argv
    # a guard or usage refusal comes before the layer it guards is loaded
    for argv, exit_code in (
        (("mobius", "13"), 3),
        (("hasse", "11"), 3),
        (("chains", "1", "3000"), 3),
        (("chains", "5", "3"), 2),
        (("fibonomial", "100000", "50000"), 3),
        (("fibonomial", "5000"), 3),
        (("fibonomial", "--triangle", "5000"), 3),
    ):
        loaded = _parsed_by_table(*argv, exit_code=exit_code)
        assert not loaded & {"fibcobweb.cobweb", "fibcobweb.seqcore"}, argv
    for argv in (("tiling", "4", "1", "2"), ("tiling", "3", "1", "3", "--count-all")):
        loaded = _parsed_by_table(*argv)
        assert "fibcobweb.tiling" in loaded
        assert "fibcobweb.verify" not in loaded
    loaded = _parsed_by_table("fence", "10")
    assert "fibcobweb.fence" in loaded
    assert not loaded & {"fibcobweb.seqcore", "dataclasses"}
    loaded = _parsed_by_table("gv", "5", "2")
    assert "fibcobweb.gvpaths" in loaded
    assert "fibcobweb.seqcore" not in loaded
    loaded = _parsed_by_table("konvalina", "first", "2", "--weights", "1,2,3")
    assert "fibcobweb.weighted" in loaded
    assert "fibcobweb.seqcore" not in loaded
    # help and a usage error still go to argparse, and exit 0 and 2
    for argv, exit_code in ((("--help",), 0), (("fence", "--help"), 0), (("fence", "x"), 2)):
        assert ARGPARSE <= _loaded_by(*argv, exit_code=exit_code, exits=True), argv


def test_a_dot_refusal_loads_no_layer():
    # main refuses --format dot for a command that draws no graph before
    # its handler runs
    layers = {f"fibcobweb.{m}" for m in MODULES - {"__main__", "cli", "guards"}}
    for argv in (("fibonomial", "5", "2"), ("mobius", "5"), ("tiling", "4", "1", "2")):
        assert not _loaded_by(*argv, "--format", "dot", exit_code=2) & layers, argv


def test_public_names_are_their_modules_objects():
    for name in fibcobweb.__all__:
        if name == "__version__":
            continue
        obj = getattr(fibcobweb, name)
        assert obj.__module__.startswith("fibcobweb."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from fibcobweb import *", namespace)
    assert set(fibcobweb.__all__) <= set(namespace)
    assert set(fibcobweb.__all__) <= set(dir(fibcobweb))
    with pytest.raises(AttributeError):
        fibcobweb.no_such_name


def test_public_names_are_pinned():
    assert sorted(fibcobweb.__all__) == [
        "CobwebPoset",
        "CopySpec",
        "GuardExceeded",
        "IncMatrix",
        "IntPolynomial",
        "TilingSolution",
        "VertexCoord",
        "WeightVector",
        "__version__",
        "build",
        "c_coeff",
        "c_coeff_oracle",
        "count_all_chains",
        "count_ideals",
        "count_max_chains_from_vertex",
        "enumerate_max_chains",
        "f_factorial",
        "f_falling",
        "fib",
        "fibonomial",
        "fibonomial_rec",
        "fibonomial_via_paths",
        "find_tiling",
        "mobius",
        "preset_weights",
        "q_binomial",
        "s_coeff",
        "s_coeff_oracle",
        "verify_tiling",
        "zeta_explicit",
        "zeta_from_order",
    ]


def test_import_loads_no_submodule_until_used():
    # Once a public name is used the hook is gone: CPython does not
    # specialise attribute reads on a module that defines __getattr__.
    code = (
        "import sys\n"
        "import fibcobweb\n"
        "print(sorted(m for m in sys.modules if m.startswith('fibcobweb.')))\n"
        "print(hasattr(fibcobweb, 'no_such_name'))\n"
        "print(fibcobweb.tiling.count_all_tilings(1, 1, 1))\n"
        "print('fibcobweb.cobweb' in sys.modules, '__getattr__' in vars(fibcobweb))\n"
        "print(fibcobweb.fib(10), '__getattr__' in vars(fibcobweb))\n"
    )
    assert _fresh(code) == "[]\nFalse\n1\nTrue True\n55 False\n"


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda: fibcobweb.CobwebPoset(4), "max_level"),
        (lambda: fibcobweb.IncMatrix(((1, 2), (0, 1))), "rows"),
        (lambda: fibcobweb.IntPolynomial((1, 2)), "coeffs"),
    ],
)
def test_value_types_are_frozen_and_hash_by_value(make, field):
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.other = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
