"""Exact combinatorics of the Fibonacci cobweb poset.

Fibonomial coefficients and their recurrences, the cobweb poset's incidence
algebra (order-indicator and Mobius matrices, chain counts), max-disjoint
copy tilings built from Fibonacci blocks, weighted-box binomial coefficients,
binomial path determinants, and fence-poset ideal counts -- all over exact
integers.

Importing the package costs only this file (PEP 562). A submodule, such as
`fibcobweb.tiling`, loads on first use by itself; the first public name used
loads the modules behind all of them and binds every name in the package.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "cobweb": (
        "CobwebPoset",
        "IncMatrix",
        "VertexCoord",
        "build",
        "count_all_chains",
        "count_max_chains_from_vertex",
        "enumerate_max_chains",
        "mobius",
        "zeta_explicit",
        "zeta_from_order",
    ),
    "fence": ("count_ideals",),
    "guards": ("GuardExceeded",),
    "gvpaths": ("fibonomial_via_paths",),
    "seqcore": (
        "IntPolynomial",
        "f_factorial",
        "f_falling",
        "fib",
        "fibonomial",
        "fibonomial_rec",
        "q_binomial",
    ),
    "tiling": (
        "CopySpec",
        "TilingSolution",
        "find_tiling",
        "verify_tiling",
    ),
    "weighted": (
        "WeightVector",
        "c_coeff",
        "c_coeff_oracle",
        "preset_weights",
        "s_coeff",
        "s_coeff_oracle",
    ),
}
_NAMES = frozenset(name for names in _EXPORTS.values() for name in names)
_SUBMODULES = frozenset({*_EXPORTS, "cli", "verify"})

__all__ = ["__version__", *sorted(_NAMES)]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # loads that submodule alone; the import binds it in the package
        return _import_module(f".{name}", __name__)
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        namespace = vars(_import_module(f".{module}", __name__))
        globals().update({n: namespace[n] for n in names})
    # Every public name is bound now. CPython does not specialise attribute
    # reads on a module that defines __getattr__ (each `fibcobweb.mobius`
    # would cost about twice as much), so the hook goes.
    globals().pop("__getattr__", None)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
