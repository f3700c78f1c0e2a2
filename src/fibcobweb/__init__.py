"""Exact combinatorics of the Fibonacci cobweb poset.

Fibonomial coefficients and their recurrences, the cobweb poset's incidence
algebra (order-indicator and Mobius matrices, chain counts), max-disjoint
copy tilings built from Fibonacci blocks, weighted-box binomial coefficients,
binomial path determinants, and fence-poset ideal counts -- all over exact
integers.
"""

__version__ = "0.1.0"

from .cobweb import (
    CobwebPoset,
    IncMatrix,
    VertexCoord,
    build,
    count_all_chains,
    count_max_chains_from_root,
    count_max_chains_from_vertex,
    enumerate_max_chains,
    mobius,
    zeta_explicit,
    zeta_from_order,
)
from .fence import FencePoset, beck_identities, count_ideals, count_ideals_oracle
from .guards import GuardExceeded
from .gvpaths import binomial, fibonomial_via_paths, n_of_r
from .seqcore import (
    IntPolynomial,
    f_factorial,
    f_falling,
    fib,
    fibonomial,
    fibonomial_rec,
    q_binomial,
)
from .tiling import (
    CopySpec,
    TilingSolution,
    chains_of_copy,
    enumerate_copies,
    find_tiling,
    ratio_identity,
    recurrence_decomposition_check,
    verify_tiling,
)
from .weighted import WeightVector, c_coeff, c_coeff_oracle, preset_weights, s_coeff, s_coeff_oracle

__all__ = [
    "__version__",
    "CobwebPoset",
    "CopySpec",
    "FencePoset",
    "GuardExceeded",
    "IncMatrix",
    "IntPolynomial",
    "TilingSolution",
    "VertexCoord",
    "WeightVector",
    "beck_identities",
    "binomial",
    "build",
    "c_coeff",
    "c_coeff_oracle",
    "chains_of_copy",
    "count_all_chains",
    "count_ideals",
    "count_ideals_oracle",
    "count_max_chains_from_root",
    "count_max_chains_from_vertex",
    "enumerate_copies",
    "enumerate_max_chains",
    "f_factorial",
    "f_falling",
    "fib",
    "fibonomial",
    "fibonomial_rec",
    "fibonomial_via_paths",
    "find_tiling",
    "mobius",
    "n_of_r",
    "preset_weights",
    "q_binomial",
    "ratio_identity",
    "recurrence_decomposition_check",
    "s_coeff",
    "s_coeff_oracle",
    "verify_tiling",
    "zeta_explicit",
    "zeta_from_order",
]
