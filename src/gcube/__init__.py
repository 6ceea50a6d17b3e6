"""Box uniformity norms, additive energies, and critical exponents on
discrete cubes, with entropy tooling for the large-k asymptotics.

The exact layers (lattice, gowers, entropy) are pure Python and load with
the package; the names of the numpy layers (terms, solver, asymptotics)
resolve on first use, so `import gcube` does not import numpy.
"""

import importlib

from .lattice import (
    CubeSet,
    LatticeFunction,
    convolve,
    delta,
    indicator,
    interval_set,
    lp_norm,
    reflect,
    tensor_power,
)
from .gowers import (
    GowersSystem,
    energy_E,
    energy_E_tilde,
    energy_P,
    gowers_inner_product,
    gowers_norm,
    gowers_norm_pow,
    gowers_norm_recursive,
)
from .entropy import (
    PMFVector,
    binomial_entropy,
    binomial_entropy_bounds,
    decreasing_rearrangement,
    entropy,
    entropy_bits,
    karamata_compare,
    majorizes,
    pmf_signed_sum,
    verify_entropy_corollary,
    verify_majorization_lemma,
)

# The layers below import numpy; their names resolve on first use.
_LAZY = {
    name: module
    for module, names in (
        (".terms", ("enumerate_tuple_classes", "objective", "pmf_of_tuple",
                    "term_groups", "ternary_objective_check")),
        (".solver", ("ExponentPair", "SolverConfig", "gaussian_witness",
                     "gaussian_witness_bound", "max_objective", "profile_to_simplex",
                     "solve_exponent", "trivial_bounds", "witness_lower_bound")),
        (".asymptotics", ("AsymptoticReport", "asymptotic_sweep", "eisner_tao_constant",
                          "large_k_main_term", "large_n_lower_main_term",
                          "leading_coefficient", "leading_coefficient_rows")),
    )
    for name in names
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


__version__ = "0.1.0"
