"""Box uniformity norms, additive energies, and critical exponents on
discrete cubes, with entropy tooling for the large-k asymptotics.

Every name below resolves on first use (PEP 562), loading only the layer
that defines it: `import gcube` loads no layer, and none imports numpy
until a name of terms, solver or asymptotics is read.
"""

import importlib
import sys
import types

_LAZY = {
    name: module
    for module, names in (
        (".lattice", ("CubeSet", "LatticeFunction", "convolve", "delta", "indicator",
                      "interval_set", "lp_norm", "reflect", "tensor_power")),
        (".gowers", ("GowersSystem", "energy_E", "energy_E_tilde", "energy_P",
                     "gowers_inner_product", "gowers_norm", "gowers_norm_pow",
                     "gowers_norm_recursive")),
        (".entropy", ("PMFVector", "binomial_entropy", "binomial_entropy_bounds",
                      "decreasing_rearrangement", "entropy", "entropy_bits",
                      "karamata_compare", "majorizes", "pmf_signed_sum",
                      "verify_entropy_corollary", "verify_majorization_lemma")),
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


class _Package(types.ModuleType):
    # The import system sets each submodule as an attribute of its package on
    # first load.  `gcube.entropy` is the entropy function, so the package
    # drops that one binding: the module stays importlib.import_module's.
    def __setattr__(self, name, value):
        if name == "entropy" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


__version__ = "0.1.0"
