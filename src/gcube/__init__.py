"""Box uniformity norms, additive energies, and critical exponents on
discrete cubes, with entropy tooling for the large-k asymptotics."""

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
from .terms import (
    TermGroup,
    TupleClass,
    enumerate_tuple_classes,
    objective,
    pmf_of_tuple,
    term_groups,
    ternary_objective_check,
)
from .solver import (
    ExponentPair,
    SolverConfig,
    gaussian_witness,
    gaussian_witness_bound,
    max_objective,
    profile_to_simplex,
    solve_exponent,
    trivial_bounds,
    witness_lower_bound,
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
from .asymptotics import (
    AsymptoticReport,
    asymptotic_sweep,
    eisner_tao_constant,
    large_k_main_term,
    large_n_lower_main_term,
    leading_coefficient,
    leading_coefficient_rows,
)

__version__ = "0.1.0"
