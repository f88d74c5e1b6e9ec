"""Capacities of a qubit depolarizing channel driven by two-state Markov memory.

The channel applies one of two depolarizing branches per qubit, selected by
an ergodic two-state Markov chain.  The package computes its action exactly,
the two-use capacity in closed form (with the entangled/product crossover),
and brackets the product-state capacity through the entropy rate of the
hidden-Markov flip process.
"""

__version__ = "0.1.0"

from .errors import InvalidParameterError, InvalidStateError
from .linalg import (
    binary_entropy,
    basis_ket,
    ket_to_dm,
    maximally_mixed,
    partial_trace,
    pauli_conjugate,
    pauli_matrix,
    pauli_string,
    shannon_entropy,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from .channel import (
    ChannelParams,
    MarkovMemory,
    apply_branch,
    apply_gamma_n,
    apply_gamma_n_fast,
    branch_averaged_entropy,
    depolarize,
    depolarize_qubit,
    forgetfulness_gap,
    path_weights,
    pauli_multipliers,
)
from .two_qubit import (
    InputAngle,
    OptimalFamily,
    TwoUseCapacity,
    TwoUseSpectrum,
    lambda_pair,
    numeric_theta_scan,
    output_eigenvalues,
    output_state,
    threshold_f,
    two_use_capacity,
)
from .hmm_rate import (
    CapacityEstimate,
    EntropyRateBracket,
    FlipProcess,
    block_entropy,
    capacity_upper_bound,
    entropy_rate_bracket,
    markov_entropy_rate,
    path_measure,
    product_state_capacity,
)
from .ensembles import (
    InputFamily,
    MutualInformation,
    basis_product,
    default_families,
    family_comparison,
    generate,
    ghz,
    max_entangled_halves,
    orbit_mutual_information,
    stabilizer_spectrum,
    w_spectrum,
    w_state,
)
