"""Density-matrix reconstruction from ray-valuation oracles.

The package turns a black-box probability valuation on unit vectors into
the density matrix generating it, through five routes (explicit
polarization on complex and on real Hilbert spaces, its two-dimensional
Pauli form, iterated sphere maximization, and uniform decoherence
averaging), and ships a checker suite for the algebraic identities any
such valuation satisfies.
"""

from .hilbert import (
    ATOL,
    DensityMatrix,
    OrthonormalBasis,
    Projector,
    SpectralDecomposition,
    UnitVector,
    haar_random_basis,
    nearest_density_matrix,
    random_density_matrix,
    spectral_decomposition,
    standard_basis,
)
from .reconstruct import (
    ConvergenceError,
    ImplicitConfig,
    ReconstructionReport,
    TransitionMatrix,
    bloch_vector_of,
    explicit_query_vectors,
    explicit_reconstruct,
    explicit_reconstruct_real,
    haar_average_reconstruct,
    implicit_reconstruct,
    pauli_reconstruct_2d,
    transition_matrix,
)
from .valuation import (
    ExactOracle,
    NoisyOracle,
    OracleLookupError,
    TabulatedOracle,
    ValuationOracle,
    extend,
    sesquilinear,
)
from .verify import (
    CheckReport,
    check_additivity,
    check_basis_independence,
    check_density,
    check_haar_moment,
    check_unistochastic,
)

__version__ = "0.1.0"

__all__ = [
    "ATOL",
    "CheckReport",
    "ConvergenceError",
    "DensityMatrix",
    "ExactOracle",
    "ImplicitConfig",
    "NoisyOracle",
    "OracleLookupError",
    "OrthonormalBasis",
    "Projector",
    "ReconstructionReport",
    "SpectralDecomposition",
    "TabulatedOracle",
    "TransitionMatrix",
    "UnitVector",
    "ValuationOracle",
    "bloch_vector_of",
    "check_additivity",
    "check_basis_independence",
    "check_density",
    "check_haar_moment",
    "check_unistochastic",
    "explicit_query_vectors",
    "explicit_reconstruct",
    "explicit_reconstruct_real",
    "extend",
    "haar_average_reconstruct",
    "haar_random_basis",
    "implicit_reconstruct",
    "nearest_density_matrix",
    "pauli_reconstruct_2d",
    "random_density_matrix",
    "sesquilinear",
    "spectral_decomposition",
    "standard_basis",
    "transition_matrix",
]
