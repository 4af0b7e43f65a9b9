"""Density-matrix reconstruction from ray-valuation oracles.

The package turns a black-box probability valuation on unit vectors into
the density matrix generating it, through five routes (explicit
polarization on complex and on real Hilbert spaces, its two-dimensional
Pauli form, iterated sphere maximization, and uniform decoherence
averaging), and ships a checker suite for the algebraic identities any
such valuation satisfies.
"""

from . import hilbert, reconstruct, valuation, verify
from .hilbert import *
from .reconstruct import *
from .valuation import *
from .verify import *

__version__ = "0.1.0"

__all__ = [*hilbert.__all__, *reconstruct.__all__, *valuation.__all__, *verify.__all__]
