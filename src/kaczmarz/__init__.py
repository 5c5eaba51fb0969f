"""Randomized Kaczmarz-type solvers for min-norm least squares.

The extended variant (solver "rek") converges to the minimum-norm
least-squares solution of A x ~ b for any A, rank-deficient and inconsistent
included, by pairing a column projection that strips the unreachable part of
b with a row projection that solves against the rest. Solvers "rk" and "rop"
run the two constituent iterations on their own; `solve` picks one by
SolverConfig.solver. Everything is seeded and reproducible; min_norm_solve is
the SVD oracle the statistical checks compare against.
"""

from .errors import (
    AllZeroMatrixError,
    DegenerateDensityError,
    DegenerateWeightsError,
    DimensionMismatchError,
    InvalidRangeError,
    KaczmarzError,
    MatrixMarketError,
    NonFiniteError,
    TooLargeError,
    UnsupportedFormatError,
)
from .matrices import DualSparseMatrix
from .reference import min_norm_solve
from .solvers import SolveReport, SolverConfig, solve, theory_bounds

__version__ = "0.1.0"

# What README documents, plus the error types. Everything else is imported
# from its own module (kaczmarz.generate, kaczmarz.mmio, kaczmarz.solvers, ...).
__all__ = [
    "AllZeroMatrixError",
    "DegenerateDensityError",
    "DegenerateWeightsError",
    "DimensionMismatchError",
    "DualSparseMatrix",
    "InvalidRangeError",
    "KaczmarzError",
    "MatrixMarketError",
    "NonFiniteError",
    "SolveReport",
    "SolverConfig",
    "TooLargeError",
    "UnsupportedFormatError",
    "min_norm_solve",
    "solve",
    "theory_bounds",
]
