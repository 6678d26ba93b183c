"""Independent numerical machinery validating the analytic modules."""

from .eigensolve import (
    TridiagonalMatrix,
    build_hamiltonian,
    eigenvalue_with_refinement,
    lowest_eigenvalues,
)
from .quadrature import gauss_legendre_rule
from .residual import ode_residual, residual_rate, richardson_extrapolate
from .validate import (
    SUITE_NAMES,
    ValidationReport,
    contraction_check,
    flat_limit_energy,
    flat_limit_wavefunction,
    run_suite,
    specfun_reports,
    validate_system,
)

__all__ = [
    "TridiagonalMatrix",
    "build_hamiltonian",
    "eigenvalue_with_refinement",
    "lowest_eigenvalues",
    "gauss_legendre_rule",
    "ode_residual",
    "residual_rate",
    "richardson_extrapolate",
    "SUITE_NAMES",
    "ValidationReport",
    "contraction_check",
    "flat_limit_energy",
    "flat_limit_wavefunction",
    "run_suite",
    "specfun_reports",
    "validate_system",
]
