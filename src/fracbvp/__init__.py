"""Numerical toolkit for a three-point fractional boundary value problem.

The library constructs the problem's Green's function, checks the
existence/uniqueness certificates in the squared-sup-distance space
(relaxation constant 2), and computes solutions by certified Picard
iteration on the equivalent integral operator.
"""

from .bmetric import distance, psi, tau, theta
from .calculus import (
    DEFAULT_PANELS,
    GridFunction,
    QuadratureGrid,
    build_grid,
    frac_derivative,
    frac_integral,
    semigroup_defect,
)
from .errors import (
    ConfigurationError,
    DomainError,
    FracBvpError,
    GridMismatchError,
    NumericError,
)
from .green import (
    BvpParams,
    GreenKernel,
    KernelPropertyReport,
    build_kernel,
    check_kernel_properties,
    green_max_bound,
    green_values,
)
from .solver import (
    Certificate,
    Hypothesis,
    Operator,
    ProblemSpec,
    SolveReport,
    build_certificate,
    operator_matrix,
    picard_solve,
)
from .special import PhiMap, gamma, phi_catalog

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special functions
    "gamma", "PhiMap", "phi_catalog",
    # calculus
    "DEFAULT_PANELS", "QuadratureGrid", "GridFunction", "build_grid",
    "frac_integral", "frac_derivative", "semigroup_defect",
    # kernel
    "BvpParams", "GreenKernel", "build_kernel",
    "green_values", "green_max_bound",
    "KernelPropertyReport", "check_kernel_properties",
    # metric machinery
    "distance", "psi", "theta", "tau",
    # solver
    "ProblemSpec", "Certificate", "Hypothesis", "SolveReport", "Operator",
    "operator_matrix", "build_certificate", "picard_solve",
    # errors
    "FracBvpError", "DomainError", "ConfigurationError",
    "GridMismatchError", "NumericError",
]
