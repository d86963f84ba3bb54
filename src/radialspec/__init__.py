"""Spectral toolkit for the self-adjoint extensions of the sixth-order
radial operator (-d^2/dr^2 + l(l+1)/r^2)^3 on the semi-axis, l in {1, 2}.
"""

from .core import (
    ExponentialSum,
    ExtensionSpec,
    Jet6,
    Kappa,
    RadialFunction,
    check_regularity,
    make_extension_spec,
)
from .errors import (
    DomainError,
    FunctionDomainError,
    GridError,
    InternalInconsistency,
    InvalidInput,
    InvalidSpec,
    PoleError,
    QuadratureFailure,
    RadialSpecError,
    SectorError,
    SingularityError,
    Unsupported,
)
from .rayleigh import (
    OriginSeries,
    derivative,
    dl_exponential,
    eval_radial,
    jet_at_origin,
    monomial_coefficient,
    origin_series,
    t3_termwise,
    verify_rayleigh,
)
from .boundary import (
    BoundaryFormExpansion,
    boundary_form,
    check_membership,
    omega,
)
from .deficiency import (
    DeficiencySolution,
    deficiency_indices,
    deficiency_solution,
    kernel_residual,
)
from .resolvent import (
    CoefficientSet,
    KernelValue,
    apply_resolvent,
    basis_d,
    basis_g,
    coefficients_closed_form,
    coefficients_oracle,
    h_solution,
    kernel,
    pole_location,
    wronskian,
    wronskian_numeric,
)
from .spectrum import (
    BoundState,
    ContinuousEigenfunction,
    asymptotic_density,
    bound_state,
    continuous_eigenfunction,
    spectral_density,
)
from .transform import (
    SampledFunction,
    SpectralCoefficients,
    apply_function,
    domain_test_function,
    fd_apply,
    forward,
    inverse,
    parseval_check,
)
from .quadrature import quad_semiaxis
from .verify import CheckResult, run_suites

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
