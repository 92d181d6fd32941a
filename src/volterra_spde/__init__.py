"""Volterra-driven processes and the parabolic equations they force."""

__version__ = "0.1.0"

from .errors import (
    VolterraError,
    ParameterError,
    ConfigurationError,
    AdmissibilityError,
    NumericError,
    TruncationError,
    AlignmentError,
    UndefinedRatioError,
)
from .kernels import (
    VolterraKernel,
    make_fbm_kernel,
    calibrate_C_H,
    fbm_constant_closed_form,
    covariance_quadrature,
    fbm_covariance_closed_form,
    check_alpha_regularity,
)
from .chaos import (
    hermite,
    ChaosVariableSpec,
    sample_linear_combination,
    moment_ratio,
    moment_ratio_stderr,
    hypercontractivity_sweep,
)
from .processes import (
    TimeGrid,
    PathEnsemble,
    CylindricalEnsemble,
    FbmSampler,
    simulate_fbm,
    RosenblattSampler,
    simulate_rosenblatt,
    third_moment_oracle,
    make_sampler,
    simulate_cylindrical,
)
from .wiener_integral import (
    StepFunction,
    IntegrandNorms,
    apply_Kstar,
    integral_variance,
    fbm_inner_product,
    compute_norms,
    elementary_integral,
    riemann_stieltjes,
    random_step_function,
)
from .spde import (
    SpectralModel,
    build_model,
    NoiseOperator,
    HolderParameters,
    gamma_radonifying_norm,
    estimate_gamma_decay,
    MildSolutionField,
    solve_mild,
    per_mode_variance_oracle,
    factorization_constant_check,
    factorization_weights,
    elementary_operator_check,
)
from .regularity import (
    RegularityReport,
    variogram_exponent,
    field_variogram,
    mean_square_increment_oracle,
    oracle_variogram_exponent,
    predicted_bound,
    regularity_verdict,
)
from .seeding import child_seed, substream
from .cli import full_suite, main

__all__ = [
    "VolterraError", "ParameterError", "ConfigurationError",
    "AdmissibilityError", "NumericError", "TruncationError",
    "AlignmentError", "UndefinedRatioError",
    "VolterraKernel", "make_fbm_kernel", "calibrate_C_H",
    "fbm_constant_closed_form", "covariance_quadrature",
    "fbm_covariance_closed_form", "check_alpha_regularity",
    "hermite", "ChaosVariableSpec", "sample_linear_combination",
    "moment_ratio", "moment_ratio_stderr", "hypercontractivity_sweep",
    "TimeGrid", "PathEnsemble", "CylindricalEnsemble", "FbmSampler",
    "simulate_fbm", "RosenblattSampler", "simulate_rosenblatt",
    "third_moment_oracle", "make_sampler", "simulate_cylindrical",
    "StepFunction", "IntegrandNorms", "apply_Kstar", "integral_variance",
    "fbm_inner_product", "compute_norms", "elementary_integral",
    "riemann_stieltjes", "random_step_function",
    "SpectralModel", "build_model", "NoiseOperator", "HolderParameters",
    "gamma_radonifying_norm", "estimate_gamma_decay",
    "MildSolutionField", "solve_mild", "per_mode_variance_oracle",
    "factorization_constant_check", "factorization_weights",
    "elementary_operator_check",
    "RegularityReport", "variogram_exponent", "field_variogram",
    "mean_square_increment_oracle", "oracle_variogram_exponent",
    "predicted_bound", "regularity_verdict",
    "child_seed", "substream",
    "full_suite", "main",
]
