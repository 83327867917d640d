"""Support-free wavelet thresholding density estimation.

A density on the real line is estimated from an i.i.d. sample by
thresholding empirical coefficients on a biorthogonal wavelet family whose
analysis side is piecewise constant, so no discrete transform, binning or
prior support knowledge is needed.  The package also ships the analytic
test signals, the benchmark oracle, the Monte-Carlo risk harness and a
cross-validated kernel baseline used to study robustness to the size of
the density support.
"""

from .basis import (
    BiorthogonalBasis,
    CascadeError,
    CoefficientIndex,
    StepFunction,
    TabulatedFunction,
    build_spline_basis,
    eval_decomposition,
    eval_reconstruction,
    haar_basis,
    spline_basis,
    sup_norm,
    support_interval,
)
from .estimator import (
    CoefficientTable,
    DensityEstimate,
    EstimatorConfig,
    KeptCoefficient,
    Mode,
    Sample,
    besov_seminorm,
    coefficient_table,
    estimate,
    oracle_estimate,
    practical,
    practical_gamma,
    theoretical_gamma,
    threshold,
    variance_hat,
    variance_tilde,
)
from .kernel import KernelEstimate, eval_kernel, fit_kernel
from .risk import (
    GridCoverageError,
    GridSpec,
    MethodSpec,
    RiskReport,
    default_grid,
    ise,
    method_from_code,
    mise_sweep,
    support_sweep,
    tail_sweep,
)
from .signals import (
    Bumps,
    Gauss,
    Mixture,
    TestSignal,
    Uniform01,
    mixture_gd,
    mixture_hk,
    signal_by_name,
)

__version__ = "0.1.0"
