"""Nonparametric maximum likelihood estimation of a log-concave density.

The estimator maximizes the empirical log-likelihood over densities whose
logarithm is concave.  The maximizer is piecewise log-linear with knots at
the order statistics.  ``fit`` computes it exactly with an active-set
method over the kinks, certified by the Duembgen-Rufibach optimality
conditions; ``fit_icm`` runs the paper's iterative concave majorant
algorithm in the slope parametrization.  A Monte Carlo harness measures
Hellinger convergence against known log-concave densities.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BadCount,
    BadGrid,
    DegenerateVariance,
    EmptyInput,
    InfeasiblePoint,
    LengthMismatch,
    LogcaveError,
    NoAscent,
    NonFinite,
    NonPositiveWeight,
    OutOfRange,
    ParseError,
    StepFailure,
    Ties,
    TooFewPoints,
)
from .model import (  # noqa: F401
    LogConcaveFit,
    OmegaVector,
    SortedSample,
    normalization_mass,
    omega_from_theta,
    theta_from_omega,
    validate_sample,
)
from .objective import (  # noqa: F401
    ObjectiveWorkspace,
    diag_curvature,
    grad_phi,
    omega1_from_constraint,
    phi,
    rho_family,
)
from .solver import (  # noqa: F401
    IcmConfig,
    IcmReport,
    IcmState,
    concave_majorant_slopes,
    fit,
    fit_icm,
    icm_candidate,
    initialize_normal,
    kkt_residual,
    line_search,
)
from .simulation import (  # noqa: F401
    BETA,
    DOUBLE_EXPONENTIAL,
    GAMMA,
    NORMAL,
    REFERENCE_DENSITIES,
    WEIBULL,
    ReferenceDensity,
    SimulationSpec,
    SimulationTable,
    hellinger,
    hellinger_pdfs,
    run_monte_carlo,
    sample_true,
)
