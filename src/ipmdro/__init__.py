"""Worst-case expectations, gauge penalties, and robust GAN bounds over IPM
uncertainty balls on finite sample spaces."""

from .balls import (
    DudleyBall,
    Explicit,
    FisherBall,
    LipschitzBall,
    RkhsBall,
    SobolevBall,
    SupNormBall,
    ZetaBall,
)
from .core import (
    DiscreteDistribution,
    FunctionClass,
    FunctionVec,
    SampleSpace,
    SymmetrizeResult,
    discretize_structured_class,
    make_space,
    symmetrize_class,
)
from .critic import (
    AlignmentReport,
    CriticInfimumReport,
    TwoSidedReport,
    check_alignment,
    critic_infimum,
    critic_loss,
    two_sided_check,
)
from .dro import (
    BoundReport,
    DroMethod,
    DroResult,
    IdentityReport,
    TightnessReport,
    corollary_bound,
    tightness_report,
    verify_identity,
    worst_case_expectation,
)
from .gan import (
    FDivergence,
    GanBoundReport,
    GanValue,
    f_divergence_catalog,
    gan_bound_check,
    gan_objective,
    robust_gan_sup,
)
from .ipm import IpmValue, ipm_distance
from .penalties import (
    PenaltyValue,
    centered_theta,
    gauge_explicit,
    gauge_from_zeta,
    j_penalty,
    lambda_penalty,
    theta,
    theta_closed_form,
)
from .solvers import (
    DEFAULT_TOLERANCES,
    LpProblem,
    LpSolution,
    LpStatus,
    Tolerances,
    lp_problem,
    maximize_concave_quadratic_over_simplex,
    minimize_scalar_convex,
    project_simplex,
    solve_lp,
)

__version__ = "0.1.0"
