"""Worst-case expectations over IPM uncertainty balls, plus verifiers for the
exact robustness identity, the centered-gauge upper bound, and the
subadditive-minorant tightness properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .core import (
    DiscreteDistribution,
    FunctionClass,
    FunctionVec,
    require_same_space,
)
from .errors import EpsNegative, EpsNonPositive, NumericalBreakdown
from .ipm import ipm_distance
from .penalties import centered_theta, j_penalty, lambda_penalty, theta
from .solvers import DEFAULT_TOLERANCES, Tolerances


class DroMethod(Enum):
    EXACT_LP = "exact_lp"
    DUAL_BISECTION = "dual_bisection"


@dataclass
class DroResult:
    value: float
    worst_q: DiscreteDistribution
    method: DroMethod
    gap_estimate: float = 0.0


@dataclass
class IdentityReport:
    lhs: float
    e_p_h: float
    lambda_value: float
    residual: float
    exact: bool


@dataclass
class BoundReport:
    lhs: float
    rhs: float
    slack: float
    b_star: float
    lhs_method: str
    equality: bool


@dataclass
class TightnessReport:
    samples: int
    max_min_violation: float
    max_subadditivity_violation: float


def worst_case_expectation(
    P: DiscreteDistribution,
    cls: FunctionClass,
    eps: float,
    h: FunctionVec,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> DroResult:
    """sup of E_Q[h] over the radius-eps one-sided ball around P.

    Polyhedral balls (explicit, sup-norm, Lipschitz, Dudley) are one exact
    LP; quadratic balls (RKHS, Fisher, Sobolev) run the dual bisection.  The
    returned worst_q is feasible within the ball tolerance.
    """
    require_same_space(P, h)
    require_same_space(P, cls)
    if eps < 0.0:
        raise EpsNegative(f"eps must be nonnegative, got {eps!r}")
    result = cls.worst_case(P, eps, h, tolerances)
    feas = ipm_distance(cls, result.worst_q, P, tolerances).value
    if feas > eps + tolerances.ball_feasibility:
        raise NumericalBreakdown(
            f"worst-case distribution leaves the ball: d = {feas!r} > eps = {eps!r}"
        )
    return result


def verify_identity(
    P: DiscreteDistribution,
    cls: FunctionClass,
    eps: float,
    h: FunctionVec,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> IdentityReport:
    """Compute both sides of the worst-case-equals-penalty identity
    independently and report the residual."""
    if not eps > 0.0:
        raise EpsNonPositive(f"eps must be positive, got {eps!r}")
    dro = worst_case_expectation(P, cls, eps, h, tolerances)
    e_p_h = float(P.weights @ h.values)
    lam = lambda_penalty(
        P, cls, eps, h, tolerances, reference=dro.value - e_p_h
    )
    residual = abs(dro.value - (e_p_h + lam.value))
    exact = (
        dro.method == DroMethod.EXACT_LP and dro.gap_estimate == 0.0 and lam.exact
    )
    return IdentityReport(dro.value, e_p_h, lam.value, residual, exact)


def corollary_bound(
    P: DiscreteDistribution,
    cls: FunctionClass,
    eps: float,
    h: FunctionVec,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> BoundReport:
    """Check the centered-gauge upper bound on the worst-case expectation.

    Past the size cap of the ball's encoding (the coupling LP of the
    Lipschitz ball) the left side is computed through the penalty identity
    instead (an exact LP).
    """
    if not eps > 0.0:
        raise EpsNonPositive(f"eps must be positive, got {eps!r}")
    b_star, cth = centered_theta(cls, h, tolerances)
    e_p_h = float(P.weights @ h.values)
    rhs = e_p_h + eps * cth.value
    cap = cls.ball_max_points
    if cap is not None and P.space.n > cap:
        lam = lambda_penalty(P, cls, eps, h, tolerances)
        lhs = e_p_h + lam.value
        method = "identity"
    else:
        lhs = worst_case_expectation(P, cls, eps, h, tolerances).value
        method = "ball"
    slack = rhs - lhs
    return BoundReport(lhs, rhs, slack, b_star, method, bool(slack <= 1e-7 * (1.0 + abs(rhs))))


def tightness_report(
    P: DiscreteDistribution,
    cls: FunctionClass,
    eps: float,
    samples: int,
    seed: int,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> TightnessReport:
    """Random-pair stress test of the min bound and subadditivity of the
    infimal-convolution penalty."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    space = P.space
    max_min_violation = -np.inf
    max_subadd_violation = -np.inf
    for _ in range(samples):
        a = rng.uniform(-1.0, 1.0, space.n)
        b = rng.uniform(-1.0, 1.0, space.n)
        ha, hb = FunctionVec(space, a), FunctionVec(space, b)
        hab = FunctionVec(space, a + b)
        lam_a = lambda_penalty(P, cls, eps, ha, tolerances).value
        lam_b = lambda_penalty(P, cls, eps, hb, tolerances).value
        lam_ab = lambda_penalty(P, cls, eps, hab, tolerances).value
        bound = min(j_penalty(P, ha).value, eps * theta(cls, ha, tolerances).value)
        max_min_violation = max(max_min_violation, lam_a - bound)
        max_subadd_violation = max(max_subadd_violation, lam_ab - lam_a - lam_b)
    return TightnessReport(samples, max_min_violation, max_subadd_violation)
