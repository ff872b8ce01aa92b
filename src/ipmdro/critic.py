"""The regularized critic loss, its alignment characterization, and the
two-sided robustness display for aligned classifiers.

Alignment of h means the infimal-convolution penalty saturates its gauge
upper bound; on a finite space that holds exactly when some distribution mu
lies in the one-sided ball around P and the expectation gap <mu - P, h>
attains eps times the gauge of h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DiscreteDistribution,
    FunctionClass,
    FunctionVec,
    check_radius,
    class_is_even,
    require_same_space,
)
from .dro import worst_case_expectation
from .errors import NotAligned, NotEven
from .ipm import ipm_distance
from .penalties import lambda_penalty, theta
from .solvers import BALL_FEASIBILITY, IDENTITY_EXACT, IDENTITY_ITERATIVE


@dataclass
class AlignmentReport:
    """The result of ``check_alignment``.  ``witness_residual`` is the
    alignment gap |<mu - P, h> - eps * gauge(h)| of the witness mu; it and
    ``witness_mu`` are None when h is not aligned."""

    lambda_value: float
    eps_theta: float
    aligned: bool
    gap: float
    witness_mu: Optional[DiscreteDistribution]
    witness_residual: Optional[float]
    exact: bool


@dataclass
class CriticInfimumReport:
    bounded: bool
    value: float  # 0 when bounded, -inf otherwise
    certificate: Optional[FunctionVec]  # unbounded scaling ray


@dataclass
class TwoSidedReport:
    inf_value: float
    inf_expected: float
    sup_value: float
    sup_expected: float
    residual: float


def critic_loss(
    P: DiscreteDistribution,
    mu: DiscreteDistribution,
    eps: float,
    cls: FunctionClass,
    h: FunctionVec,
) -> float:
    """E_P[h] - E_mu[h] + eps * gauge(h)."""
    require_same_space(P, mu)
    require_same_space(P, h)
    check_radius(eps)
    gap = float((P.weights - mu.weights) @ h.values)
    return gap + eps * theta(cls, h).value


def critic_infimum(
    P: DiscreteDistribution,
    mu: DiscreteDistribution,
    eps: float,
    cls: FunctionClass,
) -> CriticInfimumReport:
    """Infimum of the critic loss over all functions.

    The loss is positively homogeneous along rays, so the infimum is 0 when
    mu lies in the one-sided eps-ball around P and -infinity otherwise; in
    the unbounded regime the distance witness is the certifying scaling ray,
    a function with negative loss.  For an infinite quadratic-ball distance
    that ray is the null-space component of mu - P, of gauge 0.
    """
    require_same_space(P, mu)
    check_radius(eps)
    dist = ipm_distance(cls, mu, P)
    if dist.value <= eps + BALL_FEASIBILITY:
        return CriticInfimumReport(True, 0.0, None)
    return CriticInfimumReport(False, -np.inf, dist.witness)


def check_alignment(
    P: DiscreteDistribution,
    cls: FunctionClass,
    eps: float,
    h: FunctionVec,
) -> AlignmentReport:
    """Decide whether the penalty of h saturates eps times its gauge.

    When it does, the worst-case distribution is extracted as the witness mu;
    it lies in the ball by its own certificate (see
    ``worst_case_expectation``), and the witness residual is the alignment
    gap |<mu - P, h> - eps * gauge(h)|.  When it does not, the strictly
    positive gap certifies that no witness exists and no worst case is
    solved.
    """
    require_same_space(P, h)
    check_radius(eps)
    gauge = theta(cls, h).value
    lam = lambda_penalty(P, cls, eps, h)
    eps_theta = eps * gauge
    exact = lam.exact
    tol = IDENTITY_EXACT if exact else IDENTITY_ITERATIVE
    if not np.isfinite(eps_theta):
        return AlignmentReport(lam.value, eps_theta, False, np.inf, None, None, exact)
    gap = eps_theta - lam.value
    if not abs(gap) <= tol:
        return AlignmentReport(lam.value, eps_theta, False, gap, None, None, exact)
    mu = worst_case_expectation(P, cls, eps, h).worst_q
    residual = abs(float((mu.weights - P.weights) @ h.values) - eps_theta)
    return AlignmentReport(lam.value, eps_theta, True, gap, mu, residual, exact)


def two_sided_check(
    P_minus: DiscreteDistribution,
    P_plus: DiscreteDistribution,
    cls: FunctionClass,
    eps: float,
    h_star: FunctionVec,
) -> TwoSidedReport:
    """Verify both robustness displays for an aligned classifier.

    Requires an even class and requires h_star to be aligned for P_minus
    with P_plus as the certifying witness.  The supremum over the P_minus
    ball is E_mu[h_star] of the worst case that ``check_alignment`` returned
    as its witness mu; the infimum over the P_plus ball is computed as minus
    the supremum of -h_star, valid by evenness.
    """
    require_same_space(P_minus, P_plus)
    require_same_space(P_minus, h_star)
    check_radius(eps)
    if not class_is_even(cls):
        raise NotEven("the two-sided display needs an even class")

    report = check_alignment(P_minus, cls, eps, h_star)
    if not report.aligned:
        raise NotAligned(
            f"h_star is not aligned for P_minus: gap = {report.gap!r}"
        )
    eps_theta = report.eps_theta
    ball = ipm_distance(cls, P_plus, P_minus).value
    witness_gap = abs(
        float((P_plus.weights - P_minus.weights) @ h_star.values) - eps_theta
    )
    tol = IDENTITY_EXACT if report.exact else IDENTITY_ITERATIVE
    if ball > eps + BALL_FEASIBILITY or witness_gap > tol:
        raise NotAligned(
            "P_plus is not a certifying witness for h_star "
            f"(ball excess {max(ball - eps, 0.0)!r}, alignment gap {witness_gap!r})"
        )

    sup_minus = float(report.witness_mu.weights @ h_star.values)
    inf_plus = -worst_case_expectation(P_plus, cls, eps, h_star.negated()).value
    inf_expected = float(P_plus.weights @ h_star.values) - eps_theta
    sup_expected = float(P_minus.weights @ h_star.values) + eps_theta
    residual = max(abs(inf_plus - inf_expected), abs(sup_minus - sup_expected))
    return TwoSidedReport(inf_plus, inf_expected, sup_minus, sup_expected, residual)
