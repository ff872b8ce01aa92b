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
    check_count,
    check_radius,
    require_same_space,
)
from .penalties import centered_theta, j_penalty, lambda_penalty, theta


class DroMethod(Enum):
    EXACT_LP = "exact_lp"
    ACTIVE_SET = "active_set"
    TRANSPORT_DUAL = "transport_dual"


@dataclass
class DroResult:
    """``value`` is E_Q[h] at the solver's maximizer Q, ``worst_q`` is Q
    clipped at zero and renormalized; off the quadratic balls E_{worst_q}[h]
    may differ from ``value`` in the last bits, an n-term sum's rounding.
    ``gap_estimate`` is 0.0 on every path: each worst case is exact and
    certified where it is built, or refused with NumericalBreakdown."""

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
) -> DroResult:
    """sup of E_Q[h] over the radius-eps one-sided ball around P.

    Explicit sets are one exact LP; the sup-norm ball moves eps/2 of P's
    mass, lowest h first, onto argmax h; the Lipschitz ball mixes the two
    optimal plans at the least point of the transport dual, and the Dudley
    ball does so with eps/2 of each plan's mass drained as the sup-norm ball
    drains it; quadratic balls run an exact active-set walk.  The value is
    E_Q[h] at the maximizer Q, which worst_q holds clipped and renormalized
    (see DroResult), certified in the ball at the 1e-9 scale of LP_FEASIBILITY
    (the LP's residual, the moved mass and the plans' cost against their
    budgets, or the walk's KKT residual) or refused with NumericalBreakdown;
    no distance is solved here.  The sup-norm result reports TRANSPORT_DUAL,
    the total-variation transport dual in closed form.
    """
    require_same_space(P, h)
    require_same_space(P, cls)
    check_radius(eps, allow_zero=True)
    return cls.worst_case(P, eps, h)


def verify_identity(
    P: DiscreteDistribution,
    cls: FunctionClass,
    eps: float,
    h: FunctionVec,
) -> IdentityReport:
    """Compute both sides of the worst-case-equals-penalty identity
    independently and report the residual."""
    check_radius(eps)
    dro = worst_case_expectation(P, cls, eps, h)
    e_p_h = float(P.weights @ h.values)
    lam = lambda_penalty(P, cls, eps, h)
    residual = abs(dro.value - (e_p_h + lam.value))
    return IdentityReport(dro.value, e_p_h, lam.value, residual, lam.exact)


def corollary_bound(
    P: DiscreteDistribution,
    cls: FunctionClass,
    eps: float,
    h: FunctionVec,
) -> BoundReport:
    """Check the centered-gauge upper bound on the worst-case expectation.

    The left side is the worst case over the ball itself, computed by
    ``worst_case_expectation``; the right side is E_P[h] plus eps times the
    centered gauge of h.  ``equality`` holds when the right side is finite
    and the slack is within 1e-7 of it; an infinite centered gauge (h - b
    outside the class's cone for every shift b) gives an infinite slack and
    never equality.
    """
    check_radius(eps)
    b_star, cth = centered_theta(cls, h)
    rhs = float(P.weights @ h.values) + eps * cth.value
    lhs = worst_case_expectation(P, cls, eps, h).value
    slack = rhs - lhs
    equality = bool(np.isfinite(rhs) and slack <= 1e-7 * (1.0 + abs(rhs)))
    return BoundReport(lhs, rhs, slack, b_star, equality)


def tightness_report(
    P: DiscreteDistribution,
    cls: FunctionClass,
    eps: float,
    samples: int,
    seed: int,
) -> TightnessReport:
    """Random-pair stress test of the min bound and subadditivity of the
    infimal-convolution penalty over ``samples`` pairs, an integer >= 1."""
    check_count("samples", samples, 1)
    rng = np.random.default_rng(seed)
    space = P.space
    max_min_violation = -np.inf
    max_subadd_violation = -np.inf
    for _ in range(samples):
        a = rng.uniform(-1.0, 1.0, space.n)
        b = rng.uniform(-1.0, 1.0, space.n)
        ha, hb = FunctionVec(space, a), FunctionVec(space, b)
        hab = FunctionVec(space, a + b)
        lam_a = lambda_penalty(P, cls, eps, ha).value
        lam_b = lambda_penalty(P, cls, eps, hb).value
        lam_ab = lambda_penalty(P, cls, eps, hab).value
        bound = min(j_penalty(P, ha).value, eps * theta(cls, ha).value)
        max_min_violation = max(max_min_violation, lam_a - bound)
        max_subadd_violation = max(max_subadd_violation, lam_ab - lam_a - lam_b)
    return TightnessReport(samples, max_min_violation, max_subadd_violation)
