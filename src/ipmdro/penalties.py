"""The three penalty functionals behind worst-case expectations: the gauge of
a function class, the peak-over-mean functional of a reference distribution,
and their infimal convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core import (
    DiscreteDistribution,
    FunctionClass,
    FunctionVec,
    require_same_space,
)
from .errors import EpsNonPositive, UnsupportedVariant
from .solvers import DEFAULT_TOLERANCES, Tolerances

if TYPE_CHECKING:
    from .balls import Explicit, ZetaBall


@dataclass
class PenaltyValue:
    """A nonnegative penalty with an optional certifying witness.

    ``witness`` holds conic-combination weights for gauges, the argmax index
    for the peak-over-mean functional, and an (h1, h2) split for the infimal
    convolution.  ``exact`` is False for the iterative quadratic-class
    infimal convolution and for the gauge of a non-convex zeta, which is only
    an upper bound.
    """

    value: float
    witness: object = None
    exact: bool = True


# ---------------------------------------------------------------------------
# gauges


def gauge_explicit(
    cls: Explicit, h: FunctionVec, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> PenaltyValue:
    """Gauge of the convex hull of an explicit set, as a conic-combination LP.

    minimize sum(w) over w >= 0 with sum_i w_i f_i = h; infeasibility means h
    lies outside the cone and the gauge is +infinity.
    """
    require_same_space(cls, h)
    return cls.gauge(h, tolerances)


def theta_closed_form(cls: FunctionClass, h: FunctionVec) -> PenaltyValue:
    """Closed-form gauge for the six structured balls."""
    require_same_space(cls, h)
    if not cls.structured:
        raise UnsupportedVariant(f"no closed-form gauge for {type(cls).__name__}")
    return cls.gauge(h)


def gauge_from_zeta(cls: ZetaBall, h: FunctionVec) -> PenaltyValue:
    """Gauge of a homogeneous-penalty sublevel set: zeta(h)**(1/k).

    For non-convex zeta this is only an upper bound on the true gauge; the
    returned value is then flagged ``exact=False``.
    """
    require_same_space(cls, h)
    return cls.gauge(h)


def theta(
    cls: FunctionClass, h: FunctionVec, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> PenaltyValue:
    """Gauge of any supported class variant."""
    require_same_space(cls, h)
    return cls.gauge(h, tolerances)


# ---------------------------------------------------------------------------
# peak over mean


def j_penalty(P: DiscreteDistribution, h: FunctionVec) -> PenaltyValue:
    """max_i h_i - E_P[h]; on a finite space the sup over distributions is
    attained at a point mass, returned as the witness index."""
    require_same_space(P, h)
    idx = int(np.argmax(h.values))
    return PenaltyValue(float(h.values[idx] - P.weights @ h.values), idx)


# ---------------------------------------------------------------------------
# centered gauges


def centered_theta(
    cls: FunctionClass, h: FunctionVec, tolerances: Tolerances = DEFAULT_TOLERANCES
):
    """minimize the gauge of h - b over scalar shifts b.

    Returns (b_star, PenaltyValue).  Seminorm classes are shift-invariant;
    the sup-norm and Fisher balls have closed-form minimizers; the RKHS ball
    reduces to a scalar quadratic; explicit sets get one LP with the shift as
    a free variable; the rest fall back to golden-section over
    [min h, max h], which contains a minimizer for every implemented penalty.
    """
    require_same_space(cls, h)
    return cls.centered_gauge(h, tolerances)


# ---------------------------------------------------------------------------
# infimal convolution


def lambda_penalty(
    P: DiscreteDistribution,
    cls: FunctionClass,
    eps: float,
    h: FunctionVec,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    reference: Optional[float] = None,
) -> PenaltyValue:
    """Infimal convolution of the peak-over-mean penalty with eps times the
    class gauge: the exact robustness premium of the worst-case expectation.

    Polyhedral classes are solved by one exact LP; quadratic classes run a
    proximal splitting and are flagged inexact.  ``reference`` optionally
    passes a known worst-case expectation minus E_P[h]; the iteration then
    also stops once within the requested-gap tolerance of it.
    """
    require_same_space(P, h)
    require_same_space(P, cls)
    if not eps > 0.0:
        raise EpsNonPositive(f"eps must be positive, got {eps!r}")
    return cls.lambda_(P, eps, h, tolerances, reference)
