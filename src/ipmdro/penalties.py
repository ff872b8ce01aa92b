"""The three penalty functionals behind worst-case expectations: the gauge of
a function class, the peak-over-mean functional of a reference distribution,
and their infimal convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DiscreteDistribution,
    FunctionClass,
    FunctionVec,
    check_radius,
    require_same_space,
)


@dataclass
class PenaltyValue:
    """A nonnegative penalty with an optional certifying witness.

    ``witness`` holds conic-combination weights for gauges (for an explicit
    set of at most ``GAUGE_DUAL_MEMBERS`` members, the row duals of the
    gauge's dual LP), the argmax index
    for the peak-over-mean functional, and an (h1, h2) split for the infimal
    convolution: from the penalty LP for explicit sets and the Dudley ball,
    h2 = max(h, t*) at the eps/2 quantile t* of h under P for the sup-norm
    ball, and h2 the c-transform at the transport dual's least point for
    the Lipschitz ball.  ``exact`` is False for the iterative
    quadratic-class infimal convolution and for the gauge of a non-convex
    zeta, which is only an upper bound.
    """

    value: float
    witness: object = None
    exact: bool = True


# ---------------------------------------------------------------------------
# gauges


def theta(cls: FunctionClass, h: FunctionVec) -> PenaltyValue:
    """Gauge Theta_F(h) = inf {t > 0 : h / t in F} of any class variant, as
    computed by its ``gauge`` method: closed forms for the six structured
    balls, a conic LP for an explicit set, zeta(h)**(1/k) for a zeta ball."""
    require_same_space(cls, h)
    return cls.gauge(h)


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


def centered_theta(cls: FunctionClass, h: FunctionVec):
    """minimize the gauge of h - b over scalar shifts b.

    Returns (b_star, PenaltyValue).  Every structured ball has a closed
    form: the Lipschitz and Sobolev seminorms ignore the shift; the sup-norm
    and Dudley balls take the midpoint of h's range, where the sup part is
    half that range; the Fisher and RKHS balls take b = 1'Mh / 1'M1 from
    their form M.  Explicit sets get one LP with the shift as a free
    variable, posed up to ``GAUGE_DUAL_MEMBERS`` members as the gauge's
    dual on sum-zero vectors, whose row duals give the shift; only a zeta
    ball runs a golden-section search over [min h, max h].  No flow LP or
    transport search is involved; the sup-norm penalty shifts its split h2
    by the same midpoint rule.
    """
    require_same_space(cls, h)
    return cls.centered_gauge(h)


# ---------------------------------------------------------------------------
# infimal convolution


def lambda_penalty(
    P: DiscreteDistribution,
    cls: FunctionClass,
    eps: float,
    h: FunctionVec,
) -> PenaltyValue:
    """Infimal convolution of the peak-over-mean penalty with eps times the
    class gauge: the exact robustness premium of the worst-case expectation.

    Explicit sets and the Dudley ball are solved by one exact LP.  The
    sup-norm ball splits h at the first value t*, ascending, at which P's
    cumulative mass reaches eps/2: h2 = max(h, t*).  The Lipschitz ball
    searches the transport dual min_{lam >= 0} lam eps + sum_i p_i h^lam_i
    for its least point lam* and splits at the c-transform
    h2 = h^lam*, h^lam_i = max_j (h_j - lam c_ij).  Either split, h2
    shifted to its least gauge and h1 = h - h2, is valued as
    J_P(h1) + eps * Theta(h2) through the centered gauge.  Quadratic classes
    run a Douglas-Rachford splitting until its iterates settle (or its
    iteration budget runs out), keep the best split seen and are flagged
    inexact; each iteration's gauge prox projects onto the dual ball through
    one Newton root of the secular equation.  The penalty never reads the
    worst case, so the two sides of the identity stay independent.
    """
    require_same_space(P, h)
    require_same_space(P, cls)
    check_radius(eps)
    return cls.lambda_(P, eps, h)
