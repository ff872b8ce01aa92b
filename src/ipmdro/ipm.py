"""IPM distances between distributions for every supported class variant.

The one-sided definition is preserved throughout: d(Q, P) is the largest
member expectation gap sup_f [E_Q f - E_P f], which may be negative for
non-even explicit classes and is symmetric only when the class is even.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DiscreteDistribution, FunctionClass, require_same_space


@dataclass
class IpmValue:
    """Distance value with an optional witness.

    The witness is the maximizing member (explicit classes) or a function
    vector in the ball that attains the value (every ball: the closed-form
    duals, and for the Lipschitz and Dudley balls the duals of the flow LP
    scaled into the ball).  An infinite quadratic-ball distance has a ray of
    gauge 0 as witness, and a zero one has None.
    """

    value: float
    witness: object = None


def ipm_distance(
    cls: FunctionClass,
    Q: DiscreteDistribution,
    P: DiscreteDistribution,
) -> IpmValue:
    """d(Q, P) for the given function class."""
    require_same_space(Q, P)
    require_same_space(Q, cls)
    return cls.distance(Q, P)
