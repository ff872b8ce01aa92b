"""IPM distances between distributions for every supported class variant.

The one-sided definition is preserved throughout: d(Q, P) is the largest
member expectation gap sup_f [E_Q f - E_P f], which may be negative for
non-even explicit classes and is symmetric only when the class is even.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DiscreteDistribution, FunctionClass, require_same_space
from .solvers import DEFAULT_TOLERANCES, Tolerances

TRANSPORT_MAX_POINTS = 60  # dense n^2-variable coupling LP cap


@dataclass
class IpmValue:
    """Distance value with an optional witness.

    The witness is the maximizing member (explicit classes), a maximizing
    function vector (balls with closed-form duals), or the optimal transport
    plan (Lipschitz balls).
    """

    value: float
    witness: object = None


def ipm_distance(
    cls: FunctionClass,
    Q: DiscreteDistribution,
    P: DiscreteDistribution,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> IpmValue:
    """d(Q, P) for the given function class."""
    require_same_space(Q, P)
    require_same_space(Q, cls)
    return cls.distance(Q, P, tolerances)
