"""Variational f-divergence objectives for finite discriminator sets, their
worst-case versions over IPM balls, and the discriminator-complexity bound
linking the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import DiscreteDistribution, FunctionClass, check_radius, require_same_space
from .dro import worst_case_expectation
from .errors import DiscriminatorOutOfDomain, UnknownDivergence
from .penalties import theta

if TYPE_CHECKING:
    from .balls import Explicit

DOMAIN_MARGIN = 1e-9  # enforced at open conjugate-domain endpoints


@dataclass
class FDivergence:
    """A convex generator f with f(1) = 0 and its convex conjugate.

    ``conj_domain`` is the interval where the conjugate is finite;
    ``open_lo``/``open_hi`` mark open endpoints, where discriminator values
    must keep a small margin.  Construction spot-checks the normalization
    f(1) = 0 and the Fenchel-Young inequality on a 32 x 32 grid.
    """

    name: str
    f: Callable[[float], float]
    f_conj: Callable[[np.ndarray], np.ndarray]
    conj_domain: tuple = (-np.inf, np.inf)
    open_lo: bool = False
    open_hi: bool = False

    def __post_init__(self):
        if abs(float(self.f(1.0))) > 1e-12:
            raise ValueError(f"{self.name}: f(1) must vanish")
        lo, hi = self.conj_domain
        xs = np.linspace(0.05, 4.0, 32)
        y_lo = max(lo, -4.0) + (1e-6 if self.open_lo or lo == -np.inf else 0.0)
        y_hi = min(hi, 4.0) - (1e-6 if self.open_hi else 0.0)
        ys = np.linspace(min(y_lo, y_hi), y_hi, 32)
        for x in xs:
            fx = float(self.f(float(x)))
            lhs = fx + np.asarray(self.f_conj(ys), dtype=float)
            if np.any(lhs < x * ys - 1e-9):
                raise ValueError(f"{self.name}: Fenchel-Young inequality fails")

    def conj(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(self.f_conj(np.asarray(values, dtype=float)), dtype=float)


@dataclass
class GanValue:
    value: float
    best_discriminator: int


def f_divergence_catalog(name: str) -> FDivergence:
    """Named generator/conjugate pairs.

    ``ipm_indicator`` is the hard indicator at t = 1, whose linear conjugate
    turns the variational objective into the plain expectation gap, i.e. the
    IPM of the discriminator set.
    """
    if name == "kl":
        return FDivergence(
            "kl",
            lambda t: t * math.log(t),
            lambda y: np.exp(y - 1.0),
        )
    if name == "reverse_kl":
        return FDivergence(
            "reverse_kl",
            lambda t: -math.log(t),
            lambda y: -1.0 - np.log(-y),
            conj_domain=(-np.inf, 0.0),
            open_hi=True,
        )
    if name == "js_gan":
        return FDivergence(
            "js_gan",
            lambda t: t * math.log(t) - (t + 1.0) * math.log(0.5 * (t + 1.0)),
            lambda y: -np.log(2.0 - np.exp(y)),
            conj_domain=(-np.inf, math.log(2.0)),
            open_hi=True,
        )
    if name == "chi2":
        return FDivergence(
            "chi2",
            lambda t: (t - 1.0) ** 2,
            lambda y: 0.25 * y**2 + y,
        )
    if name == "tv":
        return FDivergence(
            "tv",
            lambda t: abs(t - 1.0),
            lambda y: np.asarray(y, dtype=float),
            conj_domain=(-1.0, 1.0),
        )
    if name == "ipm_indicator":
        return FDivergence(
            "ipm_indicator",
            lambda t: 0.0 if t == 1.0 else np.inf,
            lambda y: np.asarray(y, dtype=float),
        )
    raise UnknownDivergence(f"unknown divergence {name!r}")


def _check_domain(div: FDivergence, H: Explicit) -> None:
    lo, hi = div.conj_domain
    lo_eff = lo + DOMAIN_MARGIN if div.open_lo else lo
    hi_eff = hi - DOMAIN_MARGIN if div.open_hi else hi
    for idx, f in enumerate(H.functions):
        bad = np.flatnonzero((f.values < lo_eff) | (f.values > hi_eff))
        if bad.size:
            point = int(bad[0])
            raise DiscriminatorOutOfDomain(
                f"discriminator {idx} leaves dom f* at point "
                f"{H.space.points[point]!r} (value {f.values[point]!r})"
            )


def _best_discriminator(div, H, mu, first) -> GanValue:
    """max over discriminators f of first(f) - E_mu[f*(f)], at the first
    strict maximum."""
    best_value, best_index = -np.inf, 0
    for idx, f in enumerate(H.functions):
        value = float(first(f) - mu.weights @ div.conj(f.values))
        if value > best_value:
            best_value, best_index = value, idx
    return GanValue(best_value, best_index)


def gan_objective(
    div: FDivergence,
    H: Explicit,
    mu: DiscreteDistribution,
    P: DiscreteDistribution,
) -> GanValue:
    """max over discriminators of E_P[h] - E_mu[f*(h)] (finite, exact)."""
    require_same_space(mu, P)
    require_same_space(mu, H)
    _check_domain(div, H)
    return _best_discriminator(div, H, mu, lambda f: P.weights @ f.values)


def robust_gan_sup(
    div: FDivergence,
    H: Explicit,
    cls: FunctionClass,
    eps: float,
    mu: DiscreteDistribution,
    P: DiscreteDistribution,
) -> GanValue:
    """sup over the ball of the variational objective.

    Swapping the two suprema turns the nested problem into one worst-case
    expectation per discriminator, so the result is exact up to the per-ball
    solver path.
    """
    require_same_space(mu, P)
    require_same_space(mu, H)
    check_radius(eps)
    _check_domain(div, H)
    return _best_discriminator(div, H, mu, lambda f: worst_case_expectation(P, cls, eps, f).value)


@dataclass
class GanBoundReport:
    robust: float
    plain: float
    cap: float
    slack: float


def gan_bound_check(
    div: FDivergence,
    H: Explicit,
    cls: FunctionClass,
    eps: float,
    mu: DiscreteDistribution,
    P: DiscreteDistribution,
) -> GanBoundReport:
    """Robust objective vs plain objective plus the discriminator-complexity
    cap eps * max_h gauge(h); the slack must be nonnegative."""
    robust = robust_gan_sup(div, H, cls, eps, mu, P).value
    plain = gan_objective(div, H, mu, P).value
    cap = eps * max(theta(cls, f).value for f in H.functions)
    slack = plain + cap - robust
    return GanBoundReport(robust, plain, cap, slack)
