"""Shared random-instance generators for the property and acceptance fleets.

All generators are deterministic functions of the passed rng; acceptance and
unit tests seed them explicitly.
"""

import numpy as np

from ipmdro import (
    DiscreteDistribution,
    Explicit,
    FisherBall,
    FunctionVec,
    RkhsBall,
    SobolevBall,
    make_space,
    theta,
)
from ipmdro.solvers import LpStatus, lp_problem, solve_lp


def plain_space(n):
    return make_space([f"w{i}" for i in range(n)])


def line_space(rng, n):
    """Points on a line: a valid path metric with random gaps."""
    coords = np.cumsum(rng.uniform(0.3, 1.5, n))
    metric = np.abs(coords[:, None] - coords[None, :])
    return make_space([f"x{i}" for i in range(n)], metric=metric)


def path_graph_space(n, weight=1.0):
    edges = tuple((i, i + 1, weight) for i in range(n - 1)) + tuple(
        (i + 1, i, weight) for i in range(n - 1)
    )
    return make_space([f"v{i}" for i in range(n)], graph=edges)


def interior_distribution(rng, space, floor=0.05):
    w = rng.dirichlet(np.ones(space.n))
    w = (1.0 - floor * space.n) * w + floor
    return DiscreteDistribution(space, w / w.sum())


def random_distribution(rng, space):
    return DiscreteDistribution(space, rng.dirichlet(np.ones(space.n)))


def even_explicit_class(rng, space, half_size, with_units=True):
    """Random even explicit class, optionally padded with +-unit vectors so
    the gauge is finite everywhere."""
    fns = []
    for _ in range(half_size):
        v = rng.uniform(-1.0, 1.0, space.n)
        fns.append(FunctionVec(space, v))
        fns.append(FunctionVec(space, -v))
    if with_units:
        for i in range(space.n):
            e = np.zeros(space.n)
            e[i] = 1.0
            fns.append(FunctionVec(space, e))
            fns.append(FunctionVec(space, -e))
    return Explicit(space, tuple(fns))


def random_gram(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


def quadratic_class(rng, space, kind):
    if kind == "fisher":
        mu = rng.dirichlet(np.ones(space.n) * 2.0) * 0.9 + 0.1 / space.n
        return FisherBall(space, mu=DiscreteDistribution(space, mu / mu.sum()))
    if kind == "rkhs":
        return RkhsBall(space, gram=random_gram(rng, space.n))
    raise ValueError(kind)


def sobolev_instance(rng, n):
    space = path_graph_space(n)
    mu = rng.dirichlet(np.ones(n) * 2.0) * 0.9 + 0.1 / n
    return space, SobolevBall(space, mu=DiscreteDistribution(space, mu / mu.sum()))


def _witness_direction(space, members, support, eps, p):
    """A ball-boundary direction delta with <f_i, delta> pinned to eps on the
    gauge-witness support, feasible as mu = p + delta; None when the exposed
    face is empty.  The LP is posed in y = delta - lo >= 0 with lo = -p, so
    each right-hand side b becomes b - A @ lo."""
    lo = -p
    a_eq = np.vstack([members[support], np.ones((1, space.n))])
    b_eq = np.append(np.full(a_eq.shape[0] - 1, eps), 0.0)
    a_ub = members[~support]
    b_ub = np.full(a_ub.shape[0], eps)
    problem = lp_problem(
        np.zeros(space.n), eq=(a_eq, b_eq - a_eq @ lo), ub=(a_ub, b_ub - a_ub @ lo)
    )
    solution = solve_lp(problem)
    if solution.status != LpStatus.OPTIMAL:
        return None
    return solution.x + lo


def aligned_instance(rng, n, half_size=2, eps_hi=0.4):
    """Construct (P, F, eps, h, mu) with mu certifying alignment of h.

    h is a conic combination of members with its gauge witness w*; mu = P +
    delta where delta pins <f_i, delta> = eps on the support of w*, so
    <mu - P, h> = eps * gauge(h) and mu lies in the one-sided ball, i.e. the
    alignment condition holds by construction.
    """
    for _ in range(64):
        space = plain_space(n)
        cls = even_explicit_class(rng, space, half_size)
        P = interior_distribution(rng, space)
        weights = rng.uniform(0.2, 1.0, cls.size) * (rng.random(cls.size) < 0.4)
        if weights.sum() <= 0.0:
            continue
        target = weights @ cls.matrix
        if np.max(np.abs(target)) < 1e-6:
            continue
        h = FunctionVec(space, target)
        gauge = theta(cls, h)
        if not np.isfinite(gauge.value) or gauge.value < 1e-6:
            continue
        support = gauge.witness > 1e-9
        eps = float(rng.uniform(0.05, eps_hi))
        # delta = eps u with p + eps u >= 0: the feasible set only grows as
        # eps shrinks, so no radius of the ladder has a witness if its last
        # one has none
        if _witness_direction(space, cls.matrix, support, eps * 2.0**-7, P.weights) is None:
            continue
        for _ in range(8):
            delta = _witness_direction(space, cls.matrix, support, eps, P.weights)
            if delta is not None:
                mu = DiscreteDistribution(
                    space, np.maximum(P.weights + delta, 0.0)
                    / (P.weights + delta).sum()
                )
                return P, cls, eps, h, mu
            eps *= 0.5
    raise RuntimeError("failed to construct an aligned instance")


def misaligned_instance(rng, n, half_size=2):
    """Aligned instance with a constant added until the gauge strictly
    dominates the penalty (the constant leaves the penalty unchanged)."""
    P, cls, eps, h, _ = aligned_instance(rng, n, half_size)
    base_gauge = theta(cls, h).value
    shift = 1.0
    for _ in range(14):
        shifted = FunctionVec(h.space, h.values + shift)
        if eps * (theta(cls, shifted).value - base_gauge) > 2e-3:
            return P, cls, eps, shifted
        shift *= 2.0
    raise RuntimeError("failed to construct a misaligned instance")
