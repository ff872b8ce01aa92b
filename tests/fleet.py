"""Shared random-instance generators for the property and acceptance fleets.

All generators are deterministic functions of the passed rng; acceptance and
unit tests seed them explicitly.  ``aligned_instance`` plants its alignment
certificate and solves no LP, so the instances it draws depend on its
construction alone, not on the LP kernel's pivots.
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

HALF_SIZE = 2  # member pairs of an aligned instance's class, besides the +-unit vectors
EPS_HI = 0.4  # an aligned instance's radius is drawn from [0.05, EPS_HI)


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


def even_class(space, vectors, with_units=True):
    """The explicit class of +-v for each row v of ``vectors``, in that
    order, followed by the +-unit vectors when ``with_units``, which make the
    gauge finite everywhere."""
    if with_units:
        vectors = np.vstack([vectors, np.eye(space.n)])
    return Explicit(space, tuple(FunctionVec(space, sign * v)
                                 for v in vectors for sign in (1.0, -1.0)))


def even_explicit_class(rng, space, half_size, with_units=True):
    """Random even explicit class of ``half_size`` uniform pairs +-v."""
    return even_class(space, rng.uniform(-1.0, 1.0, (half_size, space.n)), with_units)


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


def aligned_instance(rng, n):
    """Construct (P, F, eps, h, mu) with mu certifying alignment of h.

    The certificate is planted.  A sum-zero direction u is drawn first and
    scaled so that |u|_inf <= 1 and mu = P + eps u >= 0.  Each member pair
    +-f of F is a random vector orthogonal to u plus a u / |u|^2, with
    a = 1 on the tight pairs and a in (-1, 1) on the others, so every member,
    the +-unit vectors included, has <f, u> <= 1 and mu lies in the one-sided
    eps-ball.  h = sum_k w_k f_k over the tight members then has gauge
    exactly sum(w): that representation attains it, and <h, u> = sum(w)
    bounds every other conic one from below.  So <mu - P, h> = eps * gauge(h)
    and h is aligned, with no LP solved.  Needs n >= 2.
    """
    space = plain_space(n)
    P = interior_distribution(rng, space)
    eps = float(rng.uniform(0.05, EPS_HI))
    u = rng.uniform(-1.0, 1.0, n)
    u -= u.mean()
    u /= max(np.abs(u).max(), np.max(-eps * u / P.weights))
    along = u / (u @ u)
    tight = rng.random(HALF_SIZE) < 0.5
    tight[rng.integers(HALF_SIZE)] = True
    a = np.where(tight, 1.0, rng.uniform(-1.0, 1.0, HALF_SIZE))
    g = rng.uniform(-1.0, 1.0, (HALF_SIZE, n))
    members = g - np.outer(g @ along, u) + np.outer(a, along)
    cls = even_class(space, members)
    h = FunctionVec(space, (rng.uniform(0.2, 1.0, HALF_SIZE) * tight) @ members)
    mu = DiscreteDistribution(space, np.maximum(P.weights + eps * u, 0.0))
    return P, cls, eps, h, mu


def misaligned_instance(rng, n):
    """Aligned instance with a constant added until the gauge strictly
    dominates the penalty (the constant leaves the penalty unchanged)."""
    P, cls, eps, h, _ = aligned_instance(rng, n)
    base_gauge = theta(cls, h).value
    shift = 1.0
    for _ in range(14):
        shifted = FunctionVec(h.space, h.values + shift)
        if eps * (theta(cls, shifted).value - base_gauge) > 2e-3:
            return P, cls, eps, shifted
        shift *= 2.0
    raise RuntimeError("failed to construct a misaligned instance")
