"""Property tests of the paper's inequalities over every variant with a worst
case (sup-norm, Lipschitz, Dudley, Fisher, RKHS, Sobolev, explicit), on path,
Euclidean and 2 (1 - I) metrics:

- the gauge is positively homogeneous and subadditive;
- the penalty is below both of its trivial splits,
  Lambda <= min(J_P(h), eps * Theta(h));
- the centered-gauge bound sup_{Q in B_eps(P)} E_Q h <= E_P h + eps * Theta_c(h)
  (``corollary_bound``);
- the f-GAN bound robust <= plain + eps * max Theta (``gan_bound_check``).

Each holds at the fixed tolerances of ``solvers``: ``IDENTITY_EXACT``, or
``IDENTITY_ITERATIVE`` where a penalty is flagged inexact, scaled by one plus
the size of the bound.  The Dudley penalty is an LP that breaks down in its
phase 1 ("terminated abnormally", "singular basis") on Euclidean metrics from
n = 4, so it is drawn only on path metrics, where 150 random draws per size up
to n = 8 found no breakdown.  One four-point Euclidean instance keeps the
defect in view as a strict xfail; ROADMAP item 2, the penalty from the
transport search, lifts both.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipmdro import (
    DiscreteDistribution,
    DudleyBall,
    Explicit,
    FisherBall,
    FunctionVec,
    LipschitzBall,
    RkhsBall,
    SobolevBall,
    SupNormBall,
    corollary_bound,
    f_divergence_catalog,
    gan_bound_check,
    j_penalty,
    lambda_penalty,
    make_space,
    theta,
)
from ipmdro.errors import NumericalBreakdown
from ipmdro.solvers import IDENTITY_EXACT, IDENTITY_ITERATIVE
from fleet import even_explicit_class, random_gram

VARIANTS = ("sup_norm", "lipschitz", "dudley", "fisher", "rkhs", "sobolev", "explicit")
METRICS = ("path", "euclid", "discrete")
EXAMPLES = settings(max_examples=100, deadline=None)


def _space(rng, metric, n):
    """n points with the drawn metric and a unit-weight path graph."""
    if metric == "path":
        t = np.cumsum(rng.uniform(0.1, 1.0, n))
        c = np.abs(t[:, None] - t[None, :])
    elif metric == "euclid":
        x = rng.uniform(0.0, 1.0, (n, 2))
        c = np.linalg.norm(x[:, None] - x[None, :], axis=2)
    else:
        c = 2.0 * (1.0 - np.eye(n))
    graph = tuple((i, i + 1, 1.0) for i in range(n - 1))
    graph += tuple((j, i, w) for i, j, w in graph)
    return make_space([f"x{i}" for i in range(n)], metric=c, graph=graph)


def _ball(variant, space, rng):
    n = space.n
    if variant == "explicit":
        return even_explicit_class(rng, space, 2)
    if variant == "rkhs":
        return RkhsBall(space, gram=random_gram(rng, n))
    if variant in ("fisher", "sobolev"):
        mu = DiscreteDistribution(space, rng.dirichlet(np.full(n, 2.0)))
        return {"fisher": FisherBall, "sobolev": SobolevBall}[variant](space, mu=mu)
    return {"sup_norm": SupNormBall, "lipschitz": LipschitzBall,
            "dudley": DudleyBall}[variant](space)


@st.composite
def instances(draw, penalty=False):
    """(cls, P, h, g, eps): h with half-integer ties on some draws, P with
    zero masses on some."""
    variant = draw(st.sampled_from(VARIANTS), "variant")
    metric = draw(st.sampled_from(METRICS[:1] if penalty and variant == "dudley"
                                  else METRICS), "metric")
    n = draw(st.integers(2, 7), "n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), "seed"))
    space = _space(rng, metric, n)
    h, g = rng.uniform(-1.0, 1.0, (2, n))
    if draw(st.booleans(), "tied h"):
        h = np.round(2.0 * h) / 2.0
    w = rng.dirichlet(np.ones(n))
    if draw(st.booleans(), "zero mass"):
        w[rng.random(n) < 0.4] = 0.0
        w[int(np.argmin(h))] += 0.1
    eps = draw(st.floats(1e-3, 2.5), "eps")
    P = DiscreteDistribution(space, w / w.sum())
    return _ball(variant, space, rng), P, FunctionVec(space, h), FunctionVec(space, g), eps


def _below(lhs, rhs, tol=IDENTITY_EXACT):
    assert lhs <= rhs + tol * (1.0 + abs(rhs)), (lhs, rhs)


@EXAMPLES
@given(instances(), st.floats(0.1, 10.0))
def test_gauge_is_homogeneous_and_subadditive(instance, scale):
    cls, _, h, g, _ = instance
    gauge = theta(cls, h).value
    scaled = theta(cls, FunctionVec(h.space, scale * h.values)).value
    assert abs(scaled - scale * gauge) <= IDENTITY_EXACT * (1.0 + scale * gauge)
    _below(theta(cls, FunctionVec(h.space, h.values + g.values)).value,
           gauge + theta(cls, g).value)


@EXAMPLES
@given(instances(penalty=True))
def test_penalty_is_below_both_trivial_splits(instance):
    cls, P, h, _, eps = instance
    penalty = lambda_penalty(P, cls, eps, h)
    tol = IDENTITY_EXACT if penalty.exact else IDENTITY_ITERATIVE
    _below(penalty.value, min(j_penalty(P, h).value, eps * theta(cls, h).value), tol)


@pytest.mark.xfail(raises=NumericalBreakdown, strict=True,
                   reason="the Dudley penalty LP breaks down in phase 1 (ROADMAP item 2)")
def test_dudley_penalty_on_a_four_point_euclidean_metric():
    """The space ``_space(np.random.default_rng(165), "euclid", 4)`` with
    the h and P that ``instances`` draws from the same generator after it
    (no ties, no zero masses).  The LP breaks down in phase 1, at the same
    iteration for eps = 0.5, 1 and 2."""
    c = np.array([
        [0.0, 0.47789437293956644, 0.6062872336235995, 0.5364455306862034],
        [0.47789437293956644, 0.0, 0.8289965545727634, 0.6593670044926092],
        [0.6062872336235995, 0.8289965545727634, 0.0, 1.1427325385761873],
        [0.5364455306862034, 0.6593670044926092, 1.1427325385761873, 0.0],
    ])
    graph = ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
    space = make_space(["x0", "x1", "x2", "x3"], metric=c,
                       graph=graph + tuple((j, i, w) for i, j, w in graph))
    P = DiscreteDistribution(space, np.array(
        [0.4226808344961815, 0.08055468596138661, 0.24168992272368092, 0.2550745568187509]))
    h = FunctionVec(space, np.array(
        [0.9949925489859579, 0.915290653775392, 0.2637248349310233, 0.9978781578756075]))
    cls, eps = DudleyBall(space), 1.0
    penalty = lambda_penalty(P, cls, eps, h)
    _below(penalty.value, min(j_penalty(P, h).value, eps * theta(cls, h).value))


@EXAMPLES
@given(instances())
def test_worst_case_is_below_the_centered_gauge_bound(instance):
    cls, P, h, _, eps = instance
    report = corollary_bound(P, cls, eps, h)
    _below(report.lhs, report.rhs)
    assert report.rhs == P.weights @ h.values + eps * cls.centered_gauge(h)[1].value


@EXAMPLES
@given(instances())
def test_robust_gan_objective_is_below_the_complexity_cap(instance):
    cls, P, h, g, eps = instance
    mu = DiscreteDistribution(h.space, np.full(h.space.n, 1.0 / h.space.n))
    report = gan_bound_check(f_divergence_catalog("chi2"), Explicit(h.space, (h, g)),
                             cls, eps, mu, P)
    _below(report.robust, report.plain + report.cap)
    assert report.cap == eps * max(theta(cls, h).value, theta(cls, g).value)
