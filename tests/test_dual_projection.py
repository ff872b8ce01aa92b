"""The dual-ball projection behind the quadratic penalty's prox, against an
independent oracle.

The projection of z onto {y in range(M): y' M+ y <= r^2} has the KKT form
y = V diag(lam / (lam + t)) V'z over the positive eigenvalues, with t = 0
when z's range part is inside the ball and otherwise t > 0 the root of the
secular equation sum zc_i^2 lam_i / (lam_i + t)^2 = r^2.  The oracle here
builds M from the class's own definition, decomposes it itself and finds t
with scipy's brentq.
"""

import builtins

import numpy as np
import pytest
from scipy.optimize import brentq

from ipmdro import (
    DiscreteDistribution,
    FisherBall,
    RkhsBall,
    SobolevBall,
    balls,
    cli,
    make_space,
)
from ipmdro.core import sobolev_matrix
from ipmdro.errors import NumericalBreakdown
from fleet import path_graph_space, plain_space, random_gram


def _spectrum(cls):
    """(positive eigenvalues, their eigenvectors) of M, decomposed here from
    the class's definition: K for RKHS (M = K^-1, so no eigenvalue is lost
    to an inversion), diag(mu) for Fisher, the Laplacian for Sobolev."""
    if isinstance(cls, RkhsBall):
        val, vec = np.linalg.eigh(cls.gram)
        return 1.0 / val, vec
    if isinstance(cls, FisherBall):
        form = np.diag(cls.mu.weights)
    else:
        form = sobolev_matrix(cls.space, cls.mu)
    val, vec = np.linalg.eigh(form)
    keep = val > 1e-10 * max(float(val.max()), 1.0)
    return val[keep], vec[:, keep]


def _secular_root(lam, zc, radius):
    """t >= 0 with sum zc^2 lam / (lam + t)^2 = radius^2 (0 when inside)."""
    def excess(t):
        return float(np.sum(zc**2 * lam / (lam + t) ** 2)) - radius**2

    if excess(0.0) <= 0.0:
        return 0.0
    hi = float(lam.max())
    while excess(hi) > 0.0:
        hi *= 2.0
    return brentq(excess, 0.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def _check_projection(cls, z, radius):
    """The projection against the oracle; returns the oracle's t and the
    projection."""
    y = cls._norm.project_dual(z, radius)
    lam, vec = _spectrum(cls)
    zc = vec.T @ z
    t = _secular_root(lam, zc, radius)
    assert t >= 0.0
    expected = vec @ (zc * lam / (lam + t))
    scale = float(np.abs(expected).max()) + 1e-300
    assert np.abs(y - expected).max() <= 1e-9 * scale
    yc = vec.T @ y
    inner = float(np.sum(yc**2 / lam))  # y' M+ y
    if t > 0.0:
        assert abs(inner - radius**2) <= 1e-12 * radius**2
    else:
        assert inner <= radius**2 * (1.0 + 1e-12)
    return t, y


def _random_class(rng, kind, n):
    if kind == "rkhs":
        return RkhsBall(plain_space(n), gram=random_gram(rng, n))
    mu = rng.dirichlet(np.ones(n) * 2.0) * 0.9 + 0.1 / n
    if kind == "fisher":
        space = plain_space(n)
        return FisherBall(space, mu=DiscreteDistribution(space, mu / mu.sum()))
    space = path_graph_space(n)
    return SobolevBall(space, mu=DiscreteDistribution(space, mu / mu.sum()))


@pytest.mark.parametrize("kind", ["rkhs", "fisher", "sobolev"])
def test_random_balls_match_the_secular_root(kind):
    rng = np.random.default_rng({"rkhs": 11, "fisher": 12, "sobolev": 13}[kind])
    outside = 0
    for n in range(2 if kind == "sobolev" else 1, 41):
        cls = _random_class(rng, kind, n)
        for _ in range(3):
            z = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
            radius = 10.0 ** rng.uniform(-3.0, 1.0)
            outside += _check_projection(cls, z, radius)[0] > 0.0
    assert outside > 60  # most draws exercise the root, not the inside case


@pytest.mark.parametrize("kind", ["rkhs", "fisher", "sobolev"])
def test_inside_the_ball_returns_the_input(kind):
    rng = np.random.default_rng(21)
    for n in (3, 8, 20):
        cls = _random_class(rng, kind, n)
        lam, vec = _spectrum(cls)
        g = rng.standard_normal(lam.size)
        z = vec @ (g * np.sqrt(lam))  # in range(M), with z' M+ z = |g|^2
        radius = 1.01 * float(np.linalg.norm(g))
        y = cls._norm.project_dual(z, radius)
        assert np.abs(y - z).max() <= 1e-13 * float(np.abs(z).max())


@pytest.mark.parametrize("kind", ["rkhs", "fisher", "sobolev"])
def test_radius_zero_projects_to_zero(kind):
    rng = np.random.default_rng(31)
    cls = _random_class(rng, kind, 6)
    y = cls._norm.project_dual(rng.standard_normal(6), 0.0)
    assert np.array_equal(y, np.zeros(6))


def test_zero_mass_fisher_projects_into_the_support():
    rng = np.random.default_rng(41)
    space = plain_space(7)
    mu = np.array([0.3, 0.0, 0.2, 0.0, 0.25, 0.25, 0.0])
    cls = FisherBall(space, mu=DiscreteDistribution(space, mu), allow_zero_mass=True)
    for radius in (1e-3, 0.1, 1.0, 100.0):
        _, y = _check_projection(cls, rng.standard_normal(7), radius)
        assert np.all(y[mu == 0.0] == 0.0)


def test_sobolev_projection_drops_the_null_space():
    rng = np.random.default_rng(51)
    for n in (3, 9, 25):
        cls = _random_class(rng, "sobolev", n)
        for radius in (1e-2, 0.5, 5.0):
            z = rng.standard_normal(n) + 3.0  # a large constant part
            _, y = _check_projection(cls, z, radius)
            assert abs(float(y.sum())) <= 1e-12 * float(np.abs(z).sum())


def test_ill_conditioned_gaussian_gram():
    # the Gram of test_ill_conditioned_gram_keeps_every_direction, cond ~ 1e10
    t = np.linspace(0.0, 1.0, 8)
    space = make_space([str(x) for x in t], metric=np.abs(t[:, None] - t[None, :]))
    cls = RkhsBall(space, gram=cli.gaussian_gram(space, 0.67))
    assert np.linalg.cond(cls.gram) > 1e9
    rng = np.random.default_rng(61)
    for radius in (1e-4, 1e-2, 1.0, 10.0):
        for _ in range(5):
            z = rng.standard_normal(8) * 10.0 ** rng.uniform(-2.0, 2.0)
            _check_projection(cls, z, radius)


def test_newton_that_does_not_settle_is_refused(monkeypatch):
    rng = np.random.default_rng(71)
    cls = _random_class(rng, "rkhs", 6)
    z = 100.0 * rng.standard_normal(6)
    monkeypatch.setattr(balls, "range", lambda stop: builtins.range(1), raising=False)
    with pytest.raises(NumericalBreakdown,
                       match=r"dual-ball projection \(n = 6, radius = 0\.01\): no root"):
        cls._norm.project_dual(z, 0.01)
