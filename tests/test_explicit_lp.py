"""The LPs of an explicit set, each posed so that its slack basis is feasible.

Up to GAUGE_DUAL_MEMBERS members the gauge is valued through its dual,
max <h, y> over free y with M y <= 1, and the centered gauge through the
same dual on sum-zero y, with y_n substituted; a larger set keeps the
primal conic LPs.  The worst case runs over the move d = q - p, with d_n
substituted.  Each is checked against HiGHS on the primal conic LPs and on
the LP over q.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from ipmdro import (
    DiscreteDistribution,
    Explicit,
    FunctionVec,
    balls,
    centered_theta,
    ipm_distance,
    lambda_penalty,
    make_space,
    theta,
    verify_identity,
    worst_case_expectation,
)
from ipmdro.solvers import LP_DUALITY_GAP, LP_FEASIBILITY, solve_lp


def _explicit(space, members):
    return Explicit(space, tuple(FunctionVec(space, row) for row in members))


def _instance(rng, n, m):
    """A random set of m members, so not even, a P with points of zero mass,
    and an h inside the members' cone half of the time; drawn freely, h
    often lies outside it when m is small."""
    space = make_space([str(i) for i in range(n)])
    members = rng.standard_normal((m, n))
    p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.6)
    p[int(rng.integers(n))] += 0.2
    if rng.random() < 0.5:
        h = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.5) @ members
    else:
        h = rng.standard_normal(n)
    eps = float(rng.uniform(0.01, 2.0))
    P = DiscreteDistribution(space, p / p.sum())
    return _explicit(space, members), P, FunctionVec(space, h), eps


def _highs(c, **kwargs):
    res = linprog(c, method="highs", **kwargs)
    assert res.status in (0, 2), res.message
    return None if res.status == 2 else res


def test_every_explicit_lp_starts_at_its_slack_basis(monkeypatch):
    """No LP of an explicit set of at most GAUGE_DUAL_MEMBERS members has an
    equality row or a negative right-hand side, so none needs an artificial
    column or a phase 1."""
    posed = []
    monkeypatch.setattr(balls, "solve_lp",
                        lambda problem: posed.append(problem) or solve_lp(problem))
    rng = np.random.default_rng(11)
    outside = 0
    for _ in range(40):
        cls, P, h, eps = _instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 9)))
        outside += np.isinf(theta(cls, h).value)
        centered_theta(cls, h)
        worst_case_expectation(P, cls, eps, h)
        lambda_penalty(P, cls, eps, h)
    assert outside >= 5 and len(posed) == 4 * 40
    for lp in posed:
        assert lp.b_eq.size == 0 and lp.b_ub.min() >= 0.0


def test_fleet_against_highs():
    """Gauge, centered gauge and worst case on 300 random sets (n 1-8, up to
    40 members, so on both sides of GAUGE_DUAL_MEMBERS) against HiGHS, with
    each witness checked: w >= 0 reproduces h, its sum is the gauge, the
    shift b* attains the centered gauge and q lies in the simplex and the
    ball."""
    rng = np.random.default_rng(23)
    for _ in range(300):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 41))
        cls, P, h, eps = _instance(rng, n, m)
        members, v, p = cls.matrix, h.values, P.weights
        scale = 1.0 + np.abs(v).max()

        def check_witness(w, value, target):
            assert w.min() >= 0.0
            assert np.abs(members.T @ w - target).max() <= LP_FEASIBILITY * scale
            assert abs(w.sum() - value) <= LP_DUALITY_GAP * (1.0 + value)

        gauge = theta(cls, h)
        ref = _highs(np.ones(m), A_eq=members.T, b_eq=v)
        if ref is None:
            assert gauge.value == np.inf and gauge.witness is None
        else:
            assert gauge.value == pytest.approx(ref.fun, abs=1e-9, rel=1e-9)
            check_witness(gauge.witness, gauge.value, v)

        b, centered = centered_theta(cls, h)
        ref = _highs(np.append(np.ones(m), 0.0), A_eq=np.hstack([members.T, np.ones((n, 1))]),
                     b_eq=v, bounds=[(0, None)] * m + [(None, None)])
        if ref is None:
            assert centered.value == np.inf and centered.witness is None
        else:
            assert centered.value == pytest.approx(ref.fun, abs=1e-9, rel=1e-9)
            check_witness(centered.witness, centered.value, v - b)
            shifted = theta(cls, FunctionVec(h.space, v - b)).value
            assert shifted == pytest.approx(centered.value, abs=1e-9, rel=1e-9)

        worst = worst_case_expectation(P, cls, eps, h)
        ref = _highs(-v, A_ub=members, b_ub=members @ p + eps,
                     A_eq=np.ones((1, n)), b_eq=[1.0])
        assert worst.value == pytest.approx(-ref.fun, abs=1e-9, rel=1e-9)
        q = worst.worst_q.weights
        assert q.min() >= 0.0 and abs(q.sum() - 1.0) <= 1e-12
        assert (members @ (q - p)).max() <= eps + LP_FEASIBILITY * (1.0 + eps)
        assert worst.value == pytest.approx(q @ v, abs=1e-12 * scale)


def test_primal_gauge_outside_the_cone(monkeypatch):
    """Past GAUGE_DUAL_MEMBERS members the gauge poses the primal LP, which
    is infeasible when h lies outside the members' cone.  Every member here
    is positive at the first point, so -e_0 is outside: the gauge is
    +infinity with no witness, and HiGHS finds the primal infeasible too."""
    rng = np.random.default_rng(37)
    n, m = 5, balls.GAUGE_DUAL_MEMBERS + 8
    members = rng.standard_normal((m, n))
    members[:, 0] = rng.uniform(0.1, 1.0, m)
    space = make_space([str(i) for i in range(n)])
    h = -np.eye(n)[0]
    posed = []
    monkeypatch.setattr(balls, "solve_lp",
                        lambda problem: posed.append(problem) or solve_lp(problem))
    gauge = theta(_explicit(space, members), FunctionVec(space, h))
    assert gauge.value == np.inf and gauge.witness is None
    assert [lp.a_eq.shape for lp in posed] == [(n, m)]
    assert _highs(np.ones(m), A_eq=members.T, b_eq=h) is None


def test_one_point_space(monkeypatch):
    """On one point every h is constant: the substitutions leave no variable,
    so neither the centered gauge nor the worst case poses an LP, and the
    other operations take their one-point values."""
    space = make_space(["a"])
    cls = _explicit(space, [[2.0], [-0.5], [0.0]])
    P = DiscreteDistribution(space, [1.0])
    posed = []
    monkeypatch.setattr(balls, "solve_lp",
                        lambda problem: posed.append(problem) or solve_lp(problem))
    for c, gauge in ((3.0, 1.5), (-1.0, 2.0), (0.0, 0.0)):
        h = FunctionVec(space, [c])
        assert theta(cls, h).value == pytest.approx(gauge, abs=1e-12)
        posed.clear()
        b, centered = centered_theta(cls, h)
        worst = worst_case_expectation(P, cls, 0.5, h)
        assert not posed
        assert b == c and centered.value == 0.0
        assert np.array_equal(centered.witness, np.zeros(cls.size))
        assert worst.value == c and worst.worst_q.weights.tolist() == [1.0]
        assert lambda_penalty(P, cls, 0.5, h).value == pytest.approx(0.0, abs=1e-12)
        assert ipm_distance(cls, P, P).value == 0.0
        assert verify_identity(P, cls, 0.5, h).residual <= 1e-12


def test_operations_keep_no_state_on_the_instance():
    """No operation stores a result or a standard form on the set."""
    rng = np.random.default_rng(31)
    cls, P, _, _ = _instance(rng, 5, 12)
    before = dict(vars(cls))
    for _ in range(5):
        _, Q, h, eps = _instance(rng, 5, 12)
        theta(cls, h)
        centered_theta(cls, h)
        ipm_distance(cls, Q, P)
        worst_case_expectation(P, cls, eps, h)
        lambda_penalty(P, cls, eps, h)
    assert vars(cls) == before
