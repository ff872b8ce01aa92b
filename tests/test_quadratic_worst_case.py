"""The exact worst case over the Fisher, RKHS and Sobolev balls against an
SLSQP oracle, on the inputs that make an active-set walk degenerate: points
P gives no weight, a zero-mass Fisher mu, tied maxima of h, a constant h and
radii past the argmax vertex."""

import numpy as np
import pytest
from scipy.optimize import minimize

from ipmdro import (
    DiscreteDistribution,
    DroMethod,
    FisherBall,
    FunctionVec,
    RkhsBall,
    SobolevBall,
    ipm_distance,
    make_space,
    worst_case_expectation,
)
from ipmdro import balls
from ipmdro.core import sobolev_matrix
from ipmdro.errors import NumericalBreakdown
from ipmdro.solvers import BALL_FEASIBILITY
from fleet import path_graph_space, quadratic_class, random_gram, sobolev_instance

KINDS = ("fisher", "rkhs", "sobolev")
CASES = ("plain", "zero_weight_p", "tied_argmax", "constant_h", "zero_mass_mu")


def _instance(rng, kind, n, case):
    """(space, class, P, h, support mask, distance form D on the support)."""
    if kind == "sobolev":
        space = path_graph_space(n)
    else:
        space = make_space([f"w{i}" for i in range(n)])
    mu = rng.dirichlet(np.ones(n) * 2.0) * 0.9 + 0.1 / n
    if case == "zero_mass_mu" and n > 1:
        mu[rng.choice(n, size=max(1, n // 3), replace=False)] = 0.0
    mu = DiscreteDistribution(space, mu / mu.sum())
    support = np.ones(n, dtype=bool)
    if kind == "fisher":
        cls = FisherBall(space, mu=mu, allow_zero_mass=True)
        support = mu.weights > 0.0
        form = np.diag(1.0 / mu.weights[support])
    elif kind == "rkhs":
        cls = RkhsBall(space, gram=random_gram(rng, n))
        form = np.asarray(cls.gram)
    else:
        cls = SobolevBall(space, mu=mu)
        form = np.linalg.pinv(sobolev_matrix(space, mu), hermitian=True)
    p = rng.dirichlet(np.ones(n))
    if case == "zero_weight_p" and n > 1:
        p[rng.choice(n, size=n // 2, replace=False)] = 0.0
        p /= p.sum()
    h = rng.uniform(-1.0, 1.0, n)
    if case == "tied_argmax" and n > 1:
        h[rng.choice(n, size=2, replace=False)] = h.max()
    if case == "constant_h":
        h[:] = 0.7
    return (space, cls, DiscreteDistribution(space, p), FunctionVec(space, h),
            support, form)


def _slsqp_worst_case(rng, h, p, form, eps, starts=4):
    """max <h, q> over q >= 0, sum(q) = sum(p), (q-p)' D (q-p) <= eps^2 by
    SLSQP from P and random starts.  Each result is clipped and pulled back
    along the segment to P until it is feasible, so every value counted is
    attained by a point of the ball."""
    n, mass = h.size, float(p.sum())
    constraints = [
        {"type": "eq", "fun": lambda q: q.sum() - mass, "jac": lambda q: np.ones(n)},
        {"type": "ineq", "fun": lambda q: eps**2 - (q - p) @ form @ (q - p),
         "jac": lambda q: -2.0 * form @ (q - p)},
    ]
    best = -np.inf
    for k in range(starts):
        start = p if k == 0 else np.abs(rng.standard_normal(n)) + 0.2
        res = minimize(lambda q: -(h @ q), start / start.sum() * mass,
                       jac=lambda q: -h, method="SLSQP", bounds=[(0.0, mass)] * n,
                       constraints=constraints, options={"maxiter": 1000, "ftol": 1e-15})
        q = np.maximum(res.x, 0.0)
        d = q / q.sum() * mass - p
        dist = float(np.sqrt(max(d @ form @ d, 0.0)))
        d *= min(1.0, eps / dist) if dist > 0.0 else 1.0
        best = max(best, float(h @ (p + d)))
    return best


def _check_against_oracle(rng, kind, n, case, eps):
    _, cls, P, h, support, form = _instance(rng, kind, n, case)
    result = worst_case_expectation(P, cls, eps, h)
    assert result.method == DroMethod.ACTIVE_SET
    p, v = P.weights, h.values
    assert result.value == float(result.worst_q.weights @ v)
    distance = ipm_distance(cls, result.worst_q, P).value
    assert distance <= eps + BALL_FEASIBILITY
    if p[support].sum() <= 0.0:  # the ball is {P}
        assert result.value == pytest.approx(float(p @ v), abs=1e-12)
        return
    ref = float(p[~support] @ v[~support]) + _slsqp_worst_case(
        rng, v[support], p[support], form, eps)
    assert result.value == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("kind", KINDS)
def test_matches_slsqp_on_degenerate_inputs(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for n in range(1, 9):
        for case in CASES:
            if case == "zero_mass_mu" and kind != "fisher":
                continue
            eps = float(rng.choice([0.02, 0.2, 0.6, 1.5]))
            _check_against_oracle(rng, kind, n, case, eps)


@pytest.mark.parametrize("kind", KINDS)
def test_matches_slsqp_at_forty_points(kind):
    rng = np.random.default_rng(40 + KINDS.index(kind))
    _check_against_oracle(rng, kind, 40, "zero_weight_p", 0.4)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", ["plain", "tied_argmax"])
def test_radius_past_the_argmax_vertex_gives_max_h(kind, case):
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        space, cls, P, h, _, _ = _instance(rng, kind, n, case)
        top = int(np.argmax(h.values))
        vertex = DiscreteDistribution.point_mass(space, top)
        eps = 2.0 * ipm_distance(cls, vertex, P).value
        result = worst_case_expectation(P, cls, eps, h)
        assert result.method == DroMethod.ACTIVE_SET
        assert result.value == pytest.approx(float(h.values.max()), abs=1e-12)
        # at eps = 0 the ball is {P}, returned without a walk
        result = worst_case_expectation(P, cls, 0.0, h)
        assert result.method == DroMethod.ACTIVE_SET and result.worst_q is P


def test_ball_without_mass_is_p():
    """A Fisher ball whose mu puts no mass where P does holds only P."""
    space = make_space(["a", "b", "c"])
    cls = FisherBall(space, mu=DiscreteDistribution(space, [0.0, 0.5, 0.5]),
                     allow_zero_mass=True)
    P = DiscreteDistribution.point_mass(space, 0)
    result = worst_case_expectation(P, cls, 0.4, FunctionVec(space, [0.1, 0.9, 0.5]))
    assert result.method == DroMethod.ACTIVE_SET and result.worst_q is P
    assert result.value == 0.1


@pytest.mark.parametrize("kind", KINDS)
def test_value_is_the_expectation_under_worst_q(kind):
    rng = np.random.default_rng(0)
    if kind == "sobolev":
        space, cls = sobolev_instance(rng, 5)
    else:
        space = make_space([str(i) for i in range(5)])
        cls = quadratic_class(rng, space, kind)
    P = DiscreteDistribution(space, rng.dirichlet(np.ones(5)))
    h = FunctionVec(space, np.ones(5))
    result = worst_case_expectation(P, cls, 1.2, h)
    assert result.value == float(result.worst_q.weights @ h.values)
    assert result.value <= float(h.values.max())


@pytest.mark.parametrize("field", ["lp_feasibility", "lp_reduced_cost"])
def test_failed_kkt_check_is_refused(field, monkeypatch):
    rng = np.random.default_rng(3)
    _, cls, P, h, _, _ = _instance(rng, "rkhs", 6, "zero_weight_p")
    monkeypatch.setattr(balls, field.upper(), -1.0)
    with pytest.raises(NumericalBreakdown, match=r"quadratic worst case \(n = 6\)"):
        worst_case_expectation(P, cls, 0.3, h)


def test_walk_past_its_segment_cap_is_refused(monkeypatch):
    """Segments on which every point has an event at the current mu flip
    point 0 in and out forever; the walk stops at 4n + 4 segments."""
    def flipping(D, g, p, free):
        fixed = int((~free).sum())
        return -free.astype(float), -p, -np.ones(fixed), np.zeros(fixed)

    monkeypatch.setattr(balls, "_segment", flipping)
    rng = np.random.default_rng(3)
    _, cls, P, h, _, _ = _instance(rng, "rkhs", 6, "zero_weight_p")
    with pytest.raises(NumericalBreakdown, match=r"^quadratic worst case \(n = 6\): "
                       r"no optimal segment in 28$"):
        worst_case_expectation(P, cls, 10.0, h)


def _symmetric_instance(kind, n):
    """A uniform mu (or a Gram matrix with equal off-diagonal entries) and a
    uniform P on the second half of the points: coordinates of equal h move
    in step, so events coincide and some coordinates sit at zero with a zero
    rate, where the walk must not flip them back and forth."""
    space = path_graph_space(n) if kind == "sobolev" else make_space(
        [f"s{i}" for i in range(n)])
    mu = DiscreteDistribution.uniform(space)
    if kind == "fisher":
        cls, form = FisherBall(space, mu=mu), np.diag(1.0 / mu.weights)
    elif kind == "rkhs":
        cls = RkhsBall(space, gram=np.eye(n) + 0.5)
        form = np.asarray(cls.gram)
    else:
        cls = SobolevBall(space, mu=mu)
        form = np.linalg.pinv(sobolev_matrix(space, mu), hermitian=True)
    p = np.where(np.arange(n) < n // 2, 0.0, 1.0)
    return space, cls, DiscreteDistribution(space, p / p.sum()), form


# levels of h whose coinciding events on the Sobolev path flipped a
# coordinate back and forth on rounding noise before rates below 1e-12 of
# their scale counted as zero
TIED_LEVELS = (
    (1.0, 1.0, 0.5, 0.5), (0.5, 0.5, 0.0, 0.0), (1.0, 1.0, 0.0, 0.5),
    (1.0, 0.0, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, 1.0, 0.5), (0.5, 1.0, 0.5, 0.5, 0.0),
)


@pytest.mark.parametrize("kind", KINDS)
def test_coinciding_events_on_symmetric_instances(kind):
    rng = np.random.default_rng(11)
    for levels in TIED_LEVELS:
        space, cls, P, form = _symmetric_instance(kind, len(levels))
        h = FunctionVec(space, np.array(levels))
        for eps in (0.1, 1.0, 3.0):
            result = worst_case_expectation(P, cls, eps, h)
            ref = _slsqp_worst_case(rng, h.values, P.weights, form, eps)
            assert result.value == pytest.approx(ref, abs=1e-8)
