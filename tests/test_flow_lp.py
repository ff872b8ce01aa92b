"""Differential tests of the worst cases and distances of the Lipschitz and
Dudley balls: the flow distance LPs, and the transport dual behind both worst
cases, which for the Dudley ball drains eps/2 of mass in each piece (the
Lipschitz ball's own fleet is in ``test_transport_dual``; the Dudley ball's
is here).

Every value is compared with scipy's HiGHS on a formulation written here from
the definition, independent of the package's encoding: the Lipschitz worst
case as an n^2-variable coupling LP, the Dudley worst case as mass moved along
every ordered arc plus an L1 budget, and both distances on the function side
over every point pair.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ipmdro import (
    DiscreteDistribution,
    DroMethod,
    DudleyBall,
    FunctionVec,
    LipschitzBall,
    critic_infimum,
    critic_loss,
    ipm_distance,
    lambda_penalty,
    make_space,
    verify_identity,
    worst_case_expectation,
)
from ipmdro import balls
from ipmdro.errors import SizeCapExceeded
from ipmdro.solvers import LP_FEASIBILITY
from oracles import REL, highs_linprog

def coupling_worst_case(h, p, metric, eps):
    """max sum_ij h_i pi_ij over couplings with column sums p and cost <= eps."""
    n = h.size
    a_eq = np.kron(np.ones((1, n)), np.eye(n))  # column sums of pi (row-major)
    res = highs_linprog(-np.repeat(h, n), A_ub=metric.reshape(1, -1), b_ub=[eps],
                        A_eq=a_eq, b_eq=p)
    return -res.fun


def arc_dudley_worst_case(h, p, metric, eps):
    """q - p = a+ - a- + (flow along every ordered arc), |a|_1 <= eps and
    flow cost <= eps."""
    n = h.size
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    a_eq = np.zeros((n + 1, 3 * n + len(arcs)))
    a_eq[:n, :n] = np.eye(n)
    a_eq[:n, n:2 * n] = -np.eye(n)
    a_eq[:n, 2 * n:3 * n] = np.eye(n)
    a_ub = np.zeros((2, a_eq.shape[1]))
    a_ub[0, n:3 * n] = 1.0
    for col, (i, j) in enumerate(arcs, start=3 * n):
        a_eq[i, col] -= 1.0
        a_eq[j, col] += 1.0
        a_ub[1, col] = metric[i, j]
    a_eq[n, :n] = 1.0
    c = np.zeros(a_eq.shape[1])
    c[:n] = -h
    res = highs_linprog(c, A_ub=a_ub, b_ub=[eps, eps], A_eq=a_eq,
                        b_eq=np.concatenate([p, [1.0]]))
    return -res.fun


def function_side_distance(metric, delta, sup_weight):
    """max <f, delta> over f with |f_i - f_j| <= v c_ij on every pair and,
    for the Dudley ball, |f_i| <= u with u + v <= 1 (else v = 1)."""
    n = delta.size
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row = np.zeros(n + 2)
            row[i], row[j], row[n + 1] = 1.0, -1.0, -metric[i, j]
            rows.append(row)
            rows.append(-row)
            rows[-1][n + 1] = -metric[i, j]
    if sup_weight:
        for i in range(n):
            for sign in (1.0, -1.0):
                row = np.zeros(n + 2)
                row[i], row[n] = sign, -1.0
                rows.append(row)
    budget = np.zeros((1, n + 2))
    budget[0, n:] = 1.0
    upper = [(0, None) if sup_weight else (0, 0), (0, None)]
    res = highs_linprog(-np.concatenate([delta, [0.0, 0.0]]),
                        A_ub=np.vstack(rows + [budget]), b_ub=np.r_[np.zeros(len(rows)), 1.0],
                        bounds=[(None, None)] * n + upper)
    return -res.fun


def path_space(rng, n):
    t = np.sort(rng.uniform(0.0, 1.0, n))
    return make_space([f"x{i}" for i in range(n)], metric=np.abs(t[:, None] - t[None, :]))


def euclid_space(rng, n):
    x = rng.uniform(0.0, 1.0, (n, 2))
    return make_space([f"e{i}" for i in range(n)],
                      metric=np.linalg.norm(x[:, None] - x[None, :], axis=2))


def discrete_space(rng, n):
    return make_space([f"d{i}" for i in range(n)], metric=2.0 * (1.0 - np.eye(n)))


def distribution(rng, space):
    return DiscreteDistribution(space, rng.dirichlet(np.ones(space.n)))


def assert_close(got, ref):
    assert abs(got - ref) <= REL * max(1.0, abs(ref)), (got, ref)


def check_instance(space, seed, eps):
    rng = np.random.default_rng(seed)
    P, Q = distribution(rng, space), distribution(rng, space)
    h = FunctionVec(space, rng.uniform(-1.0, 1.0, space.n))
    delta = Q.weights - P.weights
    metric = space.metric
    for cls, sup_weight in ((LipschitzBall(space), False), (DudleyBall(space), True)):
        if sup_weight:
            ref = arc_dudley_worst_case(h.values, P.weights, metric, eps)
        else:
            ref = coupling_worst_case(h.values, P.weights, metric, eps)
        worst = worst_case_expectation(P, cls, eps, h)
        assert_close(worst.value, ref)
        assert_close(float(worst.worst_q.weights @ h.values), ref)
        assert worst.gap_estimate == 0.0

        dist = ipm_distance(cls, Q, P)
        assert_close(dist.value, function_side_distance(metric, delta, sup_weight))
        assert isinstance(dist.witness, FunctionVec)
        assert cls.gauge(dist.witness).value <= 1.0 + 1e-9
        assert_close(float(dist.witness.values @ delta), dist.value)


SETTINGS = settings(max_examples=8, deadline=None)


@SETTINGS
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), eps=st.floats(0.01, 1.0))
def test_path_metric_matches_highs(n, seed, eps):
    check_instance(path_space(np.random.default_rng(seed), n), seed, eps)


@SETTINGS
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), eps=st.floats(0.01, 1.0))
@example(n=26, seed=67006, eps=1.0)  # HiGHS at default tolerances was off by 1.007e-9
def test_euclidean_metric_matches_highs(n, seed, eps):
    check_instance(euclid_space(np.random.default_rng(seed), n), seed, eps)


@pytest.mark.parametrize("n", [61, 100])
def test_path_sizes_past_the_old_coupling_cap(n):
    check_instance(path_space(np.random.default_rng(n), n), n, 0.2)


def test_dudley_instance_where_column_generation_broke_down():
    # column generation stopped here with "Dudley distance LP terminated
    # abnormally" in its separation step
    rng = np.random.default_rng(3)
    n = 12
    x = rng.uniform(0, 1, (n, 2))
    space = make_space([f"e{i}" for i in range(n)],
                       metric=np.linalg.norm(x[:, None] - x[None, :], axis=2))
    P = DiscreteDistribution(space, rng.dirichlet(np.ones(n)))
    h = FunctionVec(space, rng.uniform(-1, 1, n))
    got = worst_case_expectation(P, DudleyBall(space), 0.25, h)
    assert_close(got.value, arc_dudley_worst_case(h.values, P.weights, space.metric, 0.25))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dudley_worst_case_fleet(data):
    """The drained transport dual against the arc LP.  Half-integer h ties
    at argmax h and at the drain's threshold; zero masses leave points, or
    every argmax of h, out of the rows, so the drain lands on the appended
    target.  worst_q is checked against the ball by the package's own
    Dudley distance LP.  The search's lam* is +0.0 itself or at least 1e-12,
    never a rounding-level crossing."""
    make = data.draw(st.sampled_from([path_space, euclid_space, discrete_space]), "metric")
    n = data.draw(st.integers(2, 40), "n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    space = make(rng, n)
    mass, h = rng.dirichlet(np.ones(n)), rng.uniform(-1.0, 1.0, n)
    if data.draw(st.booleans(), "tied h"):
        h = np.round(2.0 * h) / 2.0
    zero = data.draw(st.sampled_from(["none", "some", "argmax"]), "zero mass")
    if zero == "some":
        mass[rng.random(n) < 0.4] = 0.0
    elif zero == "argmax":
        mass[h == h.max()] = 0.0
    if mass.sum() == 0.0:
        mass[int(np.argmin(h))] = 1.0
    eps = data.draw(st.floats(1e-3, 2.5), "eps")
    P, H = DiscreteDistribution(space, mass / mass.sum()), FunctionVec(space, h)
    worst = worst_case_expectation(P, DudleyBall(space), eps, H)
    assert worst.method == DroMethod.TRANSPORT_DUAL
    assert_close(worst.value, arc_dudley_worst_case(h, P.weights, space.metric, eps))
    assert float(worst.worst_q.weights @ h) == pytest.approx(worst.value, abs=1e-15)
    assert ipm_distance(DudleyBall(space), worst.worst_q, P).value <= eps + LP_FEASIBILITY
    assert worst.value >= P.weights @ h - 1e-15
    lam = balls._transport_dual(DudleyBall(space), P.weights, h, eps, eps / 2.0)[0]
    assert (lam == 0.0 and not np.signbit(lam)) or lam >= 1e-12, lam


# The penalty LP side is the kernel's weak spot on Euclidean metrics: with
# this construction the Dudley penalty LP already breaks down ("phase 1
# terminated abnormally") at n = 8, so the Euclidean case stays at n = 6.
@pytest.mark.parametrize("make, n", [(path_space, 30), (euclid_space, 6)])
@pytest.mark.parametrize("ball", [LipschitzBall, DudleyBall])
def test_identity_residual(make, n, ball):
    rng = np.random.default_rng(n)
    space = make(rng, n)
    P = distribution(rng, space)
    h = FunctionVec(space, rng.uniform(-1.0, 1.0, n))
    for eps in (0.05, 0.4):
        report = verify_identity(P, ball(space), eps, h)
        assert report.exact
        assert report.residual <= 1e-6


def test_critic_infimum_certificate_is_a_function():
    rng = np.random.default_rng(5)
    space = path_space(rng, 6)
    P = DiscreteDistribution.point_mass(space, 0)
    mu = DiscreteDistribution.point_mass(space, 5)
    cls = LipschitzBall(space)
    eps = 0.1
    report = critic_infimum(P, mu, eps, cls)
    assert not report.bounded
    assert isinstance(report.certificate, FunctionVec)
    # the loss is negative along the certifying ray
    assert critic_loss(P, mu, eps, cls, report.certificate) < 0.0


def test_oversize_lps_are_refused_before_assembly(monkeypatch):
    def refuse(*args):
        raise AssertionError("LP matrices assembled past the dense cap")

    monkeypatch.setattr(balls, "_penalty_rows", refuse)
    monkeypatch.setattr(balls, "_flow_columns", refuse)
    rng = np.random.default_rng(0)
    space = euclid_space(rng, 200)
    P, Q = distribution(rng, space), distribution(rng, space)
    h = FunctionVec(space, rng.uniform(-1.0, 1.0, 200))
    with pytest.raises(SizeCapExceeded):
        lambda_penalty(P, DudleyBall(space), 0.1, h)
    # both worst cases and the Lipschitz penalty search the transport dual
    # and build no LP; the distances do
    worst = worst_case_expectation(P, DudleyBall(space), 0.1, h)
    assert worst.method == DroMethod.TRANSPORT_DUAL and worst.value >= P.weights @ h.values
    for cls in (LipschitzBall(space), DudleyBall(space)):
        with pytest.raises(SizeCapExceeded):
            ipm_distance(cls, Q, P)
