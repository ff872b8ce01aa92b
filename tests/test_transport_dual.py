"""Differential tests of the Lipschitz ball's transport dual and of the
sup-norm ball's closed forms, behind both balls' worst cases and penalties.

Every value is compared with scipy's HiGHS on LPs written here from the
definitions, independent of the package's code: the worst case as an
n^2-variable coupling LP under the ball's cost (the metric, or 2 off the
diagonal for the sup norm), the ball's distance as the n^2-variable
transport LP under the same cost, and the penalty as the infimal convolution
over (h1, t, s) with the ball's constraint on h - h1 written pair by pair
(point by point for the sup norm).  The sup norm's greedy move and quantile
split are also compared with the Lipschitz ball on the discrete metric
2 (1 - I), the same class up to a shift, and with the greedy
total-variation worst case of ``oracles``, up to 100,000 points.

The Dudley ball's worst case searches the same dual with a total-variation
drain in each piece; its mutation, step-cap and size tests are here, and its
differential fleet against HiGHS is in ``test_flow_lp``.  A power-of-two
scaling fleet checks that all three balls work in the units of h.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from ipmdro import (
    DiscreteDistribution,
    DroMethod,
    DudleyBall,
    Explicit,
    FunctionVec,
    LipschitzBall,
    SupNormBall,
    check_alignment,
    corollary_bound,
    f_divergence_catalog,
    gan_bound_check,
    lambda_penalty,
    make_space,
    theta,
    verify_identity,
    worst_case_expectation,
)
from ipmdro import balls
from ipmdro.errors import EpsNegative, NumericalBreakdown
from ipmdro.solvers import DENSE_LP_CAP, IDENTITY_EXACT, LP_FEASIBILITY
from oracles import REL, greedy_l1_worst_case, highs_linprog

def coupling_worst_case(h, p, cost, eps):
    """max sum_ij h_j pi_ij over couplings pi >= 0 with row sums p and
    transport cost <= eps (pi flattened row-major)."""
    n = h.size
    rows = sparse.kron(sparse.eye(n), np.ones((1, n)))
    res = highs_linprog(-np.tile(h, n), A_ub=cost.reshape(1, -1), b_ub=[eps],
                        A_eq=rows, b_eq=p)
    return -res.fun


def transport_cost(q, p, cost):
    """min sum_ij cost_ij pi_ij over couplings pi >= 0 with row sums p and
    column sums q: the distance of the ball between Q and P."""
    n = p.size
    rows = sparse.kron(sparse.eye(n), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, n)), sparse.eye(n))
    res = highs_linprog(cost.ravel(), A_eq=sparse.vstack([rows, cols]),
                        b_eq=np.concatenate([p, q]))
    return res.fun


def penalty_lp(h, p, eps, pairs=None, cost=None):
    """min t - p'h1 + eps * s over h1 <= t and, for h2 = h - h1,
    |h2_i - h2_j| <= s * cost_ij on the given pairs (Lipschitz) or
    |h2_i| <= s (sup norm, ``pairs`` None)."""
    n = h.size
    t, s = n, n + 1
    row = []
    col = []
    val = []
    rhs = []

    def add(entries, bound):
        for j, v in entries:
            row.append(len(rhs))
            col.append(j)
            val.append(v)
        rhs.append(bound)

    for i in range(n):
        add([(i, 1.0), (t, -1.0)], 0.0)
    if pairs is None:
        for i in range(n):
            add([(i, -1.0), (s, -1.0)], -h[i])
            add([(i, 1.0), (s, -1.0)], h[i])
    else:
        for i, j in pairs:
            add([(i, -1.0), (j, 1.0), (s, -cost[i, j])], -(h[i] - h[j]))
            add([(i, 1.0), (j, -1.0), (s, -cost[i, j])], h[i] - h[j])
    a_ub = sparse.csr_matrix((val, (row, col)), shape=(len(rhs), n + 2))
    c = np.concatenate([-p, [1.0, eps]])
    res = highs_linprog(c, A_ub=a_ub, b_ub=rhs, bounds=[(None, None)] * (n + 1) + [(0, None)])
    return res.fun


def instance(kind, n, seed, variant=None):
    """(space, pairs, P, h, eps): points in the unit square or on a line
    (where the adjacent pairs fix the Lipschitz constant)."""
    rng = np.random.default_rng([n, seed])
    if kind == "euclid":
        x = rng.uniform(0.0, 1.0, (n, 2))
        metric = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        t = np.cumsum(rng.uniform(0.1, 1.0, n))
        metric = np.abs(t[:, None] - t[None, :])
        pairs = [(i, i + 1) for i in range(n - 1)]
    space = make_space([f"x{i}" for i in range(n)], metric=metric)
    w = rng.dirichlet(np.ones(n))
    h = rng.uniform(-1.0, 1.0, n)
    eps = float(rng.uniform(0.05, 0.5))
    if variant == "ties":
        h = np.round(2.0 * h) / 2.0
    elif variant == "zero-mass":
        w[rng.random(n) < 0.4] = 0.0
        w[0] += 1e-3
    elif variant == "large-eps":  # enough to move all mass onto argmax h
        eps = 2.5 * max(float(metric.max()), 2.0)
    elif variant == "tiny-eps":
        eps = 1e-6
    elif variant == "mass-on-argmax":  # lam* = 0 at any eps
        w = np.zeros(n)
        w[int(np.argmax(h))] = 1.0
    return space, pairs, DiscreteDistribution(space, w / w.sum()), FunctionVec(space, h), eps


FLEET = [("euclid", n, 0, None) for n in (2, 7, 20, 40, 60)] + [
    ("path", n, 1, None) for n in (3, 50, 201)] + [
    ("euclid", 15, 2, "ties"), ("path", 30, 2, "ties"),
    ("euclid", 25, 3, "zero-mass"), ("path", 40, 3, "zero-mass"),
    ("euclid", 12, 4, "large-eps"), ("euclid", 12, 4, "tiny-eps"),
    ("euclid", 10, 5, "mass-on-argmax"), ("path", 10, 5, "large-eps"),
]


@pytest.mark.parametrize("kind, n, seed, variant", FLEET)
def test_fleet_matches_highs(kind, n, seed, variant):
    space, pairs, P, h, eps = instance(kind, n, seed, variant)
    p, v = P.weights, h.values
    sup_cost = 2.0 * (1.0 - np.eye(n))
    for cls, cost, ball_pairs in ((LipschitzBall(space), space.metric, pairs),
                                  (SupNormBall(space), sup_cost, None)):
        report = verify_identity(P, cls, eps, h)
        ref_ball = coupling_worst_case(v, p, cost, eps)
        ref_penalty = penalty_lp(v, p, eps, ball_pairs, space.metric)
        assert report.lhs >= p @ v - 1e-15 * (1.0 + float(np.abs(v).max()))
        assert abs(report.lhs - ref_ball) <= REL * max(1.0, abs(ref_ball))
        assert abs(report.lambda_value - ref_penalty) <= REL * max(1.0, abs(ref_penalty))
        assert report.exact
        assert report.residual <= 1e-12 * (1.0 + float(np.abs(v).max()))
        h1, h2 = lambda_penalty(P, cls, eps, h).witness
        split = h1.max() - p @ h1 + eps * theta(cls, FunctionVec(space, h2)).value
        assert np.allclose(h1 + h2, v, rtol=0.0, atol=1e-12)
        assert split == pytest.approx(report.lambda_value, abs=1e-12)
        if variant in ("large-eps", "mass-on-argmax"):  # lam* = 0: h2 constant
            assert report.lhs == pytest.approx(v.max(), abs=1e-12)
            assert report.lambda_value == pytest.approx(v.max() - p @ v, abs=1e-12)


def test_lipschitz_penalty_past_the_dense_cap():
    # n(n - 1) pair rows: the penalty LP this replaced was refused here
    n = 80
    assert n * (n - 1) > DENSE_LP_CAP
    space, pairs, P, h, eps = instance("euclid", n, 6)
    got = lambda_penalty(P, LipschitzBall(space), eps, h)
    ref = penalty_lp(h.values, P.weights, eps, pairs, space.metric)
    assert abs(got.value - ref) <= REL * max(1.0, abs(ref))
    h1, h2 = got.witness
    assert np.allclose(h1 + h2, h.values, rtol=0.0, atol=1e-12)


def test_worst_case_reports_the_transport_dual():
    space, _, P, h, eps = instance("euclid", 9, 7)
    for cls in (LipschitzBall(space), SupNormBall(space)):
        result = worst_case_expectation(P, cls, eps, h)
        assert result.method == DroMethod.TRANSPORT_DUAL
        assert result.value == pytest.approx(float(result.worst_q.weights @ h.values), abs=1e-15)


@pytest.mark.parametrize("ball", [LipschitzBall])
def test_scaled_lambda_shows_in_the_residual(ball, monkeypatch):
    """A split built at (1 + 1e-3) lam* overstates the penalty.  The worst case
    reads only the plans and phi(lam*) from the search, so the scaled lam*
    moves the penalty's side of the identity alone."""
    space, _, P, h, eps = instance("euclid", 12, 1)
    cls = ball(space)
    assert verify_identity(P, cls, eps, h).residual <= 1e-15
    real = balls._transport_dual

    def scaled(*args):
        lam, *rest = real(*args)
        return (lam * (1.0 + 1e-3), *rest)

    monkeypatch.setattr(balls, "_transport_dual", scaled)
    assert verify_identity(P, cls, eps, h).residual > IDENTITY_EXACT


@pytest.mark.parametrize("shift", [1e-3, -1e-3, 1e-6, -1e-6])
@pytest.mark.parametrize("ball", [LipschitzBall])
def test_moved_mixing_weight_is_refused(ball, shift, monkeypatch):
    """Off its exact value the mixture leaves or undershoots the ball; at
    1e-6 the value moves by less than the gap tolerance, so only the ball
    residual shows it."""
    space, _, P, h, eps = instance("euclid", 12, 1)
    real = balls._mixing_weight
    monkeypatch.setattr(balls, "_mixing_weight", lambda *args: real(*args) + shift)
    with pytest.raises(NumericalBreakdown, match=rf"{ball.__name__} worst case "
                       r"\(n = 12, lambda = .*\): ball residual .*, value gap"):
        worst_case_expectation(P, ball(space), eps, h)


SCALES = [-1000, -60, -30, 30, 60, 1000]
COVARIANCE_FLEET = [(kind, n, seed, variant) for kind in ("path", "euclid")
                    for n in range(3, 13)
                    for seed, variant in ((1, None), (2, "zero-mass"), (3, "ties"))]


def transport_outputs(space, P, h, eps):
    """(operation, value, worst_q) for the sup-norm, Lipschitz and Dudley
    worst cases and the sup-norm and Lipschitz penalties (worst_q None)."""
    H, out = FunctionVec(space, h), []
    for ball in (SupNormBall(space), LipschitzBall(space), DudleyBall(space)):
        name = type(ball).__name__
        worst = worst_case_expectation(P, ball, eps, H)
        out.append((f"{name} worst case", worst.value, worst.worst_q.weights.tolist()))
        if not isinstance(ball, DudleyBall):
            out.append((f"{name} penalty", lambda_penalty(P, ball, eps, H).value, None))
    return out


@pytest.mark.parametrize("k", SCALES)
def test_power_of_two_scaling_of_h_is_exact(k):
    """Every operation is positively homogeneous in h, and a power of two
    scales each of their floating-point steps exactly while no value leaves
    the normal range.  So at 2^k h each value is 2^k times its value at h
    and each worst_q is the same, bit for bit, on 60 path and Euclidean
    spaces of 3-12 points, with and without zero masses and ties in h.  A
    tolerance with an absolute floor, such as 1e-12 (1 + max|h|), stops the
    search at its first crossing once |h| falls below about 1e-9."""
    inexact = []
    for case in COVARIANCE_FLEET:
        space, _, P, h, eps = instance(*case)
        at_h = transport_outputs(space, P, h.values, eps)
        scaled = transport_outputs(space, P, np.ldexp(h.values, k), eps)
        for (name, value, q), (_, got, got_q) in zip(at_h, scaled):
            if got != np.ldexp(value, k) or got_q != q:
                inexact.append((case, name))
    assert inexact == []


@pytest.mark.parametrize("k", [0] + SCALES)
@pytest.mark.parametrize("ball", [LipschitzBall, DudleyBall])
def test_inflated_dual_value_is_refused_at_every_scale(ball, k, monkeypatch):
    """phi(lam*) inflated by 1e-6 of itself leaves a value gap of 1e-6 |phi|,
    which is more than seven times LP_DUALITY_GAP max|h| on this instance, so
    the certificate refuses it at every scale of h.  A gap bound with an
    absolute floor, LP_DUALITY_GAP (1 + |phi|), let it pass from k = -30."""
    space, _, P, h, eps = instance("euclid", 12, 1)
    v = np.ldexp(h.values, k)
    real = balls._transport_dual

    def inflated(*args):
        lam, phi, *rest = real(*args)
        return (lam, phi * (1.0 + 1e-6), *rest)

    monkeypatch.setattr(balls, "_transport_dual", inflated)
    with pytest.raises(NumericalBreakdown, match=rf"{ball.__name__} worst case \(n = 12, "
                       r"lambda = .*\): ball residual .*, value gap"):
        worst_case_expectation(P, ball(space), eps, FunctionVec(space, v))


def test_search_without_a_kink_stops_at_its_bound():
    # a NaN in h, which no public call lets through, hides every kink
    ball = LipschitzBall(make_space(["a", "b", "c"], metric=2.0 * (1.0 - np.eye(3))))
    h = np.array([np.nan, 0.0, 1.0])
    with pytest.raises(NumericalBreakdown, match=r"LipschitzBall transport dual \(n = 3, "
                       r"lambda = nan\): no kink of phi in 11 steps; phi exceeds"):
        balls._transport_dual(ball, np.full(3, 1.0 / 3.0), h, 0.1, 0.0)


def test_drained_search_without_a_kink_stops_at_its_bound():
    """A drain adds the crossings of the rows' values to phi's kinks, so the
    search with one runs n^2 (n + 2) + 2 steps, 47 at n = 3."""
    ball = DudleyBall(make_space(["a", "b", "c"], metric=2.0 * (1.0 - np.eye(3))))
    h = np.array([np.nan, 0.0, 1.0])
    with pytest.raises(NumericalBreakdown, match=r"DudleyBall transport dual \(n = 3, "
                       r"lambda = nan\): no kink of phi in 47 steps; phi exceeds"):
        balls._transport_dual(ball, np.full(3, 1.0 / 3.0), h, 0.1, 0.05)


def test_dudley_budgets_that_reach_argmax_h_only_together():
    """Uniform P on three points of 2 (1 - I) at eps = 1: the plan onto
    argmax h alone costs 4/3 > eps, but after the drain of eps/2, farthest
    rows first, it costs 1/3, so phi rises right of 0 and lam* = 0: the two
    budgets together move all of P onto argmax h, neither of them in full."""
    space = make_space(["a", "b", "c"], metric=2.0 * (1.0 - np.eye(3)))
    P = DiscreteDistribution(space, np.full(3, 1.0 / 3.0))
    worst = worst_case_expectation(P, DudleyBall(space), 1.0,
                                   FunctionVec(space, np.array([0.0, 0.5, 1.0])))
    assert worst.value == 1.0 and worst.worst_q.weights.tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("shift", [0.0, -5.0, 1e6])
@pytest.mark.parametrize("weights, eps", [((1 / 3, 1 / 3, 1 / 3), 1.0), ((0.5, 0.5, 0.0), 1.5)])
def test_dudley_search_exits_at_a_literal_zero(weights, eps, shift):
    """phi's right slope at 0 decides lam* = 0, so the search returns +0.0
    itself, not a crossing that rounding puts at -0.0 or +-1e-16, whatever
    the sign and size of h; with P = (1/2, 1/2, 0) argmax h holds no mass
    and the drain lands on the appended target."""
    space = make_space(["a", "b", "c"], metric=2.0 * (1.0 - np.eye(3)))
    p, h = np.array(weights), np.array([0.0, 0.5, 1.0]) + shift
    lam = balls._transport_dual(DudleyBall(space), p, h, eps, eps / 2.0)[0]
    assert lam == 0.0 and not np.signbit(lam)
    worst = worst_case_expectation(DiscreteDistribution(space, p), DudleyBall(space), eps,
                                   FunctionVec(space, h))
    assert abs(worst.value - h.max()) <= 1e-15 * (1.0 + np.abs(h).max())
    assert worst.worst_q.weights.tolist() == [0.0, 0.0, 1.0]


def test_dudley_drain_lands_on_the_first_argmax_of_h():
    """Every point is a row, so the drain of a piece past the first lands on
    the first argmax of h, which P leaves empty here.  On 2 (1 - I) with
    h = (1, 0, 1), P = (0, 1/2, 1/2) and eps = 1/4, the two pieces mix at
    theta = 1/3: the one that sends point 1 to point 0 (cost 3/4) and the
    one that keeps it (cost 0), each draining 1/8 onto point 0."""
    space = make_space(["a", "b", "c"], metric=2.0 * (1.0 - np.eye(3)))
    P = DiscreteDistribution(space, np.array([0.0, 0.5, 0.5]))
    worst = worst_case_expectation(P, DudleyBall(space), 0.25,
                                   FunctionVec(space, np.array([1.0, 0.0, 1.0])))
    assert worst.value == 0.75
    assert worst.worst_q.weights == pytest.approx([0.25, 0.25, 0.5], rel=0.0, abs=1e-15)


def test_lipschitz_mass_goes_to_its_nearest_argmax_of_h():
    """On the path 0, 1, 2, 3 with h = (1, 0, 0, 1) and P on the last two
    points, sending P to its nearest argmax of h costs 1/2 <= eps, so
    lam* = 0 and Q keeps all mass at point 3.  A search from the first
    argmax (cost 5/2) ends at a -0.0 crossing and spends all of eps moving
    mass to point 0 for no gain."""
    t = np.arange(4.0)
    space = make_space(list("abcd"), metric=np.abs(t[:, None] - t[None, :]))
    P = DiscreteDistribution(space, np.array([0.0, 0.0, 0.5, 0.5]))
    worst = worst_case_expectation(P, LipschitzBall(space), 1.0,
                                   FunctionVec(space, np.array([1.0, 0.0, 0.0, 1.0])))
    assert worst.value == 1.0 and worst.worst_q.weights.tolist() == [0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("shift", [1e-3, -1e-3, 1e-6, -1e-6])
@pytest.mark.parametrize("name, budget", [("_mixing_weight", "transport"),
                                          ("_drain", "total-variation")])
def test_dudley_moved_weight_or_drain_is_refused(name, budget, shift, monkeypatch):
    """A moved mixing weight leaves or undershoots the transport budget; a
    drain of eps/2 + shift, which the search and phi(lam*) both see, shows
    only in the total-variation budget."""
    space, _, P, h, eps = instance("euclid", 12, 1)
    assert P.weights[h.values < h.values.max()].sum() > eps / 2.0 + 1e-3
    real = getattr(balls, name)
    if name == "_drain":
        monkeypatch.setattr(balls, name, lambda v, p, drain: real(v, p, drain + shift))
    else:
        monkeypatch.setattr(balls, name, lambda *args: real(*args) + shift)
    with pytest.raises(NumericalBreakdown, match=r"DudleyBall worst case \(n = 12, lambda = "
                       rf".*\): ball residual .* on the {budget} budget, value gap"):
        worst_case_expectation(P, DudleyBall(space), eps, h)


def test_a_nudge_above_every_other_point_keeps_the_mass():
    """All of P sits on the one point where h is 1e-13 above the rest: no
    move can raise E_Q[h], so Q = P.  A search that took argmaxes within
    1e-12 of each other as ties moved all of P to point 0 and returned 0."""
    n = 16
    space = make_space([f"x{i}" for i in range(n)], metric=2.0 * (1.0 - np.eye(n)))
    P = DiscreteDistribution.point_mass(space, n - 1)
    h = FunctionVec(space, np.append(np.zeros(n - 1), 1e-13))
    worst = worst_case_expectation(P, LipschitzBall(space), 2.0, h)
    assert worst.value == 1e-13
    assert worst.worst_q.weights.tolist() == P.weights.tolist()
    assert verify_identity(P, LipschitzBall(space), 2.0, h).residual == 0.0


MOVES = {
    "next": lambda s, k, t: s[min(k + 1, s.size - 1)],
    "previous": lambda s, k, t: s[max(k - 1, 0)],
    "up": lambda s, k, t: t + 1e-3,
    "down": lambda s, k, t: t - 1e-3,
}


@pytest.mark.parametrize("move", sorted(MOVES))
def test_moved_threshold_shows_in_the_residual(move, monkeypatch):
    """A split at any t other than t* overstates the penalty by the slope of
    G times the move: one sorted position, or 1e-3, either way."""
    space, _, P, h, eps = instance("euclid", 12, 1)
    ball = SupNormBall(space)
    assert verify_identity(P, ball, eps, h).residual <= 1e-15
    real = balls._tv_threshold

    def moved(v, p, eps):
        t = real(v, p, eps)
        s = np.unique(v)
        return MOVES[move](s, int(np.searchsorted(s, t)), t)

    monkeypatch.setattr(balls, "_tv_threshold", moved)
    assert verify_identity(P, ball, eps, h).residual > IDENTITY_EXACT


@pytest.mark.parametrize("shift", [1e-3, -1e-3, 1e-6, -1e-6])
def test_overdrawn_or_underdrawn_budget_is_refused(shift, monkeypatch):
    """Draining more or less than eps/2 leaves the ball or spends less than
    eps; at 1e-6 the value moves by less than the gap tolerance, so only the
    ball residual shows it."""
    space, _, P, h, eps = instance("euclid", 12, 1)
    assert P.weights[h.values < h.values.max()].sum() > eps / 2.0 + 1e-3
    real = balls._drain
    monkeypatch.setattr(balls, "_drain", lambda v, p, budget: real(v, p, budget + shift))
    with pytest.raises(NumericalBreakdown, match=r"SupNormBall worst case \(n = 12, "
                       r"t = .*\): ball residual .*, value gap"):
        worst_case_expectation(P, SupNormBall(space), eps, h)


@pytest.mark.parametrize("ball", [LipschitzBall, SupNormBall])
def test_split_carries_no_negative_zero(ball):
    """h holds 0.0 and -0.0; which of two equal zeros a maximum returns is
    numpy's choice, and a split must not pass a -0.0 on to a report."""
    v = np.array([-1.0, -0.0, 0.0, -0.0, 1.0, 0.0, -0.0])
    n = v.size
    space = make_space([f"x{i}" for i in range(n)], metric=2.0 * (1.0 - np.eye(n)))
    P = DiscreteDistribution(space, np.full(n, 1.0 / n))
    for eps in (1e-3, 0.1, 0.5, 3.0):
        h1, h2 = lambda_penalty(P, ball(space), eps, FunctionVec(space, v)).witness
        for part in (h1, h2):
            assert not np.any(np.signbit(part) & (part == 0.0)), (eps, h1, h2)


def test_nan_radius_is_refused():
    space, _, P, h, _ = instance("euclid", 4, 0)
    with pytest.raises(EpsNegative):
        worst_case_expectation(P, SupNormBall(space), float("nan"), h)


@pytest.mark.parametrize("n", [120, 200])
def test_identity_bound_and_alignment_past_the_dense_cap(n):
    """n(n - 1) pair rows are past the dense cap, where the flow LPs are
    refused; no check here builds one.  Each ball gets the random h and an
    aligned one: -c(., k) for the Lipschitz ball, whose every unit of mass
    moved towards k gains its cost, and a sign vector for the sup norm."""
    assert n * (n - 1) > DENSE_LP_CAP
    space, _, P, h, eps = instance("euclid", n, 8)
    p, v = P.weights, h.values
    k = int(np.argmax(p @ space.metric))
    sign = np.where(v > 0.0, 1.0, -1.0)
    assert p @ space.metric[:, k] > eps and p[sign < 0.0].sum() > eps / 2.0
    for cls, cost, aligned in (
            (LipschitzBall(space), space.metric, -space.metric[:, k]),
            (SupNormBall(space), 2.0 * (1.0 - np.eye(n)), sign)):
        report = verify_identity(P, cls, eps, h)
        ref = coupling_worst_case(v, p, cost, eps)
        assert abs(report.lhs - ref) <= REL * max(1.0, abs(ref))
        assert report.residual <= 1e-12 * (1.0 + float(np.abs(v).max()))
        worst_q = worst_case_expectation(P, cls, eps, h).worst_q
        assert transport_cost(worst_q.weights, p, cost) <= eps + LP_FEASIBILITY
        bound = corollary_bound(P, cls, eps, h)
        assert bound.lhs == report.lhs and bound.slack >= 0.0
        assert not check_alignment(P, cls, eps, h).aligned
        g = FunctionVec(space, aligned)
        alignment = check_alignment(P, cls, eps, g)
        assert alignment.aligned and alignment.witness_residual <= 1e-12
        witness = alignment.witness_mu.weights
        assert transport_cost(witness, p, cost) <= eps + LP_FEASIBILITY
        assert witness @ aligned == pytest.approx(
            coupling_worst_case(aligned, p, cost, eps), abs=REL)


def test_lipschitz_gan_bound_past_the_dense_cap():
    n = 200
    space, _, P, _, eps = instance("euclid", n, 9)
    rng = np.random.default_rng(9)
    H = Explicit(space, tuple(FunctionVec(space, rng.uniform(-0.9, 0.6, n))
                              for _ in range(3)))
    mu = DiscreteDistribution(space, rng.dirichlet(np.ones(n)))
    report = gan_bound_check(f_divergence_catalog("kl"), H, LipschitzBall(space), eps, mu, P)
    assert np.isfinite(report.robust) and report.slack >= 0.0


def test_dudley_worst_case_at_four_hundred_points():
    """Far past the dense cap, where the flow LP this search replaced was
    refused.  Every Dudley function is in the Lipschitz and sup-norm
    classes, so their balls lie inside the Dudley ball and their worst cases
    bound its worst case from below.  At eps = 0.05 all three stay well
    below max h, so the comparison is not one of three equal maxima."""
    n, eps = 400, 0.05
    space, _, P, h, _ = instance("euclid", n, 11)
    dudley = DudleyBall(space)
    worst = worst_case_expectation(P, dudley, eps, h)
    assert worst.method == DroMethod.TRANSPORT_DUAL
    for cls in (LipschitzBall(space), SupNormBall(space)):
        assert worst.value >= worst_case_expectation(P, cls, eps, h).value
    bound = corollary_bound(P, dudley, eps, h)
    assert bound.lhs == worst.value and bound.slack >= 0.0
    rng = np.random.default_rng(11)
    H = Explicit(space, tuple(FunctionVec(space, rng.uniform(-0.9, 0.6, n))
                              for _ in range(3)))
    mu = DiscreteDistribution(space, rng.dirichlet(np.ones(n)))
    report = gan_bound_check(f_divergence_catalog("kl"), H, dudley, eps, mu, P)
    assert np.isfinite(report.robust) and report.slack >= 0.0


def discrete_metric_space(n):
    return make_space([f"x{i}" for i in range(n)], metric=2.0 * (1.0 - np.eye(n)))


def expect_sup_norm_matches_references(h, mass, eps):
    """The sup-norm worst case and penalty against the Lipschitz ball on
    2 (1 - I), which searches the transport dual, and against the greedy
    worst case of ``oracles``."""
    n = h.size
    space = discrete_metric_space(n)
    P, H = DiscreteDistribution(space, mass / mass.sum()), FunctionVec(space, h)
    scale = 1.0 + float(np.abs(h).max())
    sup, lip = SupNormBall(space), LipschitzBall(space)
    worst, penalty = sup.worst_case(P, eps, H), sup.lambda_(P, eps, H)
    e_p_h = float(P.weights @ h)
    lip_worst = lip.worst_case(P, eps, H).value
    assert lip_worst >= e_p_h - 1e-15 * scale
    assert abs(worst.value - lip_worst) <= 1e-12 * scale
    assert abs(penalty.value - lip.lambda_(P, eps, H).value) <= 1e-12 * scale
    greedy = greedy_l1_worst_case(h, P.weights, eps)
    assert abs(worst.value - greedy) <= 1e-14 * scale
    assert abs(penalty.value - (greedy - e_p_h)) <= 1e-14 * scale
    q = worst.worst_q.weights
    assert np.abs(q - P.weights).sum() <= eps + LP_FEASIBILITY
    h1, h2 = penalty.witness
    assert np.allclose(h1 + h2, h, rtol=0.0, atol=1e-14 * scale)
    split = h1.max() - P.weights @ h1 + eps * sup.gauge(FunctionVec(space, h2)).value
    assert abs(split - penalty.value) <= 1e-14 * scale


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sup_norm_matches_the_discrete_metric_and_the_greedy_move(data):
    """Repeated integer levels (optionally scaled, and nudged by 1e-13 or
    4e-13, near the 1e-12 max|h| at which the transport dual stops) give
    ties and near-ties at the threshold and at argmax h, which the transport
    dual's exact argmaxes must tell apart; zero masses leave points out of
    the move but not out of the penalty's split."""
    n = data.draw(st.integers(1, 40), "n")
    levels = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4), "levels")
    h = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n), "h"),
                 dtype=float)
    h *= data.draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 100.0), "scale")
    nudge = data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n), "nudge")
    h += data.draw(st.sampled_from([0.0, 1e-13, 4e-13]), "nudge size") * np.array(nudge)
    mass = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                              .filter(any), "mass"), dtype=float)
    eps = data.draw(st.sampled_from([1e-9, 2.0, 3.0]) | st.floats(1e-9, 4.0), "eps")
    expect_sup_norm_matches_references(h, mass, eps)


def sup_norm_case(h, mass, eps):
    """(worst case, penalty, E_P h, J_P(h)) on exact dyadic data."""
    h, mass = np.array(h), np.array(mass)
    space = discrete_metric_space(h.size)
    P, H = DiscreteDistribution(space, mass), FunctionVec(space, h)
    report = verify_identity(P, SupNormBall(space), eps, H)
    assert report.exact and report.residual == 0.0
    worst = worst_case_expectation(P, SupNormBall(space), eps, H)
    assert worst.value == report.lhs
    return worst, report.lambda_value, float(mass @ h), float(h.max() - mass @ h)


@pytest.mark.parametrize("eps", [2.0, 3.5])
def test_sup_norm_radius_past_two_reaches_max_h(eps):
    worst, penalty, _, j = sup_norm_case([0.5, -1.0, 2.0, 1.0], [0.25, 0.25, 0.25, 0.25], eps)
    assert worst.value == 2.0 and penalty == j
    assert worst.worst_q.weights.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_sup_norm_mass_at_argmax_moves_nothing():
    worst, penalty, e_p_h, _ = sup_norm_case([0.5, 2.0, -1.0, 2.0], [0.0, 0.75, 0.0, 0.25], 0.5)
    assert worst.value == e_p_h == 2.0 and penalty == 0.0
    assert worst.worst_q.weights.tolist() == [0.0, 0.75, 0.0, 0.25]


def test_sup_norm_budget_ends_exactly_at_a_level():
    """The mass below 0.5 is exactly eps/2: it all moves, and nothing at 0.5."""
    worst, penalty, e_p_h, _ = sup_norm_case(
        [0.5, -1.0, 2.0, -0.5, 0.5], [0.25, 0.125, 0.25, 0.125, 0.25], 0.5)
    assert worst.worst_q.weights.tolist() == [0.25, 0.0, 0.5, 0.0, 0.25]
    assert worst.value == 1.25 and penalty == 1.25 - e_p_h


def test_sup_norm_argmax_without_mass():
    """The move lands on argmax h, which P leaves empty; the last point
    drained, 0.5, keeps half its mass."""
    worst, penalty, e_p_h, _ = sup_norm_case([0.5, -1.0, 2.0], [0.5, 0.5, 0.0], 1.5)
    assert worst.worst_q.weights.tolist() == [0.25, 0.0, 0.75]
    assert worst.value == 1.625 and penalty == 1.625 - e_p_h


def test_sup_norm_at_a_hundred_thousand_points():
    """The worst case moves eps/2 of mass from the lowest values of h onto
    argmax h.  A traced peak of 50 MB leaves room for a few dozen arrays of
    n floats and none of n^2."""
    n, eps = 100_000, 0.3
    rng = np.random.default_rng(10)
    space = make_space([f"x{i}" for i in range(n)])
    P = DiscreteDistribution(space, rng.dirichlet(np.ones(n)))
    h = FunctionVec(space, rng.uniform(-1.0, 1.0, n))
    ball = SupNormBall(space)
    tracemalloc.start()
    try:
        worst = worst_case_expectation(P, ball, eps, h).value
        penalty = lambda_penalty(P, ball, eps, h).value
        report = verify_identity(P, ball, eps, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    ref = greedy_l1_worst_case(h.values, P.weights, eps)
    ref_penalty = ref - float(P.weights @ h.values)
    for got, expected in ((worst, ref), (report.lhs, ref), (penalty, ref_penalty),
                          (report.lambda_value, ref_penalty)):
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert report.exact and report.residual <= 1e-12
