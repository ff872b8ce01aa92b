import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from ipmdro import (
    DiscreteDistribution,
    DudleyBall,
    Explicit,
    FisherBall,
    FunctionVec,
    LipschitzBall,
    RkhsBall,
    SupNormBall,
    ZetaBall,
    centered_theta,
    discretize_structured_class,
    j_penalty,
    lambda_penalty,
    make_space,
    theta,
    worst_case_expectation,
)
from ipmdro import balls
from ipmdro.core import lipschitz_constant
from ipmdro.errors import EpsNonPositive, NegativeZeta, NumericalBreakdown
from ipmdro.solvers import LpSolution, LpStatus, solve_lp
from fleet import line_space, quadratic_class, sobolev_instance
from oracles import greedy_l1_worst_case, midrange


def unit_space(n):
    return make_space([str(i) for i in range(n)])


def cross_polytope(space):
    fns = []
    for i in range(space.n):
        e = np.zeros(space.n)
        e[i] = 1.0
        fns.append(FunctionVec(space, e))
        fns.append(FunctionVec(space, -e))
    return Explicit(space, tuple(fns))


class TestGaugeExplicit:
    def test_cross_polytope_is_l1(self):
        space = unit_space(3)
        cls = cross_polytope(space)
        assert theta(cls, FunctionVec(space, [1.0, -1.0, 0.0])).value == pytest.approx(
            2.0, abs=1e-9
        )
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = rng.uniform(-2, 2, 3)
            got = theta(cls, FunctionVec(space, h))
            assert got.value == pytest.approx(np.abs(h).sum(), abs=1e-9)
            # witness reproduces the value
            assert got.witness.sum() == pytest.approx(got.value, abs=1e-7)
            assert np.allclose(cls.matrix.T @ got.witness, h, atol=1e-9)

    def test_zero_function(self):
        space = unit_space(3)
        cls = Explicit(space, (FunctionVec(space, [1.0, 0.0, 0.0]),))
        assert theta(cls, FunctionVec(space, np.zeros(3))).value == 0.0

    def test_outside_cone_is_infinite(self):
        space = unit_space(3)
        cls = Explicit(space, (FunctionVec(space, [1.0, 0.0, 0.0]),))
        assert theta(cls, FunctionVec(space, [0.0, 1.0, 0.0])).value == np.inf


class TestThetaClosedForm:
    def test_sup_norm(self):
        space = unit_space(3)
        val = theta(SupNormBall(space), FunctionVec(space, [0.0, 1.0, 2.0]))
        assert val.value == 2.0

    def test_fisher_uniform(self):
        space = unit_space(3)
        cls = FisherBall(space, mu=DiscreteDistribution.uniform(space))
        val = theta(cls, FunctionVec(space, [0.0, 1.0, 2.0]))
        assert val.value == pytest.approx(np.sqrt(5.0 / 3.0), abs=1e-12)

    def test_lipschitz_sin_grid(self):
        t = np.linspace(-4.0, 4.0, 201)
        space = make_space([f"{x:.2f}" for x in t], metric=np.abs(t[:, None] - t[None, :]))
        h = FunctionVec(space, np.sin(2.0 * t) + t)
        val = theta(LipschitzBall(space), h)
        assert 2.95 <= val.value <= 3.0
        assert val.value == pytest.approx(2.998, abs=2e-3)


class TestGaugeFromZeta:
    def test_matches_fisher(self):
        space = unit_space(4)
        mu = DiscreteDistribution.uniform(space)
        fisher = FisherBall(space, mu=mu)
        zeta = ZetaBall(
            space, zeta=lambda v: float(mu.weights @ v**2), degree=2.0, convex=True
        )
        rng = np.random.default_rng(1)
        for _ in range(10):
            h = FunctionVec(space, rng.uniform(-2, 2, 4))
            assert theta(zeta, h).value == pytest.approx(
                theta(fisher, h).value, abs=1e-12
            )

    def test_matches_dudley(self):
        rng = np.random.default_rng(2)
        space = line_space(rng, 4)
        dudley = DudleyBall(space)
        zeta = ZetaBall(
            space,
            zeta=lambda v: float(np.abs(v).max()) + lipschitz_constant(space, v),
            degree=1.0,
            convex=True,
        )
        for _ in range(10):
            h = FunctionVec(space, rng.uniform(-2, 2, 4))
            assert theta(zeta, h).value == pytest.approx(
                theta(dudley, h).value, abs=1e-12
            )

    def test_zero_at_zero(self):
        space = unit_space(3)
        zeta = ZetaBall(space, zeta=lambda v: float(v @ v), degree=2.0, convex=True)
        assert theta(zeta, FunctionVec(space, np.zeros(3))).value == 0.0

    def test_negative_zeta_raises(self):
        space = unit_space(3)
        ball = ZetaBall(space, zeta=lambda v: float(-(v @ v)), degree=2.0)
        with pytest.raises(NegativeZeta):
            theta(ball, FunctionVec(space, [1.0, 2.0, 3.0]))

    def test_nan_zeta_raises(self):
        """A NaN zeta is neither below nor above zero, so the sign tests
        alone would read it as gauge 0."""
        space = unit_space(3)
        ball = ZetaBall(space, zeta=lambda v: float("nan") if v[0] == 0.5 else float(v @ v),
                        degree=2.0)
        with pytest.raises(NegativeZeta, match="zeta returned nan"):
            theta(ball, FunctionVec(space, [0.5, 2.0, 3.0]))

    def test_nonconvex_flagged_upper_bound(self):
        space = unit_space(3)
        ball = ZetaBall(space, zeta=lambda v: float(np.abs(v).max() ** 2), degree=2.0)
        value = theta(ball, FunctionVec(space, [0.0, 1.0, 2.0]))
        assert not value.exact


class TestJPenalty:
    def test_constant(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        value = j_penalty(P, FunctionVec(space, np.full(3, 7.0))).value
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_reference(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        val = j_penalty(P, FunctionVec(space, [0.0, 1.0, 2.0]))
        assert val.value == pytest.approx(1.0, abs=1e-12)
        assert val.witness == 2

    def test_concentrated_reference(self):
        space = unit_space(3)
        P = DiscreteDistribution(space, [0.0, 0.0, 1.0])
        assert j_penalty(P, FunctionVec(space, [0.0, 1.0, 2.0])).value == 0.0


class TestCenteredTheta:
    def test_fisher_is_standard_deviation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            space = unit_space(n)
            mu = DiscreteDistribution(space, rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
            cls = FisherBall(space, mu=mu)
            h = FunctionVec(space, rng.uniform(-3, 3, n))
            b, val = centered_theta(cls, h)
            mean = float(mu.weights @ h.values)
            std = float(np.sqrt(mu.weights @ (h.values - mean) ** 2))
            assert b == pytest.approx(mean, abs=1e-12)
            assert val.value == pytest.approx(std, abs=1e-9)

    def test_supnorm_midrange(self):
        space = unit_space(3)
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        b, val = centered_theta(SupNormBall(space), h)
        b_ref, half_spread = midrange(h.values)
        assert (b, val.value) == (b_ref, half_spread)
        assert val.value < theta(SupNormBall(space), h).value  # tighter than raw

    def test_lipschitz_shift_invariant(self):
        space = make_space(["a", "b", "c"], metric=np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0))))
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        b, val = centered_theta(LipschitzBall(space), h)
        assert b == 0.0
        assert val.value == pytest.approx(1.0, abs=1e-12)

    def test_explicit_matches_scalar_scan(self):
        rng = np.random.default_rng(4)
        space = unit_space(3)
        cls = cross_polytope(space)
        for _ in range(10):
            h = FunctionVec(space, rng.uniform(-2, 2, 3))
            _, val = centered_theta(cls, h)
            grid = np.linspace(h.values.min(), h.values.max(), 4001)
            scan = min(np.abs(h.values - b).sum() for b in grid)
            assert val.value <= scan + 1e-6
            assert val.value >= scan - 1e-3

    def test_rkhs_closed_form_is_minimum(self):
        rng = np.random.default_rng(5)
        n = 4
        space = unit_space(n)
        a = rng.standard_normal((n, n))
        cls = RkhsBall(space, gram=a @ a.T + 0.5 * np.eye(n))
        h = FunctionVec(space, rng.uniform(-2, 2, n))
        b_star, val = centered_theta(cls, h)
        for b in np.linspace(h.values.min() - 1.0, h.values.max() + 1.0, 200):
            other = theta(cls, FunctionVec(space, h.values - b)).value
            assert val.value <= other + 1e-9

    def test_never_above_uncentered(self):
        rng = np.random.default_rng(6)
        space = line_space(rng, 5)
        a = rng.standard_normal((5, 5))
        classes = [
            SupNormBall(space),
            LipschitzBall(space),
            DudleyBall(space),
            cross_polytope(space),
            FisherBall(space, mu=DiscreteDistribution.uniform(space)),
            RkhsBall(space, gram=a @ a.T + 0.5 * np.eye(5)),
        ]
        for cls in classes:
            for _ in range(10):
                h = FunctionVec(space, rng.uniform(-2, 2, 5))
                _, val = centered_theta(cls, h)
                assert val.value <= theta(cls, h).value + 1e-12

    def test_zeta_ball_golden_section_matches_fisher_closed_form(self):
        space = unit_space(4)
        mu = DiscreteDistribution.uniform(space)
        zeta = ZetaBall(
            space, zeta=lambda v: float(mu.weights @ v**2), degree=2.0, convex=True
        )
        rng = np.random.default_rng(13)
        for _ in range(5):
            h = FunctionVec(space, rng.uniform(-2, 2, 4))
            b, val = centered_theta(zeta, h)
            mean = float(mu.weights @ h.values)
            std = float(np.sqrt(mu.weights @ (h.values - mean) ** 2))
            assert b == pytest.approx(mean, abs=1e-6)
            assert val.value == pytest.approx(std, abs=1e-8)


class TestLambdaPenalty:
    def test_supnorm_small_eps(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        expected = greedy_l1_worst_case(h.values, P.weights, 0.3) - 1.0
        val = lambda_penalty(P, SupNormBall(space), 0.3, h)
        assert val.value == pytest.approx(expected, abs=1e-9)
        assert val.value == pytest.approx(0.3, abs=1e-9)

    def test_supnorm_large_eps(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        expected = greedy_l1_worst_case(h.values, P.weights, 1.0) - 1.0
        val = lambda_penalty(P, SupNormBall(space), 1.0, h)
        assert val.value == pytest.approx(expected, abs=1e-9)
        assert val.value == pytest.approx(5.0 / 6.0, abs=1e-9)

    def test_constant_function_costs_nothing(self):
        space = unit_space(4)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, np.full(4, 3.25))
        for cls in (
            SupNormBall(space),
            cross_polytope(space),
            FisherBall(space, mu=DiscreteDistribution.uniform(space)),
        ):
            assert lambda_penalty(P, cls, 0.7, h).value == pytest.approx(0.0, abs=1e-9)

    def test_eps_zero_rejected(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        with pytest.raises(EpsNonPositive):
            lambda_penalty(P, SupNormBall(space), 0.0, h)

    def test_witness_reproduces_value(self):
        rng = np.random.default_rng(7)
        space = unit_space(4)
        P = DiscreteDistribution(space, rng.dirichlet(np.ones(4)))
        cls = cross_polytope(space)
        h = FunctionVec(space, rng.uniform(-1, 1, 4))
        eps = 0.4
        val = lambda_penalty(P, cls, eps, h)
        h1, h2 = val.witness
        peak = float(h1.max() - P.weights @ h1)
        tail = eps * theta(cls, FunctionVec(space, h2)).value
        assert peak + tail == pytest.approx(val.value, abs=1e-7)

    def test_explicit_penalty_matches_highs_on_the_split_lp(self, monkeypatch):
        """The penalty LP over the conic weights w and the shift s, against
        HiGHS on the split LP it replaced: max p'h1 - t - eps sum(w) over h1
        and t free, w >= 0, with h1 + M'w = h and h1 <= t.  The sets are
        random, so not even, and P has points of zero mass."""
        posed = []
        monkeypatch.setattr(balls, "solve_lp",
                            lambda problem: posed.append(problem) or solve_lp(problem))
        rng = np.random.default_rng(5)
        for _ in range(60):
            n, m = int(rng.integers(2, 9)), int(rng.integers(1, 7))
            space = unit_space(n)
            members = rng.standard_normal((m, n))
            cls = Explicit(space, tuple(FunctionVec(space, row) for row in members))
            p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
            p[int(rng.integers(n))] += 0.1
            P = DiscreteDistribution(space, p / p.sum())
            h = FunctionVec(space, rng.standard_normal(n))
            eps = float(rng.uniform(0.01, 2.0))
            posed.clear()
            val = lambda_penalty(P, cls, eps, h)
            # one LP of inequality rows with b >= 0: the slack basis is feasible
            (lp,) = posed
            assert lp.b_eq.size == 0 and lp.b_ub.min() >= 0.0
            ref = linprog(
                -np.concatenate([P.weights, [-1.0], np.full(m, -eps)]),
                A_eq=np.hstack([np.eye(n), np.zeros((n, 1)), members.T]), b_eq=h.values,
                A_ub=np.hstack([np.eye(n), -np.ones((n, 1)), np.zeros((n, m))]),
                b_ub=np.zeros(n), bounds=[(None, None)] * (n + 1) + [(0, None)] * m,
                method="highs",
            )
            assert ref.status == 0
            assert val.value == pytest.approx(max(ref.fun, 0.0), abs=1e-9, rel=1e-9)
            h1, h2 = val.witness
            assert np.allclose(h1 + h2, h.values, rtol=0.0, atol=1e-12)
            tail = eps * theta(cls, FunctionVec(space, h2)).value
            assert h1.max() - P.weights @ h1 + tail == pytest.approx(val.value, abs=1e-9)

    def test_unusable_lp_status_is_a_breakdown(self, monkeypatch):
        """A status an LP cannot have is refused, not read as a solution:
        UNBOUNDED for the penalty LPs and for the primal gauges of a set past
        GAUGE_DUAL_MEMBERS members, INFEASIBLE for the gauges' duals, which
        are feasible at y = 0, and either for the explicit worst case,
        feasible at q = P and bounded by the simplex."""
        status = LpStatus.UNBOUNDED
        monkeypatch.setattr(balls, "solve_lp",
                            lambda problem: LpSolution(status, None, None, None, None))
        space = line_space(np.random.default_rng(2), 4)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, [0.0, 1.0, 3.0, 2.0])
        explicit = cross_polytope(space)
        for cls in (DudleyBall(space), explicit):
            with pytest.raises(NumericalBreakdown, match="penalty LP"):
                lambda_penalty(P, cls, 0.4, h)
        with pytest.raises(NumericalBreakdown, match="ball LP"):
            worst_case_expectation(P, explicit, 0.4, h)
        rows = np.random.default_rng(3).uniform(-1.0, 1.0, (balls.GAUGE_DUAL_MEMBERS + 1, 4))
        large = Explicit(space, tuple(FunctionVec(space, row) for row in rows))
        with pytest.raises(NumericalBreakdown, match="^gauge LP"):
            theta(large, h)
        with pytest.raises(NumericalBreakdown, match="centered gauge LP"):
            centered_theta(large, h)
        status = LpStatus.INFEASIBLE
        with pytest.raises(NumericalBreakdown, match="^gauge LP"):
            theta(explicit, h)
        with pytest.raises(NumericalBreakdown, match="centered gauge LP"):
            centered_theta(explicit, h)
        with pytest.raises(NumericalBreakdown, match="ball LP"):
            worst_case_expectation(P, explicit, 0.4, h)

    def _slsqp_reference(self, rng, h, p, mat, eps):
        n = h.size
        cons = [
            {"type": "eq", "fun": lambda q: q.sum() - 1.0},
            {"type": "ineq", "fun": lambda q: eps**2 - (q - p) @ mat @ (q - p)},
        ]
        best = -np.inf
        for _ in range(4):
            q0 = np.abs(rng.standard_normal(n)) + 0.2
            q0 /= q0.sum()
            res = minimize(
                lambda q: -(h @ q),
                q0,
                method="SLSQP",
                bounds=[(0.0, 1.0)] * n,
                constraints=cons,
                options={"maxiter": 500, "ftol": 1e-14},
            )
            if res.success:
                best = max(best, -res.fun)
        return best - float(p @ h)

    def test_quadratic_classes_match_slsqp_oracle(self):
        rng = np.random.default_rng(8)
        for kind in ("fisher", "rkhs", "sobolev"):
            for _ in range(4):
                n = int(rng.integers(3, 6))
                if kind == "sobolev":
                    space, cls = sobolev_instance(rng, n)
                    from ipmdro.core import sobolev_matrix

                    lap = sobolev_matrix(space, cls.mu)
                    mat = np.linalg.pinv(lap, hermitian=True)
                else:
                    space = unit_space(n)
                    cls = quadratic_class(rng, space, kind)
                    if kind == "fisher":
                        mat = np.diag(1.0 / cls.mu.weights)
                    else:
                        mat = np.asarray(cls.gram)
                p = rng.dirichlet(np.ones(n) * 2.0)
                P = DiscreteDistribution(space, p)
                h = FunctionVec(space, rng.uniform(-1, 1, n))
                eps = float(rng.uniform(0.05, 0.6))
                val = lambda_penalty(P, cls, eps, h)
                ref = self._slsqp_reference(rng, h.values, p, mat, eps)
                assert not val.exact
                assert val.value == pytest.approx(ref, abs=5e-6)


class TestPenaltyProperties:
    def test_gauge_homogeneity(self):
        rng = np.random.default_rng(9)
        space = line_space(rng, 4)
        mu = DiscreteDistribution.uniform(space)
        classes = [
            cross_polytope(space),
            SupNormBall(space),
            LipschitzBall(space),
            DudleyBall(space),
            FisherBall(space, mu=mu),
            ZetaBall(space, zeta=lambda v: float(v @ v), degree=2.0, convex=True),
        ]
        for cls in classes:
            for _ in range(20):
                h = rng.uniform(-2, 2, 4)
                a = float(rng.uniform(0.1, 5.0))
                lhs = theta(cls, FunctionVec(space, a * h)).value
                rhs = a * theta(cls, FunctionVec(space, h)).value
                assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + rhs))

    def test_gauge_convexity(self):
        rng = np.random.default_rng(10)
        space = line_space(rng, 4)
        classes = [cross_polytope(space), SupNormBall(space), DudleyBall(space)]
        for cls in classes:
            for _ in range(30):
                h1 = rng.uniform(-2, 2, 4)
                h2 = rng.uniform(-2, 2, 4)
                t = float(rng.uniform(0, 1))
                mix = theta(cls, FunctionVec(space, t * h1 + (1 - t) * h2)).value
                bound = (
                    t * theta(cls, FunctionVec(space, h1)).value
                    + (1 - t) * theta(cls, FunctionVec(space, h2)).value
                )
                assert mix <= bound + 1e-9

    def test_lambda_below_min_bound_and_subadditive(self):
        rng = np.random.default_rng(11)
        space = unit_space(5)
        cls = cross_polytope(space)
        P = DiscreteDistribution(space, rng.dirichlet(np.ones(5)))
        eps = 0.5
        for _ in range(50):
            a = rng.uniform(-1, 1, 5)
            b = rng.uniform(-1, 1, 5)
            lam_a = lambda_penalty(P, cls, eps, FunctionVec(space, a)).value
            lam_b = lambda_penalty(P, cls, eps, FunctionVec(space, b)).value
            lam_ab = lambda_penalty(P, cls, eps, FunctionVec(space, a + b)).value
            bound = min(
                j_penalty(P, FunctionVec(space, a)).value,
                eps * theta(cls, FunctionVec(space, a)).value,
            )
            assert lam_a <= bound + 1e-8
            assert lam_ab <= lam_a + lam_b + 1e-8

    def test_discretized_gauge_upper_bounds_closed_form(self):
        rng = np.random.default_rng(12)
        space = unit_space(4)
        mu = DiscreteDistribution.uniform(space)
        cls = FisherBall(space, mu=mu)
        h = FunctionVec(space, rng.uniform(-1, 1, 4))
        exact = theta(cls, h).value
        previous = np.inf
        for budget in (8, 32, 128, 512):
            sampled = discretize_structured_class(cls, budget, seed=13)
            approx = theta(sampled, h).value
            assert approx >= exact - 1e-9
            assert approx <= previous + 1e-9  # nested samples only improve
            previous = approx
