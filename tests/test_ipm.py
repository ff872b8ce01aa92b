import numpy as np
import pytest

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
    discretize_structured_class,
    ipm_distance,
    make_space,
)
from ipmdro.core import lipschitz_pairs, sobolev_matrix
from ipmdro.solvers import FREE, lp_problem, solve_lp
from fleet import (
    even_explicit_class,
    line_space,
    path_graph_space,
    random_distribution,
)


def all_even_classes(rng, n):
    space = line_space(rng, n)
    graph_space = path_graph_space(n)
    mu = DiscreteDistribution.uniform(space)
    gmu = DiscreteDistribution.uniform(graph_space)
    a = rng.standard_normal((n, n))
    return [
        (space, even_explicit_class(rng, space, 2)),
        (space, SupNormBall(space)),
        (space, LipschitzBall(space)),
        (space, DudleyBall(space)),
        (space, RkhsBall(space, gram=a @ a.T + 0.5 * np.eye(n))),
        (space, FisherBall(space, mu=mu)),
        (graph_space, SobolevBall(graph_space, mu=gmu)),
    ]


class TestIpmDistance:
    def test_identical_distributions(self):
        rng = np.random.default_rng(0)
        for space, cls in all_even_classes(rng, 4):
            P = random_distribution(rng, space)
            assert ipm_distance(cls, P, P).value == pytest.approx(0.0, abs=1e-9)

    def test_supnorm_is_l1(self):
        space = make_space(["a", "b", "c"])
        Q = DiscreteDistribution(space, [0.0, 0.0, 1.0])
        P = DiscreteDistribution.uniform(space)
        assert ipm_distance(SupNormBall(space), Q, P).value == pytest.approx(
            4.0 / 3.0, abs=1e-12
        )

    def test_constant_class_sees_nothing(self):
        space = make_space(["a", "b", "c"])
        cls = Explicit(space, (FunctionVec(space, np.full(3, 4.0)),))
        rng = np.random.default_rng(1)
        for _ in range(10):
            Q = random_distribution(rng, space)
            P = random_distribution(rng, space)
            assert ipm_distance(cls, Q, P).value == pytest.approx(0.0, abs=1e-12)

    def test_one_sided_value_can_be_negative(self):
        space = make_space(["a", "b"])
        cls = Explicit(space, (FunctionVec(space, [1.0, 0.0]),))
        Q = DiscreteDistribution(space, [0.0, 1.0])
        P = DiscreteDistribution(space, [1.0, 0.0])
        assert ipm_distance(cls, Q, P).value == pytest.approx(-1.0, abs=1e-12)

    def test_explicit_witness_attains_value(self):
        rng = np.random.default_rng(2)
        space = make_space([str(i) for i in range(5)])
        cls = even_explicit_class(rng, space, 3)
        Q = random_distribution(rng, space)
        P = random_distribution(rng, space)
        got = ipm_distance(cls, Q, P)
        gap = float(got.witness.values @ (Q.weights - P.weights))
        assert gap == pytest.approx(got.value, abs=1e-12)


class TestTransport:
    def test_matches_function_side_lp(self):
        # coupling value == sup over one-Lipschitz functions of the mean gap
        rng = np.random.default_rng(3)
        for n in (3, 6, 12):
            space = line_space(rng, n)
            Q = random_distribution(rng, space)
            P = random_distribution(rng, space)
            primal = ipm_distance(LipschitzBall(space), Q, P).value
            nv = n
            rows, rhs = [], []
            for i, j, cost in zip(*lipschitz_pairs(space)):
                row = np.zeros(nv)
                row[i] = 1.0
                row[j] = -1.0
                rows.append(row)
                rhs.append(cost)
                rows.append(-row)
                rhs.append(cost)
            sol = solve_lp(
                lp_problem(
                    Q.weights - P.weights,
                    ub=(np.array(rows), np.array(rhs)),
                    bounds=[FREE] * nv,
                )
            )
            assert primal == pytest.approx(sol.value, abs=1e-7)

    def test_witness_is_in_the_ball_and_attains_the_value(self):
        rng = np.random.default_rng(4)
        space = line_space(rng, 5)
        Q = random_distribution(rng, space)
        P = random_distribution(rng, space)
        cls = LipschitzBall(space)
        got = ipm_distance(cls, Q, P)
        assert isinstance(got.witness, FunctionVec)
        assert cls.gauge(got.witness).value <= 1.0 + 1e-9
        gap = float(got.witness.values @ (Q.weights - P.weights))
        assert gap == pytest.approx(got.value, abs=1e-9)

    def test_line_beyond_sixty_points_matches_cdf_formula(self):
        # on a line W1 = sum of gaps * |F_Q - F_P|
        n = 61
        rng = np.random.default_rng(12)
        t = np.linspace(0.0, 1.0, n)
        space = make_space([str(i) for i in range(n)], metric=np.abs(t[:, None] - t[None, :]))
        Q = random_distribution(rng, space)
        P = random_distribution(rng, space)
        cdf_gap = np.cumsum(Q.weights - P.weights)[:-1]
        expected = float(np.diff(t) @ np.abs(cdf_gap))
        assert ipm_distance(LipschitzBall(space), Q, P).value == pytest.approx(
            expected, abs=1e-12
        )


class TestQuadraticDistances:
    def test_rkhs_quadratic_form(self):
        rng = np.random.default_rng(5)
        n = 4
        space = make_space([str(i) for i in range(n)])
        a = rng.standard_normal((n, n))
        gram = a @ a.T + 0.5 * np.eye(n)
        cls = RkhsBall(space, gram=gram)
        Q = random_distribution(rng, space)
        P = random_distribution(rng, space)
        delta = Q.weights - P.weights
        expected = float(np.sqrt(delta @ gram @ delta))
        got = ipm_distance(cls, Q, P)
        assert got.value == pytest.approx(expected, abs=1e-12)
        # witness is a unit-norm function attaining the value
        w = got.witness.values
        assert float(w @ np.linalg.solve(gram, w)) == pytest.approx(1.0, abs=1e-9)
        assert float(w @ delta) == pytest.approx(expected, abs=1e-9)

    def test_fisher_chi_square_midpoint(self):
        # with mu the midpoint of P and Q the squared distance is the
        # symmetric chi-square-style sum 2 (q-p)^2 / (q+p)
        rng = np.random.default_rng(6)
        space = make_space([str(i) for i in range(4)])
        Q = random_distribution(rng, space)
        P = random_distribution(rng, space)
        mu = DiscreteDistribution(space, 0.5 * (Q.weights + P.weights))
        cls = FisherBall(space, mu=mu)
        got = ipm_distance(cls, Q, P).value
        expected = np.sqrt(
            np.sum(2.0 * (Q.weights - P.weights) ** 2 / (Q.weights + P.weights))
        )
        assert got == pytest.approx(float(expected), abs=1e-12)

    def test_fisher_zero_mass_semantics(self):
        space = make_space(["a", "b", "c"])
        mu = DiscreteDistribution(space, [0.5, 0.5, 0.0])
        cls = FisherBall(space, mu=mu, allow_zero_mass=True)
        P = DiscreteDistribution(space, [0.5, 0.5, 0.0])
        Q_on = DiscreteDistribution(space, [0.25, 0.75, 0.0])
        Q_off = DiscreteDistribution(space, [0.25, 0.5, 0.25])
        assert np.isfinite(ipm_distance(cls, Q_on, P).value)
        assert ipm_distance(cls, Q_off, P).value == np.inf

    def test_fisher_off_support_threshold(self):
        # mass off the support up to 1e-15 is rounding; more is infinite
        space = make_space(["a", "b", "c"])
        mu = DiscreteDistribution(space, [0.5, 0.5, 0.0])
        cls = FisherBall(space, mu=mu, allow_zero_mass=True)
        P = DiscreteDistribution(space, [0.5, 0.5, 0.0])
        for off, finite in ((5e-16, True), (2e-15, False)):
            Q = DiscreteDistribution(space, [0.5, 0.5 - off, off])
            assert np.isfinite(ipm_distance(cls, Q, P).value) == finite

    def test_sobolev_pseudoinverse_form(self):
        rng = np.random.default_rng(7)
        n = 5
        space = path_graph_space(n)
        mu = DiscreteDistribution.uniform(space)
        cls = SobolevBall(space, mu=mu)
        Q = random_distribution(rng, space)
        P = random_distribution(rng, space)
        delta = Q.weights - P.weights
        pinv = np.linalg.pinv(sobolev_matrix(space, mu), hermitian=True)
        assert ipm_distance(cls, Q, P).value == pytest.approx(
            float(np.sqrt(delta @ pinv @ delta)), abs=1e-9
        )


class TestIpmProperties:
    def test_convex_hull_invariance(self):
        rng = np.random.default_rng(8)
        space = make_space([str(i) for i in range(4)])
        cls = even_explicit_class(rng, space, 3, with_units=False)
        mixed = list(cls.functions)
        for _ in range(20):
            w = rng.dirichlet(np.ones(cls.size))
            mixed.append(FunctionVec(space, w @ cls.matrix))
        bigger = Explicit(space, tuple(mixed))
        for _ in range(100):
            Q = random_distribution(rng, space)
            P = random_distribution(rng, space)
            d1 = ipm_distance(cls, Q, P).value
            d2 = ipm_distance(bigger, Q, P).value
            assert abs(d1 - d2) <= 1e-10

    def test_symmetry_and_nonnegativity_for_even_classes(self):
        rng = np.random.default_rng(9)
        for space, cls in all_even_classes(rng, 4):
            for _ in range(5):
                Q = random_distribution(rng, space)
                P = random_distribution(rng, space)
                forward = ipm_distance(cls, Q, P).value
                assert forward >= -1e-9
                assert forward == pytest.approx(
                    ipm_distance(cls, P, Q).value, abs=1e-8
                )

    def test_triangle_inequality_for_even_classes(self):
        rng = np.random.default_rng(10)
        for space, cls in all_even_classes(rng, 4):
            for _ in range(8):
                A = random_distribution(rng, space)
                B = random_distribution(rng, space)
                C = random_distribution(rng, space)
                dab = ipm_distance(cls, A, B).value
                dbc = ipm_distance(cls, B, C).value
                dac = ipm_distance(cls, A, C).value
                assert dab + dbc - dac >= -1e-8

    def test_subset_monotone_in_budget(self):
        rng = np.random.default_rng(11)
        space = line_space(rng, 4)
        cls = DudleyBall(space)
        Q = random_distribution(rng, space)
        P = random_distribution(rng, space)
        full = ipm_distance(cls, Q, P).value
        previous = -np.inf
        for budget in (4, 16, 64, 256):
            sampled = discretize_structured_class(cls, budget, seed=21)
            approx = ipm_distance(sampled, Q, P).value
            assert approx <= full + 1e-9
            assert approx >= previous - 1e-12
            previous = approx
