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
    ZetaBall,
    discretize_structured_class,
    make_space,
    symmetrize_class,
    theta,
)
from ipmdro.core import lipschitz_constant, metric_is_path
from ipmdro.errors import (
    AsymmetricMetric,
    DimensionMismatch,
    GraphDisconnected,
    HomogeneityViolated,
    SelfLoop,
    SingularGram,
    TriangleInequalityViolated,
    UnsupportedVariant,
    ZeroMassMu,
)
from oracles import sign_vectors


def index_metric(n):
    idx = np.arange(n, dtype=float)
    return np.abs(idx[:, None] - idx[None, :])


class TestMakeSpace:
    def test_path_metric(self):
        space = make_space(["a", "b", "c"], metric=index_metric(3))
        assert space.n == 3
        assert metric_is_path(space)

    def test_triangle_violation(self):
        metric = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(TriangleInequalityViolated):
            make_space(["a", "b", "c"], metric=metric)

    def test_sin_grid_space(self):
        t = np.linspace(-4.0, 4.0, 201)
        metric = np.abs(t[:, None] - t[None, :])
        space = make_space([f"{x:.2f}" for x in t], metric=metric)
        assert space.n == 201
        assert metric_is_path(space)

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            make_space(["a", "b"], graph=((0, 0, 1.0),))


class TestConstructorFuzz:
    def test_invalid_perturbations_rejected(self):
        rng = np.random.default_rng(11)
        space = make_space(["a", "b", "c", "d"], metric=index_metric(4))
        rejected = 0
        total = 1000
        for k in range(total):
            kind = k % 8
            try:
                if kind == 0:  # negative weight
                    w = rng.dirichlet(np.ones(4))
                    i = int(rng.integers(4))
                    w[i] -= 1.5 * w[i] + 0.01
                    DiscreteDistribution(space, w)
                elif kind == 1:  # bad sum
                    w = rng.dirichlet(np.ones(4)) * float(rng.uniform(1.01, 2.0))
                    DiscreteDistribution(space, w)
                elif kind == 2:  # non-finite function
                    v = rng.standard_normal(4)
                    v[int(rng.integers(4))] = np.inf
                    FunctionVec(space, v)
                elif kind == 3:  # asymmetric metric
                    m = index_metric(4)
                    m[0, 1] += float(rng.uniform(0.1, 1.0))
                    make_space(space.points, metric=m)
                elif kind == 4:  # triangle violation
                    m = index_metric(4)
                    m[0, 3] = m[3, 0] = 100.0 + float(rng.uniform(0, 1))
                    make_space(space.points, metric=m)
                elif kind == 5:  # self loop
                    i = int(rng.integers(4))
                    make_space(space.points, graph=((i, i, 1.0),))
                elif kind == 6:  # singular gram
                    a = rng.standard_normal((4, 2))
                    RkhsBall(space, gram=a @ a.T)
                else:  # zero-mass mu without the opt-in
                    w = rng.dirichlet(np.ones(4))
                    w[int(rng.integers(4))] = 0.0
                    w /= w.sum()
                    FisherBall(space, mu=DiscreteDistribution(space, w))
            except (
                ValueError,
                AsymmetricMetric,
                DimensionMismatch,
                TriangleInequalityViolated,
                SelfLoop,
                SingularGram,
                ZeroMassMu,
            ):
                rejected += 1
        assert rejected == total

    def test_shape_mismatches(self):
        space = make_space(["a", "b", "c"])
        with pytest.raises(DimensionMismatch):
            DiscreteDistribution(space, np.array([0.5, 0.5]))
        with pytest.raises(DimensionMismatch):
            FunctionVec(space, np.zeros(4))
        with pytest.raises(DimensionMismatch):
            make_space(["a"], metric=np.zeros((2, 2)))


class TestImmutability:
    def test_arrays_read_only(self):
        space = make_space(["a", "b"], metric=index_metric(2))
        dist = DiscreteDistribution.uniform(space)
        fn = FunctionVec(space, [1.0, 2.0])
        for arr in (space.metric, dist.weights, fn.values):
            with pytest.raises(ValueError):
                arr[0] = 99.0


class TestSymmetrize:
    def test_adds_negations(self):
        space = make_space(["a", "b", "c"])
        cls = Explicit(space, (FunctionVec(space, [1.0, 0.0, 0.0]),))
        result = symmetrize_class(cls)
        assert not result.already_even
        values = {tuple(f.values) for f in result.function_class.functions}
        assert values == {(1.0, 0.0, 0.0), (-1.0, -0.0, -0.0)}

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        space = make_space(["a", "b", "c", "d"])
        fns = tuple(FunctionVec(space, rng.uniform(-1, 1, 4)) for _ in range(3))
        once = symmetrize_class(Explicit(space, fns)).function_class
        twice_result = symmetrize_class(once)
        assert twice_result.already_even
        first = {f.values.tobytes() for f in once.functions}
        second = {f.values.tobytes() for f in twice_result.function_class.functions}
        assert first == second

    def test_even_detection_with_zero_entries(self):
        # negation flips 0.0 to -0.0; membership keys must not distinguish them
        space = make_space(["a", "b", "c"])
        pair = Explicit(
            space,
            (FunctionVec(space, [1.0, 0.0, 0.0]), FunctionVec(space, [-1.0, 0.0, 0.0])),
        )
        result = symmetrize_class(pair)
        assert result.already_even
        assert result.function_class.size == 2

    def test_structured_ball_flagged_even(self):
        space = make_space(["a", "b"])
        result = symmetrize_class(SupNormBall(space))
        assert result.already_even
        assert result.function_class is not None

    def test_zeta_unsupported(self):
        space = make_space(["a", "b"])
        ball = ZetaBall(space, zeta=lambda v: float(np.abs(v).sum()), degree=1.0)
        with pytest.raises(UnsupportedVariant):
            symmetrize_class(ball)


class TestZetaBall:
    def test_homogeneity_violation_rejected(self):
        space = make_space(["a", "b", "c"])
        with pytest.raises(HomogeneityViolated):
            ZetaBall(space, zeta=lambda v: float(np.abs(v).sum() + 1.0), degree=1.0)

    def test_valid_quadratic_penalty(self):
        space = make_space(["a", "b", "c"])
        ball = ZetaBall(space, zeta=lambda v: float(v @ v), degree=2.0, convex=True)
        assert ball.degree == 2.0


class TestSobolevConstruction:
    def test_disconnected_graph_rejected(self):
        space = make_space(["a", "b", "c"], graph=((0, 1, 1.0),))
        mu = DiscreteDistribution.uniform(space)
        with pytest.raises(GraphDisconnected):
            SobolevBall(space, mu=mu)


class TestDiscretize:
    def test_supnorm_sign_vectors_give_l1(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            space = make_space([str(i) for i in range(n)])
            cls = discretize_structured_class(SupNormBall(space), 2 * n, seed=0)
            # point-mass Q against random P: single positive coordinate in q - p
            p = rng.dirichlet(np.ones(n))
            q = np.zeros(n)
            q[int(rng.integers(n))] = 1.0
            delta = q - p
            got = float(np.max(cls.matrix @ delta))
            oracle = float(np.max(sign_vectors(n) @ delta))
            assert got == pytest.approx(oracle, abs=1e-12)
            assert got == pytest.approx(np.abs(delta).sum(), abs=1e-12)

    def test_fisher_boundary_normalization(self):
        space = make_space([str(i) for i in range(5)])
        mu = DiscreteDistribution.uniform(space)
        cls = discretize_structured_class(FisherBall(space, mu=mu), 12, seed=3)
        for f in cls.functions:
            assert float(mu.weights @ f.values**2) == pytest.approx(1.0, abs=1e-9)

    def test_lipschitz_boundary_normalization(self):
        space = make_space(["a", "b", "c"], metric=index_metric(3))
        cls = discretize_structured_class(LipschitzBall(space), 8, seed=4)
        for f in cls.functions:
            assert lipschitz_constant(space, f.values) == pytest.approx(1.0, abs=1e-9)

    def test_membership_all_variants(self):
        rng = np.random.default_rng(7)
        n = 4
        space = make_space([str(i) for i in range(n)], metric=index_metric(n))
        graph_space = make_space(
            [str(i) for i in range(n)],
            graph=tuple((i, i + 1, 1.0) for i in range(n - 1)),
        )
        mu = DiscreteDistribution.uniform(space)
        gmu = DiscreteDistribution.uniform(graph_space)
        gram = np.eye(n) + 0.3 * np.ones((n, n))
        classes = [
            SupNormBall(space),
            LipschitzBall(space),
            DudleyBall(space),
            FisherBall(space, mu=mu),
            RkhsBall(space, gram=gram),
            SobolevBall(graph_space, mu=gmu),
            ZetaBall(space, zeta=lambda v: float(np.abs(v).max() ** 2), degree=2.0),
        ]
        for cls in classes:
            sample = discretize_structured_class(cls, 9, seed=int(rng.integers(100)))
            for f in sample.functions:
                assert theta(cls, f).value <= 1.0 + 1e-9

    def test_nested_budgets_are_prefixes(self):
        space = make_space([str(i) for i in range(4)])
        mu = DiscreteDistribution.uniform(space)
        small = discretize_structured_class(FisherBall(space, mu=mu), 6, seed=9)
        large = discretize_structured_class(FisherBall(space, mu=mu), 12, seed=9)
        for f_small, f_large in zip(small.functions, large.functions):
            assert np.array_equal(f_small.values, f_large.values)

    def test_explicit_rejected(self):
        space = make_space(["a", "b"])
        cls = Explicit(space, (FunctionVec(space, [1.0, 0.0]),))
        with pytest.raises(UnsupportedVariant):
            discretize_structured_class(cls, 4, seed=0)

    def test_budget_too_small(self):
        space = make_space(["a", "b"])
        with pytest.raises(ValueError):
            discretize_structured_class(SupNormBall(space), 1, seed=0)
