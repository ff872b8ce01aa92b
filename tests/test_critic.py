import numpy as np
import pytest

from ipmdro import (
    DiscreteDistribution,
    Explicit,
    FisherBall,
    FunctionVec,
    SupNormBall,
    check_alignment,
    critic_infimum,
    critic_loss,
    ipm_distance,
    make_space,
    theta,
    two_sided_check,
    worst_case_expectation,
)
from ipmdro.errors import NotAligned, NotEven
from fleet import aligned_instance, even_explicit_class, misaligned_instance, random_distribution


def delta_instance():
    space = make_space(["a", "b", "c"])
    P = DiscreteDistribution(space, [1.0, 0.0, 0.0])
    mu = DiscreteDistribution(space, [0.5, 0.0, 0.5])
    h = FunctionVec(space, [-1.0, 0.0, 1.0])
    return space, P, mu, h


class TestCriticLoss:
    def test_zero_function(self):
        space, P, mu, _ = delta_instance()
        h0 = FunctionVec(space, np.zeros(3))
        assert critic_loss(P, mu, 1.0, SupNormBall(space), h0) == 0.0

    def test_boundary_minimizer(self):
        space, P, mu, h = delta_instance()
        assert critic_loss(P, mu, 1.0, SupNormBall(space), h) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_unbounded_regime(self):
        space, P, mu, h = delta_instance()
        cls = SupNormBall(space)
        assert critic_loss(P, mu, 0.5, cls, h) == pytest.approx(-0.5, abs=1e-12)
        report = critic_infimum(P, mu, 0.5, cls)
        assert not report.bounded
        assert report.value == -np.inf
        ray = report.certificate
        base = critic_loss(P, mu, 0.5, cls, ray)
        scaled = critic_loss(
            P, mu, 0.5, cls, FunctionVec(space, 10.0 * ray.values)
        )
        assert scaled == pytest.approx(10.0 * base, abs=1e-9)
        assert base < 0.0

    def test_infinite_quadratic_distance_is_certified(self):
        """The model puts mass where the Fisher mu has none, so the distance
        is infinite; the certificate is the null-space part of mu - P, a ray
        of gauge 0 along which the loss falls."""
        space = make_space(["a", "b", "c"])
        cls = FisherBall(space, mu=DiscreteDistribution(space, [0.5, 0.5, 0.0]),
                         allow_zero_mass=True)
        P = DiscreteDistribution(space, [0.4, 0.4, 0.2])
        model = DiscreteDistribution(space, [0.2, 0.2, 0.6])
        report = critic_infimum(P, model, 0.3, cls)
        assert not report.bounded and report.value == -np.inf
        ray = report.certificate
        assert theta(cls, ray).value == 0.0
        assert critic_loss(P, model, 0.3, cls, ray) == pytest.approx(-0.16, abs=1e-12)

    def test_bounded_regime_nonnegative(self):
        rng = np.random.default_rng(0)
        space = make_space([str(i) for i in range(4)])
        cls = even_explicit_class(rng, space, 2)
        P = random_distribution(rng, space)
        eps = 0.6
        # mu inside the one-sided ball
        mu = worst_case_expectation(P, cls, eps, FunctionVec(space, rng.uniform(-1, 1, 4))).worst_q
        assert ipm_distance(cls, mu, P).value <= eps + 1e-7
        report = critic_infimum(P, mu, eps, cls)
        assert report.bounded and report.value == 0.0
        for _ in range(50):
            h = FunctionVec(space, rng.uniform(-2, 2, 4))
            assert critic_loss(P, mu, eps, cls, h) >= -1e-8

    def test_degenerate_reference_prefers_flat_functions(self):
        space = make_space(["a", "b", "c"])
        P = DiscreteDistribution.uniform(space)
        cls = SupNormBall(space)
        for c in (0.0, 0.5, -2.0):
            h = FunctionVec(space, np.full(3, c))
            loss = critic_loss(P, P, 1.0, cls, h)
            assert loss == pytest.approx(abs(c), abs=1e-12)
            assert loss >= 0.0


class TestCheckAlignment:
    def test_delta_instance_aligned(self):
        space, P, mu, h = delta_instance()
        report = check_alignment(P, SupNormBall(space), 1.0, h)
        assert report.aligned
        assert report.lambda_value == pytest.approx(1.0, abs=1e-9)
        assert report.eps_theta == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(report.witness_mu.weights, mu.weights, atol=1e-7)
        gap = float((report.witness_mu.weights - P.weights) @ h.values)
        assert gap == pytest.approx(report.eps_theta, abs=1e-6)
        assert report.witness_residual <= 1e-6

    def test_infinite_gauge_misaligned(self):
        """h outside the cone of the class: eps * gauge is infinite, so h is
        not aligned and no worst case is solved for a witness."""
        space = make_space(["a", "b", "c"])
        e_a, e_b = (FunctionVec(space, row) for row in np.eye(3)[:2])
        P = DiscreteDistribution.uniform(space)
        report = check_alignment(P, Explicit(space, (e_a, e_a.negated())), 0.5, e_b)
        assert report.eps_theta == np.inf and report.gap == np.inf
        assert np.isfinite(report.lambda_value)
        assert not report.aligned
        assert report.witness_mu is None and report.witness_residual is None

    def test_nonzero_constant_misaligned(self):
        space = make_space(["a", "b", "c"])
        P = DiscreteDistribution.uniform(space)
        cls = SupNormBall(space)
        eps = 0.7
        c = 1.3
        report = check_alignment(P, cls, eps, FunctionVec(space, np.full(3, c)))
        assert not report.aligned
        assert report.gap == pytest.approx(eps * c, abs=1e-9)
        assert report.witness_mu is None

    def test_fisher_boundary_witness(self):
        rng = np.random.default_rng(1)
        n = 5
        space = make_space([str(i) for i in range(n)])
        m = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        m /= m.sum()
        mu_base = DiscreteDistribution(space, m)
        cls = FisherBall(space, mu=mu_base)
        P = DiscreteDistribution(space, rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n)
        raw = rng.uniform(-1, 1, n)
        centered = raw - float(m @ raw)  # mean-zero under the class measure
        direction = m * centered / np.sqrt(float(m @ centered**2))
        eps_cap = min(
            float(P.weights[i] / -direction[i])
            for i in range(n)
            if direction[i] < 0
        )
        eps = 0.5 * min(eps_cap, 0.5)
        h = FunctionVec(space, centered)
        witness = DiscreteDistribution(space, P.weights + eps * direction)
        assert ipm_distance(cls, witness, P).value == pytest.approx(eps, abs=1e-9)
        expected = eps * theta(cls, h).value
        gap = float((witness.weights - P.weights) @ h.values)
        assert gap == pytest.approx(expected, abs=1e-9)
        report = check_alignment(P, cls, eps, h)
        assert report.aligned
        assert abs(report.lambda_value - report.eps_theta) <= 1e-6

    def test_sufficiency_fleet(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            P, cls, eps, h, mu = aligned_instance(rng, int(rng.integers(3, 6)))
            report = check_alignment(P, cls, eps, h)
            assert report.aligned
            assert abs(report.lambda_value - report.eps_theta) <= 1e-6
            assert report.witness_residual <= 1e-6

    def test_necessity_fleet(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            P, cls, eps, h = misaligned_instance(rng, int(rng.integers(3, 6)))
            report = check_alignment(P, cls, eps, h)
            assert not report.aligned
            assert report.gap > 1e-4
            # the witness LP tops out strictly below eps * gauge
            witness_opt = (
                worst_case_expectation(P, cls, eps, h).value
                - float(P.weights @ h.values)
            )
            assert witness_opt < report.eps_theta - 1e-6


class TestTwoSided:
    def test_delta_instance_displays(self):
        space, P_minus, P_plus, h = delta_instance()
        report = two_sided_check(P_minus, P_plus, SupNormBall(space), 1.0, h)
        assert report.residual <= 1e-6
        assert report.inf_value == pytest.approx(-1.0, abs=1e-9)
        assert report.sup_value == pytest.approx(0.0, abs=1e-9)

    def test_zero_function(self):
        space, P_minus, P_plus, _ = delta_instance()
        h0 = FunctionVec(space, np.zeros(3))
        report = two_sided_check(P_minus, P_plus, SupNormBall(space), 1.0, h0)
        assert report.residual <= 1e-9
        assert report.inf_value == pytest.approx(0.0, abs=1e-9)
        assert report.sup_value == pytest.approx(0.0, abs=1e-9)

    def test_randomized_aligned_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            P, cls, eps, h, mu = aligned_instance(rng, int(rng.integers(3, 7)))
            report = two_sided_check(P, mu, cls, eps, h)
            assert report.residual <= 1e-6

    def test_each_worst_case_solved_once(self, monkeypatch):
        # the P_minus side is read off check_alignment's witness, not re-solved
        rng = np.random.default_rng(6)
        P, cls, eps, h, mu = aligned_instance(rng, 4)
        solves = []
        real = type(cls).worst_case

        def counted(self, *args, **kwargs):
            solves.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(type(cls), "worst_case", counted)
        report = two_sided_check(P, mu, cls, eps, h)
        assert report.residual <= 1e-6
        assert len(solves) == 2

    def test_not_even_rejected(self):
        space = make_space(["a", "b"])
        lopsided = Explicit(space, (FunctionVec(space, [1.0, 0.0]),))
        P = DiscreteDistribution.uniform(space)
        with pytest.raises(NotEven):
            two_sided_check(P, P, lopsided, 0.5, FunctionVec(space, [1.0, 0.0]))

    def test_not_aligned_rejected(self):
        space = make_space(["a", "b", "c"])
        P = DiscreteDistribution.uniform(space)
        cls = SupNormBall(space)
        bad = FunctionVec(space, np.full(3, 2.0))  # constant: gap eps*|c|
        with pytest.raises(NotAligned):
            two_sided_check(P, P, cls, 0.5, bad)

    def test_wrong_witness_rejected(self):
        rng = np.random.default_rng(5)
        P, cls, eps, h, mu = aligned_instance(rng, 4)
        off_ball = worst_case_expectation(
            P, cls, 10.0 * eps + 1.0, h
        ).worst_q  # far outside the eps-ball in general
        if ipm_distance(cls, off_ball, P).value > eps + 1e-6:
            with pytest.raises(NotAligned):
                two_sided_check(P, off_ball, cls, eps, h)
