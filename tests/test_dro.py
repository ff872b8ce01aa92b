import dataclasses
import re

import numpy as np
import pytest

from ipmdro import (
    DiscreteDistribution,
    DroMethod,
    DudleyBall,
    Explicit,
    FisherBall,
    FunctionVec,
    LipschitzBall,
    RkhsBall,
    SobolevBall,
    SupNormBall,
    corollary_bound,
    discretize_structured_class,
    ipm_distance,
    j_penalty,
    lambda_penalty,
    make_space,
    tightness_report,
    verify_identity,
    worst_case_expectation,
)
from ipmdro import cli
from ipmdro.balls import _QuadraticBall
from ipmdro.errors import EpsNegative, EpsNonPositive, UnsupportedVariant
from ipmdro.solvers import IDENTITY_ITERATIVE
from fleet import (
    even_explicit_class,
    line_space,
    quadratic_class,
    random_distribution,
    sobolev_instance,
)
from oracles import (
    greedy_l1_worst_case,
    grid_worst_case_explicit,
    grid_worst_case_l1,
    grid_worst_case_quadratic,
)


def unit_space(n):
    return make_space([str(i) for i in range(n)])


class TestWorstCaseExpectation:
    def test_collapsed_ball_is_reference_expectation(self):
        rng = np.random.default_rng(0)
        space = unit_space(4)
        cls = even_explicit_class(rng, space, 2)  # contains +-unit vectors
        P = random_distribution(rng, space)
        h = FunctionVec(space, rng.uniform(-1, 1, 4))
        result = worst_case_expectation(P, cls, 0.0, h)
        assert result.value == pytest.approx(float(P.weights @ h.values), abs=1e-9)
        assert np.allclose(result.worst_q.weights, P.weights, atol=1e-7)

    def test_tv_fixture_against_greedy_oracle(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        cls = SupNormBall(space)
        for eps, frozen in ((0.3, 1.3), (1.0, 11.0 / 6.0)):
            result = worst_case_expectation(P, cls, eps, h)
            assert result.value == pytest.approx(
                greedy_l1_worst_case(h.values, P.weights, eps), abs=1e-9
            )
            assert result.value == pytest.approx(frozen, abs=1e-9)
            assert result.method == DroMethod.TRANSPORT_DUAL

    def test_worst_q_stays_in_ball(self):
        rng = np.random.default_rng(1)
        space = line_space(rng, 5)
        P = random_distribution(rng, space)
        h = FunctionVec(space, rng.uniform(-1, 1, 5))
        classes = [
            even_explicit_class(rng, space, 2),
            SupNormBall(space),
            LipschitzBall(space),
            DudleyBall(space),
            quadratic_class(rng, space, "fisher"),
            quadratic_class(rng, space, "rkhs"),
        ]
        for cls in classes:
            for eps in (0.05, 0.3, 1.0):
                result = worst_case_expectation(P, cls, eps, h)
                d = ipm_distance(cls, result.worst_q, P).value
                assert d <= eps + 1e-7

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(2)
        space = line_space(rng, 4)
        P = random_distribution(rng, space)
        h = FunctionVec(space, rng.uniform(-1, 1, 4))
        for cls in (SupNormBall(space), quadratic_class(rng, space, "fisher")):
            previous = -np.inf
            for eps in np.linspace(0.0, 2.0, 20):
                value = worst_case_expectation(P, cls, float(eps), h).value
                assert value >= previous - 1e-9
                previous = value

    def test_smaller_class_gives_larger_ball(self):
        rng = np.random.default_rng(3)
        space = line_space(rng, 4)
        cls = DudleyBall(space)
        P = random_distribution(rng, space)
        h = FunctionVec(space, rng.uniform(-1, 1, 4))
        eps = 0.4
        full = worst_case_expectation(P, cls, eps, h).value
        for budget in (4, 16, 64):
            subset = discretize_structured_class(cls, budget, seed=5)
            sub_value = worst_case_expectation(P, subset, eps, h).value
            assert sub_value >= full - 1e-7

    def test_negative_radius_rejected(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        with pytest.raises(EpsNegative):
            worst_case_expectation(P, SupNormBall(space), -0.1, h)

    def test_grid_enumeration_cross_check(self):
        rng = np.random.default_rng(4)
        space = unit_space(3)
        P = DiscreteDistribution(space, rng.dirichlet(np.ones(3)))
        h = FunctionVec(space, rng.uniform(-1, 1, 3))
        eps = 0.4
        explicit = even_explicit_class(rng, space, 2)
        got = worst_case_expectation(P, explicit, eps, h).value
        ref = grid_worst_case_explicit(h.values, P.weights, explicit.matrix, eps)
        assert abs(got - ref) <= 2e-3
        got = worst_case_expectation(P, SupNormBall(space), eps, h).value
        assert abs(got - grid_worst_case_l1(h.values, P.weights, eps)) <= 2e-3
        fisher = quadratic_class(rng, space, "fisher")
        got = worst_case_expectation(P, fisher, eps, h).value
        mat = np.diag(1.0 / fisher.mu.weights)
        assert abs(got - grid_worst_case_quadratic(h.values, P.weights, mat, eps)) <= 2e-3


    def test_value_is_within_rounding_of_the_worst_q_expectation(self):
        """The explicit and transport paths take the value from the solver's
        q, before worst_q clips and renormalizes it, so E_{worst_q}[h] may
        differ in its last bits: by at most the rounding of an n-term sum.
        On the first instance the two differ in the last bit."""
        space = unit_space(3)
        uniform = DiscreteDistribution(space, np.full(3, 1.0 / 3.0))
        cases = [(uniform, SupNormBall(space), 0.3, FunctionVec(space, [0.0, 1.0, 3.0]))]
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(3, 12))
            space = line_space(rng, n)
            P = random_distribution(rng, space)
            h = FunctionVec(space, rng.uniform(-5.0, 5.0, n))
            for cls in (SupNormBall(space), LipschitzBall(space), DudleyBall(space),
                        even_explicit_class(rng, space, 3)):
                cases.append((P, cls, float(rng.uniform(0.05, 2.0)), h))
        for P, cls, eps, h in cases:
            result = worst_case_expectation(P, cls, eps, h)
            gap = abs(result.value - float(result.worst_q.weights @ h.values))
            assert gap <= 2 * h.values.size * np.spacing(np.abs(h.values).max())


class TestVerifyIdentity:
    def test_explicit_even_fleet(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            space = unit_space(n)
            cls = even_explicit_class(rng, space, int(rng.integers(1, 4)))
            P = random_distribution(rng, space)
            h = FunctionVec(space, rng.uniform(-1, 1, n))
            eps = float(rng.uniform(0.05, 2.0))
            report = verify_identity(P, cls, eps, h)
            assert report.exact
            assert report.residual <= 1e-6

    def test_constant_function(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, np.full(3, 2.0))
        report = verify_identity(P, SupNormBall(space), 0.5, h)
        assert report.residual <= 1e-9
        assert report.lhs == pytest.approx(2.0, abs=1e-9)

    def test_constants_only_class_gives_peak(self):
        space = unit_space(3)
        cls = Explicit(space, (FunctionVec(space, np.ones(3)), FunctionVec(space, -np.ones(3))))
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        report = verify_identity(P, cls, 0.3, h)
        # the ball is everything: lhs = max h, penalty = peak over mean
        assert report.lhs == pytest.approx(2.0, abs=1e-9)
        assert report.lambda_value == pytest.approx(
            j_penalty(P, h).value, abs=1e-9
        )

    def test_quadratic_fleet(self):
        rng = np.random.default_rng(6)
        for kind in ("fisher", "rkhs", "sobolev"):
            for _ in range(3):
                n = int(rng.integers(3, 7))
                if kind == "sobolev":
                    space, cls = sobolev_instance(rng, n)
                else:
                    space = unit_space(n)
                    cls = quadratic_class(rng, space, kind)
                P = random_distribution(rng, space)
                h = FunctionVec(space, rng.uniform(-1, 1, n))
                eps = float(rng.uniform(0.05, 1.0))
                report = verify_identity(P, cls, eps, h)
                assert not report.exact
                assert report.residual <= 5e-4

    def test_ill_conditioned_gram_keeps_every_direction(self):
        # min eigenvalue 5.6e-10 passes the Gram check, but a relative 1e-10
        # cutoff on the spectrum of K^-1 would drop K's top eigendirection
        t = np.linspace(0.0, 1.0, 8)
        space = make_space([str(x) for x in t], metric=np.abs(t[:, None] - t[None, :]))
        cls = RkhsBall(space, gram=cli.gaussian_gram(space, 0.67))
        P = DiscreteDistribution.uniform(space)
        report = verify_identity(P, cls, 0.1, FunctionVec(space, np.sin(6.0 * t)))
        assert report.residual <= IDENTITY_ITERATIVE

    def test_eps_zero_rejected(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        with pytest.raises(EpsNonPositive):
            verify_identity(P, SupNormBall(space), 0.0, h)

    def test_inflated_quadratic_worst_case_shows_in_the_residual(self, monkeypatch):
        # the penalty must not stop early on the worst case's value
        real = _QuadraticBall.worst_case

        def inflated(self, *args, **kwargs):
            result = real(self, *args, **kwargs)
            return dataclasses.replace(result, value=result.value + 1e-3)

        monkeypatch.setattr(_QuadraticBall, "worst_case", inflated)
        rng = np.random.default_rng(6)
        for kind in ("fisher", "rkhs", "sobolev"):
            n = int(rng.integers(3, 7))
            if kind == "sobolev":
                space, cls = sobolev_instance(rng, n)
            else:
                space = unit_space(n)
                cls = quadratic_class(rng, space, kind)
            P = random_distribution(rng, space)
            h = FunctionVec(space, rng.uniform(-1, 1, n))
            report = verify_identity(P, cls, float(rng.uniform(0.05, 1.0)), h)
            assert report.residual >= 9e-4

    def test_metric_ball_variants(self):
        rng = np.random.default_rng(12)
        space = line_space(rng, 5)
        P = random_distribution(rng, space)
        h = FunctionVec(space, rng.uniform(-1, 1, 5))
        for cls in (LipschitzBall(space), DudleyBall(space)):
            for eps in (0.1, 0.6):
                report = verify_identity(P, cls, eps, h)
                assert report.residual <= 1e-6


class TestZeroMassFisherBall:
    def test_worst_case_pins_mass_off_support(self):
        space = unit_space(3)
        mu = DiscreteDistribution(space, [0.5, 0.5, 0.0])
        cls = FisherBall(space, mu=mu, allow_zero_mass=True)
        P = DiscreteDistribution(space, [0.3, 0.3, 0.4])
        h = FunctionVec(space, [0.9, -0.4, 0.2])
        eps = 0.2
        result = worst_case_expectation(P, cls, eps, h)
        # mass can only shuttle between the two supported points:
        # q = (0.3 + s, 0.3 - s, 0.4) with 4 s^2 <= eps^2
        s = eps / 2.0
        expected = float(P.weights @ h.values) + s * abs(h.values[0] - h.values[1])
        assert result.value == pytest.approx(expected, abs=1e-6)
        assert result.worst_q.weights[2] == pytest.approx(0.4, abs=1e-9)


class TestZeroMassSobolevBall:
    def test_disconnected_effective_graph_refused(self):
        # the edge out of the zero-mass middle point carries no weight
        space = make_space(["a", "b", "c"], graph=((0, 1, 1.0), (1, 2, 1.0)))
        mu = DiscreteDistribution(space, [0.5, 0.0, 0.5])
        cls = SobolevBall(space, mu=mu, allow_zero_mass=True)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        with pytest.raises(UnsupportedVariant):
            worst_case_expectation(P, cls, 0.2, h)


class TestCorollaryBound:
    def test_tv_fixture_equality_at_small_eps(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        report = corollary_bound(P, SupNormBall(space), 0.3, h)
        assert report.lhs == pytest.approx(1.3, abs=1e-9)
        assert report.rhs == pytest.approx(1.3, abs=1e-9)
        assert report.slack == pytest.approx(0.0, abs=1e-9)
        assert report.equality

    def test_tv_fixture_strict_at_large_eps(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        h = FunctionVec(space, [0.0, 1.0, 2.0])
        report = corollary_bound(P, SupNormBall(space), 1.0, h)
        assert report.lhs == pytest.approx(11.0 / 6.0, abs=1e-9)
        assert report.rhs == pytest.approx(2.0, abs=1e-9)
        assert report.slack == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert not report.equality

    def test_sin_grid_decomposition_beats_raw_gauge(self):
        t = np.linspace(-4.0, 4.0, 201)
        space = make_space(
            [f"{x:.2f}" for x in t], metric=np.abs(t[:, None] - t[None, :])
        )
        weights = np.exp(-(t**2) / 2.0)
        P = DiscreteDistribution(space, weights / weights.sum())
        h = FunctionVec(space, np.sin(2.0 * t) + t)
        report = corollary_bound(P, LipschitzBall(space), 1.0, h)
        e_p_h = float(P.weights @ h.values)
        assert report.rhs >= e_p_h + 2.95
        assert report.lhs <= e_p_h + 2.001
        assert report.slack >= 0.9

    def test_infinite_bound_is_no_equality(self):
        """{+-e_a} spans no shift of e_b, so the centered gauge of e_b and the
        right side are infinite: a bound, never an equality."""
        space = unit_space(3)
        e_a, e_b = (FunctionVec(space, row) for row in np.eye(3)[:2])
        P = DiscreteDistribution(space, [0.2, 0.5, 0.3])
        report = corollary_bound(P, Explicit(space, (e_a, e_a.negated())), 0.5, e_b)
        assert np.isfinite(report.lhs)
        assert report.rhs == np.inf and report.slack == np.inf
        assert not report.equality

    def test_slack_nonnegative_fleet(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            space = unit_space(n)
            cls = even_explicit_class(rng, space, 2)
            P = random_distribution(rng, space)
            h = FunctionVec(space, rng.uniform(-1, 1, n))
            eps = float(rng.uniform(0.05, 1.5))
            report = corollary_bound(P, cls, eps, h)
            assert report.slack >= -1e-7


class TestTightnessReport:
    @pytest.mark.parametrize("samples", [0, -1, True, np.False_, 2.5, 2.0, "3", None])
    def test_samples_must_be_a_positive_integer(self, samples):
        """True would run one sample and report samples=True, and 2.5 would
        fail in range(); each is refused naming the value."""
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        with pytest.raises(ValueError, match=rf"^samples must be an integer of at least 1, "
                                             rf"got {re.escape(repr(samples))}$"):
            tightness_report(P, SupNormBall(space), 0.5, samples=samples, seed=0)

    def test_numpy_integer_samples_are_accepted(self):
        space = unit_space(3)
        P = DiscreteDistribution.uniform(space)
        report = tightness_report(P, SupNormBall(space), 0.5, samples=np.int64(2), seed=0)
        assert report.samples == 2

    def test_explicit_class_no_violations(self):
        rng = np.random.default_rng(8)
        space = unit_space(5)
        cls = even_explicit_class(rng, space, 2)
        P = random_distribution(rng, space)
        report = tightness_report(P, cls, 0.5, samples=50, seed=9)
        assert report.max_min_violation <= 1e-8
        assert report.max_subadditivity_violation <= 1e-8

    def test_negated_pair_and_scaling(self):
        space = unit_space(4)
        P = DiscreteDistribution.uniform(space)
        cls = SupNormBall(space)
        eps = 0.5
        rng = np.random.default_rng(10)
        h = rng.uniform(-1, 1, 4)
        lam = lambda_penalty(P, cls, eps, FunctionVec(space, h)).value
        lam_neg = lambda_penalty(P, cls, eps, FunctionVec(space, -h)).value
        lam_zero = lambda_penalty(P, cls, eps, FunctionVec(space, 0.0 * h)).value
        assert lam_zero <= lam + lam_neg + 1e-9
        big = FunctionVec(space, 10.0 * h)
        lam_big = lambda_penalty(P, cls, eps, big).value
        bound = min(
            j_penalty(P, big).value,
            eps * float(np.max(np.abs(big.values))),
        )
        assert lam_big <= bound + 1e-8
