import math

import numpy as np
import pytest

from ipmdro import (
    DiscreteDistribution,
    Explicit,
    FDivergence,
    FunctionVec,
    SupNormBall,
    f_divergence_catalog,
    gan_bound_check,
    gan_objective,
    make_space,
    robust_gan_sup,
    symmetrize_class,
)
from ipmdro.errors import DiscriminatorOutOfDomain, EpsNonPositive, UnknownDivergence
from fleet import even_explicit_class, interior_distribution, random_distribution
from oracles import greedy_l1_worst_case, simplex_grid_3

CATALOG = ("kl", "reverse_kl", "js_gan", "chi2", "tv", "ipm_indicator")


def unit_space(n):
    return make_space([str(i) for i in range(n)])


class TestCatalog:
    @pytest.mark.parametrize("name", CATALOG)
    def test_normalization(self, name):
        div = f_divergence_catalog(name)
        assert abs(div.f(1.0)) <= 1e-12

    def test_kl_conjugate_value(self):
        div = f_divergence_catalog("kl")
        assert float(div.conj(np.array([2.0]))[0]) == pytest.approx(math.e, abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(UnknownDivergence):
            f_divergence_catalog("hellinger")

    @pytest.mark.parametrize("offset", [1.0, -0.5, 1e-9])
    def test_f_must_vanish_at_one(self, offset):
        with pytest.raises(ValueError) as info:
            FDivergence("shifted", lambda t: t * math.log(t) + offset, lambda y: np.exp(y - 1.0))
        assert type(info.value) is ValueError
        assert str(info.value) == "shifted: f(1) must vanish"

    def test_f_that_is_nan_at_one_is_refused(self):
        """NaN compares False with everything, so a tolerance test written
        as ``> 1e-12`` would let it through."""
        with pytest.raises(ValueError) as info:
            FDivergence("nan", lambda t: float("nan"), lambda y: np.exp(y - 1.0))
        assert type(info.value) is ValueError
        assert str(info.value) == "nan: f(1) must vanish"

    def test_nan_in_the_fenchel_young_check_is_refused(self):
        """f(1) = 0 but f is NaN elsewhere, so only the spot check sees it."""
        with pytest.raises(ValueError) as info:
            FDivergence("nan_off_one", lambda t: 0.0 if t == 1.0 else float("nan"),
                        lambda y: np.exp(y - 1.0))
        assert type(info.value) is ValueError
        assert str(info.value) == "nan_off_one: Fenchel-Young inequality fails"

    def test_fenchel_young_violation_rejected(self):
        with pytest.raises(ValueError):
            FDivergence("broken", lambda t: (t - 1.0) ** 2, lambda y: 0.0 * np.asarray(y) - 10.0)

    def test_indicator_reduces_to_expectation_gap(self):
        rng = np.random.default_rng(0)
        space = unit_space(4)
        div = f_divergence_catalog("ipm_indicator")
        h = FunctionVec(space, rng.uniform(-1, 1, 4))
        H = Explicit(space, (h,))
        P = random_distribution(rng, space)
        mu = random_distribution(rng, space)
        got = gan_objective(div, H, mu, P)
        assert got.value == pytest.approx(
            float(h.values @ (P.weights - mu.weights)), abs=1e-12
        )
        assert got.best_discriminator == 0


class TestGanObjective:
    def test_matched_model_with_even_discriminators_scores_zero(self):
        rng = np.random.default_rng(1)
        space = unit_space(4)
        H = even_explicit_class(rng, space, 2, with_units=False)
        P = random_distribution(rng, space)
        div = f_divergence_catalog("ipm_indicator")
        got = gan_objective(div, H, P, P)
        assert got.value == pytest.approx(0.0, abs=1e-12)

    def test_kl_optimal_discriminator_attains_divergence(self):
        rng = np.random.default_rng(2)
        space = unit_space(3)
        P = interior_distribution(rng, space)
        mu = interior_distribution(rng, space)
        div = f_divergence_catalog("kl")
        star = 1.0 + np.log(P.weights / mu.weights)
        H = Explicit(space, (FunctionVec(space, star),))
        got = gan_objective(div, H, mu, P)
        kl = float(np.sum(P.weights * np.log(P.weights / mu.weights)))
        assert got.value == pytest.approx(kl, abs=1e-9)
        # local perturbations never beat the stationary discriminator
        for _ in range(50):
            bump = FunctionVec(space, star + rng.uniform(-0.3, 0.3, 3))
            other = gan_objective(div, Explicit(space, (bump,)), mu, P)
            assert other.value <= kl + 1e-12

    def test_domain_violation_names_point(self):
        space = make_space(["left", "mid", "right"])
        div = f_divergence_catalog("tv")  # dom f* = [-1, 1]
        H = Explicit(space, (FunctionVec(space, [0.0, 2.0, 0.0]),))
        P = DiscreteDistribution.uniform(space)
        with pytest.raises(DiscriminatorOutOfDomain, match="mid"):
            gan_objective(div, H, P, P)

    def test_open_endpoint_margin(self):
        space = unit_space(2)
        div = f_divergence_catalog("js_gan")
        at_edge = FunctionVec(space, [math.log(2.0), 0.0])
        P = DiscreteDistribution.uniform(space)
        with pytest.raises(DiscriminatorOutOfDomain):
            gan_objective(div, Explicit(space, (at_edge,)), P, P)
        inside = FunctionVec(space, [math.log(2.0) - 1e-6, 0.0])
        assert np.isfinite(gan_objective(div, Explicit(space, (inside,)), P, P).value)


class TestRobustGan:
    def test_tiny_radius_matches_plain(self):
        rng = np.random.default_rng(3)
        space = unit_space(4)
        F = even_explicit_class(rng, space, 2)  # rich: includes +-units
        H = Explicit(space, tuple(FunctionVec(space, rng.uniform(-1, 1, 4)) for _ in range(3)))
        P = random_distribution(rng, space)
        mu = random_distribution(rng, space)
        div = f_divergence_catalog("chi2")
        plain = gan_objective(div, H, mu, P).value
        robust = robust_gan_sup(div, H, F, 1e-9, mu, P).value
        assert robust == pytest.approx(plain, abs=1e-7)

    def test_single_discriminator_greedy_increment(self):
        rng = np.random.default_rng(4)
        space = unit_space(3)
        div = f_divergence_catalog("ipm_indicator")
        h = FunctionVec(space, rng.uniform(-1, 1, 3))
        H = Explicit(space, (h,))
        P = random_distribution(rng, space)
        mu = random_distribution(rng, space)
        eps = 0.4
        robust = robust_gan_sup(div, H, SupNormBall(space), eps, mu, P).value
        worst = greedy_l1_worst_case(h.values, P.weights, eps)
        assert robust == pytest.approx(worst - float(mu.weights @ h.values), abs=1e-9)

    def test_constant_discriminator_is_radius_invariant(self):
        space = unit_space(3)
        div = f_divergence_catalog("kl")
        H = Explicit(space, (FunctionVec(space, np.full(3, 0.7)),))
        P = DiscreteDistribution.uniform(space)
        mu = DiscreteDistribution(space, [0.2, 0.3, 0.5])
        plain = gan_objective(div, H, mu, P).value
        for eps in (0.1, 0.7, 1.5):
            robust = robust_gan_sup(div, H, SupNormBall(space), eps, mu, P).value
            assert robust == pytest.approx(plain, abs=1e-9)

    def test_eps_must_be_positive(self):
        space = unit_space(2)
        div = f_divergence_catalog("tv")
        H = Explicit(space, (FunctionVec(space, [0.5, -0.5]),))
        P = DiscreteDistribution.uniform(space)
        with pytest.raises(EpsNonPositive):
            robust_gan_sup(div, H, SupNormBall(space), 0.0, P, P)

    def test_sup_swap_against_grid_enumeration(self):
        rng = np.random.default_rng(5)
        space = unit_space(3)
        div = f_divergence_catalog("tv")
        H = Explicit(
            space,
            tuple(FunctionVec(space, rng.uniform(-0.9, 0.9, 3)) for _ in range(3)),
        )
        P = random_distribution(rng, space)
        mu = random_distribution(rng, space)
        eps = 0.3
        robust = robust_gan_sup(div, H, SupNormBall(space), eps, mu, P).value
        grid = simplex_grid_3(1000)
        feasible = np.abs(grid - P.weights).sum(axis=1) <= eps + 1e-12
        best = -np.inf
        for f in H.functions:
            conj = div.conj(f.values)
            values = grid[feasible] @ f.values - float(mu.weights @ conj)
            best = max(best, float(values.max()))
        assert abs(robust - best) <= 2e-3


class TestGanBound:
    def test_self_ball_cap_is_eps(self):
        rng = np.random.default_rng(6)
        space = unit_space(4)
        members = tuple(
            FunctionVec(space, rng.uniform(-0.9, 0.9, 4)) for _ in range(3)
        )
        H = Explicit(space, members)
        F = symmetrize_class(H).function_class
        P = random_distribution(rng, space)
        mu = random_distribution(rng, space)
        for name in ("kl", "tv", "ipm_indicator"):
            div = f_divergence_catalog(name)
            eps = 0.5
            report = gan_bound_check(div, H, F, eps, mu, P)
            assert report.cap <= eps * (1.0 + 1e-9)
            assert report.slack >= -1e-7
            assert report.robust <= report.plain + eps + 1e-7

    def test_zero_discriminator(self):
        space = unit_space(3)
        div = f_divergence_catalog("kl")
        H = Explicit(space, (FunctionVec(space, np.zeros(3)),))
        P = DiscreteDistribution.uniform(space)
        mu = DiscreteDistribution(space, [0.2, 0.3, 0.5])
        F = SupNormBall(space)
        eps = 0.4
        report = gan_bound_check(div, H, F, eps, mu, P)
        assert report.robust == pytest.approx(report.plain, abs=1e-9)
        assert report.cap == pytest.approx(0.0, abs=1e-12)
        assert report.slack == pytest.approx(report.cap, abs=1e-9)

    def test_random_fleet_nonnegative_slack(self):
        rng = np.random.default_rng(7)
        fleet_divs = ("kl", "js_gan", "tv", "ipm_indicator")
        for trial in range(20):
            n = int(rng.integers(3, 7))
            space = unit_space(n)
            size = int(rng.integers(1, 6))
            # values below log 2 keep every fleet divergence in-domain
            H = Explicit(
                space,
                tuple(FunctionVec(space, rng.uniform(-0.9, 0.6, n)) for _ in range(size)),
            )
            F = even_explicit_class(rng, space, 2)
            div = f_divergence_catalog(fleet_divs[trial % 4])
            P = random_distribution(rng, space)
            mu = random_distribution(rng, space)
            eps = float(rng.uniform(0.05, 1.0))
            report = gan_bound_check(div, H, F, eps, mu, P)
            assert report.slack >= -1e-7

    def test_robust_value_monotone_in_radius(self):
        rng = np.random.default_rng(8)
        space = unit_space(4)
        div = f_divergence_catalog("tv")
        H = Explicit(space, tuple(FunctionVec(space, rng.uniform(-0.9, 0.9, 4)) for _ in range(2)))
        P = random_distribution(rng, space)
        mu = random_distribution(rng, space)
        previous = -np.inf
        for eps in np.linspace(0.05, 2.0, 20):
            value = robust_gan_sup(div, H, SupNormBall(space), float(eps), mu, P).value
            assert value >= previous - 1e-9
            previous = value

    def test_larger_class_never_raises_premium(self):
        rng = np.random.default_rng(9)
        space = unit_space(4)
        div = f_divergence_catalog("ipm_indicator")
        H = Explicit(space, tuple(FunctionVec(space, rng.uniform(-1, 1, 4)) for _ in range(2)))
        P = random_distribution(rng, space)
        mu = random_distribution(rng, space)
        small = even_explicit_class(rng, space, 1, with_units=False)
        extra = tuple(FunctionVec(space, rng.uniform(-1, 1, 4)) for _ in range(3))
        big = Explicit(space, small.functions + extra + tuple(f.negated() for f in extra))
        eps = 0.5
        plain = gan_objective(div, H, mu, P).value
        premium_small = robust_gan_sup(div, H, small, eps, mu, P).value - plain
        premium_big = robust_gan_sup(div, H, big, eps, mu, P).value - plain
        assert premium_big <= premium_small + 1e-8
