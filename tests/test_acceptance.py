"""Acceptance suite: every headline guarantee at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline) and fails its test when the stated tolerance is exceeded.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from ipmdro import (
    DiscreteDistribution,
    Explicit,
    FisherBall,
    FunctionVec,
    LipschitzBall,
    SupNormBall,
    centered_theta,
    check_alignment,
    corollary_bound,
    f_divergence_catalog,
    gan_bound_check,
    ipm_distance,
    lambda_penalty,
    make_space,
    symmetrize_class,
    theta,
    tightness_report,
    two_sided_check,
    verify_identity,
    worst_case_expectation,
)
from fleet import (
    aligned_instance,
    even_explicit_class,
    misaligned_instance,
    quadratic_class,
    random_distribution,
    sobolev_instance,
)
from oracles import greedy_l1_worst_case, simplex_grid_3


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number:02d}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def unit_space(n):
    return make_space([str(i) for i in range(n)])


@lru_cache(maxsize=1)
def exact_identity_fleet():
    """200 random explicit even-class instances shared by criteria 1, 6, 12."""
    rng = np.random.default_rng(1001)
    instances = []
    for _ in range(200):
        n = int(rng.integers(3, 9))
        space = unit_space(n)
        cls = even_explicit_class(rng, space, int(rng.integers(1, 4)))
        P = random_distribution(rng, space)
        h = FunctionVec(space, rng.uniform(-1.0, 1.0, n))
        eps = float(rng.uniform(0.05, 2.0))
        instances.append((space, cls, P, eps, h))
    return instances


def tv_fixture():
    space = unit_space(3)
    return space, DiscreteDistribution.uniform(space), FunctionVec(space, [0.0, 1.0, 2.0])


def test_criterion_01_identity_exact_path():
    start = time.perf_counter()
    worst = 0.0
    for _, cls, P, eps, h in exact_identity_fleet():
        result = verify_identity(P, cls, eps, h)
        assert result.exact
        worst = max(worst, result.residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(1, ok, f"200 instances, max residual {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_identity_quadratic_path():
    rng = np.random.default_rng(1002)
    worst_residual = 0.0
    worst_gap = 0.0
    kinds = ["fisher"] * 17 + ["rkhs"] * 17 + ["sobolev"] * 16
    for kind in kinds:
        n = int(rng.integers(3, 7))
        if kind == "sobolev":
            space, cls = sobolev_instance(rng, n)
        else:
            space = unit_space(n)
            cls = quadratic_class(rng, space, kind)
        P = random_distribution(rng, space)
        h = FunctionVec(space, rng.uniform(-1.0, 1.0, n))
        eps = float(rng.uniform(0.05, 1.0))
        result = verify_identity(P, cls, eps, h)
        gap = worst_case_expectation(P, cls, eps, h).gap_estimate
        worst_residual = max(worst_residual, result.residual)
        worst_gap = max(worst_gap, gap)
    ok = worst_residual <= 1e-6 and worst_gap <= 5e-4
    _report(
        2,
        ok,
        f"50 instances, max residual {worst_residual:.3e}, max gap {worst_gap:.3e}",
    )


def test_criterion_03_tv_worked_example():
    space, P, h = tv_fixture()
    cls = SupNormBall(space)
    errors = []
    for eps, frozen in ((0.3, 1.3), (1.0, 11.0 / 6.0)):
        value = worst_case_expectation(P, cls, eps, h).value
        oracle = greedy_l1_worst_case(h.values, P.weights, eps)
        errors.append(abs(value - frozen))
        errors.append(abs(value - oracle))
    for eps in np.linspace(0.05, 2.0, 40):
        value = worst_case_expectation(P, cls, float(eps), h).value
        curve = min(1.0 + eps, 4.0 / 3.0 + eps / 2.0, 2.0)
        errors.append(abs(value - curve))
    worst = max(errors)
    _report(3, worst <= 1e-6, f"fixture and 40-point curve, max error {worst:.3e}")


def test_criterion_04_sin_decomposition_gap():
    t = np.linspace(-4.0, 4.0, 201)
    space = make_space([f"{x:.2f}" for x in t], metric=np.abs(t[:, None] - t[None, :]))
    weights = np.exp(-(t**2) / 2.0)
    P = DiscreteDistribution(space, weights / weights.sum())
    h = FunctionVec(space, np.sin(2.0 * t) + t)
    eps = 1.0
    eps_lip = eps * theta(LipschitzBall(space), h).value
    lam = lambda_penalty(P, LipschitzBall(space), eps, h).value
    gap = eps_lip - lam
    ok = 2.95 <= eps_lip <= 3.0 and lam <= 2.001 and gap >= 0.9
    _report(4, ok, f"eps*Lip {eps_lip:.4f}, penalty LP {lam:.4f}, gap {gap:.4f}")


def test_criterion_05_centered_fisher_is_standard_deviation():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        space = unit_space(n)
        mu = DiscreteDistribution(space, rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        cls = FisherBall(space, mu=mu)
        h = FunctionVec(space, rng.uniform(-3.0, 3.0, n))
        _, value = centered_theta(cls, h)
        mean = float(mu.weights @ h.values)
        std = float(np.sqrt(mu.weights @ h.values**2 - mean**2))
        worst = max(worst, abs(value.value - std))
    _report(5, worst <= 1e-9, f"100 draws, max deviation {worst:.3e}")


def test_criterion_06_centered_gauge_bound():
    worst_slack = np.inf
    for _, cls, P, eps, h in exact_identity_fleet():
        report = corollary_bound(P, cls, eps, h)
        worst_slack = min(worst_slack, report.slack)
    space, P, h = tv_fixture()
    cls = SupNormBall(space)
    for eps in np.linspace(0.05, 2.0, 40):
        report = corollary_bound(P, cls, float(eps), h)
        worst_slack = min(worst_slack, report.slack)
    fixture = corollary_bound(P, cls, 0.3, h)
    ok = worst_slack >= -1e-7 and fixture.equality and abs(fixture.slack) <= 1e-9
    _report(
        6,
        ok,
        f"min slack {worst_slack:.3e}; radius-0.3 fixture equality slack "
        f"{fixture.slack:.3e}",
    )


def test_criterion_07_min_bound_and_subadditivity():
    rng = np.random.default_rng(1007)
    space = unit_space(5)
    cls = even_explicit_class(rng, space, 2)
    P = random_distribution(rng, space)
    report = tightness_report(P, cls, 0.5, samples=200, seed=1017)
    ok = (
        report.max_min_violation <= 1e-8
        and report.max_subadditivity_violation <= 1e-8
    )
    _report(
        7,
        ok,
        f"200 pairs, min-bound violation {report.max_min_violation:.3e}, "
        f"subadditivity violation {report.max_subadditivity_violation:.3e}",
    )


def test_criterion_08_alignment_both_directions():
    rng = np.random.default_rng(1008)
    worst_aligned = 0.0
    worst_witness = 0.0
    for _ in range(50):
        P, cls, eps, h, _ = aligned_instance(rng, int(rng.integers(3, 7)))
        report = check_alignment(P, cls, eps, h)
        assert report.aligned
        worst_aligned = max(worst_aligned, abs(report.lambda_value - report.eps_theta))
        worst_witness = max(worst_witness, report.witness_residual)
    min_gap = np.inf
    worst_margin = -np.inf
    for _ in range(50):
        P, cls, eps, h = misaligned_instance(rng, int(rng.integers(3, 7)))
        report = check_alignment(P, cls, eps, h)
        assert not report.aligned
        min_gap = min(min_gap, report.gap)
        witness_opt = (
            worst_case_expectation(P, cls, eps, h).value - float(P.weights @ h.values)
        )
        worst_margin = max(worst_margin, witness_opt - (report.eps_theta - 1e-6))
    ok = worst_aligned <= 1e-6 and worst_witness <= 1e-6 and min_gap > 1e-4 and worst_margin < 0.0
    _report(
        8,
        ok,
        f"50 aligned (max |penalty - eps*gauge| {worst_aligned:.3e}, witness "
        f"residual {worst_witness:.3e}); 50 misaligned (min gap {min_gap:.3e}, "
        f"witness LP stays below eps*gauge - 1e-6)",
    )


def test_criterion_09_two_sided_displays():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(50):
        P, cls, eps, h, mu = aligned_instance(rng, int(rng.integers(3, 7)))
        report = two_sided_check(P, mu, cls, eps, h)
        worst = max(worst, report.residual)
    _report(9, worst <= 1e-6, f"50 aligned even instances, max residual {worst:.3e}")


def test_criterion_10_gan_bound():
    rng = np.random.default_rng(1010)
    fleet_divs = ("kl", "js_gan", "tv", "ipm_indicator")
    min_slack = np.inf
    for trial in range(100):
        n = int(rng.integers(3, 7))
        space = unit_space(n)
        size = int(rng.integers(1, 6))
        H = Explicit(
            space,
            tuple(
                FunctionVec(space, rng.uniform(-0.9, 0.6, n)) for _ in range(size)
            ),
        )
        F = even_explicit_class(rng, space, 2)
        div = f_divergence_catalog(fleet_divs[trial % 4])
        P = random_distribution(rng, space)
        mu = random_distribution(rng, space)
        eps = float(rng.uniform(0.05, 1.0))
        report = gan_bound_check(div, H, F, eps, mu, P)
        min_slack = min(min_slack, report.slack)
    worst_excess = -np.inf
    for trial in range(25):
        n = int(rng.integers(3, 6))
        space = unit_space(n)
        H = Explicit(
            space,
            tuple(FunctionVec(space, rng.uniform(-0.9, 0.6, n)) for _ in range(3)),
        )
        F = symmetrize_class(H).function_class
        div = f_divergence_catalog(fleet_divs[trial % 4])
        P = random_distribution(rng, space)
        mu = random_distribution(rng, space)
        eps = float(rng.uniform(0.05, 1.0))
        report = gan_bound_check(div, H, F, eps, mu, P)
        worst_excess = max(worst_excess, report.robust - report.plain - eps)
    ok = min_slack >= -1e-7 and worst_excess <= 1e-7
    _report(
        10,
        ok,
        f"100 instances min slack {min_slack:.3e}; self-ball max excess over "
        f"plain+eps {worst_excess:.3e}",
    )


def test_criterion_11_hull_invariance():
    rng = np.random.default_rng(1011)
    space = unit_space(4)
    cls = even_explicit_class(rng, space, 3, with_units=False)
    augmented = list(cls.functions)
    for _ in range(50):
        w = rng.dirichlet(np.ones(cls.size))
        augmented.append(FunctionVec(space, w @ cls.matrix))
    bigger = Explicit(space, tuple(augmented))
    worst = 0.0
    for _ in range(100):
        Q = random_distribution(rng, space)
        P = random_distribution(rng, space)
        d_small = ipm_distance(cls, Q, P).value
        d_big = ipm_distance(bigger, Q, P).value
        worst = max(worst, abs(d_small - d_big))
    _report(11, worst <= 1e-10, f"100 pairs, max distance change {worst:.3e}")


def test_criterion_12_brute_force_cross_check():
    grid = simplex_grid_3(1000)
    worst = 0.0
    checked = 0
    for _, cls, P, eps, h in exact_identity_fleet():
        if P.space.n != 3:
            continue
        value = worst_case_expectation(P, cls, eps, h).value
        slack = (grid - P.weights) @ cls.matrix.T
        feasible = np.all(slack <= eps + 1e-12, axis=1)
        reference = float(np.max(grid[feasible] @ h.values))
        worst = max(worst, abs(value - reference))
        checked += 1
    space, P, h = tv_fixture()
    for eps in (0.3, 1.0):
        value = worst_case_expectation(P, SupNormBall(space), eps, h).value
        feasible = np.abs(grid - P.weights).sum(axis=1) <= eps + 1e-12
        reference = float(np.max(grid[feasible] @ h.values))
        worst = max(worst, abs(value - reference))
        checked += 1
    _report(
        12, worst <= 2e-3, f"{checked} three-point instances, max deviation {worst:.3e}"
    )
