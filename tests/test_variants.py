"""Every class variant against every operation on the class: each pair either
returns a finite result or raises the exception type pinned below.  Each
constructor refuses the inputs pinned below with its own type and message."""

import math
import sys

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
    centered_theta,
    check_alignment,
    corollary_bound,
    critic_infimum,
    critic_loss,
    f_divergence_catalog,
    gan_bound_check,
    ipm_distance,
    lambda_penalty,
    make_space,
    robust_gan_sup,
    symmetrize_class,
    theta,
    two_sided_check,
    verify_identity,
    worst_case_expectation,
)
from ipmdro import balls
from ipmdro.core import class_is_even, lipschitz_constant, sobolev_matrix
from ipmdro.errors import (
    DimensionMismatch,
    EpsNegative,
    EpsNonPositive,
    MissingGraph,
    MissingMetric,
    SingularGram,
    UnsupportedVariant,
)
from ipmdro.solvers import BALL_FEASIBILITY, solve_lp

N = 3
EPS = 0.2


def _space():
    idx = np.arange(N, dtype=float)
    graph = tuple((i, i + 1, 1.0) for i in range(N - 1))
    graph += tuple((j, i, w) for i, j, w in graph)
    return make_space([f"x{i}" for i in range(N)],
                      metric=np.abs(idx[:, None] - idx[None, :]), graph=graph)


def _build(variant, space):
    mu = DiscreteDistribution(space, [0.2, 0.5, 0.3])
    if variant == "explicit":
        eye = np.eye(N)
        return Explicit(space, tuple(FunctionVec(space, s * eye[i])
                                     for i in range(N) for s in (1.0, -1.0)))
    if variant == "rkhs":
        return RkhsBall(space, gram=np.eye(N) + 0.3 * np.ones((N, N)))
    if variant == "fisher":
        return FisherBall(space, mu=mu)
    if variant == "sobolev":
        return SobolevBall(space, mu=mu)
    if variant == "zeta":
        return ZetaBall(space, zeta=lambda v: float(np.abs(v).sum()), degree=1.0,
                        convex=True)
    return {"sup_norm": SupNormBall, "lipschitz": LipschitzBall,
            "dudley": DudleyBall}[variant](space)


def _instance(variant):
    space = _space()
    P = DiscreteDistribution(space, [0.3, 0.3, 0.4])
    Q = DiscreteDistribution(space, [0.5, 0.25, 0.25])
    h = FunctionVec(space, [0.4, -0.2, 0.7])
    return _build(variant, space), P, Q, h


def _worst_case_in_ball(cls, P, Q, h):
    """The worst case, checked to lie in the ball by a distance solved here:
    ``worst_case_expectation`` leaves that to each family's certificate."""
    result = worst_case_expectation(P, cls, EPS, h)
    assert ipm_distance(cls, result.worst_q, P).value <= EPS + BALL_FEASIBILITY
    return result.value


OPERATIONS = {
    "theta": lambda cls, P, Q, h: theta(cls, h).value,
    "centered_theta": lambda cls, P, Q, h: centered_theta(cls, h)[1].value,
    "ipm_distance": lambda cls, P, Q, h: ipm_distance(cls, Q, P).value,
    "worst_case_expectation": _worst_case_in_ball,
    "lambda_penalty": lambda cls, P, Q, h: lambda_penalty(P, cls, EPS, h).value,
    "class_is_even": lambda cls, P, Q, h: float(class_is_even(cls)),
    "symmetrize_class": lambda cls, P, Q, h: float(symmetrize_class(cls).already_even),
}

VARIANTS = ("explicit", "sup_norm", "lipschitz", "dudley", "fisher", "rkhs",
            "sobolev", "zeta")

REFUSED = {
    ("zeta", "ipm_distance"): UnsupportedVariant,
    ("zeta", "worst_case_expectation"): UnsupportedVariant,
    ("zeta", "lambda_penalty"): UnsupportedVariant,
    ("zeta", "symmetrize_class"): UnsupportedVariant,
}


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_operation_result_or_refusal(variant, operation):
    cls, P, Q, h = _instance(variant)
    call = OPERATIONS[operation]
    refusal = REFUSED.get((variant, operation))
    if refusal is None:
        assert np.isfinite(call(cls, P, Q, h))
    else:
        with pytest.raises(refusal):
            call(cls, P, Q, h)


@pytest.mark.parametrize("variant", VARIANTS)
def test_zero_results_carry_a_plus_sign(variant):
    """d(P, P), the gauge and centered gauge of the zero function and the
    penalty of a constant are +0.0: max(-0.0, 0.0) is -0.0, which the CSV
    prints as -0."""
    cls, P, Q, h = _instance(variant)
    zero = FunctionVec(P.space, np.zeros(N))
    values = [theta(cls, zero).value, centered_theta(cls, zero)[1].value]
    if (variant, "ipm_distance") not in REFUSED:
        values.append(ipm_distance(cls, P, P).value)
    if (variant, "lambda_penalty") not in REFUSED:
        values.append(lambda_penalty(P, cls, EPS, FunctionVec(P.space, np.full(N, 0.3))).value)
    for value in values:
        assert abs(value) <= 1e-12 and math.copysign(1.0, value) == 1.0, values


# the class operations that pose an LP; every other pair is a closed form or
# a search
POSES_LP = {
    "explicit": {"gauge", "centered_gauge", "worst_case", "lambda_"},
    "dudley": {"distance", "lambda_"},
    "lipschitz": {"distance"},
}

CLASS_OPERATIONS = {
    "gauge": lambda cls, P, Q, h: cls.gauge(h),
    "centered_gauge": lambda cls, P, Q, h: cls.centered_gauge(h),
    "distance": lambda cls, P, Q, h: cls.distance(Q, P),
    "worst_case": lambda cls, P, Q, h: cls.worst_case(P, EPS, h),
    "lambda_": lambda cls, P, Q, h: cls.lambda_(P, EPS, h),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_which_operations_pose_an_lp(variant, monkeypatch):
    """Pins the operations that reach solve_lp, so that no ball is routed
    back through an LP unnoticed."""
    calls = []

    def counted(problem):
        calls.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(balls, "solve_lp", counted)
    cls, P, Q, h = _instance(variant)
    posed = set()
    for name, call in CLASS_OPERATIONS.items():
        before = len(calls)
        try:
            call(cls, P, Q, h)
        except UnsupportedVariant:
            assert variant == "zeta" and name not in ("gauge", "centered_gauge")
        if len(calls) > before:
            posed.add(name)
    assert posed == POSES_LP.get(variant, set())


class _EnteredTransportDual(Exception):
    pass


# the class operations that search the transport dual
SEARCHES_TRANSPORT_DUAL = {
    "lipschitz": {"worst_case", "lambda_"},
    "dudley": {"worst_case"},
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_only_the_lipschitz_ball_searches_the_transport_dual(variant, monkeypatch):
    """The sup norm's worst case and penalty are closed forms of total
    variation; the Lipschitz ball searches the transport dual for both, and
    the Dudley ball, draining total variation in each piece, for its worst
    case alone."""

    def refused(*args):
        raise _EnteredTransportDual

    monkeypatch.setattr(balls, "_transport_dual", refused)
    cls, P, Q, h = _instance(variant)
    entered = set()
    for name, call in CLASS_OPERATIONS.items():
        try:
            call(cls, P, Q, h)
        except UnsupportedVariant:
            assert variant == "zeta" and name not in ("gauge", "centered_gauge")
        except _EnteredTransportDual:
            entered.add(name)
    assert entered == SEARCHES_TRANSPORT_DUAL.get(variant, set())


def _gan(call):
    return lambda cls, P, Q, h, eps: call(f_divergence_catalog("chi2"),
                                          Explicit(P.space, (h,)), cls, eps, Q, P)


# every public operation that takes a radius; only the worst case admits zero
RADIUS_OPERATIONS = {
    "lambda_penalty": lambda cls, P, Q, h, eps: lambda_penalty(P, cls, eps, h),
    "worst_case_expectation": lambda cls, P, Q, h, eps: worst_case_expectation(P, cls, eps, h),
    "verify_identity": lambda cls, P, Q, h, eps: verify_identity(P, cls, eps, h),
    "corollary_bound": lambda cls, P, Q, h, eps: corollary_bound(P, cls, eps, h),
    "critic_loss": lambda cls, P, Q, h, eps: critic_loss(P, Q, eps, cls, h),
    "critic_infimum": lambda cls, P, Q, h, eps: critic_infimum(P, Q, eps, cls),
    "check_alignment": lambda cls, P, Q, h, eps: check_alignment(P, cls, eps, h),
    "two_sided_check": lambda cls, P, Q, h, eps: two_sided_check(P, Q, cls, eps, h),
    "robust_gan_sup": _gan(robust_gan_sup),
    "gan_bound_check": _gan(gan_bound_check),
}


@pytest.mark.parametrize("eps", [np.inf, np.nan])
@pytest.mark.parametrize("operation", sorted(RADIUS_OPERATIONS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_radius_refused(variant, operation, eps):
    """An infinite or NaN radius is refused before any class operation runs,
    rather than turning into a NaN penalty or a NaN critic loss."""
    cls, P, Q, h = _instance(variant)
    refusal = EpsNegative if operation == "worst_case_expectation" else EpsNonPositive
    with pytest.raises(refusal, match="finite"):
        RADIUS_OPERATIONS[operation](cls, P, Q, h, eps)


@pytest.mark.parametrize("eps", [True, False, np.True_, np.False_], ids=repr)
@pytest.mark.parametrize("operation", sorted(RADIUS_OPERATIONS))
def test_boolean_radius_refused(operation, eps):
    """A bool is an int to Python, so True would run at eps = 1 and False
    at eps = 0; it is refused as NaN is, as the CLI refuses it."""
    cls, P, Q, h = _instance("lipschitz")
    refusal = EpsNegative if operation == "worst_case_expectation" else EpsNonPositive
    with pytest.raises(refusal, match="finite"):
        RADIUS_OPERATIONS[operation](cls, P, Q, h, eps)


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "zeta"])
def test_worst_case_and_alignment_solve_no_distance(variant, monkeypatch):
    """Each ball certifies its worst case where it builds it.  The aligned h
    is the witness of d(Q, P) at eps = d(Q, P), so the witness path runs."""
    cls, P, Q, h = _instance(variant)
    distance = ipm_distance(cls, Q, P)

    def refuse(self, Q, P):
        raise AssertionError("a distance was solved")

    for ball in vars(balls).values():
        if isinstance(ball, type) and "distance" in vars(ball):
            monkeypatch.setattr(ball, "distance", refuse)
    assert np.isfinite(worst_case_expectation(P, cls, EPS, h).value)
    for eps, g in ((EPS, h), (distance.value, distance.witness)):
        report = check_alignment(P, cls, eps, g)
        assert report.witness_mu is None or report.witness_residual <= 1e-6
    assert report.aligned


def test_sobolev_laplacian_is_exactly_symmetric():
    """eigh reads one triangle of L, so the cached decomposition is that of
    L itself only if L == L'."""
    rng = np.random.default_rng(4)
    for n in (3, 5, 8):
        edges = [(i, i + 1, float(rng.uniform(0.1, 2.0))) for i in range(n - 1)]
        edges += [(int(rng.integers(n)), int(rng.integers(n)), float(rng.uniform(0.1, 2.0)))
                  for _ in range(2 * n)]
        space = make_space([str(i) for i in range(n)],
                           graph=tuple(e for e in edges if e[0] != e[1]))
        mu = DiscreteDistribution(space, rng.dirichlet(np.ones(n)))
        lap = sobolev_matrix(space, mu)
        assert np.array_equal(0.5 * (lap + lap.T), lap)


def test_sobolev_laplacian_assembled_once_per_instance(monkeypatch):
    calls = []

    def counting(space, mu):
        calls.append(1)
        return sobolev_matrix(space, mu)

    for name, module in list(sys.modules.items()):
        if name.startswith("ipmdro.") and getattr(module, "sobolev_matrix", None) is sobolev_matrix:
            monkeypatch.setattr(module, "sobolev_matrix", counting)
    _every_operation(*_instance("sobolev"))
    assert len(calls) == 1


def _every_operation(cls, P, Q, h):
    theta(cls, h)
    centered_theta(cls, h)
    ipm_distance(cls, Q, P)
    worst_case_expectation(P, cls, EPS, h)
    lambda_penalty(P, cls, EPS, h)


def test_quadratic_form_decomposed_at_most_once_per_instance(monkeypatch):
    """One spectrum, construction included, serves every operation; Fisher's
    form is diagonal and needs no decomposition."""
    calls = []

    def counting(decompose):
        def counted(*args, **kwargs):
            calls.append(variant)
            return decompose(*args, **kwargs)
        return counted

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    for variant in ("fisher", "rkhs", "sobolev"):
        _every_operation(*_instance(variant))
    assert calls == ["rkhs", "sobolev"]


def test_quadratic_spectrum_is_read_only():
    for variant in ("fisher", "rkhs", "sobolev"):
        norm = _instance(variant)[0]._norm
        for array in (norm.eigval, norm.eigvec, norm.pinv):
            with pytest.raises(ValueError):
                array[0] = 1.0


def test_structured_centered_gauges_are_closed_form(monkeypatch):
    """Only the zeta ball searches for the shift."""

    def refuse(*args, **kwargs):
        raise AssertionError("golden section called")

    monkeypatch.setattr(balls, "minimize_scalar_convex", refuse)
    for variant in VARIANTS:
        if variant != "zeta":
            cls, P, Q, h = _instance(variant)
            assert np.isfinite(centered_theta(cls, h)[1].value)
    cls, P, Q, h = _instance("dudley")
    v = h.values
    b, value = centered_theta(cls, h)
    assert b == pytest.approx(0.5 * (v.max() + v.min()), abs=1e-15)
    expected = 0.5 * (v.max() - v.min()) + lipschitz_constant(cls.space, v)
    assert value.value == pytest.approx(expected, abs=1e-15)


_PLAIN = make_space(["x0", "x1", "x2"])
_FOREIGN = DiscreteDistribution.uniform(make_space(["y0", "y1", "y2"]))
_ASYMMETRIC = np.eye(N) + np.triu(np.ones((N, N)), 1)

CONSTRUCTOR_REFUSALS = {
    "explicit_empty": (lambda: Explicit(_PLAIN, ()), DimensionMismatch,
                       "an explicit class needs at least one member"),
    "explicit_array_member": (lambda: Explicit(_PLAIN, (np.zeros(N),)), TypeError,
                              "explicit members must be FunctionVec instances"),
    "lipschitz_no_metric": (lambda: LipschitzBall(_PLAIN), MissingMetric,
                            "a Lipschitz ball needs a metric on the space"),
    "dudley_no_metric": (lambda: DudleyBall(_PLAIN), MissingMetric,
                         "a Dudley ball needs a metric on the space"),
    "rkhs_shape": (lambda: RkhsBall(_PLAIN, gram=np.eye(N - 1)), DimensionMismatch,
                   "Gram matrix shape (2, 2) != (3,3)"),
    "rkhs_non_finite": (lambda: RkhsBall(_PLAIN, gram=np.diag([1.0, np.nan, 1.0])), ValueError,
                        "Gram entries must be finite"),
    "rkhs_asymmetric": (lambda: RkhsBall(_PLAIN, gram=_ASYMMETRIC), SingularGram,
                        "Gram matrix is not symmetric"),
    "fisher_array_mu": (lambda: FisherBall(_PLAIN, mu=np.full(N, 1.0 / N)), TypeError,
                        "FisherBall needs a DiscreteDistribution mu"),
    "fisher_foreign_mu": (lambda: FisherBall(_PLAIN, mu=_FOREIGN), DimensionMismatch,
                          "mu lives on a different space"),
    "sobolev_array_mu": (lambda: SobolevBall(_space(), mu=np.full(N, 1.0 / N)), TypeError,
                         "SobolevBall needs a DiscreteDistribution mu"),
    "sobolev_foreign_mu": (lambda: SobolevBall(_space(), mu=_FOREIGN), DimensionMismatch,
                           "mu lives on a different space"),
    "sobolev_no_graph": (lambda: SobolevBall(_PLAIN, mu=DiscreteDistribution.uniform(_PLAIN)),
                         MissingGraph, "a Sobolev ball needs a graph on the space"),
    "zeta_not_callable": (lambda: ZetaBall(_PLAIN, zeta=1.0), TypeError,
                          "zeta must be callable"),
    "zeta_zero_degree": (lambda: ZetaBall(_PLAIN, zeta=np.sum, degree=0.0), ValueError,
                         "degree must be positive"),
    "zeta_negative_degree": (lambda: ZetaBall(_PLAIN, zeta=np.sum, degree=-1.0), ValueError,
                             "degree must be positive"),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTOR_REFUSALS))
def test_constructor_refusals(case):
    build, error, message = CONSTRUCTOR_REFUSALS[case]
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
