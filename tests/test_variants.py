"""Every class variant against every operation on the class: each pair either
returns a finite result or raises the exception type pinned below."""

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
    ipm_distance,
    lambda_penalty,
    make_space,
    symmetrize_class,
    theta,
    theta_closed_form,
    worst_case_expectation,
)
from ipmdro.core import class_is_even, sobolev_matrix
from ipmdro.errors import UnsupportedVariant

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


OPERATIONS = {
    "theta": lambda cls, P, Q, h: theta(cls, h).value,
    "theta_closed_form": lambda cls, P, Q, h: theta_closed_form(cls, h).value,
    "centered_theta": lambda cls, P, Q, h: centered_theta(cls, h)[1].value,
    "ipm_distance": lambda cls, P, Q, h: ipm_distance(cls, Q, P).value,
    "worst_case_expectation":
        lambda cls, P, Q, h: worst_case_expectation(P, cls, EPS, h).value,
    "lambda_penalty": lambda cls, P, Q, h: lambda_penalty(P, cls, EPS, h).value,
    "class_is_even": lambda cls, P, Q, h: float(class_is_even(cls)),
    "symmetrize_class": lambda cls, P, Q, h: float(symmetrize_class(cls).already_even),
}

VARIANTS = ("explicit", "sup_norm", "lipschitz", "dudley", "fisher", "rkhs",
            "sobolev", "zeta")

REFUSED = {
    ("explicit", "theta_closed_form"): UnsupportedVariant,
    ("zeta", "theta_closed_form"): UnsupportedVariant,
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


def test_sobolev_laplacian_is_exactly_symmetric():
    """The cached Sobolev decomposition is shared with the ellipsoid norm,
    which symmetrizes its matrix first; that is a no-op only if L == L'."""
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
    cls, P, Q, h = _instance("sobolev")
    theta(cls, h)
    centered_theta(cls, h)
    ipm_distance(cls, Q, P)
    worst_case_expectation(P, cls, EPS, h)
    lambda_penalty(P, cls, EPS, h)
    assert len(calls) == 1
