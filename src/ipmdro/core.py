"""Finite sample spaces, distributions, pointwise functions, the base of the
function classes that parameterize the supported divergences (the variants
live in ``balls``), and the structural helpers the variants share.

Every type is immutable after construction and validated eagerly, so the
numerical modules can assume well-formed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AsymmetricMetric,
    DimensionMismatch,
    MissingGraph,
    MissingMetric,
    SelfLoop,
    TriangleInequalityViolated,
    UnsupportedVariant,
)

METRIC_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SampleSpace:
    """Finite ground set with an optional metric and an optional weighted graph.

    Point labels are opaque strings; all numerics operate on indices.  The
    graph is a tuple of ``(i, j, w)`` edges with ``w > 0``; each stored edge
    contributes to the discrete gradient at its source ``i``, so callers who
    want a symmetric neighbourhood list both orientations.
    """

    points: tuple
    metric: Optional[np.ndarray] = None
    graph: Optional[tuple] = None

    def __post_init__(self):
        points = tuple(str(p) for p in self.points)
        if len(points) < 1:
            raise DimensionMismatch("a sample space needs at least one point")
        object.__setattr__(self, "points", points)
        n = len(points)

        if self.metric is not None:
            c = np.array(self.metric, dtype=float)
            if c.shape != (n, n):
                raise DimensionMismatch(
                    f"metric shape {c.shape} does not match {n} points"
                )
            if not np.all(np.isfinite(c)):
                raise ValueError("metric entries must be finite")
            if np.max(np.abs(c - c.T)) > METRIC_TOL:
                raise AsymmetricMetric("metric matrix is not symmetric")
            if np.max(np.abs(np.diag(c))) > METRIC_TOL:
                raise ValueError("metric diagonal must be zero")
            off = ~np.eye(n, dtype=bool)
            if n > 1 and np.min(c[off]) <= 0.0:
                raise ValueError("metric must be strictly positive off the diagonal")
            for k in range(n):
                slack = c - (c[:, k : k + 1] + c[k : k + 1, :])
                bad = np.argwhere(slack > METRIC_TOL)
                if bad.size:
                    i, j = bad[0]
                    raise TriangleInequalityViolated(
                        f"c({i},{j}) > c({i},{k}) + c({k},{j})"
                    )
            object.__setattr__(self, "metric", _frozen_array(c))

        if self.graph is not None:
            edges = []
            for e in self.graph:
                i, j, w = int(e[0]), int(e[1]), float(e[2])
                if not (0 <= i < n and 0 <= j < n):
                    raise DimensionMismatch(f"edge ({i},{j}) out of range")
                if i == j:
                    raise SelfLoop(f"self-loop at point {i}")
                if not (np.isfinite(w) and w > 0.0):
                    raise ValueError(f"edge ({i},{j}) needs a positive weight")
                edges.append((i, j, w))
            object.__setattr__(self, "graph", tuple(edges))

    @property
    def n(self) -> int:
        return len(self.points)


def make_space(points, metric=None, graph=None) -> SampleSpace:
    """Validated constructor for :class:`SampleSpace`."""
    return SampleSpace(tuple(points), metric, graph)


def require_same_space(a, b) -> None:
    sa, sb = a.space, b.space
    if sa is sb:
        return
    if sa.points != sb.points:
        raise DimensionMismatch("objects live on different sample spaces")


def graph_is_connected(space: SampleSpace, active=None) -> bool:
    """Connectivity of the undirected support of the edge list.

    ``active`` optionally masks edges (parallel to ``space.graph``).
    """
    if space.graph is None:
        raise MissingGraph("space has no graph")
    n = space.n
    adj = [[] for _ in range(n)]
    for k, (i, j, _) in enumerate(space.graph):
        if active is not None and not active[k]:
            continue
        adj[i].append(j)
        adj[j].append(i)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return bool(seen.all())


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability vector on a sample space."""

    space: SampleSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.space.n,):
            raise DimensionMismatch(
                f"weight vector has shape {w.shape}, expected ({self.space.n},)"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.min(w) < 0.0:
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "weights", _frozen_array(w))

    @classmethod
    def uniform(cls, space: SampleSpace) -> "DiscreteDistribution":
        return cls(space, np.full(space.n, 1.0 / space.n))

    @classmethod
    def point_mass(cls, space: SampleSpace, index: int) -> "DiscreteDistribution":
        w = np.zeros(space.n)
        w[index] = 1.0
        return cls(space, w)

    def expect(self, values) -> float:
        v = values.values if isinstance(values, FunctionVec) else np.asarray(values)
        return float(self.weights @ v)


@dataclass(frozen=True, eq=False)
class FunctionVec:
    """Real-valued function on a sample space, stored pointwise."""

    space: SampleSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.space.n,):
            raise DimensionMismatch(
                f"function vector has shape {v.shape}, expected ({self.space.n},)"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite")
        object.__setattr__(self, "values", _frozen_array(v))

    def negated(self) -> "FunctionVec":
        return FunctionVec(self.space, -self.values)


# ---------------------------------------------------------------------------
# function classes


@dataclass(frozen=True)
class SymmetrizeResult:
    function_class: "FunctionClass"
    already_even: bool


@dataclass(frozen=True, eq=False)
class FunctionClass:
    """Base of the discriminator-class variants defined in ``balls``.

    Each variant implements the operations below for its own class: its
    gauge, its centered gauge (a minimizing shift and the gauge there), its
    IPM distance, its worst-case expectation over the distance ball, and its
    infimal-convolution penalty.  The base refuses every one of them.
    ``structured`` marks the six norm balls, whose gauge has a closed form and
    which are even by construction.  ``ball_max_points`` is the largest space
    the worst-case encoding accepts, when it has a cap.
    """

    space: SampleSpace

    structured = False
    ball_max_points = None

    def gauge(self, h, tolerances=None):
        raise UnsupportedVariant(f"no closed-form gauge for {type(self).__name__}")

    def centered_gauge(self, h, tolerances=None):
        raise UnsupportedVariant(f"no centered gauge for {type(self).__name__}")

    def distance(self, Q, P, tolerances=None):
        raise UnsupportedVariant(f"no distance for {type(self).__name__}")

    def worst_case(self, P, eps, h, tolerances=None):
        raise UnsupportedVariant(f"no ball encoding for {type(self).__name__}")

    def lambda_(self, P, eps, h, tolerances=None, reference=None):
        raise UnsupportedVariant(
            f"infimal convolution not implemented for {type(self).__name__}"
        )

    def is_even(self, probe_seed: int = 97) -> bool:
        if self.structured:
            return True
        raise UnsupportedVariant(f"evenness undefined for {type(self).__name__}")

    def symmetrized(self) -> SymmetrizeResult:
        if self.structured:
            return SymmetrizeResult(self, True)
        raise UnsupportedVariant(
            f"cannot symmetrize {type(self).__name__}; only explicit sets and the "
            "structured balls are supported"
        )

    def discretize(self, budget: int, seed: int):
        raise UnsupportedVariant("discretization applies to structured classes")


# ---------------------------------------------------------------------------
# structural helpers shared by the class variants


def sup_norm(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def lipschitz_constant(space: SampleSpace, values: np.ndarray) -> float:
    """Largest |v_i - v_j| / c(i, j) over point pairs."""
    if space.metric is None:
        raise MissingMetric("Lipschitz constant needs a metric")
    if space.n == 1:
        return 0.0
    diff = np.abs(values[:, None] - values[None, :])
    off = ~np.eye(space.n, dtype=bool)
    return float(np.max(diff[off] / space.metric[off]))


def metric_is_path(space: SampleSpace) -> bool:
    """True when c(i, j) equals the sum of adjacent gaps in index order."""
    c = space.metric
    if c is None or space.n < 3:
        return c is not None
    gaps = np.diag(c, k=1)
    cum = np.concatenate(([0.0], np.cumsum(gaps)))
    approx = np.abs(cum[:, None] - cum[None, :])
    return bool(np.max(np.abs(c - approx)) <= 1e-9 * (1.0 + np.max(c)))


def lipschitz_pairs(space: SampleSpace):
    """Point pairs whose difference quotients determine the Lipschitz constant.

    On a path metric the adjacent pairs suffice; otherwise all pairs.
    """
    if metric_is_path(space):
        return [(i, i + 1) for i in range(space.n - 1)]
    return [(i, j) for i in range(space.n) for j in range(i + 1, space.n)]


def sobolev_matrix(space: SampleSpace, mu: DiscreteDistribution) -> np.ndarray:
    """PSD matrix L with h' L h = sum_i mu_i sum_{(i,j) in graph} w_ij (h_j-h_i)^2."""
    if space.graph is None:
        raise MissingGraph("Sobolev seminorm needs a graph")
    n = space.n
    lap = np.zeros((n, n))
    for i, j, w in space.graph:
        a = mu.weights[i] * w
        lap[i, i] += a
        lap[j, j] += a
        lap[i, j] -= a
        lap[j, i] -= a
    return lap


def rkhs_norm(gram: np.ndarray, values: np.ndarray) -> float:
    return float(np.sqrt(max(values @ np.linalg.solve(gram, values), 0.0)))


# ---------------------------------------------------------------------------
# class-level transforms


def symmetrize_class(cls: FunctionClass) -> SymmetrizeResult:
    """Close an explicit class under negation (structured balls already are)."""
    return cls.symmetrized()


def class_is_even(cls: FunctionClass, probe_seed: int = 97) -> bool:
    """Whether the class is closed under negation.

    Structured balls are even by construction; explicit sets are checked
    member by member; a zeta ball is probed on random functions.
    """
    return cls.is_even(probe_seed)


def discretize_structured_class(cls: FunctionClass, budget: int, seed: int):
    """Sample `budget` boundary members of a structured class.

    Samples are drawn deterministically from the seed and form nested sets as
    the budget grows: the first ``m`` samples for budget ``m' > m`` coincide
    with the budget-``m`` output.  Every sample has gauge 1, so the resulting
    explicit set is a subset of the structured class.
    """
    return cls.discretize(budget, seed)
