"""Finite sample spaces, distributions, pointwise functions, the base of the
function classes that parameterize the supported divergences (the variants
live in ``balls``), and the structural helpers the variants share.

Every type is immutable after construction and validated eagerly, so the
numerical modules can assume well-formed inputs.  The transport balls read
the dense metric only through ``c_transform``, ``plan_cost`` and
``lipschitz_pairs``, whose path test ``SampleSpace`` makes once; the first
two compute every point's row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    AsymmetricMetric,
    DimensionMismatch,
    EpsNegative,
    EpsNonPositive,
    MissingGraph,
    SelfLoop,
    TriangleInequalityViolated,
    UnsupportedVariant,
)

METRIC_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values``: the one copy a value type makes."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_triangle(c: np.ndarray, slack: np.ndarray, tol: float) -> None:
    """Refuse a metric c with c_ij > c_ik + c_kj + tol, naming the violation
    of least k, then least (i, j), and its excess over c_ik + c_kj; one pass
    per k in ``slack``."""
    for k in range(c.shape[0]):  # slack = c - (c[:, k] + c[k, :]), in place
        np.add(c[:, k : k + 1], c[k : k + 1, :], out=slack)
        np.subtract(c, slack, out=slack)
        if slack.max() > tol:
            i, j = np.argwhere(slack > tol)[0]
            raise TriangleInequalityViolated(
                f"c({i},{j}) > c({i},{k}) + c({k},{j}) by {slack[i, j]:.3g} (tol {tol:.3g})"
            )


@dataclass(frozen=True, eq=False)
class SampleSpace:
    """Finite ground set with an optional metric and an optional weighted graph.

    Point labels are opaque strings, unique within the space (a repeated
    label is a ValueError naming it); all numerics operate on indices.  The
    metric must be finite, symmetric, zero on the diagonal and satisfy the
    triangle inequality, each to ``tol = METRIC_TOL * max |c|``, so the
    verdict does not depend on the metric's units.  One line test,
    ``|c_ij - |c_0j - c_0i|| <= 0.3 tol`` for all i, j, proves the triangle
    inequality in O(n^2) and, with ``c[0]`` increasing strictly, makes the
    metric a path metric in index order; any other metric takes one pass per
    intermediate point ``k`` in one reused n x n buffer.  The graph is a
    tuple of ``(i, j, w)`` edges with integer endpoints and ``w > 0``; each
    stored edge contributes to the discrete gradient at its source ``i``, so
    callers who want a symmetric neighbourhood list both orientations.
    """

    points: tuple
    metric: Optional[np.ndarray] = None
    graph: Optional[tuple] = None
    # a path metric in index order, whose adjacent pairs fix the Lipschitz
    # constant (``lipschitz_pairs``); decided with the metric's validation
    _path: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        points = tuple(str(p) for p in self.points)
        if len(points) < 1:
            raise DimensionMismatch("a sample space needs at least one point")
        if len(set(points)) != len(points):
            seen = set()
            for p in points:
                if p in seen:
                    raise ValueError(f"repeated point label {p!r}")
                seen.add(p)
        object.__setattr__(self, "points", points)
        n = len(points)

        if self.metric is not None:
            c = _frozen_array(self.metric)
            if c.shape != (n, n):
                raise DimensionMismatch(f"metric shape {c.shape} does not match {n} points")
            if not np.isfinite(c).all():
                raise ValueError("metric entries must be finite")
            tol = METRIC_TOL * np.abs(c).max()
            slack = np.abs(c - c.T)
            i, j = np.unravel_index(slack.argmax(), slack.shape)
            if slack[i, j] > tol:
                raise AsymmetricMetric(f"metric matrix is not symmetric: |c({i},{j}) - "
                                       f"c({j},{i})| = {slack[i, j]:.3g} (tol {tol:.3g})")
            k = np.abs(np.diag(c)).argmax()
            if abs(c[k, k]) > tol:
                raise ValueError(f"metric diagonal must be zero: c({k},{k}) = {c[k, k]:.3g}")
            if n > 1 and np.min(c[~np.eye(n, dtype=bool)]) <= 0.0:
                raise ValueError("metric must be strictly positive off the diagonal")
            # The line test: if the slack |c_ij - |c_0j - c_0i|| is at most
            # 0.3 tol for all i, j, then c_ij - c_ik - c_kj <= 0.9 tol + 5 u max c
            # < tol, with u = 2^-53 the rounding of this test and of the loop,
            # so the loop would find no violation; with c[0] increasing
            # strictly, c is a path metric in index order.  Any other metric
            # takes the loop; both reuse the symmetry test's buffer.
            np.abs(np.subtract.outer(c[0], c[0], out=slack), out=slack)
            np.abs(np.subtract(c, slack, out=slack), out=slack)
            line = slack.max() <= 0.3 * tol
            object.__setattr__(self, "_path", bool(line and np.all(np.diff(c[0]) > 0.0)))
            if not line:
                _check_triangle(c, slack, tol)
            object.__setattr__(self, "metric", c)

        if self.graph is not None:
            edges = []
            for e in self.graph:
                if len(e) != 3:
                    raise ValueError(f"edge {e!r} must have three entries (i, j, w)")
                if any(isinstance(x, (bool, np.bool_)) for x in e):
                    raise ValueError(f"edge {e!r} holds a bool, not a number")
                i, j, w = int(e[0]), int(e[1]), float(e[2])
                if (i, j) != (e[0], e[1]):
                    raise ValueError(f"edge ({e[0]!r},{e[1]!r}) endpoints must be integers")
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


def check_radius(eps, allow_zero: bool = False) -> None:
    """Refuse a ball radius that is not a finite positive number (finite and
    nonnegative with ``allow_zero``): EpsNonPositive, or EpsNegative when
    zero is allowed.  NaN, infinite and boolean radii are refused too."""
    boolean = isinstance(eps, (bool, np.bool_))
    if allow_zero:
        if boolean or not 0.0 <= eps < np.inf:
            raise EpsNegative(f"eps must be finite and nonnegative, got {eps!r}")
    elif boolean or not 0.0 < eps < np.inf:
        raise EpsNonPositive(f"eps must be finite and positive, got {eps!r}")


def check_count(name: str, value, least: int) -> None:
    """Refuse a count below ``least``, a bool or a non-integer, naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def graph_is_connected(space: SampleSpace) -> bool:
    """Connectivity of the undirected support of the edge list."""
    if space.graph is None:
        raise MissingGraph("space has no graph")
    n = space.n
    adj = [[] for _ in range(n)]
    for i, j, _ in space.graph:
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
        w = _frozen_array(self.weights)
        if w.shape != (self.space.n,):
            raise DimensionMismatch(
                f"weight vector has shape {w.shape}, expected ({self.space.n},)"
            )
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if w.min() < 0.0:
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, space: SampleSpace) -> "DiscreteDistribution":
        return cls(space, np.full(space.n, 1.0 / space.n))

    @classmethod
    def point_mass(cls, space: SampleSpace, index: int) -> "DiscreteDistribution":
        """All mass on point ``index``, an integer (not a bool) in range(n)."""
        if (isinstance(index, bool) or not isinstance(index, (int, np.integer))
                or not 0 <= index < space.n):
            raise ValueError(f"point_mass index must be an integer in range({space.n}), "
                             f"got {index!r}")
        w = np.zeros(space.n)
        w[index] = 1.0
        return cls(space, w)


@dataclass(frozen=True, eq=False)
class FunctionVec:
    """Real-valued function on a sample space, stored pointwise."""

    space: SampleSpace
    values: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.values)
        if v.shape != (self.space.n,):
            raise DimensionMismatch(
                f"function vector has shape {v.shape}, expected ({self.space.n},)"
            )
        if not np.isfinite(v).all():
            raise ValueError("function values must be finite")
        object.__setattr__(self, "values", v)

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
    which are even by construction.
    """

    space: SampleSpace

    structured = False

    def gauge(self, h):
        raise UnsupportedVariant(f"no closed-form gauge for {type(self).__name__}")

    def centered_gauge(self, h):
        raise UnsupportedVariant(f"no centered gauge for {type(self).__name__}")

    def distance(self, Q, P):
        raise UnsupportedVariant(f"no distance for {type(self).__name__}")

    def worst_case(self, P, eps, h):
        raise UnsupportedVariant(f"no ball encoding for {type(self).__name__}")

    def lambda_(self, P, eps, h):
        raise UnsupportedVariant(
            f"infimal convolution not implemented for {type(self).__name__}"
        )

    def is_even(self) -> bool:
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
    """Largest |v_i - v_j| / c(i, j) over the pairs of ``lipschitz_pairs``,
    which fix it: O(n) on a path metric, one quotient per pair i < j on any
    other; 0.0 on one point."""
    i, j, cost = lipschitz_pairs(space)
    quotient = values[i] - values[j]
    np.abs(quotient, out=quotient)
    quotient /= cost
    return float(quotient.max(initial=0.0))


def lipschitz_pairs(space: SampleSpace):
    """(i, j, c(i, j)) over the pairs whose difference quotients fix the
    Lipschitz constant: on a path metric, where the cost is additive, the
    adjacent pairs in index order; otherwise every i < j, row by row."""
    n = space.n
    if space._path:
        i, j = np.arange(n - 1), np.arange(1, n)
    else:  # np.triu_indices(n, 1) in half its time: row i pairs with i+1..n-1
        length = n - 1 - np.arange(n)
        i = np.repeat(np.arange(n), length)
        j = np.arange(i.size) + np.repeat(n - np.cumsum(length), length)
    return i, j, space.metric[i, j]


def c_transform(space: SampleSpace, g: np.ndarray, lam: float):
    """(values, plan): max_j (g_j - lam c_ij) for every row i, and the
    lowest-index j attaining it.  One n x n array is allocated."""
    gain = np.multiply(space.metric, lam)
    np.subtract(g, gain, out=gain)
    plan = gain.argmax(axis=1)
    return gain[np.arange(plan.size), plan], plan


def plan_cost(space: SampleSpace, plan: np.ndarray) -> np.ndarray:
    """c(i, plan[i]): the cost of each row's move under ``plan``."""
    return space.metric[np.arange(plan.size), plan]


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


# ---------------------------------------------------------------------------
# class-level transforms


def symmetrize_class(cls: FunctionClass) -> SymmetrizeResult:
    """Close an explicit class under negation (structured balls already are)."""
    return cls.symmetrized()


def class_is_even(cls: FunctionClass) -> bool:
    """Whether the class is closed under negation.

    Structured balls are even by construction; explicit sets are checked
    member by member; a zeta ball is probed on 16 random functions drawn
    from a fixed seed, so the answer is deterministic.
    """
    return cls.is_even()


def discretize_structured_class(cls: FunctionClass, budget: int, seed: int):
    """Sample `budget` boundary members of a structured class.

    Samples are drawn deterministically from the seed and form nested sets as
    the budget grows: the first ``m`` samples for budget ``m' > m`` coincide
    with the budget-``m`` output.  Every sample has gauge 1, so the resulting
    explicit set is a subset of the structured class.  A class whose draws
    find no boundary point within 100 draws per sample raises
    NumericalBreakdown.
    """
    return cls.discretize(budget, seed)
