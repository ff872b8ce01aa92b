"""The function-class variants.  Each one defines, for its own class, the
gauge, the centered gauge, the IPM distance, the worst-case expectation over
the distance ball, and the infimal-convolution penalty.

The public functions (``theta``, ``ipm_distance``, ``worst_case_expectation``,
``lambda_penalty``, ...) validate their inputs and call these methods.  The
matrices a variant needs (the Sobolev Laplacian and its eigendecomposition,
the ellipsoid norms of the quadratic balls) are built on first use and cached
on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .core import (
    DiscreteDistribution,
    FunctionClass,
    FunctionVec,
    SymmetrizeResult,
    _frozen_array,
    graph_is_connected,
    lipschitz_constant,
    lipschitz_pairs,
    require_same_space,
    rkhs_norm,
    sobolev_matrix,
    sup_norm,
)
from .dro import DroMethod, DroResult
from .errors import (
    DimensionMismatch,
    GraphDisconnected,
    HomogeneityViolated,
    MissingGraph,
    MissingMetric,
    NegativeZeta,
    NumericalBreakdown,
    SingularGram,
    SizeCapExceeded,
    UnsupportedVariant,
    ZeroMassMu,
)
from .ipm import TRANSPORT_MAX_POINTS, IpmValue
from .penalties import PenaltyValue
from .solvers import (
    DEFAULT_TOLERANCES,
    FREE,
    NONNEG,
    LpStatus,
    lp_problem,
    maximize_concave_quadratic_over_simplex,
    minimize_scalar_convex,
    project_simplex,
    solve_lp,
)

GRAM_MIN_EIG = 1e-10


def _as_distribution(space, q) -> DiscreteDistribution:
    q = np.maximum(np.asarray(q, dtype=float), 0.0)
    total = q.sum()
    if total <= 0.0:
        raise NumericalBreakdown("degenerate worst-case distribution")
    return DiscreteDistribution(space, q / total)


def _solve_ball_lp(problem, tolerances):
    sol = solve_lp(problem, tolerances)
    if sol.status != LpStatus.OPTIMAL:
        raise NumericalBreakdown("ball LP terminated abnormally (P is feasible)")
    return sol


def _explicit_ball_lp(h, p, members, eps, tolerances):
    """max <h, q> over the simplex subject to <f, q - p> <= eps per member."""
    n = h.size
    return _solve_ball_lp(
        lp_problem(
            h,
            eq=(np.ones((1, n)), np.array([1.0])),
            ub=(members, members @ p + eps),
        ),
        tolerances,
    )


def _split_lp(P, eps, h, nv, tolerances, **constraints) -> PenaltyValue:
    """Exact LP for the infimal convolution over a polyhedral class.

    Variables are the split h1 (free), the epigraph scalar t >= max(h1), and
    the class-specific gauge variables (nonnegative); the objective maximizes
    p'h1 - t - eps * (sum of gauge variables), whose negative is the penalty.
    """
    n = P.space.n
    c = np.zeros(nv)
    c[:n] = P.weights
    c[n] = -1.0
    c[n + 1 :] = -eps
    bounds = [FREE] * (n + 1) + [NONNEG] * (nv - n - 1)
    sol = solve_lp(lp_problem(c, bounds=bounds, **constraints), tolerances)
    h1 = sol.x[:n]
    return PenaltyValue(max(-sol.value, 0.0), (h1, h.values - h1))


# ---------------------------------------------------------------------------
# explicit sets


def _member_key(values: np.ndarray) -> bytes:
    return (values + 0.0).tobytes()  # fold -0.0 into +0.0


@dataclass(frozen=True, eq=False)
class Explicit(FunctionClass):
    """A finite, explicitly listed discriminator set."""

    functions: tuple = ()

    def __post_init__(self):
        fns = tuple(self.functions)
        if not fns:
            raise DimensionMismatch("an explicit class needs at least one member")
        for f in fns:
            if not isinstance(f, FunctionVec):
                raise TypeError("explicit members must be FunctionVec instances")
            require_same_space(self, f)
        object.__setattr__(self, "functions", fns)
        matrix = np.stack([f.values for f in fns])
        object.__setattr__(self, "matrix", _frozen_array(matrix))

    matrix: np.ndarray = field(init=False, repr=False, default=None)

    @property
    def size(self) -> int:
        return len(self.functions)

    def gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        m = self.size
        sol = solve_lp(lp_problem(-np.ones(m), eq=(self.matrix.T, h.values)), tolerances)
        if sol.status == LpStatus.INFEASIBLE:
            return PenaltyValue(np.inf, None)
        if sol.status != LpStatus.OPTIMAL:  # pragma: no cover - bounded below by 0
            raise NumericalBreakdown("gauge LP terminated abnormally")
        return PenaltyValue(max(-sol.value, 0.0), sol.x)

    def centered_gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        m = self.size
        a_eq = np.hstack([self.matrix.T, np.ones((self.space.n, 1))])
        sol = solve_lp(
            lp_problem(
                np.concatenate([-np.ones(m), [0.0]]),
                eq=(a_eq, h.values),
                bounds=[NONNEG] * m + [FREE],
            ),
            tolerances,
        )
        if sol.status == LpStatus.INFEASIBLE:
            return 0.0, PenaltyValue(np.inf, None)
        b = float(sol.x[m])
        return b, PenaltyValue(max(-sol.value, 0.0), sol.x[:m])

    def distance(self, Q, P, tolerances=DEFAULT_TOLERANCES):
        gaps = self.matrix @ (Q.weights - P.weights)
        best = int(np.argmax(gaps))
        return IpmValue(float(gaps[best]), self.functions[best])

    def worst_case(self, P, eps, h, tolerances=DEFAULT_TOLERANCES):
        sol = _explicit_ball_lp(h.values, P.weights, self.matrix, eps, tolerances)
        return DroResult(
            float(sol.value), _as_distribution(P.space, sol.x), DroMethod.EXACT_LP
        )

    def lambda_(self, P, eps, h, tolerances=DEFAULT_TOLERANCES, reference=None):
        n = P.space.n
        nv = n + 1 + self.size  # h1, t, conic weights w of h - h1
        a_eq = np.zeros((n, nv))
        a_eq[:, :n] = np.eye(n)
        a_eq[:, n + 1 :] = self.matrix.T
        a_ub = np.zeros((n, nv))
        a_ub[:, :n] = np.eye(n)
        a_ub[:, n] = -1.0
        return _split_lp(
            P, eps, h, nv, tolerances, eq=(a_eq, h.values), ub=(a_ub, np.zeros(n))
        )

    def is_even(self, probe_seed: int = 97) -> bool:
        return self.symmetrized().already_even

    def symmetrized(self) -> SymmetrizeResult:
        seen = {}
        for f in self.functions:
            seen.setdefault(_member_key(f.values), f)
        was_even = all(_member_key(-f.values) in seen for f in seen.values())
        members = list(seen.values())
        for f in list(members):
            key = _member_key(-f.values)
            if key not in seen:
                neg = f.negated()
                seen[key] = neg
                members.append(neg)
        return SymmetrizeResult(Explicit(self.space, tuple(members)), was_even)


# ---------------------------------------------------------------------------
# balls: unit sublevel sets of a gauge


@dataclass(frozen=True, eq=False)
class _Ball(FunctionClass):
    """Defaults shared by every variant but the explicit set.

    ``seminorm`` marks a gauge that ignores constant shifts.
    """

    structured = True
    seminorm = False

    def centered_gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        """A seminorm needs no shift; otherwise golden section over
        [min h, max h], which contains a minimizer for every implemented
        gauge."""
        if self.seminorm:
            return 0.0, self.gauge(h, tolerances)
        v = h.values
        lo, hi = float(v.min()), float(v.max())
        if hi - lo <= 1e-15:
            return lo, self.gauge(FunctionVec(h.space, v - lo), tolerances)
        b, val = minimize_scalar_convex(
            lambda b: self.gauge(FunctionVec(h.space, v - b), tolerances).value,
            lo,
            hi,
            tol=1e-10 * (1.0 + hi - lo),
        )
        return float(b), PenaltyValue(float(val))

    def _boundary_vertices(self) -> list:
        """Extreme points that lead the boundary sample."""
        return []

    def discretize(self, budget: int, seed: int) -> Explicit:
        if budget < 2:
            raise ValueError("budget must be at least 2")
        n = self.space.n
        rng = np.random.default_rng(seed)
        samples = self._boundary_vertices()[:budget]
        while len(samples) < budget:
            g = rng.standard_normal(n)
            if self.seminorm:
                g = g - g.mean()
            try:
                scale = self.gauge(FunctionVec(self.space, g)).value
            except NegativeZeta:  # zeta < 0 on the whole ray: no boundary point
                continue
            if scale <= 1e-12:
                continue
            samples.append(g / scale)
        fns = tuple(FunctionVec(self.space, v) for v in samples)
        return Explicit(self.space, fns)


# ---------------------------------------------------------------------------
# polyhedral balls


def _sup_rows(space, v, nv, col, add):
    """|(h - h1)_i| <= s, with s in column col."""
    for i in range(space.n):
        row = np.zeros(nv)
        row[i] = -1.0
        row[col] = -1.0
        add(row, -v[i])
        row = np.zeros(nv)
        row[i] = 1.0
        row[col] = -1.0
        add(row, v[i])


def _lip_rows(space, v, nv, col, add):
    """|(h - h1)_i - (h - h1)_j| <= s * c(i, j), with s in column col."""
    metric = space.metric
    for i, j in lipschitz_pairs(space):
        gap = v[i] - v[j]
        row = np.zeros(nv)
        row[i] = -1.0
        row[j] = 1.0
        row[col] = -metric[i, j]
        add(row, -gap)
        row = np.zeros(nv)
        row[i] = 1.0
        row[j] = -1.0
        row[col] = -metric[i, j]
        add(row, gap)


def _epigraph_lambda_lp(P, space, eps, h, tolerances, blocks) -> PenaltyValue:
    """Infimal-convolution LP over a polyhedral ball: one seminorm epigraph
    variable per row block."""
    n = P.space.n
    v = h.values
    nv = n + 1 + len(blocks)
    rows, rhs = [], []

    def add(row, b):
        rows.append(row)
        rhs.append(b)

    for i in range(n):  # h1_i <= t
        row = np.zeros(nv)
        row[i] = 1.0
        row[n] = -1.0
        add(row, 0.0)
    for k, block in enumerate(blocks):
        block(space, v, nv, n + 1 + k, add)
    return _split_lp(P, eps, h, nv, tolerances, ub=(np.array(rows), np.array(rhs)))


@dataclass(frozen=True, eq=False)
class SupNormBall(_Ball):
    """Functions bounded by one in sup norm."""

    def gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        return PenaltyValue(sup_norm(h.values))

    def centered_gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        v = h.values
        b = 0.5 * (v.max() + v.min())
        return float(b), PenaltyValue(0.5 * float(v.max() - v.min()))

    def distance(self, Q, P, tolerances=DEFAULT_TOLERANCES):
        delta = Q.weights - P.weights
        sign = np.sign(delta)
        sign[sign == 0.0] = 1.0
        return IpmValue(float(np.abs(delta).sum()), FunctionVec(Q.space, sign))

    def worst_case(self, P, eps, h, tolerances=DEFAULT_TOLERANCES):
        space = P.space
        n = space.n
        nv = 3 * n  # q, r+, r-
        c = np.concatenate([h.values, np.zeros(2 * n)])
        a_eq = np.zeros((n + 1, nv))
        a_eq[:n, :n] = np.eye(n)
        a_eq[:n, n : 2 * n] = -np.eye(n)
        a_eq[:n, 2 * n :] = np.eye(n)
        a_eq[n, :n] = 1.0
        b_eq = np.concatenate([P.weights, [1.0]])
        a_ub = np.zeros((1, nv))
        a_ub[0, n:] = 1.0
        sol = _solve_ball_lp(
            lp_problem(c, eq=(a_eq, b_eq), ub=(a_ub, np.array([eps]))), tolerances
        )
        return DroResult(
            float(sol.value), _as_distribution(space, sol.x[:n]), DroMethod.EXACT_LP
        )

    def lambda_(self, P, eps, h, tolerances=DEFAULT_TOLERANCES, reference=None):
        return _epigraph_lambda_lp(P, self.space, eps, h, tolerances, (_sup_rows,))

    def _boundary_vertices(self) -> list:
        """Coordinate-extreme sign vectors +/- (2 e_i - 1)."""
        samples = []
        for i in range(self.space.n):
            v = -np.ones(self.space.n)
            v[i] = 1.0
            samples.append(v)
            samples.append(-v)
        return samples


def _check_coupling_size(n, encoding):
    if n > TRANSPORT_MAX_POINTS:
        raise SizeCapExceeded(
            f"{encoding} supports at most {TRANSPORT_MAX_POINTS} points"
        )


@dataclass(frozen=True, eq=False)
class LipschitzBall(_Ball):
    """Functions with metric Lipschitz constant at most one."""

    seminorm = True
    ball_max_points = TRANSPORT_MAX_POINTS  # dense n^2-variable coupling LP

    def __post_init__(self):
        if self.space.metric is None:
            raise MissingMetric("a Lipschitz ball needs a metric on the space")

    def gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        return PenaltyValue(lipschitz_constant(self.space, h.values))

    def distance(self, Q, P, tolerances=DEFAULT_TOLERANCES):
        space = Q.space
        n = space.n
        _check_coupling_size(n, "transport distance")
        cost = space.metric.reshape(-1)
        a_eq = np.zeros((2 * n, n * n))
        for i in range(n):
            a_eq[i, i * n : (i + 1) * n] = 1.0  # row sums = q
            a_eq[n + i, i::n] = 1.0  # column sums = p
        b_eq = np.concatenate([Q.weights, P.weights])
        sol = solve_lp(lp_problem(-cost, eq=(a_eq, b_eq)), tolerances)
        if sol.status != LpStatus.OPTIMAL:
            raise NumericalBreakdown("transport LP terminated abnormally")
        plan = sol.x.reshape(n, n)
        return IpmValue(max(-sol.value, 0.0), plan)

    def worst_case(self, P, eps, h, tolerances=DEFAULT_TOLERANCES):
        space = P.space
        n = space.n
        _check_coupling_size(n, "the coupling encoding")
        cost = space.metric.reshape(-1)
        c = np.repeat(h.values, n)  # objective sum_ij h_i pi_ij
        a_eq = np.zeros((n, n * n))
        for j in range(n):
            a_eq[j, j::n] = 1.0  # column sums = p
        sol = _solve_ball_lp(
            lp_problem(
                c, eq=(a_eq, P.weights), ub=(cost.reshape(1, -1), np.array([eps]))
            ),
            tolerances,
        )
        plan = sol.x.reshape(n, n)
        return DroResult(
            float(sol.value), _as_distribution(space, plan.sum(axis=1)),
            DroMethod.EXACT_LP,
        )

    def lambda_(self, P, eps, h, tolerances=DEFAULT_TOLERANCES, reference=None):
        return _epigraph_lambda_lp(P, self.space, eps, h, tolerances, (_lip_rows,))


@dataclass(frozen=True, eq=False)
class DudleyBall(_Ball):
    """Functions with sup norm plus Lipschitz constant at most one."""

    def __post_init__(self):
        if self.space.metric is None:
            raise MissingMetric("a Dudley ball needs a metric on the space")

    def gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        v = h.values
        return PenaltyValue(sup_norm(v) + lipschitz_constant(self.space, v))

    def distance(self, Q, P, tolerances=DEFAULT_TOLERANCES):
        space = Q.space
        delta = Q.weights - P.weights
        n = space.n
        metric = space.metric
        nv = n + 2  # h, sup bound u, lipschitz bound v
        c = np.concatenate([delta, [0.0, 0.0]])
        rows, rhs = [], []
        for i in range(n):  # |h_i| <= u
            row = np.zeros(nv)
            row[i] = 1.0
            row[n] = -1.0
            rows.append(row)
            rhs.append(0.0)
            row = np.zeros(nv)
            row[i] = -1.0
            row[n] = -1.0
            rows.append(row)
            rhs.append(0.0)
        for i, j in lipschitz_pairs(space):  # |h_i - h_j| <= v c(i,j)
            row = np.zeros(nv)
            row[i] = 1.0
            row[j] = -1.0
            row[n + 1] = -metric[i, j]
            rows.append(row)
            rhs.append(0.0)
            rows.append(-row.copy())
            rows[-1][n + 1] = -metric[i, j]
            rhs.append(0.0)
        row = np.zeros(nv)
        row[n] = 1.0
        row[n + 1] = 1.0
        rows.append(row)
        rhs.append(1.0)
        bounds = [FREE] * n + [NONNEG, NONNEG]
        sol = solve_lp(
            lp_problem(c, ub=(np.array(rows), np.array(rhs)), bounds=bounds), tolerances
        )
        if sol.status != LpStatus.OPTIMAL:
            raise NumericalBreakdown("Dudley distance LP terminated abnormally")
        return IpmValue(float(sol.value), FunctionVec(space, sol.x[:n]))

    def worst_case(self, P, eps, h, tolerances=DEFAULT_TOLERANCES):
        """Column generation over sampled boundary functions."""
        space = P.space
        p = P.weights
        seed_members = self.discretize(4 * space.n, seed=0)
        members = [f.values for f in seed_members.functions]
        for _ in range(200):
            sol = _explicit_ball_lp(h.values, p, np.array(members), eps, tolerances)
            q = sol.x
            value = sol.value
            qdist = _as_distribution(space, q)
            sep = self.distance(qdist, P, tolerances)
            violation = sep.value - eps
            if violation <= tolerances.dudley_separation:
                break
            members.append(sep.witness.values)
        else:
            raise NumericalBreakdown("Dudley column generation failed to converge")
        gap = 0.0
        if violation > 0.0:
            gap = violation / max(sep.value, violation) * abs(float(h.values @ (q - p)))
        return DroResult(float(value), _as_distribution(space, q), DroMethod.EXACT_LP, gap)

    def lambda_(self, P, eps, h, tolerances=DEFAULT_TOLERANCES, reference=None):
        return _epigraph_lambda_lp(
            P, self.space, eps, h, tolerances, (_sup_rows, _lip_rows)
        )


# ---------------------------------------------------------------------------
# quadratic balls


class _EllipsoidNorm:
    """Machinery for c * sqrt(v' M v) penalties: value, prox, dual projection.

    Built from the eigendecomposition of a symmetric PSD M, singular ones
    (seminorms) included; eigenvalues below the cutoff span the free
    directions.
    """

    def __init__(self, eigval: np.ndarray, eigvec: np.ndarray, cutoff: float = 1e-10):
        scale = max(float(eigval.max()), 1.0)
        self.positive = eigval > cutoff * scale
        self.eigval = np.where(self.positive, eigval, 0.0)
        self.eigvec = eigvec

    @classmethod
    def of(cls, mat: np.ndarray) -> "_EllipsoidNorm":
        return cls(*np.linalg.eigh(0.5 * (mat + mat.T)))

    def value(self, v: np.ndarray) -> float:
        coeff = self.eigvec.T @ v
        return float(np.sqrt(max(np.sum(self.eigval * coeff**2), 0.0)))

    def project_dual(self, z: np.ndarray, radius: float) -> np.ndarray:
        """Projection onto {y in range(M): y' M^+ y <= radius^2}."""
        zc = self.eigvec.T @ z
        y = np.where(self.positive, zc, 0.0)
        lam = self.eigval
        pos = self.positive
        if radius <= 0.0:
            return np.zeros_like(z)
        inside = np.sum(np.where(pos, y**2 / np.where(pos, lam, 1.0), 0.0))
        if inside <= radius**2:
            return self.eigvec @ y
        # root of sum z_i^2 lam_i / (lam_i + t)^2 = radius^2, decreasing in t
        def excess(t):
            denom = lam + t
            return float(np.sum(np.where(pos, zc**2 * lam / denom**2, 0.0)))

        hi = float(lam.max())
        while excess(hi) > radius**2:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if excess(mid) > radius**2:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        y = np.where(pos, zc * lam / (lam + t), 0.0)
        return self.eigvec @ y

    def prox(self, z: np.ndarray, weight: float) -> np.ndarray:
        """prox of weight * sqrt(v' M v) at z (Moreau decomposition)."""
        return z - self.project_dual(z, weight)


def _quadratic_distance(space, quad, direction) -> IpmValue:
    """sqrt(quad), witnessed by direction / value away from zero."""
    value = float(np.sqrt(max(quad, 0.0)))
    witness = None
    if value > 1e-14:
        witness = FunctionVec(space, direction / value)
    return IpmValue(value, witness)


@dataclass(frozen=True, eq=False)
class _QuadraticBall(_Ball):
    """Balls {f : f' M f <= 1}.  The worst case runs a dual bisection and the
    penalty a Douglas-Rachford splitting; both are iterative.

    A subclass supplies ``_norm``, the ellipsoid norm of its gauge, and
    ``_ball_matrix``, the form D with d(Q, P)^2 = (q-p)' D (q-p) on the
    distance's finite domain, or overrides ``_ball_support`` when that
    domain is smaller than the space.
    """

    def _ball_support(self, p):
        """(mask of the points Q may move mass to, P's mass there, the
        distance form restricted to them)."""
        return np.ones(p.size, dtype=bool), 1.0, self._ball_matrix

    def worst_case(self, P, eps, h, tolerances=DEFAULT_TOLERANCES):
        """Dual bisection on the multiplier of the squared-distance constraint.

        The inner problem is a concave quadratic over the simplex; the outer
        dual function is convex in the multiplier and minimized by golden
        section on a bracket grown until the ball constraint goes slack.  The
        reported value comes from a certified-feasible primal point, with the
        primal-dual sandwich width as the gap estimate.
        """
        space = P.space
        v = h.values
        p = P.weights
        supp, mass, m_supp = self._ball_support(p)
        if mass <= 0.0 or eps == 0.0:  # the ball is {P}
            return DroResult(float(p @ v), P, DroMethod.EXACT_LP, 0.0)
        h_s = v[supp]
        p_s = p[supp]
        off_term = float(p[~supp] @ v[~supp])

        def distance(q_s):
            d = q_s - p_s
            return float(np.sqrt(max(d @ m_supp @ d, 0.0)))

        state = {"warm": p_s / mass if mass > 0 else None}

        def inner(lam):
            qmat = -lam * mass * mass * m_supp
            c = mass * h_s + 2.0 * lam * mass * (m_supp @ p_s)
            value, u = maximize_concave_quadratic_over_simplex(
                qmat, c, tol=tolerances.quad_pg_tol, tolerances=tolerances,
                start=state["warm"],
            )
            state["warm"] = u
            const = off_term - lam * float(p_s @ m_supp @ p_s)
            return value + const, mass * u

        def dual(lam):
            val, _ = inner(lam)
            return lam * eps * eps + val

        # unconstrained maximizer: if already inside the ball we are done
        val0, q0 = inner(0.0)
        if distance(q0) <= eps:
            q = p.copy()
            q[supp] = q0
            return DroResult(val0, _as_distribution(space, q), DroMethod.DUAL_BISECTION, 0.0)

        lam_max = (float(v.max()) - float(v.min())) / (eps * eps)
        lam_max = max(lam_max, 1e-6)
        for _ in range(80):
            _, q_hi = inner(lam_max)
            if distance(q_hi) <= eps:
                break
            lam_max *= 2.0

        golden = 0.5 * (np.sqrt(5.0) - 1.0)
        lam_star, _ = minimize_scalar_convex(
            dual, 0.0, lam_max, tol=lam_max * golden**tolerances.golden_iterations
        )
        dual_value = dual(lam_star)
        _, q_hat = inner(lam_star)
        d_hat = distance(q_hat)
        if d_hat > eps:
            q_hat = p_s + (q_hat - p_s) * (eps / d_hat)
        q = p.copy()
        q[supp] = q_hat
        primal_value = float(q @ v)
        gap = max(dual_value - primal_value, 0.0)
        return DroResult(
            primal_value, _as_distribution(space, q), DroMethod.DUAL_BISECTION, gap
        )

    def lambda_(self, P, eps, h, tolerances=DEFAULT_TOLERANCES, reference=None):
        """Douglas-Rachford splitting of [max(h1) - E_P[h1]] +
        eps * sqrt((h-h1)' M (h-h1)) over h1.

        Iterative: the result carries exact=False and the best split seen.
        """
        norm = self._norm
        v = h.values
        p = P.weights

        def peak(x):
            return float(x.max() - p @ x)

        def objective(x):
            return peak(x) + eps * norm.value(v - x)

        step = max(1.0, float(np.ptp(v)))

        def prox_peak(z):
            w = z + step * p
            return w - step * project_simplex(w / step)

        def prox_norm_part(z):
            return v - norm.prox(v - z, step * eps)

        target = None if reference is None else max(reference, 0.0)
        s = v.copy()
        best_x = v.copy()
        best_val = objective(best_x)
        scale = 1.0 + float(np.max(np.abs(v)))
        for _ in range(tolerances.iconv_max_iterations):
            xg = prox_peak(s)
            xf = prox_norm_part(2.0 * xg - s)
            s = s + xf - xg
            val = objective(xg)
            if val < best_val:
                best_val = val
                best_x = xg
            if np.max(np.abs(xf - xg)) <= tolerances.iconv_stop * scale:
                break
            if target is not None and best_val <= target + tolerances.iconv_requested_gap:
                break
        return PenaltyValue(max(best_val, 0.0), (best_x, v - best_x), exact=False)


@dataclass(frozen=True, eq=False)
class RkhsBall(_QuadraticBall):
    """Unit ball of the RKHS norm induced by a Gram matrix."""

    gram: np.ndarray = None

    def __post_init__(self):
        k = np.array(self.gram, dtype=float)
        n = self.space.n
        if k.shape != (n, n):
            raise DimensionMismatch(f"Gram matrix shape {k.shape} != ({n},{n})")
        if not np.all(np.isfinite(k)):
            raise ValueError("Gram entries must be finite")
        if np.max(np.abs(k - k.T)) > 1e-10 * (1.0 + np.max(np.abs(k))):
            raise SingularGram("Gram matrix is not symmetric")
        eigvals = np.linalg.eigvalsh(0.5 * (k + k.T))
        if eigvals.min() <= GRAM_MIN_EIG:
            raise SingularGram(
                f"Gram matrix min eigenvalue {eigvals.min():.3e} <= {GRAM_MIN_EIG}"
            )
        object.__setattr__(self, "gram", _frozen_array(0.5 * (k + k.T)))

    @cached_property
    def _norm(self) -> _EllipsoidNorm:
        eigval, eigvec = np.linalg.eigh(self.gram)
        return _EllipsoidNorm.of(eigvec @ np.diag(1.0 / eigval) @ eigvec.T)

    @property
    def _ball_matrix(self) -> np.ndarray:
        return np.asarray(self.gram)

    def gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        return PenaltyValue(rkhs_norm(self.gram, h.values))

    def centered_gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        v = h.values
        ones = np.ones(self.space.n)
        kinv_h = np.linalg.solve(self.gram, v)
        kinv_1 = np.linalg.solve(self.gram, ones)
        b = float(ones @ kinv_h) / float(ones @ kinv_1)
        centered = v - b
        val = float(np.sqrt(max(centered @ np.linalg.solve(self.gram, centered), 0.0)))
        return b, PenaltyValue(val)

    def distance(self, Q, P, tolerances=DEFAULT_TOLERANCES):
        delta = Q.weights - P.weights
        quad = float(delta @ self.gram @ delta)
        return _quadratic_distance(Q.space, quad, self.gram @ delta)


def _check_mu(cls_name, space, mu, allow_zero_mass):
    if not isinstance(mu, DiscreteDistribution):
        raise TypeError(f"{cls_name} needs a DiscreteDistribution mu")
    if mu.space.points != space.points:
        raise DimensionMismatch("mu lives on a different space")
    if not allow_zero_mass and np.min(mu.weights) <= 0.0:
        raise ZeroMassMu(
            f"{cls_name} requires full-support mu; pass allow_zero_mass=True "
            "to opt into infinite-distance semantics"
        )


@dataclass(frozen=True, eq=False)
class FisherBall(_QuadraticBall):
    """Functions with mu-weighted second moment at most one."""

    mu: DiscreteDistribution = None
    allow_zero_mass: bool = False

    def __post_init__(self):
        _check_mu("FisherBall", self.space, self.mu, self.allow_zero_mass)

    @cached_property
    def _norm(self) -> _EllipsoidNorm:
        return _EllipsoidNorm.of(np.diag(self.mu.weights))

    @cached_property
    def _support_inverse(self) -> np.ndarray:
        return np.diag(1.0 / self.mu.weights[self.mu.weights > 0.0])

    def _ball_support(self, p):
        supp = self.mu.weights > 0.0
        return supp, float(p[supp].sum()), self._support_inverse

    def gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        return PenaltyValue(float(np.sqrt(max(self.mu.weights @ h.values**2, 0.0))))

    def centered_gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        v = h.values
        b = float(self.mu.weights @ v)
        var = float(self.mu.weights @ (v - b) ** 2)
        return b, PenaltyValue(float(np.sqrt(max(var, 0.0))))

    def distance(self, Q, P, tolerances=DEFAULT_TOLERANCES):
        delta = Q.weights - P.weights
        mu = self.mu.weights
        off = mu <= 0.0
        if np.any(np.abs(delta[off]) > 1e-15):
            return IpmValue(np.inf, None)
        supp = ~off
        direction = np.zeros(Q.space.n)
        direction[supp] = delta[supp] / mu[supp]
        return _quadratic_distance(
            Q.space, float(np.sum(delta[supp] ** 2 / mu[supp])), direction
        )


@dataclass(frozen=True, eq=False)
class SobolevBall(_QuadraticBall):
    """Functions whose mu-weighted discrete gradient energy is at most one.

    The Laplacian L is assembled once and decomposed once; ``sobolev_matrix``
    builds it exactly symmetric, so the one decomposition serves the
    distance, the worst case and the penalty.
    """

    mu: DiscreteDistribution = None
    allow_zero_mass: bool = False
    seminorm = True

    def __post_init__(self):
        if self.space.graph is None:
            raise MissingGraph("a Sobolev ball needs a graph on the space")
        _check_mu("SobolevBall", self.space, self.mu, self.allow_zero_mass)
        if not graph_is_connected(self.space):
            raise GraphDisconnected("a Sobolev ball needs a connected graph")

    @cached_property
    def _laplacian(self) -> np.ndarray:
        return sobolev_matrix(self.space, self.mu)

    @cached_property
    def _spectrum(self):
        """(eigenvalues, eigenvectors, mask of the eigenvalues above cutoff)."""
        eigval, eigvec = np.linalg.eigh(self._laplacian)
        return eigval, eigvec, eigval > 1e-10 * max(float(eigval.max()), 1.0)

    @cached_property
    def _norm(self) -> _EllipsoidNorm:
        return _EllipsoidNorm(*self._spectrum[:2])

    @cached_property
    def _ball_matrix(self) -> np.ndarray:
        """The pseudo-inverse of L."""
        eigval, eigvec, positive = self._spectrum
        if np.sum(~positive) > 1:
            raise UnsupportedVariant(
                "worst-case over a Sobolev ball needs a connected effective graph"
            )
        inv = np.where(positive, 1.0 / np.where(positive, eigval, 1.0), 0.0)
        return eigvec @ np.diag(inv) @ eigvec.T

    def gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        v = h.values
        return PenaltyValue(float(np.sqrt(max(v @ self._laplacian @ v, 0.0))))

    def distance(self, Q, P, tolerances=DEFAULT_TOLERANCES):
        delta = Q.weights - P.weights
        eigval, eigvec, positive = self._spectrum
        coeff = eigvec.T @ delta
        null_mass = float(np.sqrt(np.sum(coeff[~positive] ** 2)))
        if null_mass > 1e-10 * (1.0 + float(np.abs(delta).sum())):
            return IpmValue(np.inf, None)  # perturbation leaves range(L)
        quad = float(np.sum(coeff[positive] ** 2 / eigval[positive]))
        pinv_coeff = np.where(positive, coeff / np.where(positive, eigval, 1.0), 0.0)
        return _quadratic_distance(Q.space, quad, eigvec @ pinv_coeff)


# ---------------------------------------------------------------------------
# homogeneous black-box penalties


@dataclass(frozen=True, eq=False)
class ZetaBall(_Ball):
    """Sublevel set of a positively homogeneous black-box penalty.

    ``zeta(a * h) == a**degree * zeta(h)`` is spot-checked at construction on
    16 deterministic random pairs.  Only the gauge and the centered gauge
    are defined.
    """

    zeta: Callable[[np.ndarray], float] = None
    degree: float = 1.0
    convex: bool = False
    structured = False

    def __post_init__(self):
        if not callable(self.zeta):
            raise TypeError("zeta must be callable")
        if not (np.isfinite(self.degree) and self.degree > 0.0):
            raise ValueError("degree must be positive")
        rng = np.random.default_rng(1618)
        for _ in range(16):
            a = float(rng.uniform(0.5, 2.0))
            h = rng.standard_normal(self.space.n)
            lhs = float(self.zeta(a * h))
            rhs = a ** self.degree * float(self.zeta(h))
            if abs(lhs - rhs) > 1e-9 * (1.0 + abs(rhs)):
                raise HomogeneityViolated(
                    f"zeta(a*h) = {lhs!r} but a^k*zeta(h) = {rhs!r}"
                )

    def gauge(self, h, tolerances=DEFAULT_TOLERANCES):
        z = float(self.zeta(h.values))
        if z < 0.0:
            raise NegativeZeta(f"zeta returned {z!r}")
        value = z ** (1.0 / self.degree) if z > 0.0 else 0.0
        return PenaltyValue(value, exact=bool(self.convex))

    def is_even(self, probe_seed: int = 97) -> bool:
        rng = np.random.default_rng(probe_seed)
        for _ in range(16):
            h = rng.standard_normal(self.space.n)
            a, b = float(self.zeta(h)), float(self.zeta(-h))
            if abs(a - b) > 1e-9 * (1.0 + abs(a)):
                return False
        return True
