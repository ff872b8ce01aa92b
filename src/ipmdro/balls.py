"""The function-class variants.  Each one defines, for its own class, the
gauge, the centered gauge, the IPM distance, the worst-case expectation over
the distance ball, and the infimal-convolution penalty.

The public functions (``theta``, ``ipm_distance``, ``worst_case_expectation``,
``lambda_penalty``, ...) validate their inputs and call these methods.  A
quadratic ball's spectrum is built once and cached on the instance: on first
use, or for RKHS at construction, where the same decomposition checks the
Gram matrix.  An explicit set's worst case and penalty LP, and its gauges up
to ``GAUGE_DUAL_MEMBERS`` members, start at their slack basis, so none runs
phase 1.  The sup-norm ball's worst case and penalty are closed forms of
total variation, one sort of h each; the Lipschitz ball's, and the Dudley
worst case, come from a transport dual over the metric, which the balls
read only through ``core``'s c-transform, plan costs and Lipschitz pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    DiscreteDistribution,
    FunctionClass,
    FunctionVec,
    SymmetrizeResult,
    _frozen_array,
    c_transform,
    check_count,
    graph_is_connected,
    lipschitz_constant,
    lipschitz_pairs,
    plan_cost,
    require_same_space,
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
    UnsupportedVariant,
    ZeroMassMu,
)
from .ipm import IpmValue
from .penalties import PenaltyValue
from .solvers import (
    FREE,
    ICONV_MAX_ITERATIONS,
    ICONV_STOP,
    LP_DUALITY_GAP,
    LP_FEASIBILITY,
    LP_REDUCED_COST,
    NONNEG,
    LpStatus,
    check_dense_size,
    lp_problem,
    minimize_scalar_convex,
    project_simplex,
    solve_lp,
)

GRAM_MIN_EIG = 1e-10
# Members up to which an explicit set's gauges are posed as their duals (see
# Explicit._conic_lp).  The dual skips phase 1 and a third of the pivots,
# but its dense basis inverse is m x m; past a few dozen members that costs
# more than the primal's phase 1 does.  Dual time over primal time, gauge
# plus centered gauge on a discretized Fisher ball (one core, best of 3):
# 0.64-0.84 at 33 members on 4-24 points but 1.17 on 40; 0.62-1.07 at 64;
# 0.89-2.2 at 128; 2.3-6.5 at 256; 7.7-26 at 512.  No one count is best at
# every size, so this one is a compromise.
GAUGE_DUAL_MEMBERS = 32


def _as_distribution(space, q) -> DiscreteDistribution:
    q = np.maximum(np.asarray(q, dtype=float), 0.0)
    total = q.sum()
    if total <= 0.0:
        raise NumericalBreakdown("degenerate worst-case distribution")
    return DiscreteDistribution(space, q / total)


def _require_optimal(sol, what):
    if sol.status != LpStatus.OPTIMAL:
        raise NumericalBreakdown(f"{what} terminated abnormally")
    return sol


def _solve_exact_lp(problem, what="ball LP (P is feasible)"):
    return _require_optimal(solve_lp(problem), what)


# ---------------------------------------------------------------------------
# explicit sets


def _bounds(nonneg: int, free: int) -> np.ndarray:
    """Bounds of an LP over ``nonneg`` NONNEG variables followed by ``free``
    FREE ones."""
    bounds = np.empty((nonneg + free, 2))
    bounds[:nonneg] = NONNEG
    bounds[nonneg:] = FREE
    return bounds


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

    def _conic_lp(self, v, shift, what):
        """min sum(w) over w >= 0, and a free shift b when ``shift``, with
        M'w + b = v; returns b and the value with its witness w, +infinity
        when v - b lies outside the members' cone for every b.

        Up to GAUGE_DUAL_MEMBERS members it is posed as its dual, max <v, y>
        over free y with M y <= 1, whose slack basis y = 0 is feasible, so no
        phase 1 runs; the row duals are w, and an unbounded dual means v lies
        outside the cone.  The shift restricts the dual to 1'y = 0, which
        holds by substituting y_n = -sum(y_<n): the objective becomes
        v_<n - v_n, the rows M~ = M[:, :n-1] - M[:, n-1], and
        b = v_n - (M'w)_n.  Writing 1'y = 0 as two rows instead starts with
        both tight and takes about a third more pivots.  On one point
        v - v_0 is zero: no LP.  A larger set poses the primal as it stands:
        its n equality rows need a phase 1 but keep the dense basis inverse
        n x n, where the dual's is m x m."""
        m, n = self.size, v.size
        if m <= GAUGE_DUAL_MEMBERS:
            c, rows = v, self.matrix
            if shift:
                if n == 1:
                    return float(v[0]), PenaltyValue(0.0, np.zeros(m))
                c, rows = v[:-1] - v[-1], rows[:, :-1] - rows[:, -1:]
            sol = solve_lp(lp_problem(c, ub=(rows, np.ones(m)), bounds=_bounds(0, c.size)))
            if sol.status == LpStatus.UNBOUNDED:
                return 0.0, PenaltyValue(np.inf, None)
            _require_optimal(sol, what)
            # a row dual is at least -LP_REDUCED_COST at optimum; rounding
            # below zero, -0.0 included, becomes +0.0
            w = np.maximum(sol.dual_ub, 0.0)
            b = float(v[-1] - self.matrix[:, -1] @ w) if shift else 0.0
            return b, PenaltyValue(max(0.0, sol.value), w)
        k = int(shift)  # the shift's column, if any
        c = np.zeros(m + k)
        c[:m] = -1.0
        # the layout np.hstack left: the certificate's a_eq @ x reads it, and
        # another one can move the residual's last bit
        a_eq = np.empty((n, m + k), order="F" if shift else "C")
        a_eq[:, :m] = self.matrix.T
        a_eq[:, m:] = 1.0
        sol = solve_lp(lp_problem(c, eq=(a_eq, v), bounds=_bounds(m, k)))
        if sol.status == LpStatus.INFEASIBLE:
            return 0.0, PenaltyValue(np.inf, None)
        _require_optimal(sol, what)
        b = float(sol.x[m]) if shift else 0.0
        return b, PenaltyValue(max(0.0, -sol.value), sol.x[:m])

    def gauge(self, h):
        """min sum(w) over w >= 0 with M'w = h, its witness w; +infinity
        when h lies outside the members' cone."""
        return self._conic_lp(h.values, False, "gauge LP")[1]

    def centered_gauge(self, h):
        """The gauge with a free shift b, M'w + b = h: (b*, value)."""
        return self._conic_lp(h.values, True, "centered gauge LP")

    def distance(self, Q, P):
        gaps = self.matrix @ (Q.weights - P.weights)
        best = int(np.argmax(gaps))
        return IpmValue(float(gaps[best]), self.functions[best])

    def worst_case(self, P, eps, h):
        """max <h, q> over the simplex subject to <f, q - p> <= eps per
        member, posed over the move d = q - p with d_n = -sum(d_<n)
        substituted: -d <= p_<n, sum d <= p_n and M~ d <= eps, where
        M~ = M[:, :n-1] - M[:, n-1] is M on sum-zero vectors.  Every
        right-hand side is non-negative, so the slack basis d = 0, q = P, is
        feasible and no phase 1 runs.  Writing sum d = 0 as two rows instead
        starts with both tight and takes about a third more pivots.  On one
        point q = P: no LP."""
        n, v, p, members = self.space.n, h.values, P.weights, self.matrix
        if n == 1:
            return DroResult(float(v[0]), _as_distribution(P.space, p), DroMethod.EXACT_LP)
        rows = np.zeros((n + self.size, n - 1))
        np.fill_diagonal(rows, -1.0)  # -I in the first n - 1 rows
        rows[n - 1] = 1.0
        np.subtract(members[:, :-1], members[:, -1:], out=rows[n:])
        rhs = np.empty(n + self.size)
        rhs[:n] = p
        rhs[n:] = eps
        sol = _solve_exact_lp(lp_problem(v[:-1] - v[-1], ub=(rows, rhs), bounds=_bounds(0, n - 1)))
        move = np.empty(n)
        move[:-1] = sol.x
        move[-1] = -sol.x.sum()
        q = p + move
        return DroResult(float(v @ q), _as_distribution(P.space, q), DroMethod.EXACT_LP)

    def lambda_(self, P, eps, h):
        """Penalty LP over the conic weights w >= 0 of h2 = M'w and a free
        shift s, with h1 = h - M'w and t = max h + s substituted:

            maximize -(M p + eps)'w - s  s.t.  -M'w - s <= max h - h,

        so the penalty is max h - E_P h - opt.  Every right-hand side is
        non-negative, so the slack basis is feasible and phase 1 never runs.
        """
        members, v, m = self.matrix, h.values, self.size
        top = float(v.max())
        c = np.empty(m + 1)
        np.negative(members @ P.weights, out=c[:m])
        c[:m] -= eps
        c[m] = -1.0
        # column-major, as np.hstack left it: the certificate's a_ub @ x reads
        # this layout, and another one can move the residual's last bit
        a_ub = np.empty((v.size, m + 1), order="F")
        np.negative(members.T, out=a_ub[:, :m])
        a_ub[:, m] = -1.0
        sol = _solve_exact_lp(lp_problem(c, ub=(a_ub, top - v), bounds=_bounds(m, 1)), "penalty LP")
        h2 = members.T @ sol.x[: self.size]
        value = top - float(P.weights @ v) - sol.value
        return PenaltyValue(max(value, 0.0), (v - h2, h2))

    def is_even(self) -> bool:
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

    def _boundary_vertices(self) -> list:
        """Extreme points that lead the boundary sample."""
        return []

    def discretize(self, budget: int, seed: int) -> Explicit:
        """Scale Gaussian draws onto the boundary after the leading vertices.

        A draw with a zero gauge has no boundary point and is skipped; after
        100 draws per sample in the budget the class is taken to have no
        boundary reachable this way (a zeta that vanishes everywhere, or a
        seminorm on one point), and NumericalBreakdown is raised.
        """
        check_count("budget", budget, 2)
        n = self.space.n
        rng = np.random.default_rng(seed)
        samples = self._boundary_vertices()[:budget]
        draws = 0
        while len(samples) < budget:
            if draws == 100 * budget:
                raise NumericalBreakdown(
                    f"{type(self).__name__}.discretize: {draws} draws found "
                    f"{len(samples)} of {budget} boundary points"
                )
            draws += 1
            g = rng.standard_normal(n)
            if self.seminorm:
                g = g - g.mean()
            try:
                scale = self.gauge(FunctionVec(self.space, g)).value
            except NegativeZeta:  # zeta < 0 or NaN on the ray: no boundary point
                continue
            if scale <= 1e-12:
                continue
            samples.append(g / scale)
        fns = tuple(FunctionVec(self.space, v) for v in samples)
        return Explicit(self.space, fns)


# ---------------------------------------------------------------------------
# flow LPs
#
# The Dudley ball is the unit ball of the sup norm plus the Lipschitz
# constant, a sum of two seminorm blocks.  A block is
# max_k |f[i_k] - f[j_k]| / cost_k over its atoms (i_k, j_k, cost_k); the sup
# block has no j, so f[j] reads as zero.  Two LPs are built from the atoms:
# the penalty LP, whose rows bound each atom, and the distance LP, whose flow
# columns move one unit of mass onto i_k (and off j_k) at cost cost_k, one
# pair of opposite columns per atom.  The Lipschitz block is
# ``core.lipschitz_pairs``.  The Dudley ball poses both LPs; the Lipschitz
# ball, one block, only the distance LP.  Each LP's size is checked
# against the dense cap before its matrices are allocated.


def _sup_block(space):
    """The sup norm: one atom per point at cost one."""
    return np.arange(space.n), None, np.ones(space.n)


def _atom_count(atoms) -> int:
    return sum(i.size for i, _, _ in atoms)


def _penalty_rows(n, atoms, v):
    """h1_i <= t (t in column n), then one row per flow column of
    ``_flow_columns``: -(flow' h1 + cost * s) <= -flow' h, s in the block's
    column.  A block's opposite columns k and K + k give the two rows of
    |(h - h1)[i] - (h - h1)[j]| <= s * cost, placed next to each other."""
    flows, costs = _flow_columns(n, atoms)
    order, left = [], 0
    for i, _, _ in atoms:  # k, K + k for each k < K, block by block
        order.append(left + np.arange(2 * i.size).reshape(2, -1).T.ravel())
        left += 2 * i.size
    order = np.concatenate(order)
    top = np.hstack([np.eye(n), -np.ones((n, 1)), np.zeros((n, len(atoms)))])
    # 0.0 - x rather than -x, so that zero entries stay +0.0
    rows = 0.0 - np.hstack([flows.T, np.zeros((order.size, 1)), costs.T])[order]
    return np.vstack([top, rows]), np.concatenate([np.zeros(n), -(flows.T @ v)[order]])


def _flow_columns(n, atoms):
    """(flows, costs): the columns [G, -G] of each block in turn, G[:, k] =
    e_{i_k} - e_{j_k}, and one row per block holding its columns' costs."""
    flows = np.zeros((n, 2 * _atom_count(atoms)))
    costs = np.zeros((len(atoms), flows.shape[1]))
    left = 0
    for row, (i, j, cost) in enumerate(atoms):
        k = i.size
        cols = left + np.arange(k)
        flows[i, cols] = 1.0
        if j is not None:
            flows[j, cols] = -1.0
        flows[:, left + k : left + 2 * k] = -flows[:, left : left + k]
        costs[row, left : left + k] = cost
        costs[row, left + k : left + 2 * k] = cost
        left += 2 * k
    return flows, costs


def _flow_distance(ball, atoms, Q, P):
    """The dual norm of q - p, a min-cost flow: the least t such that q - p
    is the sum of the flows of the blocks ``atoms``, each costing at most t."""
    n = ball.space.n
    nb, nf = len(atoms), 2 * _atom_count(atoms)
    check_dense_size(nf + 1, n + nb)
    flows, costs = _flow_columns(n, atoms)
    sol = _solve_exact_lp(  # maximize -t over (flows, t)
        lp_problem(
            np.concatenate([np.zeros(nf), [-1.0]]),
            eq=(np.hstack([flows, np.zeros((n, 1))]), Q.weights - P.weights),
            ub=(np.hstack([costs, -np.ones((nb, 1))]), np.zeros(nb)),
        ),
        "flow distance LP",
    )
    # The duals meet the ball's constraints only up to the LP's reduced-cost
    # tolerance, so they are scaled back into the ball; the witness then
    # bounds the distance from below as the flows do above.
    f = FunctionVec(ball.space, -sol.dual_eq)
    witness = FunctionVec(ball.space, f.values / max(ball.gauge(f).value, 1.0))
    return IpmValue(max(0.0, -sol.value), witness)


# ---------------------------------------------------------------------------
# the sup-norm ball: total variation in closed form
#
# The sup-norm distance is the total variation |q - p|_1, so the worst case
# moves eps/2 of P's mass from the lowest values of h onto argmax h.  For
# every t <= max h, h <= max(h, t) and max(h, t) - (max h + t)/2 is at most
# (max h - t)/2 in absolute value, so every Q in the ball has
#     E_Q[h] <= G(t) = (max h - t) eps/2 + E_P max(h, t),
# the transport dual under the cost 2 (1 - I) at lam = (max h - t)/2.  G is
# least at the eps/2 quantile t* of h under P, where the greedy move stops.


def _drain(v, p, budget):
    """(q, t): q moves ``budget`` of p's mass, lowest v first in stable
    order, onto the first argmax of v, or all the mass below max v if that
    is less; t is v at the last point drained, or max v once that mass runs
    out.  The transport dual drains a piece's rows with max h appended as a
    zero-mass target; a budget of 0 returns p as it is."""
    top = int(np.argmax(v))
    order = np.argsort(v, kind="stable")
    below = order[: np.searchsorted(v[order], v[top])]
    cum = np.cumsum(p[below])
    k = int(np.searchsorted(cum, budget))
    q = p.copy()
    q[below[:k]] = 0.0
    if k == below.size:  # the mass below max v runs out
        q[top] += cum[-1] if k else 0.0
        return q, float(v[top])
    q[below[k]] = cum[k] - budget
    q[top] += budget
    return q, float(v[below[k]])


def _tv_threshold(v, p, eps):
    """t*, the least point of G: the first v, ascending, at which P's
    cumulative mass reaches eps/2, or max v when it never does."""
    order = np.argsort(v, kind="stable")
    k = int(np.searchsorted(np.cumsum(p[order]), 0.5 * eps))
    return float(v[order[min(k, v.size - 1)]])


def _split_penalty(ball, P, eps, h, h2):
    """The split (h - h2, h2), h2 at its least-gauge shift b, valued as
    J_P(h1) + eps * Theta(h2) through the centered gauge; J_P ignores the
    shift.  ``+ 0.0`` folds -0.0 into +0.0: which of two equal zeros a
    maximum returns is numpy's choice."""
    v = h.values
    b, gauge = ball.centered_gauge(FunctionVec(h.space, h2))
    h2 = h2 - b
    h1 = v - h2
    value = float(h1.max() - P.weights @ h1) + eps * gauge.value
    return PenaltyValue(max(value, 0.0), (h1 + 0.0, h2 + 0.0))


def _transport_result(ball, P, h, q, budgets, bound, at):
    """The worst case E_Q[h] of a transport ball, certified: q spends at most
    each budget's (name, limit, spent, tight) limit, all of it when tight,
    and E_Q[h] meets the dual ``bound``, at the dual point ``at``."""
    value = float(q @ h.values)
    gap = abs(value - bound)
    for name, limit, spent, tight in budgets:
        residual = abs(spent - limit) if tight else spent - limit
        if residual > LP_FEASIBILITY * (1.0 + limit) or gap > LP_DUALITY_GAP * (1.0 + abs(bound)):
            raise NumericalBreakdown(
                f"{type(ball).__name__} worst case (n = {ball.space.n}, {at}): ball residual "
                f"{residual:.3e} on the {name} budget, value gap {gap:.3e} above tolerance"
            )
    return DroResult(value, _as_distribution(P.space, q), DroMethod.TRANSPORT_DUAL)


@dataclass(frozen=True, eq=False)
class SupNormBall(_Ball):
    """Functions bounded by one in sup norm.  The worst case and the penalty
    each sort h once and build no LP and no n x n array."""

    def gauge(self, h):
        return PenaltyValue(sup_norm(h.values))

    def centered_gauge(self, h):
        """The midpoint b of h's range, where the sup norm is half the range."""
        v = h.values
        return float(0.5 * (v.max() + v.min())), PenaltyValue(0.5 * float(v.max() - v.min()))

    def distance(self, Q, P):
        delta = Q.weights - P.weights
        sign = np.sign(delta)
        sign[sign == 0.0] = 1.0
        return IpmValue(float(np.abs(delta).sum()), FunctionVec(Q.space, sign))

    def worst_case(self, P, eps, h):
        """The greedy move of ``_drain``; the value is E_Q[h], certified by
        |q - p|_1, which equals eps unless the mass below max h runs out
        first, and by its gap to G at the last point drained."""
        p, v = P.weights, h.values
        q, t = _drain(v, p, 0.5 * eps)
        top = float(v.max())
        bound = (top - t) * (0.5 * eps) + float(p @ np.maximum(v, t))
        budget = ("total-variation", eps, float(np.abs(q - p).sum()), t < top)
        return _transport_result(self, P, h, q, [budget], bound, f"t = {t!r}")

    def lambda_(self, P, eps, h):
        """The split h2 = max(h, t*) at t* = ``_tv_threshold``, whose
        centered gauge is (max h - t*)/2, so the penalty is G(t*) - E_P h.
        It sorts h itself and never reads a worst case."""
        v = h.values
        return _split_penalty(self, P, eps, h, np.maximum(v, _tv_threshold(v, P.weights, eps)))

    def _boundary_vertices(self) -> list:
        """Coordinate-extreme sign vectors +/- (2 e_i - 1)."""
        samples = []
        for i in range(self.space.n):
            v = -np.ones(self.space.n)
            v[i] = 1.0
            samples.append(v)
            samples.append(-v)
        return samples


# ---------------------------------------------------------------------------
# the Lipschitz and Dudley balls: a transport dual
#
# The Lipschitz ball is, up to a constant shift, the functions that are
# 1-Lipschitz for the metric c.  So its worst case is an optimal-transport
# problem with the strong dual  sup_{W_c(Q, P) <= eps} E_Q[h] =
# min_{lam >= 0} phi(lam),
#     phi(lam) = lam eps + sum_i p_i h^lam_i,   h^lam_i = max_j (h_j - lam c_ij),
# and phi is convex and piecewise linear.  h^lam is the c-transform of h.  A
# plan j(i) (point i sends its mass to j(i)) gives the piece with intercept
# sum_i p_i h_j(i) and slope eps - sum_i p_i c_i,j(i), which is phi itself
# wherever every j(i) is an argmax; the plan j(i) = i gives the last piece,
# of slope eps.  Row i's own point is always a candidate, so an argmax plan
# at lam >= 0 moves mass only to points where h is at least as high.
#
# The Dudley ball's dual norm is the least max(|a|_1, W_c(b)) over a + b =
# q - p: a total-variation move and a transport move, each with a budget of
# eps.  Its worst case has the same dual with sum_i p_i h^lam_i replaced by
# the sup-norm closed form at h^lam, which drains eps/2 of P's mass, lowest
# h^lam first, onto argmax h.  So a piece weighs its plan's rows by P's mass
# after that drain, and the Lipschitz ball's pieces drain nothing.  The
# drain runs over the rows' values with max h appended as a zero-mass target,
# so that the drained mass reaches argmax h even where P leaves it empty: a
# piece's weights are the rows' masses after the drain, then the target's.
# Points of zero mass are no rows: they move nothing.
#
# phi(0) = max h, the identity's cap.  Just right of lam = 0, row i's argmax
# of h_j - lam c_ij is its nearest argmax of h (lowest index among equal
# costs), at cost d_i, so h^lam_i = max h - lam d_i and the drain takes the
# farthest rows first, equal costs in index order.  That piece drains by
# -d with the target above every row, so no value of h, however large or
# negative, can reorder it or round it away; it has phi's right slope at 0,
# and lam* = 0 exactly when that slope is nonnegative.  A slope below 0
# needs more than eps/2 of P's mass off argmax h, so for lam* > 0 the
# worst case spends all of both budgets (complementary slackness).
#
# Without a drain phi has at most n(n - 1) + 1 pieces, one more than the
# changes of the rows' plans.  A drain adds a kink wherever two rows' values
# (or a row's and max h) cross, at most 2n - 1 times for each of the
# (n + 1) n / 2 pairs, so phi then has fewer than n^2 (n + 2) pieces.


class _Piece(NamedTuple):
    """A plan, the weights of its ``_drain``, and its piece of phi."""

    plan: np.ndarray
    weights: np.ndarray
    cost: float
    intercept: float
    slope: float


def _transport_dual(ball, p, h, eps, drain):
    """(lam*, phi(lam*), over, under): the least point of phi and two pieces
    optimal there, ``over`` with a transport cost above eps and ``under`` at
    most eps (one piece twice when lam* = 0), each draining ``drain``.

    A cutting-plane search over the rows of positive mass.  It first builds
    the piece phi has just right of lam = 0 and returns lam* = 0.0 exactly
    when that slope is nonnegative.  Otherwise it keeps that piece
    (``over``) and one of nonnegative slope (``under``, first the last
    piece), evaluates phi where they cross and replaces one of them by the
    piece of the plan that takes each row's lowest-index argmax there.  It
    stops where phi meets the two pieces, within 1e-12 of the scale of h:
    they are then adjacent and cross at lam* > 0.  A search past n^2 + 2
    steps (n^2 (n + 2) + 2 with a drain) raises NumericalBreakdown.
    """
    n, space = p.size, ball.space
    src = np.flatnonzero(p > 0.0)
    rows, top = (None if src.size == n else src), float(h.max())
    mass = np.append(p[src], 0.0)
    tol = 1e-12 * (1.0 + float(np.abs(h).max()))

    def piece(plan, values, target):
        weights = _drain(np.append(values, target), mass, drain)[0] if drain else mass
        sent = weights[:-1]
        paid = float(sent @ plan_cost(space, src, plan))
        value = float(sent @ h[plan]) + float(weights[-1]) * top
        return _Piece(plan, weights, paid, value, eps - paid)

    # the c-transform at lam = 1 of 0 on argmax h, -inf elsewhere: minus each
    # row's cost to its nearest argmax of h, lowest index among equal costs
    # (a row on argmax h reads 0.0 - 0.0 = +0.0 there, not -0.0; only the
    # drain's stable sort sees it, and that sort takes the two as equal)
    near, plan = c_transform(space, np.where(h == top, 0.0, -np.inf), 1.0, rows)
    over = piece(plan, near, np.inf)
    if over.slope >= 0.0:  # phi rises right of 0
        return 0.0, over.intercept, over, over
    under = piece(src, h[src], top)
    steps = n * n * (n + 2 if drain else 1) + 2
    for _ in range(steps):
        lam = (under.intercept - over.intercept) / (over.slope - under.slope)
        values, plan = c_transform(space, h, lam, rows)
        cut = piece(plan, values, top)
        phi = cut.intercept + cut.slope * lam
        model = max(over.intercept + over.slope * lam, under.intercept + under.slope * lam)
        if phi <= model + tol:
            return lam, phi, over, under
        if cut.slope < 0.0:
            over = cut
        else:
            under = cut
    raise NumericalBreakdown(
        f"{type(ball).__name__} transport dual (n = {n}, lambda = {lam!r}): no kink "
        f"of phi in {steps} steps; phi exceeds the two pieces by {phi - model:.3e}"
    )


def _mixing_weight(cost_over, cost_under, eps):
    """The weight on the plan of cost ``cost_over`` > eps that brings its
    mixture with the plan of cost ``cost_under`` <= eps to cost eps; 0 when
    the two are one plan (lam* = 0)."""
    if cost_over == cost_under:
        return 0.0
    return (eps - cost_under) / (cost_over - cost_under)


def _transport_worst_case(ball, P, eps, h, drain):
    """The one piece at lam* = 0, or the two at lam* > 0 mixed to cost eps;
    E_Q[h] is certified on each budget and by its gap to phi(lam*)."""
    n, p, v = ball.space.n, P.weights, h.values
    lam, phi, over, under = _transport_dual(ball, p, v, eps, drain)
    theta = _mixing_weight(over.cost, under.cost, eps)
    top = int(np.argmax(v))
    q = (np.bincount(over.plan, theta * over.weights[:-1], n)
         + np.bincount(under.plan, (1.0 - theta) * under.weights[:-1], n))
    q[top] += theta * over.weights[-1] + (1.0 - theta) * under.weights[-1]  # the drained mass
    # lam* > 0 spends all of each budget (complementary slackness)
    budgets = [("transport", eps, theta * over.cost + (1.0 - theta) * under.cost, lam > 0.0)]
    if drain:  # a budget of 0 moves no mass by total variation
        drained = theta * over.weights + (1.0 - theta) * under.weights - np.append(p[p > 0.0], 0.0)
        budgets.append(("total-variation", 2.0 * drain, float(np.abs(drained).sum()), lam > 0.0))
    return _transport_result(ball, P, h, q, budgets, phi, f"lambda = {lam!r}")


@dataclass(frozen=True, eq=False)
class LipschitzBall(_Ball):
    """Functions with metric Lipschitz constant at most one.  The worst case
    and the penalty come from the transport dual over the metric, whose
    triangle inequality ``make_space`` enforces; no LP is built for either.
    Its plans take exact argmaxes, so the worst case is never below E_P[h].
    The penalty runs its own search and never reads a worst case, so the two
    sides of the identity check each other: any split bounds the penalty
    from above and any Q in the ball bounds it from below.
    """

    seminorm = True

    def __post_init__(self):
        if self.space.metric is None:
            raise MissingMetric("a Lipschitz ball needs a metric on the space")

    def gauge(self, h):
        return PenaltyValue(lipschitz_constant(self.space, h.values))

    def centered_gauge(self, h):
        """A seminorm: the shift is 0."""
        return 0.0, self.gauge(h)

    def distance(self, Q, P):
        return _flow_distance(self, [lipschitz_pairs(self.space)], Q, P)

    def worst_case(self, P, eps, h):
        """The transport dual's two plans at lam*, without a drain."""
        return _transport_worst_case(self, P, eps, h, 0.0)

    def lambda_(self, P, eps, h):
        """The split h2 = h^lam*, the c-transform max_j (h_j - lam* c_ij),
        which is lam*-Lipschitz."""
        v = h.values
        lam = _transport_dual(self, P.weights, v, eps, 0.0)[0]
        return _split_penalty(self, P, eps, h, c_transform(self.space, v, lam)[0])


@dataclass(frozen=True, eq=False)
class DudleyBall(_Ball):
    """Functions with sup norm plus Lipschitz constant at most one: the unit
    ball of the sup and Lipschitz blocks, whose two flow LPs it poses."""

    def __post_init__(self):
        if self.space.metric is None:
            raise MissingMetric("a Dudley ball needs a metric on the space")

    def gauge(self, h):
        v = h.values
        return PenaltyValue(sup_norm(v) + lipschitz_constant(self.space, v))

    def centered_gauge(self, h):
        """The sup part is least, at half the range of h, when b is the
        midpoint of that range; the Lipschitz part ignores b."""
        v = h.values
        value = 0.5 * float(v.max() - v.min()) + lipschitz_constant(self.space, v)
        return float(0.5 * (v.max() + v.min())), PenaltyValue(value)

    def distance(self, Q, P):
        return _flow_distance(self, [_sup_block(self.space), lipschitz_pairs(self.space)], Q, P)

    def worst_case(self, P, eps, h):
        """The transport dual's two plans at lam*, each piece draining eps/2
        of its rows' mass, lowest h^lam first, onto argmax h."""
        return _transport_worst_case(self, P, eps, h, 0.5 * eps)

    def lambda_(self, P, eps, h):
        """Infimal-convolution LP over the split h1 (free), the epigraph
        scalar t >= max(h1) and one seminorm epigraph variable per block
        (nonnegative): it maximizes p'h1 - t - eps * (sum of the block
        variables), whose negative is the penalty."""
        n, atoms = self.space.n, [_sup_block(self.space), lipschitz_pairs(self.space)]
        check_dense_size(n + 1 + len(atoms), n + 2 * _atom_count(atoms))
        c = np.concatenate([P.weights, [-1.0], np.full(len(atoms), -eps)])
        bounds = [FREE] * (n + 1) + [NONNEG] * len(atoms)
        problem = lp_problem(c, ub=_penalty_rows(n, atoms, h.values), bounds=bounds)
        sol = _solve_exact_lp(problem, "penalty LP")
        h1 = sol.x[:n]
        return PenaltyValue(max(0.0, -sol.value), (h1, h.values - h1))


# ---------------------------------------------------------------------------
# quadratic balls


class _EllipsoidNorm:
    """The PSD form M of a quadratic ball's gauge, held as one spectrum
    M = V diag(eigval) V', whose zero eigenvalues span the null space.

    The ball reads everything from it: the gauge sqrt(h' M h) (``value``),
    the distance sqrt(d' M+ d) and its witness, the worst-case walk's form
    M+ (``pinv``), and the prox and dual projection of the Douglas-Rachford
    penalty.  ``null_tol`` = (a, r): d leaves range(M) once the 2-norm of its
    null-space coefficients exceeds a * (1 + r * |d|_1).  The arrays are
    read-only.
    """

    def __init__(self, eigval: np.ndarray, eigvec: np.ndarray, null_tol=(0.0, 0.0)):
        self.eigval = _frozen_array(eigval)
        self.eigvec = _frozen_array(eigvec)
        self.positive = _frozen_array(self.eigval > 0.0, dtype=bool)
        self.null_tol = null_tol

    @cached_property
    def pinv(self) -> np.ndarray:
        inv = np.where(self.positive, 1.0 / np.where(self.positive, self.eigval, 1.0), 0.0)
        return _frozen_array(self.eigvec @ np.diag(inv) @ self.eigvec.T)

    def value(self, v: np.ndarray) -> float:
        coeff = self.eigvec.T @ v
        return float(np.sqrt(max(np.sum(self.eigval * coeff**2), 0.0)))

    def project_dual(self, z: np.ndarray, radius: float) -> np.ndarray:
        """Projection onto {y in range(M): y' M^+ y <= radius^2}.

        The KKT form is y = V diag(lam / (lam + t)) V'z on the positive
        eigenvalues, with t = 0 when z's range part is inside the ball and
        otherwise t > 0 the root of f(t) = sum zc_i^2 lam_i / (lam_i + t)^2
        = radius^2.  Newton's method runs on 1/sqrt(f) - 1/radius, increasing
        and concave in t (the trust-region secular equation, More and
        Sorensen 1983), from t = 0 left of the root, so its iterates rise
        monotonically to the root; it stops once sqrt(f) <= radius * (1 +
        1e-15) or the step falls below 1e-16 * (lam.max() + t).  Not settling
        within 50 steps raises NumericalBreakdown.
        """
        if radius <= 0.0:
            return np.zeros_like(z)
        pos = self.positive
        zc = (self.eigvec.T @ z)[pos]
        lam = self.eigval[pos]
        coeff = np.zeros(z.size)
        f = float(np.sum(zc * zc / lam))
        if f <= radius * radius:
            coeff[pos] = zc
            return self.eigvec @ coeff
        c2 = zc * zc * lam  # f(t) = sum c2 / (lam + t)^2
        top = float(lam.max())
        t = 0.0
        for _ in range(50):
            norm = np.sqrt(f)
            if norm <= radius * (1.0 + 1e-15):
                break
            step = (norm / radius - 1.0) * f / float(np.sum(c2 / (lam + t) ** 3))
            t += step
            f = float(np.sum(c2 / (lam + t) ** 2))
            if step <= 1e-16 * (top + t):
                break
        else:
            raise NumericalBreakdown(
                f"dual-ball projection (n = {z.size}, radius = {radius!r}): no "
                f"root in 50 Newton steps, sqrt(f) - radius = {np.sqrt(f) - radius:.3e}"
            )
        coeff[pos] = zc * lam / (lam + t)
        return self.eigvec @ coeff

    def prox(self, z: np.ndarray, weight: float) -> np.ndarray:
        """prox of weight * sqrt(v' M v) at z (Moreau decomposition)."""
        return z - self.project_dual(z, weight)


def _segment(D, g, p, free):
    """The KKT solution on one free set S (q = 0 off S) as a function of
    mu = 1 / (2 lambda), lambda the multiplier of the squared distance.

    One solve of the bordered matrix [[D_SS, 1], [1', 0]] with two right-hand
    sides gives d = q - p = mu * d1 + d0 and the multipliers
    alpha + beta / mu of the points off S.  g is first shifted by its largest
    value on S, so that where g is constant on S the right-hand side, and
    with it d1, is exactly zero.
    """
    fixed = ~free
    k = int(free.sum())
    border = np.ones((k + 1, k + 1))
    border[:k, :k] = D[np.ix_(free, free)]
    border[k, k] = 0.0
    g = g - g[free].max()
    rhs = np.zeros((k + 1, 2))
    rhs[:k, 0] = g[free]
    rhs[:k, 1] = D[np.ix_(free, fixed)] @ p[fixed]
    rhs[k, 1] = p[fixed].sum()
    x = np.linalg.solve(border, rhs)
    d1 = np.zeros(p.size)
    d1[free] = x[:k, 0]
    d0 = -p
    d0[free] = x[:k, 1]
    alpha = (D @ d1)[fixed] + x[k, 0] - g[fixed]
    beta = (D @ d0)[fixed] + x[k, 1]
    return d1, d0, alpha, beta


def _active_set_walk(D, g, p, eps):
    """argmax of <g, q> over q >= 0, sum(q) = sum(p), (q-p)' D (q-p) <= eps^2,
    for D positive definite on sum-zero vectors.

    The walk starts at mu = 0 (q = p) on the free set {p > 0} and raises mu
    one segment at a time.  On a segment |d|_D^2 = a mu^2 + c (the cross
    term vanishes: 1'd1 = 0 and (D d0) is constant on S), so the radius is
    reached at mu = sqrt((eps^2 - c) / a).  Before that the segment may end
    at an event: a free point reaches zero and leaves S, or the multiplier
    of a fixed point reaches zero and it joins S.  Events at one mu are taken
    one at a time, lowest index first (Murty's least-index rule), so ties
    such as the zero-weight points at mu = 0 resolve in finitely many flips.
    With a = 0 and no event left (g constant on S), q is optimal as it is.

    The result is certified by its KKT conditions, with the LP tolerances
    scaled by the size of the terms compared; a failed check or a walk
    longer than 4n + 4 segments raises NumericalBreakdown.
    """
    n = p.size
    free = p > 0.0
    mu = 0.0
    for _ in range(4 * n + 4):
        d1, d0, alpha, beta = _segment(D, g, p, free)
        a, c = float(d1 @ D @ d1), float(d0 @ D @ d0)
        # event times; rates within 1e-12 of their scale are rounding noise,
        # on which a point resting at zero would flip back and forth
        times = np.full(n, np.inf)
        leaving = free & (d1 < -1e-12 * np.abs(d1).max())
        times[leaving] = -(p + d0)[leaving] / d1[leaving]
        entering = alpha < -1e-12 * (1.0 + np.abs(g).max())
        times[np.flatnonzero(~free)[entering]] = -beta[entering] / alpha[entering]
        times = np.maximum(times, mu)
        event = float(times.min())
        radius = np.sqrt(max(eps * eps - c, 0.0) / a) if a > 0.0 else np.inf
        if radius <= event:
            return _certified(D, g, p, eps, free, max(radius, mu), d1, d0)
        flip = int(np.flatnonzero(times <= event * (1.0 + 1e-12))[0])
        free[flip] = not free[flip]
        mu = event
    raise NumericalBreakdown(
        f"quadratic worst case (n = {n}): no optimal segment in {4 * n + 4}"
    )


def _certified(D, g, p, eps, free, mu, d1, d0):
    """q = p + mu d1 + d0 if it meets the KKT conditions, else a breakdown."""
    n = p.size
    lam = 0.5 / mu  # zero where the walk ended with the radius unreached
    d = d0 if lam == 0.0 else mu * d1 + d0
    q = p + d
    dist = float(np.sqrt(max(d @ D @ d, 0.0)))
    ball = abs(dist - eps) if lam > 0.0 else dist - eps
    primal = max(-float(q.min()), abs(float(q.sum() - p.sum())), ball)
    grad = g - 2.0 * lam * (D @ d)  # tau - s, with s zero on S and >= 0 off it
    s = float(grad[free].mean()) - grad
    dual = max(float(np.abs(s[free]).max()), -float(s[~free].min(initial=0.0)))
    scale = 1.0 + float(np.abs(g).max()) + 2.0 * lam * float((np.abs(D) @ np.abs(d)).max())
    if (primal > LP_FEASIBILITY * (1.0 + max(float(p.sum()), eps))
            or dual > LP_REDUCED_COST * scale):
        raise NumericalBreakdown(
            f"quadratic worst case (n = {n}): KKT residual {primal:.3e} primal, "
            f"{dual:.3e} dual above tolerance"
        )
    return q


@dataclass(frozen=True, eq=False)
class _QuadraticBall(_Ball):
    """Balls {f : f' M f <= 1}.  A subclass supplies ``_norm``, the one
    spectrum of M, and every operation derives from it: the gauge, the
    centered gauge, the distance sqrt(d' M+ d), the exact active-set worst
    case (``_active_set_walk`` on the form M+) and the Douglas-Rachford
    penalty, which is flagged inexact.  A subclass overrides ``_ball_support``
    when Q cannot move mass to every point.
    """

    def gauge(self, h):
        return PenaltyValue(self._norm.value(h.values))

    def centered_gauge(self, h):
        """b = 1'Mh / 1'M1 minimizes (h - b)' M (h - b); a seminorm needs no
        shift."""
        b = 0.0
        if not self.seminorm:
            norm = self._norm
            ones = norm.eigvec.sum(axis=0)  # V'1
            weighted = norm.eigval * ones
            b = float(weighted @ (norm.eigvec.T @ h.values)) / float(weighted @ ones)
        return b, self.gauge(FunctionVec(h.space, h.values - b))

    def distance(self, Q, P):
        """sqrt(d' M+ d) for d = q - p, witnessed by M+ d over the distance.
        Once d leaves range(M) the distance is infinite, witnessed by d's
        null-space component w: M w = 0, so every multiple of w lies in the
        ball, while <d, w> is the squared null mass, which is positive."""
        delta = Q.weights - P.weights
        norm = self._norm
        pos = norm.positive
        coeff = norm.eigvec.T @ delta
        atol, rtol = norm.null_tol
        null_mass = float(np.sqrt(np.sum(coeff[~pos] ** 2)))
        if null_mass > atol * (1.0 + rtol * float(np.abs(delta).sum())):
            null = norm.eigvec[:, ~pos] @ coeff[~pos]
            return IpmValue(np.inf, FunctionVec(Q.space, null))
        value = float(np.sqrt(max(np.sum(coeff[pos] ** 2 / norm.eigval[pos]), 0.0)))
        witness = None
        if value > 1e-14:
            pinv_coeff = np.where(pos, coeff / np.where(pos, norm.eigval, 1.0), 0.0)
            witness = FunctionVec(Q.space, norm.eigvec @ pinv_coeff / value)
        return IpmValue(value, witness)

    def _ball_support(self, p):
        """(mask of the points Q may move mass to, P's mass there, the
        distance form M+ restricted to them)."""
        return np.ones(p.size, dtype=bool), 1.0, self._norm.pinv

    def worst_case(self, P, eps, h):
        """max <h, q> over the ball, a linear objective on the simplex cut by
        an ellipsoid, solved exactly on the ball's support; the value is
        E_Q[h] of the returned distribution."""
        p = P.weights
        supp, mass, m_supp = self._ball_support(p)
        if mass <= 0.0 or eps == 0.0:  # the ball is {P}
            return DroResult(float(p @ h.values), P, DroMethod.ACTIVE_SET)
        q = p.copy()
        q[supp] = _active_set_walk(m_supp, h.values[supp], p[supp], eps)
        worst = _as_distribution(P.space, q)
        return DroResult(float(worst.weights @ h.values), worst, DroMethod.ACTIVE_SET)

    def lambda_(self, P, eps, h):
        """Douglas-Rachford splitting of [max(h1) - E_P[h1]] +
        eps * sqrt((h-h1)' M (h-h1)) over h1.

        Each iteration takes one simplex projection for the peak part and one
        prox of the gauge, whose dual-ball projection finds its scalar root
        by Newton's method (``_EllipsoidNorm.project_dual``).  Iterative: the
        result carries exact=False and the best split seen.
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

        s = v.copy()
        best_x = v.copy()
        best_val = objective(best_x)
        scale = 1.0 + float(np.max(np.abs(v)))
        for _ in range(ICONV_MAX_ITERATIONS):
            xg = prox_peak(s)
            xf = prox_norm_part(2.0 * xg - s)
            s = s + xf - xg
            val = objective(xg)
            if val < best_val:
                best_val = val
                best_x = xg
            if np.max(np.abs(xf - xg)) <= ICONV_STOP * scale:
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
        gram = _frozen_array(0.5 * (k + k.T))
        eigval, eigvec = np.linalg.eigh(gram)
        if eigval.min() <= GRAM_MIN_EIG:
            raise SingularGram(
                f"Gram matrix min eigenvalue {eigval.min():.3e} <= {GRAM_MIN_EIG}"
            )
        object.__setattr__(self, "gram", gram)
        # M = K^-1 from this one decomposition of K, every eigenvalue kept
        object.__setattr__(self, "_norm", _EllipsoidNorm(1.0 / eigval, eigvec))


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
        """M = diag(mu): the points are the eigenvectors and mu > 0 spans
        the range; d leaves it once |d| off the support exceeds 1e-15."""
        mu = self.mu.weights
        return _EllipsoidNorm(mu, np.eye(mu.size), null_tol=(1e-15, 0.0))

    def _ball_support(self, p):
        supp = self._norm.positive
        return supp, float(p[supp].sum()), self._norm.pinv[np.ix_(supp, supp)]


@dataclass(frozen=True, eq=False)
class SobolevBall(_QuadraticBall):
    """Functions whose mu-weighted discrete gradient energy is at most one.

    The Laplacian L is assembled once and decomposed once; ``sobolev_matrix``
    builds it exactly symmetric, so ``eigh``, which reads one triangle,
    decomposes L itself.
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
    def _norm(self) -> _EllipsoidNorm:
        """M = L; eigenvalues up to 1e-10 times the largest (or times one)
        span the null space, and d leaves range(L) once its null-space mass
        exceeds 1e-10 * (1 + |d|_1)."""
        eigval, eigvec = np.linalg.eigh(sobolev_matrix(self.space, self.mu))
        positive = eigval > 1e-10 * max(float(eigval.max()), 1.0)
        return _EllipsoidNorm(np.where(positive, eigval, 0.0), eigvec, null_tol=(1e-10, 1.0))

    def _ball_support(self, p):
        if np.sum(~self._norm.positive) > 1:
            raise UnsupportedVariant(
                "worst-case over a Sobolev ball needs a connected effective graph"
            )
        return super()._ball_support(p)


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
            if np.isnan(lhs) or np.isnan(rhs) or abs(lhs - rhs) > 1e-9 * (1.0 + abs(rhs)):
                raise HomogeneityViolated(
                    f"zeta(a*h) = {lhs!r} but a^k*zeta(h) = {rhs!r}"
                )

    def gauge(self, h):
        """zeta(h)**(1/k), the gauge of the sublevel set {zeta <= 1}.  For a
        non-convex zeta this is only an upper bound on the gauge of the
        class's convex hull, and the value is flagged ``exact=False``."""
        z = float(self.zeta(h.values))
        if not z >= 0.0:  # negative or NaN
            raise NegativeZeta(f"zeta returned {z!r}")
        value = z ** (1.0 / self.degree) if z > 0.0 else 0.0
        return PenaltyValue(value, exact=bool(self.convex))

    def centered_gauge(self, h):
        """Golden section over [min h, max h]; that the interval holds a
        minimizer is assumed for a black-box zeta, not checked."""
        v = h.values
        lo, hi = float(v.min()), float(v.max())
        if hi - lo <= 1e-15:
            return lo, self.gauge(FunctionVec(h.space, v - lo))
        b, val = minimize_scalar_convex(
            lambda b: self.gauge(FunctionVec(h.space, v - b)).value,
            lo,
            hi,
            tol=1e-10 * (1.0 + hi - lo),
        )
        return float(b), PenaltyValue(float(val), exact=bool(self.convex))

    def is_even(self) -> bool:
        rng = np.random.default_rng(97)
        for _ in range(16):
            h = rng.standard_normal(self.space.n)
            a, b = float(self.zeta(h)), float(self.zeta(-h))
            if abs(a - b) > 1e-9 * (1.0 + abs(a)):
                return False
        return True
