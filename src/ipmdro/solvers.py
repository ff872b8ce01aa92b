"""Self-contained numerical kernels: a dense LP solver, simplex projection and
scalar convex minimization.

Everything here is deterministic for a given BLAS library and thread count:
fixed pivoting rules (Bland's anti-cycling rule with lowest-index tie
breaking), fixed iteration budgets, no randomness.  The simplex reads its
reduced costs and ratios from BLAS products, whose last bits depend on how
the library splits a sum across threads, so another thread count may pick
other pivots on the same LP.

Most LPs here are small and take a handful of pivots, so ``solve_lp`` keeps
its set-up to one pass that builds only the blocks an LP needs, and its
pivot loop writes each dense update of the basis inverse into one buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown, SizeCapExceeded


# The certification contract: fixed, and read directly by every module that
# certifies, compares or bounds a result.
LP_FEASIBILITY = 1e-9  # primal residual, scaled by 1 + |rhs|_inf
LP_COMPLEMENTARITY = 1e-7
LP_DUALITY_GAP = 1e-7  # scaled by 1 + |objective value|
LP_PIVOT = 1e-11  # pivots below this are a breakdown
LP_REDUCED_COST = 1e-9
LP_RATIO = 1e-9  # eligibility threshold in the ratio test
LP_PHASE1 = 1e-9  # infeasibility cutoff on the phase-1 objective
LP_MAX_ITERATIONS = 200_000
LP_REFACTOR_EVERY = 150
LP_SPARSE_UPDATE_ROWS = 128  # least rows for the column-sparse basis update
LP_REFACTOR_FEASIBILITY = 1e-7  # least refactored basic value, scaled by 1 + |b|_inf
LP_RATIO_TIE = 1e-12  # ratios this close to the least tie, scaled by 1 + |least|
LP_DRIVE_OUT_PIVOT = 1e-9  # least tableau entry that drives an artificial out
IDENTITY_EXACT = 1e-6
IDENTITY_ITERATIVE = 5e-4
BALL_FEASIBILITY = 1e-7
ICONV_STOP = 1e-11
ICONV_MAX_ITERATIONS = 100_000


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpProblem:
    """maximize <objective, x>  s.t.  a_eq x = b_eq,  a_ub x <= b_ub, bounds.

    ``bounds`` is an (n, 2) array of per-variable (lower, upper), each row
    NONNEG (0, inf) or FREE (-inf, inf); ``solve_lp`` refuses any other.
    """

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    bounds: np.ndarray


def lp_problem(objective, eq=None, ub=None, bounds=None) -> LpProblem:
    """Assemble an LpProblem from (matrix, rhs) pairs; ``bounds`` lists NONNEG
    or FREE per variable and defaults to NONNEG for all."""
    c = np.asarray(objective, dtype=float)
    n = c.size
    a_eq, b_eq = eq if eq is not None else (np.zeros((0, n)), np.zeros(0))
    a_ub, b_ub = ub if ub is not None else (np.zeros((0, n)), np.zeros(0))
    try:
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n)
        a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
    except ValueError as exc:
        raise DimensionMismatch(f"constraint matrix does not fit {n} variables") from exc
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
    if bounds is None:
        bnds = np.tile([0.0, np.inf], (n, 1))
    else:
        try:
            bnds = np.asarray(bounds, dtype=float).reshape(n, 2)
        except ValueError as exc:
            raise DimensionMismatch(f"bounds do not fit {n} variables") from exc
    return LpProblem(c, a_eq, b_eq, a_ub, b_ub, bnds)


FREE = (-np.inf, np.inf)
NONNEG = (0.0, np.inf)


@dataclass
class LpSolution:
    status: LpStatus
    x: Optional[np.ndarray]
    value: Optional[float]
    dual_eq: Optional[np.ndarray]
    dual_ub: Optional[np.ndarray]
    feasibility_residual: float = 0.0
    complementarity_residual: float = 0.0
    duality_gap: float = 0.0
    iterations: int = 0


DENSE_LP_CAP = 5000  # variables and constraints, the supported dense regime


def check_dense_size(n_vars: int, n_rows: int) -> None:
    """Refuse an LP with more variables or constraints than the dense cap;
    callers that know the size run this before assembling the matrices."""
    if n_vars > DENSE_LP_CAP or n_rows > DENSE_LP_CAP:
        raise SizeCapExceeded(f"dense solver supports at most {DENSE_LP_CAP} "
                              "variables and constraints")


class _Simplex:
    """Revised simplex on  min c'x s.t. Ax = b, x >= 0  with Bland's rule.

    Columns come in three blocks: structural columns; from ``first_slack``
    the slacks, one per row of the last ``slack_sign.size`` rows, each the
    unit column ``slack_sign[k] * e_row`` at zero cost; after them the
    artificials, which may be basic but never enter.  ``basis`` holds a unit
    column for each row, so the first B^-1 is the identity.  ``stage`` names
    the phase in every breakdown.

    The basis inverse B^-1 is held densely and refactorized every
    LP_REFACTOR_EVERY pivots.  An iteration reads it twice, for the duals y
    and for the entering column's direction, and writes only what the pivot
    changes:
    - Pricing runs over the structural columns first.  They come before
      every slack, so the first improving one is Bland's choice.  Only when
      none improves are the slacks priced, each as ``-slack_sign[k] * y[row]``
      from y alone.  Artificials are never priced.
    - The elementary update subtracts the rank-one term only in the columns
      where the scaled pivot row is nonzero.  In every other column it would
      subtract an exact zero, which leaves each nonzero entry as it is.
    Below LP_SPARSE_UPDATE_ROWS rows the slacks are priced in the same
    matrix product as the structural columns, and the update runs over the
    whole matrix, as it does wherever the pivot row is dense: there one
    NumPy pass costs less than the gathers it would replace.  Either way
    B^-1 keeps the same nonzero entries, and it reaches every result
    through matrix products, so no result depends on the crossover.  A
    reduced cost may differ in its last bit, since BLAS may sum the last
    rows of a shorter product in another order; that changes a pivot only
    where a reduced cost lies within rounding of LP_REDUCED_COST.

    Between refactorizations the pivot loop allocates no m x m array: the
    dense rank-one term goes into one buffer, ``update``, made on the first
    dense update.  ``run`` computes the duals ``y`` before each pricing; at
    the optimum they are the duals ``solve_lp`` returns.
    """

    def __init__(self, a, b, basis, first_slack, slack_sign, stage):
        self.a = a
        self.at = np.ascontiguousarray(a.T)
        self.b = b
        self.m = a.shape[0]
        self.slack_sign = slack_sign
        self.first_artificial = first_slack + slack_sign.size
        # the columns priced by one matrix product: below the crossover, the slacks too
        self.priced = first_slack if self.m >= LP_SPARSE_UPDATE_ROWS else self.first_artificial
        self.stage = stage
        self.iterations = 0
        self.basis = basis
        # the reduced cost below which a column enters; -inf while it is basic
        self.bar = np.full(a.shape[1], -LP_REDUCED_COST)
        self.bar[basis] = -np.inf
        self.at_priced, self.bar_priced = self.at[:self.priced], self.bar[:self.priced]
        self.scale = 1.0 + float(np.abs(b).max()) if b.size else 1.0
        self.least_basic = -LP_REFACTOR_FEASIBILITY * self.scale
        self.binv = np.eye(self.m)
        self.xb = np.maximum(b, 0.0)
        self.y = None
        self.update = None  # the dense rank-one term, m x m once needed

    def breakdown(self, message) -> NumericalBreakdown:
        m, n = self.a.shape
        return NumericalBreakdown(
            f"solve_lp {self.stage} ({m} rows, {n} columns, "
            f"iteration {self.iterations}): {message}"
        )

    def refactor(self):
        try:
            self.binv = np.linalg.inv(self.a[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise self.breakdown(f"singular basis: {exc}") from exc
        self.xb = self.binv @ self.b
        if self.xb.size and self.xb.min() < self.least_basic:
            raise self.breakdown("basic solution lost feasibility")
        np.maximum(self.xb, 0.0, out=self.xb)

    def exchange(self, row, entering, direction, pivot):
        """Make ``entering`` basic in ``row`` by an elementary update of the
        basis inverse; ``direction`` is B^-1 times its column and ``pivot``
        its entry in ``row``.  Zeroes that entry of ``direction`` in place."""
        binv = self.binv
        pivot_row = binv[row]
        pivot_row /= pivot
        direction[row] = 0.0
        # a gathered column costs about eight times a column of the dense update
        if self.m >= LP_SPARSE_UPDATE_ROWS and 8 * np.count_nonzero(pivot_row) < self.m:
            cols = pivot_row.nonzero()[0]
            binv[:, cols] -= direction[:, None] * pivot_row[cols]
        else:
            if self.update is None:
                self.update = np.empty_like(binv)
            binv -= np.multiply(direction[:, None], pivot_row, out=self.update)
        self.bar[self.basis[row]] = -LP_REDUCED_COST
        self.bar[entering] = -np.inf
        self.basis[row] = entering

    def entering(self, c):
        """Bland's entering column for the costs ``c`` at the duals ``y``, or
        None at optimum."""
        priced, y = self.priced, self.y
        improving = c[:priced] - self.at_priced @ y < self.bar_priced
        entering = improving.argmax()  # Bland: lowest index
        if improving[entering]:
            return entering
        if priced == self.first_artificial:
            return None
        # a slack improves where -slack_sign * y < bar; here both sides negated
        slack_y = y[self.m - self.slack_sign.size:]
        improving = self.slack_sign * slack_y > -self.bar[priced:self.first_artificial]
        entering = improving.argmax()
        return priced + entering if improving[entering] else None

    def run(self, c):
        """Pivot until optimal or unbounded; returns the status string."""
        since_refactor = 0
        while True:
            if self.iterations > LP_MAX_ITERATIONS:
                raise self.breakdown("simplex iteration limit reached")
            self.y = self.binv.T @ c[self.basis]
            entering = self.entering(c)
            if entering is None:
                if since_refactor == 0:
                    return "optimal"
                # confirm optimality against a fresh factorization
                self.refactor()
                since_refactor = 0
                continue
            basis, xb = self.basis, self.xb
            direction = self.binv @ self.at[entering]
            eligible = (direction > LP_RATIO).nonzero()[0]
            if not eligible.size:
                return "unbounded"
            ratios = xb[eligible] / direction[eligible]
            least = ratios.argmin()
            leave_row = eligible[least]
            if eligible.size > 1:
                theta = float(ratios[least])
                ties = ratios <= theta + LP_RATIO_TIE * (1.0 + abs(theta))
                if np.count_nonzero(ties) > 1:  # Bland: lowest basic index
                    tied = eligible[ties]
                    leave_row = tied[basis[tied].argmin()]
            pivot = float(direction[leave_row])
            if pivot < LP_PIVOT:
                raise self.breakdown(f"pivot {pivot:.3e} below tolerance")
            self.exchange(leave_row, entering, direction, pivot)
            theta_star = float(xb[leave_row]) / pivot
            xb -= theta_star * direction
            xb[leave_row] = theta_star
            np.maximum(xb, 0.0, out=xb)
            self.iterations += 1
            since_refactor += 1
            if since_refactor >= LP_REFACTOR_EVERY:
                self.refactor()
                since_refactor = 0

    def drive_out_artificials(self):
        """Pivot each zero-level artificial out of the basis on the first
        column whose tableau entry in its row exceeds LP_DRIVE_OUT_PIVOT.
        Where none does, the row is redundant and the artificial stays basic
        at zero: no column that can enter passes the ratio test in its row,
        and its zero cost gives its own row a zero dual."""
        first_artificial = self.first_artificial
        for row in (self.basis >= first_artificial).nonzero()[0]:
            tableau_row = (self.binv[row, :] @ self.a)[:first_artificial]
            nz = np.flatnonzero(np.abs(tableau_row) > LP_DRIVE_OUT_PIVOT)
            if nz.size:
                entering = int(nz[0])
                pivot = tableau_row[entering]
                self.exchange(row, entering, self.binv @ self.at[entering], pivot)
                self.xb = self.binv @ self.b
                np.maximum(self.xb, 0.0, out=self.xb)


def _standard_form(problem: LpProblem):
    """Validate ``problem`` and pose it as  min c'x s.t. Ax = b, x >= 0  in
    one pass; returns (simplex, phase-2 costs, x+ columns, x- columns or
    None, free mask, row signs or None).

    A free variable x becomes two columns, x = x+ - x-, with x+ in the
    variable's own position and x- right after it; when all variables are
    NONNEG, or all FREE, the columns are slices.  A row with a negative
    right-hand side is negated, so b >= 0.  An equality row, or an
    inequality row whose slack was negated, starts on an artificial column,
    every other row on its slack.  An LP with no free variable, negative
    right-hand side or artificial builds no split, row-sign pass or
    artificial column."""
    c_user, a_eq, b_eq, a_ub, b_ub = (problem.objective, problem.a_eq, problem.b_eq,
                                      problem.a_ub, problem.b_ub)
    n = c_user.size
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    if a_eq.shape[1] != n or a_ub.shape[1] != n:
        raise DimensionMismatch("constraint matrices do not match objective size")
    if m_eq != b_eq.size or m_ub != b_ub.size:
        raise DimensionMismatch("constraint rhs does not match matrix rows")
    if n == 0:
        raise DimensionMismatch("an LP needs at least one variable")
    check_dense_size(n, m_eq + m_ub)
    if problem.bounds.shape != (n, 2):
        raise DimensionMismatch("bounds must be (n, 2)")
    for arr in (c_user, a_eq, b_eq, a_ub, b_ub):
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("LP data must be finite")
    lo, up = problem.bounds.T
    free = lo == -np.inf
    if not ((up == np.inf) & (free | (lo == 0.0))).all():
        raise ValueError("each variable's bounds must be NONNEG (0, inf) or FREE (-inf, inf)")

    # the column of each variable's x+; a free variable's x- follows it
    n_free = int(np.count_nonzero(free))
    if n_free == 0:
        cols = plus = slice(0, n)
        minus = None
    elif n_free == n:
        cols = plus = slice(0, 2 * n, 2)
        minus = slice(1, 2 * n, 2)
    else:
        cols = np.arange(n) + (np.cumsum(free) - free)
        plus = cols[free]
        minus = plus + 1
    nt = n + n_free
    m = m_eq + m_ub
    n_struct = nt + m_ub  # split vars + slacks
    b_std = np.concatenate([b_eq, b_ub]) if m_eq else b_ub.copy()
    neg_ub = (b_ub < 0.0).nonzero()[0]
    art_rows = np.concatenate([np.arange(m_eq), m_eq + neg_ub]) if neg_ub.size else np.arange(m_eq)
    n_art = art_rows.size

    a_full = np.zeros((m, n_struct + n_art))
    if m_eq:
        a_full[:m_eq, cols] = a_eq
    a_full[m_eq:, cols] = a_ub
    if n_free:
        a_full[:, minus] = 0.0 - a_full[:, plus]  # 0.0 - x keeps zeros +0.0
    basis = np.arange(nt, nt + m) - m_eq  # the slack column of each inequality row
    a_full[np.arange(m_eq, m), basis[m_eq:]] = 1.0
    row_sign = None
    if neg_ub.size or (m_eq and (b_eq < 0.0).any()):
        row_sign = np.where(b_std < 0.0, -1.0, 1.0)
        b_std *= row_sign
        a_full[:, :n_struct] *= row_sign[:, None]
    if n_art:
        art_cols = np.arange(n_struct, n_struct + n_art)
        a_full[art_rows, art_cols] = 1.0
        basis[art_rows] = art_cols
    slack_sign = np.ones(m_ub) if row_sign is None else row_sign[m_eq:]
    sx = _Simplex(a_full, b_std, basis, nt, slack_sign, "phase 1")

    c_min = np.zeros(a_full.shape[1])
    c_min[cols] = -c_user
    if n_free:
        c_min[minus] = c_user[free]
    return sx, c_min, cols, minus, free, row_sign


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a dense LP with a deterministic two-phase revised simplex.

    Every variable is NONNEG or FREE.  One pass validates the problem and
    builds its standard form (``_standard_form``), whose starting basis is
    the identity.  Phase 1 runs only when some row needs an artificial.
    Both phases run on one simplex and price with Bland's rule; a redundant
    equality row keeps its artificial basic at zero and gets a zero dual.
    The duals returned are those of the final pricing, and the dense basis
    update reuses one buffer.

    Returns a certified solution: on OPTIMAL status the primal residual,
    complementarity residual, and duality gap are verified against
    LP_FEASIBILITY, LP_COMPLEMENTARITY and LP_DUALITY_GAP, and a violation
    raises NumericalBreakdown rather than returning a silently wrong answer.
    Every breakdown names the phase, the standard-form shape and the
    iteration.
    """
    sx, c_min, cols, minus, free, row_sign = _standard_form(problem)
    c_user = problem.objective
    m_eq = problem.a_eq.shape[0]
    first_artificial = sx.first_artificial

    # --- phase 1 ------------------------------------------------------------
    if first_artificial < c_min.size:
        c_phase1 = np.zeros(c_min.size)
        c_phase1[first_artificial:] = 1.0
        if sx.run(c_phase1) != "optimal":
            raise sx.breakdown("terminated abnormally")
        phase1_value = float(c_phase1[sx.basis] @ sx.xb)
        if phase1_value > LP_PHASE1:
            return LpSolution(LpStatus.INFEASIBLE, None, None, None, None,
                              iterations=sx.iterations)
        sx.drive_out_artificials()
    sx.stage = "phase 2"

    # --- phase 2 ------------------------------------------------------------
    if sx.run(c_min) == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, None, None,
                          iterations=sx.iterations)

    x_std = np.zeros(c_min.size)
    x_std[sx.basis] = sx.xb
    if minus is None:
        x_user = x_std[cols].copy()
    elif isinstance(cols, slice):
        x_user = x_std[cols] - x_std[minus]
    else:
        x_user = x_std[cols]
        x_user[free] -= x_std[minus]
    value = float(c_user @ x_user)

    y = sx.y  # duals of the computational problem, from the final pricing
    dual = -y if row_sign is None else -row_sign * y  # max-form duals of the user's rows

    # --- certification -------------------------------------------------------
    sx.stage = "certification"
    feas = 0.0
    if m_eq:
        feas = max(feas, float(np.abs(problem.a_eq @ x_user - problem.b_eq).max()))
    if problem.a_ub.shape[0]:
        feas = max(feas, float((problem.a_ub @ x_user - problem.b_ub).max()))

    reduced = c_min - sx.a.T @ y
    compl = float(np.abs(reduced * x_std).max())
    gap = abs(float(c_min @ x_std) - float(y @ sx.b))

    solution = LpSolution(
        LpStatus.OPTIMAL, x_user, value, dual[:m_eq], dual[m_eq:],
        feasibility_residual=feas, complementarity_residual=compl,
        duality_gap=gap, iterations=sx.iterations,
    )
    if feas > LP_FEASIBILITY * sx.scale:
        raise sx.breakdown(f"primal residual {feas:.3e} above tolerance")
    if compl > LP_COMPLEMENTARITY:
        raise sx.breakdown(f"complementarity residual {compl:.3e} above tolerance")
    if gap > LP_DUALITY_GAP * (1.0 + abs(value)):
        raise sx.breakdown(f"duality gap {gap:.3e} above tolerance")
    return solution


# ---------------------------------------------------------------------------
# simplex projection


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-based exact algorithm: with u the coordinates of v in decreasing
    order, the threshold is the largest j with u_j + (1 - sum_{i<=j} u_i)/j > 0.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("projection input must be finite")
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    mask = u + (1.0 - cumsum) / j > 0.0
    rho = int(np.max(np.flatnonzero(mask)))
    lam = (1.0 - cumsum[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


# ---------------------------------------------------------------------------
# scalar convex minimization


def minimize_scalar_convex(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
):
    """Golden-section search for the minimum of a convex function on [lo, hi].

    Returns (argmin, value) with the argmin within tol of a true minimizer,
    or within a few float spacings of one where tol is finer than those.
    """
    if not (lo < hi and np.isfinite(hi - lo)):
        raise ValueError("need finite lo < hi")
    if not tol > 0.0:
        raise ValueError("need tol > 0")
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    # each step shrinks the bracket by inv_phi until rounding stalls it a few
    # floats wide; runs that reach tol end within 4 steps of the count it
    # implies, so the search stops 16 steps after that count
    steps = 16 + math.ceil(max(0.0, math.log(b - a) - math.log(tol)) / -math.log(inv_phi))
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol and steps:
        steps -= 1
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, float(f(xm))
