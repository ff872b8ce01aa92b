"""Self-contained numerical kernels: a dense LP solver, simplex projection and
scalar convex minimization.

Everything here is deterministic: fixed pivoting rules (Bland's anti-cycling
rule with lowest-index tie breaking), fixed iteration budgets, no randomness.
"""

from __future__ import annotations

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

    ``bounds`` is an (n, 2) array of per-variable (lower, upper) with +-inf
    allowed; the default is x >= 0.
    """

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    bounds: np.ndarray

    @property
    def n(self) -> int:
        return self.objective.size


def lp_problem(objective, eq=None, ub=None, bounds=None) -> LpProblem:
    """Assemble an LpProblem from (matrix, rhs) pairs; bounds default to x >= 0."""
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
        bnds = np.asarray(bounds, dtype=float).reshape(n, 2)
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


def _validate(p: LpProblem) -> None:
    n = p.n
    if p.a_eq.shape[1] != n or p.a_ub.shape[1] != n:
        raise DimensionMismatch("constraint matrices do not match objective size")
    if p.a_eq.shape[0] != p.b_eq.size or p.a_ub.shape[0] != p.b_ub.size:
        raise DimensionMismatch("constraint rhs does not match matrix rows")
    check_dense_size(n, p.a_eq.shape[0] + p.a_ub.shape[0])
    if p.bounds.shape != (n, 2):
        raise DimensionMismatch("bounds must be (n, 2)")
    for arr in (p.objective, p.a_eq, p.b_eq, p.a_ub, p.b_ub):
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("LP data must be finite (bounds excepted)")
    if np.any(np.isnan(p.bounds)):
        raise ValueError("bounds may be infinite but not NaN")


class _Simplex:
    """Revised simplex on  min c'x s.t. Ax = b, x >= 0  with Bland's rule.

    The basis inverse is held densely and updated by elementary row
    operations, with periodic refactorization.
    """

    def __init__(self, a, b):
        self.a = a
        self.at = np.ascontiguousarray(a.T)
        self.b = b
        self.m = a.shape[0]
        self.basis = None
        self.binv = None
        self.xb = None
        self.iterations = 0

    def set_basis(self, basis):
        self.basis = np.asarray(basis, dtype=int).copy()
        self.refactor()

    def refactor(self):
        bmat = self.a[:, self.basis]
        try:
            self.binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"singular basis: {exc}") from exc
        self.xb = self.binv @ self.b
        scale = 1.0 + float(np.max(np.abs(self.b))) if self.b.size else 1.0
        if self.xb.size and self.xb.min() < -1e-7 * scale:
            raise NumericalBreakdown("basic solution lost feasibility")
        np.maximum(self.xb, 0.0, out=self.xb)

    def exchange(self, row, entering, direction, pivot):
        """Make ``entering`` basic in ``row`` by an elementary update of the
        basis inverse; ``direction`` is B^-1 times its column and ``pivot``
        its entry in ``row``.  Returns ``direction`` with that entry zeroed."""
        self.binv[row, :] /= pivot
        other = direction.copy()
        other[row] = 0.0
        self.binv -= np.outer(other, self.binv[row, :])
        self.basis[row] = entering
        return other

    def run(self, c, enterable):
        """Pivot until optimal or unbounded; returns the status string."""
        since_refactor = 0
        while True:
            if self.iterations > LP_MAX_ITERATIONS:
                raise NumericalBreakdown("simplex iteration limit reached")
            y = self.binv.T @ c[self.basis]
            reduced = c - self.at @ y
            reduced[self.basis] = 0.0
            candidates = np.flatnonzero(enterable & (reduced < -LP_REDUCED_COST))
            if candidates.size == 0:
                if since_refactor == 0:
                    return "optimal"
                # confirm optimality against a fresh factorization
                self.refactor()
                since_refactor = 0
                continue
            entering = int(candidates[0])  # Bland: lowest index
            direction = self.binv @ self.a[:, entering]
            eligible = np.flatnonzero(direction > LP_RATIO)
            if eligible.size == 0:
                return "unbounded"
            ratios = self.xb[eligible] / direction[eligible]
            theta = ratios.min()
            ties = eligible[ratios <= theta + 1e-12 * (1.0 + abs(theta))]
            leave_row = int(ties[np.argmin(self.basis[ties])])
            pivot = direction[leave_row]
            if pivot < LP_PIVOT:
                raise NumericalBreakdown(f"pivot {pivot:.3e} below tolerance")
            other = self.exchange(leave_row, entering, direction, pivot)
            theta_star = self.xb[leave_row] / pivot
            self.xb -= theta_star * other
            self.xb[leave_row] = theta_star
            np.maximum(self.xb, 0.0, out=self.xb)
            self.iterations += 1
            since_refactor += 1
            if since_refactor >= LP_REFACTOR_EVERY:
                self.refactor()
                since_refactor = 0

    def drive_out_artificials(self, first_artificial, enterable):
        """Pivot zero-level artificials out of the basis; drop dependent rows.

        Returns the list of surviving row indices (into the original row
        order) so callers can map duals back.
        """
        keep = np.ones(self.m, dtype=bool)
        for row in range(self.m):
            if self.basis[row] < first_artificial:
                continue
            tableau_row = self.binv[row, :] @ self.a
            tableau_row[~enterable] = 0.0
            nz = np.flatnonzero(np.abs(tableau_row) > 1e-9)
            nz = nz[nz < first_artificial]
            if nz.size:
                entering = int(nz[0])
                pivot = tableau_row[entering]
                self.exchange(row, entering, self.binv @ self.a[:, entering], pivot)
                self.xb = self.binv @ self.b
                np.maximum(self.xb, 0.0, out=self.xb)
            else:
                keep[row] = False  # dependent row
        return keep


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a dense LP with a deterministic two-phase revised simplex.

    Returns a certified solution: on OPTIMAL status the primal residual,
    complementarity residual, and duality gap are verified against
    LP_FEASIBILITY, LP_COMPLEMENTARITY and LP_DUALITY_GAP, and a violation
    raises NumericalBreakdown rather than returning a silently wrong answer.
    """
    _validate(problem)
    n = problem.n
    c_user = problem.objective

    # --- variable transform to x~ >= 0 -------------------------------------
    col_var: list[tuple[int, float]] = []  # (user var, sign)
    const_x = np.zeros(n)
    two_sided: list[tuple[int, float]] = []  # (transformed col, rhs)
    for j in range(n):
        lo, up = problem.bounds[j]
        if lo > up:
            return LpSolution(LpStatus.INFEASIBLE, None, None, None, None)
        if np.isneginf(lo) and np.isposinf(up):
            col_var.append((j, 1.0))
            col_var.append((j, -1.0))
        elif np.isposinf(up):
            const_x[j] = lo
            col_var.append((j, 1.0))
        elif np.isneginf(lo):
            const_x[j] = up
            col_var.append((j, -1.0))
        else:
            const_x[j] = lo
            col_var.append((j, 1.0))
            two_sided.append((len(col_var) - 1, up - lo))

    nt = len(col_var)
    transform = np.zeros((n, nt))
    for k, (j, s) in enumerate(col_var):
        transform[j, k] = s

    m_eq = problem.a_eq.shape[0]
    a_eq_t = problem.a_eq @ transform
    b_eq_t = problem.b_eq - problem.a_eq @ const_x
    a_ub_rows = [problem.a_ub @ transform]
    b_ub_rows = [problem.b_ub - problem.a_ub @ const_x]
    for k, rhs in two_sided:
        row = np.zeros((1, nt))
        row[0, k] = 1.0
        a_ub_rows.append(row)
        b_ub_rows.append(np.array([rhs]))
    a_ub_t = np.vstack(a_ub_rows)
    b_ub_t = np.concatenate(b_ub_rows)
    m_ub = a_ub_t.shape[0]
    m = m_eq + m_ub

    n_struct = nt + m_ub  # transformed vars + slacks
    a_std = np.zeros((m, n_struct))
    a_std[:m_eq, :nt] = a_eq_t
    a_std[m_eq:, :nt] = a_ub_t
    a_std[m_eq:, nt:] = np.eye(m_ub)
    b_std = np.concatenate([b_eq_t, b_ub_t])

    row_sign = np.ones(m)
    neg = b_std < 0
    a_std[neg] *= -1.0
    b_std[neg] *= -1.0
    row_sign[neg] = -1.0

    # --- phase 1 ------------------------------------------------------------
    basis = np.empty(m, dtype=int)
    needs_artificial = np.ones(m, dtype=bool)
    for r in range(m_eq, m):
        slack_col = nt + (r - m_eq)
        if a_std[r, slack_col] > 0.0:  # slack survived sign normalization
            basis[r] = slack_col
            needs_artificial[r] = False
    art_rows = np.flatnonzero(needs_artificial)
    n_art = art_rows.size
    if n_art:
        art_block = np.zeros((m, n_art))
        for k, r in enumerate(art_rows):
            art_block[r, k] = 1.0
            basis[r] = n_struct + k
        a_full = np.hstack([a_std, art_block])
    else:
        a_full = a_std
    n_total = a_full.shape[1]

    sx = _Simplex(a_full, b_std)
    sx.set_basis(basis)
    enterable = np.ones(n_total, dtype=bool)
    enterable[n_struct:] = False  # artificials never enter

    if n_art:
        c_phase1 = np.zeros(n_total)
        c_phase1[n_struct:] = 1.0
        status = sx.run(c_phase1, enterable)
        if status != "optimal":
            raise NumericalBreakdown("phase 1 terminated abnormally")
        phase1_value = float(c_phase1[sx.basis] @ sx.xb)
        if phase1_value > LP_PHASE1:
            return LpSolution(LpStatus.INFEASIBLE, None, None, None, None,
                              iterations=sx.iterations)
        keep = sx.drive_out_artificials(n_struct, enterable)
        if not keep.all():
            a_full = a_full[keep][:, :n_struct]
            b_std = b_std[keep]
            kept_basis = sx.basis[keep]
            iterations = sx.iterations
            sx = _Simplex(a_full, b_std)
            sx.set_basis(kept_basis)
            sx.iterations = iterations
            enterable = enterable[:n_struct]
            n_total = n_struct
        row_index = np.flatnonzero(keep)
    else:
        row_index = np.arange(m)

    # --- phase 2 ------------------------------------------------------------
    c_min = np.zeros(n_total)
    c_min[:nt] = -(c_user @ transform)
    status = sx.run(c_min, enterable)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, None, None,
                          iterations=sx.iterations)

    x_std = np.zeros(n_total)
    x_std[sx.basis] = sx.xb
    x_user = transform @ x_std[:nt] + const_x
    value = float(c_user @ x_user)

    # duals of the computational problem, mapped back to user rows
    y = sx.binv.T @ c_min[sx.basis]
    y_rows = np.zeros(m)
    y_rows[row_index] = y
    dual_all = -row_sign * y_rows  # max-form duals
    dual_eq = dual_all[:m_eq]
    dual_ub = dual_all[m_eq : m_eq + problem.a_ub.shape[0]]

    # --- certification -------------------------------------------------------
    rhs_scale = 1.0
    for arr in (problem.b_eq, problem.b_ub):
        if arr.size:
            rhs_scale = max(rhs_scale, 1.0 + float(np.max(np.abs(arr))))
    feas = 0.0
    if m_eq:
        feas = max(feas, float(np.max(np.abs(problem.a_eq @ x_user - problem.b_eq))))
    if problem.a_ub.shape[0]:
        feas = max(feas, float(np.max(problem.a_ub @ x_user - problem.b_ub)))
    lo, up = problem.bounds[:, 0], problem.bounds[:, 1]
    with np.errstate(invalid="ignore"):
        feas = max(feas, float(np.max(np.where(np.isfinite(lo), lo - x_user, 0.0))))
        feas = max(feas, float(np.max(np.where(np.isfinite(up), x_user - up, 0.0))))

    reduced = c_min - a_full.T @ y if n_total else c_min
    compl = float(np.max(np.abs(reduced * x_std))) if n_total else 0.0
    gap = abs(float(c_min @ x_std) - float(y @ b_std))

    solution = LpSolution(
        LpStatus.OPTIMAL, x_user, value, dual_eq, dual_ub,
        feasibility_residual=feas, complementarity_residual=compl,
        duality_gap=gap, iterations=sx.iterations,
    )
    if feas > LP_FEASIBILITY * rhs_scale:
        raise NumericalBreakdown(f"primal residual {feas:.3e} above tolerance")
    if compl > LP_COMPLEMENTARITY:
        raise NumericalBreakdown(f"complementarity residual {compl:.3e} above tolerance")
    if gap > LP_DUALITY_GAP * (1.0 + abs(value)):
        raise NumericalBreakdown(f"duality gap {gap:.3e} above tolerance")
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

    Returns (argmin, value) with the argmin within tol of a true minimizer.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
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
