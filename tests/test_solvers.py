import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import ipmdro
from ipmdro import solvers
from ipmdro.errors import DimensionMismatch, NumericalBreakdown
from ipmdro.solvers import (
    FREE,
    NONNEG,
    LpStatus,
    lp_problem,
    minimize_scalar_convex,
    project_simplex,
    solve_lp,
)
from oracles import greedy_l1_worst_case


def l1_ball_lp(h, p, eps):
    """max <h, q> over the simplex with ||q - p||_1 <= eps via split variables."""
    n = len(h)
    c = np.concatenate([h, np.zeros(2 * n)])
    a_eq = np.zeros((n + 1, 3 * n))
    a_eq[:n, :n] = np.eye(n)
    a_eq[:n, n : 2 * n] = -np.eye(n)
    a_eq[:n, 2 * n :] = np.eye(n)
    a_eq[n, :n] = 1.0
    b_eq = np.concatenate([p, [1.0]])
    a_ub = np.zeros((1, 3 * n))
    a_ub[0, n:] = 1.0
    return solve_lp(lp_problem(c, eq=(a_eq, b_eq), ub=(a_ub, np.array([eps]))))


class TestSolveLp:
    def test_simplex_face(self):
        sol = solve_lp(lp_problem([1.0, 1.0], ub=(np.array([[1.0, 1.0]]), np.array([1.0]))))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        sol = solve_lp(
            lp_problem([1.0], ub=(np.array([[1.0]]), np.array([1.0])), bounds=[(2.0, np.inf)])
        )
        assert sol.status == LpStatus.INFEASIBLE

    def test_unbounded(self):
        assert solve_lp(lp_problem([1.0])).status == LpStatus.UNBOUNDED

    def test_l1_ball_against_greedy_oracle(self):
        h = np.array([0.0, 1.0, 2.0])
        p = np.full(3, 1.0 / 3.0)
        for eps in (0.3, 0.6, 1.0, 1.7):
            expected = greedy_l1_worst_case(h, p, eps)
            assert l1_ball_lp(h, p, eps).value == pytest.approx(expected, abs=1e-9)
        # frozen values from the oracle
        assert l1_ball_lp(h, p, 0.3).value == pytest.approx(1.3, abs=1e-9)
        assert l1_ball_lp(h, p, 0.6).value == pytest.approx(1.6, abs=1e-9)
        assert l1_ball_lp(h, p, 1.0).value == pytest.approx(11.0 / 6.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_lp(lp_problem([1.0, 2.0], eq=(np.array([[1.0]]), np.array([1.0]))))

    def test_random_fleet_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            meq = int(rng.integers(0, 4))
            mub = int(rng.integers(0, 6))
            c = rng.standard_normal(n)
            a_eq = rng.standard_normal((meq, n))
            b_eq = rng.standard_normal(meq)
            a_ub = rng.standard_normal((mub, n))
            b_ub = rng.standard_normal(mub)
            bounds = []
            for kind in rng.integers(0, 4, size=n):
                if kind == 0:
                    bounds.append(NONNEG)
                elif kind == 1:
                    bounds.append(FREE)
                elif kind == 2:
                    bounds.append((float(rng.uniform(-2, 0)), float(rng.uniform(0, 2))))
                else:
                    bounds.append((-np.inf, float(rng.uniform(0, 2))))
            mine = solve_lp(lp_problem(c, eq=(a_eq, b_eq), ub=(a_ub, b_ub), bounds=bounds))
            ref = linprog(
                -c,
                A_ub=a_ub if mub else None,
                b_ub=b_ub if mub else None,
                A_eq=a_eq if meq else None,
                b_eq=b_eq if meq else None,
                bounds=bounds,
                method="highs",
            )
            ref_status = {2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}.get(
                ref.status, LpStatus.OPTIMAL
            )
            assert mine.status == ref_status
            if mine.status == LpStatus.OPTIMAL:
                assert mine.value == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)

    def test_duality_and_certificates(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            c = rng.standard_normal(n)
            a_ub = rng.standard_normal((int(rng.integers(1, 5)), n))
            b_ub = rng.uniform(0.5, 2.0, a_ub.shape[0])
            a_eq = np.ones((1, n))
            b_eq = np.array([1.0])
            bounds = [NONNEG if i % 2 == 0 else FREE for i in range(n)]
            sol = solve_lp(lp_problem(c, eq=(a_eq, b_eq), ub=(a_ub, b_ub), bounds=bounds))
            if sol.status != LpStatus.OPTIMAL:
                continue
            # with 0/free bounds the dual value is the constraint duals alone
            dual_value = float(sol.dual_eq @ b_eq + sol.dual_ub @ b_ub)
            assert abs(dual_value - sol.value) <= 1e-7 * (1.0 + abs(sol.value))
            assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.value))
            assert sol.feasibility_residual <= 1e-9 * (1.0 + float(np.abs(b_ub).max()))
            assert sol.complementarity_residual <= 1e-7

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal(6)
        a_ub = rng.standard_normal((4, 6))
        b_ub = rng.uniform(0.5, 2.0, 4)
        p = lp_problem(c, ub=(a_ub, b_ub))
        first = solve_lp(p)
        second = solve_lp(p)
        assert np.array_equal(first.x, second.x)
        assert first.value == second.value


def highs(problem):
    """HiGHS on the same LP: (status, value).  Presolve is off: it reads some
    unbounded LPs of the fleet below, built around a feasible point, as
    infeasible."""
    ref = linprog(
        -problem.objective,
        A_ub=problem.a_ub if problem.b_ub.size else None,
        b_ub=problem.b_ub if problem.b_ub.size else None,
        A_eq=problem.a_eq if problem.b_eq.size else None,
        b_eq=problem.b_eq if problem.b_eq.size else None,
        bounds=[tuple(b) for b in problem.bounds],
        method="highs",
        options={"presolve": False},
    )
    status = {2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}.get(ref.status, LpStatus.OPTIMAL)
    return status, (-ref.fun if status == LpStatus.OPTIMAL else None)


def bounded_dual_value(problem, sol, tol=1e-8):
    """The dual objective of max c'x, A_eq x = b_eq, A_ub x <= b_ub,
    lo <= x <= up at the returned duals: b'y plus each reduced cost r_j times
    the bound it presses on (up where r_j > 0, lo where r_j < 0).  A reduced
    cost may press only on a finite bound, and the row duals of <= rows are
    non-negative."""
    lo, up = problem.bounds.T
    r = problem.objective - problem.a_eq.T @ sol.dual_eq - problem.a_ub.T @ sol.dual_ub
    r[np.abs(r) <= tol] = 0.0
    assert np.all(np.isfinite(up[r > 0])) and np.all(np.isfinite(lo[r < 0]))
    assert np.all(sol.dual_ub >= -tol)
    bound = np.where(r > 0, up, np.where(r < 0, lo, 0.0))
    return float(problem.b_eq @ sol.dual_eq + problem.b_ub @ sol.dual_ub + r @ bound)


BOUND_KINDS = ("nonneg", "lower", "upper", "boxed", "fixed", "free")


def bounded_fleet_problem(rng):
    """A random LP around a point x0 inside its bounds, drawing every kind of
    bound, duplicated equality rows and inequality rows with either sign of
    right-hand side; about one in eight is made infeasible with lo > up."""
    n = int(rng.integers(1, 8))
    kinds = rng.choice(BOUND_KINDS, size=n)
    lo = np.where(kinds == "nonneg", 0.0, rng.uniform(-2.0, 1.0, n))
    up = lo + rng.uniform(0.0, 2.0, n)
    lo[np.isin(kinds, ("upper", "free"))] = -np.inf
    up[np.isin(kinds, ("nonneg", "lower", "free"))] = np.inf
    up[kinds == "fixed"] = lo[kinds == "fixed"]
    # x0 lies inside the box, or up to a unit inside a one-sided bound
    step = rng.uniform(0.0, 1.0, n) * np.where(np.isfinite(up - lo), up - lo, 1.0)
    x0 = np.where(np.isfinite(lo), lo + step, np.where(np.isfinite(up), up - step, step - 0.5))
    a_eq = rng.standard_normal((int(rng.integers(0, 3)), n))
    if a_eq.shape[0] and rng.random() < 0.5:  # a dependent row
        a_eq = np.vstack([a_eq, rng.choice([-2.0, 1.0]) * a_eq[:1]])
    a_ub = rng.standard_normal((int(rng.integers(0, 5)), n))
    b_ub = a_ub @ x0 + rng.choice([0.0, 0.5], a_ub.shape[0]) * rng.random(a_ub.shape[0])
    if rng.random() < 0.125:
        j = int(rng.integers(n))
        lo[j], up[j] = 1.0, 0.5
    c = rng.standard_normal(n)
    return lp_problem(c, eq=(a_eq, a_eq @ x0), ub=(a_ub, b_ub), bounds=np.column_stack([lo, up]))


class TestBoundedFleetAgainstHighs:
    """Every branch of the bound transform and every phase-1 path, checked
    against HiGHS, the user bounds and the dual objective."""

    def test_fleet(self, monkeypatch):
        dropped, pivoted_out = [], []
        drive_out = solvers._Simplex.drive_out_artificials

        def counting_drive_out(sx):
            basic_artificials = int(np.sum(sx.basis >= sx.first_artificial))
            keep = drive_out(sx)
            dropped.append(int(np.sum(~keep)))
            pivoted_out.append(basic_artificials - dropped[-1])
            return keep

        monkeypatch.setattr(solvers._Simplex, "drive_out_artificials", counting_drive_out)
        rng = np.random.default_rng(11)
        statuses = []
        for _ in range(400):
            problem = bounded_fleet_problem(rng)
            sol = solve_lp(problem)
            status, value = highs(problem)
            assert sol.status == status
            statuses.append(status)
            if status != LpStatus.OPTIMAL:
                continue
            assert sol.value == pytest.approx(value, abs=1e-7, rel=1e-7)
            lo, up = problem.bounds.T
            x = sol.x
            assert np.all(x >= lo - 1e-9) and np.all(x <= up + 1e-9)
            scale = 1.0 + max(np.abs(problem.b_eq).max(initial=0.0),
                              np.abs(problem.b_ub).max(initial=0.0))
            assert np.all(np.abs(problem.a_eq @ x - problem.b_eq) <= 1e-9 * scale)
            assert np.all(problem.a_ub @ x - problem.b_ub <= 1e-9 * scale)
            assert bounded_dual_value(problem, sol) == pytest.approx(
                sol.value, abs=1e-7, rel=1e-7)
        # the fleet reaches each outcome and both drive-out branches
        assert {LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.UNBOUNDED} <= set(statuses)
        assert sum(dropped) > 0 and sum(pivoted_out) > 0

    def test_empty_bounds_are_infeasible_before_any_pivot(self):
        for bounds in ([(1.0, 0.5)], [(np.inf, np.inf)], [(-np.inf, -np.inf)]):
            sol = solve_lp(lp_problem([1.0], bounds=bounds))
            assert sol.status == LpStatus.INFEASIBLE and sol.iterations == 0

    def test_fixed_variable_reads_its_value(self):
        sol = solve_lp(lp_problem([1.0, 1.0], ub=([[1.0, 1.0]], [5.0]),
                                  bounds=[(2.5, 2.5), FREE]))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x[0] == 2.5 and sol.value == pytest.approx(5.0, abs=1e-12)


def loop_bound_transform(bounds):
    """The per-variable loop that classified the bounds before the masks:
    the reference for ``solvers._bound_transform``."""
    n = len(bounds)
    col_var, const_x, box_cols = [], np.zeros(n), []
    for j, (lo, up) in enumerate(bounds):
        if np.isneginf(lo) and np.isposinf(up):
            col_var += [(j, 1.0), (j, -1.0)]
        elif np.isposinf(up):
            const_x[j] = lo
            col_var.append((j, 1.0))
        elif np.isneginf(lo):
            const_x[j] = up
            col_var.append((j, -1.0))
        else:
            const_x[j] = lo
            col_var.append((j, 1.0))
            box_cols.append(len(col_var) - 1)
    transform = np.zeros((n, len(col_var)))
    for k, (j, sign) in enumerate(col_var):
        transform[j, k] = sign
    return transform, const_x, box_cols


def test_bound_transform_matches_the_per_variable_loop():
    rng = np.random.default_rng(12)
    for _ in range(300):
        bounds = bounded_fleet_problem(rng).bounds
        lo, up = bounds.T
        if np.any(lo > up):
            continue
        got = solvers._bound_transform(lo, up, np.isfinite(lo), np.isfinite(up))
        want = loop_bound_transform(bounds)
        assert got[0].tobytes() == want[0].tobytes() and got[0].shape == want[0].shape
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tolist() == want[2]


class TestBreakdownNamesPhaseAndShape:
    """max x1 + x2 s.t. x1 + x2 = 1, x1 <= 0.7, x >= 0: two rows, and three
    columns (two variables, one slack) plus one artificial for the equality."""

    PROBLEM = lp_problem([1.0, 1.0], eq=([[1.0, 1.0]], [1.0]), ub=([[1.0, 0.0]], [0.7]))

    def test_phase_1_pivot(self, monkeypatch):
        monkeypatch.setattr(solvers, "LP_PIVOT", 10.0)
        with pytest.raises(NumericalBreakdown, match=r"^solve_lp phase 1 \(2 rows, 4 columns, "
                           r"iteration 0\): pivot 1\.000e\+00 below tolerance$"):
            solve_lp(self.PROBLEM)

    def test_phase_2_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(solvers, "LP_MAX_ITERATIONS", 1)
        # no equality row and b >= 0: no artificial, so phase 2 is the first
        with pytest.raises(NumericalBreakdown, match=r"^solve_lp phase 2 \(3 rows, 5 columns, "
                           r"iteration 2\): simplex iteration limit reached$"):
            solve_lp(lp_problem([1.0, 1.0], ub=(np.eye(3, 2) + np.eye(3, 2, -1), [1.0, 2.0, 1.0])))

    def test_certification(self, monkeypatch):
        monkeypatch.setattr(solvers, "LP_DUALITY_GAP", -1.0)
        with pytest.raises(NumericalBreakdown, match=r"^solve_lp certification \(2 rows, "
                           r"4 columns, iteration \d+\): duality gap"):
            solve_lp(self.PROBLEM)

    def test_singular_basis(self, monkeypatch):
        """Phase 1 pivots twice, then refactors to confirm its optimum."""
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(NumericalBreakdown, match=r"^solve_lp phase 1 \(2 rows, 4 columns, "
                           r"iteration 2\): singular basis: Singular matrix$"):
            solve_lp(self.PROBLEM)

    def test_refactored_basis_lost_feasibility(self, monkeypatch):
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: -inv(a))
        with pytest.raises(NumericalBreakdown, match=r"^solve_lp phase 1 \(2 rows, 4 columns, "
                           r"iteration 2\): basic solution lost feasibility$"):
            solve_lp(self.PROBLEM)

    @pytest.mark.parametrize("constant, residual", [
        ("LP_FEASIBILITY", "primal residual"),
        ("LP_COMPLEMENTARITY", "complementarity residual"),
    ])
    def test_certification_residuals(self, constant, residual, monkeypatch):
        monkeypatch.setattr(solvers, constant, -1.0)
        with pytest.raises(NumericalBreakdown, match=r"^solve_lp certification \(2 rows, "
                           rf"4 columns, iteration 2\): {residual} 0\.000e\+00 above tolerance$"):
            solve_lp(self.PROBLEM)


class TestProjectSimplex:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(v), v, atol=1e-12)

    def test_dominant_coordinate(self):
        assert np.allclose(project_simplex(np.array([10.0, 0.0, 0.0])), [1, 0, 0])

    def test_uniform_by_symmetry(self):
        assert np.allclose(
            project_simplex(np.array([0.5, 0.5, 0.5])), np.full(3, 1 / 3), atol=1e-12
        )

    def test_variational_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            v = rng.standard_normal(n) * 3.0
            q = project_simplex(v)
            assert abs(q.sum() - 1.0) <= 1e-12
            assert q.min() >= 0.0
            p = rng.dirichlet(np.ones(n))
            assert float((v - q) @ (p - q)) <= 1e-9


class TestGoldenSection:
    def test_parabola(self):
        argmin, value = minimize_scalar_convex(lambda b: (b - 1.0) ** 2, -5.0, 5.0, 1e-10)
        assert argmin == pytest.approx(1.0, abs=1e-8)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_kink(self):
        argmin, _ = minimize_scalar_convex(abs, -1.0, 2.0, 1e-10)
        assert argmin == pytest.approx(0.0, abs=1e-8)

    def test_midrange_objective(self):
        h = np.array([0.0, 1.0, 2.0])
        argmin, value = minimize_scalar_convex(
            lambda b: float(np.max(np.abs(h - b))), 0.0, 2.0, 1e-10
        )
        assert argmin == pytest.approx(1.0, abs=1e-8)
        assert value == pytest.approx(1.0, abs=1e-8)


def test_every_tolerance_is_read_by_the_package():
    """An upper-case constant of solvers.py that no code reads does nothing.

    Only loads count (a bare name or a module attribute): an import, a
    docstring or the definition itself never reads the value.
    """
    package = Path(ipmdro.__file__).parent
    solvers_tree = ast.parse((package / "solvers.py").read_text())
    defined = [
        target.id
        for node in solvers_tree.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    ]
    read = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert "LP_FEASIBILITY" in defined
    assert [name for name in defined if name not in read] == []


def test_no_public_function_takes_tolerances():
    """The certification contract is fixed: no call can loosen it."""
    takers = []
    for name in dir(ipmdro):
        obj = getattr(ipmdro, name)
        callables = [obj] if inspect.isfunction(obj) else []
        if inspect.isclass(obj):
            callables += [f for _, f in inspect.getmembers(obj, inspect.isfunction)]
        takers += [f"{name}.{f.__name__}" for f in callables
                   if "tolerances" in inspect.signature(f).parameters]
    assert takers == []
