import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import ipmdro
from ipmdro.errors import DimensionMismatch
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
