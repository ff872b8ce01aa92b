import ast
import hashlib
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import ipmdro
from ipmdro import (
    DiscreteDistribution,
    DudleyBall,
    FunctionVec,
    balls,
    lambda_penalty,
    make_space,
    solvers,
)
from ipmdro.errors import DimensionMismatch, NumericalBreakdown
from ipmdro.solvers import (
    FREE,
    NONNEG,
    LpProblem,
    LpStatus,
    lp_problem,
    minimize_scalar_convex,
    project_simplex,
    solve_lp,
)
from lp_record import solution_bytes
from oracles import greedy_l1_worst_case
from test_flow_lp import distribution, euclid_space


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
        # x <= 1 and x >= 2, the second posed as the row -x <= -2
        sol = solve_lp(lp_problem([1.0], ub=(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))))
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

    @pytest.mark.parametrize("bound", [
        pytest.param((2.0, np.inf), id="lower-2"),
        pytest.param((-np.inf, 1.0), id="upper-only"),
        pytest.param((-1.0, 1.0), id="boxed"),
        pytest.param((2.5, 2.5), id="fixed"),
        pytest.param((1.0, 0.5), id="empty"),
        pytest.param((np.inf, np.inf), id="empty-at-plus-infinity"),
        pytest.param((-np.inf, -np.inf), id="empty-at-minus-infinity"),
        pytest.param((np.nan, np.inf), id="nan"),
        pytest.param((0.0, np.nan), id="nan-upper"),
    ])
    def test_refuses_bounds_other_than_nonneg_and_free(self, bound, monkeypatch):
        """Every variable is NONNEG or FREE; any other bound is refused
        before a matrix is built, so no pivot is taken."""
        def no_simplex(*args, **kwargs):
            raise AssertionError("a simplex was built")

        monkeypatch.setattr(solvers, "_Simplex", no_simplex)
        problem = lp_problem([1.0, 1.0], ub=([[1.0, 1.0]], [5.0]), bounds=[FREE, bound])
        with pytest.raises(ValueError, match=r"must be NONNEG \(0, inf\) or FREE"):
            solve_lp(problem)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_lp(lp_problem([1.0, 2.0], eq=(np.array([[1.0]]), np.array([1.0]))))
        empty = np.zeros((1, 0))
        with pytest.raises(DimensionMismatch, match="at least one variable"):
            solve_lp(solvers.LpProblem(np.zeros(0), empty, np.ones(1), empty, np.ones(1),
                                       np.zeros((0, 2))))

    @pytest.mark.parametrize("count", [2, 4])
    def test_bounds_of_the_wrong_length(self, count):
        with pytest.raises(DimensionMismatch, match="bounds do not fit 3 variables"):
            lp_problem([1.0, 2.0, 3.0], bounds=[FREE] * count)

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
            bounds = [FREE if free else NONNEG for free in rng.random(n) < 0.5]
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
    infeasible.  Without it, HiGHS fails on a few infeasible ones (status 4,
    "Solve error"); those are solved again with presolve."""
    for presolve in (False, True):
        ref = linprog(
            -problem.objective,
            A_ub=problem.a_ub if problem.b_ub.size else None,
            b_ub=problem.b_ub if problem.b_ub.size else None,
            A_eq=problem.a_eq if problem.b_eq.size else None,
            b_eq=problem.b_eq if problem.b_eq.size else None,
            bounds=[tuple(b) for b in problem.bounds],
            method="highs",
            options={"presolve": presolve},
        )
        if ref.status != 4:
            break
    status = {2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}.get(ref.status, LpStatus.OPTIMAL)
    return status, (-ref.fun if status == LpStatus.OPTIMAL else None)


def dual_value(problem, sol, tol=1e-8):
    """The dual objective of max c'x, A_eq x = b_eq, A_ub x <= b_ub over
    NONNEG and FREE variables at the returned duals, b'y.  Dual feasibility
    holds: each reduced cost r_j = c_j - A_j'y is at most 0, and 0 on a free
    variable, and the row duals of <= rows are non-negative."""
    free = problem.bounds[:, 0] == -np.inf
    r = problem.objective - problem.a_eq.T @ sol.dual_eq - problem.a_ub.T @ sol.dual_ub
    assert np.all(r <= tol) and np.all(np.abs(r[free]) <= tol)
    assert np.all(sol.dual_ub >= -tol)
    return float(problem.b_eq @ sol.dual_eq + problem.b_ub @ sol.dual_ub)


def basic_artificials_at_zero(sx):
    """The artificials left basic after drive-out, each asserted at the
    zero level of phase 1."""
    at = sx.basis >= sx.first_artificial
    assert np.all(sx.xb[at] <= solvers.LP_PHASE1)
    return int(np.sum(at))


def bounded_fleet_problem(rng):
    """A random LP around a point x0 that meets its bounds, over NONNEG and
    FREE variables, with duplicated equality rows and inequality rows with
    either sign of right-hand side; about one in eight is made infeasible by
    two contradictory rows, a'x = t + 0.5 and a'x <= t."""
    n = int(rng.integers(1, 8))
    free = rng.random(n) < 0.5
    # x0 lies up to a unit inside a NONNEG bound, or within half a unit of 0
    x0 = rng.uniform(0.0, 1.0, n) - np.where(free, 0.5, 0.0)
    a_eq = rng.standard_normal((int(rng.integers(0, 3)), n))
    if a_eq.shape[0] and rng.random() < 0.5:  # a dependent row
        a_eq = np.vstack([a_eq, rng.choice([-2.0, 1.0]) * a_eq[:1]])
    a_ub = rng.standard_normal((int(rng.integers(0, 5)), n))
    b_ub = a_ub @ x0 + rng.choice([0.0, 0.5], a_ub.shape[0]) * rng.random(a_ub.shape[0])
    b_eq = a_eq @ x0
    if rng.random() < 0.125:
        row, t = rng.standard_normal(n), rng.standard_normal()
        a_eq, b_eq = np.vstack([a_eq, row]), np.append(b_eq, t + 0.5)
        a_ub, b_ub = np.vstack([a_ub, row]), np.append(b_ub, t)
    c = rng.standard_normal(n)
    bounds = np.where(free[:, None], FREE, NONNEG)
    return lp_problem(c, eq=(a_eq, b_eq), ub=(a_ub, b_ub), bounds=bounds)


class TestBoundedFleetAgainstHighs:
    """Both variable kinds and every phase-1 path, checked against HiGHS, the
    bounds and the dual objective."""

    def test_fleet(self, monkeypatch):
        stayed, pivoted_out = [], []
        drive_out = solvers._Simplex.drive_out_artificials

        def counting_drive_out(sx):
            basic_artificials = int(np.sum(sx.basis >= sx.first_artificial))
            drive_out(sx)
            stayed.append(basic_artificials_at_zero(sx))
            pivoted_out.append(basic_artificials - stayed[-1])

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
            x = sol.x
            assert np.all(x[problem.bounds[:, 0] == 0.0] >= 0.0)
            scale = 1.0 + max(np.abs(problem.b_eq).max(initial=0.0),
                              np.abs(problem.b_ub).max(initial=0.0))
            assert np.all(np.abs(problem.a_eq @ x - problem.b_eq) <= 1e-9 * scale)
            assert np.all(problem.a_ub @ x - problem.b_ub <= 1e-9 * scale)
            assert dual_value(problem, sol) == pytest.approx(sol.value, abs=1e-7, rel=1e-7)
        # the fleet reaches each outcome and both drive-out branches
        assert {LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.UNBOUNDED} <= set(statuses)
        assert sum(stayed) > 0 and sum(pivoted_out) > 0


# SHA-256 over ``solution_bytes`` of the 400 LPs of TestBoundedFleetAgainstHighs
FLEET_SOLUTIONS_DIGEST = "13594b57fec3f14b28bef13f24223d5fe61e57a173efecd3b6ef3642257509e2"


def test_fleet_solutions_are_pinned():
    """Every field of every LpSolution of the bounded fleet, byte for byte.

    The fleet poses equality rows, dependent rows, negative right-hand
    sides, phase 1 with both drive-out branches, and infeasible and
    unbounded LPs, each over at most 7 variables, so BLAS threading cannot
    move a bit.  A change to the LP kernel that moves a pivot or a bit of
    any solution must update this digest and say why in CHANGES.md; one
    that moves none leaves it as it is.
    """
    rng = np.random.default_rng(11)
    digest = hashlib.sha256()
    statuses = set()
    for _ in range(400):
        sol = solve_lp(bounded_fleet_problem(rng))
        statuses.add(sol.status)
        digest.update(solution_bytes(sol))
    assert statuses == set(LpStatus)
    assert digest.hexdigest() == FLEET_SOLUTIONS_DIGEST


class TestRedundantEqualityRow:
    """max c'x s.t. two equality rows and one inequality row, x >= 0, posed
    again with one equality row repeated.  The repeat's artificial stays
    basic at zero through phase 2, on the simplex that ran phase 1."""

    C = np.array([1.0, 2.0, 0.5, 1.5])
    A_EQ = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 0.0, 2.0]])
    B_EQ = np.array([1.0, 0.3])
    UB = (np.array([[0.0, 1.0, 2.0, 0.0]]), np.array([0.5]))

    def problem(self, rows):
        return lp_problem(self.C, eq=(self.A_EQ[rows], self.B_EQ[rows]), ub=self.UB)

    @pytest.mark.parametrize("rows", [[0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 1, 0]])
    def test_duals_of_the_two_copies_sum_to_the_row_dual(self, rows):
        base = solve_lp(self.problem([0, 1]))
        problem = self.problem(rows)
        sol = solve_lp(problem)
        status, value = highs(problem)
        assert sol.status == status == LpStatus.OPTIMAL
        assert sol.value == pytest.approx(base.value, abs=1e-12)
        assert sol.value == pytest.approx(value, abs=1e-9)
        assert dual_value(problem, sol) == pytest.approx(sol.value, abs=1e-12)
        for row in (0, 1):
            copies = np.flatnonzero(np.array(rows) == row)
            assert abs(sol.dual_eq[copies].sum() - base.dual_eq[row]) <= 1e-12
        assert abs(sol.dual_ub[0] - base.dual_ub[0]) <= 1e-12

    def test_one_simplex_per_call(self, monkeypatch):
        built = []

        def counting_simplex(*args):
            built.append(args)
            return simplex(*args)

        simplex = solvers._Simplex
        monkeypatch.setattr(solvers, "_Simplex", counting_simplex)
        problems = [self.problem([0, 1, 0]), self.problem([0, 1])]
        problems += [bounded_fleet_problem(np.random.default_rng(seed)) for seed in range(20)]
        for count, problem in enumerate(problems, start=1):
            solve_lp(problem)
            assert len(built) == count


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


class TestPhase2EndsOnItsCertificate:
    """Phase 2 returns at its first optimal pricing without refactorizing;
    only a failed certificate on an updated basis inverse makes it refactor,
    resume and certify again."""

    # max c'x s.t. Ax <= b, x >= 0 with positive data: no phase 1, a unique
    # optimum after 4 pivots
    RNG = np.random.default_rng(3)
    A, B, C = RNG.uniform(0.1, 1.0, (6, 4)), RNG.uniform(1.0, 2.0, 6), RNG.uniform(0.5, 1.0, 4)
    PROBLEM = lp_problem(C, ub=(A, B))

    @staticmethod
    def spy_refactor(monkeypatch, after=None):
        """Count refactorizations, by stage; ``after(sx)`` runs after each."""
        stages = []
        refactor = solvers._Simplex.refactor

        def spy(sx):
            stages.append(sx.stage)
            refactor(sx)
            if after is not None:
                after(sx)

        monkeypatch.setattr(solvers._Simplex, "refactor", spy)
        return stages

    def perturb_last_pivot(self, monkeypatch):
        """Add 1e-6 to every entry of B^-1 right after the last pivot of the
        unmutated solve; returns that solve."""
        clean = solve_lp(self.PROBLEM)
        exchange = solvers._Simplex.exchange

        def spy(sx, row, entering, direction, pivot):
            exchange(sx, row, entering, direction, pivot)
            if sx.iterations == clean.iterations - 1:
                sx.binv += 1e-6

        monkeypatch.setattr(solvers._Simplex, "exchange", spy)
        return clean

    def test_no_refactorization_without_phase_1(self, monkeypatch):
        stages = self.spy_refactor(monkeypatch)
        sol = solve_lp(self.PROBLEM)
        assert sol.status == LpStatus.OPTIMAL
        assert 0 < sol.iterations < solvers.LP_REFACTOR_EVERY
        assert stages == []

    def test_phase_1_confirms_once(self, monkeypatch):
        stages = self.spy_refactor(monkeypatch)
        sol = solve_lp(TestBreakdownNamesPhaseAndShape.PROBLEM)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert stages == ["phase 1"]

    def test_failed_certificate_refactors_and_resumes(self, monkeypatch):
        clean = self.perturb_last_pivot(monkeypatch)
        stages = self.spy_refactor(monkeypatch)
        with monkeypatch.context() as patch:
            failures = []
            certify = solvers._certify

            def spy_certify(*args):
                solution, failure = certify(*args)
                failures.append(failure)
                return solution, failure

            patch.setattr(solvers, "_certify", spy_certify)
            sol = solve_lp(self.PROBLEM)
        assert failures[0] is not None and failures[1:] == [None]
        assert stages == ["phase 2"]
        assert sol.status == LpStatus.OPTIMAL
        assert np.abs(sol.x - clean.x).max() <= 1e-9
        assert abs(sol.value - clean.value) <= 1e-9
        assert np.abs(sol.dual_ub - clean.dual_ub).max() <= 1e-9

    def test_second_failed_certificate_raises(self, monkeypatch):
        self.perturb_last_pivot(monkeypatch)

        def corrupt(sx):
            # an update after the refactorization, as if the resumed run
            # had pivoted: the second failure must raise all the same
            sx.binv += 1e-6
            sx.stale = True

        stages = self.spy_refactor(monkeypatch, after=corrupt)
        with pytest.raises(NumericalBreakdown, match=r"^solve_lp certification \(6 rows, "
                           r"10 columns, iteration \d+\): "):
            solve_lp(self.PROBLEM)
        assert stages == ["phase 2"]


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

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_refuses_a_tol_that_is_not_positive(self, tol):
        with pytest.raises(ValueError, match="need tol > 0"):
            minimize_scalar_convex(ends_within(10_000, lambda b: b * b), -1.0, 1.0, tol)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (-np.inf, 1.0), (0.0, np.nan)])
    def test_refuses_a_bracket_that_is_not_finite_and_ordered(self, lo, hi):
        with pytest.raises(ValueError, match="need finite lo < hi"):
            minimize_scalar_convex(ends_within(10_000, lambda b: b * b), lo, hi)

    def test_ends_when_tol_is_below_the_float_spacing(self):
        """Floats lie 1.5e-8 apart at 1e8: the bracket stalls a few floats
        wide, above tol, and the search stops after the steps tol implies."""
        f = ends_within(100, lambda b: abs(b - (1e8 + 0.3)))
        argmin, value = minimize_scalar_convex(f, 1e8 - 1.0, 1e8 + 1.0, 1e-12)
        assert abs(argmin - (1e8 + 0.3)) <= 1e-7 and value <= 1e-7


def ends_within(calls, f):
    """f, raising once called more than ``calls`` times: a search that never
    ends fails instead of hanging."""
    count = [0]

    def counted(b):
        count[0] += 1
        if count[0] > calls:
            raise RuntimeError(f"more than {calls} calls")
        return f(b)

    return counted


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


def dense_exchange(sx, row, entering, direction, pivot):
    """The elementary update over the whole basis inverse."""
    pivot_row = sx.binv[row]
    pivot_row /= pivot
    direction[row] = 0.0
    sx.binv -= direction[:, None] * pivot_row
    sx.basis[row] = entering


def full_pricing(sx, c):
    """Bland's entering column from the reduced costs of every column."""
    reduced = c - sx.at @ (sx.binv.T @ c[sx.basis])
    reduced[sx.basis] = 0.0
    reduced[sx.first_artificial:] = 0.0  # artificials never enter
    improving = reduced < -solvers.LP_REDUCED_COST
    entering = improving.argmax()
    return int(entering) if improving[entering] else None


def outcome(problem):
    """Every field of the solution, as bytes, or the breakdown message."""
    try:
        sol = solve_lp(problem)
    except NumericalBreakdown as exc:
        return str(exc)
    arrays = (sol.x, sol.dual_eq, sol.dual_ub)
    return (sol.status, sol.iterations,
            [None if a is None else a.tobytes() for a in arrays],
            np.array([np.nan if v is None else v for v in (
                sol.value, sol.feasibility_residual, sol.complementarity_residual,
                sol.duality_gap)]).tobytes())


def slack_heavy_problem(rng, m, k, dependent):
    """m inequality rows with one to three nonzeros each over k variables,
    feasible around a point x0 >= 0, a few with a negative right-hand side;
    a budget row keeps the LP bounded.  With ``dependent``, two equality
    rows through x0 and a multiple of the first."""
    x0 = rng.uniform(0.0, 1.0, k)
    a_ub = np.zeros((m, k))
    for row in a_ub:
        cols = rng.choice(k, int(rng.integers(1, 4)), replace=False)
        signs = rng.choice([-1.0, 1.0], cols.size, p=[0.3, 0.7])
        row[cols] = rng.uniform(0.1, 1.0, cols.size) * signs
    a_ub[0] = 1.0
    b_ub = a_ub @ x0 + rng.uniform(0.0, 1.0, m)
    a_eq = np.zeros((0, k))
    if dependent:
        a_eq = rng.standard_normal((2, k))
        a_eq = np.vstack([a_eq, -2.0 * a_eq[:1]])
    bounds = np.where(rng.random(k)[:, None] < 0.2, FREE, NONNEG)
    return lp_problem(rng.standard_normal(k), eq=(a_eq, a_eq @ x0), ub=(a_ub, b_ub),
                      bounds=bounds)


class TestSparsePivotMatchesDensePivot:
    """The column-sparse update and the structural-first pricing give the
    bytes of the dense update and full pricing, on either side of
    LP_SPARSE_UPDATE_ROWS."""

    @staticmethod
    def problems():
        rng = np.random.default_rng(17)
        for m, k, dependent in [(100, 5, False), (150, 20, True), (300, 60, False),
                                (500, 30, True), (1000, 8, False)]:
            yield slack_heavy_problem(rng, m, k, dependent)
        yield lp_problem([1.0])  # no rows: unbounded
        yield lp_problem([-1.0, 0.0], bounds=[NONNEG, FREE])  # no rows: optimal at 0
        yield lp_problem([1.0, 1.0], eq=([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]))  # no slack
        yield lp_problem([1.0, -1.0], eq=([[1.0, 1.0], [1.0, -1.0]], [1.0, -0.5]))

    @staticmethod
    def euclid_dudley_penalty_lp(monkeypatch):
        """The Dudley penalty LP on 8 random points in the plane, which
        breaks down in phase 1."""
        posed = []

        def capture(problem):
            posed.append(problem)
            return solve_lp(problem)

        with monkeypatch.context() as patch:
            patch.setattr(balls, "solve_lp", capture)
            rng = np.random.default_rng(8)
            space = euclid_space(rng, 8)
            P = distribution(rng, space)
            h = FunctionVec(space, rng.uniform(-1.0, 1.0, 8))
            with pytest.raises(NumericalBreakdown):
                lambda_penalty(P, DudleyBall(space), 0.4, h)
        return posed[-1]

    def test_same_bytes(self, monkeypatch):
        problems = list(self.problems()) + [self.euclid_dudley_penalty_lp(monkeypatch)]
        branches, stayed = set(), []
        exchange = solvers._Simplex.exchange
        drive_out = solvers._Simplex.drive_out_artificials

        def spy_exchange(sx, row, entering, direction, pivot):
            exchange(sx, row, entering, direction, pivot)
            sparse_row = 8 * np.count_nonzero(sx.binv[row]) < sx.m
            branches.add(sx.m >= solvers.LP_SPARSE_UPDATE_ROWS and sparse_row)

        def spy_drive_out(sx):
            drive_out(sx)
            stayed.append(basic_artificials_at_zero(sx))

        with monkeypatch.context() as patch:
            patch.setattr(solvers._Simplex, "exchange", spy_exchange)
            patch.setattr(solvers._Simplex, "drive_out_artificials", spy_drive_out)
            default = [outcome(p) for p in problems]
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "LP_SPARSE_UPDATE_ROWS", 0)
            sparse_always = [outcome(p) for p in problems]
        with monkeypatch.context() as patch:
            patch.setattr(solvers._Simplex, "exchange", dense_exchange)
            patch.setattr(solvers._Simplex, "entering", full_pricing)
            reference = [outcome(p) for p in problems]
        assert default == reference
        assert sparse_always == reference
        # both update branches at the default crossover, phase 1 with a
        # dependent row whose artificial stays basic, unbounded and optimal
        # LPs, the breakdown
        assert branches == {True, False}
        assert sum(stayed) > 0
        assert {LpStatus.OPTIMAL, LpStatus.UNBOUNDED} <= {o[0] for o in reference[:-1]}
        assert reference[-1].startswith("solve_lp phase 1 (80 rows, 136 columns, ")


def test_dense_updates_reuse_one_buffer(monkeypatch):
    """After the first dense rank-one update, further dense updates allocate
    no m x m array: under tracemalloc, the peak over the next 50 dense
    pivots stays below m^2 x 8 bytes.  The Dudley penalty LP on a 51-point
    path has 253 rows and takes the dense update on most pivots after its
    first 190; no refactorization falls in the window."""
    exchange, refactor = solvers._Simplex.exchange, solvers._Simplex.refactor
    dense, refactors, peak, rows = [0], [0], [], []

    def spy_exchange(sx, row, entering, direction, pivot):
        exchange(sx, row, entering, direction, pivot)
        if peak or 8 * np.count_nonzero(sx.binv[row]) < sx.m:
            return
        if dense[0] == 0:
            tracemalloc.start()
        elif dense[0] == 50:
            peak.append(tracemalloc.get_traced_memory()[1])
            rows.append(sx.m)
            tracemalloc.stop()
        dense[0] += 1

    def spy_refactor(sx):
        refactors[0] += tracemalloc.is_tracing()
        refactor(sx)

    monkeypatch.setattr(solvers._Simplex, "exchange", spy_exchange)
    monkeypatch.setattr(solvers._Simplex, "refactor", spy_refactor)
    t = np.linspace(0.0, 8.0, 51)
    space = make_space([f"x{i}" for i in range(t.size)], metric=np.abs(t[:, None] - t[None, :]))
    P = DiscreteDistribution(space, np.full(t.size, 1.0 / t.size))
    try:
        lambda_penalty(P, DudleyBall(space), 0.3, FunctionVec(space, np.sin(2.0 * t) + t))
    finally:
        tracemalloc.stop()
    m = rows[0]
    assert m >= solvers.LP_SPARSE_UPDATE_ROWS and refactors[0] == 0
    assert peak[0] < m * m * 8


def _hand_built(**fields):
    """A feasible LP over two NONNEG variables, built without ``lp_problem``
    (which reshapes its input), with ``fields`` replaced."""
    base = dict(objective=np.ones(2), a_eq=np.zeros((0, 2)), b_eq=np.zeros(0),
                a_ub=np.ones((1, 2)), b_ub=np.ones(1), bounds=np.array([NONNEG, NONNEG]))
    return LpProblem(**(base | fields))


REFUSALS = {
    "ub_columns": (lambda: solve_lp(_hand_built(a_ub=np.ones((1, 3)))), DimensionMismatch,
                   "constraint matrices do not match objective size"),
    "eq_columns": (lambda: solve_lp(_hand_built(a_eq=np.ones((1, 1)), b_eq=np.ones(1))),
                   DimensionMismatch, "constraint matrices do not match objective size"),
    "ub_rhs": (lambda: solve_lp(_hand_built(b_ub=np.ones(2))), DimensionMismatch,
               "constraint rhs does not match matrix rows"),
    "eq_rhs": (lambda: solve_lp(_hand_built(b_eq=np.ones(1))), DimensionMismatch,
               "constraint rhs does not match matrix rows"),
    "bounds_rows": (lambda: solve_lp(_hand_built(bounds=np.array([NONNEG]))), DimensionMismatch,
                    "bounds must be (n, 2)"),
    "bounds_flat": (lambda: solve_lp(_hand_built(bounds=np.zeros(4))), DimensionMismatch,
                    "bounds must be (n, 2)"),
    "nan_objective": (lambda: solve_lp(_hand_built(objective=np.array([np.nan, 1.0]))),
                      ValueError, "LP data must be finite"),
    "inf_matrix": (lambda: solve_lp(_hand_built(a_ub=np.array([[np.inf, 1.0]]))), ValueError,
                   "LP data must be finite"),
    "nan_rhs": (lambda: solve_lp(_hand_built(b_ub=np.array([np.nan]))), ValueError,
                "LP data must be finite"),
    "project_nan": (lambda: project_simplex(np.array([np.nan, 1.0])), ValueError,
                    "projection input must be finite"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
