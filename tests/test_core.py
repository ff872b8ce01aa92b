import re
import tracemalloc

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
    discretize_structured_class,
    make_space,
    symmetrize_class,
    theta,
)
from ipmdro import core
from ipmdro.core import (
    METRIC_TOL,
    FunctionClass,
    c_transform,
    graph_is_connected,
    lipschitz_constant,
    lipschitz_pairs,
    plan_cost,
    require_same_space,
    sobolev_matrix,
)
from ipmdro.errors import (
    AsymmetricMetric,
    DimensionMismatch,
    GraphDisconnected,
    HomogeneityViolated,
    MissingGraph,
    NumericalBreakdown,
    SelfLoop,
    SingularGram,
    TriangleInequalityViolated,
    UnsupportedVariant,
    ZeroMassMu,
)
from oracles import sign_vectors


def index_metric(n):
    idx = np.arange(n, dtype=float)
    return np.abs(idx[:, None] - idx[None, :])


def assert_pairs(space, pairs):
    """``lipschitz_pairs`` returns exactly ``pairs``, in order, with their costs."""
    i, j, cost = lipschitz_pairs(space)
    assert list(zip(i.tolist(), j.tolist())) == pairs
    assert cost.tobytes() == np.array([space.metric[a, b] for a, b in pairs]).tobytes()


def adjacent(n):
    return [(i, i + 1) for i in range(n - 1)]


def row_major(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def metric_tol(c) -> float:
    """The triangle check's tolerance, in the metric's own units."""
    return METRIC_TOL * np.abs(c).max()


def expect_reference_triangle_check(c) -> bool:
    """make_space accepts c, or refuses it naming the first violating triple
    and its excess, exactly as the plain triangle loop does; True when it
    refuses."""
    n, tol = c.shape[0], metric_tol(c)
    expected = None
    for k in range(n):
        slack = c - (c[:, k : k + 1] + c[k : k + 1, :])
        if slack.max() > tol:
            i, j = np.argwhere(slack > tol)[0]
            expected = f"c({i},{j}) > c({i},{k}) + c({k},{j}) by {slack[i, j]:.3g} (tol {tol:.3g})"
            break
    labels = [str(i) for i in range(n)]
    if expected is None:
        make_space(labels, metric=c)
        return False
    with pytest.raises(TriangleInequalityViolated) as info:
        make_space(labels, metric=c)
    assert str(info.value) == expected
    return True


class TestMakeSpace:
    def test_path_metric(self):
        space = make_space(["a", "b", "c"], metric=index_metric(3))
        assert space.n == 3
        assert_pairs(space, adjacent(3))

    def test_triangle_violation(self):
        metric = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(TriangleInequalityViolated,
                           match=r"^c\(0,2\) > c\(0,1\) \+ c\(1,2\) by 3 \(tol 5e-12\)$"):
            make_space(["a", "b", "c"], metric=metric)

    def test_asymmetry_names_the_worst_pair(self):
        metric = index_metric(4)
        metric[0, 1] += 0.25
        metric[3, 1] += 0.5
        with pytest.raises(AsymmetricMetric, match=r"^metric matrix is not symmetric: "
                           r"\|c\(1,3\) - c\(3,1\)\| = 0\.5 \(tol 3e-12\)$"):
            make_space(["a", "b", "c", "d"], metric=metric)

    def test_diagonal_refusal_names_the_entry(self):
        metric = index_metric(4)
        metric[1, 1], metric[2, 2] = 1e-3, -0.5
        with pytest.raises(ValueError, match=r"^metric diagonal must be zero: c\(2,2\) = -0\.5$"):
            make_space(["a", "b", "c", "d"], metric=metric)

    def test_triangle_check_matches_the_reference_loop(self):
        """The in-place check refuses exactly the matrices the plain loop
        refuses, naming the same first violating triple."""
        rng = np.random.default_rng(5)
        refused = 0
        for _ in range(60):
            n = int(rng.integers(3, 9))
            a = rng.uniform(0.5, 2.0, (n, n))
            c = a + a.T
            np.fill_diagonal(c, 0.0)
            refused += expect_reference_triangle_check(c)
        assert 0 < refused < 60

    def test_near_path_metrics_match_the_reference_loop(self, monkeypatch):
        """Path metrics on a line, one pair moved by up to 3 tol, at scales
        2^-10 to 10^4: acceptance and the first violating triple stay those of
        the plain loop, which runs exactly when the shift exceeds 0.3 tol,
        the line test's bound, at every scale.  The same test decides the
        Lipschitz pairs: adjacent ones while it holds, all pairs after the
        loop accepts."""
        loops = []
        check = core._check_triangle
        monkeypatch.setattr(core, "_check_triangle",
                            lambda c, s, tol: loops.append(1) or check(c, s, tol))
        rng = np.random.default_rng(6)
        refused = skipped = 0
        for scale in (2.0**-10, 1.0, 60.0, 1000.0, 1e4):
            for share in (0.0, 0.1, 0.25, 0.35, 0.6, 1.1, 3.0):
                n = int(rng.integers(3, 12))
                t = np.cumsum(rng.uniform(0.1, 1.0, n)) * scale / n
                c = np.abs(t[:, None] - t[None, :])
                i, j = sorted(rng.choice(n, 2, replace=False))
                shift = share * metric_tol(c)
                c[i, j] = c[j, i] = c[i, j] + rng.choice([-1.0, 1.0]) * shift
                before = len(loops)
                refusal = expect_reference_triangle_check(c)
                line = len(loops) == before
                assert line == (shift <= 0.3 * metric_tol(c))
                if not refusal:
                    space = make_space([str(k) for k in range(n)], metric=c)
                    assert_pairs(space, adjacent(n) if line else row_major(n))
                skipped += line
                refused += refusal
        assert refused > 0 and skipped > 0

    def test_repeated_label(self):
        with pytest.raises(ValueError, match="^repeated point label 'a'$"):
            make_space(["a", "a", "b"])
        with pytest.raises(ValueError, match="^repeated point label '1'$"):
            make_space([1, "1"])

    def test_sin_grid_space(self):
        t = np.linspace(-4.0, 4.0, 201)
        metric = np.abs(t[:, None] - t[None, :])
        space = make_space([f"{x:.2f}" for x in t], metric=metric)
        assert space.n == 201
        assert_pairs(space, adjacent(201))

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            make_space(["a", "b"], graph=((0, 0, 1.0),))

    def test_non_integer_endpoint_refused(self):
        """int() would store the edge (0.7, 1.9) as (0, 1)."""
        with pytest.raises(ValueError, match=r"edge \(0\.7,1\.9\) endpoints must be integers"):
            make_space(["a", "b", "c"], graph=((0.7, 1.9, 1.0), (1, 2, 1.0)))
        space = make_space(["a", "b", "c"], graph=((0.0, np.int64(1), 1.0),))
        assert space.graph == ((0, 1, 1.0),)

    @pytest.mark.parametrize("edge", [(0, 1), (0, 1, 1.0, "x")])
    def test_edge_needs_three_entries(self, edge):
        """A two-entry edge has no weight and a fourth entry would be
        dropped; both are refused, naming the edge."""
        with pytest.raises(ValueError, match=rf"^edge {re.escape(repr(edge))} must have three"):
            make_space(["a", "b"], graph=(edge,))

    @pytest.mark.parametrize("edge", [
        (True, 2, 1.0), (0, np.True_, 1.0), (0, 1, True), (0, 1, np.False_),
    ])
    def test_bool_entry_refused(self, edge):
        """int(True) == 1 and float(True) == 1.0 would store a bool as a
        number, which the CLI refuses."""
        with pytest.raises(ValueError, match=r"holds a bool, not a number"):
            make_space(["a", "b", "c"], graph=(edge,))


class TestMetricUnits:
    """The metric checks compare residuals with METRIC_TOL * max |c|, so a
    metric's verdict does not depend on its units."""

    @staticmethod
    def metrics():
        """(name, c): a line, a Euclidean and a random a + a.T metric, each
        also with a planted triangle violation, asymmetry or diagonal entry
        of 1e-9 max c."""
        rng = np.random.default_rng(28)
        for n in (3, 7, 12):
            t = np.cumsum(rng.uniform(0.1, 1.0, n))
            x = rng.uniform(0.0, 1.0, (n, 2))
            a = rng.uniform(0.5, 2.0, (n, n))
            bases = {"line": np.abs(t[:, None] - t[None, :]),
                     "euclid": np.linalg.norm(x[:, None] - x[None, :], axis=2),
                     "sum": (a + a.T) * ~np.eye(n, dtype=bool)}
            for name, c in bases.items():
                yield f"{name}{n}", c
                delta = 1e-9 * c.max()
                i, j = (0, 2) if name == "line" else sorted(rng.choice(n, 2, replace=False))
                k = np.delete(np.arange(n), [i, j])
                bent = c.copy()
                bent[i, j] = bent[j, i] = np.min(c[i, k] + c[k, j]) + delta
                yield f"{name}{n}-violation", bent
                skew = c.copy()
                skew[i, j] += delta
                yield f"{name}{n}-asymmetry", skew
                diagonal = c.copy()
                diagonal[j, j] = delta
                yield f"{name}{n}-diagonal", diagonal

    @staticmethod
    def outcome(c):
        """(verdict, message head, residuals in the message, path flag)."""
        try:
            space = make_space([str(k) for k in range(c.shape[0])], metric=c)
        except (TriangleInequalityViolated, AsymmetricMetric, ValueError) as exc:
            head, _, tail = re.split(r" (by|=) ", str(exc), maxsplit=1)
            residuals = [float(v) for v in re.findall(r"-?\d[\d.]*(?:e[-+]\d+)?", tail)]
            return type(exc), head, residuals, None
        return None, "", [], space._path

    def test_verdict_head_and_path_are_scale_free(self):
        """Powers of two scale every float exactly, so 2^k c for k in -20..20
        gets c's verdict, message head and path flag, and residuals 2^k
        times c's."""
        verdicts = set()
        for name, c in self.metrics():
            kind, head, residuals, path = self.outcome(c)
            verdicts.add(kind)
            if "-" in name:
                assert kind is not None, name
            for k in range(-20, 21):
                got = self.outcome(2.0**k * c)
                assert got[0] is kind and got[1] == head and got[3] == path, (name, k)
                assert got[2] == pytest.approx([2.0**k * v for v in residuals], rel=1e-2)
        assert verdicts == {None, TriangleInequalityViolated, AsymmetricMetric, ValueError}

    @pytest.mark.parametrize("scale", [1e3, 1e4])
    def test_long_lines_pass_without_the_loop(self, scale, monkeypatch):
        """Lines in large units, whose rounding exceeds an absolute 1e-12,
        and a line 220 units long pass the O(n^2) line test as path metrics
        without the cubic loop."""
        monkeypatch.setattr(core, "_check_triangle", lambda *args: pytest.fail("loop ran"))
        rng = np.random.default_rng(63)
        for _ in range(20):
            t = np.cumsum(rng.uniform(0.1, 1.0, 40)) * scale
            space = make_space([f"x{i}" for i in range(40)], metric=np.abs(t[:, None] - t))
            assert space._path
        t = np.cumsum(rng.uniform(0.1, 1.0, 400))
        assert make_space([f"x{i}" for i in range(400)], metric=np.abs(t[:, None] - t))._path


class TestPointMass:
    def test_integer_indices(self):
        space = make_space(["a", "b", "c"])
        for index in (0, 2, np.int64(1)):
            w = DiscreteDistribution.point_mass(space, index).weights
            assert w.tolist() == [1.0 if i == index else 0.0 for i in range(3)]

    @pytest.mark.parametrize("index", [-1, 3, True, False, np.bool_(True), 1.0, "1", None])
    def test_refused_index_names_itself_and_n(self, index):
        space = make_space(["a", "b", "c"])
        with pytest.raises(ValueError, match=rf"integer in range\(3\), got {re.escape(repr(index))}$"):
            DiscreteDistribution.point_mass(space, index)


class TestLipschitzPairs:
    @pytest.mark.parametrize("scale", [2.0**-7, 1.0, 60.0, 2.0**10, 2.0**13])
    def test_adjacent_on_path_metrics(self, scale):
        """Lines in index order, either direction, at scales 2^-7 to 2^13.
        Integer gaps times a power of two keep every distance exact."""
        rng = np.random.default_rng(int(scale * 128))
        for n in (1, 2, 3, 9, 40):
            t = np.cumsum(rng.integers(1, 50, n)).astype(float) * scale
            for coords in (t, -t):
                space = make_space([f"x{i}" for i in range(n)],
                                   metric=np.abs(coords[:, None] - coords[None, :]))
                assert_pairs(space, adjacent(n))

    @pytest.mark.parametrize("kind", ["shuffled", "euclid", "grid"])
    def test_all_pairs_in_row_major_order_otherwise(self, kind):
        rng = np.random.default_rng(len(kind))
        for n in (3, 5, 8, 13):
            if kind == "shuffled":  # points on a line, out of the line's order
                x = rng.permutation(np.cumsum(rng.uniform(0.1, 1.0, n)))[:, None]
            elif kind == "euclid":
                x = rng.uniform(0.0, 1.0, (n, 2))
            else:
                x = np.array([(a, b) for a in range(n) for b in range(2)], dtype=float)[:n]
            space = make_space([f"x{i}" for i in range(n)],
                               metric=np.linalg.norm(x[:, None] - x[None, :], axis=2))
            assert_pairs(space, row_major(n))


class TestCTransform:
    @staticmethod
    def brute_force(c, g, lam, rows):
        """Each row's max of g_j - lam c_ij, scanning j upward and keeping
        the first strict maximum: the lowest-index argmax."""
        values, plan = [], []
        for i in rows:
            best, arg = None, None
            for j in range(len(g)):
                x = g[j] - lam * c[i, j]
                if best is None or x > best:
                    best, arg = x, j
            values.append(best)
            plan.append(arg)
        return np.array(values), np.array(plan)

    @pytest.mark.parametrize("kind", ["path", "euclid"])
    def test_matches_the_brute_force_loop(self, kind):
        """Integer values on an integer path metric tie exactly; -inf
        entries of g are never chosen while a row has a finite one; row
        subsets skip the zero-mass points, as the transport search does."""
        rng = np.random.default_rng(len(kind))
        for draw in range(40):
            n = int(rng.integers(1, 12))
            if kind == "path":
                t = np.cumsum(rng.integers(1, 3, n)).astype(float)
                c = np.abs(t[:, None] - t[None, :])
                g = rng.integers(-3, 4, n).astype(float)
                lam = float(rng.integers(0, 3))
            else:
                x = rng.uniform(0.0, 1.0, (n, 2))
                c = np.linalg.norm(x[:, None] - x[None, :], axis=2)
                g = rng.uniform(-1.0, 1.0, n)
                lam = float(rng.uniform(0.0, 3.0))
            space = make_space([f"x{i}" for i in range(n)], metric=c)
            if draw % 3 == 1:
                g[rng.random(n) < 0.5] = -np.inf
            p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.6)
            for rows in (None, np.flatnonzero(p > 0.0)):
                values, plan = c_transform(space, g, lam, rows)
                want = self.brute_force(c, g, lam, range(n) if rows is None else rows)
                assert values.tobytes() == want[0].tobytes()
                assert plan.tolist() == want[1].tolist()
                if rows is not None:
                    assert plan_cost(space, rows, plan).tolist() == [
                        c[i, j] for i, j in zip(rows, plan)]

    def test_row_subset_holds_one_array(self):
        """Over k of n rows the transform allocates one k x n array, not a
        copy of the rows plus a product and a difference."""
        n, rows = 400, np.arange(0, 400, 8)
        t = np.arange(n, dtype=float)
        space = make_space([str(i) for i in range(n)], metric=np.abs(t[:, None] - t[None, :]))
        g = np.sin(t)
        tracemalloc.start()
        try:
            c_transform(space, g, 0.3, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.size * n * 8 <= peak < 1.5 * rows.size * n * 8


class TestLipschitzConstant:
    @staticmethod
    def masked_reference(space, v):
        """max |v_i - v_j| / c(i, j) over the off-diagonal pairs only."""
        if space.n == 1:
            return 0.0
        off = ~np.eye(space.n, dtype=bool)
        return float(np.max(np.abs(v[:, None] - v[None, :])[off] / space.metric[off]))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
    @pytest.mark.parametrize("kind", ["path", "euclid"])
    def test_matches_the_masked_reference(self, n, kind):
        rng = np.random.default_rng([n, len(kind)])
        for draw in range(20):
            if kind == "path":
                t = np.cumsum(rng.uniform(0.01, 2.0, n))
                metric = np.abs(t[:, None] - t[None, :])
            else:
                x = rng.uniform(0.0, 1.0, (n, 2))
                metric = np.linalg.norm(x[:, None] - x[None, :], axis=2)
            space = make_space([f"x{i}" for i in range(n)], metric=metric)
            v = (rng.integers(-2, 3, n).astype(float) if draw % 2
                 else rng.uniform(-1e3, 1e3, n))
            got = lipschitz_constant(space, v)
            assert np.float64(got).tobytes() == np.float64(
                self.masked_reference(space, v)).tobytes()


class TestConstructorFuzz:
    def test_invalid_perturbations_rejected(self):
        rng = np.random.default_rng(11)
        space = make_space(["a", "b", "c", "d"], metric=index_metric(4))
        rejected = 0
        total = 1000
        for k in range(total):
            kind = k % 8
            try:
                if kind == 0:  # negative weight
                    w = rng.dirichlet(np.ones(4))
                    i = int(rng.integers(4))
                    w[i] -= 1.5 * w[i] + 0.01
                    DiscreteDistribution(space, w)
                elif kind == 1:  # bad sum
                    w = rng.dirichlet(np.ones(4)) * float(rng.uniform(1.01, 2.0))
                    DiscreteDistribution(space, w)
                elif kind == 2:  # non-finite function
                    v = rng.standard_normal(4)
                    v[int(rng.integers(4))] = np.inf
                    FunctionVec(space, v)
                elif kind == 3:  # asymmetric metric
                    m = index_metric(4)
                    m[0, 1] += float(rng.uniform(0.1, 1.0))
                    make_space(space.points, metric=m)
                elif kind == 4:  # triangle violation
                    m = index_metric(4)
                    m[0, 3] = m[3, 0] = 100.0 + float(rng.uniform(0, 1))
                    make_space(space.points, metric=m)
                elif kind == 5:  # self loop
                    i = int(rng.integers(4))
                    make_space(space.points, graph=((i, i, 1.0),))
                elif kind == 6:  # singular gram
                    a = rng.standard_normal((4, 2))
                    RkhsBall(space, gram=a @ a.T)
                else:  # zero-mass mu without the opt-in
                    w = rng.dirichlet(np.ones(4))
                    w[int(rng.integers(4))] = 0.0
                    w /= w.sum()
                    FisherBall(space, mu=DiscreteDistribution(space, w))
            except (
                ValueError,
                AsymmetricMetric,
                DimensionMismatch,
                TriangleInequalityViolated,
                SelfLoop,
                SingularGram,
                ZeroMassMu,
            ):
                rejected += 1
        assert rejected == total

    def test_shape_mismatches(self):
        space = make_space(["a", "b", "c"])
        with pytest.raises(DimensionMismatch):
            DiscreteDistribution(space, np.array([0.5, 0.5]))
        with pytest.raises(DimensionMismatch):
            FunctionVec(space, np.zeros(4))
        with pytest.raises(DimensionMismatch):
            make_space(["a"], metric=np.zeros((2, 2)))


class TestImmutability:
    def test_arrays_read_only(self):
        space = make_space(["a", "b"], metric=index_metric(2))
        dist = DiscreteDistribution.uniform(space)
        fn = FunctionVec(space, [1.0, 2.0])
        for arr in (space.metric, dist.weights, fn.values):
            with pytest.raises(ValueError):
                arr[0] = 99.0


class TestSymmetrize:
    def test_adds_negations(self):
        space = make_space(["a", "b", "c"])
        cls = Explicit(space, (FunctionVec(space, [1.0, 0.0, 0.0]),))
        result = symmetrize_class(cls)
        assert not result.already_even
        values = {tuple(f.values) for f in result.function_class.functions}
        assert values == {(1.0, 0.0, 0.0), (-1.0, -0.0, -0.0)}

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        space = make_space(["a", "b", "c", "d"])
        fns = tuple(FunctionVec(space, rng.uniform(-1, 1, 4)) for _ in range(3))
        once = symmetrize_class(Explicit(space, fns)).function_class
        twice_result = symmetrize_class(once)
        assert twice_result.already_even
        first = {f.values.tobytes() for f in once.functions}
        second = {f.values.tobytes() for f in twice_result.function_class.functions}
        assert first == second

    def test_even_detection_with_zero_entries(self):
        # negation flips 0.0 to -0.0; membership keys must not distinguish them
        space = make_space(["a", "b", "c"])
        pair = Explicit(
            space,
            (FunctionVec(space, [1.0, 0.0, 0.0]), FunctionVec(space, [-1.0, 0.0, 0.0])),
        )
        result = symmetrize_class(pair)
        assert result.already_even
        assert result.function_class.size == 2

    def test_structured_ball_flagged_even(self):
        space = make_space(["a", "b"])
        result = symmetrize_class(SupNormBall(space))
        assert result.already_even
        assert result.function_class is not None

    def test_zeta_unsupported(self):
        space = make_space(["a", "b"])
        ball = ZetaBall(space, zeta=lambda v: float(np.abs(v).sum()), degree=1.0)
        with pytest.raises(UnsupportedVariant):
            symmetrize_class(ball)


class TestZetaBall:
    def test_homogeneity_violation_rejected(self):
        space = make_space(["a", "b", "c"])
        with pytest.raises(HomogeneityViolated):
            ZetaBall(space, zeta=lambda v: float(np.abs(v).sum() + 1.0), degree=1.0)

    def test_nan_zeta_rejected(self):
        """NaN compares False with everything, so a tolerance test alone
        lets it through the homogeneity probe."""
        space = make_space(["a", "b", "c"])
        with pytest.raises(HomogeneityViolated, match="nan"):
            ZetaBall(space, zeta=lambda v: float("nan"), degree=1.0)

    def test_valid_quadratic_penalty(self):
        space = make_space(["a", "b", "c"])
        ball = ZetaBall(space, zeta=lambda v: float(v @ v), degree=2.0, convex=True)
        assert ball.degree == 2.0


    def test_one_sided_zeta_is_not_even(self):
        space = make_space(["a", "b", "c"])
        ball = ZetaBall(space, zeta=lambda v: float(np.maximum(v, 0.0).sum()), degree=1.0)
        assert not ball.is_even()

    def test_centered_gauge_of_a_constant_is_zero(self):
        space = make_space(["a", "b", "c"])
        ball = ZetaBall(space, zeta=lambda v: float(v @ v), degree=2.0, convex=True)
        b, gauge = ball.centered_gauge(FunctionVec(space, [0.7, 0.7, 0.7]))
        assert b == 0.7 and gauge.value == 0.0

    def test_centered_gauge_ends_when_tol_is_below_the_float_spacing(self):
        """At 1e8 the floats lie 1.5e-8 apart, far wider than the search's
        tol of about 1e-10: the bracket stops shrinking above tol, and the
        search must end all the same."""
        calls = []

        def zeta(v):
            calls.append(1)
            if len(calls) > 10_000:
                raise RuntimeError("the golden section does not end")
            return float(np.abs(v).sum())

        space = make_space(["a", "b", "c"])
        ball = ZetaBall(space, zeta=zeta, degree=1.0, convex=True)
        b, gauge = ball.centered_gauge(FunctionVec(space, 1e8 + np.array([0.0, 1e-3, 2e-3])))
        assert 1e8 <= b <= 1e8 + 2e-3
        assert gauge.value == pytest.approx(2e-3, rel=1e-4)

    @pytest.mark.parametrize("convex", [True, False])
    def test_centered_gauge_carries_the_exact_flag(self, convex):
        """Both branches, the golden section and a constant h, flag a
        non-convex zeta's centered gauge as an upper bound."""
        space = make_space(["a", "b", "c"])
        ball = ZetaBall(space, zeta=lambda v: float(np.abs(v).max() ** 2), degree=2.0,
                        convex=convex)
        for values in ([0.0, 1.0, 3.0], [0.7, 0.7, 0.7]):
            assert ball.centered_gauge(FunctionVec(space, values))[1].exact is convex


class TestRequireSameSpace:
    def test_different_labels_refused(self):
        h = FunctionVec(make_space(["a", "b"]), [1.0, 2.0])
        with pytest.raises(DimensionMismatch, match="different sample spaces"):
            theta(SupNormBall(make_space(["a", "c"])), h)

    def test_equal_labels_accepted(self):
        """Two space objects with the same labels count as one space."""
        h = FunctionVec(make_space(["a", "b"]), [1.0, 2.0])
        require_same_space(SupNormBall(make_space(["a", "b"])), h)


class TestSobolevConstruction:
    def test_disconnected_graph_rejected(self):
        space = make_space(["a", "b", "c"], graph=((0, 1, 1.0),))
        mu = DiscreteDistribution.uniform(space)
        with pytest.raises(GraphDisconnected):
            SobolevBall(space, mu=mu)


class TestDiscretize:
    def test_supnorm_sign_vectors_give_l1(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            space = make_space([str(i) for i in range(n)])
            cls = discretize_structured_class(SupNormBall(space), 2 * n, seed=0)
            # point-mass Q against random P: single positive coordinate in q - p
            p = rng.dirichlet(np.ones(n))
            q = np.zeros(n)
            q[int(rng.integers(n))] = 1.0
            delta = q - p
            got = float(np.max(cls.matrix @ delta))
            oracle = float(np.max(sign_vectors(n) @ delta))
            assert got == pytest.approx(oracle, abs=1e-12)
            assert got == pytest.approx(np.abs(delta).sum(), abs=1e-12)

    def test_fisher_boundary_normalization(self):
        space = make_space([str(i) for i in range(5)])
        mu = DiscreteDistribution.uniform(space)
        cls = discretize_structured_class(FisherBall(space, mu=mu), 12, seed=3)
        for f in cls.functions:
            assert float(mu.weights @ f.values**2) == pytest.approx(1.0, abs=1e-9)

    def test_lipschitz_boundary_normalization(self):
        space = make_space(["a", "b", "c"], metric=index_metric(3))
        cls = discretize_structured_class(LipschitzBall(space), 8, seed=4)
        for f in cls.functions:
            assert lipschitz_constant(space, f.values) == pytest.approx(1.0, abs=1e-9)

    def test_membership_all_variants(self):
        rng = np.random.default_rng(7)
        n = 4
        space = make_space([str(i) for i in range(n)], metric=index_metric(n))
        graph_space = make_space(
            [str(i) for i in range(n)],
            graph=tuple((i, i + 1, 1.0) for i in range(n - 1)),
        )
        mu = DiscreteDistribution.uniform(space)
        gmu = DiscreteDistribution.uniform(graph_space)
        gram = np.eye(n) + 0.3 * np.ones((n, n))
        classes = [
            SupNormBall(space),
            LipschitzBall(space),
            DudleyBall(space),
            FisherBall(space, mu=mu),
            RkhsBall(space, gram=gram),
            SobolevBall(graph_space, mu=gmu),
            ZetaBall(space, zeta=lambda v: float(np.abs(v).max() ** 2), degree=2.0),
        ]
        for cls in classes:
            sample = discretize_structured_class(cls, 9, seed=int(rng.integers(100)))
            for f in sample.functions:
                assert theta(cls, f).value <= 1.0 + 1e-9

    def test_nested_budgets_are_prefixes(self):
        space = make_space([str(i) for i in range(4)])
        mu = DiscreteDistribution.uniform(space)
        small = discretize_structured_class(FisherBall(space, mu=mu), 6, seed=9)
        large = discretize_structured_class(FisherBall(space, mu=mu), 12, seed=9)
        for f_small, f_large in zip(small.functions, large.functions):
            assert np.array_equal(f_small.values, f_large.values)

    def test_explicit_rejected(self):
        space = make_space(["a", "b"])
        cls = Explicit(space, (FunctionVec(space, [1.0, 0.0]),))
        with pytest.raises(UnsupportedVariant):
            discretize_structured_class(cls, 4, seed=0)

    @pytest.mark.parametrize("zeta", [lambda v: 0.0, lambda v: -float(v @ v)],
                             ids=["zero", "negative"])
    def test_no_boundary_point_is_a_breakdown(self, zeta):
        """A zeta that is zero everywhere, or negative everywhere (its gauge
        raises NegativeZeta), has no boundary point to scale a draw onto;
        the draws stop at the cap instead of running forever."""
        calls = []

        def counted(v):
            calls.append(1)
            assert len(calls) < 10_000, "discretize kept drawing"
            return zeta(v)

        space = make_space(["a", "b", "c"])
        ball = ZetaBall(space, zeta=counted, degree=2.0)
        with pytest.raises(NumericalBreakdown, match="ZetaBall.*300 draws.*0 of 3"):
            discretize_structured_class(ball, 3, seed=0)

    def test_budget_too_small(self):
        space = make_space(["a", "b"])
        with pytest.raises(ValueError):
            discretize_structured_class(SupNormBall(space), 1, seed=0)

    @pytest.mark.parametrize("budget", [2.5, 3.0, True, np.True_, "4", None])
    def test_budget_must_be_an_integer(self, budget):
        """A fractional budget would fail in a slice, and a bool would pass
        as 1 or 0; both are refused naming the value."""
        space = make_space(["a", "b"])
        with pytest.raises(ValueError, match=rf"^budget must be an integer of at least 2, "
                                             rf"got {re.escape(repr(budget))}$"):
            discretize_structured_class(SupNormBall(space), budget, seed=0)

    def test_numpy_integer_budget_is_accepted(self):
        space = make_space(["a", "b"])
        got = discretize_structured_class(SupNormBall(space), np.int64(3), seed=0)
        assert len(got.functions) == 3


_PAIR = make_space(["a", "b"])
_UNIFORM = DiscreteDistribution.uniform(_PAIR)
_H = FunctionVec(_PAIR, [1.0, -1.0])
_BASE = FunctionClass(_PAIR)

REFUSALS = {
    "empty_space": (lambda: make_space([]), DimensionMismatch,
                    "a sample space needs at least one point"),
    "non_finite_metric": (lambda: make_space(["a", "b"], metric=[[0.0, np.inf], [np.inf, 0.0]]),
                          ValueError, "metric entries must be finite"),
    "zero_off_diagonal": (lambda: make_space(["a", "b"], metric=np.zeros((2, 2))), ValueError,
                          "metric must be strictly positive off the diagonal"),
    "edge_out_of_range": (lambda: make_space(["a", "b"], graph=((0, 2, 1.0),)),
                          DimensionMismatch, "edge (0,2) out of range"),
    "edge_weight_zero": (lambda: make_space(["a", "b"], graph=((0, 1, 0.0),)), ValueError,
                         "edge (0,1) needs a positive weight"),
    "edge_weight_negative": (lambda: make_space(["a", "b"], graph=((1, 0, -1.0),)), ValueError,
                             "edge (1,0) needs a positive weight"),
    "edge_weight_nan": (lambda: make_space(["a", "b"], graph=((0, 1, np.nan),)), ValueError,
                        "edge (0,1) needs a positive weight"),
    "non_finite_weights": (lambda: DiscreteDistribution(_PAIR, [np.nan, 1.0]), ValueError,
                           "weights must be finite"),
    "connectivity_without_graph": (lambda: graph_is_connected(_PAIR), MissingGraph,
                                   "space has no graph"),
    "laplacian_without_graph": (lambda: sobolev_matrix(_PAIR, _UNIFORM), MissingGraph,
                                "Sobolev seminorm needs a graph"),
    "base_gauge": (lambda: _BASE.gauge(_H), UnsupportedVariant,
                   "no closed-form gauge for FunctionClass"),
    "base_centered_gauge": (lambda: _BASE.centered_gauge(_H), UnsupportedVariant,
                            "no centered gauge for FunctionClass"),
    "base_distance": (lambda: _BASE.distance(_UNIFORM, _UNIFORM), UnsupportedVariant,
                      "no distance for FunctionClass"),
    "base_worst_case": (lambda: _BASE.worst_case(_UNIFORM, 0.5, _H), UnsupportedVariant,
                        "no ball encoding for FunctionClass"),
    "base_lambda": (lambda: _BASE.lambda_(_UNIFORM, 0.5, _H), UnsupportedVariant,
                    "infimal convolution not implemented for FunctionClass"),
    "base_is_even": (lambda: _BASE.is_even(), UnsupportedVariant,
                     "evenness undefined for FunctionClass"),
    "base_symmetrized": (lambda: _BASE.symmetrized(), UnsupportedVariant,
                         "cannot symmetrize FunctionClass; only explicit sets and the "
                         "structured balls are supported"),
    "base_discretize": (lambda: _BASE.discretize(4, 0), UnsupportedVariant,
                        "discretization applies to structured classes"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
