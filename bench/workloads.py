"""The four benchmark workloads: seeded inputs, the public calls each operation
makes, and the independent check each operation's output must pass.

An operation is one instance carried through its public calls.  A builder
returns the operations of one pass; the inputs are a deterministic function of
the seed (see ``Sampler`` for how far the seed reaches in each workload), and
``scale`` < 1 shrinks every workload for the self-test.  Checks import scipy
lazily, so building and running a pass touches only numpy and ipmdro.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ipmdro
from ipmdro import cli

EXACT_TOL = 1e-6  # identity_exact: LP values and exact-path residuals
ITERATIVE_TOL = 5e-4  # identity_iterative: quadratic-path residual and gap
BALL_TOL = 1e-6  # worst-case distribution inside the ball, by the reference distance
BOUND_TOL = 1e-8  # min bound and subadditivity violations (criterion 07)

WORKLOADS = ("small_exact", "quad_small", "lp_path_large", "lp_euclid")


@dataclass
class Op:
    case: str  # unique within the pass
    kind: str  # operation family, for the latency table
    call: Callable[[], dict]
    check: Callable[[dict], list]


def _close(value, ref, tol=EXACT_TOL):
    if np.isinf(ref) or np.isinf(value):
        return value == ref
    return abs(value - ref) <= tol * (1.0 + abs(ref))


def _expect_close(errors, label, value, ref, tol=EXACT_TOL):
    if not _close(value, ref, tol):
        errors.append(f"{label} = {value!r}, reference {ref!r}")


def _expect_le(errors, label, value, limit):
    if not value <= limit:
        errors.append(f"{label} = {value!r} exceeds {limit!r}")


CORPUS_SEED = 2006
JITTER = 1e-6


class Sampler:
    """Draws instance data.

    Sizes, geometry, classes and base values come from a fixed corpus, and the
    seed perturbs every distribution weight and function value by up to
    ``jitter``.  Pivot and iteration counts are heavy-tailed: fresh draws moved
    a pass's time by 12-150% between seeds (17% on small_exact), more than any
    bound a regression check can use.
    """

    def __init__(self, workload: str, seed: int, jitter: float):
        index = WORKLOADS.index(workload)
        self.rng = np.random.default_rng([index, CORPUS_SEED])
        self.jitter = jitter
        self.jitter_rng = np.random.default_rng([index, seed])

    def distribution(self, space):
        w = self.rng.dirichlet(np.ones(space.n))
        if self.jitter:
            w = w * np.exp(self.jitter_rng.uniform(-self.jitter, self.jitter, space.n))
        return ipmdro.DiscreteDistribution(space, w / w.sum())

    def function(self, space):
        v = self.rng.uniform(-1.0, 1.0, space.n)
        if self.jitter:
            v = v + self.jitter_rng.uniform(-self.jitter, self.jitter, space.n)
        return ipmdro.FunctionVec(space, v)


def all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def adjacent_pairs(n):
    """Pairs that fix the Lipschitz constant of points sorted along a line."""
    return [(i, i + 1) for i in range(n - 1)]


def _sizes(values, scale):
    """Keep the schedule's shape at reduced scale: shrink sizes, keep >= 3."""
    return [max(3, int(round(v * scale))) for v in values]


# ---------------------------------------------------------------------------
# spaces and classes


def unit_space(n):
    return ipmdro.make_space([f"w{i}" for i in range(n)])


def line_space(rng, n, span=8.0):
    """Points sorted along a line with random gaps: a path metric."""
    coords = np.cumsum(rng.uniform(0.3, 1.5, n))
    coords = span * (coords - coords[0]) / (coords[-1] - coords[0])
    metric = np.abs(coords[:, None] - coords[None, :])
    return ipmdro.make_space([f"x{i}" for i in range(n)], metric=metric)


def euclid_space(rng, n):
    """Uniform points in the unit square with their Euclidean distances."""
    xy = rng.uniform(0.0, 1.0, (n, 2))
    metric = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=-1))
    return ipmdro.make_space([f"e{i}" for i in range(n)], metric=metric)


def even_explicit_class(rng, space, half_size):
    """Random members and their negatives, padded with +-unit vectors so the
    gauge is finite everywhere."""
    n = space.n
    rows = []
    for _ in range(half_size):
        v = rng.uniform(-1.0, 1.0, n)
        rows += [v, -v]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows += [e, -e]
    return ipmdro.Explicit(space, tuple(ipmdro.FunctionVec(space, r) for r in rows))


def _cli_run(argv):
    """cli.main in-process with its path listing kept off our stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def _cli_output(code, message, out_dir, stem):
    csv_path = out_dir / f"{stem}.csv"
    json_path = out_dir / f"{stem}.json"
    if code != 0:
        return {"exit": code, "stderr": message.strip()}
    csv_text = csv_path.read_text(encoding="utf-8")
    return {
        "exit": code,
        "csv": csv_text,
        "json": json_path.read_text(encoding="utf-8"),
        "rows": list(csv.DictReader(io.StringIO(csv_text))),
    }


# ---------------------------------------------------------------------------
# small_exact


def _identity_op(case, P, cls, eps, h):
    p, v = P.weights, h.values
    explicit = isinstance(cls, ipmdro.Explicit)

    def call():
        vi = ipmdro.verify_identity(P, cls, eps, h)
        cb = ipmdro.corollary_bound(P, cls, eps, h)
        ca = ipmdro.check_alignment(P, cls, eps, h)
        return {
            "vi": [vi.lhs, vi.e_p_h, vi.lambda_value, vi.residual, vi.exact],
            "cb": [cb.lhs, cb.rhs, cb.slack, cb.b_star],
            "ca": [ca.lambda_value, ca.eps_theta, bool(ca.aligned), ca.gap,
                   ca.witness_residual],
        }

    def check(out):
        from oracle import (ball_explicit, ball_sup_norm, centered_gauge_explicit,
                            gauge_explicit, lambda_lp)

        errors = []
        if explicit:
            members = cls.matrix
            ball = ball_explicit(v, p, members, eps)
            lam = lambda_lp(p, v, eps, "explicit", members=members)
            gauge = gauge_explicit(members, v)
            centered = centered_gauge_explicit(members, v)
        else:
            ball = ball_sup_norm(v, p, eps)
            lam = lambda_lp(p, v, eps, "sup_norm")
            gauge = float(np.max(np.abs(v)))
            centered = 0.5 * float(v.max() - v.min())
        lhs, e_p_h, lam_v, residual, exact = out["vi"]
        _expect_close(errors, "verify_identity.lhs", lhs, ball)
        _expect_close(errors, "verify_identity.e_p_h", e_p_h, float(p @ v))
        _expect_close(errors, "verify_identity.lambda", lam_v, lam)
        _expect_le(errors, "verify_identity.residual", residual, EXACT_TOL)
        if not exact:
            errors.append("verify_identity.exact is False on an exact path")
        cb_lhs, cb_rhs, slack, _ = out["cb"]
        _expect_close(errors, "corollary_bound.lhs", cb_lhs, ball)
        _expect_close(errors, "corollary_bound.rhs", cb_rhs, float(p @ v) + eps * centered)
        _expect_le(errors, "-corollary_bound.slack", -slack, EXACT_TOL * (1.0 + abs(cb_rhs)))
        ca_lam, eps_theta, aligned, gap, witness = out["ca"]
        _expect_close(errors, "check_alignment.lambda", ca_lam, lam)
        _expect_close(errors, "check_alignment.eps_theta", eps_theta, eps * gauge)
        ref_gap = eps * gauge - lam
        if aligned != (abs(gap) <= EXACT_TOL):
            errors.append(f"check_alignment.aligned = {aligned} with gap {gap!r}")
        if abs(ref_gap) > 10 * EXACT_TOL and aligned:
            errors.append(f"aligned although the reference gap is {ref_gap!r}")
        if abs(ref_gap) < 0.1 * EXACT_TOL and not aligned:
            errors.append(f"not aligned although the reference gap is {ref_gap!r}")
        if aligned:
            _expect_le(errors, "check_alignment.witness_residual", witness, EXACT_TOL)
        return errors

    return Op(case, "identity_" + ("explicit" if explicit else "sup_norm"), call, check)


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _config_reference(data):
    """Independent reading of a bundled config: arrays and the class."""
    dists = {k: np.array(v, dtype=float) for k, v in data.get("distributions", {}).items()}
    funcs = {k: np.array(v, dtype=float) for k, v in data.get("functions", {}).items()}
    spec = data.get("function_class", {})
    members = None
    if spec.get("variant") == "explicit":
        members = np.array([funcs[name] for name in spec["members"]])
    elif spec.get("variant") != "sup_norm_ball":
        raise ValueError(f"no reference for class {spec.get('variant')!r}")
    return dists, funcs, members


def _config_op(path: Path, out_root: Path):
    stem = path.stem
    subcommand = stem.replace("_", "-")
    out_dir = out_root / stem
    data = json.loads(path.read_text(encoding="utf-8"))

    def call():
        code, message = _cli_run([subcommand, "--config", str(path), "--out", str(out_dir)])
        return _cli_output(code, message, out_dir, stem)

    def check(out):
        from oracle import (ball_explicit, ball_sup_norm, centered_gauge_explicit,
                            gauge_explicit, lambda_lp)

        if out["exit"] != 0:
            return [f"exit code {out['exit']}: {out['stderr']}"]
        dists, funcs, members = _config_reference(data)
        p = dists.get(data.get("p"))

        def gauge(v):
            return float(np.max(np.abs(v))) if members is None else gauge_explicit(members, v)

        def centered(v):
            if members is None:
                return 0.5 * float(v.max() - v.min())
            return centered_gauge_explicit(members, v)

        def lam(v, eps):
            if members is None:
                return lambda_lp(p, v, eps, "sup_norm")
            return lambda_lp(p, v, eps, "explicit", members=members)

        def ball(v, eps):
            if members is None:
                return ball_sup_norm(v, p, eps)
            return ball_explicit(v, p, members, eps)

        errors = []
        rows = out["rows"]
        if not rows:
            return ["empty report"]
        for k, row in enumerate(rows):
            f = {key: float(val) for key, val in row.items() if _is_number(val)}
            tag = f"{subcommand} row {k}"
            v = funcs.get(row.get("h"))
            eps = f.get("eps")
            if subcommand == "ipm":
                delta = dists[row["q"]] - dists[row["p"]]
                ref = np.abs(delta).sum() if members is None else float(np.max(members @ delta))
                _expect_close(errors, f"{tag} value", f["value"], ref)
            elif subcommand == "penalty":
                _expect_close(errors, f"{tag} theta", f["theta"], gauge(v))
                _expect_close(errors, f"{tag} j_p", f["j_p"], float(v.max() - p @ v))
                _expect_close(errors, f"{tag} centered_theta", f["centered_theta"], centered(v))
                _expect_close(errors, f"{tag} lambda", f["lambda"], lam(v, eps))
            elif subcommand == "dro-sup":
                _expect_close(errors, f"{tag} value", f["value"], ball(v, eps))
            elif subcommand in ("verify-identity", "sweep-eps"):
                _expect_close(errors, f"{tag} lhs", f["lhs"], ball(v, eps))
                _expect_close(errors, f"{tag} lambda", f["lambda"], lam(v, eps))
                _expect_le(errors, f"{tag} residual", f["residual"], EXACT_TOL)
            elif subcommand == "tightness":
                _expect_le(errors, f"{tag} max_min_violation", f["max_min_violation"], BOUND_TOL)
                _expect_le(errors, f"{tag} max_subadditivity_violation",
                           f["max_subadditivity_violation"], BOUND_TOL)
            elif subcommand == "critic-check":
                _expect_close(errors, f"{tag} lambda", f["lambda"], lam(v, eps))
                _expect_close(errors, f"{tag} eps_theta", f["eps_theta"], eps * gauge(v))
                aligned = row["aligned"] == "true"
                if aligned != (abs(f["gap"]) <= EXACT_TOL):
                    errors.append(f"{tag} aligned = {aligned} with gap {f['gap']!r}")
            elif subcommand == "gan-bound":
                cap = eps * max(gauge(funcs[name]) for name in data["discriminators"])
                _expect_close(errors, f"{tag} cap", f["cap"], cap)
                _expect_le(errors, f"{tag} -slack", -f["slack"], EXACT_TOL)
            else:
                errors.append(f"no reference for subcommand {subcommand!r}")
        return errors

    return Op(f"cli-{stem}", "cli_config", call, check)


def build_small_exact(seed, scale, root: Path, out_dir: Path):
    draw = Sampler("small_exact", seed, jitter=JITTER)
    rng = draw.rng
    ops = []
    count = max(4, int(round(300 * scale)))
    for k in range(count):
        n = int(rng.integers(3, 9))
        space = unit_space(n)
        if k % 3 == 2:
            cls, label = ipmdro.SupNormBall(space), "sup"
        else:
            cls, label = even_explicit_class(rng, space, int(rng.integers(1, 4))), "explicit"
        P = draw.distribution(space)
        h = draw.function(space)
        eps = float(rng.uniform(0.05, 2.0))
        ops.append(_identity_op(f"{label}-{k:03d}-n{n}", P, cls, eps, h))
    for path in sorted((root / "configs").glob("*.json")):
        ops.append(_config_op(path, out_dir / "cli"))
    return ops


# ---------------------------------------------------------------------------
# quad_small


QUAD_EPS = (0.1, 0.25, 0.5, 0.8)
# Eight instances keep a pass near 3 s, so a run repeats every one of them
# about eight times; the Sobolev ball at n = 8 alone takes 1.0-1.6 s.
QUAD_N = {"fisher": (3, 5, 8), "rkhs": (3, 5, 8), "sobolev": (3, 5)}


def _quad_instance(rng, kind, n):
    if kind == "sobolev":
        edges = tuple((i, i + 1, 1.0) for i in range(n - 1)) + tuple(
            (i + 1, i, 1.0) for i in range(n - 1))
        space = ipmdro.make_space([f"v{i}" for i in range(n)], graph=edges)
    else:
        space = unit_space(n)
    if kind == "rkhs":
        a = rng.standard_normal((n, n))
        gram = a @ a.T + 0.5 * np.eye(n)
        return space, ipmdro.RkhsBall(space, gram=gram), {"gram": gram}
    mu = rng.dirichlet(np.ones(n) * 2.0) * 0.9 + 0.1 / n
    mu_dist = ipmdro.DiscreteDistribution(space, mu / mu.sum())
    if kind == "fisher":
        return space, ipmdro.FisherBall(space, mu=mu_dist), {"mu": mu_dist.weights}
    ref = {"mu": mu_dist.weights, "edges": edges}
    return space, ipmdro.SobolevBall(space, mu=mu_dist), ref


def _quad_op(case, kind, P, cls, eps, h, ref):
    p, v = P.weights, h.values

    def call():
        dro = ipmdro.worst_case_expectation(P, cls, eps, h)
        lam = ipmdro.lambda_penalty(P, cls, eps, h)
        return {"value": dro.value, "gap": dro.gap_estimate,
                "worst_q": [float(x) for x in dro.worst_q.weights],
                "lambda": lam.value}

    def check(out):
        from oracle import quadratic_distance

        errors = []
        residual = abs(out["value"] - (float(p @ v) + out["lambda"]))
        _expect_le(errors, "identity residual", residual, ITERATIVE_TOL)
        _expect_le(errors, "sandwich gap", out["gap"], ITERATIVE_TOL)
        q = np.array(out["worst_q"])
        _expect_close(errors, "E_worst_q[h]", float(q @ v), out["value"], EXACT_TOL)
        dist = quadratic_distance(kind, q - p, **ref)
        _expect_le(errors, "d(worst_q, P) - eps", dist - eps, BALL_TOL * (1.0 + eps))
        return errors

    return Op(case, f"quad_{kind}", call, check)


def build_quad_small(seed, scale, root: Path, out_dir: Path):
    draw = Sampler("quad_small", seed, jitter=JITTER)
    ops = []
    k = 0
    for kind, sizes in QUAD_N.items():
        for n in sizes if scale >= 1 else (3, 4):
            space, cls, ref = _quad_instance(draw.rng, kind, n)
            P = draw.distribution(space)
            h = draw.function(space)
            eps = QUAD_EPS[k % len(QUAD_EPS)]
            ops.append(_quad_op(f"{kind}-{k:02d}-n{n}", kind, P, cls, eps, h, ref))
            k += 1
    return ops


# ---------------------------------------------------------------------------
# LP workloads: lp_path_large and lp_euclid


def _lambda_op(case, kind, P, cls, eps, h, pairs):
    p, v = P.weights, h.values
    metric = cls.space.metric

    def call():
        return {"lambda": ipmdro.lambda_penalty(P, cls, eps, h).value}

    def check(out):
        from oracle import lambda_lp

        ref = lambda_lp(p, v, eps, kind, metric=metric, pairs=pairs)
        errors = []
        _expect_close(errors, f"lambda_{kind}", out["lambda"], ref)
        return errors

    return Op(case, f"lambda_{kind}", call, check)


def _ball_op(case, kind, P, cls, eps, h):
    p, v = P.weights, h.values
    metric = cls.space.metric

    def call():
        dro = ipmdro.worst_case_expectation(P, cls, eps, h)
        return {"value": dro.value, "worst_q": [float(x) for x in dro.worst_q.weights]}

    def check(out):
        import oracle

        if kind == "sup_norm":
            ref = oracle.ball_sup_norm(v, p, eps)
        elif kind == "lipschitz":
            ref = oracle.ball_lipschitz(v, p, metric, eps)
        else:
            ref = oracle.ball_dudley(v, p, metric, eps)
        errors = []
        _expect_close(errors, f"worst_case_{kind}", out["value"], ref)
        q = np.array(out["worst_q"])
        _expect_close(errors, "E_worst_q[h]", float(q @ v), out["value"])
        return errors

    return Op(case, f"worst_case_{kind}", call, check)


def _dudley_distance_op(case, Q, P, cls, pairs):
    delta = Q.weights - P.weights
    metric = cls.space.metric

    def call():
        return {"distance": ipmdro.ipm_distance(cls, Q, P).value}

    def check(out):
        from oracle import dudley_distance

        errors = []
        _expect_close(errors, "dudley_distance", out["distance"],
                      dudley_distance(metric, delta, pairs))
        return errors

    return Op(case, "distance_dudley", call, check)


def _repro_sin_op(out_root: Path):
    out_dir = out_root / "repro_sin"

    def call():
        code, message = _cli_run(["repro-sin", "--out", str(out_dir)])
        return _cli_output(code, message, out_dir, "repro_sin")

    def check(out):
        from oracle import lambda_lp, lipschitz_constant

        if out["exit"] != 0:
            return [f"exit code {out['exit']}: {out['stderr']}"]
        t = np.linspace(-4.0, 4.0, 201)
        w = np.exp(-(t**2) / 2.0)
        p = w / w.sum()
        metric = np.abs(t[:, None] - t[None, :])
        h1 = np.sin(2.0 * t)
        h = h1 + t
        pairs = adjacent_pairs(t.size)
        row = {k: float(v) for k, v in out["rows"][0].items()}
        eps = row["eps"]
        lam = lambda_lp(p, h, eps, "lipschitz", metric=metric, pairs=pairs)
        eps_lip = eps * lipschitz_constant(metric, h, pairs)
        errors = []
        _expect_close(errors, "lambda_lp", row["lambda_lp"], lam)
        _expect_close(errors, "eps_lip", row["eps_lip"], eps_lip)
        _expect_close(errors, "j_p_h1", row["j_p_h1"], float(h1.max() - p @ h1))
        _expect_close(errors, "gap", row["gap"], eps_lip - lam)
        return errors

    return Op("cli-repro_sin", "cli_repro_sin", call, check)


def _lp_instances(draw, space, pairs, tag, lambda_kinds, ball_kinds, with_distance):
    P = draw.distribution(space)
    h = draw.function(space)
    eps = float(draw.rng.uniform(0.05, 0.5))
    classes = {"sup_norm": ipmdro.SupNormBall(space),
               "lipschitz": ipmdro.LipschitzBall(space),
               "dudley": ipmdro.DudleyBall(space)}
    ops = [_lambda_op(f"lambda_{kind}-{tag}", kind, P, classes[kind], eps, h, pairs)
           for kind in lambda_kinds]
    ops += [_ball_op(f"worst_case_{kind}-{tag}", kind, P, classes[kind], eps, h)
            for kind in ball_kinds]
    if with_distance:
        Q = draw.distribution(space)
        ops.append(_dudley_distance_op(f"distance_dudley-{tag}", Q, P,
                                       classes["dudley"], pairs))
    return ops


# Every size runs on each pass, so a pass is a fixed mix.  The sizes keep a
# pass near 4 s at the seed commit so that a run repeats it six times or more:
# the Lipschitz lambda LP at n = 201 runs inside repro-sin and the sup-norm
# ball at n = 201 as a worst case, while the Dudley lambda LP at n = 201 alone
# takes 8.7 s, and the coupling LP at n = 40 and Dudley column generation at
# n = 30 take 0.5 and 0.9 s.
PATH_LAMBDA_N = (51, 101, 151)
PATH_BALL_N = (51, 101, 151, 201)
PATH_DUDLEY_N = (51,)
PATH_COUPLING_N = (30,)
PATH_DUDLEY_CG_N = (20,)
# n = 25 is left out for the same reason (1.7 s a pass); every size from 12 up
# still shows the breakdowns.
EUCLID_N = (8, 10, 12, 15, 20, 30)
EUCLID_DISTANCE_MAX_N = 20  # the Dudley distance LP alone takes 5-7 s at n = 30


def build_lp_path_large(seed, scale, root: Path, out_dir: Path):
    draw = Sampler("lp_path_large", seed, jitter=JITTER)
    lambdas = {n: ["lipschitz", "sup_norm"] for n in _sizes(PATH_LAMBDA_N, scale)}
    for n in _sizes(PATH_DUDLEY_N, scale):
        lambdas.setdefault(n, []).append("dudley")
    balls = {n: ["sup_norm"] for n in _sizes(PATH_BALL_N, scale)}
    for kind, sizes in (("lipschitz", PATH_COUPLING_N), ("dudley", PATH_DUDLEY_CG_N)):
        for n in _sizes(sizes, scale):
            balls.setdefault(n, []).append(kind)
    ops = []
    for n in sorted(set(lambdas) | set(balls)):
        ops += _lp_instances(draw, line_space(draw.rng, n), adjacent_pairs(n), f"n{n}",
                             lambdas.get(n, ()), balls.get(n, ()), False)
    if scale >= 1:
        ops.append(_repro_sin_op(out_dir / "cli"))
    return ops


def build_lp_euclid(seed, scale, root: Path, out_dir: Path):
    # The seed leaves this corpus as it is: perturbing it by even 1e-9 flips
    # four of the 41 LPs between breakdown and success, which moved ok_ratio by
    # 6% and the latency tail by 30% from seed to seed.
    draw = Sampler("lp_euclid", seed, jitter=0.0)
    ops = []
    for n in _sizes(EUCLID_N, scale):
        ops += _lp_instances(draw, euclid_space(draw.rng, n), all_pairs(n), f"n{n}",
                             ("lipschitz", "sup_norm", "dudley"),
                             ("sup_norm", "lipschitz"), n <= EUCLID_DISTANCE_MAX_N)
    return ops


BUILDERS = {
    "small_exact": build_small_exact,
    "quad_small": build_quad_small,
    "lp_path_large": build_lp_path_large,
    "lp_euclid": build_lp_euclid,
}
