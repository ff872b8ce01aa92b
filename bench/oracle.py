"""Independent reference values for every number the benchmark checks.

Each LP is formulated here from its definition and solved by HiGHS through
``scipy.optimize.linprog``; nothing calls into ipmdro.  The formulations
differ from the package's own encodings where a different one is natural:
the sup-norm ball uses one deviation bound per point, the Lipschitz
constraints cover every point pair the caller passes, and the Dudley ball is
the dual transport-plus-total-variation description of the bounded-Lipschitz
distance rather than column generation.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

INF = float("inf")


class OracleError(RuntimeError):
    """HiGHS did not reach an optimal solution on a reference LP."""


def _solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(0, None)):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if res.status == 2:
        return None  # infeasible
    if res.status != 0:
        raise OracleError(f"HiGHS status {res.status}: {res.message}")
    return res


# ---------------------------------------------------------------------------
# gauges


def gauge_explicit(members, h):
    """min sum(w) over w >= 0 with members' w = h; inf outside the cone."""
    m = members.shape[0]
    res = _solve(np.ones(m), a_eq=members.T, b_eq=h)
    return INF if res is None else float(res.fun)


def centered_gauge_explicit(members, h):
    """min over b of the explicit gauge of h - b."""
    m, n = members.shape
    a_eq = np.hstack([members.T, np.ones((n, 1))])
    res = _solve(np.concatenate([np.ones(m), [0.0]]), a_eq=a_eq, b_eq=h,
                 bounds=[(0, None)] * m + [(None, None)])
    return INF if res is None else float(res.fun)


def lipschitz_constant(metric, h, pairs):
    return max(abs(h[i] - h[j]) / metric[i, j] for i, j in pairs)


# ---------------------------------------------------------------------------
# worst-case expectations  sup { E_Q h : d(Q, P) <= eps }


def ball_explicit(h, p, members, eps):
    n = h.size
    res = _solve(-h, a_ub=members, b_ub=members @ p + eps,
                 a_eq=np.ones((1, n)), b_eq=[1.0])
    return -float(res.fun)


def ball_sup_norm(h, p, eps):
    """Variables q and r with r_i >= |q_i - p_i| and sum(r) <= eps."""
    n = h.size
    eye = np.eye(n)
    a_ub = np.vstack([
        np.hstack([eye, -eye]),
        np.hstack([-eye, -eye]),
        np.hstack([np.zeros((1, n)), np.ones((1, n))]),
    ])
    b_ub = np.concatenate([p, -p, [eps]])
    a_eq = np.hstack([np.ones((1, n)), np.zeros((1, n))])
    res = _solve(np.concatenate([-h, np.zeros(n)]), a_ub=a_ub, b_ub=b_ub,
                 a_eq=a_eq, b_eq=[1.0])
    return -float(res.fun)


def ball_lipschitz(h, p, metric, eps):
    """Coupling pi >= 0 with column sums p and transport cost <= eps."""
    n = h.size
    a_eq = np.zeros((n, n * n))
    for j in range(n):
        a_eq[j, j::n] = 1.0
    res = _solve(-np.repeat(h, n), a_ub=metric.reshape(1, -1), b_ub=[eps],
                 a_eq=a_eq, b_eq=p)
    return -float(res.fun)


def ball_dudley(h, p, metric, eps):
    """Bounded-Lipschitz ball through its dual: q - p = a+ - a- + div(beta)
    with sum(a+ + a-) <= eps and sum(c beta) <= eps."""
    n = h.size
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    k = len(arcs)
    nv = 3 * n + k  # q, a+, a-, beta
    a_eq = np.zeros((n + 1, nv))
    a_eq[:n, :n] = np.eye(n)
    a_eq[:n, n:2 * n] = -np.eye(n)
    a_eq[:n, 2 * n:3 * n] = np.eye(n)
    cost = np.zeros(k)
    for col, (i, j) in enumerate(arcs):
        a_eq[i, 3 * n + col] -= 1.0
        a_eq[j, 3 * n + col] += 1.0
        cost[col] = metric[i, j]
    a_eq[n, :n] = 1.0
    b_eq = np.concatenate([p, [1.0]])
    a_ub = np.zeros((2, nv))
    a_ub[0, n:3 * n] = 1.0
    a_ub[1, 3 * n:] = cost
    c = np.zeros(nv)
    c[:n] = -h
    res = _solve(c, a_ub=a_ub, b_ub=[eps, eps], a_eq=a_eq, b_eq=b_eq)
    return -float(res.fun)


# ---------------------------------------------------------------------------
# distances


def dudley_distance(metric, delta, pairs):
    """max <f, delta> over ||f||_inf + Lip(f) <= 1 (f, sup bound u, Lip bound v)."""
    n = delta.size
    rows = []
    for i in range(n):
        for sign in (1.0, -1.0):
            row = np.zeros(n + 2)
            row[i] = sign
            row[n] = -1.0
            rows.append(row)
    for i, j in pairs:
        for sign in (1.0, -1.0):
            row = np.zeros(n + 2)
            row[i], row[j] = sign, -sign
            row[n + 1] = -metric[i, j]
            rows.append(row)
    last = np.zeros(n + 2)
    last[n] = last[n + 1] = 1.0
    rows.append(last)
    b_ub = np.zeros(len(rows))
    b_ub[-1] = 1.0
    res = _solve(-np.concatenate([delta, [0.0, 0.0]]), a_ub=np.array(rows),
                 b_ub=b_ub, bounds=[(None, None)] * n + [(0, None)] * 2)
    return -float(res.fun)


# ---------------------------------------------------------------------------
# infimal convolution  Lambda(h) = inf_{h1 + h2 = h} max(h1) - E_P[h1] + eps * gauge(h2)


def lambda_lp(p, h, eps, kind, members=None, metric=None, pairs=None):
    """kind is "explicit", "sup_norm", "lipschitz" or "dudley".

    Variables: h1 (free), t >= max(h1) (free), then the gauge variables of
    h2 = h - h1: conic weights w (explicit) or seminorm bounds s (others).
    """
    n = h.size
    if kind == "explicit":
        extra = members.shape[0]
    else:
        extra = {"sup_norm": 1, "lipschitz": 1, "dudley": 2}[kind]
    nv = n + 1 + extra
    c = np.concatenate([-p, [1.0], np.full(extra, eps)])
    rows, rhs = [], []
    for i in range(n):  # h1_i - t <= 0
        row = np.zeros(nv)
        row[i], row[n] = 1.0, -1.0
        rows.append(row)
        rhs.append(0.0)
    a_eq = b_eq = None
    if kind == "explicit":  # h1 + members' w = h
        a_eq = np.hstack([np.eye(n), np.zeros((n, 1)), members.T])
        b_eq = h
    if kind in ("sup_norm", "dudley"):  # |h_i - h1_i| <= s
        for i in range(n):
            for sign in (1.0, -1.0):
                row = np.zeros(nv)
                row[i] = -sign
                row[n + 1] = -1.0
                rows.append(row)
                rhs.append(-sign * h[i])
    if kind in ("lipschitz", "dudley"):  # |h2_i - h2_j| <= s' c_ij
        col = nv - 1
        for i, j in pairs:
            gap = h[i] - h[j]
            for sign in (1.0, -1.0):
                row = np.zeros(nv)
                row[i], row[j] = -sign, sign
                row[col] = -metric[i, j]
                rows.append(row)
                rhs.append(-sign * gap)
    bounds = [(None, None)] * (n + 1) + [(0, None)] * extra
    res = _solve(c, a_ub=np.array(rows), b_ub=np.array(rhs), a_eq=a_eq,
                 b_eq=b_eq, bounds=bounds)
    return float(res.fun)


# ---------------------------------------------------------------------------
# quadratic balls: distances from their definitions


def quadratic_distance(kind, delta, gram=None, mu=None, edges=None):
    """RKHS: sqrt(d' K d); Fisher: sqrt(sum d^2 / mu); Sobolev: sqrt(d' L^+ d)
    with L the mu-weighted graph Laplacian built from the edge list."""
    if kind == "rkhs":
        return float(np.sqrt(max(delta @ gram @ delta, 0.0)))
    if kind == "fisher":
        return float(np.sqrt(np.sum(delta**2 / mu)))
    n = delta.size
    lap = np.zeros((n, n))
    for i, j, w in edges:
        a = mu[i] * w
        lap[[i, j], [i, j]] += a
        lap[i, j] -= a
        lap[j, i] -= a
    return float(np.sqrt(max(delta @ np.linalg.pinv(lap) @ delta, 0.0)))
