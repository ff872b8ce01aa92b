"""Independent reference computations used to pin expected test values.

Nothing here calls into the package's solution paths; these are the other
side of every dual-route check.
"""

import numpy as np
from scipy.optimize import linprog

REL = 1e-9  # relative agreement with HiGHS asked of the flow and transport LPs

HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10,
                    "dual_feasibility_tolerance": 1e-10}


def highs_linprog(c, **kwargs):
    """HiGHS at feasibility tolerances of 1e-10: at its defaults (1e-7) it may
    return a point that breaks a row by 3e-8, off the optimum by more than
    REL."""
    res = linprog(c, method="highs", options=HIGHS_TOLERANCES, **kwargs)
    assert res.status == 0, res.message
    return res


def greedy_l1_worst_case(h, p, eps):
    """Exact sup of <h, q> over the simplex cap ||q - p||_1 <= eps.

    Moving mass m from a source point to the argmax of h costs 2m of L1
    budget, so the optimum greedily drains the lowest-h sources first.
    """
    h = np.asarray(h, dtype=float)
    p = np.asarray(p, dtype=float)
    budget = eps / 2.0
    target = int(np.argmax(h))
    value = float(h @ p)
    for i in np.argsort(h, kind="stable"):
        if i == target or budget <= 0.0:
            continue
        move = min(budget, p[i])
        value += move * (h[target] - h[i])
        budget -= move
    return value


_GRID_CACHE = {}


def simplex_grid_3(steps):
    """All points of the 3-simplex with coordinates in multiples of 1/steps."""
    if steps not in _GRID_CACHE:
        ii, jj = np.meshgrid(
            np.arange(steps + 1), np.arange(steps + 1), indexing="ij"
        )
        mask = ii + jj <= steps
        i = ii[mask]
        j = jj[mask]
        grid = np.stack([i, j, steps - i - j], axis=1) / float(steps)
        _GRID_CACHE[steps] = grid
    return _GRID_CACHE[steps]


def grid_worst_case_explicit(h, p, members, eps, steps=1000):
    """Brute-force sup of <h, q> over the explicit-class ball on the grid."""
    grid = simplex_grid_3(steps)
    slack = (grid - p) @ np.asarray(members).T
    feasible = np.all(slack <= eps + 1e-12, axis=1)
    return float(np.max(grid[feasible] @ h))


def grid_worst_case_l1(h, p, eps, steps=1000):
    grid = simplex_grid_3(steps)
    feasible = np.abs(grid - p).sum(axis=1) <= eps + 1e-12
    return float(np.max(grid[feasible] @ h))


def grid_worst_case_quadratic(h, p, mat, eps, steps=1000):
    grid = simplex_grid_3(steps)
    delta = grid - p
    dist2 = np.einsum("ij,jk,ik->i", delta, mat, delta)
    feasible = dist2 <= eps**2 + 1e-12
    return float(np.max(grid[feasible] @ h))


def sign_vectors(n):
    """All 2^n sign vectors in {-1, +1}^n."""
    ids = np.arange(2**n, dtype=np.uint32)
    bits = ((ids[:, None] >> np.arange(n)) & 1).astype(float)
    return 2.0 * bits - 1.0


def midrange(values):
    values = np.asarray(values, dtype=float)
    return 0.5 * (values.max() + values.min()), 0.5 * (values.max() - values.min())
