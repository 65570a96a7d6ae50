"""Reference solvers for `otlab.transport.solve_exact`.

`brute_force` minimises over all permutations of small equal-weight
clouds, and `monotone_1d` is the quantile coupling of collinear clouds.
`dense_solve` is the dense LP over all n * m couplings, the solver
`solve_exact` used before it moved to a sparse support grown by pricing
rounds.  It assembles the marginal equalities over every pair, solves
them with the same HiGHS call and tolerances, and certifies the result
with the same dual check, so the kernel's costs and certificates can be
compared against it.  `triangle_constant` is the C(eps) of the glued
triangle-type bound that the suite asserts on exact solves.
`north_west_corner_loop` is the running-remainder walk that the LP
seed's staircase (`transport._north_west_corner`) replaced by a merge.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
from scipy import optimize, sparse

from otlab.costs import cost_eval
from otlab.transport import TransportPlan, _check_balanced


def _cost_matrix(lam, mu, spec) -> np.ndarray:
    return np.asarray(cost_eval(spec, lam.points[:, None, :] - mu.points[None, :, :]))


def plan_cost(plan, spec) -> float:
    """Sum over the plan's entries of m c(x - y)."""
    x, y = plan.pairs()
    return float(np.sum(plan.masses * cost_eval(spec, x - y)))


def brute_force(lam, mu, spec) -> TransportPlan:
    """Exact minimum over all permutations.

    Requires equal atom counts with equal weights (plan vertices are
    then permutation matrices), equal total masses and n <= 8.  Ties
    break toward the lexicographically first permutation.
    """
    n = lam.n_atoms
    if n != mu.n_atoms or n == 0 or n > 8:
        raise ValueError("brute force needs matching atom counts, 1 <= n <= 8")
    if (np.ptp(lam.weights) > 1e-12 * lam.weights.max()
            or np.ptp(mu.weights) > 1e-12 * mu.weights.max()):
        raise ValueError("brute force needs uniform weights")
    if abs(lam.total_mass - mu.total_mass) > 1e-9 * max(lam.total_mass, mu.total_mass):
        raise ValueError("brute force needs equal masses")
    mu = mu.with_mass(lam.total_mass)
    cmat = _cost_matrix(lam, mu, spec)
    best, best_perm = math.inf, None
    for perm in itertools.permutations(range(n)):
        c = cmat[np.arange(n), perm].sum()
        if c < best:  # strict: first minimum wins
            best, best_perm = c, perm
    w = lam.weights[0]
    return TransportPlan(lam, mu, np.arange(n), np.array(best_perm),
                         np.full(n, w), total_cost=float(best * w))


def dense_solve(lam, mu, spec) -> TransportPlan:
    """Certified optimal plan of the full LP; raises when the certificate fails."""
    mu = mu.with_mass(lam.total_mass)
    cmat = _cost_matrix(lam, mu, spec)
    n, m = cmat.shape

    rows_i = np.repeat(np.arange(n), m)
    cols_j = np.tile(np.arange(m), n)
    var = np.arange(n * m)
    a_eq = sparse.coo_matrix(
        (np.ones(2 * n * m), (np.concatenate([rows_i, n + cols_j]), np.concatenate([var, var]))),
        shape=(n + m, n * m),
    ).tocsr()[:-1]  # drop one redundant equality
    b_eq = np.concatenate([lam.weights, mu.weights])[:-1]

    res = optimize.linprog(
        cmat.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise ArithmeticError(f"transport LP failed: {res.message}")

    gamma = res.x.reshape(n, m)
    duals = np.append(res.eqlin.marginals, 0.0)
    u, v = duals[:n], duals[n:]
    slack = cmat - u[:, None] - v[None, :]
    scale = max(float(np.abs(cmat).max()), 1.0)
    dual_infeas = max(0.0, float(-slack.min()))
    support = gamma > 1e-12 * max(lam.weights.max(), 1e-300)
    comp_defect = float(np.abs(slack[support]).max()) if support.any() else 0.0
    gap = dual_infeas + comp_defect
    if gap > 1e-9 * scale:
        raise ArithmeticError(f"optimality certificate failed: gap {gap:.3e}")

    i, j = np.nonzero(support)
    return TransportPlan(lam, mu, i, j, gamma[support],
                         total_cost=float(res.fun), dual_gap=gap)


def monotone_1d(lam, mu, spec) -> TransportPlan:
    """Quantile coupling of clouds on one line {a + t e}, optimal there.

    On the line c(x - y) = c(e) |t_x - t_y|^p is a convex function of
    t_x - t_y for both cost families, so the monotone coupling is
    optimal.  Classic two-pointer sweep over the atoms sorted by t,
    splitting masses where the cumulative distributions cross.  Clouds
    off a common line are refused.
    """
    mu = _check_balanced(lam, mu)
    pts = np.concatenate([lam.points, mu.points])
    d = pts - pts[0]
    far = d[np.argmax(np.hypot(d[:, 0], d[:, 1]))]
    e = far / np.hypot(*far) if far.any() else np.array([1.0, 0.0])
    t = d @ e
    if np.abs(d[:, 0] * e[1] - d[:, 1] * e[0]).max() > 1e-12 * max(np.abs(pts).max(), 1.0):
        raise ValueError("monotone coupling needs collinear clouds")
    order_l = np.argsort(t[:lam.n_atoms], kind="stable")
    order_m = np.argsort(t[lam.n_atoms:], kind="stable")
    wl = lam.weights[order_l].copy()
    wm = mu.weights[order_m].copy()
    ii, jj, mm = [], [], []
    a = b = 0
    while a < len(wl) and b < len(wm):
        if wl[a] <= 0.0:
            a += 1
            continue
        if wm[b] <= 0.0:
            b += 1
            continue
        take = min(wl[a], wm[b])
        ii.append(order_l[a])
        jj.append(order_m[b])
        mm.append(take)
        wl[a] -= take
        wm[b] -= take
    plan = TransportPlan(lam, mu, np.array(ii, int), np.array(jj, int), np.array(mm))
    return dataclasses.replace(plan, total_cost=plan_cost(plan, spec))


def triangle_constant(eps: float, p: float) -> float:
    """Constant C(eps) in W_c(m1,m3) <= (1+eps) W_c(m1,m2) + C(eps) W_c(m2,m3).

    For the p-homogeneous convex costs of the lab the pointwise split
    c(a+b) = c(t (a/t) + (1-t) (b/(1-t))) <= t^{1-p} c(a) + (1-t)^{1-p} c(b)
    is exact; choosing t with t^{1-p} = 1 + eps gives

        C(eps) = (1 - (1+eps)^{-1/(p-1)})^{1-p}.

    Gluing the optimal plans of (m1, m2) and (m2, m3) couples (m1, m3),
    so the bound holds for every triple up to LP rounding: on exact
    solves it tests that the plans are optimal.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    t = (1.0 + eps) ** (-1.0 / (p - 1.0))
    return (1.0 - t) ** (1.0 - p)


def north_west_corner_loop(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Cells of the north-west-corner staircase by running remainders.

    From (0, 0), step down while the row's remainder is at most the
    column's (or the last column is reached), else right; the step
    subtracts the smaller remainder from the larger.
    """
    n, m = len(a), len(b)
    i = j = 0
    left_a, left_b = a[0], b[0]
    cells = [(0, 0)]
    while i < n - 1 or j < m - 1:
        if j == m - 1 or (i < n - 1 and left_a <= left_b):
            left_b -= left_a
            i += 1
            left_a = a[i]
        else:
            left_a -= left_b
            j += 1
            left_b = b[j]
        cells.append((i, j))
    return tuple(np.array(cells).T)
