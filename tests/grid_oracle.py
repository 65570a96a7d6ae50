"""Loop reference for ``otlab.costs._grid_constant``.

One library call per base direction and, for the two convexity
constants, per interpolation weight tau; the anisotropic conjugate is
taken by gradient inversion and the Fenchel equality at the maximizer,
independently of the closed form the library evaluates.  Slow, and
serves only as the tests' oracle.
"""
import numpy as np

from otlab.costs import RADIAL, cost_eval, cost_grad, dual_eval, dual_grad, u_p, v_p


def fenchel_conjugate(spec, xi):
    """c*(xi) = <xi, z> - c(z) at the maximizer z = grad c*(xi)."""
    if spec.family == RADIAL:
        return dual_eval(spec, xi)
    z = dual_grad(spec, xi)
    return np.sum(xi * z, axis=-1) - cost_eval(spec, z)


def grid_constant_loop(spec, which: str) -> float:
    th = np.linspace(0.0, 2.0 * np.pi, 97, endpoint=False)
    rr = np.concatenate([np.geomspace(1e-3, 1e3, 121), [1.0]])
    grid = np.stack([np.cos(th)[:, None] * rr[None, :],
                     np.sin(th)[:, None] * rr[None, :]], -1).reshape(-1, 2)
    tau = np.linspace(0.01, 0.99, 57)
    base_dirs = [np.array([1.0, 0.0])] if spec.family == RADIAL else [
        np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0.0, np.pi, 17)
    ]

    if which == "vdiff":
        z1 = np.array([1.0, 0.0])
        v1 = v_p(spec.p, z1, grid)
        ng = np.linalg.norm(grid, axis=1)
        worst = 0.0
        for i in range(0, len(grid), 7):
            num = np.abs(v1[i] - v1)
            den = ((1.0 + np.linalg.norm(grid[i]) + ng)
                   ** (spec.p - 1.0) * np.linalg.norm(grid[i] - grid, axis=1))
            mm = den > 0.0
            if mm.any():
                worst = max(worst, float((num[mm] / den[mm]).max()))
        return worst
    if which in ("pprime_convex", "cgrowth_dual"):
        # dual-side grids act on covectors
        worst_lo, worst_hi = np.inf, 0.0
        for bd in base_dirs:
            xi_x = cost_grad(spec, bd)
            xi_g = cost_grad(spec, grid)
            dx, dg = fenchel_conjugate(spec, xi_x), fenchel_conjugate(spec, xi_g)
            if which == "cgrowth_dual":
                den = u_p(spec.p_prime, xi_x, xi_g)
                mm = den > 0.0
                worst_hi = max(worst_hi, float((np.abs(dx - dg)[mm] / den[mm]).max()))
            else:
                vv = v_p(spec.p_prime, xi_x, xi_g)
                mm = vv > 1e-290
                for t in tau:
                    gp = (t * dx + (1.0 - t) * dg
                          - fenchel_conjugate(spec, t * xi_x + (1.0 - t) * xi_g))
                    worst_lo = min(worst_lo, float((gp[mm] / (t * (1.0 - t) * vv[mm])).min()))
        return worst_lo if which == "pprime_convex" else worst_hi
    worst = 0.0
    for bd in base_dirs:
        cx = cost_eval(spec, bd)
        cg = cost_eval(spec, grid)
        ng = np.linalg.norm(grid, axis=1)
        if which == "growth":
            mm = ng > 0.0
            worst = max(worst,
                        float((cg[mm] / ng[mm] ** spec.p).max()),
                        float((ng[mm] ** spec.p / cg[mm]).max()))
        elif which == "cgrowth":
            den = u_p(spec.p, bd, grid)
            mm = den > 0.0
            worst = max(worst, float((np.abs(cx - cg)[mm] / den[mm]).max()))
        elif which == "controlled":
            dgn = np.linalg.norm(cost_grad(spec, bd) - cost_grad(spec, grid), axis=1)
            den = (1.0 + ng) ** (spec.p - 2.0) * np.linalg.norm(bd - grid, axis=1)
            mm = den > 0.0
            worst = max(worst, float((dgn[mm] / den[mm]).max()))
        elif which == "elliptic":
            vv = v_p(spec.p, bd, grid)
            for t in tau:
                gp = t * cx + (1.0 - t) * cg - cost_eval(spec, t * bd + (1.0 - t) * grid)
                mm = (vv > 1e-290) & (gp > 1e-290)
                if mm.any():
                    worst = max(worst, float((t * (1.0 - t) * vv[mm] / gp[mm]).max()))
        else:
            raise ValueError(which)
    return worst
