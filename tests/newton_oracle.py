"""Reference loops for ``otlab.neumann.solve_neumann``.

Everything here is assembled from the mesh's element data
(``shape_gradients``, ``areas`` and the lumped mass), never through its
``grad`` and ``div``.  ``bordered`` sums one 3x3 element block per
triangle into [[K_W, m], [m^T, 0]], and ``nodal_load`` sums each triangle's
integrals int f . grad hat_i onto its vertices.  ``boundary_load``
integrates the histogram flux against the boundary hats one edge and one
bin cut at a time.  ``newton_every_step`` is the damped Newton iteration
that forms and factors the shifted Hessian on every step, each
factorisation with SuperLU's default column order.  Its shift walks down
a fixed ladder of three stages instead of following the residual as
``solve_neumann``'s does, so the two reach the same minimizer along
different paths.  ``start`` is the field ``solve_neumann`` starts from,
the p = 2 projection onto gradients of grad c(D phi_2), and
``residual_norm`` its measured residual.  ``broadcast_dual_hessian`` is
the Hessian of c* in its (n, 2, 2) closed form, so the oracle's Newton
blocks never come from the code it checks.  All are slow and serve only
as the tests' oracles.
"""
import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from otlab.costs import RADIAL, _metric, cost_grad, dual_eval, dual_grad

# Hessian shifts relative to the data scale, coarse to fine, with the
# step budgets of the first two stages and the floor of the last
DELTA_LADDER = (1e-2, 1e-4, 1e-6)
WARM_ITER = 12
FINAL_ITER = 60


def broadcast_dual_hessian(spec, xi, delta):
    """The (n, 2, 2) Hessian blocks of the delta-shifted conjugate density
    as one broadcast outer product; ``costs._dual_hessian`` fills the same
    blocks one plane at a time."""
    q = spec.p_prime
    bxi, m = _metric(xi, spec.inverse)
    nr2 = m + delta * delta
    outer = bxi[:, :, None] * bxi[:, None, :] / nr2[:, None, None]
    b = np.eye(2) if spec.inverse is None else spec.inverse
    return (nr2 ** ((q - 2.0) / 2.0))[:, None, None] * (b[None] + (q - 2.0) * outer)


def boundary_load(mesh, g) -> np.ndarray:
    load = np.zeros(mesh.n_nodes)
    nodes = mesh.boundary_nodes
    th = mesh.boundary_angles
    m = len(nodes)
    width = 2.0 * math.pi / g.n_bins
    dens = g.densities
    for k in range(m):
        alpha = th[k]
        beta = th[k + 1] if k + 1 < m else th[0] + 2.0 * math.pi
        span = beta - alpha
        lo = int(math.floor(alpha / width)) + 1
        hi = int(math.ceil(beta / width)) - 1
        cuts = [alpha] + [j * width for j in range(lo, hi + 1)] + [beta]
        for u, v in zip(cuts[:-1], cuts[1:]):
            if v <= u:
                continue
            mid = 0.5 * (u + v)
            w = dens[int(mid / width) % g.n_bins] * mesh.R * (v - u)
            load[nodes[k]] += w * (beta - mid) / span
            load[nodes[(k + 1) % m]] += w * (mid - alpha) / span
    return load


def bordered(mesh, W) -> sparse.csc_array:
    """[[K_W, m], [m^T, 0]] for coefficient blocks W, shape (t, 2, 2) or
    (2, 2); K_W sums area G W G^T per triangle, G its (3, 2) hat gradients."""
    n, tris, G = mesh.n_nodes, mesh.triangles, mesh.shape_gradients
    W = np.broadcast_to(W, (len(tris), 2, 2))
    blocks = mesh.areas[:, None, None] * (G @ W @ np.swapaxes(G, 1, 2))
    m, rim = mesh.lumped_mass, np.arange(n)
    rows = np.concatenate([np.repeat(tris, 3, axis=1).ravel(), rim, np.full(n, n)])
    cols = np.concatenate([np.tile(tris, (1, 3)).ravel(), np.full(n, n), rim])
    data = np.concatenate([blocks.ravel(), m, m])
    # duplicates are summed on conversion
    return sparse.coo_array((data, (rows, cols)), shape=(n + 1, n + 1)).tocsc()


def nodal_load(mesh, flux) -> np.ndarray:
    """int flux . grad hat_i over the mesh for per-triangle covectors flux."""
    per_corner = np.einsum("t,tiv,tv->ti", mesh.areas, mesh.shape_gradients, flux)
    return np.bincount(mesh.triangles.ravel(), weights=per_corner.ravel(),
                       minlength=mesh.n_nodes)


def element_gradients(mesh, phi) -> np.ndarray:
    return np.einsum("tiv,ti->tv", mesh.shape_gradients, phi[mesh.triangles])


def _bordered_solve(matrix):
    lu = splu(matrix)
    return lambda rhs: lu.solve(np.append(rhs, 0.0))[:-1]


def load(prob) -> np.ndarray:
    """The linear term: boundary load plus the balancing volume source."""
    return boundary_load(prob.mesh, prob.g_boundary) + prob.c_R * prob.mesh.lumped_mass


def start(prob) -> np.ndarray:
    """K2^-1 div grad c(D phi_2): the bordered p = 2 solve of the nodal
    load of grad c(D phi_2), phi_2 the bordered p = 2 solve of the load."""
    mesh, solve_k2 = prob.mesh, _bordered_solve(bordered(prob.mesh, np.eye(2)))
    phi = solve_k2(load(prob))
    return solve_k2(nodal_load(mesh, cost_grad(prob.cost, element_gradients(mesh, phi))))


def residual_norm(prob, phi) -> float:
    """Weak residual of phi in the dual norm of the p = 2 operator, its
    mass component removed."""
    mesh, mass = prob.mesh, prob.mesh.lumped_mass
    r = nodal_load(mesh, dual_grad(prob.cost, element_gradients(mesh, phi))) - load(prob)
    r -= (r.sum() / mass.sum()) * mass
    return math.sqrt(abs(r @ _bordered_solve(bordered(mesh, np.eye(2)))(r)))


def newton_every_step(prob, tol: float = 1e-8, max_iter: int = 100_000):
    """Mean-zero nodal potential, or ArithmeticError at the step budget.

    Same target, Armijo guard and gradient fallback as ``solve_neumann``;
    delta follows DELTA_LADDER with stage budgets WARM_ITER, WARM_ITER
    and max(FINAL_ITER, max_iter - 2 WARM_ITER).
    """
    mesh, spec, g = prob.mesh, prob.cost, prob.g_boundary
    n = mesh.n_nodes
    dens_sup = float(np.abs(g.densities).max())
    if dens_sup == 0.0:
        return np.zeros(n)
    area, mass = mesh.areas, mesh.lumped_mass
    lin = load(prob)
    target = tol * (1.0 + g.lp_mass(spec.p) ** (1.0 / spec.p))

    def grad_of(phi):
        return element_gradients(mesh, phi)

    def objective(phi):
        return float(area @ dual_eval(spec, grad_of(phi)) - lin @ phi)

    def residual(phi):
        return nodal_load(mesh, dual_grad(spec, grad_of(phi))) - lin

    def dual_norm(r, rd):
        return math.sqrt(abs((r - (r.sum() / mass.sum()) * mass) @ rd))

    solve_k2 = _bordered_solve(bordered(mesh, np.eye(2)))
    phi = solve_k2(lin)
    iters = 0
    if spec.family != RADIAL or abs(spec.p_prime - 2.0) > 1e-14:
        scale = dens_sup ** (1.0 / (spec.p - 1.0))
        budgets = (WARM_ITER, WARM_ITER, max(FINAL_ITER, max_iter - 2 * WARM_ITER))
        for delta, budget in zip(DELTA_LADDER, budgets):
            for _ in range(budget):
                if iters >= max_iter:
                    break
                r = residual(phi)
                rd = solve_k2(r)
                if dual_norm(r, rd) <= target:
                    break
                try:
                    H = broadcast_dual_hessian(spec, grad_of(phi), delta * scale)
                    d = -_bordered_solve(bordered(mesh, H))(r)
                    dj = float(r @ d)
                except RuntimeError:
                    dj = 1.0
                if dj >= 0.0:
                    d, dj = -rd, -float(r @ rd)
                t, j0 = 1.0, objective(phi)
                while t > 1e-18:
                    noise = abs(t * dj) <= 1e-14 * (1.0 + abs(j0))
                    if noise or objective(phi + t * d) <= j0 + 1e-4 * t * dj:
                        phi = phi + t * d
                        break
                    t /= 2.0
                iters += 1

    r = residual(phi)
    rn = dual_norm(r, solve_k2(r))
    if rn > target:
        raise ArithmeticError(f"no convergence in {iters} iterations, residual {rn:.3e}")
    return phi - (mass @ phi) / mass.sum()
