"""Nonlinear Neumann solve for the dual potential, with diagnostics.

The potential minimizes

    J(phi) = int_B c*(D phi) dx - int_{dB} g phi ds - c_R int_B phi dx

over mean-zero piecewise-linear fields on a disk mesh, where g is the
signed net boundary flux and c_R the constant that balances it.  The
minimizer satisfies -div grad c*(D phi) = c_R weakly with the flux
boundary condition, which is the equation the transport plan's entry
and exit data feed.

Minimization runs an inexact Newton iteration.  The dual Hessian
degenerates where D phi = 0 for p' > 2 and blows up there for p' < 2,
so directions come from the Hessian H of the shifted density at
|D phi|^2 + delta^2.  As the Levenberg-Marquardt shift of Fan-Yuan
(2005) does, delta follows the residual: each step takes the residual
it measured relative to 1 + |g|_{L^p}, clipped to [1e-6, 1e-2], times
the data scale |g|_inf^{1/(p-1)}, so the shift is large far from the
minimizer and sits at its floor near it.  H is never formed: each
direction is a truncated projected PCG solve of [[H, m], [m^T, 0]] that
applies H matrix-free (Kronbichler-Kormann 2012), its per-triangle 2 x 2
blocks held as four planes, one array per entry, and is preconditioned by
the p = 2 operator K2, a constraint preconditioner that keeps every iterate
mean-free (Gould-Hribar-Nocedal 2001; Huang-Li-Liu 2007), to an
Eisenstat-Walker forcing term floored by Kelley's safeguard (Iterative
Methods for Linear and Nonlinear Equations, 1995, eq. 6.20): 0.5 target
/ rn, so no direction is solved further than the residual target needs.
An Armijo test guards every step and falls back to the preconditioned
gradient when the direction fails to descend.

The discrete gradient, its area-weighted transpose and the lumped mass
are the mesh's own (`DiskMesh.grad`, `div`, `lumped_mass`).  This module
adds one piece of per-mesh state: the LU of [[K2, m], [m^T, 0]], the
mesh's one factorisation, made on first use through this module's
``splu`` binding and kept in the mesh's ``__dict__`` for its lifetime.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .costs import CostSpec, _dual_hessian, _holder_maxima, cost_grad, dual_eval, dual_grad
from .measures import Ball, BoundaryData
from .meshing import DiskMesh

__all__ = [
    "ScalarField",
    "NewtonRecord",
    "NeumannProblem",
    "net_boundary_flux",
    "solve_neumann",
    "flux_field",
    "DiagnosticsReport",
    "regularity_diagnostics",
    "holder_product_check",
]

# bounds on the Hessian shift relative to the data scale
_DELTA_MIN, _DELTA_MAX = 1e-6, 1e-2
# PCG per Newton direction: iteration cap and largest forcing term
_PCG_CAP = 20
_ETA_MAX = 0.1
# Hoelder exponent fixed for all seminorm diagnostics
HOLDER_BETA = 0.5
# point-node pairs per block of the off-mesh nearest-node search (2 MB of temporaries)
_NEAREST_PAIRS = 1 << 16
_Apply = Callable[[np.ndarray], np.ndarray]


def net_boundary_flux(g: BoundaryData, f: BoundaryData) -> BoundaryData:
    """Signed flux density g - f on a shared circle histogram."""
    if g.n_bins != f.n_bins or abs(g.radius - f.radius) > 1e-12 * g.radius:
        raise ValueError("histograms must share radius and binning")
    return BoundaryData(g.radius, g.masses - f.masses, signed=True)


@dataclasses.dataclass(frozen=True)
class NewtonRecord:
    """What the Newton iteration of `solve_neumann` did: Newton steps,
    PCG iterations summed over all directions, directions stopped by the
    iteration cap, Armijo step halvings, steps that took the
    preconditioned gradient, and the measured residual before each step
    and, last, of the returned field.
    """

    steps: int
    pcg_iterations: int
    capped: int
    backtracks: int
    gradient_fallbacks: int
    residuals: Tuple[float, ...]


@dataclasses.dataclass(frozen=True, eq=False)
class ScalarField:
    """Mean-zero nodal field on a disk mesh, one value per node; newton
    is the record of the solve for fields from `solve_neumann`."""

    mesh: DiskMesh
    values: np.ndarray
    newton: Optional[NewtonRecord] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if len(v) != self.mesh.n_nodes:
            raise ValueError("need one value per mesh node")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        tol = 1e-10 * max(1.0, float(np.abs(v).max()))
        if abs(float(self.mesh.lumped_mass @ v)) > tol:
            raise ValueError("field must integrate to zero over the disk")
        object.__setattr__(self, "values", v)

    @functools.cached_property
    def element_gradients(self) -> np.ndarray:
        """Constant gradient per triangle, shape (t, 2)."""
        return (self.mesh.grad @ self.values).reshape(-1, 2)

    @functools.cached_property
    def nodal_gradients(self) -> np.ndarray:
        """Area-weighted average of the incident element gradients."""
        mesh = self.mesh
        # corner-major, so each node sums its triangles corner by corner
        cols = np.column_stack([mesh.areas[:, None] * self.element_gradients, mesh.areas])
        sums = np.stack([np.bincount(mesh.triangles.T.ravel(), weights=np.tile(w, 3),
                                     minlength=mesh.n_nodes) for w in cols.T], axis=1)
        return sums[:, :2] / sums[:, 2:]

    def gradient(self, points) -> np.ndarray:
        """Element gradient at each point, which must be finite.  A point
        the mesh does not cover takes the recovered nodal gradient of its
        nearest node by Euclidean distance, the lowest index on ties."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        sidx = self.mesh.locate(pts)
        out = np.empty((len(pts), 2))
        inside = sidx >= 0
        out[inside] = self.element_gradients[sidx[inside]]
        off, nodes = np.flatnonzero(~inside), self.mesh.nodes
        step = max(1, _NEAREST_PAIRS // len(nodes))
        for k in range(0, len(off), step):
            rows = off[k:k + step]
            dx, dy = (pts[rows, c, None] - nodes[:, c] for c in (0, 1))
            out[rows] = self.nodal_gradients[np.argmin(dx * dx + dy * dy, axis=1)]
        return out


@dataclasses.dataclass(frozen=True, eq=False)
class NeumannProblem:
    """Mesh, cost and signed boundary flux of one dual solve.

    c_R is the volume source balancing the boundary flux: the
    divergence theorem for -div grad c*(D phi) = c_R with outward flux
    g forces c_R = -|B_R|^{-1} int g.
    """

    mesh: DiskMesh
    cost: CostSpec
    g_boundary: BoundaryData

    def __post_init__(self):
        g = self.g_boundary
        if abs(g.radius - self.mesh.R) > 1e-12 * self.mesh.R:
            raise ValueError("boundary data radius must match the mesh")

    @property
    def c_R(self) -> float:
        return -self.g_boundary.total_mass / (math.pi * self.mesh.R ** 2)


def _boundary_load(mesh: DiskMesh, g: BoundaryData) -> np.ndarray:
    """Boundary-term load vector, int g hat_i ds per boundary node.

    Exact for the piecewise-constant histogram density: one turn from
    the first node angle is cut at the sorted union of the node angles
    and the bin edges, ``searchsorted`` finds each piece's rim edge, and
    the midpoint rule, exact for linear factors, integrates the edge's
    two hats over the piece; pieces sum onto the nodes in angle order.
    """
    nodes, alpha = mesh.boundary_nodes, mesh.boundary_angles
    width = 2.0 * math.pi / g.n_bins
    beta = np.append(alpha[1:], alpha[0] + 2.0 * math.pi)
    # a bin edge c = alpha / width of a node angle is the node's own cut, not an ulp sliver
    edges = np.setdiff1d(np.arange(math.floor(alpha[0] / width) + 1,
                                   math.ceil(beta[-1] / width)), alpha / width) * width
    cut = np.sort(np.concatenate([alpha, beta[-1:], edges]))
    u, v = cut[:-1], cut[1:]
    u, v = u[v > u], v[v > u]
    edge = np.searchsorted(alpha, u, side="right") - 1
    a, b = alpha[edge], beta[edge]
    mid = 0.5 * (u + v)
    w = g.densities[(mid / width).astype(np.int64) % g.n_bins] * mesh.R * (v - u)
    ends = np.stack([nodes[edge], nodes[(edge + 1) % len(nodes)]], axis=1)
    shares = np.stack([w * (b - mid) / (b - a), w * (mid - a) / (b - a)], axis=1)
    return np.bincount(ends.ravel(), weights=shares.ravel(), minlength=mesh.n_nodes)


def _stiffness(mesh: DiskMesh, W: np.ndarray) -> _Apply:
    """v -> div (W grad v) for coefficient blocks W, shape (t, 2, 2);
    applied, never formed.  The four planes W[:, a, b] are copied once,
    and each apply forms W g plane by plane, bit-identical to
    einsum("tab,tb->ta") at 40-55 % of its time."""
    w00, w01, w10, w11 = (np.ascontiguousarray(W[:, a, b]) for a, b in np.ndindex(2, 2))

    def apply(v: np.ndarray) -> np.ndarray:
        g = (mesh.grad @ v).reshape(-1, 2)
        g0, g1 = g[:, 0], g[:, 1]
        f = np.empty_like(g)
        f[:, 0] = w00 * g0 + w01 * g1
        f[:, 1] = w10 * g0 + w11 * g1
        return mesh.div @ f.ravel()

    return apply


def _k2_solve(mesh: DiskMesh) -> _Apply:
    """Bordered p = 2 stiffness solve of the mesh, factored on first use
    and kept on the mesh.  The mean constraint moves any mass-aligned
    part of a right-hand side into the multiplier."""
    solve = mesh.__dict__.get("_k2_solve")
    if solve is None:
        m = mesh.lumped_mass
        lu = splu(sparse.bmat([[mesh.div @ mesh.grad, m[:, None]], [m[None, :], None]],
                              format="csc"))

        def solve(rhs: np.ndarray) -> np.ndarray:
            return lu.solve(np.append(rhs, 0.0))[:-1]

        mesh.__dict__["_k2_solve"] = solve
    return solve


def _pcg(hess: _Apply, precond: _Apply, r: np.ndarray, rd: np.ndarray, eta: float):
    """Truncated PCG for H d = -r, H applied by hess, on mean-free fields.

    precond, the bordered p = 2 solve, keeps every iterate mean-free, and
    rd = precond(r) is its first apply.  Stops once
    res . precond(res) <= eta^2 r . rd, after _PCG_CAP iterations or at
    non-positive curvature; returns the last iterate (0 if the first
    curvature is not positive), the iterations run and whether the cap
    stopped it.
    """
    d, res, p = np.zeros_like(r), -r, -rd
    rz = rz0 = float(r @ rd)
    for k in range(_PCG_CAP):
        hp = hess(p)
        curv = float(p @ hp)
        if curv <= 0.0:
            return d, k, False
        d, res = d + (rz / curv) * p, res - (rz / curv) * hp
        z = precond(res)
        rz, rz_old = float(res @ z), rz
        if rz <= eta * eta * rz0:
            return d, k + 1, False
        p = z + (rz / rz_old) * p
    return d, _PCG_CAP, True


def solve_neumann(prob: NeumannProblem, tol: float = 1e-8,
                  max_iter: int = 100_000) -> ScalarField:
    """Minimize the dual functional; see the module docstring.

    Starts from phi_0 = K2^-1 div grad c(D phi_2), phi_2 the p = 2 solve
    of the load lin: the bordered p = 2 projection onto gradients of the
    covector field whose flux grad c* is D phi_2, the p = 2 flux that
    balances the load, so phi_0 = phi_2 for the radial cost at p = 2.
    Stops when the weak residual, measured in the dual norm of the
    p = 2 stiffness operator, drops below tol (1 + |g|_{L^p}) for a
    finite tol > 0; raises ArithmeticError with the reached residual
    when max_iter Newton steps run out first.  Each step forms D phi
    once for the residual, the Hessian blocks and the objective,
    measures the residual rn, shifts the blocks by
    delta = clip(rn / (1 + |g|_{L^p}), 1e-6, 1e-2) |g|_inf^{1/(p-1)}
    and runs one matrix-free PCG solve, whose first preconditioner apply
    is the residual measurement's, to the forcing term
    eta = min(0.1, max(0.9 (rn / rn_prev)^2, 0.5 target / rn)) (0.1 on
    the first step), target being the stopping residual.  The result's
    ``newton`` record says what the iteration did.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    mesh, spec, g = prob.mesh, prob.cost, prob.g_boundary
    dens_sup = float(np.abs(g.densities).max())
    area, mass, grad, div = mesh.areas, mesh.lumped_mass, mesh.grad, mesh.div
    lin = _boundary_load(mesh, g) + prob.c_R * mass
    g_lp = g.lp_mass(spec.p) ** (1.0 / spec.p)
    target = tol * (1.0 + g_lp)

    def grad_of(phi: np.ndarray) -> np.ndarray:
        return (grad @ phi).reshape(-1, 2)

    def objective(phi: np.ndarray, grads: np.ndarray) -> float:
        return float(area @ dual_eval(spec, grads) - lin @ phi)

    def residual(grads: np.ndarray) -> np.ndarray:
        r = div @ dual_grad(spec, grads).ravel() - lin
        # the polygon's area deficit leaves a mass component in r that the
        # bordered solves move into the multiplier; its roundoff pairing
        # with their solutions would set the floor of the measured residual
        return r - (r.sum() / mass.sum()) * mass

    solve_k2 = _k2_solve(mesh)
    phi = solve_k2(div @ cost_grad(spec, grad_of(solve_k2(lin))).ravel())

    pcg_iters = capped = backtracks = fallbacks = 0
    history = []
    j = None  # J(phi), carried from the line search; None when not evaluated
    scale = dens_sup ** (1.0 / (spec.p - 1.0))
    for steps in range(max_iter + 1):
        grads = grad_of(phi)
        r = residual(grads)
        rd = solve_k2(r)
        rn = math.sqrt(abs(r @ rd))  # sqrt(r . K2^-1 r)
        history.append(rn)
        if rn <= target or steps == max_iter:
            break
        # Eisenstat-Walker forcing term from the last residual ratio,
        # floored by Kelley's safeguard
        eta = _ETA_MAX if steps == 0 else 0.9 * (rn / history[-2]) ** 2
        eta = min(_ETA_MAX, max(eta, 0.5 * target / rn))
        delta = min(max(rn / (1.0 + g_lp), _DELTA_MIN), _DELTA_MAX) * scale
        hess = _stiffness(mesh, _dual_hessian(spec, grads, delta))
        d, k, hit_cap = _pcg(hess, solve_k2, r, rd, eta)
        pcg_iters, capped = pcg_iters + k, capped + hit_cap
        dj = float(r @ d)
        if dj >= 0.0:
            # no descent direction: preconditioned gradient
            d, dj = -rd, -float(r @ rd)
            fallbacks += 1
        if j is None:
            j = objective(phi, grads)
        t = 1.0
        while t > 1e-18:
            # near the minimum the predicted decrease t |dj| ~ rn^2
            # sinks below the float resolution of J; accept the
            # step there and let the residual test drive the stop
            noise = abs(t * dj) <= 1e-14 * (1.0 + abs(j))
            trial = phi + t * d
            j_trial = None if noise else objective(trial, grad_of(trial))
            if noise or j_trial <= j + 1e-4 * t * dj:
                phi, j = trial, j_trial
                break
            t /= 2.0
            backtracks += 1

    if rn > target:
        raise ArithmeticError(
            f"no convergence in {steps} iterations, residual {rn:.3e} "
            f"above {target:.3e}")
    record = NewtonRecord(steps, pcg_iters, capped, backtracks, fallbacks, tuple(history))
    return ScalarField(mesh, phi - (mass @ phi) / mass.sum(), record)


def flux_field(phi: ScalarField, cost: CostSpec) -> np.ndarray:
    """Per-triangle transport direction grad c*(D phi).

    Piecewise constant, shape (t, 2); coincides with the element
    gradients when p = 2.
    """
    return dual_grad(cost, phi.element_gradients)


def _ratio(num: float, den: float) -> float:
    if den > 0.0:
        return num / den
    return 0.0 if num == 0.0 else math.inf


@dataclasses.dataclass(frozen=True)
class DiagnosticsReport:
    """Regularity diagnostics of one solved potential.

    The fields are raw: energies and sups as integrated, boundary_lp the
    boundary budget int |g|^p ds.  dual_cost_energy sums c(grad c*(D phi))
    as (p' - 1) c*(D phi), which Fenchel-Young equality and the
    p'-homogeneity of c* make equal.  energy_ratio, gradient_energy over
    boundary_lp, is the one derived ratio; any other is its raw field
    over boundary_lp.  mollification holds (r, gap) pairs with
    gap = int |D phi - D phi^r|^{p'} and fitted_exponent the log-log
    slope of gap against r (nan when fewer than two positive gaps are
    available).
    """

    p: float
    interior_radius: float
    gradient_energy: float
    dual_cost_energy: float
    interior_sup: float
    boundary_lp: float
    mollification: Tuple[Tuple[float, float], ...]
    fitted_exponent: float

    @property
    def energy_ratio(self) -> float:
        return _ratio(self.gradient_energy, self.boundary_lp)


def regularity_diagnostics(prob: NeumannProblem, phi: ScalarField,
                           phi_r_pairs: Sequence[Tuple[float, ScalarField]] = ()
                           ) -> DiagnosticsReport:
    """Energy and mollification diagnostics of a solved potential.

    Reports, next to the boundary budget int |g|^p ds, the dual
    gradient energy int |D phi|^{p'}, the transported cost
    int c(grad c*(D phi)), the sup of |D phi|^{p'} over the ball
    shrunk by 0.5, and one gap per mollified companion field (r, phi_r),
    whose scale r must be positive.  phi and every phi_r must live on the
    problem's mesh: the same object, or one with equal nodes and triangles.
    """
    mesh, spec = prob.mesh, prob.cost
    if mesh.R <= 0.5:
        raise ValueError("interior diagnostics need R > 0.5")
    for field in (phi, *(phi_r for _, phi_r in phi_r_pairs)):
        other = field.mesh
        if not (other is mesh or (np.array_equal(other.nodes, mesh.nodes)
                                  and np.array_equal(other.triangles, mesh.triangles))):
            raise ValueError("fields must live on the problem's mesh")
    q = spec.p_prime
    grads = phi.element_gradients
    gnorm_q = np.linalg.norm(grads, axis=1) ** q
    inner = np.linalg.norm(mesh.centroids, axis=1) <= mesh.R - 0.5

    gaps = []
    for r, phi_r in phi_r_pairs:
        if not r > 0.0:
            raise ValueError("companion scales must be positive")
        diff = grads - phi_r.element_gradients
        gaps.append((float(r),
                     float(mesh.areas @ np.linalg.norm(diff, axis=1) ** q)))
    positive = [(r, gap) for r, gap in gaps if gap > 0.0]
    if len(positive) >= 2:
        rs, gs = np.log([r for r, _ in positive]), np.log([g for _, g in positive])
        fitted = float(np.polyfit(rs, gs, 1)[0])
    else:
        fitted = math.nan

    return DiagnosticsReport(
        p=spec.p,
        interior_radius=mesh.R - 0.5,
        gradient_energy=float(mesh.areas @ gnorm_q),
        dual_cost_energy=(q - 1.0) * float(mesh.areas @ dual_eval(spec, grads)),
        interior_sup=float(gnorm_q[inner].max()) if inner.any() else 0.0,
        boundary_lp=prob.g_boundary.lp_mass(spec.p),
        mollification=tuple(gaps),
        fitted_exponent=fitted,
    )


def holder_product_check(phi: ScalarField, cost: CostSpec, ball: Ball) -> float:
    """Ratio in the product bound for c*(D phi) + c(grad c*(D phi)).

    The field is summed as p' c*(D phi): c(grad c*(xi)) = (p' - 1) c*(xi)
    by Fenchel-Young equality and the p'-homogeneity of c*.  Both sides
    use discrete Hoelder seminorms (beta = 0.5) over the recovered nodal
    gradients, restricted to mesh nodes inside the ball and to pairs at
    least 2h apart; below that scale the piecewise-gradient jumps
    dominate the quotients.  Returns lhs / (sup |D phi|^{p'-1} [D phi]);
    0 when both sides vanish.

    Both maxima come from `costs._holder_maxima`, an exact grid-cell
    branch and bound with the floats of an all-pairs sweep, in O(k)
    memory plus at most 2^16 leaf or node pairs however little it prunes.
    """
    mesh = phi.mesh
    sel = np.linalg.norm(mesh.nodes - ball.center, axis=1) <= ball.radius
    if sel.sum() < 2:
        raise ValueError("ball covers fewer than two mesh nodes")
    x = mesh.nodes[sel]
    dg = phi.nodal_gradients[sel]
    s = (cost.p_prime * dual_eval(cost, dg))[:, None]
    maxima = _holder_maxima(x, (s, dg), HOLDER_BETA, 2.0 * mesh.h)
    if maxima is None:
        raise ValueError("no node pairs at separation 2h in the ball")
    lhs, grad_semi = maxima
    sup_d = float(np.linalg.norm(dg, axis=1).max())
    if grad_semi <= 1e-10 * max(1.0, sup_d):
        # constant gradient at working precision: both sides are roundoff
        return 0.0
    return _ratio(lhs, sup_d ** (cost.p_prime - 1.0) * grad_semi)
