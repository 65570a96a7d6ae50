"""Trajectory view of a transport plan.

Every plan entry (x, y, m) is read as the straight path
X(t) = (1 - t) x + t y carrying mass m.  This module computes sphere
crossing times in closed form, the entry and exit measures a radius
cuts out of a plan, the approximable boundary data built by composing
exiting trajectories with an auxiliary plan to the uniform density, the
scored radius selection, the sup displacement diagnostic, and the line
integrals of mesh fields along trajectories.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .costs import CostSpec, cost_eval
from .measures import (Ball, BoundaryData, DiscreteMeasure, mollify_boundary, radial_project,
                       restrict)
from .transport import _plan_to_uniform, _rings_at, compute_smallness, data_D

__all__ = [
    "Trajectory",
    "CrossingTimes",
    "crossing_times",
    "omega_mask",
    "entry_exit_atoms",
    "approximate_boundary_data",
    "select_radius",
    "RadiusSelection",
    "linfty_displacement",
    "DisplacementReport",
    "path_integral",
]

# membership tolerance for "the point lies on the sphere"
_ON_SPHERE_TOL = 1e-10
# Omega_R keeps the entries with source or target in the open B_3
_WINDOW = 3.0
# 8-point Gauss-Legendre rule on [-1, 1] for path_integral
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclasses.dataclass(frozen=True, eq=False)
class Trajectory:
    x: np.ndarray
    y: np.ndarray
    mass: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != (2,) or y.shape != (2,):
            raise ValueError(f"endpoints must be 2-vectors, got shapes {x.shape} and {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all() and math.isfinite(self.mass)):
            raise ValueError("endpoints and mass must be finite")
        if self.mass < 0:
            raise ValueError("mass must be non-negative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def at(self, t):
        """X(t) = (1 - t) x + t y, vectorized over t."""
        t = np.asarray(t, dtype=float)
        return (1.0 - t)[..., None] * self.x + t[..., None] * self.y


@dataclasses.dataclass(frozen=True)
class CrossingTimes:
    sigma: float
    tau: float

    def __post_init__(self):
        if not 0.0 <= self.sigma <= self.tau <= 1.0:
            raise ValueError("need 0 <= sigma <= tau <= 1")


def _windows(x: np.ndarray, y: np.ndarray, radius: float):
    """Crossing windows of the segments from the rows of x to those of y.

    |X(t)|^2 is a quadratic in t; the sub-level set {|X(t)| <= R} is its
    root interval, intersected with [0, 1].  Returns (hit, sigma, tau)
    arrays; segments missing the closed ball carry nan.  The radius must
    be finite and positive.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    d = y - x
    a = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    b = 2.0 * (x[:, 0] * d[:, 0] + x[:, 1] * d[:, 1])
    c = x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1] - radius * radius
    sigma = np.full(len(a), np.nan)
    tau = np.full(len(a), np.nan)
    still = a == 0.0
    inside = still & (c <= 0.0)
    sigma[inside], tau[inside] = 0.0, 1.0
    moving = ~still
    disc = np.where(moving, b * b - 4.0 * a * np.where(moving, c, 0.0), -1.0)
    ok = moving & (disc >= 0.0)
    root = np.sqrt(np.where(ok, disc, 0.0))
    a_safe = np.where(ok, a, 1.0)
    lo = np.maximum((-b - root) / (2.0 * a_safe), 0.0)
    hi = np.minimum((-b + root) / (2.0 * a_safe), 1.0)
    ok &= lo <= hi
    sigma[ok], tau[ok] = lo[ok], hi[ok]
    hit = inside | ok
    return hit, sigma, tau


def crossing_times(traj: Trajectory, radius: float) -> Optional[CrossingTimes]:
    """Entry and exit times of the closed ball, or None if missed."""
    hit, sigma, tau = _windows(traj.x[None], traj.y[None], radius)
    return CrossingTimes(float(sigma[0]), float(tau[0])) if hit[0] else None


def omega_mask(plan, radius: float) -> np.ndarray:
    """Entries of Omega_R: source or target in B_3, path meets the closed ball."""
    hit, _, _ = _windows(*plan.pairs(), radius)
    return plan.anchored_in(_WINDOW) & hit


def _sphere_crossings(plan, radius: float):
    """Omega_R entries entering and leaving through the sphere.

    Returns ((entries, points), (entries, points)) for the entry side
    X(sigma) and the exit side X(tau): the indices of the Omega_R
    entries whose window endpoint lies on the sphere (the path did not
    start, or end, inside) and those endpoints renormalised onto it, so
    downstream boundary code sees exact radii.
    """
    x, y = plan.pairs()
    hit, sigma, tau = _windows(x, y, radius)
    # omega_mask, from the same window solve
    sel = np.flatnonzero(plan.anchored_in(_WINDOW) & hit)
    sides = []
    for times in (sigma, tau):
        t = times[sel]
        p = (1.0 - t)[:, None] * x[sel] + t[:, None] * y[sel]
        r = np.linalg.norm(p, axis=1)
        on = np.abs(r - radius) <= _ON_SPHERE_TOL * max(radius, 1.0)
        sides.append((sel[on], p[on] * (radius / r[on])[:, None]))
    return sides


def entry_exit_atoms(plan, radius: float):
    """Entry and exit measures of a radius, as atoms on the sphere.

    Mass of an Omega_R entry lands in the entry measure at X(sigma)
    whenever that point lies on the sphere (the trajectory did not start
    inside), and in the exit measure at X(tau) symmetrically.
    """
    return tuple(DiscreteMeasure(p, plan.masses[k]) for k, p in _sphere_crossings(plan, radius))


def _uniform_composition(marginal: DiscreteMeasure, spec: CostSpec, resolution: int):
    """Radius-independent half of the boundary data, for one marginal.

    The entries of the auxiliary optimal plan from the marginal
    restricted to B_4 onto kappa dx on B_4: per entry, the marginal's
    atom, the quadrature cell and the share of the atom's mass the entry
    carries.  Returns (atom, cell, share, mask of the atoms inside B_4,
    quadrature with the cell volumes as weights).
    """
    _, quad, aux = _plan_to_uniform(marginal, 4.0, spec, resolution)
    anchored = Ball.at_origin(4.0).contains(marginal.points)
    atom = np.flatnonzero(anchored)  # marginal atom of each row of the plan's source
    row_weight = np.bincount(aux.idx_source, weights=aux.masses, minlength=len(atom))
    share = aux.masses / row_weight[aux.idx_source]
    return atom[aux.idx_source], aux.idx_target, share, anchored, quad


@dataclasses.dataclass(frozen=True, eq=False)
class BoundaryApproximation:
    """Approximated entry (f) and exit (g) data with their bookkeeping.

    kappa_lambda/kappa_mu, |nu on B_4| / |B_4| of each marginal nu, are
    reported for both sides, also for one without crossings (sup 0).
    f_dropped/g_dropped are the crossing masses the composition could
    not carry, because their anchor atom lies outside B_4.
    """

    f_bar: BoundaryData
    g_bar: BoundaryData
    f_density_sup: float
    g_density_sup: float
    kappa_lambda: float
    kappa_mu: float
    f_dropped: float
    g_dropped: float


def _boundary_approximation(plan, radius: float, crossings, n_theta: int,
                            moll_scale: float, marginals, compose) -> BoundaryApproximation:
    """Per-radius half of the boundary data: compose one radius's crossings.

    crossings is `_sphere_crossings(plan, radius)` and marginals is
    (lam, mu); compose maps a marginal to its `_uniform_composition`
    and is called only for a side with crossing entries.  The
    crossing mass follows its anchor atom's share (barycentric
    splitting); mass anchored outside B_4 is not carried but dropped.
    """
    def one_side(sel: np.ndarray, idx: np.ndarray, marginal: DiscreteMeasure):
        b4 = Ball.at_origin(4.0)  # kappa as `_plan_to_uniform` forms it
        kappa = restrict(marginal, b4).total_mass / b4.volume
        if len(sel) == 0:
            # mollified zeros are exactly zeros; approximate_boundary_data
            # checks moll_scale, and select_radius's is two bins wide
            return BoundaryData(radius, np.zeros(n_theta)), 0.0, kappa, 0.0
        atom, cell, share, anchored, cells = compose(marginal)
        atoms, masses = idx[sel], plan.masses[sel]
        crossing = np.bincount(atoms, weights=masses, minlength=len(anchored))
        spread = np.bincount(cell, weights=share * crossing[atom], minlength=cells.n_atoms)
        dropped = float(masses[~anchored[atoms]].sum())
        sup = float((spread / cells.weights).max())
        carried = spread > 0
        projected = radial_project(
            DiscreteMeasure(cells.points[carried], spread[carried]), radius, n_theta)
        return mollify_boundary(projected, moll_scale), sup, kappa, dropped

    (f_sel, _), (g_sel, _) = crossings
    f_bar, f_sup, k_lam, f_drop = one_side(f_sel, plan.idx_source, marginals[0])
    g_bar, g_sup, k_mu, g_drop = one_side(g_sel, plan.idx_target, marginals[1])
    return BoundaryApproximation(f_bar, g_bar, f_sup, g_sup, k_lam, k_mu, f_drop, g_drop)


def _check_marginals(plan, lam: DiscreteMeasure, mu: DiscreteMeasure):
    """Refuse lam and mu unless they are the plan's marginals: the same
    points, and weights within 1e-9 of the total mass, the tolerance of
    `solve_exact`'s mass balance.  Both callers index them by the plan's
    entry indices."""
    for given, own, side in ((lam, plan.source, "lam"), (mu, plan.target, "mu")):
        if given is own:
            continue
        scale = max(given.total_mass, own.total_mass)
        if not (np.array_equal(given.points, own.points)
                and np.abs(given.weights - own.weights).sum() <= 1e-9 * scale):
            raise ValueError(f"{side} is not the plan's marginal")


def approximate_boundary_data(plan, lam: DiscreteMeasure, mu: DiscreteMeasure,
                              spec: CostSpec, radius: float, n_theta: int,
                              moll_scale: float, resolution: int = 12) -> BoundaryApproximation:
    """Build the approximable boundary data from crossing trajectories.

    Exit side: every trajectory leaving through the sphere hands its
    mass to its target atom, which the auxiliary plan onto the uniform
    density of B_4 spreads over quadrature cells; the spread measure has
    cell densities at most kappa by construction, and its radial
    projection mollified at moll_scale is the returned g.  Entry side
    symmetric through the sources.  Both sides report their marginal's
    kappa, also a side without crossings.  Crossing mass anchored at an
    atom outside B_4 is not carried and is reported as f_dropped or
    g_dropped.  Plans with no sphere-crossing mass return zero
    histograms.  `resolution` counts quadrature rings on B_4, as
    `select_radius`'s does, and not on B_R as `data_D`'s does; its
    default is `select_radius`'s, so with both defaults the data at a
    selected radius are the ones it scored.  lam and mu must be the
    plan's marginals.  The radius must lie in (0, 3], as
    `select_radius`'s candidates must: beyond the B_3 window a crossing
    whose ends both lie outside B_3 would be lost, counted neither in the
    data nor as dropped.
    """
    if not 0.0 < radius <= _WINDOW:
        raise ValueError(f"radius must lie in (0, {_WINDOW:g}], the B_{_WINDOW:g} window")
    _check_marginals(plan, lam, mu)
    # refuse a bad moll_scale before any composition LP is posed
    mollify_boundary(BoundaryData(radius, np.zeros(n_theta)), moll_scale)
    return _boundary_approximation(
        plan, radius, _sphere_crossings(plan, radius), n_theta, moll_scale, (lam, mu),
        functools.partial(_uniform_composition, spec=spec, resolution=resolution))


@dataclasses.dataclass(frozen=True)
class RadiusSelection:
    """Scores of the candidate radii and the selected one."""

    selected: float
    scores: dict
    components: dict


def select_radius(plan, lam: DiscreteMeasure, mu: DiscreteMeasure, spec: CostSpec,
                  candidates: Sequence[float], n_theta: int = 64,
                  resolution: int = 12) -> RadiusSelection:
    """Score candidate radii and pick the cheapest.

    score(R) = cost of trajectories touching the sphere (within the
    B_3 window) + R^p D(R), the volume-only data term, + the L^p mass
    of the approximated boundary densities.  Every candidate must lie in
    (0, 3]: beyond the window the crossings it does not count would
    lower the score.  The argmin
    is returned with all scores and their breakdown; ties break to the
    smallest radius.  Each marginal's composition
    with its uniform density on B_4 does not depend on the radius and is
    built at most once per call; every error of the construction is
    radius-independent and propagates.  lam and mu must be the plan's
    marginals.

    `resolution` counts quadrature rings at the reference radius 4 and
    is rescaled per candidate by `_rings_at`; `data_D` and
    `compute_smallness` count them on B_R itself (see `data_D`).
    """
    candidates = sorted({float(r) for r in candidates})
    if len(candidates) < 3:
        raise ValueError("need at least 3 distinct candidate radii")
    if not (0.0 < candidates[0] and candidates[-1] <= _WINDOW):
        raise ValueError(f"candidate radii must lie in (0, {_WINDOW:g}], the B_{_WINDOW:g} window")
    _check_marginals(plan, lam, mu)

    x, y = plan.pairs()
    entry_cost = np.asarray(cost_eval(spec, x - y)) * plan.masses
    compose = functools.cache(functools.partial(_uniform_composition, spec=spec, resolution=resolution))

    scores, parts = {}, {}
    for r in candidates:
        # touching the sphere: an endpoint of the crossing window sits on it
        crossings = _sphere_crossings(plan, r)
        (entering, _), (leaving, _) = crossings
        crossing = float(entry_cost[np.union1d(entering, leaving)].sum())

        d_r = r ** spec.p * data_D(lam, mu, r, spec, _rings_at(r, resolution))
        approx = _boundary_approximation(plan, r, crossings, n_theta,
                                         4.0 * math.pi / n_theta, (lam, mu), compose)
        lp_mass = approx.f_bar.lp_mass(spec.p) + approx.g_bar.lp_mass(spec.p)
        scores[r] = crossing + d_r + lp_mass
        parts[r] = (crossing, d_r, lp_mass)

    # scores inside float dust of the minimum tie to the smallest radius,
    # so quadrature noise never drives the selection
    s_min = min(scores.values())
    thresh = s_min * (1.0 + 1e-9) + 1e-15
    best = min(r for r in scores if scores[r] <= thresh)
    return RadiusSelection(best, scores, parts)


@dataclasses.dataclass(frozen=True)
class DisplacementReport:
    sup_disp: float
    smallness: float
    exponent: float
    bound_check: float
    inside_b4: bool


def linfty_displacement(plan, spec: CostSpec, resolution: int = 12) -> DisplacementReport:
    """Sup displacement over the B_3 window against the smallness power.

    bound_check = sup |x - y| / (4^p (E(4) + D(4)))^{1/(p+2)}, the
    smallness taken in its volume-only form; the exponent is the
    displacement law's 1/(p+d) in the plane, d = 2.  Stability of
    bound_check across a scaling family is the actual test; a single
    value is diagnostic only.  inside_b4 is True when every B_3-window
    trajectory stays inside the closed B_4: |X(t)| is convex along a
    straight path, so testing both endpoints of every window entry is
    exact.  When a marginal has no mass in the open B_4, D(4) is
    undefined: the smallness is inf, the kappa -> 0 limit of its
    (kappa - 1)^p / kappa^{p-1} term, and bound_check is 0.
    """
    x, y = plan.pairs()
    window = plan.anchored_in(_WINDOW)
    sup_disp = float(np.linalg.norm((x - y)[window], axis=1).max()) if window.any() else 0.0
    ends = np.concatenate([x[window], y[window]])
    inside_b4 = bool(np.all(np.linalg.norm(ends, axis=1) <= 4.0))
    expo = 1.0 / (spec.p + 2.0)
    b4 = Ball.at_origin(4.0)
    if min(restrict(plan.source, b4).total_mass, restrict(plan.target, b4).total_mass) <= 0.0:
        return DisplacementReport(sup_disp, math.inf, expo, 0.0, inside_b4)
    small = 4.0 ** spec.p * compute_smallness(plan, spec, (4.0,), resolution).total(4.0)
    check = sup_disp / small ** expo if small > 0 else (0.0 if sup_disp == 0.0 else math.inf)
    return DisplacementReport(sup_disp, small, expo, check, inside_b4)


def path_integral(traj: Trajectory, field: Callable[[np.ndarray], np.ndarray],
                  t0: float, t1: float) -> float:
    """8-point Gauss-Legendre integral of field(X(t)) over [t0, t1].

    Exact for fields polynomial of degree < 16 along the path;
    the field callable receives an (n, d) array of path points and any
    out-of-domain failure it raises propagates.
    """
    if not 0.0 <= t0 <= t1 <= 1.0:
        raise ValueError("need 0 <= t0 <= t1 <= 1")
    if t0 == t1:
        return 0.0
    t = 0.5 * (t1 - t0) * _GAUSS_NODES + 0.5 * (t0 + t1)
    vals = np.asarray(field(traj.at(t)), dtype=float)
    return float(0.5 * (t1 - t0) * np.sum(_GAUSS_WEIGHTS * vals))

