"""Discrete measures on the line and the plane, and boundary densities.

Everything downstream consumes measures in one of two shapes: weighted
atom clouds (DiscreteMeasure) and angular histograms on a sphere
boundary (BoundaryData).  This module supplies the constructors, the
restriction and density bookkeeping, midpoint Lebesgue quadratures on
balls, the radial projection onto a sphere, mollification of boundary
densities, and a numerical check of the radial projection estimate

    R^{1-d} (int g)^p  <~  int_{dB_R} ghat^p  <~  sup g^{p-1} int |R-|x||^{p-1} g

for annulus-supported g, with explicit normalization constants so that
both comparisons become ratios that should sit at or above 1.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "Ball",
    "BoundaryData",
    "ProjectionCheck",
    "restrict",
    "kappa",
    "lebesgue_quadrature",
    "radial_project",
    "mollify_boundary",
    "projection_lemma_check",
    "ANNULUS_EPS",
]

# half-width of the admissible support annulus in projection_lemma_check,
# as a fraction of the sphere radius
ANNULUS_EPS = 0.1


@dataclasses.dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Non-negative weighted atoms in dimension 1 or 2.

    points has shape (n, d); weights has shape (n,).  Zero-atom measures
    are allowed and flow through every operation.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[1] if pts.ndim == 2 and pts.shape[1] else 2)
        if pts.ndim != 2 or pts.shape[1] not in (1, 2):
            raise ValueError("points must be (n, 1) or (n, 2)")
        if len(w) != len(pts):
            raise ValueError("points and weights length mismatch")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise ValueError("non-finite data")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    def scaled(self, factor: float) -> "DiscreteMeasure":
        """Push forward under x -> factor * x; masses unchanged."""
        return DiscreteMeasure(self.points * factor, self.weights)

    def with_mass(self, mass: float) -> "DiscreteMeasure":
        """Rescale weights to the requested total mass."""
        m = self.total_mass
        if m <= 0:
            raise ValueError("cannot renormalize a zero measure")
        return DiscreteMeasure(self.points, self.weights * (mass / m))

    @staticmethod
    def empty(dim: int) -> "DiscreteMeasure":
        return DiscreteMeasure(np.zeros((0, dim)), np.zeros(0))


@dataclasses.dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.ndim != 1 or len(c) not in (1, 2):
            raise ValueError("center must be a 1- or 2-vector")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        # omega_1 = 2, omega_2 = pi
        return (2.0 if self.dim == 1 else math.pi) * self.radius ** self.dim

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Mask of the (k, dim) points in the open ball; its sphere lies outside."""
        if np.shape(points)[1:] != (self.dim,):
            raise ValueError(f"points must be (k, {self.dim}), got shape {np.shape(points)}")
        # hypot does not overflow where the squared norm would; abs keeps a
        # one-element (1-D) reduction from passing a negative coordinate
        return np.hypot.reduce(np.abs(points - self.center), axis=1) < self.radius

    @staticmethod
    def at_origin(radius: float, dim: int = 2) -> "Ball":
        return Ball(np.zeros(dim), float(radius))


@dataclasses.dataclass(frozen=True, eq=False)
class BoundaryData:
    """Angular mass histogram on the sphere of a given radius.

    In the plane the bins are the n equal arcs [2 pi b / n, 2 pi (b+1) / n);
    on the line they are the two endpoints {-R, +R}.  Densities are mass
    per boundary measure (arc length, or counting measure on the line).
    Histograms of actual measures are non-negative; a signed instance
    opts out of that check and carries a net flux such as g - f.
    """

    radius: float
    masses: np.ndarray
    dim: int = 2
    signed: bool = False

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float).ravel()
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        if not np.all(np.isfinite(m)):
            raise ValueError("bin masses must be finite")
        if np.any(m < 0) and not self.signed:
            raise ValueError("bin masses must be non-negative")
        if self.dim not in (1, 2):
            raise ValueError(f"boundary data live in dimension 1 or 2, got {self.dim}")
        if self.dim == 1 and len(m) != 2:
            raise ValueError("line boundary has exactly two bins")
        if self.dim == 2 and len(m) < 1:
            raise ValueError("need at least one angular bin")
        object.__setattr__(self, "masses", m)

    @property
    def n_bins(self) -> int:
        return len(self.masses)

    @property
    def bin_width(self) -> float:
        """Angular width of one bin (2 pi / n); undefined on the line."""
        if self.dim == 1:
            raise ValueError("no angular bins in dimension 1")
        return 2.0 * math.pi / self.n_bins

    @property
    def bin_measure(self) -> float:
        """Boundary measure of one bin: arc length, or 1 on the line."""
        return self.radius * self.bin_width if self.dim == 2 else 1.0

    @property
    def densities(self) -> np.ndarray:
        return self.masses / self.bin_measure

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def lp_mass(self, p: float) -> float:
        """int |g|^p over the sphere, exact for the histogram density."""
        return float(np.sum(np.abs(self.densities) ** p) * self.bin_measure)


def restrict(mu: DiscreteMeasure, ball: Ball) -> DiscreteMeasure:
    """Keep the atoms strictly inside the ball, masses unchanged.

    Atoms landing exactly on the boundary are dropped; downstream code
    relies on restricted supports staying clear of the sphere.
    """
    keep = ball.contains(mu.points)
    return DiscreteMeasure(mu.points[keep], mu.weights[keep])


def kappa(mu: DiscreteMeasure, ball: Ball) -> float:
    """Mass density mu(O)/|O| of the ball under the measure."""
    return restrict(mu, ball).total_mass / ball.volume


def lebesgue_quadrature(ball: Ball, resolution: int) -> DiscreteMeasure:
    """Midpoint quadrature of Lebesgue measure on the ball.

    In the plane the grid is polar with `resolution` equal-width rings
    and 6(2j+1) cells in ring j, which makes every cell area identical;
    on the line it is the uniform midpoint grid.  Weights are normalized
    so the total mass equals |O| exactly.  Two quadratures of concentric
    balls agree atom-for-atom where they overlap whenever the ring width
    divides both radii, which downstream zero-data constructions use.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if ball.dim == 1:
        n = 2 * resolution
        xs = ball.center[0] - ball.radius + (np.arange(n) + 0.5) * (2 * ball.radius / n)
        w = np.full(n, 2.0 * ball.radius / n)
        meas = DiscreteMeasure(xs[:, None], w)
    else:
        dr = ball.radius / resolution
        pts, ws = [], []
        for j in range(resolution):
            r = (j + 0.5) * dr
            n_j = 6 * (2 * j + 1)
            th = 2.0 * math.pi * (np.arange(n_j) + 0.5) / n_j
            ring = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
            pts.append(ball.center[None, :] + ring)
            # exact ring area split evenly; all cells share pi dr^2 / 6
            area_j = math.pi * dr * dr * (2 * j + 1)
            ws.append(np.full(n_j, area_j / n_j))
        meas = DiscreteMeasure(np.concatenate(pts), np.concatenate(ws))
    return meas.with_mass(ball.volume)


def radial_project(mu: DiscreteMeasure, radius: float, n_theta: int) -> BoundaryData:
    """Push every atom to the sphere along its ray and bin the masses.

    Realizes x -> R x / |x| on atoms; total mass is preserved exactly.
    An atom at the origin has no ray and is rejected.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    r = mu.radii()
    if np.any(r == 0.0) :
        raise ValueError("cannot project an atom at the origin")
    if mu.dim == 1:
        masses = np.array([
            mu.weights[mu.points[:, 0] < 0].sum(),
            mu.weights[mu.points[:, 0] > 0].sum(),
        ])
        return BoundaryData(radius, masses, dim=1)
    if n_theta < 1:
        raise ValueError("need at least one angular bin")
    ang = np.arctan2(mu.points[:, 1], mu.points[:, 0]) % (2.0 * math.pi)
    idx = np.minimum((ang / (2.0 * math.pi) * n_theta).astype(int), n_theta - 1)
    masses = np.bincount(idx, weights=mu.weights, minlength=n_theta)
    return BoundaryData(radius, masses, dim=2)


def mollify_boundary(b: BoundaryData, r: float) -> BoundaryData:
    """Circular convolution with a raised-cosine bump of half-width r.

    r is an angular scale and must be at least one bin, otherwise the
    grid cannot resolve the kernel.  The kernel is C^1, non-negative and
    normalized on the bin grid, so mass is conserved and the density sup
    cannot increase.
    """
    if b.dim != 2:
        raise ValueError("mollification needs angular bins")
    if not (math.isfinite(r) and r >= b.bin_width * (1.0 - 1e-12)):
        raise ValueError(f"mollification scale r = {r} must be finite and at least one bin width")
    n = b.n_bins
    k = int(math.floor(r / b.bin_width))
    off = np.arange(-k, k + 1) * b.bin_width
    kern = 1.0 + np.cos(math.pi * off / r)
    kern /= kern.sum()
    # wrapped taps summed in symmetric pairs, outermost first
    out = b.masses * kern[k]
    for j in range(k, 0, -1):
        out += (np.roll(b.masses, j) + np.roll(b.masses, -j)) * kern[k - j]
    if not b.signed:
        # convolution of non-negative data is non-negative up to roundoff
        out = np.maximum(out, 0.0)
    return BoundaryData(b.radius, out, dim=2, signed=b.signed)


@dataclasses.dataclass(frozen=True)
class ProjectionCheck:
    """Outcome of the radial projection estimate on one measure.

    lower_ratio compares the boundary L^p mass against the Jensen bound
    (>= 1 exactly, equality for uniform histograms); upper_ratio
    compares the bathtub-principle majorant against the boundary L^p
    mass (>= 1 up to the density-proxy discretization).  degenerate
    marks vacuous cases: zero measure, or support exactly on the sphere
    where the majorant's density factor is unbounded.
    """

    lower_ratio: float
    upper_ratio: float
    sup_density: float
    degenerate: Optional[str] = None

    @property
    def passed(self) -> bool:
        if self.degenerate is not None:
            return True
        return self.lower_ratio >= 1.0 - 1e-9 and self.upper_ratio >= 0.95


def projection_lemma_check(g: DiscreteMeasure, radius: float, n_theta: int,
                           p: float = 2.0) -> ProjectionCheck:
    """Test the two-sided radial projection estimate on an annulus measure.

    Works at the normalized scale R = 1.  The left comparison divides
    int ghat^p by its Jensen bound (2 pi)^{1-p} (int g)^p; the right
    comparison divides the bathtub majorant

        p (2 (1 + eps) sup g)^{p-1}  int |1 - |x||^{p-1} g

    by int ghat^p, with sup g estimated as the max cell density of a
    polar grid whose angular cells match the projection bins.
    """
    if not p > 1.0:
        raise ValueError("exponent must satisfy p > 1")
    if g.dim != 2:
        raise ValueError("projection check is planar")
    if g.n_atoms == 0 or g.total_mass == 0.0:
        return ProjectionCheck(math.inf, math.inf, 0.0, degenerate="zero measure")
    rr = g.radii() / radius
    if np.any(rr > 1.0 + ANNULUS_EPS) or np.any(rr < 1.0 - ANNULUS_EPS):
        raise ValueError("support leaves the admissible annulus")

    unit = g.scaled(1.0 / radius)
    middle = radial_project(unit, 1.0, n_theta).lp_mass(p)
    mass = unit.total_mass
    lower = middle * (2.0 * math.pi) ** (p - 1.0) / mass ** p

    # radial moment int |1 - |x||^{p-1} dg at the unit scale
    moment = float(np.sum(np.abs(1.0 - rr) ** (p - 1.0) * unit.weights))

    # sup-density proxy on polar cells; angular width equals the bin
    # width, radial width comparable, so the proxy resolves what the
    # histogram resolves
    dth = 2.0 * math.pi / n_theta
    rmin, rmax = float(rr.min()), float(rr.max())
    span = rmax - rmin
    if span <= 1e-12:
        # support on a single sphere: the majorant degenerates (zero
        # moment against an unbounded density); report it vacuous
        return ProjectionCheck(lower, math.inf, math.inf,
                               degenerate="support on a single sphere")
    n_r = max(1, int(math.ceil(span / dth)))
    dr = span / n_r
    ang = np.arctan2(unit.points[:, 1], unit.points[:, 0]) % (2.0 * math.pi)
    ia = np.minimum((ang / dth).astype(int), n_theta - 1)
    ir = np.minimum(((rr - rmin) / dr).astype(int), n_r - 1)
    cell_mass = np.bincount(ir * n_theta + ia, weights=unit.weights,
                            minlength=n_r * n_theta).reshape(n_r, n_theta)
    r_mid = rmin + (np.arange(n_r) + 0.5) * dr
    cell_area = (r_mid * dr * dth)[:, None]
    sup_density = float((cell_mass / cell_area).max())

    majorant = p * (2.0 * (1.0 + ANNULUS_EPS) * sup_density) ** (p - 1.0) * moment
    upper = majorant / middle
    return ProjectionCheck(lower, upper, sup_density)
