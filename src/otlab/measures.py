"""Discrete measures in the plane, and boundary densities.

Everything downstream consumes measures in one of two shapes: weighted
atom clouds in the plane (DiscreteMeasure) and angular histograms on a
circle (BoundaryData).  This module supplies the constructors, the
restriction and density bookkeeping, midpoint Lebesgue quadratures on
discs, the radial projection of a measure onto a circle, mollification
of boundary densities, and a numerical check of the bathtub side of the
radial projection estimate

    int_{dB_R} ghat^p  <~  sup g^{p-1} int |R-|x||^{p-1} g

for annulus-supported g, normalized to a ratio that should sit at or
above 1.  Its Jensen side, R^{1-d} (int g)^p <~ int ghat^p, cannot fail.
"""
from __future__ import annotations

import dataclasses
import math
import operator
from typing import Optional

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "Ball",
    "BoundaryData",
    "ProjectionCheck",
    "restrict",
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
    """Non-negative weighted atoms in the plane.

    points has shape (n, 2); weights has shape (n,).  Zero-atom measures
    are allowed, with points of shape (0, 2), and flow through every
    operation.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.size == 0 and pts.shape[1] == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must be (n, 2), got shape {pts.shape}")
        if len(w) != len(pts):
            raise ValueError("points and weights length mismatch")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise ValueError("non-finite data")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    def with_mass(self, mass: float) -> "DiscreteMeasure":
        """Rescale weights to the requested total mass."""
        m = self.total_mass
        if m <= 0:
            raise ValueError("cannot renormalize a zero measure")
        return DiscreteMeasure(self.points, self.weights * (mass / m))


@dataclasses.dataclass(frozen=True, eq=False)
class Ball:
    """Open disc of the given centre (a 2-vector) and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.shape != (2,):
            raise ValueError(f"center must be a 2-vector, got shape {c.shape}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        object.__setattr__(self, "center", c)

    @property
    def volume(self) -> float:
        return math.pi * self.radius ** 2

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Mask of the (k, 2) points in the open disc; its circle lies outside."""
        if np.shape(points)[1:] != (2,):
            raise ValueError(f"points must be (k, 2), got shape {np.shape(points)}")
        # hypot does not overflow where the squared norm would
        d = points - self.center
        return np.hypot(d[:, 0], d[:, 1]) < self.radius

    @staticmethod
    def at_origin(radius: float) -> "Ball":
        return Ball(np.zeros(2), float(radius))


@dataclasses.dataclass(frozen=True, eq=False)
class BoundaryData:
    """Angular mass histogram on the circle of a given radius.

    The bins are the n equal arcs [2 pi b / n, 2 pi (b+1) / n), and
    densities are mass per arc length.  dim must be 2.  Histograms of
    actual measures are non-negative; a signed instance opts out of
    that check and carries a net flux such as g - f.
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
        if self.dim != 2:
            raise ValueError(f"boundary data live on a circle, in dimension 2, got {self.dim}")
        if len(m) < 1:
            raise ValueError("need at least one angular bin")
        object.__setattr__(self, "masses", m)

    @property
    def n_bins(self) -> int:
        return len(self.masses)

    @property
    def bin_width(self) -> float:
        """Angular width of one bin (2 pi / n)."""
        return 2.0 * math.pi / self.n_bins

    @property
    def bin_measure(self) -> float:
        """Arc length of one bin."""
        return self.radius * self.bin_width

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


def _enumerate(count: np.ndarray):
    """(group, offset within the group) of every item, in order, when
    group g holds count[g] items."""
    group = np.repeat(np.arange(len(count)), count)
    return group, np.arange(len(group)) - (np.cumsum(count) - count)[group]


def lebesgue_quadrature(ball: Ball, resolution: int) -> DiscreteMeasure:
    """Midpoint quadrature of Lebesgue measure on the disc.

    The grid is polar with `resolution` equal-width rings and 6(2j+1)
    cells in ring j, which makes every cell area identical.  Weights are
    normalized so the total mass equals |O| exactly.  Two quadratures of
    concentric discs agree atom-for-atom where they overlap whenever the
    ring width divides both radii, which downstream zero-data
    constructions use.
    """
    if operator.index(resolution) < 2:
        raise ValueError("resolution must be >= 2")
    dr = ball.radius / resolution
    count = 6 * (2 * np.arange(resolution) + 1)
    j, i = _enumerate(count)
    r = (j + 0.5) * dr
    th = 2.0 * math.pi * (i + 0.5) / count[j]
    pts = ball.center[None, :] + np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    # exact ring area split evenly; all cells share pi dr^2 / 6
    ws = math.pi * dr * dr * (2 * j + 1) / count[j]
    return DiscreteMeasure(pts, ws).with_mass(ball.volume)


def _angular_bins(points: np.ndarray, n: int) -> np.ndarray:
    """Bin of each point's angle among n equal bins of [0, 2 pi)."""
    ang = np.arctan2(points[:, 1], points[:, 0]) % (2.0 * math.pi)
    return np.minimum((ang / (2.0 * math.pi) * n).astype(int), n - 1)


def radial_project(mu: DiscreteMeasure, radius: float, n_theta: int) -> BoundaryData:
    """Push each atom to the circle along its ray and bin the masses.

    Realizes x -> R x / |x| on atoms; total mass is preserved exactly.
    An atom at the origin has no ray and is rejected.
    """
    if np.any(mu.radii() == 0.0):
        raise ValueError("cannot project an atom at the origin")
    if n_theta < 1:
        raise ValueError("need at least one angular bin")
    masses = np.bincount(_angular_bins(mu.points, n_theta), weights=mu.weights,
                         minlength=n_theta)
    return BoundaryData(radius, masses)


def mollify_boundary(b: BoundaryData, r: float) -> BoundaryData:
    """Circular convolution with a raised-cosine bump of half-width r.

    r is an angular scale and must be at least one bin, otherwise the
    grid cannot resolve the kernel.  The kernel is C^1, non-negative and
    normalized on the bin grid, so mass is conserved and the density sup
    cannot increase.
    """
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
    return BoundaryData(b.radius, out, signed=b.signed)


@dataclasses.dataclass(frozen=True)
class ProjectionCheck:
    """Outcome of the radial projection estimate on one measure.

    upper_ratio compares the bathtub-principle majorant against the
    boundary L^p mass (>= 1 up to the density-proxy discretization); the
    Jensen side is >= 1 for every histogram, so no ratio reports it.
    degenerate marks vacuous cases: zero measure, or support exactly on
    the sphere where the majorant's density factor is unbounded.
    """

    upper_ratio: float
    sup_density: float
    degenerate: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.degenerate is not None or self.upper_ratio >= 0.95


def projection_lemma_check(g: DiscreteMeasure, radius: float, n_theta: int,
                           p: float = 2.0) -> ProjectionCheck:
    """Test the bathtub side of the radial projection estimate on an annulus measure.

    Works at the scale R = 1, where x -> x / R keeps g's angles and
    masses, so g is binned as it is.  It divides the bathtub majorant

        p (2 (1 + eps) sup g)^{p-1}  int |1 - |x||^{p-1} g

    by int ghat^p, with sup g estimated as the max cell density of a
    polar grid whose angular cells match the projection bins.  The Jensen
    side, int ghat^p >= (2 pi)^{1-p} (int g)^p, is not checked: it holds
    for every histogram.
    """
    if not p > 1.0:
        raise ValueError("exponent must satisfy p > 1")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    if g.n_atoms == 0 or g.total_mass == 0.0:
        return ProjectionCheck(math.inf, 0.0, degenerate="zero measure")
    rr = g.radii() / radius
    if np.any(rr > 1.0 + ANNULUS_EPS) or np.any(rr < 1.0 - ANNULUS_EPS):
        raise ValueError("support leaves the admissible annulus")

    boundary_lp = radial_project(g, 1.0, n_theta).lp_mass(p)

    # radial moment int |1 - |x||^{p-1} dg at the unit scale
    moment = float(np.sum(np.abs(1.0 - rr) ** (p - 1.0) * g.weights))

    # sup-density proxy on polar cells; the angular cells are the
    # projection bins, radial width comparable, so the proxy resolves what
    # the histogram resolves
    dth = 2.0 * math.pi / n_theta
    rmin, rmax = float(rr.min()), float(rr.max())
    span = rmax - rmin
    if span <= 1e-12:
        # support on a single sphere: the majorant degenerates (zero
        # moment against an unbounded density); report it vacuous
        return ProjectionCheck(math.inf, math.inf, degenerate="support on a single sphere")
    n_r = max(1, int(math.ceil(span / dth)))
    dr = span / n_r
    ia = _angular_bins(g.points, n_theta)
    ir = np.minimum(((rr - rmin) / dr).astype(int), n_r - 1)
    cell_mass = np.bincount(ir * n_theta + ia, weights=g.weights,
                            minlength=n_r * n_theta).reshape(n_r, n_theta)
    r_mid = rmin + (np.arange(n_r) + 0.5) * dr
    cell_area = (r_mid * dr * dth)[:, None]
    sup_density = float((cell_mass / cell_area).max())

    majorant = p * (2.0 * (1.0 + ANNULUS_EPS) * sup_density) ** (p - 1.0) * moment
    return ProjectionCheck(majorant / boundary_lp, sup_density)
