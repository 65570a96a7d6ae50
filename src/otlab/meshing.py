"""Graded polar meshes of the disk for the dual Neumann solve.

Nodes sit on concentric rings whose spacing shrinks like (r/R)^0.28
toward the origin, each ring rotated half a cell against its
neighbour, and the triangles come from a Delaunay pass over those
points.  The grading is what keeps the quadratic convergence order for
costs with p < 2: the radial solution r^p / p of the unit-flux problem
has unbounded curvature at the centre, and uniform rings lose an order
there.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from scipy import spatial

__all__ = ["DiskMesh", "build_mesh"]

# ring spacing exponent, fixed on the oracle convergence sweep: the
# halving error ratios sit above 3 for p in [1.5, 3] on this grading
# and fall below it for the uniform layout
MESH_GRADING = 0.28


def _ring_radii(R: float, h: float) -> np.ndarray:
    """Ring radii from the boundary inward, returned ascending."""
    radii = [R]
    while True:
        r = radii[-1]
        step = h * (r / R) ** MESH_GRADING
        nxt = r - step
        if nxt < 0.6 * step:
            # the leftover gap folds into the centre cell
            break
        radii.append(nxt)
    return np.asarray(radii[::-1])


@dataclasses.dataclass(frozen=True, eq=False)
class DiskMesh:
    """Conforming triangulation of B_R centred at the origin.

    Triangles are counterclockwise; boundary_edges walk the circle
    counterclockwise and their first columns list the boundary nodes in
    angular order.  h records the realized largest element diameter,
    not the step the mesh was requested at.
    """

    R: float
    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    h: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        tris = np.asarray(self.triangles, dtype=int)
        edges = np.asarray(self.boundary_edges, dtype=int)
        if not (self.R > 0.0 and self.h > 0.0):
            raise ValueError("R and h must be positive")
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must be an (n, 2) array")
        if tris.ndim != 2 or tris.shape[1] != 3 or len(tris) == 0:
            raise ValueError("triangles must be a non-empty (t, 3) array")
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("boundary_edges must be an (m, 2) array")
        p0, p1, p2 = (nodes[tris[:, k]] for k in range(3))
        d1, d2 = p1 - p0, p2 - p0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(det <= 1e-12 * np.abs(det).max()):
            raise ValueError("degenerate or clockwise triangle in the mesh")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "boundary_edges", edges)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @functools.cached_property
    def _geometry(self):
        # P1 element data: areas and the gradients of the three vertex
        # hat functions per triangle
        p0 = self.nodes[self.triangles[:, 0]]
        p1 = self.nodes[self.triangles[:, 1]]
        p2 = self.nodes[self.triangles[:, 2]]
        d1, d2 = p1 - p0, p2 - p0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        area = 0.5 * np.abs(det)
        g0 = np.stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]], -1) / det[:, None]
        g1 = np.stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]], -1) / det[:, None]
        g2 = np.stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]], -1) / det[:, None]
        return area, np.stack([g0, g1, g2], 1)

    @property
    def areas(self) -> np.ndarray:
        return self._geometry[0]

    @property
    def shape_gradients(self) -> np.ndarray:
        """Per-triangle hat function gradients, shape (t, 3, 2)."""
        return self._geometry[1]

    @functools.cached_property
    def area(self) -> float:
        """Total mesh area; below pi R^2 by the polygonal rim deficit."""
        return float(self.areas.sum())

    @functools.cached_property
    def centroids(self) -> np.ndarray:
        return self.nodes[self.triangles].mean(axis=1)

    @functools.cached_property
    def lumped_mass(self) -> np.ndarray:
        """Nodal weights of the lumped mass matrix (a third per vertex)."""
        # corner-major, so each node sums its triangles corner by corner
        return np.bincount(self.triangles.T.ravel(), weights=np.tile(self.areas / 3.0, 3),
                           minlength=self.n_nodes)

    @functools.cached_property
    def boundary_nodes(self) -> np.ndarray:
        """Boundary node indices in angular order."""
        return self.boundary_edges[:, 0].copy()

    @functools.cached_property
    def boundary_angles(self) -> np.ndarray:
        """Angles of the boundary nodes, increasing in [0, 2 pi)."""
        pts = self.nodes[self.boundary_nodes]
        return np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)

    @functools.cached_property
    def boundary_normals(self) -> np.ndarray:
        """Outward unit normal of each boundary edge."""
        a = self.nodes[self.boundary_edges[:, 0]]
        b = self.nodes[self.boundary_edges[:, 1]]
        t = b - a
        n = np.stack([t[:, 1], -t[:, 0]], -1)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        # a counterclockwise walk already points these outward; keep the
        # sign check so a hand-built edge list cannot flip them silently
        n[np.sum(n * 0.5 * (a + b), axis=1) < 0.0] *= -1.0
        return n

    @functools.cached_property
    def _locator(self) -> spatial.Delaunay:
        # reconstruction from the same nodes reproduces the triangle
        # rows build_mesh stored, so find_simplex indices stay valid
        return spatial.Delaunay(self.nodes)

    @functools.cached_property
    def _node_tree(self) -> spatial.cKDTree:
        return spatial.cKDTree(self.nodes)

    def locate(self, points) -> np.ndarray:
        """Index of the triangle containing each point, -1 outside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._locator.find_simplex(pts)

    def nearest_node(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._node_tree.query(pts)[1]


def build_mesh(R: float, target_h: float) -> DiskMesh:
    """Triangulate B_R with node spacing close to target_h.

    Rings carry ceil(2 pi r / dr) nodes with dr the local ring gap, so
    cells stay near-square, and odd rings are staggered half a cell to
    avoid the flat triangle pairs an aligned layout produces.  The
    realized maximum element diameter stays below 1.5 target_h.
    """
    if not 0.0 < target_h < R:
        raise ValueError("need 0 < target_h < R")
    radii = _ring_radii(R, target_h)
    pts = [(0.0, 0.0)]
    prev = 0.0
    for j, r in enumerate(radii):
        dr = r - prev
        n_j = max(6, int(math.ceil(2.0 * math.pi * r / max(dr, 1e-12))))
        th = 2.0 * math.pi * (np.arange(n_j) + 0.5 * (j % 2)) / n_j
        pts.extend(zip(r * np.cos(th), r * np.sin(th)))
        prev = r
    nodes = np.asarray(pts)

    tri = spatial.Delaunay(nodes)
    triangles = tri.simplices.copy()
    p0, p1, p2 = (nodes[triangles[:, k]] for k in range(3))
    d1, d2 = p1 - p0, p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(np.abs(det) <= 1e-12 * np.abs(det).max()):
        raise ValueError("degenerate triangle in the disk mesh")
    flip = det < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    rr = np.linalg.norm(nodes, axis=1)
    bidx = np.flatnonzero(np.abs(rr - R) < 1e-9 * R)
    order = np.argsort(np.mod(np.arctan2(nodes[bidx, 1], nodes[bidx, 0]), 2.0 * math.pi))
    b = bidx[order]
    edges = np.stack([b, np.roll(b, -1)], axis=1)

    dmax = 0.0
    corners = nodes[triangles]
    for k in range(3):
        side = corners[:, k, :] - corners[:, (k + 1) % 3, :]
        dmax = max(dmax, float(np.linalg.norm(side, axis=1).max()))
    if dmax > 1.5 * target_h:
        raise ValueError(f"element diameter {dmax:.3f} exceeds 1.5 * {target_h:.3f}")

    mesh = DiskMesh(R=float(R), nodes=nodes, triangles=triangles,
                    boundary_edges=edges, h=dmax)
    # hand the locator the triangulation we just built instead of
    # recomputing it on first point query
    mesh.__dict__["_locator"] = tri
    return mesh
