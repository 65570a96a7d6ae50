"""Ring-by-ring loops for ``otlab.measures.lebesgue_quadrature`` and
``otlab.meshing.build_mesh``.

Both build their points one ring at a time in a Python loop, the form the
library used before it enumerated every ring's points at once.  The LP
and mesh benchmark references depend on these points bit for bit, so the
tests compare the library against them with ``np.array_equal``.
"""
import math

import numpy as np

from otlab.meshing import _ring_radii


def quadrature_loop(ball, resolution):
    """(points, weights) before the normalization to |ball|."""
    dr = ball.radius / resolution
    pts, ws = [], []
    for j in range(resolution):
        r = (j + 0.5) * dr
        n_j = 6 * (2 * j + 1)
        th = 2.0 * math.pi * (np.arange(n_j) + 0.5) / n_j
        ring = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        pts.append(ball.center[None, :] + ring)
        area_j = math.pi * dr * dr * (2 * j + 1)
        ws.append(np.full(n_j, area_j / n_j))
    return np.concatenate(pts), np.concatenate(ws)


def mesh_nodes_loop(R, target_h):
    """The centre, then each ring's nodes, odd rings staggered half a cell."""
    pts = [(0.0, 0.0)]
    prev = 0.0
    for j, r in enumerate(_ring_radii(R, target_h)):
        dr = r - prev
        n_j = max(6, int(math.ceil(2.0 * math.pi * r / max(dr, 1e-12))))
        th = 2.0 * math.pi * (np.arange(n_j) + 0.5 * (j % 2)) / n_j
        pts.extend(zip(r * np.cos(th), r * np.sin(th)))
        prev = r
    return np.asarray(pts)
