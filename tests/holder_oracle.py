"""References for the Hoelder sweeps.

``holder_product_pairs`` is the all-pairs reference for
``otlab.neumann.holder_product_check``: it builds every pair i < j of the
k nodes in the ball at once, so it holds O(k^2) memory and serves only
on small meshes.  ``holder_maxima_rows`` is the row-block sweep that
``otlab.costs._holder_maxima`` replaced, the oracle of its maxima.
"""
import numpy as np
from scipy.spatial.distance import cdist

from otlab.costs import cost_eval, dual_eval, dual_grad
from otlab.neumann import HOLDER_BETA, _ratio


def holder_product_pairs(phi, cost, ball) -> float:
    mesh = phi.mesh
    sel = np.linalg.norm(mesh.nodes - ball.center, axis=1) <= ball.radius
    if sel.sum() < 2:
        raise ValueError("ball covers fewer than two mesh nodes")
    x = mesh.nodes[sel]
    dg = phi.nodal_gradients[sel]
    s = dual_eval(cost, dg) + cost_eval(cost, dual_grad(cost, dg))

    i, j = np.triu_indices(len(x), k=1)
    dist = np.linalg.norm(x[i] - x[j], axis=1)
    far = dist >= 2.0 * mesh.h
    if not far.any():
        raise ValueError("no node pairs at separation 2h in the ball")
    w = dist[far] ** HOLDER_BETA
    lhs = float(np.max(np.abs(s[i][far] - s[j][far]) / w))
    grad_semi = float(np.max(
        np.linalg.norm(dg[i][far] - dg[j][far], axis=1) / w))
    sup_d = float(np.linalg.norm(dg, axis=1).max())
    if grad_semi <= 1e-10 * max(1.0, sup_d):
        return 0.0
    return _ratio(lhs, sup_d ** (cost.p_prime - 1.0) * grad_semi)


# rows x points per block of the row sweep
ROW_BLOCK = 1 << 16


def holder_maxima_rows(x, fields, beta, min_sep):
    """max |f_i - f_j| / |x_i - x_j|^beta of each field over pairs min_sep > 0 apart.

    Sweeps cdist rows in blocks of about ROW_BLOCK entries; None when
    no pair is min_sep apart.
    """
    best = [0.0] * len(fields)
    found = False
    step = max(1, ROW_BLOCK // len(x))
    # full rows hold each pair twice; the maxima are those over i < j
    for i in range(0, len(x), step):
        b = slice(i, i + step)
        dist = cdist(x[b], x)
        far = dist >= min_sep
        found = found or bool(far.any())
        # closer pairs get an infinite weight and quotient 0
        w = np.where(far, dist, np.inf) ** beta
        best = [max(m, float(np.max(cdist(f[b], f) / w))) for m, f in zip(best, fields)]
    return best if found else None
