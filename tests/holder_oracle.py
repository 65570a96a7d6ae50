"""All-pairs reference for ``otlab.neumann.holder_product_check``.

Builds every pair i < j of the k nodes in the ball at once, so it holds
O(k^2) memory and serves only as the tests' oracle on small meshes.
"""
import numpy as np

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
