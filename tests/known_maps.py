"""Transport instances whose optimal coupling is known in closed form.

Each family draws lambda as 150 i.i.d. atoms uniform on B_4 and moves every
atom by a map T that is optimal for the cost, so mu = T#lambda and the
identity coupling x_i -> T(x_i) with mass w_i is an optimal plan.  Its
cost is `identity_cost`, sum_i w_i c(x_i - T(x_i)).

- `translation`: T(x) = x + b, gamma weights.  Optimal for every convex
  cost: any coupling pi of (lambda, mu) moves its mass by b on average,
  so by Jensen int c(x - y) dpi >= mass c(-b), the identity's cost.
- `cubic_p2`: T = grad(|x|^2 / 2 + eps psi) with psi = Re(z^3) / 3, equal
  weights, for the quadratic cost only.  D^2 psi has eigenvalues +-2|x|,
  so the potential is convex on B_4 whenever 8 eps < 1, and the gradient
  of a convex function is an optimal map for p = 2 (Brenier, CPAM 1991;
  its support is cyclically monotone, Rockafellar, Pacific J. Math. 1966).
  p = 1.5 and 3 also gave the identity in trial runs, but no theorem
  covers them there, so they are not gated.
"""
from __future__ import annotations

import numpy as np

from otlab.costs import cost_eval
from otlab.measures import DiscreteMeasure

RADIUS = 4.0
N_ATOMS = 150
SHIFT = np.array([0.3, -0.2])


def uniform_disc(rng, n: int) -> np.ndarray:
    """n i.i.d. points uniform on B_4."""
    r = RADIUS * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def translation(seed: int):
    """(lambda, mu) with mu = lambda + SHIFT, gamma weights."""
    rng = np.random.default_rng(seed)
    x = uniform_disc(rng, N_ATOMS)
    w = rng.gamma(2.0, size=N_ATOMS)
    return DiscreteMeasure(x, w), DiscreteMeasure(x + SHIFT, w)


def cubic_p2(seed: int, eps: float):
    """(lambda, mu) with mu = (id + eps grad psi)#lambda, psi = Re(z^3) / 3,
    equal weights; optimal at p = 2 for eps < 1/8."""
    if not 0.0 <= eps < 1.0 / (2.0 * RADIUS):
        raise ValueError("the potential is convex on B_4 only for eps < 1/8")
    x = uniform_disc(np.random.default_rng(seed), N_ATOMS)
    grad_psi = np.column_stack([x[:, 0] ** 2 - x[:, 1] ** 2, -2.0 * x[:, 0] * x[:, 1]])
    w = np.full(N_ATOMS, 1.0 / N_ATOMS)
    return DiscreteMeasure(x, w), DiscreteMeasure(x + eps * grad_psi, w)


def identity_cost(lam, mu, spec) -> float:
    """sum_i w_i c(x_i - y_i), the cost of the identity coupling."""
    return float(lam.weights @ cost_eval(spec, lam.points - mu.points))
