"""The planar dot products of ``otlab`` in their library-call forms.

The kernels write every dot product of planar points unrolled,
``a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]``.  Here the same
quantities take their library-call forms: the radial quadratic form of
``costs._metric`` and the three dot products of ``trajectories._windows``
through ``np.einsum``, ``costs._distance`` from the two coordinate
differences, and the Fenchel-Young pairing of
``costs.verify_assumptions`` through ``np.sum``.  The tests require the
library's outputs to equal them bit for bit.
"""
import math

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otlab.costs import cost_eval, cost_grad, dual_eval

# coordinates: signed zeros, the extremes 1e-300 and 1e150, moderate values
# and magnitudes from 2^-1074 to 2^497, so stacks mix magnitudes freely
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150]),
    st.floats(-4.0, 4.0),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 497)),
)


def planar_stack(shape):
    """Float arrays of the given shape (..., 2) drawn from COORDS."""
    return arrays(float, shape, elements=COORDS)


def einsum_metric(z):
    """z . z along the last axis, the radial quadratic form."""
    return np.einsum("...i,...i->...", z, z)


def coordinate_distance(y, z):
    """|y - z| of broadcastable planar points from the coordinate differences."""
    d, e = y[..., 0] - z[..., 0], y[..., 1] - z[..., 1]
    return np.sqrt(d * d + e * e)


def einsum_windows(x, y, radius):
    """(hit, sigma, tau) of the segments from the rows of x to those of y
    against the closed ball of the radius, |X(t)|^2 <= R^2 solved as a
    quadratic in t."""
    d = y - x
    a = np.einsum("ij,ij->i", d, d)
    b = 2.0 * np.einsum("ij,ij->i", x, d)
    c = np.einsum("ij,ij->i", x, x) - radius * radius
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
    return inside | ok, sigma, tau


def sum_fenchel_young(spec, x):
    """The largest relative Fenchel-Young defect at the contact covectors
    grad c(x), the pairing summed with np.sum."""
    xi = cost_grad(spec, x)
    fy = np.abs(cost_eval(spec, x) + dual_eval(spec, xi) - np.sum(xi * x, axis=1))
    return float(np.max(fy / (1.0 + np.linalg.norm(x, axis=1) ** spec.p)))


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: NaN matches NaN and -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
