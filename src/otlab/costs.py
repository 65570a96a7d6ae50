"""Strongly p-convex cost families and their convex duality.

Two planar families are implemented, both of the form

    c(z) = (z . A z)^{p/2} / p

with A = I (radial, c(z) = |z|^p / p) or A a symmetric positive definite
2 x 2 matrix (anisotropic).  The family enters only through A: c and its
conjugate c* share one power form (z . M z)^{e/2} / e and its gradient
(``_form``, ``_form_grad``), at (e, M) = (p, A) for c and (p', A^{-1}) for
c*; radially M = I is z itself, no matmul.  No other module reads the family.

The module provides c, its gradient, the Legendre conjugate c* with
gradient (∇c)^{-1} and the Hessian of its shifted density, the
comparison quantities

    V_p(x, y) = (|x|^2 + |y|^2)^{(p-2)/2} |x - y|^2
    U_p(x, y) = (|x| + |y|)^{p-1} |x - y|

and the structural inequalities a cost must satisfy to enter the
linearization pipeline: strong p-convexity with constant Lambda, two-sided
p-growth, U_p-Lipschitz bounds, controlled gradient growth, p'-convexity
of the conjugate and the V-difference bound.  Each is one quotient defined
once in ``_INEQUALITIES``, whose worst value ``_grid_constant`` takes on a
coarse grid and ``verify_assumptions`` on random samples.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from .measures import _enumerate

__all__ = [
    "CostSpec",
    "AssumptionReport",
    "cost_eval",
    "cost_grad",
    "dual_eval",
    "dual_grad",
    "v_p",
    "u_p",
    "verify_assumptions",
]

RADIAL = "radial"
ANISOTROPIC = "anisotropic"
_I2 = np.eye(2)


@dataclasses.dataclass(frozen=True, eq=False)
class CostSpec:
    """A member of the implemented cost families.

    Parameters
    ----------
    p : float
        Growth exponent, finite with p > 1.
    matrix : ndarray or None
        SPD 2 x 2 matrix A of the anisotropic family; None is the
        radial family.
    lambda_cap : float
        Ellipticity certificate Lambda, finite and >= 1.
        ``verify_assumptions`` must pass with this value; constructors
        fill in a certified default when omitted.
    """

    p: float
    matrix: Optional[np.ndarray] = None
    lambda_cap: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"exponent must be finite with p > 1, got {self.p}")
        if self.matrix is not None:
            # a read-only copy, so the cached inverse cannot go stale
            a = np.array(self.matrix, dtype=float)
            a.flags.writeable = False
            if a.shape != (2, 2):
                raise ValueError(f"anisotropy matrix must be 2 x 2, got shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError("anisotropy matrix must be finite")
            if not np.allclose(a, a.T, atol=1e-12):
                raise ValueError("anisotropy matrix must be symmetric")
            if np.linalg.eigvalsh(a).min() <= 0:
                raise ValueError("anisotropy matrix must be positive definite")
            object.__setattr__(self, "matrix", a)
        if not (math.isfinite(self.lambda_cap) and self.lambda_cap >= 1.0):
            raise ValueError(f"lambda_cap must be finite and >= 1, got {self.lambda_cap}")

    @property
    def family(self) -> str:
        return RADIAL if self.matrix is None else ANISOTROPIC

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @functools.cached_property
    def inverse(self) -> Optional[np.ndarray]:
        """A^{-1}, the metric on covectors; None radially."""
        return None if self.matrix is None else np.linalg.inv(self.matrix)

    @classmethod
    def radial(cls, p: float, lambda_cap: Optional[float] = None) -> "CostSpec":
        if lambda_cap is None:
            lambda_cap = _certified_lambda_radial(p)
        return cls(float(p), None, float(lambda_cap))

    @classmethod
    def anisotropic(cls, p: float, matrix, lambda_cap: float) -> "CostSpec":
        return cls(float(p), np.asarray(matrix, float), float(lambda_cap))

    def _key(self) -> tuple:
        m = None if self.matrix is None else tuple(self.matrix.ravel().tolist())
        return self.p, self.lambda_cap, m

    def __eq__(self, other):
        return isinstance(other, CostSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_dict(self) -> dict:
        d = {"family": self.family, "p": self.p, "lambda_cap": self.lambda_cap}
        if self.matrix is not None:
            d["matrix"] = [list(row) for row in self.matrix]
        return d


# Certified default Lambda for the radial family, sharp to three digits on
# the canonical exponents and grid-estimated with margin otherwise.  The
# dominant constant is always the strong-convexity one; for p = 2 every
# inequality is an identity at Lambda = 2.
_RADIAL_LAMBDA_TABLE = {1.5: 3.6, 2.0: 2.0, 3.0: 4.5}


@functools.cache
def _certified_lambda_radial(p: float) -> float:
    if p in _RADIAL_LAMBDA_TABLE:
        return _RADIAL_LAMBDA_TABLE[p]
    spec = CostSpec(p)
    return 1.1 * max(_grid_constant(spec, k) for k in ("elliptic", "growth", "cgrowth", "controlled"))


def _as_points(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (2,):
        raise ValueError(f"points must be planar, shape (..., 2), got {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("non-finite input")
    return z


def _metric(z: np.ndarray, m: Optional[np.ndarray]):
    """(z M, z . M z) along the last axis; M = I, applied as z itself, when m is None.
    Unrolled, like every planar dot product of the kernels: an einsum's or
    np.sum's floats up to a zero's sign, at a third to an eighth of their time."""
    zm = z if m is None else z @ m
    return zm, zm[..., 0] * z[..., 0] + zm[..., 1] * z[..., 1]


def _form(z, m: Optional[np.ndarray], e: float) -> float | np.ndarray:
    """(z . M z)^{e/2} / e at a 2-vector or a stack (n, 2)."""
    return _metric(_as_points(z), m)[1] ** (e / 2.0) / e


def _form_grad(z, m: Optional[np.ndarray], e: float) -> np.ndarray:
    """(z . M z)^{(e-2)/2} M z, the gradient of ``_form``, extended by 0 at z = 0."""
    mz, q = _metric(_as_points(z), m)
    # guard 0^{negative power}; the q=0 rows are zeroed below anyway
    w = np.where(q > 0.0, q, 1.0) ** ((e - 2.0) / 2.0)
    return np.where(q > 0.0, w, 0.0)[..., None] * mz


def cost_eval(spec: CostSpec, z) -> float | np.ndarray:
    """c(z) = (z . A z)^{p/2} / p, ``_form`` at (p, A)."""
    return _form(z, spec.matrix, spec.p)


def cost_grad(spec: CostSpec, z) -> np.ndarray:
    """grad c(z) = (z . A z)^{(p-2)/2} A z, ``_form_grad`` at (p, A); 0 at z = 0."""
    return _form_grad(z, spec.matrix, spec.p)


def dual_eval(spec: CostSpec, xi) -> float | np.ndarray:
    """The Legendre conjugate c*(xi) = sup_x <xi, x> - c(x), ``_form`` at
    (p', A^{-1}) (Rockafellar, Convex Analysis, section 12)."""
    return _form(xi, spec.inverse, spec.p_prime)


def dual_grad(spec: CostSpec, xi) -> np.ndarray:
    """grad c*(xi), the inverse map of cost_grad: ``_form_grad`` at (p', A^{-1})."""
    return _form_grad(xi, spec.inverse, spec.p_prime)


def _dual_hessian(spec: CostSpec, xi: np.ndarray, delta: float) -> np.ndarray:
    """Hessian blocks, shape (n, 2, 2), of the delta-shifted conjugate
    density (xi . B xi + delta^2)^{p'/2} / p' at covectors xi of shape (n, 2):

        (m + delta^2)^{(p'-2)/2} (B + (p'-2) B xi xi^T B / (m + delta^2))

    with m = xi . B xi and B = A^{-1}.
    """
    q = spec.p_prime
    bxi, m = _metric(xi, spec.inverse)
    nr2 = m + delta * delta
    s = nr2 ** ((q - 2.0) / 2.0)
    b = _I2 if spec.inverse is None else spec.inverse
    # one (n,) plane per entry, no (n, 2, 2) temporaries: bit-identical to
    # the broadcast outer product at a quarter to a half of its time
    hess = np.empty((len(xi), 2, 2))
    for i in range(2):
        for j in range(2):
            hess[:, i, j] = s * (b[i, j] + (q - 2.0) * (bxi[:, i] * bxi[:, j] / nr2))
    return hess


def _norms(z: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, free of under- and overflow."""
    return np.hypot.reduce(z, axis=-1)


def v_p(p: float, x, y) -> float | np.ndarray:
    """Convexity-defect quantity (|x|^2+|y|^2)^{(p-2)/2} |x-y|^2.

    Returns the limit 0 at coincident arguments even when the prefactor
    degenerates (p < 2 at the origin).
    """
    x = _as_points(x)
    y = _as_points(y)
    d = _norms(x - y)
    s = np.hypot(_norms(x), _norms(y))
    w = np.where(s > 0.0, s, 1.0) ** (p - 2.0)
    w = np.where(s > 0.0, w, 0.0)
    return np.where(d > 0.0, w * d * d, 0.0)


def u_p(p: float, x, y) -> float | np.ndarray:
    """Growth comparison quantity (|x|+|y|)^{p-1} |x-y|."""
    x = _as_points(x)
    y = _as_points(y)
    d = _norms(x - y)
    s = _norms(x) + _norms(y)
    w = np.where(s > 0.0, s, 1.0) ** (p - 1.0)
    w = np.where(s > 0.0, w, 0.0)
    return np.where(d > 0.0, w * d, 0.0)


# ---------------------------------------------------------------------------
# assumption checking


@dataclasses.dataclass(frozen=True)
class InequalityResult:
    name: str
    worst_constant: float
    reference: float
    passed: bool
    witness: tuple


@dataclasses.dataclass(frozen=True)
class AssumptionReport:
    spec: CostSpec
    sample_count: int
    seed: int
    results: tuple
    fenchel_young_defect: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _sample_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """Log-uniform radii over |z| in [1e-3, 1e3] plus special directions.

    The inequality constants degenerate near 0 and infinity and at
    aligned configurations, so axis and diagonal directions are mixed in
    deterministically.
    """
    radii = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    dirs = rng.normal(size=(n, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    special = [_I2[0], _I2[1], -_I2[0], -_I2[1], np.ones(2) / math.sqrt(2)]
    k = min(n, len(special))
    dirs[:k] = special[:k]
    return radii[:, None] * dirs


def verify_assumptions(spec: CostSpec, sample_count: int, seed: int) -> AssumptionReport:
    """Stress-test the structural cost inequalities by sampling.

    Draws point pairs with log-uniform radii and weights tau and takes each
    inequality's worst quotient through its definition in ``_INEQUALITIES``.
    The primal constants are compared against Lambda, the derived ones
    against ``_grid_constant``.  Each witness is the worst tuple's points
    (and tau); the report never raises on failure.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    x = _sample_points(sample_count, rng)
    y = _sample_points(sample_count, rng)
    # aligned pairs stress the degenerate directions of the convexity gap
    n_aligned = max(1, sample_count // 16)
    y[:n_aligned] = x[:n_aligned] * 10.0 ** rng.uniform(-1.0, 1.0, size=(n_aligned, 1))
    tau = rng.uniform(0.0, 1.0, size=(sample_count, 1))

    tuples = {"elliptic": (x, y, tau), "growth": (x,), "pprime_convex": (x, y, tau),
              "vdiff": (x, y, np.roll(y, 1, axis=0))}
    results = []
    for kind in _INEQUALITIES:
        worst, wit = _worst(spec, kind, *tuples.get(kind, (x, y)))
        if kind == "pprime_convex":
            # a lower constant: the sampled minimum can only sit above the grid's
            worst, ref = 1.0 / worst if worst else math.inf, _grid_constant(spec, kind)
            passed = worst >= 0.8 * ref and worst > 0.0
        else:
            derived = kind in ("vdiff", "cgrowth_dual")
            ref = _grid_constant(spec, kind) if derived else spec.lambda_cap
            passed = worst <= ref * (1.2 if derived else 1.0 + 1e-9)
        name = "controlled_growth" if kind == "controlled" else kind
        results.append(InequalityResult(name, worst, ref, passed, wit))

    # Fenchel-Young defect at the contact covector xi = grad c(x)
    xi = cost_grad(spec, x)
    fy = np.abs(cost_eval(spec, x) + dual_eval(spec, xi) - (xi[:, 0] * x[:, 0] + xi[:, 1] * x[:, 1]))
    fy_rel = float(np.max(fy / (1.0 + np.linalg.norm(x, axis=1) ** spec.p)))
    return AssumptionReport(spec, sample_count, seed, tuple(results), fy_rel)


# ---------------------------------------------------------------------------
# the structural inequalities, each one quotient num / den defined once
#
# A definition maps the spec and broadcastable stacks of planar points
# (..., 2) and weights tau (..., 1) to num and den, arrays of the tuples'
# broadcast shape.  Each constant is the sup of its quotient (p'-convexity's
# the reciprocal of one).  Per-tuple arithmetic runs on coordinates, as
# broadcast (..., 2) stacks run in length-2 inner loops, several times slower.


def _distance(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|y - z| of broadcastable planar points; cdist takes the outer pairs of
    stacks (h, 1, 2) and (w, 2).  np.hypot runs about 20x slower."""
    if y.ndim == 3 and y.shape[1] == 1 and z.ndim == 2:
        return cdist(y[:, 0], z)
    return np.sqrt(_metric(y - z, None)[1])


def _convexity(spec: CostSpec, x, y, tau, dual: bool = False):
    """tau (1-tau) V_e(x, y) over the gap tau f(x) + (1-tau) f(y) - f(tau x + (1-tau) y)
    of f = (z.Mz)^{e/2} / e: the cost (e = p, M = A) or, at the covectors
    grad c(x) and grad c(y), its conjugate (e = p', M = A^{-1}).  The mixed
    point's form is expanded in x.Mx, x.My and y.My."""
    e, m, f = spec.p, spec.matrix, cost_eval
    if dual:
        x, y = cost_grad(spec, x), cost_grad(spec, y)
        e, m, f = spec.p_prime, spec.inverse, dual_eval
    xm, qx = _metric(x, m)
    t = tau[..., 0]
    s = 1.0 - t
    # in place, three tile-sized arrays; gap holds (1-t)^2 y.My at first
    mix = 2.0 * t * s * (xm[..., 0] * y[..., 0] + xm[..., 1] * y[..., 1])
    mix += t * t * qx
    gap = s * s * _metric(y, m)[1]
    mix += gap
    np.power(np.maximum(mix, 0.0, out=mix), e / 2.0, out=mix)
    mix /= e
    np.multiply(s, f(spec, y), out=gap)
    gap += t * f(spec, x)
    gap -= mix
    # a negative gap is rounding dust or a failure; either way it reads 0
    return t * s * v_p(e, x, y), np.maximum(gap, 0.0, out=gap)


def _growth(spec: CostSpec, x):
    """max(c(x), |x|^p) over min(c(x), |x|^p): the two-sided p-growth of c."""
    c, r = cost_eval(spec, x), _norms(x) ** spec.p
    return np.maximum(c, r), np.minimum(c, r)


def _lipschitz(spec: CostSpec, x, y, dual: bool = False):
    """|c(x) - c(y)| over U_p(x, y), or |c*(xi) - c*(eta)| over U_{p'}(xi, eta)
    at the covectors xi = grad c(x) and eta = grad c(y)."""
    if dual:
        x, y = cost_grad(spec, x), cost_grad(spec, y)
        return np.abs(dual_eval(spec, x) - dual_eval(spec, y)), u_p(spec.p_prime, x, y)
    return np.abs(cost_eval(spec, x) - cost_eval(spec, y)), u_p(spec.p, x, y)


def _controlled(spec: CostSpec, x, y):
    """|grad c(x) - grad c(y)| over (|x| + |y|)^{p-2} |x - y|."""
    den = (_norms(x) + _norms(y)) ** (spec.p - 2.0) * _distance(x, y)
    return _distance(cost_grad(spec, x), cost_grad(spec, y)), den


def _vdifference(spec: CostSpec, x, y, z):
    """|V_p(x, y) - V_p(x, z)| over (|x| + |y| + |z|)^{p-1} |y - z|, a property of p alone."""
    den = _distance(y, z)
    w = _norms(x) + _norms(y) + _norms(z)
    den *= np.power(w, spec.p - 1.0, out=w)
    num = np.subtract(v_p(spec.p, x, y), v_p(spec.p, x, z), out=w)
    return np.abs(num, out=num), den


# in the report's order
_INEQUALITIES = {
    "elliptic": _convexity,
    "growth": _growth,
    "cgrowth": _lipschitz,
    "controlled": _controlled,
    "pprime_convex": functools.partial(_convexity, dual=True),
    "vdiff": _vdifference,
    "cgrowth_dual": functools.partial(_lipschitz, dual=True),
}


def _quotients(spec: CostSpec, kind: str, *tup) -> np.ndarray:
    """num / den of an inequality at the broadcast tuples tup, all >= 0.  One
    degenerate-tuple rule: den = 0 reads inf when num > 0 (the inequality
    fails there) and NaN, which the reductions skip, when num = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # numpy's default 8192 buffer made a grid block's outer products about
        # 4x slower (it buffers shorter broadcast rows); errstate restores it
        np.setbufsize(1024)
        num, den = _INEQUALITIES[kind](spec, *tup)
        return np.divide(num, den, out=num)


def _worst(spec: CostSpec, kind: str, *tup):
    """Sup of an inequality's quotient over the broadcast tuples tup, and its witness."""
    q = np.fmax(_quotients(spec, kind, *tup), 0.0)
    at = np.unravel_index(np.argmax(q), q.shape)
    return float(q[at]), tuple(np.broadcast_to(v, q.shape + v.shape[-1:])[at] for v in tup)


# Hoelder sweep: mean points per grid cell (8 ran fastest of 4-32 on
# 1.1k-node balls; a cell's points form leaves of at most 4 _LEAF),
# leaf pairs per slice, and point pairs per batch of leaf pairs
_LEAF = 8
_LEAF_PAIRS = 1 << 16
_PAIR_CHUNK = 1 << 16


def _cdist_norms(z: np.ndarray) -> np.ndarray:
    """Euclidean norms of the vectors z[:, ...] (one row per coordinate),
    with cdist's arithmetic: the square root of the in-order sum of squares."""
    s = z[0] * z[0]
    for row in z[1:]:
        s += row * row
    return np.sqrt(s)


def _holder_maxima(x: np.ndarray, fields, beta: float, min_sep: float):
    """max |f_i - f_j| / |x_i - x_j|^beta of each field over pairs min_sep > 0 apart.

    x is (n, d) and each field (n, k) with Euclidean differences, all
    finite; None when no pair is min_sep apart.  An exact branch and
    bound over leaf pairs: a uniform grid over the bounding box holds
    about _LEAF points a cell, cut into leaves of at most 4 _LEAF.  A
    leaf pair's bound is the largest distance between its field-value
    boxes over max(min_sep, gap between its point boxes)^beta.  In
    slices of _LEAF_PAIRS, each leaf pair a <= b evaluates one
    representative point pair, which raises the running maxima, and is
    dropped when its points all lie nearer than min_sep or (once a far
    pair was seen) its bound reaches no running maximum.  The rest are
    evaluated whole, highest bound over maximum first, and pruned again
    between batches of _PAIR_CHUNK / 16 point pairs, which double up to
    _PAIR_CHUNK while nothing prunes.  Each quotient is cdist's distance
    over the weight dist^beta, so the maxima are the same floats as an
    all-pairs sweep's.

    Memory, however little is pruned: O(n) for the leaves, and
    temporaries of at most _LEAF_PAIRS leaf pairs or _PAIR_CHUNK point
    pairs.
    """
    n, d = x.shape
    per = max(1, round((n / _LEAF) ** (1 / d)))
    base = x.min(axis=0)
    span = x.max(axis=0) - base
    # an axis of zero width puts every point in cell 0
    scale = np.divide(per, span, out=np.zeros(d), where=span > 0.0)
    cell = np.minimum(((x - base) * scale).astype(np.int64), per - 1) @ per ** np.arange(d)
    order = np.argsort(cell, kind="stable")
    _, offset = _enumerate(np.bincount(cell))
    lo = np.flatnonzero(offset % (4 * _LEAF) == 0)
    size = np.diff(np.append(lo, n))
    # one row per coordinate, then per field component; a block of pairs
    # broadcasts along the contiguous rows
    rows = np.vstack([x.T] + [f.T for f in fields])[:, order]
    cuts = np.cumsum([d] + [f.shape[1] for f in fields])
    field_rows = list(zip(cuts, cuts[1:]))
    # per-leaf boxes: row minima and maxima over each leaf's points
    low = np.minimum.reduceat(rows, lo, axis=1)
    high = np.maximum.reduceat(rows, lo, axis=1)
    best = np.zeros(len(fields))
    found = False

    def record(i, j):
        """Raise the maxima by the point pairs (i[k], j[k])."""
        nonlocal best, found
        z = rows.take(i, axis=1)
        z -= rows.take(j, axis=1)
        dist = _cdist_norms(z[:d])
        far = dist >= min_sep
        found = found or bool(far.any())
        # closer pairs get an infinite weight and quotient 0
        w = np.where(far, dist, np.inf) ** beta
        best = np.maximum(best, [np.max(_cdist_norms(z[c:e]) / w) for c, e in field_rows])

    def alive(bound):
        # the margin covers a few ulps of pow, which need not be monotone
        return np.any(bound * (1.0 + 1e-12) > best[:, None], axis=0) | (not found)

    # leaf pairs in row order: row a holds the m - a pairs (a, b >= a)
    m = len(lo)
    first = np.append(0, np.cumsum(np.arange(m, 1, -1)))
    for s in range(0, m * (m + 1) // 2, _LEAF_PAIRS):
        k = np.arange(s, min(s + _LEAF_PAIRS, m * (m + 1) // 2))
        a = np.searchsorted(first, k, side="right") - 1
        b = a + k - first[a]
        record(lo[a], lo[b] + size[b] - 1)
        reach = high.take(b, axis=1) - low.take(a, axis=1)
        np.maximum(reach, high.take(a, axis=1) - low.take(b, axis=1), out=reach)
        gap = np.maximum(low[:d].take(b, axis=1) - high[:d].take(a, axis=1),
                         low[:d].take(a, axis=1) - high[:d].take(b, axis=1))
        w = np.maximum(_cdist_norms(np.maximum(gap, 0.0)), min_sep) ** beta
        with np.errstate(over="ignore"):
            bound = np.array([_cdist_norms(reach[c:e]) / w for c, e in field_rows])
            keep = np.flatnonzero(alive(bound) & (_cdist_norms(reach[:d]) >= min_sep))
            ratio = bound[:, keep] / np.maximum(best, np.finfo(float).tiny)[:, None]
            rank = keep[np.argsort(-np.max(ratio, axis=0), kind="stable")]
        a, b, bound = a[rank], b[rank], bound[:, rank]
        chunk = _PAIR_CHUNK // 16
        while len(a):
            pairs = size[a] * size[b]
            j = max(1, int(np.searchsorted(np.cumsum(pairs), chunk, side="right")))
            r, t = _enumerate(pairs[:j])
            nb = size[b[r]]
            record(lo[a[r]] + t // nb, lo[b[r]] + t % nb)
            a, b, bound = a[j:], b[j:], bound[:, j:]
            keep = alive(bound)
            if keep.all():
                chunk = min(2 * chunk, _PAIR_CHUNK)
            a, b, bound = a[keep], b[keep], bound[:, keep]
    return [float(v) for v in best] if found else None


# tuples per block of a grid sweep: 1 MB float64 temporaries ran the
# vdiff and p'-convexity sweeps faster than 512 KB or 2 MB ones on a
# 2-core Xeon, and three or four of them stay under the 8 MB cold bound
_BLOCK = 1 << 17


def _tiles(a: int, b: int):
    """Slices (i, j) that cover an a x b table in blocks of at most _BLOCK entries."""
    h = min(a, math.isqrt(_BLOCK))
    w = _BLOCK // h
    return [(slice(i, i + h), slice(j, j + w)) for i in range(0, a, h) for j in range(0, b, w)]


def _grid_tuples(spec: CostSpec, which: str) -> list:
    """The grid's tuples of one inequality, in broadcast blocks of at most _BLOCK.
    Scale invariance lets it fix |x| = 1 (17 directions if anisotropic) and
    sweep the partner over a log-radius polar grid; the convexity gaps take
    57 weights tau, and vdiff pairs every 7th grid point with every one."""
    th = np.linspace(0.0, 2.0 * np.pi, 97, endpoint=False)[:, None]
    rr = np.concatenate([np.geomspace(1e-3, 1e3, 121), [1.0]])
    grid = np.stack([np.cos(th) * rr, np.sin(th) * rr], -1).reshape(-1, 2)
    if which == "growth":
        return [(grid,)]
    if which == "vdiff":
        rows = grid[::7, None]
        return [(_I2[0], rows[i], grid[j]) for i, j in _tiles(len(rows), len(grid))]
    angles = np.linspace(0.0, np.pi, 1 if spec.matrix is None else 17)
    dirs = np.stack([np.cos(angles), np.sin(angles)], -1)
    if which in ("elliptic", "pprime_convex"):
        tau = np.linspace(0.01, 0.99, 57)[:, None, None]
        return [(x, grid[j], tau) for x in dirs for _, j in _tiles(len(tau), len(grid))]
    return [(dirs[i, None], grid[j]) for i, j in _tiles(len(dirs), len(grid))]


def _grid_sup(spec: CostSpec, which: str) -> float:
    """Sup of an inequality's quotient over the grid's tuples."""
    sup = q = 0.0
    for t in _grid_tuples(spec, which):
        # rebinding q frees a block's quotients only once the next block's
        # exist; with num allocated last in each definition, the heap then
        # does not shrink and regrow (a page fault per 4 KB) between blocks
        q = _quotients(spec, which, *t)
        sup = max(sup, float(np.fmax.reduce(q, axis=None)))
    return sup


@functools.cache
def _grid_constant(spec: CostSpec, which: str) -> float:
    """Deterministic coarse-grid estimate of a structural constant, for the
    certified defaults and verify_assumptions' references: the inequality's
    definition in ``_INEQUALITIES`` on the tuples of ``_grid_tuples``.
    ``vdiff`` reads p alone: every spec of one p shares ``CostSpec(p)``'s entry."""
    if which == "vdiff" and spec != CostSpec(spec.p):
        return _grid_constant(CostSpec(spec.p), which)
    sup = _grid_sup(spec, which)
    # p'-convexity's constant is the inf of the reciprocal quotient
    return 1.0 / sup if which == "pprime_convex" else sup
