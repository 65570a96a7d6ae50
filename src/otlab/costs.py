"""Strongly p-convex cost families and their convex duality.

Two planar families are implemented, both of the form

    c(z) = (z . A z)^{p/2} / p

with A = I (radial, c(z) = |z|^p / p) or A a symmetric positive definite
2 x 2 matrix (anisotropic).  The family enters only through A: every
kernel is one formula in the metric M, with M = A on points and
M = A^{-1} on covectors, and M = I radially.  This module is the only
one that reads the family.

The module provides c, its gradient, the Legendre conjugate c* with
gradient (∇c)^{-1} and the Hessian of its shifted density, the
comparison quantities

    V_p(x, y) = (|x|^2 + |y|^2)^{(p-2)/2} |x - y|^2
    U_p(x, y) = (|x| + |y|)^{p-1} |x - y|

and a sampling checker for the structural inequalities a cost must
satisfy to enter the linearization pipeline: strong p-convexity with
constant Lambda, two-sided p-growth, U_p-Lipschitz bounds, controlled
gradient growth, p'-convexity of the conjugate, and the V-difference
bound.  Constants are certified by deterministic coarse grids and then
stress-tested by random sampling.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

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
    worst = max(
        _grid_constant(spec, "elliptic"),
        _grid_constant(spec, "growth"),
        _grid_constant(spec, "cgrowth"),
        _grid_constant(spec, "controlled"),
    )
    return 1.1 * worst


def _as_points(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite input")
    return z


def _metric(z: np.ndarray, m: Optional[np.ndarray]):
    """(z M, z . M z) along the last axis; M = I, and z itself, when m is None."""
    if m is None:
        return z, np.einsum("...i,...i->...", z, z)
    # z @ m raises ValueError on points that are not planar; the quadratic
    # form is unrolled, bit-identical to np.sum(zm * z, axis=-1) at about an
    # eighth of its cost
    zm = z @ m
    return zm, zm[..., 0] * z[..., 0] + zm[..., 1] * z[..., 1]


def cost_eval(spec: CostSpec, z) -> float | np.ndarray:
    """Evaluate c(z).  Accepts a single d-vector or a stack (n, d)."""
    z = _as_points(z)
    return _metric(z, spec.matrix)[1] ** (spec.p / 2.0) / spec.p


def cost_grad(spec: CostSpec, z) -> np.ndarray:
    """Evaluate the cost gradient (z . A z)^{(p-2)/2} A z.

    For p < 2 the gradient extends continuously by 0 at the origin.
    """
    az, q = _metric(_as_points(z), spec.matrix)
    # guard 0^{negative power}; the q=0 rows are zeroed below anyway
    w = np.where(q > 0.0, q, 1.0) ** ((spec.p - 2.0) / 2.0)
    w = np.where(q > 0.0, w, 0.0)
    return w[..., None] * az


def dual_eval(spec: CostSpec, xi) -> float | np.ndarray:
    """Legendre conjugate c*(xi) = sup_x <xi, x> - c(x).

    Closed form (1/p') (xi . B xi)^{p'/2} with B = A^{-1} (Rockafellar,
    Convex Analysis, section 12).
    """
    m = _metric(_as_points(xi), spec.inverse)[1]
    return np.sqrt(m) ** spec.p_prime / spec.p_prime


def dual_grad(spec: CostSpec, xi) -> np.ndarray:
    """Gradient of the conjugate, the inverse map of cost_grad.

    Closed form (xi . B xi)^{(p'-2)/2} B xi with B = A^{-1}, and 0 at
    xi = 0.
    """
    bxi, m = _metric(_as_points(xi), spec.inverse)
    n = np.sqrt(m)
    w = np.where(n > 0.0, n, 1.0) ** (spec.p_prime - 2.0)
    w = np.where(n > 0.0, w, 0.0)
    return w[..., None] * bxi


def _dual_hessian(spec: CostSpec, xi: np.ndarray, delta: float) -> np.ndarray:
    """Hessian blocks, shape (n, 2, 2), of the delta-shifted conjugate
    density (xi . B xi + delta^2)^{p'/2} / p' at covectors xi of shape (n, 2):

        (m + delta^2)^{(p'-2)/2} (B + (p'-2) B xi xi^T B / (m + delta^2))

    with m = xi . B xi and B = A^{-1}.
    """
    q = spec.p_prime
    bxi, m = _metric(xi, spec.inverse)
    nr2 = m + delta * delta
    outer = bxi[:, :, None] * bxi[:, None, :] / nr2[:, None, None]
    b = _I2 if spec.inverse is None else spec.inverse
    return (nr2 ** ((q - 2.0) / 2.0))[:, None, None] * (b[None] + (q - 2.0) * outer)


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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "worst_constant": self.worst_constant,
            "reference": self.reference,
            "pass": self.passed,
            "witness": [list(np.atleast_1d(w)) for w in self.witness],
        }


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

    def result(self, name: str) -> InequalityResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "sample_count": self.sample_count,
            "seed": self.seed,
            "certified_lambda": self.spec.lambda_cap,
            "fenchel_young_defect": self.fenchel_young_defect,
            "pass": self.passed,
            "inequalities": [r.to_dict() for r in self.results],
        }


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


def _pairwise_worst(num: np.ndarray, den: np.ndarray, x: np.ndarray, y: np.ndarray,
                    extra=None):
    """Sup of num/den with the attaining sample; den=0, num>0 counts as inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                         np.where(num > 1e-14, np.inf, 0.0))
    i = int(np.argmax(ratio))
    wit = (x[i], y[i]) if extra is None else (x[i], y[i], extra[i])
    return float(ratio[i]), wit


def verify_assumptions(spec: CostSpec, sample_count: int, seed: int) -> AssumptionReport:
    """Stress-test the structural cost inequalities by sampling.

    Draws point pairs with log-uniform radii and interpolation weights
    tau, evaluates the worst observed constant of each inequality, and
    compares against the spec's Lambda certificate (for the four primal
    assumptions) or a grid-derived reference constant (for the derived
    dual-side inequalities).  The report stores worst witnesses for
    reproducibility and never raises on failure.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    x = _sample_points(sample_count, rng)
    y = _sample_points(sample_count, rng)
    # aligned pairs stress the degenerate directions of the convexity gap
    n_aligned = max(1, sample_count // 16)
    y[:n_aligned] = x[:n_aligned] * 10.0 ** rng.uniform(-1.0, 1.0, size=(n_aligned, 1))
    tau = rng.uniform(0.0, 1.0, size=sample_count)

    lam = spec.lambda_cap
    slack = 1.0 + 1e-9
    results = []

    cx, cy = cost_eval(spec, x), cost_eval(spec, y)
    nx, ny = np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1)

    # strong p-convexity: Lambda^{-1} tau(1-tau) V_p <= tau c(x) + (1-tau) c(y) - c(mix)
    gap = tau * cx + (1.0 - tau) * cy - cost_eval(spec, tau[:, None] * x + (1.0 - tau[:, None]) * y)
    vv = tau * (1.0 - tau) * v_p(spec.p, x, y)
    # the gap is a difference of near-equal values; ignore numerator float
    # dust below the cancellation noise floor so coincident pairs read 0/0
    vv = np.where(vv > 1e-11 * (1.0 + cx + cy), vv, 0.0)
    worst, wit = _pairwise_worst(vv, np.maximum(gap, 0.0), x, y, tau)
    results.append(InequalityResult("elliptic", worst, lam, worst <= lam * slack, wit))

    # two-sided p-growth of c against |z|^p
    znz = nx > 0.0
    up = np.where(znz, cx / np.where(znz, nx ** spec.p, 1.0), 0.0)
    lo = np.where(znz, nx ** spec.p / np.where(cx > 0.0, cx, 1.0), 0.0)
    w2 = float(np.maximum(up, lo).max())
    i2 = int(np.argmax(np.maximum(up, lo)))
    results.append(InequalityResult("growth", w2, lam, w2 <= lam * slack, (x[i2],)))

    # |c(x) - c(y)| <= Lambda U_p
    worst, wit = _pairwise_worst(np.abs(cx - cy), u_p(spec.p, x, y), x, y)
    results.append(InequalityResult("cgrowth", worst, lam, worst <= lam * slack, wit))

    # |grad c(x) - grad c(y)| <= Lambda (|x|+|y|)^{p-2} |x-y|
    dg = np.linalg.norm(cost_grad(spec, x) - cost_grad(spec, y), axis=1)
    s = nx + ny
    den = np.where(s > 0.0, s, 1.0) ** (spec.p - 2.0) * np.linalg.norm(x - y, axis=1)
    den = np.where(s > 0.0, den, 0.0)
    worst, wit = _pairwise_worst(dg, den, x, y)
    results.append(InequalityResult("controlled_growth", worst, lam, worst <= lam * slack, wit))

    # p'-convexity of the conjugate: a lower constant, compared against a
    # grid-derived reference (sampled minimum can only sit above the true inf)
    xi1, xi2 = cost_grad(spec, x), cost_grad(spec, y)
    d1, d2 = dual_eval(spec, xi1), dual_eval(spec, xi2)
    dgap = tau * d1 + (1.0 - tau) * d2 - dual_eval(spec, tau[:, None] * xi1 + (1.0 - tau[:, None]) * xi2)
    vpp = v_p(spec.p_prime, xi1, xi2)
    m = vpp > 1e-290
    quot = np.where(m, dgap / np.where(m, tau * (1.0 - tau) * vpp, 1.0), np.inf)
    i5 = int(np.argmin(quot))
    cobs = float(quot[i5])
    ref = _grid_constant(spec, "pprime_convex")
    results.append(InequalityResult("pprime_convex", cobs, ref,
                                    cobs >= 0.8 * ref and cobs > 0.0, (xi1[i5], xi2[i5], tau[i5])))

    # V-difference bound, a (p, d) property: |V(z1,z2) - V(z1,z3)| against
    # (|z1|+|z2|+|z3|)^{p-1} |z2-z3|
    z3 = np.roll(y, 1, axis=0)
    num = np.abs(v_p(spec.p, x, y) - v_p(spec.p, x, z3))
    den = (nx + ny + np.linalg.norm(z3, axis=1)) ** (spec.p - 1.0) * np.linalg.norm(y - z3, axis=1)
    worst, wit = _pairwise_worst(num, den, x, y, z3)
    vref = _grid_constant(spec, "vdiff")
    results.append(InequalityResult("vdiff", worst, vref, worst <= 1.2 * vref, wit))

    # conjugate Lipschitz bound in U_{p'}, recorded for the dual estimates
    worst, wit = _pairwise_worst(np.abs(d1 - d2), u_p(spec.p_prime, xi1, xi2), xi1, xi2)
    uref = _grid_constant(spec, "cgrowth_dual")
    results.append(InequalityResult("cgrowth_dual", worst, uref, worst <= 1.2 * uref, wit))

    # Fenchel-Young defect at the contact covector xi = grad c(x)
    fy = np.abs(cx + dual_eval(spec, xi1) - np.sum(xi1 * x, axis=1))
    fy_rel = float(np.max(fy / (1.0 + nx ** spec.p)))

    return AssumptionReport(spec, sample_count, seed, tuple(results), fy_rel)


# row x grid entries per block of a grid sweep; a 512 KB float64
# temporary stays in cache (4 MB blocks ran about 1.4x slower on a 2-core
# Xeon for a row sweep over 1.1k x 1.1k pairs)
_BLOCK = 1 << 16


def _spans(n: int, width: int, stride: int = 1):
    """Slices of every stride-th row below n, as many rows of ``width`` as fit a block."""
    step = stride * max(1, _BLOCK // width)
    return (slice(i, i + step, stride) for i in range(0, n, step))


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


def _enumerate(count: np.ndarray):
    """(group, offset within the group) of every item, in order, when
    group g holds count[g] items."""
    group = np.repeat(np.arange(len(count)), count)
    return group, np.arange(len(group)) - (np.cumsum(count) - count)[group]


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


def _tau_gaps(e: float, fx, fg, qx, qxg, qg, tau: np.ndarray) -> np.ndarray:
    """Gaps t f(x) + (1-t) f(g) - f(t x + (1-t) g) of f(z) = (z.Mz)^{e/2}/e.

    One row per t in tau; the mixed form is expanded in x.Mx, x.Mg, g.Mg.
    """
    t = tau[:, None]
    q = t * t * qx + 2.0 * t * (1.0 - t) * qxg + (1.0 - t) ** 2 * qg
    return t * fx + (1.0 - t) * fg - np.maximum(q, 0.0) ** (e / 2.0) / e


def _polar_grid() -> tuple[np.ndarray, np.ndarray]:
    """Partner points of the grid sweeps, a log-radius polar grid, and their norms."""
    th = np.linspace(0.0, 2.0 * np.pi, 97, endpoint=False)[:, None]
    rr = np.concatenate([np.geomspace(1e-3, 1e3, 121), [1.0]])
    grid = np.stack([np.cos(th) * rr, np.sin(th) * rr], -1).reshape(-1, 2)
    return grid, np.linalg.norm(grid, axis=1)


@functools.cache
def _vdiff(p: float) -> float:
    """Grid estimate of the V-difference constant, which reads p alone."""
    grid, ng = _polar_grid()
    v1 = v_p(p, _I2[0], grid)
    worst = 0.0
    for s in _spans(len(grid), len(grid), 7):
        num = np.abs(v1[s, None] - v1)
        den = (1.0 + ng[s, None] + ng) ** (p - 1.0) * cdist(grid[s], grid)
        mm = den > 0.0
        worst = max(worst, float((num[mm] / den[mm]).max()))
    return worst


@functools.cache
def _grid_constant(spec: CostSpec, which: str) -> float:
    """Deterministic coarse-grid estimate of a structural constant.

    Shared by the certified defaults and the derived reference values in
    verify_assumptions.  Scale invariance of every inequality lets the
    grid fix |x| = 1 and sweep the partner point over a log-radius polar
    grid; anisotropic specs additionally sweep the base direction.  Sweeps
    run in blocks of ``_BLOCK`` entries; ``vdiff`` comes from ``_vdiff``.
    """
    if which == "vdiff":
        return _vdiff(spec.p)
    grid, ng = _polar_grid()
    tau = np.linspace(0.01, 0.99, 57)
    base_dirs = [_I2[0]] if spec.matrix is None else [
        np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0.0, np.pi, 17)
    ]
    # dual-side constants act on the covectors of the base and grid points
    dual = which in ("pprime_convex", "cgrowth_dual")
    e, f = (spec.p_prime, dual_eval) if dual else (spec.p, cost_eval)
    gg = cost_grad(spec, grid)
    g = gg if dual else grid
    xs = [cost_grad(spec, bd) if dual else bd for bd in base_dirs]
    fg = f(spec, g)

    worst = np.inf if which == "pprime_convex" else 0.0
    if which in ("elliptic", "pprime_convex"):
        # the convexity gaps sweep all tau at once in the metric M of f
        m = spec.inverse if dual else spec.matrix
        gm, qg = _metric(g, m)
        w = tau[:, None] * (1.0 - tau[:, None])
        for x in xs:
            vv = v_p(e, x, g)
            k = vv > 1e-290
            vk, fgk, qxg, qgk = vv[k], fg[k], gm[k] @ x, qg[k]
            qx = _metric(x, m)[1]
            for c in _spans(len(vk), len(tau)):
                gp = _tau_gaps(e, f(spec, x), fgk[c], qx, qxg[c], qgk[c], tau)
                if dual:
                    worst = min(worst, float((gp / (w * vk[c])).min()))
                elif (mm := gp > 1e-290).any():
                    worst = max(worst, float(((w * vk[c])[mm] / gp[mm]).max()))
    elif which == "growth":
        mm = ng > 0.0
        worst = max(float((fg[mm] / ng[mm] ** spec.p).max()),
                    float((ng[mm] ** spec.p / fg[mm]).max()))
    elif which in ("cgrowth", "cgrowth_dual"):
        for x in xs:
            den = u_p(e, x, g)
            mm = den > 0.0
            worst = max(worst, float((np.abs(f(spec, x) - fg)[mm] / den[mm]).max()))
    elif which == "controlled":
        for bd in base_dirs:
            dgn = np.linalg.norm(cost_grad(spec, bd) - gg, axis=1)
            den = (1.0 + ng) ** (spec.p - 2.0) * np.linalg.norm(bd - grid, axis=1)
            mm = den > 0.0
            worst = max(worst, float((dgn[mm] / den[mm]).max()))
    else:
        raise ValueError(which)
    return worst
