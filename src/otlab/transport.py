"""Exact discrete optimal transport and the smallness quantities built on it.

The engine solves min <C, gamma> over couplings of two weighted atom
clouds as a linear program and certifies optimality through the dual.
`solve_exact` is the one LP kernel: it solves the LP on a sparse support
grown by pricing rounds (column generation), keeping one HiGHS model per
LP whose basis warm-starts each round after the round's priced columns
are added, certifies the result against the full cost matrix, and caches
recent plans, so an LP posed again (the auxiliary plans onto uniform
densities, D(4) from several checks) is solved once.  HiGHS, and with it
scipy.optimize, is loaded on the first LP, not on import, so code that
poses no LP (the Neumann layer, the cost checks) never loads it.
On top of the solver sit the quantities steering the linearization
study: the localized transport energy E(R), the data term D(R)
comparing each marginal with its own uniform density, a triangle-type
inequality with an explicit constant, cyclical monotonicity sampling,
and the measure-comparison checks used by the lemma suite.

Conventions: couplings are lists of (source index, target index, mass)
with strictly positive masses; W_c(a, b) denotes the optimal cost; all
checks return report objects and never raise on a failed inequality.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import Callable, Optional, Sequence

import numpy as np

from .costs import CostSpec, _holder_maxima, cost_eval
from .measures import Ball, DiscreteMeasure, lebesgue_quadrature, restrict

__all__ = [
    "LPRecord",
    "TransportPlan",
    "SmallnessReport",
    "solve_exact",
    "transport_cost",
    "check_cyclical_monotonicity",
    "energy_E",
    "data_D",
    "compute_smallness",
    "triangle_check",
    "triangle_constant",
    "add_constant_check",
    "c2measures_check",
    "localisation_check",
    "data_restriction_check",
]

# an LP's one n x m array is its float64 cost matrix; a call whose matrix
# would pass this budget is refused before anything is allocated (3,000 x
# 3,000 atoms take 72 MB)
_MATRIX_BUDGET_BYTES = 128 * 2 ** 20
# the matrix is filled, seeded and priced in blocks of whole rows (or, for
# the seed's column lanes, whole columns) of at most this many entries; a
# row longer than this is a block of its own
_BLOCK_ENTRIES = 2 ** 13

_MARGINAL_RTOL = 1e-10

# each atom starts with this many of its cheapest partners in the support,
# a shortlist (Gottschlich-Schuhmacher 2014); on held-out matching LPs (600
# uniform atoms on B_4 against its polar quadrature, p = 3, 12 draws) the
# solves fell from 68 at 5 to 26 at 10, 20 at 12 and 12 at 16, while the
# time was flat from 8 to 16
_SEED_NEIGHBOURS = 12
# restricted solves before the kernel gives up; measured inputs price out
# within 7 (benchmark pools) to 16 (shifted polar quadratures against each
# other, whose equal weights tie many costs)
_MAX_PRICING_ROUNDS = 100

# HiGHS's incremental interface: columns added to a solved model keep its
# basis, and the next run starts from it; the model class `_Highs`, its
# optimal status `_OPTIMAL` and `optimize` itself are bound on the first LP
# (see `_load_highs`), so importing the package does not load scipy.optimize
_HIGHS_NAMES = ("optimize", "_Highs", "_OPTIMAL")
_HIGHS_OPTIONS = {
    "output_flag": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "simplex_strategy": 1,  # dual simplex for the cold solve
    # devex dual pricing, not HiGHS's default dual steepest edge: on the 107
    # fresh LPs of scan instances 40-47 the iterations fell from 66,354 to
    # 53,979 and on chain instances 35-41 from 32,779 to 27,753, with equal
    # objectives; Dantzig pricing took fewer iterations but more time
    "simplex_dual_edge_weight_strategy": 1,
    # presolve removes nothing from a transportation LP: with it off the
    # simplex iterations are identical and only its own cost goes
    "presolve": "off",
}
# warm solves run the primal simplex: a kept basis stays primal feasible
# when columns join at zero, and the priced columns are exactly its dual
# infeasibilities (fewer iterations than either simplex throughout)
_WARM_SIMPLEX_STRATEGY = 4


@dataclasses.dataclass(frozen=True)
class LPRecord:
    """What the LP kernel did for a plan; a cached plan's is the solve that stored it.

    solves counts restricted solves (pricing rounds), iterations the
    simplex iterations summed over them, support the columns of the final
    restricted LP, and seconds the kernel's time including the cost
    matrix and the certificate.
    """

    solves: int
    iterations: int
    support: int
    seconds: float


@dataclasses.dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling of two discrete measures with certified bookkeeping.

    idx_source/idx_target/masses are parallel arrays of plan entries.
    total_cost is the plan's cost under the spec it was solved with;
    dual_gap records the optimality certificate (max dual infeasibility
    plus complementary slackness defect) when the plan came from the LP,
    and is nan for constructions that are optimal by other arguments.
    lp is the kernel's record for plans from `solve_exact`, else None.
    """

    source: DiscreteMeasure
    target: DiscreteMeasure
    idx_source: np.ndarray
    idx_target: np.ndarray
    masses: np.ndarray
    total_cost: float = math.nan
    dual_gap: float = math.nan
    lp: Optional[LPRecord] = None

    def __post_init__(self):
        i = np.asarray(self.idx_source, dtype=int).ravel()
        j = np.asarray(self.idx_target, dtype=int).ravel()
        m = np.asarray(self.masses, dtype=float).ravel()
        if not (len(i) == len(j) == len(m)):
            raise ValueError("entry arrays must be parallel")
        if np.any(m <= 0.0):
            raise ValueError("entry masses must be strictly positive")
        object.__setattr__(self, "idx_source", i)
        object.__setattr__(self, "idx_target", j)
        object.__setattr__(self, "masses", m)
        row = np.bincount(i, weights=m, minlength=self.source.n_atoms)
        col = np.bincount(j, weights=m, minlength=self.target.n_atoms)
        scale = max(self.source.weights.max(initial=0.0), 1e-300)
        if np.abs(row - self.source.weights).max(initial=0.0) > _MARGINAL_RTOL * scale * self.source.n_atoms:
            raise ValueError("source marginal violated")
        if np.abs(col - self.target.weights).max(initial=0.0) > _MARGINAL_RTOL * scale * self.target.n_atoms:
            raise ValueError("target marginal violated")

    @property
    def n_entries(self) -> int:
        return len(self.masses)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Support points (x_k, y_k) of the plan entries."""
        return self.source.points[self.idx_source], self.target.points[self.idx_target]

    def anchored_in(self, radius: float) -> np.ndarray:
        """Entry mask: source or target in the open ball B_radius."""
        ball = Ball.at_origin(radius)
        x, y = self.pairs()
        return ball.contains(x) | ball.contains(y)


@dataclasses.dataclass(frozen=True)
class SmallnessReport:
    E_values: dict
    D_values: dict

    def __post_init__(self):
        vals = list(self.E_values.values()) + list(self.D_values.values())
        if any(v < 0 for v in vals):
            raise ValueError("smallness quantities are non-negative")

    def total(self, radius: float) -> float:
        return self.E_values[radius] + self.D_values[radius]


def _check_balanced(lam: DiscreteMeasure, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Check |lam| = |mu| to 1e-9 relative; return mu rescaled exactly."""
    ml, mm = lam.total_mass, mu.total_mass
    if ml <= 0 or mm <= 0:
        raise ValueError("measures must have positive mass")
    if abs(ml - mm) > 1e-9 * max(ml, mm):
        raise ValueError(f"mass mismatch: {ml} vs {mm}")
    return mu.with_mass(ml)


def _lanes(n: int, m: int) -> list:
    """Slices cutting n lanes of length m into blocks of at most _BLOCK_ENTRIES entries.

    A lane longer than that is a block of its own.
    """
    step = max(1, _BLOCK_ENTRIES // m)
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


def _cost_matrix(lam: DiscreteMeasure, mu: DiscreteMeasure, spec: CostSpec) -> np.ndarray:
    """The n x m cost matrix, each row block through `cost_eval` on its own difference stack."""
    n, m = lam.n_atoms, mu.n_atoms
    if 8 * n * m > _MATRIX_BUDGET_BYTES:
        raise ValueError(f"cost matrix {n}x{m} needs {8 * n * m} bytes, "
                         f"past the budget of {_MATRIX_BUDGET_BYTES} bytes")
    cmat = np.empty((n, m))
    # one coordinate at a time: the broadcast (rows, m, 2) difference runs
    # length-2 inner loops, about 4x slower at 150 x 180 atoms
    for rows in _lanes(n, m):
        z = np.empty((rows.stop - rows.start, m, 2))
        for c in range(2):
            np.subtract.outer(lam.points[rows, c], mu.points[:, c], out=z[..., c])
        cmat[rows] = cost_eval(spec, z)
    return cmat


def _seed_cells(cmat: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted flat cells: the cheapest partners of every row and column, and the staircase.

    Rows take their partners from row blocks and columns from column
    blocks of cmat, so no (n, m) index array is formed.
    """
    n, m = cmat.shape
    kr, kc = min(_SEED_NEIGHBOURS, m), min(_SEED_NEIGHBOURS, n)
    nw_i, nw_j = _north_west_corner(a, b)
    parts = [nw_i * m + nw_j]
    for rows in _lanes(n, m):
        near_j = np.argpartition(cmat[rows], kr - 1, axis=1)[:, :kr]
        parts.append((np.arange(rows.start, rows.stop)[:, None] * m + near_j).ravel())
    for cols in _lanes(m, n):
        near_i = np.argpartition(cmat[:, cols], kc - 1, axis=0)[:kc, :]
        parts.append((near_i * m + np.arange(cols.start, cols.stop)).ravel())
    return np.unique(np.concatenate(parts))


def _price(cmat: np.ndarray, u: np.ndarray, v: np.ndarray, cells: np.ndarray) -> tuple:
    """Most violated cell of each row and each column off the support, in row blocks.

    The slack C - u - v is formed one row block at a time with the
    support's cells at inf.  Returns (best_j, row_min, best_i, col_min):
    each row's argmin and its slack, and each column's first argmin over
    the rows, as `argmin(axis=0)` would pick it, and its slack.
    """
    n, m = cmat.shape
    taken = np.sort(cells)
    best_j, row_min = np.empty(n, dtype=int), np.empty(n)
    best_i, col_min = np.zeros(m, dtype=int), np.full(m, np.inf)
    for rows in _lanes(n, m):
        first = rows.start
        slack = cmat[rows] - u[rows, None]
        slack -= v
        lo, hi = np.searchsorted(taken, (first * m, rows.stop * m))
        slack.ravel()[taken[lo:hi] - first * m] = np.inf
        j = slack.argmin(axis=1)
        best_j[rows], row_min[rows] = j, slack[np.arange(len(j)), j]
        i = slack.argmin(axis=0)
        low = slack[i, np.arange(m)]
        # strict: an earlier block keeps the column on ties
        better = low < col_min
        best_i[better], col_min[better] = first + i[better], low[better]
    return best_j, row_min, best_i, col_min


def _identical(lam: DiscreteMeasure, mu: DiscreteMeasure) -> bool:
    # float-resolution agreement, not bitwise: nested quadratures built at
    # different reference radii coincide only up to an ulp, and the identity
    # coupling's true cost (~ mass * c(1e-16)) is below every tolerance used
    # anywhere in the lab, so it is reported as exactly zero
    if lam.n_atoms != mu.n_atoms or lam.n_atoms == 0:
        return lam.n_atoms == mu.n_atoms
    scale = 1.0 + float(np.abs(lam.points).max())
    return (np.allclose(lam.points, mu.points, rtol=0.0, atol=1e-12 * scale)
            and np.allclose(lam.weights, mu.weights, rtol=1e-12, atol=0.0))


def _north_west_corner(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells of the north-west-corner staircase for marginals a and b.

    The n + m - 1 cells visit every row and column, and the staircase
    carries a non-negative coupling, so any support holding it keeps
    the restricted LP feasible.
    """
    n, m = len(a), len(b)
    i = j = 0
    left_a, left_b = a[0], b[0]
    cells = [(0, 0)]
    while i < n - 1 or j < m - 1:
        if j == m - 1 or (i < n - 1 and left_a <= left_b):
            left_b -= left_a
            i += 1
            left_a = a[i]
        else:
            left_a -= left_b
            j += 1
            left_b = b[j]
        cells.append((i, j))
    return tuple(np.array(cells).T)


def _add_columns(model, cmat: np.ndarray, cells: np.ndarray) -> None:
    """Append the cells (flat indices into cmat) as columns x >= 0 of the model.

    Cell (i, j) has a unit entry in source row i and in target row n + j;
    the last target row is the equality dropped for rank, so cells of the
    last column carry one entry.
    """
    n, m = cmat.shape
    rows, cols = np.divmod(cells, m)
    index = np.stack([rows, n + cols], axis=1).ravel()
    index = index[index < n + m - 1].astype(np.int32)
    counts = 1 + (cols < m - 1)
    starts = (np.cumsum(counts) - counts).astype(np.int32)
    k = len(cells)
    model.addCols(k, cmat.ravel()[cells], np.zeros(k), np.full(k, np.inf), len(index),
                  starts, index, np.ones(len(index)))


def _load_highs() -> None:
    """Bind scipy.optimize, the HiGHS model class and its optimal status
    into this module, keeping any of the three already bound (patched)."""
    from scipy import optimize

    core = optimize._highspy._core
    names = globals()
    names.setdefault("optimize", optimize)
    names.setdefault("_Highs", core._Highs)
    names.setdefault("_OPTIMAL", core.HighsModelStatus.kOptimal)


def __getattr__(name: str):
    # PEP 562: the HiGHS names resolve for readers before the first LP
    if name in _HIGHS_NAMES:
        _load_highs()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _solve_lp(lam: DiscreteMeasure, mu: DiscreteMeasure, spec: CostSpec) -> tuple:
    """Certified optimum by column generation: (i, j, masses, cost, gap, LPRecord)."""
    _load_highs()
    t0 = time.perf_counter()
    cmat = _cost_matrix(lam, mu, spec)
    n, m = cmat.shape
    # costs are non-negative, so the largest one is the largest magnitude
    scale = max(float(cmat.max()), 1.0)

    # the support is a cell list: flat indices i * m + j, sorted in the seed
    # and then extended in the order the cells joined
    cells = _seed_cells(cmat, lam.weights, mu.weights)

    model = _Highs()
    for option, value in _HIGHS_OPTIONS.items():
        model.setOptionValue(option, value)
    b_eq = np.concatenate([lam.weights, mu.weights])[:-1]
    model.addRows(len(b_eq), b_eq, b_eq, 0, np.zeros(len(b_eq), np.int32),
                  np.zeros(0, np.int32), np.zeros(0))
    tol = -1e-10 * scale
    new = cells
    iterations = 0
    for solves in range(1, _MAX_PRICING_ROUNDS + 1):
        _add_columns(model, cmat, new)
        model.run()
        status = model.getModelStatus()
        if status != _OPTIMAL:
            raise ArithmeticError(f"transport LP failed: {model.modelStatusToString(status)}")
        info, solution = model.getInfo(), model.getSolution()
        iterations += info.simplex_iteration_count
        model.setOptionValue("simplex_strategy", _WARM_SIMPLEX_STRATEGY)
        u, v = np.split(np.append(solution.row_dual, 0.0), [n])
        # price outside the support: the most violated entry of each row
        # and of each column joins it
        best_j, row_min, best_i, col_min = _price(cmat, u, v, cells)
        rows = np.flatnonzero(row_min < tol)
        cols = np.flatnonzero(col_min < tol)
        if len(rows) == 0 and len(cols) == 0:
            break
        new = np.unique(np.concatenate([rows * m + best_j[rows], best_i[cols] * m + cols]))
        cells = np.concatenate([cells, new])
    else:
        raise ArithmeticError(
            f"transport LP not priced out after {_MAX_PRICING_ROUNDS} rounds")

    # certificate against the full matrix: u_i + v_j <= C_ij everywhere,
    # equality wherever the plan carries mass; the last round's row minima
    # cover every cell off the support, and `on` holds the support's own
    # slacks (C - u) - v in cell order
    on = cmat.ravel()[cells]
    on -= u[cells // m]
    on -= v[cells % m]
    x = np.asarray(solution.col_value)
    dual_infeas = max(0.0, float(-min(row_min.min(), on.min())))
    carried = x > 1e-12 * max(lam.weights.max(), 1e-300)
    # entries in row-major order, whenever their columns joined
    order = np.argsort(cells[carried])
    i, j = np.divmod(cells[carried][order], m)
    comp_defect = float(np.abs(on[carried]).max()) if carried.any() else 0.0
    gap = dual_infeas + comp_defect
    if gap > 1e-9 * scale:
        raise ArithmeticError(f"optimality certificate failed: gap {gap:.3e}")
    record = LPRecord(solves, iterations, len(cells), time.perf_counter() - t0)
    return i, j, x[carried][order], info.objective_function_value, gap, record


@functools.lru_cache(maxsize=32)
def _certified_plan(lam_shape: tuple, lam_points: bytes, lam_weights: bytes,
                    mu_shape: tuple, mu_points: bytes, mu_weights: bytes, spec: CostSpec) -> tuple:
    """`_solve_lp` on the clouds rebuilt from the bytes and shapes that key the cache."""
    lam = DiscreteMeasure(np.frombuffer(lam_points).reshape(lam_shape), np.frombuffer(lam_weights))
    mu = DiscreteMeasure(np.frombuffer(mu_points).reshape(mu_shape), np.frombuffer(mu_weights))
    return _solve_lp(lam, mu, spec)


def solve_exact(lam: DiscreteMeasure, mu: DiscreteMeasure, spec: CostSpec) -> TransportPlan:
    """Optimal coupling between lam and mu for the cost spec, via LP.

    The LP over the transportation polytope (n + m marginal equalities,
    one dropped for rank) is solved on a sparse support by column
    generation in one HiGHS model; the first call in a process imports
    scipy.optimize for it.  The model's rows are the n + m - 1
    equalities and its columns the support, a sorted list of flat cell
    indices that starts from the 12 cheapest partners of every atom on
    either side plus the north-west-corner staircase, so the restricted
    LP is feasible.  The first solve runs the dual simplex with devex
    pricing and without presolve at tightened feasibility tolerances,
    and most measured LPs price out there; each pricing round then
    forms the slack C - u - v under the model's duals one row block at
    a time, appends the most violated entry off the support of every
    row and column to the cell list as new columns (a column's first
    row on ties), and re-solves with the primal simplex from the basis
    the model kept.
    Every step is deterministic for a fixed instance.  Rounds stop once
    no slack is below -1e-10 of the cost scale, and a solve that is not
    priced out within a fixed round limit raises ArithmeticError, as
    does a restricted solve that HiGHS does not report optimal.  The
    plan is certified against the final duals over every cell: the last
    round's row minima off the support and the support's own slacks
    give u_i + v_j <= C_ij everywhere and equality on the support, to
    1e-9 of the cost scale, or the call raises; the certificate residual
    is stored on the plan as dual_gap, and the plan's `lp` record holds
    the restricted solves, simplex iterations, final support size and
    seconds.

    The float64 cost matrix is the kernel's one n x m array.  It is
    filled in row blocks of at most 2^13 entries, each through
    `cost_eval`; the seed (row blocks for rows, column blocks for
    columns) and the pricing rounds read it in blocks too, and the
    certificate per support cell, so the rest of the kernel holds
    arrays of the size of one block, the atoms or the support.  At
    600 x 600 atoms its traced peak stays under 1.25 x 8nm bytes plus
    1 MB, where forming every n x m array at once took 6.1 x 8nm.  A
    matrix past 128 MiB (4,096 x 4,096 atoms) is refused with
    ValueError before anything is allocated.

    Certified plans are cached: the spec and the shapes and bytes of lam
    and the rescaled mu key an `lru_cache` of 32 (a few chain instances'
    LPs), and calls that raise store nothing.  Each call binds copies of
    the cached entries to its own measures, so the marginals are checked
    again and no caller can alter the cache; a hit's `lp` is the stored solve's.

    Identical inputs short-circuit to the diagonal plan, which is
    optimal for any non-negative cost vanishing at 0; this keeps
    self-distance tests exact and permits large identical clouds that
    the matrix budget would otherwise refuse.
    """
    mu = _check_balanced(lam, mu)
    if _identical(lam, mu):
        idx = np.flatnonzero(lam.weights > 0)
        return TransportPlan(lam, mu, idx, idx, lam.weights[idx],
                             total_cost=0.0, dual_gap=0.0, lp=LPRecord(0, 0, 0, 0.0))
    i, j, masses, total_cost, gap, record = _certified_plan(
        lam.points.shape, lam.points.tobytes(), lam.weights.tobytes(),
        mu.points.shape, mu.points.tobytes(), mu.weights.tobytes(), spec)
    return TransportPlan(lam, mu, i.copy(), j.copy(), masses.copy(), total_cost=total_cost,
                         dual_gap=gap, lp=record)


def transport_cost(lam: DiscreteMeasure, mu: DiscreteMeasure, spec: CostSpec) -> float:
    """W_c(lam, mu), the optimal transport cost."""
    return solve_exact(lam, mu, spec).total_cost


def _draw_tuples(k: int, n_tuple: int, trials: int, seed: int) -> np.ndarray:
    """`trials` rows of n_tuple distinct indices in [0, k), each a uniform ordered draw.

    Column s draws d_s uniformly on [0, k - s), all in one call on
    `default_rng(seed)`; the row's s-th index is then its d_s-th index
    not yet taken, found by stepping past its earlier picks in ascending
    order.
    """
    sel = np.random.default_rng(seed).integers(0, k - np.arange(n_tuple),
                                               size=(trials, n_tuple))
    for s in range(1, n_tuple):
        for taken in np.sort(sel[:, :s], axis=1).T:
            sel[:, s] += sel[:, s] >= taken
    return sel


def check_cyclical_monotonicity(plan: TransportPlan, spec: CostSpec, n_tuple: int,
                                trials: int, seed: int) -> list:
    """Sample support tuples and report cyclic reassignments that win.

    For each trial, n_tuple distinct entries (x_i, y_i) are drawn and
    sum c(x_i - y_i) is compared with sum c(x_i - y_{i+1}); tuples
    beating the plan by more than 1e-9 are returned with their defect.
    An optimal plan must return an empty list.  Each trial's tuple is
    uniform over ordered tuples of distinct entries, and all are drawn
    from `default_rng(seed)` in one batch.
    """
    if not 2 <= n_tuple <= 6:
        raise ValueError("tuple size must be between 2 and 6")
    k = plan.n_entries
    if k < n_tuple:
        return []
    sel = _draw_tuples(k, n_tuple, trials, seed)
    x, y = plan.pairs()
    direct = np.asarray(cost_eval(spec, x - y))[sel].sum(axis=1)
    shifted = np.asarray(cost_eval(spec, x[sel] - y[np.roll(sel, -1, axis=1)])).sum(axis=1)
    defect = direct - shifted
    won = defect > 1e-9
    return [{"entries": e.tolist(), "defect": float(d)} for e, d in zip(sel[won], defect[won])]


def energy_E(plan: TransportPlan, radius: float, spec: CostSpec) -> float:
    """Localized transport energy E(R) of the plan, scale invariant.

    Integrates c(x - y) over the entries whose source or target lies in
    the open ball B_R and divides by |B_R| R^p, so that dilating the
    plan and the radius together leaves it unchanged.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    x, y = plan.pairs()
    mask = plan.anchored_in(radius)
    total = float(np.sum(plan.masses[mask] * cost_eval(spec, (x - y)[mask]))) if mask.any() else 0.0
    vol = Ball.at_origin(radius).volume
    return total / (vol * radius ** spec.p)


def _rings_at(radius: float, resolution: int) -> int:
    """Quadrature rings at `radius` for a `resolution` counted at radius 4.

    Rescaling the ring count with the radius keeps one radial cell width
    across radii, so discretization error cannot bias a comparison or
    warp a profile across them.
    """
    return max(3, int(round(resolution * radius / 4.0)))


def _plan_to_uniform(nu: DiscreteMeasure, radius: float, spec: CostSpec,
                     resolution: int) -> tuple[float, DiscreteMeasure, TransportPlan]:
    """Optimal plan from nu restricted to B_R onto its uniform density.

    kappa = |nu on B_R| / |B_R|; kappa dx is the Lebesgue quadrature of
    B_R at `resolution` weighted by kappa and rescaled to the restricted
    mass.  Returns (kappa, quadrature, plan); the plan's source is the
    restricted measure.
    """
    ball = Ball.at_origin(radius)
    local = restrict(nu, ball)
    k = local.total_mass / ball.volume
    if k <= 0.0:
        raise ValueError(f"no mass of the measure inside B_{radius:g}")
    quad = lebesgue_quadrature(ball, resolution)
    target = DiscreteMeasure(quad.points, quad.weights * k).with_mass(local.total_mass)
    return k, quad, solve_exact(local, target, spec)


def _data_half(nu: DiscreteMeasure, radius: float, spec: CostSpec, resolution: int) -> float:
    """One marginal's share of D(R), times R^p.

    W(nu restricted to B_R, kappa dx on B_R) / |B_R|
    + R^p (kappa - 1)^p / kappa^{p-1}; the kappa term is not
    volume-normalized, following the defining display.
    """
    k, _, plan = _plan_to_uniform(nu, radius, spec, resolution)
    w_term = plan.total_cost / Ball.at_origin(radius).volume
    return w_term + radius ** spec.p * abs(k - 1.0) ** spec.p / k ** (spec.p - 1.0)


def data_D(lam: DiscreteMeasure, mu: DiscreteMeasure, radius: float, spec: CostSpec,
           resolution: int) -> float:
    """Data term D(R): distance of each marginal from its own uniform density.

    Scale invariant four-term sum: for each of lam and mu, the transport
    cost under the spec's c to the kappa-weighted Lebesgue quadrature of
    B_R divided by |B_R| R^p, plus (kappa - 1)^p / kappa^{p-1}.

    `resolution` counts quadrature rings on B_R itself, as in
    `compute_smallness` and `c2measures_check`.  `select_radius`,
    `approximate_boundary_data` and `data_restriction_check` count them
    at radius 4 instead, rescaled per radius by `_rings_at`: at
    resolution 6, D(2) from `compute_smallness` uses 6 rings where the
    radius scan's D(2.05) uses 3.
    """
    total = _data_half(lam, radius, spec, resolution) + _data_half(mu, radius, spec, resolution)
    return total / radius ** spec.p


def compute_smallness(plan: TransportPlan, spec: CostSpec, radii: Sequence[float],
                      resolution: int) -> SmallnessReport:
    """The scale invariant E(R) and D(R) of a plan over a family of radii.

    `resolution` counts quadrature rings on each B_R itself (see `data_D`).
    """
    e_vals = {r: energy_E(plan, r, spec) for r in radii}
    d_vals = {r: data_D(plan.source, plan.target, r, spec, resolution) for r in radii}
    return SmallnessReport(e_vals, d_vals)


def triangle_constant(eps: float, p: float) -> float:
    """Constant C(eps) in W_c(m1,m3) <= (1+eps) W_c(m1,m2) + C(eps) W_c(m2,m3).

    For the implemented p-homogeneous convex costs the pointwise split
    c(a+b) = c(t (a/t) + (1-t) (b/(1-t))) <= t^{1-p} c(a) + (1-t)^{1-p} c(b)
    is exact; choosing t with t^{1-p} = 1 + eps gives

        C(eps) = (1 - (1+eps)^{-1/(p-1)})^{1-p}.

    No ellipticity factors enter because the split never leaves the
    exact convexity of the cost itself.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    t = (1.0 + eps) ** (-1.0 / (p - 1.0))
    return (1.0 - t) ** (1.0 - p)


@dataclasses.dataclass(frozen=True)
class TriangleReport:
    lhs: float
    rhs: float
    c_used: float
    w12: float
    w23: float
    passed: bool


def triangle_check(mu1: DiscreteMeasure, mu2: DiscreteMeasure, mu3: DiscreteMeasure,
                   eps: float, spec: CostSpec) -> TriangleReport:
    """Evaluate the triangle-type inequality on an admissible triple."""
    w12 = transport_cost(mu1, mu2, spec)
    w23 = transport_cost(mu2, mu3, spec)
    w13 = transport_cost(mu1, mu3, spec)
    c = triangle_constant(eps, spec.p)
    rhs = (1.0 + eps) * w12 + c * w23
    return TriangleReport(w13, rhs, c, w12, w23, w13 <= rhs + 1e-9)


def add_constant_check(mu1: DiscreteMeasure, mu2: DiscreteMeasure,
                       spec: CostSpec) -> float:
    """Ratio W_c(m1, m2) / W_c(m1 + m2, 2 m2); nan marks the 0/0 case.

    The denominator adds the common measure m2 to both sides, which can
    only help transport; the ratio stays bounded over reasonable
    families and that boundedness is what the suite asserts.
    """
    num = transport_cost(mu1, mu2, spec)
    summed = DiscreteMeasure(np.concatenate([mu1.points, mu2.points]),
                             np.concatenate([mu1.weights, mu2.weights]))
    doubled = DiscreteMeasure(mu2.points, 2.0 * mu2.weights)
    den = transport_cost(summed, doubled, spec)
    if den <= 1e-15 and num <= 1e-15:
        return math.nan
    return num / den if den > 0 else math.inf


@dataclasses.dataclass(frozen=True)
class C2MeasuresReport:
    lhs: float
    rhs: float
    k_used: float
    w_used: float
    holder_seminorm: float
    passed: bool


def c2measures_check(xi: Callable[[np.ndarray], np.ndarray], alpha: float,
                     mu: DiscreteMeasure, radius: float, spec: CostSpec,
                     resolution: int) -> C2MeasuresReport:
    """Check the Taylor-type comparison of a Holder field against measures.

    lhs = |int xi (dmu - kappa dx)| over B_R by quadrature; rhs is the
    product [xi]_{C^alpha} W^{alpha/p} R^{2d(p-alpha)/p} with W the
    transport cost between mu's restriction and its uniform density.
    The pass constant K comes from the growth certificate: the chain
    |lhs| <= [xi] (Lambda W)^{alpha/p} mass^{1-alpha/p} gives

        K = Lambda^{alpha/p} mass^{(p-alpha)/p} / R^{2d(p-alpha)/p}

    padded 25 percent because the seminorm is taken on the grid: it is
    the exact maximum over all pairs of distinct quadrature points,
    below the continuum one.  It is deterministic and never below an
    estimate over a subset of those pairs, and rhs grows with it, so the
    check passes wherever such an estimate would.  Raises ValueError
    unless xi gives one finite value per point of mu and the quadrature.
    `resolution` counts quadrature rings on B_R itself (see `data_D`).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    k, quad, plan = _plan_to_uniform(mu, radius, spec, resolution)
    if not 0.5 <= k <= 2.0:
        raise ValueError("mu must carry mass comparable to the ball")
    local, w = plan.source, plan.total_cost
    xi_mu = np.asarray(xi(local.points), dtype=float)
    xi_quad = np.asarray(xi(quad.points), dtype=float)
    for vals, pts in ((xi_mu, local.points), (xi_quad, quad.points)):
        if vals.shape != (len(pts),) or not np.isfinite(vals).all():
            raise ValueError("xi must give one finite value per point")
    lhs = abs(float(np.sum(xi_mu * local.weights) - k * np.sum(xi_quad * quad.weights)))
    sem, = _holder_maxima(quad.points, (xi_quad[:, None],), alpha, np.finfo(float).tiny)

    rhs = sem * w ** (alpha / spec.p) * radius ** (4.0 * (spec.p - alpha) / spec.p)
    mass = local.total_mass
    k_const = (spec.lambda_cap ** (alpha / spec.p) * mass ** ((spec.p - alpha) / spec.p)
               / radius ** (4.0 * (spec.p - alpha) / spec.p)) * 1.25
    passed = lhs <= k_const * rhs + 1e-12
    return C2MeasuresReport(lhs, rhs, k_const, w, sem, passed)


@dataclasses.dataclass(frozen=True)
class LocalisationReport:
    lhs: float
    rhs: float
    w_localized: float
    smallness: float
    passed: bool


def localisation_check(plan: TransportPlan, radius: float, spec: CostSpec,
                       delta: float, tau: float, resolution: int = 12) -> LocalisationReport:
    """Compare the plan's localized cost with the localized problem's value.

    lhs integrates c(x - y) over trajectories meeting the closed ball
    (within the source-or-target-in-B_3 window); rhs solves transport
    between the restricted marginals augmented by the boundary entry and
    exit measures, scaled by 1 + delta, plus tau times the volume-only
    smallness 4^p (E(4) + D(4)).  The radius must lie in (0, 3]: beyond the
    window the restricted marginals keep crossing mass that it drops.
    """
    from .trajectories import _WINDOW, entry_exit_atoms, omega_mask

    if not 0.0 < radius <= _WINDOW:
        raise ValueError(f"radius must lie in (0, {_WINDOW:g}], the B_{_WINDOW:g} window")
    mask = omega_mask(plan, radius)
    x, y = plan.pairs()
    lhs = float(np.sum(plan.masses[mask] * cost_eval(spec, (x - y)[mask])))

    f_r, g_r = entry_exit_atoms(plan, radius)
    ball = Ball.at_origin(radius)
    lam_in = restrict(plan.source, ball)
    mu_in = restrict(plan.target, ball)
    lam_aug = DiscreteMeasure(np.concatenate([lam_in.points, f_r.points]),
                              np.concatenate([lam_in.weights, f_r.weights]))
    mu_aug = DiscreteMeasure(np.concatenate([mu_in.points, g_r.points]),
                             np.concatenate([mu_in.weights, g_r.weights]))
    w_loc = transport_cost(lam_aug, mu_aug, spec)

    small = 4.0 ** spec.p * compute_smallness(plan, spec, (4.0,), resolution).total(4.0)
    rhs = (1.0 + delta) * w_loc + tau * small
    return LocalisationReport(lhs, rhs, w_loc, small, lhs <= rhs + 1e-9)


@dataclasses.dataclass(frozen=True)
class DataRestrictionReport:
    integral_estimate: float
    d4_half: float
    ratio: float
    degenerate: bool

    @property
    def passed(self) -> bool:
        return self.degenerate or math.isfinite(self.ratio)


def data_restriction_check(mu: DiscreteMeasure, spec: CostSpec,
                           radii: Optional[Sequence[float]] = None,
                           resolution: int = 12) -> DataRestrictionReport:
    """Trapezoid estimate of the restricted-data integral against D(4).

    Approximates int_2^3 [ W_c(mu on B_R, kappa dx on B_R)
    + (kappa - 1)^p / kappa ] dR on an 11-point grid and returns its
    ratio to 4^p times the mu half of D(4).  The integrand
    is piecewise smooth in R away from finitely many radii where atoms
    cross the boundary, which the trapezoid rule tolerates.

    `resolution` counts quadrature rings at radius 4 and is rescaled
    per scan radius by `_rings_at`, unlike `data_D`'s (see there).
    """
    if radii is None:
        radii = np.linspace(2.0, 3.0, 11)
    radii = np.unique(np.asarray(radii, dtype=float))
    if len(radii) < 2:
        raise ValueError("need at least 2 distinct scan radii")
    if radii.min() < 2.0 - 1e-12 or radii.max() > 3.0 + 1e-12:
        raise ValueError("scan radii must stay within [2, 3]")

    vals = []
    for r in radii:
        k, _, plan = _plan_to_uniform(mu, r, spec, _rings_at(r, resolution))
        vals.append(plan.total_cost + abs(k - 1.0) ** spec.p / k)
    integral = float(np.trapezoid(vals, radii))

    d4_half = _data_half(mu, 4.0, spec, resolution)
    if d4_half <= 1e-12 and integral <= 1e-9:
        return DataRestrictionReport(integral, d4_half, math.nan, True)
    ratio = integral / d4_half if d4_half > 0 else math.inf
    return DataRestrictionReport(integral, d4_half, ratio, False)
