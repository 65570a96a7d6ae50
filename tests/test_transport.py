"""Exact-solver oracles and the inequality checks built on them.

Frozen reference values, each derivable by hand or by an in-file oracle:

  * two atoms on the x-axis: monotone matching costs 0.005, crossed 0.505
  * single entry ((0,0),(1,0)), p=2, R=4: E = 1/(512 pi) scale invariant,
    1/(32 pi) plain volume
  * triangle constant C(eps) = (1 - (1+eps)^(-1/(p-1)))^(1-p):
    C(0.5, p=2) = 3, C(0.1, p=2) = 11, C(0.5, p=3) = 1.5/(sqrt(1.5)-1)^2
  * kappa mismatch delta on one side contributes R^p delta^p/(1+delta)^(p-1)
  * point mass vs uniform on the unit disc, p=2: W-term
    1/4 - 1/(8 n^2) at n rings (midpoint rule on |x|^2/2), -> 1/4
"""
import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from cyclical_oracle import cyclical_violations, popped_tuples
from lp_oracle import brute_force, dense_solve, monotone_1d, plan_cost
from otlab import transport
from otlab.costs import CostSpec, cost_eval
from otlab.measures import Ball, DiscreteMeasure, lebesgue_quadrature, restrict
from otlab.transport import (
    TransportPlan,
    add_constant_check,
    c2measures_check,
    check_cyclical_monotonicity,
    compute_smallness,
    data_D,
    data_restriction_check,
    energy_E,
    localisation_check,
    solve_exact,
    transport_cost,
    triangle_check,
    triangle_constant,
)

P2 = CostSpec.radial(2.0)
SPECS = [CostSpec.radial(1.5), P2, CostSpec.radial(3.0)]
ANISO = CostSpec.anisotropic(3.0, np.diag([1.0, 4.0]), 64.0)


def on_axis(x):
    """The points (x, 0) of the x-axis."""
    x = np.ravel(x)
    return np.column_stack([x, np.zeros_like(x)])


def uniform_cloud(rng, n, scale=1.0, collinear=False):
    """n equal atoms, normal with the given scale; on the x-axis if collinear."""
    if collinear:
        return DiscreteMeasure(on_axis(rng.normal(size=n) * scale), np.full(n, 1.0 / n))
    return DiscreteMeasure(rng.normal(size=(n, 2)) * scale, np.full(n, 1.0 / n))


def gamma_cloud(rng, n, collinear=False):
    """n gamma-weighted atoms, uniform on [-3, 3]^2, or on [-3, 3] of the x-axis."""
    pts = on_axis(rng.uniform(-3.0, 3.0, n)) if collinear else rng.uniform(-3.0, 3.0, (n, 2))
    return DiscreteMeasure(pts, rng.gamma(2.0, size=n))


@pytest.fixture
def lp_solves(monkeypatch):
    """A cold plan cache, and the list of the `_solve_lp` calls made in the test."""
    transport._certified_plan.cache_clear()
    calls = []
    solve = transport._solve_lp

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(transport, "_solve_lp", counted)
    yield calls
    # plans solved under a patched kernel stay out of later tests
    transport._certified_plan.cache_clear()


# ---------------------------------------------------------------- solvers

def test_two_atom_monotone_example():
    lam = DiscreteMeasure(on_axis([0.0, 1.0]), [0.5, 0.5])
    mu = DiscreteMeasure(on_axis([0.1, 1.1]), [0.5, 0.5])
    for solver in (solve_exact, brute_force, monotone_1d):
        assert solver(lam, mu, P2).total_cost == pytest.approx(0.005, abs=1e-12)
    # the crossed matching costs 0.505, so the optimum is strictly monotone
    crossed = 0.5 * (1.1 ** 2 / 2 + 0.9 ** 2 / 2)
    assert crossed == pytest.approx(0.505, abs=1e-12)


def test_identity_plan_is_diagonal():
    m = DiscreteMeasure([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]], [0.2, 0.5, 0.3])
    plan = solve_exact(m, m, P2)
    assert plan.total_cost == 0.0
    assert plan.dual_gap == 0.0
    assert np.array_equal(plan.idx_source, plan.idx_target)


def test_brute_force_single_and_collinear():
    one = DiscreteMeasure([[0.3, 0.1]], [1.0])
    other = DiscreteMeasure([[1.0, 1.0]], [1.0])
    plan = brute_force(one, other, P2)
    assert plan.total_cost == pytest.approx(cost_eval(P2, np.array([-0.7, -0.9])))

    same = DiscreteMeasure(on_axis([0.0, 1.0, 2.0]), np.full(3, 1 / 3))
    plan = brute_force(same, same, P2)
    assert plan.total_cost == 0.0
    assert np.array_equal(plan.idx_source, plan.idx_target)


def test_brute_force_preconditions():
    rng = np.random.default_rng(0)
    big = uniform_cloud(rng, 9)
    with pytest.raises(ValueError):
        brute_force(big, big, P2)
    lop = DiscreteMeasure(on_axis([0.0, 1.0]), [0.3, 0.7])
    with pytest.raises(ValueError):
        brute_force(lop, lop, P2)


def test_solve_exact_matches_brute_force():
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        lam = uniform_cloud(rng, n)
        mu = uniform_cloud(rng, n)
        spec = SPECS[seed % 3]
        got = solve_exact(lam, mu, spec).total_cost
        ref = brute_force(lam, mu, spec).total_cost
        worst = max(worst, abs(got - ref))
    assert worst <= 1e-12


def test_solve_exact_matches_monotone_1d():
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        lam = DiscreteMeasure(on_axis(rng.normal(size=50)), rng.uniform(0.5, 1.5, 50))
        mu = DiscreteMeasure(on_axis(rng.normal(size=50)), rng.uniform(0.5, 1.5, 50))
        mu = mu.with_mass(lam.total_mass)
        spec = SPECS[seed % 3]
        assert solve_exact(lam, mu, spec).total_cost == pytest.approx(
            monotone_1d(lam, mu, spec).total_cost, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_monotone_matches_lp_property(seed, n):
    rng = np.random.default_rng(seed)
    lam = uniform_cloud(rng, n, collinear=True)
    mu = uniform_cloud(rng, n, collinear=True)
    assert monotone_1d(lam, mu, P2).total_cost == pytest.approx(
        solve_exact(lam, mu, P2).total_cost, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 30), st.integers(2, 30),
       st.sampled_from(SPECS + [ANISO]))
def test_monotone_matches_lp_on_any_line(seed, n, m, spec):
    # on a line {a + t e} both costs are c(e) |t|^p, convex in t, so the
    # quantile coupling is optimal for either family
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, 2)
    angle = rng.uniform(0.0, math.pi)
    e = np.array([math.cos(angle), math.sin(angle)])
    lam, mu = (DiscreteMeasure(a + rng.uniform(-3.0, 3.0, (k, 1)) * e, rng.gamma(2.0, size=k))
               for k in (n, m))
    mu = mu.with_mass(lam.total_mass)
    assert solve_exact(lam, mu, spec).total_cost == pytest.approx(
        monotone_1d(lam, mu, spec).total_cost, rel=1e-9)


def test_monotone_oracle_refuses_clouds_off_a_line():
    lam = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    mu = DiscreteMeasure([[2.0, 2.0], [3.0, 3.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="collinear"):
        monotone_1d(lam, mu, P2)


def test_mass_mismatch_rejected():
    lam = DiscreteMeasure([[0.0, 0.0]], [1.0])
    mu = DiscreteMeasure([[1.0, 0.0]], [1.1])
    with pytest.raises(ValueError):
        solve_exact(lam, mu, P2)


def test_marginals_conserved_and_validated():
    rng = np.random.default_rng(3)
    lam = DiscreteMeasure(rng.normal(size=(12, 2)), rng.uniform(0.5, 1.0, 12))
    mu = DiscreteMeasure(rng.normal(size=(15, 2)), rng.uniform(0.5, 1.0, 15))
    mu = mu.with_mass(lam.total_mass)
    plan = solve_exact(lam, mu, P2)
    rows = np.bincount(plan.idx_source, weights=plan.masses, minlength=12)
    cols = np.bincount(plan.idx_target, weights=plan.masses, minlength=15)
    assert np.allclose(rows, lam.weights, rtol=1e-10, atol=0.0)
    assert np.allclose(cols, mu.weights, rtol=1e-10, atol=0.0)

    with pytest.raises(ValueError):
        TransportPlan(lam, mu, plan.idx_source, plan.idx_target, plan.masses * 1.5)


# (n, m, collinear on the x-axis, gamma-distributed weights, spec)
ORACLE_BATTERY = [
    (40, 40, False, False, SPECS[0]),
    (60, 60, False, False, SPECS[1]),
    (50, 50, False, True, SPECS[2]),
    (45, 80, False, True, SPECS[0]),
    (90, 35, False, True, SPECS[1]),
    (70, 55, False, True, SPECS[2]),
    (60, 75, False, True, ANISO),
    (50, 50, False, False, ANISO),
    (80, 60, True, True, SPECS[1]),
    (50, 50, True, False, SPECS[2]),
]


def cost_scale(lam, mu, spec):
    """The kernel's certificate scale: the largest cost, at least 1."""
    return max(float(np.max(cost_eval(spec, lam.points[:, None, :] - mu.points[None, :, :]))),
               1.0)


def assert_matches_oracle(lam, mu, spec):
    got = solve_exact(lam, mu, spec)
    want = dense_solve(lam, mu, spec)
    assert got.total_cost == pytest.approx(want.total_cost, rel=1e-9)
    assert plan_cost(got, spec) == pytest.approx(want.total_cost, rel=1e-9)
    assert got.dual_gap <= 1e-9 * cost_scale(lam, mu, spec)
    return got


def battery_case(case, seed):
    n, m, collinear, gamma_weights, spec = case
    rng = np.random.default_rng(1000 + seed)
    make = gamma_cloud if gamma_weights else (lambda r, k, c: uniform_cloud(r, k, 1.5, c))
    lam = make(rng, n, collinear)
    return lam, make(rng, m, collinear).with_mass(lam.total_mass), spec


def battery_id(case):
    n, m, collinear, gamma_weights, spec = case
    return (f"{n}x{m}-{'axis' if collinear else 'd2'}-{'gamma' if gamma_weights else 'equal'}"
            f"-{spec.family}-p{spec.p}")


battery = pytest.mark.parametrize("case", ORACLE_BATTERY, ids=battery_id)


@pytest.mark.parametrize("seed", range(3))
@battery
def test_solve_exact_matches_dense_oracle(case, seed):
    assert_matches_oracle(*battery_case(case, seed))


@pytest.mark.parametrize("seed", range(3))
@battery
def test_pricing_rounds_match_dense_oracle(case, seed, monkeypatch, lp_solves):
    # a one-partner seed leaves every battery LP short of its optimal
    # support, so the warm primal re-solves run on each case
    monkeypatch.setattr(transport, "_SEED_NEIGHBOURS", 1)
    plan = assert_matches_oracle(*battery_case(case, seed))
    assert len(lp_solves) == 1
    assert plan.lp.solves > 1


def test_solve_exact_matches_dense_oracle_on_degenerate_quadratures():
    # the shape of test_c2_linear_field_shifted_blob: a uniform blob against
    # the uniform density of a larger ball, both equal-weight polar grids
    mu = lebesgue_quadrature(Ball((0.6, 0.0), 0.9), 5).with_mass(4.0 * math.pi)
    ball = Ball.at_origin(2.0)
    local = restrict(mu, ball)
    target = lebesgue_quadrature(ball, 5).with_mass(local.total_mass)
    assert_matches_oracle(local, target, P2)


def test_pricing_round_limit_raises(monkeypatch):
    rng = np.random.default_rng(41)
    lam = gamma_cloud(rng, 60)
    mu = gamma_cloud(rng, 70).with_mass(lam.total_mass)
    # a one-partner seed needs a second round whatever the default seed size
    monkeypatch.setattr(transport, "_SEED_NEIGHBOURS", 1)
    monkeypatch.setattr(transport, "_MAX_PRICING_ROUNDS", 1)
    with pytest.raises(ArithmeticError, match="rounds"):
        solve_exact(lam, mu, P2)
    monkeypatch.undo()
    assert_matches_oracle(lam, mu, P2)


def test_matching_lp_prices_out_from_its_seed(lp_solves):
    # held out from the benchmark pools: 600 uniform atoms on B_4 against
    # the 600-atom polar quadrature of B_4 at p = 3; the 12-partner seed
    # prices out in its first solve, where a 5-partner seed takes 5
    quad = lebesgue_quadrature(Ball.at_origin(4.0), 10)
    rng = np.random.default_rng(1)
    r = 4.0 * np.sqrt(rng.uniform(0.0, 1.0, 600))
    theta = rng.uniform(0.0, 2.0 * math.pi, 600)
    lam = DiscreteMeasure(np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1),
                          np.full(600, quad.total_mass / 600))
    spec = CostSpec.radial(3.0)
    plan = solve_exact(lam, quad, spec)
    assert len(lp_solves) == 1
    assert plan.lp.solves <= 2
    assert plan.dual_gap <= 1e-9 * cost_scale(lam, quad, spec)


def test_highs_incremental_interface():
    # the kernel drives scipy's private HiGHS binding; a scipy upgrade
    # that moves or changes any call used here must fail loudly
    assert transport._Highs is _Highs
    model = _Highs()
    for option, value in transport._HIGHS_OPTIONS.items():
        model.setOptionValue(option, value)
    # 2 x 3 transport LP; rows are the sources and the first two targets
    # (the third target's equality is dropped for rank)
    cmat = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
    b_eq = np.array([0.5, 0.5, 0.3, 0.3])
    model.addRows(4, b_eq, b_eq, 0, np.zeros(4, np.int32), np.zeros(0, np.int32), np.zeros(0))

    def add(cells, starts, index):
        k = len(cells)
        model.addCols(k, cmat.ravel()[cells], np.zeros(k), np.full(k, np.inf), len(index),
                      np.array(starts, np.int32), np.array(index, np.int32),
                      np.ones(len(index)))

    def solve():
        model.run()
        assert model.getModelStatus() == HighsModelStatus.kOptimal
        sol, info = model.getSolution(), model.getInfo()
        duals = np.append(sol.row_dual, 0.0)
        slack = cmat - duals[:2, None] - duals[None, 2:]
        return np.asarray(sol.col_value), slack, info

    # cells (0,1), (0,2), (1,0), (1,2): a feasible support with one plan
    cells = np.array([1, 2, 3, 5])
    add(cells, [0, 2, 3, 5], [0, 3, 0, 1, 2, 1])
    x, slack, info = solve()
    assert np.allclose(x, [0.3, 0.2, 0.3, 0.2], rtol=0.0, atol=1e-12)
    assert info.objective_function_value == pytest.approx(2.5, abs=1e-12)
    # the certificate's sign: C - u - v vanishes on the basis and prices
    # the cheap cell (0,0) below zero (u = (3, 2), v = (1, -1, 0))
    assert np.abs(slack.ravel()[cells]).max() <= 1e-12
    assert slack[0, 0] == pytest.approx(-3.0, abs=1e-12)

    add(np.array([0, 4]), [0, 2], [0, 2, 1, 3])
    model.setOptionValue("simplex_strategy", transport._WARM_SIMPLEX_STRATEGY)
    x, slack, info = solve()
    assert info.objective_function_value == pytest.approx(1.6, abs=1e-12)
    assert info.simplex_iteration_count >= 1
    # columns keep the order they were added in
    plan = np.zeros(6)
    plan[[1, 2, 3, 5, 0, 4]] = x
    plan = plan.reshape(2, 3)
    assert np.allclose(plan.sum(axis=1), 0.5, rtol=0.0, atol=1e-12)
    assert np.allclose(plan.sum(axis=0), [0.3, 0.3, 0.4], rtol=0.0, atol=1e-12)
    assert float((plan * cmat).sum()) == pytest.approx(1.6, abs=1e-12)
    assert slack.min() >= -1e-12
    assert np.abs(slack[plan > 1e-12]).max() <= 1e-12


# ------------------------------------------------------- plan reuse

def test_reuse_returns_equal_plan_bound_to_caller(lp_solves):
    rng = np.random.default_rng(51)
    lam = gamma_cloud(rng, 30)
    mu = gamma_cloud(rng, 40).with_mass(lam.total_mass)
    first = solve_exact(lam, mu, P2)
    assert len(lp_solves) == 1

    lam2 = DiscreteMeasure(lam.points.copy(), lam.weights.copy())
    mu2 = DiscreteMeasure(mu.points.copy(), mu.weights.copy())
    second = solve_exact(lam2, mu2, P2)
    assert len(lp_solves) == 1
    assert second.lp == first.lp
    assert second.source is lam2
    assert second.target.points is mu2.points
    for name in ("idx_source", "idx_target", "masses"):
        assert np.array_equal(getattr(second, name), getattr(first, name))
    assert second.total_cost == first.total_cost
    assert second.dual_gap == first.dual_gap


def test_reuse_is_not_altered_by_mutating_a_result():
    rng = np.random.default_rng(52)
    lam = gamma_cloud(rng, 25)
    mu = gamma_cloud(rng, 25).with_mass(lam.total_mass)
    plan = solve_exact(lam, mu, P2)
    want = (plan.idx_source.copy(), plan.idx_target.copy(), plan.masses.copy())
    plan.idx_source[:] = 0
    plan.idx_target[:] = 0
    plan.masses[:] = 1.0
    again = solve_exact(lam, mu, P2)
    for got, ref in zip((again.idx_source, again.idx_target, again.masses), want):
        assert np.array_equal(got, ref)


def test_reuse_keys_do_not_collide(lp_solves):
    rng = np.random.default_rng(53)
    lam = gamma_cloud(rng, 30)
    mu = gamma_cloud(rng, 35).with_mass(lam.total_mass)
    p2 = solve_exact(lam, mu, P2)
    assert len(lp_solves) == 1

    p3 = solve_exact(lam, mu, SPECS[2])
    assert len(lp_solves) == 2
    assert p3.total_cost != p2.total_cost

    w = lam.weights.copy()
    w[0] = np.nextafter(w[0], np.inf)
    nudged = DiscreteMeasure(lam.points, w)
    solve_exact(nudged, mu, P2)
    assert len(lp_solves) == 3


def test_failed_solve_is_not_reused(monkeypatch, lp_solves):
    rng = np.random.default_rng(54)
    lam = gamma_cloud(rng, 20)
    mu = gamma_cloud(rng, 20).with_mass(lam.total_mass)
    runs = []

    class Failing(transport._Highs):
        """A model whose every run ends in a solve error."""

        def run(self):
            runs.append(self)
            return super().run()

        def getModelStatus(self):
            return HighsModelStatus.kSolveError

    with monkeypatch.context() as m:
        m.setattr(transport, "_Highs", Failing)
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="Solve error"):
                solve_exact(lam, mu, P2)
    assert len(runs) == 2
    solve_exact(lam, mu, P2)
    assert len(lp_solves) == 3
    assert_matches_oracle(lam, mu, P2)


SRC = Path(__file__).resolve().parents[1] / "src"
# a 3 x 3 LP, posed in a fresh interpreter
FRESH_LP = """
import numpy as np
from otlab import CostSpec, DiscreteMeasure, solve_exact
pts = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]])
plan = solve_exact(DiscreteMeasure(pts, np.ones(3)), DiscreteMeasure(pts[::-1] + 0.25, np.ones(3)),
                   CostSpec.radial(2.0))
"""


def run_fresh(*snippets: str) -> None:
    """Run the snippets, one after another, in a new interpreter that
    imports the package from the source tree; their asserts must hold."""
    code = "\n".join(textwrap.dedent(s) for s in snippets)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr


def test_package_without_lp_does_not_load_scipy_optimize():
    run_fresh("""
        import sys
        import numpy as np
        import otlab
        from otlab import BoundaryData, CostSpec, NeumannProblem, build_mesh, solve_neumann
        mesh = build_mesh(1.0, 0.2)
        g = BoundaryData(1.0, np.cos(np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)), signed=True)
        solve_neumann(NeumannProblem(mesh, CostSpec.radial(3.0), g))
        otlab.verify_assumptions(CostSpec.radial(3.0), 256, 0)
        assert "scipy.optimize" not in sys.modules
    """)


def test_first_lp_loads_scipy_optimize():
    run_fresh("import sys", FRESH_LP, "assert 'scipy.optimize' in sys.modules")


def test_highs_names_resolve_before_the_first_lp():
    run_fresh("""
        import scipy.optimize
        from scipy.optimize._highspy._core import HighsModelStatus, _Highs
        from otlab import transport
        assert transport.optimize is scipy.optimize
        assert transport._Highs is _Highs
        assert transport._OPTIMAL == HighsModelStatus.kOptimal
    """)


def test_highs_class_set_before_the_first_lp_is_the_one_used():
    run_fresh("""
        from scipy.optimize._highspy._core import _Highs
        from otlab import transport
        made = []

        class Counted(_Highs):
            def __init__(self):
                super().__init__()
                made.append(self)

        transport._Highs = Counted
    """, FRESH_LP, "assert len(made) == 1 and transport._Highs is Counted")


def test_concurrent_callers_get_the_serial_plans(lp_solves):
    # more distinct inputs than the cache holds, so threads evict and
    # re-solve each other's plans while others read them
    inputs = []
    for seed in range(40):
        rng = np.random.default_rng(300 + seed)
        lam = gamma_cloud(rng, 6)
        inputs.append((lam, gamma_cloud(rng, 8).with_mass(lam.total_mass)))
    serial = [solve_exact(lam, mu, P2) for lam, mu in inputs]
    errors = []

    def worker(tid):
        try:
            for k in range(60):
                idx = (tid * 7 + k) % len(inputs)
                got, want = solve_exact(*inputs[idx], P2), serial[idx]
                same = (np.array_equal(got.idx_source, want.idx_source)
                        and np.array_equal(got.idx_target, want.idx_target)
                        and np.array_equal(got.masses, want.masses)
                        and got.total_cost == want.total_cost
                        and got.dual_gap == want.dual_gap
                        and dataclasses.replace(got.lp, seconds=0.0)
                        == dataclasses.replace(want.lp, seconds=0.0))
                if not same:
                    errors.append(idx)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    info = transport._certified_plan.cache_info()
    assert len(lp_solves) > len(inputs)
    assert info.hits > 0
    assert info.currsize == info.maxsize == 32


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12), st.integers(2, 12),
       st.sampled_from(SPECS + [ANISO]))
def test_cache_hit_equals_the_cold_solve(seed, n, m, spec):
    transport._certified_plan.cache_clear()
    rng = np.random.default_rng(seed)
    lam = gamma_cloud(rng, n)
    mu = gamma_cloud(rng, m).with_mass(lam.total_mass)
    cold = solve_exact(lam, mu, spec)
    lam2 = DiscreteMeasure(lam.points.copy(), lam.weights.copy())
    mu2 = DiscreteMeasure(mu.points.copy(), mu.weights.copy())
    hit = solve_exact(lam2, mu2, spec)
    assert transport._certified_plan.cache_info().hits == 1
    for name in ("idx_source", "idx_target", "masses"):
        assert np.array_equal(getattr(hit, name), getattr(cold, name))
    assert (hit.total_cost, hit.dual_gap, hit.lp) == (cold.total_cost, cold.dual_gap, cold.lp)
    assert hit.source is lam2
    assert hit.target.points is mu2.points


def traced_peak(call):
    """The tracemalloc peak, in bytes, of call(); call's exceptions propagate."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_budget_refuses_before_allocating():
    # 4,096 x 4,096 float64 costs fill the 128 MiB budget exactly
    rng = np.random.default_rng(1)
    big = uniform_cloud(rng, 4097)
    other = uniform_cloud(rng, 4097)

    def refused():
        with pytest.raises(ValueError, match=r"4097x4097 needs 134283272 bytes, "
                                             r"past the budget of 134217728 bytes"):
            solve_exact(big, other, P2)

    assert traced_peak(refused) < 1e6
    # identical clouds take the diagonal plan at any size
    plan = solve_exact(big, big, P2)
    assert plan.total_cost == 0.0 and plan.lp.solves == 0 and plan.n_entries == 4097


def kernel_outputs(lam, mu, spec):
    """`_solve_lp`'s plan entries, cost, certificate and record counts."""
    i, j, masses, cost, gap, record = transport._solve_lp(lam, mu, spec)
    return i, j, masses, cost, gap, (record.solves, record.iterations, record.support)


def polar_pair(shift, a, b, spec):
    """Equal-weight polar quadratures of a shifted unit ball and of B_2, cost ties galore."""
    lam = lebesgue_quadrature(Ball((shift, 0.0), 1.0), a)
    return lam, lebesgue_quadrature(Ball.at_origin(2.0), b).with_mass(lam.total_mass), spec


BLOCKING_CASES = (
    [pytest.param(*battery_case(case, 0), id=battery_id(case)) for case in ORACLE_BATTERY]
    + [pytest.param(*polar_pair(s, a, b, spec), id=f"polar-{s}-{a}x{b}-p{spec.p}")
       for s, a, b in ((0.3, 5, 6), (0.6, 8, 8), (1.0, 10, 10)) for spec in SPECS])


@pytest.mark.parametrize("neighbours", [12, 1])
@pytest.mark.parametrize("lam, mu, spec", BLOCKING_CASES)
def test_row_blocks_change_nothing(lam, mu, spec, neighbours, monkeypatch):
    # one row (and one column) a block against the whole matrix in one block;
    # a one-partner seed sends every case through the pricing rounds
    monkeypatch.setattr(transport, "_SEED_NEIGHBOURS", neighbours)
    monkeypatch.setattr(transport, "_BLOCK_ENTRIES", 1)
    one_row = kernel_outputs(lam, mu, spec)
    monkeypatch.setattr(transport, "_BLOCK_ENTRIES", lam.n_atoms * mu.n_atoms)
    whole = kernel_outputs(lam, mu, spec)
    for a, b in zip(one_row, whole):
        assert np.array_equal(a, b)


def test_kernel_holds_one_cost_matrix():
    # the dense kernel peaked at 6.1 x 8nm bytes here: the difference stack,
    # its metric temporaries, two seed index arrays and the slack matrix
    n = 600
    rng = np.random.default_rng(3)
    lam = gamma_cloud(rng, n)
    mu = gamma_cloud(rng, n).with_mass(lam.total_mass)
    assert traced_peak(lambda: transport._solve_lp(lam, mu, ANISO)) <= 1.25 * 8 * n * n + 1e6


# --------------------------------------------- cyclical monotonicity

def test_optimal_plan_has_no_violations():
    rng = np.random.default_rng(7)
    lam = uniform_cloud(rng, 30)
    mu = uniform_cloud(rng, 30)
    plan = solve_exact(lam, mu, P2)
    for n_tuple in (2, 3, 4):
        assert check_cyclical_monotonicity(plan, P2, n_tuple, 700, seed=n_tuple) == []


def test_planted_swap_is_detected():
    lam = DiscreteMeasure(on_axis([0.0, 1.0, 2.0, 3.0]), np.full(4, 0.25))
    mu = DiscreteMeasure(on_axis([0.1, 1.1, 2.1, 3.1]), np.full(4, 0.25))
    good = monotone_1d(lam, mu, P2)
    swapped = dataclasses.replace(
        good, idx_target=good.idx_target[::-1].copy(), total_cost=math.nan)
    bad = check_cyclical_monotonicity(swapped, P2, 2, 400, seed=0)
    assert bad and all(v["defect"] > 1e-9 for v in bad)


@pytest.mark.parametrize("n_tuple", range(2, 7))
@pytest.mark.parametrize("spec", SPECS + [ANISO], ids=lambda s: f"{s.family}-p{s.p}")
def test_batched_violations_equal_the_loop(spec, n_tuple):
    # an arbitrary pairing of random clouds, so many tuples win
    rng = np.random.default_rng(60 + n_tuple)
    lam = gamma_cloud(rng, 40)
    mu = gamma_cloud(rng, 40)
    idx = np.arange(40)
    plan = TransportPlan(lam, DiscreteMeasure(mu.points, lam.weights), idx, idx, lam.weights)
    got = check_cyclical_monotonicity(plan, spec, n_tuple, 500, seed=n_tuple)
    assert got and got == cyclical_violations(plan, spec, n_tuple, 500, seed=n_tuple)
    assert check_cyclical_monotonicity(plan, spec, n_tuple, 0, seed=0) == []
    # exactly n_tuple entries: every draw is a permutation of all of them
    few = TransportPlan(DiscreteMeasure(lam.points[:n_tuple], lam.weights[:n_tuple]),
                        DiscreteMeasure(mu.points[:n_tuple], lam.weights[:n_tuple]),
                        idx[:n_tuple], idx[:n_tuple], lam.weights[:n_tuple])
    assert (check_cyclical_monotonicity(few, spec, n_tuple, 500, seed=n_tuple)
            == cyclical_violations(few, spec, n_tuple, 500, seed=n_tuple))


@pytest.mark.parametrize("k, n_tuple", [(2, 2), (6, 6), (7, 6), (50, 2), (330, 3), (12000, 5)])
def test_tuple_draws_equal_the_popping_loop(k, n_tuple):
    for seed in range(5):
        got = transport._draw_tuples(k, n_tuple, 200, seed)
        assert got.shape == (200, n_tuple)
        assert np.array_equal(got, popped_tuples(k, n_tuple, 200, seed))


def test_tuple_draws_are_uniform_and_distinct():
    # every ordered triple of 7 indices, each within 6 standard deviations
    # of its binomial mean
    trials, n_perm = 200_000, 7 * 6 * 5
    rows, counts = np.unique(transport._draw_tuples(7, 3, trials, 11), axis=0,
                             return_counts=True)
    assert len(rows) == n_perm
    assert np.all([len(set(r)) == 3 for r in rows.tolist()])
    mean = trials / n_perm
    assert np.abs(counts - mean).max() <= 6.0 * math.sqrt(mean)
    # indices past 2**32 stay distinct and in range
    big = transport._draw_tuples(3_000_000_000, 4, 2000, 0)
    assert big.min() >= 0 and big.max() < 3_000_000_000
    assert (np.sort(big, axis=1)[:, 1:] != np.sort(big, axis=1)[:, :-1]).all()


def test_single_entry_plan_trivially_monotone():
    lam = DiscreteMeasure([[0.0, 0.0]], [1.0])
    mu = DiscreteMeasure([[1.0, 0.0]], [1.0])
    plan = solve_exact(lam, mu, P2)
    assert check_cyclical_monotonicity(plan, P2, 2, 100, seed=0) == []


def test_plan_identity_equality_and_hash():
    lam = DiscreteMeasure([[0.0, 0.0]], [1.0])
    mu = DiscreteMeasure([[1.0, 0.0]], [1.0])
    a, b = solve_exact(lam, mu, P2), solve_exact(lam, mu, P2)
    assert a == a and a != b and len({a, b}) == 2


# ----------------------------------------------------- E and D

def test_energy_single_entry_frozen_values():
    lam = DiscreteMeasure([[0.0, 0.0]], [1.0])
    mu = DiscreteMeasure([[1.0, 0.0]], [1.0])
    plan = solve_exact(lam, mu, P2)
    assert energy_E(plan, 4.0, P2) == pytest.approx(1.0 / (512 * math.pi), rel=1e-12)
    assert 4.0 ** P2.p * energy_E(plan, 4.0, P2) == pytest.approx(
        0.5 / (16 * math.pi), rel=1e-12)


def test_energy_identity_zero_everywhere():
    m = DiscreteMeasure([[0.0, 0.0], [2.0, 1.0]], [0.5, 0.5])
    plan = solve_exact(m, m, P2)
    for r in (0.5, 1.0, 4.0):
        assert energy_E(plan, r, P2) == 0.0


def test_energy_monotone_under_restriction():
    rng = np.random.default_rng(5)
    lam = uniform_cloud(rng, 20, scale=2.0)
    mu = uniform_cloud(rng, 20, scale=2.0)
    plan = solve_exact(lam, mu, P2)
    full = energy_E(plan, 3.0, P2)
    for seed in range(5):
        keep = np.random.default_rng(seed).uniform(size=len(plan.masses)) < 0.6
        if not keep.any():
            continue
        i, j, m = plan.idx_source[keep], plan.idx_target[keep], plan.masses[keep]
        src = DiscreteMeasure(plan.source.points,
                              np.bincount(i, weights=m, minlength=plan.source.n_atoms))
        tgt = DiscreteMeasure(plan.target.points,
                              np.bincount(j, weights=m, minlength=plan.target.n_atoms))
        sub = TransportPlan(src, tgt, i, j, m)
        assert energy_E(sub, 3.0, P2) <= full + 1e-15


def test_wc_symmetry():
    rng = np.random.default_rng(9)
    for spec in SPECS:
        lam = uniform_cloud(rng, 8)
        mu = uniform_cloud(rng, 8)
        assert transport_cost(lam, mu, spec) == pytest.approx(
            transport_cost(mu, lam, spec), abs=1e-10)


def test_data_self_quadrature_is_zero():
    quad = lebesgue_quadrature(Ball.at_origin(4.0), 64)
    lam = DiscreteMeasure(quad.points, quad.weights)
    assert 4.0 ** P2.p * data_D(lam, lam, 4.0, P2, 64) <= 1e-20


def test_data_misaligned_quadratures_small():
    # polar grids on B_4 at 12 vs 11 rings, dr = 4/n.  A point at angle phi
    # from the midpoint of a ring-j cell, |phi| <= pi/(6(2j+1)), lies at a
    # squared distance <= (dr/2)^2 + r r_mid phi^2 <= dr^2 (1/4 + pi^2/72)
    # = delta_n^2 from it, so W(q_n, dx) <= |B_4| delta_n^2 / 2.  sqrt(2 W)
    # is a metric, so 4^2 D = 2 W(q_12, q_11) / |B_4| <= (delta_12 + delta_11)^2
    fine = lebesgue_quadrature(Ball.at_origin(4.0), 12)
    lam = DiscreteMeasure(fine.points, fine.weights)
    delta = [4.0 / n * math.sqrt(0.25 + math.pi ** 2 / 72.0) for n in (12, 11)]
    assert 4.0 ** P2.p * data_D(lam, lam, 4.0, P2, 11) <= sum(delta) ** 2


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"p{s.p}")
def test_data_kappa_terms_analytic(spec):
    delta = 0.3
    quad = lebesgue_quadrature(Ball.at_origin(2.0), 12)
    lam = DiscreteMeasure(quad.points, quad.weights)
    mu = lam.with_mass(lam.total_mass * (1.0 + delta))
    want = 2.0 ** spec.p * delta ** spec.p / (1.0 + delta) ** (spec.p - 1.0)
    got = 2.0 ** spec.p * data_D(lam, mu, 2.0, spec, 12)
    assert got == pytest.approx(want, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(SPECS + [ANISO]), st.floats(1.5, 3.0))
def test_data_D_is_invariant_under_reflection(seed, spec, radius):
    # x2 -> -x2 maps B_R, its polar quadrature and both costs onto
    # themselves, so each half's LP value is unchanged; each certified
    # plan costs at most 1e-9 * scale * mass above its LP's optimum
    rng = np.random.default_rng(seed)
    lam, mu = (DiscreteMeasure(rng.normal(size=(25, 2)), rng.gamma(2.0, size=25))
               for _ in range(2))
    flip = np.array([1.0, -1.0])
    got = data_D(lam, mu, radius, spec, 6)
    mirrored = data_D(DiscreteMeasure(lam.points * flip, lam.weights),
                      DiscreteMeasure(mu.points * flip, mu.weights), radius, spec, 6)
    top = 4.0 if spec is ANISO else 1.0  # largest eigenvalue of the cost's matrix
    scale = max((top * (2.0 * radius) ** 2) ** (spec.p / 2.0) / spec.p, 1.0)
    mass = lam.total_mass + mu.total_mass
    tol = 1e-9 * scale * mass / (math.pi * radius ** 2 * radius ** spec.p)
    assert abs(got - mirrored) <= tol + 1e-12 * abs(got)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(SPECS + [ANISO]), st.sampled_from([0.5, 2.0, 3.7]))
def test_smallness_is_covariant_under_dilation(seed, spec, s):
    # x -> s x with weights times s^2 keeps every density, and
    # c(s z) = s^p c(z), so the scale-invariant E and D at s R equal
    # those at R.  E reuses the coupling; each D half re-solves an LP
    # whose certified plan costs at most 1e-9 * scale * mass above its
    # optimum, on either side of the dilation
    rng = np.random.default_rng(seed)
    lam, mu = (DiscreteMeasure(rng.normal(size=(25, 2)), rng.gamma(2.0, size=25))
               for _ in range(2))
    mu = mu.with_mass(lam.total_mass)
    plan = solve_exact(lam, mu, spec)
    grown = TransportPlan(DiscreteMeasure(s * lam.points, s * s * lam.weights),
                          DiscreteMeasure(s * mu.points, s * s * mu.weights),
                          plan.idx_source, plan.idx_target, s * s * plan.masses)
    radii = (1.5, 2.5)
    got = compute_smallness(plan, spec, radii, 6)
    dilated = compute_smallness(grown, spec, [s * r for r in radii], 6)
    top = 4.0 if spec is ANISO else 1.0  # largest eigenvalue of the cost's matrix
    for r in radii:
        assert dilated.E_values[s * r] == pytest.approx(got.E_values[r], rel=1e-12, abs=1e-300)
        tol = 0.0
        for radius, mass in ((r, lam.total_mass + mu.total_mass),
                             (s * r, s * s * (lam.total_mass + mu.total_mass))):
            scale = max((top * (2.0 * radius) ** 2) ** (spec.p / 2.0) / spec.p, 1.0)
            tol += 1e-9 * scale * mass / (math.pi * radius ** 2 * radius ** spec.p)
        want = got.D_values[r]
        assert abs(dilated.D_values[s * r] - want) <= tol + 1e-12 * abs(want)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 24), st.integers(2, 24),
       st.floats(-math.pi, math.pi), st.floats(0.0, 1.0))
@pytest.mark.parametrize("spec", SPECS + [ANISO], ids=lambda s: f"{s.family}-p{s.p}")
def test_plan_cost_and_energy_are_rotation_invariant(spec, seed, n, m, theta, where):
    # turning both clouds by Q takes c_A(x - y) to c_{Q A Q^T}(Qx - Qy), so
    # the optimum is unchanged, and each certified plan costs at most
    # 1e-9 * scale * mass above it.  R sits midway between two adjacent
    # atom radii, so rounding in the turn moves no atom across the sphere
    rng = np.random.default_rng(seed)
    lam = gamma_cloud(rng, n)
    mu = gamma_cloud(rng, m).with_mass(lam.total_mass)
    q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    turned = spec if spec.matrix is None else \
        CostSpec.anisotropic(spec.p, q @ spec.matrix @ q.T, spec.lambda_cap)
    plan = solve_exact(lam, mu, spec)
    moved = solve_exact(*(DiscreteMeasure(m.points @ q.T, m.weights) for m in (lam, mu)), turned)
    tol = 2e-9 * cost_scale(lam, mu, spec) * lam.total_mass
    assert abs(moved.total_cost - plan.total_cost) <= tol
    radii = np.unique(np.concatenate([lam.radii(), mu.radii()]))
    k = min(int(where * (len(radii) - 1)), len(radii) - 2)
    r = 0.5 * (radii[k] + radii[k + 1])
    got, want = energy_E(moved, r, turned), energy_E(plan, r, spec)
    assert abs(got - want) <= tol / (math.pi * r ** 2 * r ** spec.p)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 24), st.integers(2, 24),
       st.sampled_from([0.5, 2.0, 3.7]))
@pytest.mark.parametrize("spec", SPECS + [ANISO], ids=lambda s: f"{s.family}-p{s.p}")
def test_plan_cost_scales_under_dilation_and_keeps_marginals(spec, seed, n, m, s):
    # c(s z) = s^p c(z), so dilating both clouds by s scales the optimum by
    # s^p; each certified plan costs at most 1e-9 * scale * mass above its
    # LP's optimum.  Row and column sums are the clouds' weights to the
    # kernel's marginal tolerance
    rng = np.random.default_rng(seed)
    lam = gamma_cloud(rng, n)
    mu = gamma_cloud(rng, m).with_mass(lam.total_mass)
    grown = [DiscreteMeasure(s * c.points, c.weights) for c in (lam, mu)]
    plan, dilated = solve_exact(lam, mu, spec), solve_exact(*grown, spec)
    scale = max(cost_scale(*grown, spec), s ** spec.p * cost_scale(lam, mu, spec))
    assert abs(dilated.total_cost - s ** spec.p * plan.total_cost) <= 2e-9 * scale * lam.total_mass
    for got in (plan, dilated):
        rows = np.bincount(got.idx_source, weights=got.masses, minlength=n)
        cols = np.bincount(got.idx_target, weights=got.masses, minlength=m)
        assert np.abs(rows - lam.weights).max() <= 1e-10 * lam.total_mass
        assert np.abs(cols - mu.weights).max() <= 1e-10 * lam.total_mass


@pytest.mark.parametrize("n", [8, 32])
def test_data_point_vs_uniform_disc(n):
    # the point's only plan sends every cell to the origin: its W-term is
    # sum_j pi dr^2 (2j+1) r_j^2 / 2 / pi with r_j = (j + 1/2) dr, dr = 1/n,
    # which is 1/4 - 1/(8 n^2); mu against its own quadrature costs 0
    lam = DiscreteMeasure([[0.0, 0.0]], [math.pi])
    quad = lebesgue_quadrature(Ball.at_origin(1.0), n)
    mu = DiscreteMeasure(quad.points, quad.weights)
    got = 1.0 ** P2.p * data_D(lam, mu, 1.0, P2, n)
    assert got == pytest.approx(0.25 - 1.0 / (8 * n * n), rel=1e-12)


# ------------------------------------------------------ triangle and friends

def test_triangle_constant_frozen():
    assert triangle_constant(0.5, 2.0) == pytest.approx(3.0, rel=1e-12)
    assert triangle_constant(0.1, 2.0) == pytest.approx(11.0, rel=1e-10)
    assert triangle_constant(0.5, 3.0) == pytest.approx(
        1.5 / (math.sqrt(1.5) - 1.0) ** 2, rel=1e-12)
    for eps in (0.1, 0.5, 0.9):
        for spec in SPECS:
            assert triangle_constant(eps, spec.p) >= 1.0
    with pytest.raises(ValueError):
        triangle_constant(0.0, 2.0)
    with pytest.raises(ValueError):
        triangle_constant(1.5, 2.0)


def test_triangle_trivial_coincidences():
    rng = np.random.default_rng(2)
    m1 = uniform_cloud(rng, 5)
    m3 = uniform_cloud(rng, 5)
    rep = triangle_check(m1, m1, m3, 0.5, P2)
    assert rep.passed and rep.w12 == 0.0
    rep = triangle_check(m1, m3, m3, 0.5, P2)
    assert rep.passed and rep.lhs <= (1 + 0.5) * rep.w12 + 1e-12


def test_triangle_battery():
    failures = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m1, m2, m3 = (uniform_cloud(rng, 3) for _ in range(3))
        spec = SPECS[seed % 3]
        eps = (0.1, 0.5)[seed % 2]
        rep = triangle_check(m1, m2, m3, eps, spec)
        failures += not rep.passed
    assert failures == 0


def test_add_constant_degenerate_and_stable():
    m = DiscreteMeasure(on_axis([0.0, 1.0]), [0.5, 0.5])
    assert math.isnan(add_constant_check(m, m, P2))

    n, ratios = 40, []
    x = (np.arange(n) + 0.5) / n
    for shift in (0.05, 0.1, 0.2, 0.4):
        m1 = DiscreteMeasure(on_axis(x), np.full(n, 1.0 / n))
        m2 = DiscreteMeasure(on_axis(x + shift), np.full(n, 1.0 / n))
        ratios.append(add_constant_check(m1, m2, P2))
    ratios = np.array(ratios)
    assert np.all((1.5 <= ratios) & (ratios <= 2.1))
    assert ratios.max() / ratios.min() <= 1.25


def test_add_constant_bounded_family():
    vals = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m1 = uniform_cloud(rng, 6)
        m2 = uniform_cloud(rng, 6)
        vals.append(add_constant_check(m1, m2, P2))
    vals = np.array(vals)
    assert np.all(np.isfinite(vals))
    assert vals.max() <= 10 * np.median(vals)


# -------------------------------------------------- field-vs-measure checks

def test_c2_constant_field_cancels():
    quad = lebesgue_quadrature(Ball.at_origin(2.0), 10)
    mu = DiscreteMeasure(quad.points, quad.weights)
    rep = c2measures_check(lambda P: np.full(len(P), 3.7), 1.0, mu, 2.0, P2,
                           resolution=10)
    assert rep.lhs <= 1e-12


def test_c2_uniform_measure_self_cancels():
    quad = lebesgue_quadrature(Ball.at_origin(2.0), 10)
    mu = DiscreteMeasure(quad.points, quad.weights).with_mass(1.3 * math.pi * 4.0)
    rep = c2measures_check(lambda P: np.sin(P[:, 0]) + P[:, 1] ** 2, 1.0, mu, 2.0,
                           P2, resolution=10)
    assert rep.lhs <= 1e-10
    assert rep.passed


def test_c2_linear_field_shifted_blob():
    # mu uniform on a ball centred at s*e1 carries first moment s*mass;
    # the uniform comparison on B_R has first moment zero by symmetry
    s, radius = 0.6, 2.0
    quad = lebesgue_quadrature(Ball((s, 0.0), 0.9), 10)
    mu = DiscreteMeasure(quad.points, quad.weights).with_mass(math.pi * radius ** 2)
    rep = c2measures_check(lambda P: P[:, 0], 1.0, mu, radius, P2, resolution=10)
    assert rep.lhs == pytest.approx(s * math.pi * radius ** 2, rel=1e-10)
    assert rep.passed


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_c2_seminorm_is_the_all_pairs_maximum(alpha):
    radius = 2.0
    quad = lebesgue_quadrature(Ball.at_origin(radius), 8)
    mu = DiscreteMeasure(quad.points, quad.weights)

    def xi(P):
        return np.sqrt(np.abs(P[:, 0])) + np.sin(2.0 * P[:, 1])

    rep = c2measures_check(xi, alpha, mu, radius, P2, resolution=8)
    i, j = np.triu_indices(quad.n_atoms, k=1)
    vals = xi(quad.points)
    want = np.max(np.abs(vals[i] - vals[j])
                  / np.linalg.norm(quad.points[i] - quad.points[j], axis=1) ** alpha)
    assert rep.holder_seminorm == pytest.approx(want, rel=1e-14)


def test_c2_mass_window_enforced():
    thin = DiscreteMeasure([[0.0, 0.0]], [0.1])
    with pytest.raises(ValueError):
        c2measures_check(lambda P: P[:, 0], 1.0, thin, 2.0, P2, resolution=8)


@pytest.mark.parametrize("xi", [
    lambda P: np.where(np.abs(P[:, 0] - 0.3) < 0.2, np.nan, np.sin(P[:, 0])),
    lambda P: np.where(P[:, 1] > 1.5, np.inf, P[:, 0]),
    lambda P: P,
], ids=["nan", "inf", "two_per_point"])
def test_c2_field_must_be_finite_and_scalar(xi):
    # a NaN field gave lhs nan next to a finite seminorm of the finite
    # values, and the seminorm sweep is exact only for finite fields
    quad = lebesgue_quadrature(Ball.at_origin(2.0), 8)
    mu = DiscreteMeasure(quad.points * 0.99, quad.weights)
    with pytest.raises(ValueError, match="finite value per point"):
        c2measures_check(xi, 1.0, mu, 2.0, P2, resolution=8)


# ---------------------------------------------------- localisation

def test_localisation_interior_instance_exact():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.5, 0.5, size=(20, 2))
    lam = DiscreteMeasure(pts, np.full(20, 1 / 20))
    mu = DiscreteMeasure(pts + 0.05 * rng.normal(size=(20, 2)), np.full(20, 1 / 20))
    plan = solve_exact(lam, mu, P2)
    rep = localisation_check(plan, 2.0, P2, delta=0.25, tau=10.0, resolution=8)
    assert rep.lhs == pytest.approx(plan.total_cost, rel=1e-12)
    assert rep.passed
    assert rep.smallness == 4 ** P2.p * compute_smallness(plan, P2, (4.0,), 8).total(4.0)


def test_localisation_single_crossing():
    lam = DiscreteMeasure([[2.5, 0.0], [0.3, 0.3]], [1.0, 1.0])
    mu = DiscreteMeasure([[0.0, 0.0], [0.3, 0.3]], [1.0, 1.0])
    plan = solve_exact(lam, mu, P2)
    rep = localisation_check(plan, 1.0, P2, delta=0.25, tau=100.0, resolution=8)
    assert rep.lhs > 0.0 and rep.passed


def test_localisation_radius_outside_the_window_rejected():
    # past R = 3 the window drops crossing mass the restricted marginals keep
    lam = DiscreteMeasure([[3.2, 0.0], [0.5, 0.0]], [1.0, 1.0])
    mu = DiscreteMeasure([[3.9, 0.0], [0.6, 0.0]], [1.0, 1.0])
    plan = solve_exact(lam, mu, P2)
    for radius in (3.5, 0.0):
        with pytest.raises(ValueError, match="radius must lie"):
            localisation_check(plan, radius, P2, delta=0.25, tau=10.0, resolution=8)


# ------------------------------------------------ data restriction

def test_data_restriction_quadrature_degenerate():
    # scan radii on the measure's own ring boundaries: every restriction is
    # again an exact quadrature, so both sides of the comparison vanish
    quad = lebesgue_quadrature(Ball.at_origin(4.0), 8)
    mu = DiscreteMeasure(quad.points, quad.weights)
    rep = data_restriction_check(mu, P2, radii=[2.0, 2.5, 3.0], resolution=8)
    assert rep.degenerate and rep.passed
    assert rep.d4_half <= 1e-12
    assert rep.integral_estimate <= 1e-12


def test_data_restriction_cloud_finite():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3.9, 3.9, size=(120, 2))
    pts = pts[np.linalg.norm(pts, axis=1) < 3.95]
    mu = DiscreteMeasure(pts, np.full(len(pts), 16 * math.pi / len(pts)))
    rep = data_restriction_check(mu, P2, resolution=8)
    assert not rep.degenerate
    assert np.isfinite(rep.ratio) and rep.passed
    assert rep.ratio <= 60.0


@pytest.mark.parametrize("radii", [[2.5], [2.5, 2.5]])
def test_data_restriction_needs_two_distinct_radii(radii):
    mu = DiscreteMeasure([[0.5, 0.0], [2.7, 0.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="2 distinct"):
        data_restriction_check(mu, P2, radii=radii, resolution=8)


# ------------------------------------------------------- smallness, files

def test_compute_smallness_nonnegative():
    rng = np.random.default_rng(6)
    lam = uniform_cloud(rng, 25, scale=1.5)
    mu = uniform_cloud(rng, 25, scale=1.5)
    plan = solve_exact(lam, mu, P2)
    rep = compute_smallness(plan, P2, (1.0, 2.0, 4.0), 8)
    assert all(v >= 0 for v in rep.E_values.values())
    assert all(v >= 0 for v in rep.D_values.values())
    assert rep.total(4.0) == rep.E_values[4.0] + rep.D_values[4.0]
