"""Trajectory view of a plan: crossing times, boundary measures, radius scan.

Frozen reference values:

  * x=(3,0) -> y=(0,0), R=2: entry at t=1/3 (|X(t)| = 3-3t), exit at 1
  * path integrals: constant field -> t1-t0; x1 along (0,0)->(1,0) -> 1/2;
    |x|^2 along (1,0)->(-1,0) -> integral of (1-2t)^2 = 1/3
  * displacement-law exponent 1/(p+d): p=2, d=2 -> 1/4
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dot_oracle import einsum_windows, planar_stack, same_bits
from otlab import trajectories, transport
from otlab.costs import CostSpec
from otlab.measures import (
    Ball,
    DiscreteMeasure,
    lebesgue_quadrature,
    mollify_boundary,
    radial_project,
    restrict,
)
from otlab.transport import _rings_at, compute_smallness, data_D, solve_exact
from otlab.trajectories import (
    CrossingTimes,
    Trajectory,
    approximate_boundary_data,
    crossing_times,
    entry_exit_atoms,
    linfty_displacement,
    omega_mask,
    path_integral,
    select_radius,
)

P2 = CostSpec.radial(2.0)


def white_box_plan(lam, mu, pairing=None):
    """Diagonal (or explicitly paired) plan for mechanism tests."""
    base = solve_exact(lam, lam, P2)
    idx_t = np.arange(lam.n_atoms) if pairing is None else np.asarray(pairing)
    return dataclasses.replace(base, source=lam, target=mu,
                               idx_target=idx_t, total_cost=math.nan)


def random_pairing_plan(rng, n, radius):
    """Equal-weight clouds on the disk of the given radius, randomly paired."""
    def cloud():
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
        th = rng.uniform(0.0, 2.0 * math.pi, n)
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)

    w = np.full(n, 16.0 * math.pi / n)
    lam, mu = DiscreteMeasure(cloud(), w), DiscreteMeasure(cloud(), w)
    return white_box_plan(lam, mu, rng.permutation(n))


# ------------------------------------------------------------- crossings

def test_trajectory_parametrization():
    tr = Trajectory([1.0, 2.0], [3.0, -2.0], 0.5)
    assert np.allclose(tr.at(0.0), [1.0, 2.0])
    assert np.allclose(tr.at(1.0), [3.0, -2.0])
    mid = tr.at(np.array([0.0, 0.5, 1.0]))
    assert mid.shape == (3, 2) and np.allclose(mid[1], [2.0, 0.0])


@pytest.mark.parametrize("x, y, mass", [
    ([math.nan, 0.0], [0.0, 0.0], math.nan),
    ([math.inf, 0.0], [0.0, 0.0], 1.0),
    ([0.0, 0.0], [0.0, -math.inf], 1.0),
    ([3.0, 0.0], [0.0, 0.0], math.inf),
])
def test_trajectory_must_be_finite(x, y, mass):
    # a nan endpoint and mass constructed and crossing_times read None; an
    # infinite endpoint warned inside the crossing windows and read None
    with pytest.raises(ValueError, match="must be finite"):
        Trajectory(x, y, mass)


@pytest.mark.parametrize("x, y", [
    ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
    (0.0, 1.0),
    ([[0.0, 0.0]], [[1.0, 1.0]]),
    ([0.0, 0.0], [1.0, 1.0, 1.0]),
])
def test_trajectory_is_planar(x, y):
    # three-dimensional and scalar endpoints were accepted
    with pytest.raises(ValueError, match="endpoints must be 2-vectors"):
        Trajectory(x, y, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: Trajectory([0.0, 0.0], [1.0, 0.0], -1.0), "mass must be non-negative"),
    (lambda: CrossingTimes(0.6, 0.4), "need 0 <= sigma <= tau <= 1"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_crossing_frozen_examples():
    ct = crossing_times(Trajectory([3.0, 0.0], [0.0, 0.0], 1.0), 2.0)
    assert ct.sigma == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ct.tau == 1.0

    inside = crossing_times(Trajectory([0.5, 0.0], [0.0, 0.5], 1.0), 2.0)
    assert inside == CrossingTimes(0.0, 1.0)

    assert crossing_times(Trajectory([3.0, 0.0], [3.0, 1.0], 1.0), 2.0) is None


def test_crossing_passthrough_two_sided():
    ct = crossing_times(Trajectory([-3.0, 0.0], [3.0, 0.0], 1.0), 1.0)
    assert ct.sigma == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ct.tau == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("radius", [0.0, -2.0, math.nan, math.inf])
def test_window_radius_must_be_finite_and_positive(radius):
    # omega_mask at -2 read the R = 2 mask, entry_exit_atoms at -2 and nan
    # read empty measures, and crossing_times at inf read (0, 1)
    plan = solve_exact(DiscreteMeasure([[3.0, 0.0]], [1.0]), DiscreteMeasure([[0.0, 0.0]], [1.0]), P2)
    traj = Trajectory([3.0, 0.0], [0.0, 0.0], 1.0)
    for call in (omega_mask, entry_exit_atoms):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            call(plan, radius)
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        crossing_times(traj, radius)


@given(xy=st.integers(1, 9).flatmap(lambda n: st.tuples(planar_stack((n, 2)), planar_stack((n, 2)))),
       radius=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(1e-300, 1e150)))
# x . d sums two negative zeros in the first row, a still segment sits on the
# origin in the second, and 1e150 coordinates overflow b * b in the third
@example(xy=(np.array([[-0.0, 0.0], [0.0, -0.0], [1e150, -1e150]]),
             np.array([[1.0, -0.0], [0.0, -0.0], [-1e150, 1e-300]])), radius=1.0)
@settings(max_examples=300, deadline=None)
def test_windows_equal_the_einsum_form(xy, radius):
    # overflow and inf - inf happen alike in both forms
    with np.errstate(over="ignore", invalid="ignore"):
        got = trajectories._windows(*xy, radius)
        want = einsum_windows(*xy, radius)
    assert all(map(same_bits, got, want))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0.25, 0.5, 2.0, 7.5]))
def test_crossing_scaling_invariance(seed, s):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=2), rng.normal(size=2)
    r = float(rng.uniform(0.2, 2.0))
    a = crossing_times(Trajectory(x, y, 1.0), r)
    b = crossing_times(Trajectory(x * s, y * s, 1.0), r * s)
    if a is None:
        assert b is None
    else:
        assert b is not None
        assert a.sigma == pytest.approx(b.sigma, abs=1e-9)
        assert a.tau == pytest.approx(b.tau, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_crossing_interior_times_sit_on_sphere(seed):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=2) * 2, rng.normal(size=2) * 2
    r = float(rng.uniform(0.3, 1.5))
    ct = crossing_times(Trajectory(x, y, 1.0), r)
    if ct is None:
        return
    assert 0.0 <= ct.sigma <= ct.tau <= 1.0
    tr = Trajectory(x, y, 1.0)
    if ct.sigma > 0.0:
        assert abs(np.linalg.norm(tr.at(ct.sigma)) - r) <= 1e-10 * max(1.0, r)
    if ct.tau < 1.0:
        assert abs(np.linalg.norm(tr.at(ct.tau)) - r) <= 1e-10 * max(1.0, r)


# ------------------------------------------------------- boundary measures

def test_entry_exit_single_crossing_atoms():
    lam = DiscreteMeasure([[3.0, 0.0]], [1.0])
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
    plan = solve_exact(lam, mu, P2)
    f, g = entry_exit_atoms(plan, 2.0)
    assert f.n_atoms == 1 and g.n_atoms == 0
    assert np.allclose(f.points, [[2.0, 0.0]], atol=1e-12)
    assert f.weights[0] == 1.0
    assert abs(np.linalg.norm(f.points[0]) - 2.0) <= 1e-10


def test_entry_exit_interior_empty():
    m = DiscreteMeasure([[0.2, 0.1], [0.5, -0.3]], [0.5, 0.5])
    plan = solve_exact(m, m, P2)
    f, g = entry_exit_atoms(plan, 2.0)
    assert f.n_atoms == 0 and g.n_atoms == 0


def test_entry_exit_reversal_swaps_sides():
    rng = np.random.default_rng(12)
    lam = DiscreteMeasure(rng.uniform(-3.2, 3.2, (25, 2)), np.full(25, 1 / 25))
    mu = DiscreteMeasure(rng.uniform(-3.2, 3.2, (25, 2)), np.full(25, 1 / 25))
    plan = solve_exact(lam, mu, P2)
    back = dataclasses.replace(plan, source=plan.target, target=plan.source,
                               idx_source=plan.idx_target, idx_target=plan.idx_source)
    f, g = entry_exit_atoms(plan, 1.5)
    fb, gb = entry_exit_atoms(back, 1.5)
    assert np.allclose(np.sort(f.weights), np.sort(gb.weights))
    assert np.allclose(np.sort(g.weights), np.sort(fb.weights))
    assert f.total_mass == pytest.approx(gb.total_mass, abs=1e-12)


def test_flux_balance_invariant():
    rng = np.random.default_rng(3)
    lam = DiscreteMeasure(rng.uniform(-3.5, 3.5, (40, 2)), np.full(40, 1 / 40))
    mu = DiscreteMeasure(rng.uniform(-3.5, 3.5, (40, 2)), np.full(40, 1 / 40))
    plan = solve_exact(lam, mu, P2)
    for r in (1.0, 1.7, 2.5):
        f, g = entry_exit_atoms(plan, r)
        lam_r = lam.weights[np.linalg.norm(lam.points, axis=1) < r].sum()
        mu_r = mu.weights[np.linalg.norm(mu.points, axis=1) < r].sum()
        assert (f.total_mass - g.total_mass) == pytest.approx(mu_r - lam_r, abs=1e-10)


def test_entry_exit_histograms():
    lam = DiscreteMeasure([[3.0, 0.0]], [1.0])
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
    plan = solve_exact(lam, mu, P2)
    f, g = (radial_project(atoms, 2.0, 16) for atoms in entry_exit_atoms(plan, 2.0))
    assert f.masses[0] == pytest.approx(1.0)
    assert f.total_mass == pytest.approx(1.0)
    assert g.dim == 2 and np.array_equal(g.masses, np.zeros(16))


@given(st.floats(-math.pi, math.pi), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_crossings_rotate_with_the_plan(theta, seed):
    plan = random_pairing_plan(np.random.default_rng(seed), 40, 4.5)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    turned = dataclasses.replace(
        plan, source=DiscreteMeasure(plan.source.points @ rot.T, plan.source.weights),
        target=DiscreteMeasure(plan.target.points @ rot.T, plan.target.weights))
    for r in (1.2, 2.0, 2.7):
        assert np.array_equal(omega_mask(turned, r), omega_mask(plan, r))
        for a, b in zip(entry_exit_atoms(plan, r), entry_exit_atoms(turned, r)):
            assert np.array_equal(b.weights, a.weights)
            assert np.allclose(b.points, a.points @ rot.T, rtol=0.0, atol=1e-12)


def test_omega_mask_window():
    lam = DiscreteMeasure([[0.5, 0.0], [3.5, 0.0], [3.5, 3.5]], [1.0, 1.0, 1.0])
    mu = DiscreteMeasure([[0.6, 0.0], [0.0, 0.5], [3.5, 3.6]], [1.0, 1.0, 1.0])
    plan = white_box_plan(lam, mu)
    mask = omega_mask(plan, 1.0)
    # interior pair in; outside->inside crosser in; far pair out
    assert mask.tolist() == [True, True, False]


# ------------------------------------------------ approximable boundary data

def test_boundary_data_quiet_plan_zero():
    quad = lebesgue_quadrature(Ball.at_origin(4.0), 8)
    lam = DiscreteMeasure(quad.points, quad.weights)
    plan = solve_exact(lam, lam, P2)
    rep = approximate_boundary_data(plan, lam, lam, P2, 2.5, 32, 0.4, resolution=8)
    assert rep.f_bar.total_mass == 0.0
    assert rep.g_bar.total_mass == 0.0


def test_identity_equality_and_hash():
    quad = lebesgue_quadrature(Ball.at_origin(4.0), 8)
    lam = DiscreteMeasure(quad.points, quad.weights)
    plan = solve_exact(lam, lam, P2)
    for make in (lambda: Trajectory((0.0, 0.0), (1.0, 0.0), 1.0),
                 lambda: approximate_boundary_data(plan, lam, lam, P2, 2.5, 32, 0.4,
                                                   resolution=8)):
        a, b = make(), make()
        assert a == a and a != b and len({a, b}) == 2


def test_boundary_data_identity_composition():
    # mu equals the uniform quadrature, so the auxiliary plan is the identity
    # and the exit data is exactly the mollified projection of X(tau) itself
    quad = lebesgue_quadrature(Ball.at_origin(4.0), 12)
    mu = DiscreteMeasure(quad.points, quad.weights)
    k = 294  # ring at radius 2.5
    moved = quad.points.copy()
    moved[k] = (0.2, 0.1)
    lam = DiscreteMeasure(moved, quad.weights)
    plan = white_box_plan(lam, mu)

    radius, n_theta, moll = 2.2, 48, 0.4
    rep = approximate_boundary_data(plan, lam, mu, P2, radius, n_theta, moll,
                                    resolution=12)
    assert rep.kappa_mu == pytest.approx(1.0, abs=1e-12)
    assert rep.g_density_sup == pytest.approx(1.0, rel=1e-12)

    exit_atom = DiscreteMeasure([quad.points[k]], [quad.weights[k]])
    want = mollify_boundary(radial_project(exit_atom, radius, n_theta), moll)
    assert np.allclose(rep.g_bar.masses, want.masses, atol=1e-15)
    assert rep.g_bar.total_mass == pytest.approx(quad.weights[k], abs=1e-12)
    # the moved source atom starts inside B_R: no entry data, and the
    # side still reports lam's kappa
    assert rep.f_bar.total_mass == 0.0 and rep.f_density_sup == 0.0
    assert rep.kappa_lambda == pytest.approx(1.0, abs=1e-12)


def test_boundary_density_within_cap():
    rng = np.random.default_rng(11)
    n = 120
    pts = rng.uniform(-2.2, 2.2, size=(n, 2))
    disp = 0.08 * np.stack([np.sin(pts[:, 1]), np.cos(pts[:, 0])], axis=1)
    lam = DiscreteMeasure(pts, np.full(n, math.pi * 16 / n))
    mu = DiscreteMeasure(pts + disp, lam.weights)
    plan = solve_exact(lam, mu, P2)
    rep = approximate_boundary_data(plan, lam, mu, P2, 2.5, 48, 0.3, resolution=12)
    assert rep.f_density_sup <= rep.kappa_lambda * (1.0 + 1e-9)
    assert rep.g_density_sup <= rep.kappa_mu * (1.0 + 1e-9)


def gamma_disk_cloud(rng, n):
    """n gamma-weighted atoms, uniform on B_4, of total mass 16 pi."""
    r = 4.0 * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    w = rng.gamma(2.0, size=n)
    return DiscreteMeasure(np.stack([r * np.cos(th), r * np.sin(th)], 1),
                           w * 16.0 * math.pi / w.sum())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(20, 80), st.integers(20, 80),
       st.sampled_from([CostSpec.radial(1.5), P2, CostSpec.radial(3.0),
                        CostSpec.anisotropic(3.0, np.diag([1.0, 4.0]), 64.0)]),
       st.floats(1.5, 3.0))
def test_composed_boundary_density_is_at_most_kappa(seed, n, m, spec, radius):
    # a crossing atom hands on at most its plan mass, split by the row of
    # the auxiliary plan onto kappa dx, so no cell receives more than its
    # target mass kappa |cell|: the bound needs no headroom
    rng = np.random.default_rng(seed)
    lam = gamma_disk_cloud(rng, n)
    mu = gamma_disk_cloud(rng, m)
    plan = solve_exact(lam, mu, spec)
    rep = approximate_boundary_data(plan, lam, mu, spec, radius, 32, 0.4, resolution=6)
    b4 = Ball.at_origin(4.0)
    for sup, kappa, dropped, nu in ((rep.f_density_sup, rep.kappa_lambda, rep.f_dropped, lam),
                                    (rep.g_density_sup, rep.kappa_mu, rep.g_dropped, mu)):
        assert dropped >= 0.0
        # kappa comes from the marginal, also on a side without crossing
        # entries, which composes nothing and reads sup 0
        assert kappa == restrict(nu, b4).total_mass / b4.volume
        assert sup <= kappa * (1.0 + 1e-9)


def test_boundary_data_reports_mass_anchored_outside_b4():
    # one trajectory leaves B_R towards a target atom outside B_4, where the
    # uniform density the composition spreads into does not reach; R lies
    # in the B_3 window, between the source radius 2.9 and 3
    quad = lebesgue_quadrature(Ball.at_origin(4.0), 8)
    a, b, m = np.array([2.9, 0.0]), np.array([4.5, 0.0]), 0.05
    lam = DiscreteMeasure(np.vstack([quad.points, a]), np.append(quad.weights, m))
    mu = DiscreteMeasure(np.vstack([quad.points, b]), np.append(quad.weights, m))
    plan = white_box_plan(lam, mu)
    rep = approximate_boundary_data(plan, lam, mu, P2, 2.95, 32, 0.4, resolution=8)
    assert rep.g_dropped == pytest.approx(m, rel=1e-12)
    assert rep.g_bar.total_mass == 0.0
    assert rep.f_dropped == 0.0


def test_boundary_data_carries_the_crossing_mass():
    # every crossing entry's mass is either spread into the boundary data
    # or reported as dropped; clouds reaching past B_4 make both happen
    plan = random_pairing_plan(np.random.default_rng(5), 150, 4.6)
    lam, mu = plan.source, plan.target
    dropped = 0.0
    for r in (1.3, 2.1, 2.5, 2.9):
        f, g = entry_exit_atoms(plan, r)
        assert f.n_atoms and g.n_atoms
        rep = approximate_boundary_data(plan, lam, mu, P2, r, 48, 0.3, resolution=10)
        assert rep.f_bar.total_mass + rep.f_dropped == pytest.approx(f.total_mass, rel=1e-12)
        assert rep.g_bar.total_mass + rep.g_dropped == pytest.approx(g.total_mass, rel=1e-12)
        dropped += rep.f_dropped + rep.g_dropped
    assert dropped > 0.0


def test_boundary_data_refuses_a_radius_past_the_window():
    # at R = 3.5 two unit masses leave the sphere, but (3.2, 0) -> (3.8, 0)
    # has neither end in B_3: the data carried 1.0 and dropped 0
    lam = DiscreteMeasure([[3.2, 0.0], [2.9, 0.5], [0.5, 0.0]], np.ones(3))
    mu = DiscreteMeasure([[3.8, 0.0], [3.8, 0.5], [0.6, 0.0]], np.ones(3))
    plan = white_box_plan(lam, mu)
    assert entry_exit_atoms(plan, 3.5)[1].total_mass == 1.0
    for radius in (3.5, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="window"):
            approximate_boundary_data(plan, lam, mu, P2, radius, 16, 0.5, resolution=8)


@pytest.mark.parametrize("moll_scale", [math.nan, -1.0, 1e-6])
def test_boundary_data_checks_the_mollifier_without_crossings(moll_scale):
    # no trajectory meets the sphere of radius 2.5; the scale was checked
    # only where some did
    lam = DiscreteMeasure([[0.5, 0.0], [0.0, 0.5]], [1.0, 1.0])
    mu = DiscreteMeasure([[0.6, 0.0], [0.0, 0.6]], [1.0, 1.0])
    plan = white_box_plan(lam, mu)
    rep = approximate_boundary_data(plan, lam, mu, P2, 2.5, 16, 0.5, resolution=8)
    assert rep.f_bar.total_mass == rep.g_bar.total_mass == 0.0
    with pytest.raises(ValueError, match="mollification scale"):
        approximate_boundary_data(plan, lam, mu, P2, 2.5, 16, moll_scale, resolution=8)


@pytest.mark.parametrize("moll_scale", [math.nan, -1.0, 1e-6])
def test_boundary_data_checks_the_mollifier_before_any_lp(monkeypatch, moll_scale):
    # the scale was refused only after a side's B_4 composition LP
    rng = np.random.default_rng(5)
    lam = DiscreteMeasure(rng.uniform(-3.0, 3.0, (40, 2)), np.ones(40))
    mu = DiscreteMeasure(rng.uniform(-3.0, 3.0, (40, 2)), np.ones(40))
    plan = solve_exact(lam, mu, P2)
    assert all(side.total_mass > 0.0 for side in entry_exit_atoms(plan, 2.0))
    real = transport.solve_exact
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(transport, "solve_exact", counted)
    with pytest.raises(ValueError, match="mollification scale"):
        approximate_boundary_data(plan, lam, mu, P2, 2.0, 16, moll_scale, resolution=8)
    assert calls == []


# ------------------------------------------------------------ radius scan

def test_select_radius_quiet_ties_to_smallest():
    cands = [round(2.1 + 0.1 * j, 10) for j in range(9)]
    quad = lebesgue_quadrature(Ball.at_origin(4.0), 40)
    lam = DiscreteMeasure(quad.points, quad.weights)
    inner = np.where(np.linalg.norm(quad.points, axis=1) < 0.9)[0][:2]
    pairing = np.arange(lam.n_atoms)
    pairing[inner[0]], pairing[inner[1]] = inner[1], inner[0]
    plan = white_box_plan(lam, lam, pairing)
    sel = select_radius(plan, lam, lam, P2, candidates=cands, n_theta=32,
                        resolution=40)
    assert max(sel.scores.values()) <= 1e-12
    assert sel.selected == cands[0]
    assert min(sel.scores.values()) <= float(np.mean(list(sel.scores.values()))) + 1e-15


def test_select_radius_avoids_crossing_band():
    # one chord touching spheres only for R in (2.05, 2.5): the scan must
    # land above that band
    cands = [2.4, 2.6, 2.8]
    quad = lebesgue_quadrature(Ball.at_origin(4.0), 10)
    theta = 2 * math.acos(2.05 / 2.5)
    a = np.array([2.5, 0.0])
    b = 2.5 * np.array([math.cos(theta), math.sin(theta)])
    m = 0.05
    lam = DiscreteMeasure(np.vstack([quad.points, a]), np.append(quad.weights, m))
    mu = DiscreteMeasure(np.vstack([quad.points, b]), np.append(quad.weights, m))
    plan = white_box_plan(lam, mu)
    sel = select_radius(plan, lam, mu, P2, candidates=cands, n_theta=32,
                        resolution=10)
    assert sel.selected == 2.8
    crossing_cost = m * float(np.sum((a - b) ** 2)) / 2
    assert sel.components[2.4][0] == pytest.approx(crossing_cost, rel=1e-12)
    assert sel.components[2.6][0] == 0.0
    assert sel.components[2.8][0] == 0.0


def crossing_plan():
    """Random pairing on B_3.6 with crossing mass on both sides at every radius."""
    return random_pairing_plan(np.random.default_rng(3), 80, 3.6)


def test_select_radius_scores_the_public_boundary_data():
    plan = crossing_plan()
    lam, mu = plan.source, plan.target
    cands, n_theta = [2.2, 2.5, 2.8], 32
    # an explicit resolution, then both functions' defaults
    for res in ({"resolution": 8}, {}):
        sel = select_radius(plan, lam, mu, P2, candidates=cands, n_theta=n_theta, **res)
        resolution = res.get("resolution", 12)
        for r in cands:
            # the score's data term is the volume-only R^p D(R)
            assert sel.components[r][1] == r ** P2.p * data_D(lam, mu, r, P2,
                                                              _rings_at(r, resolution))
            f, g = entry_exit_atoms(plan, r)
            assert f.n_atoms and g.n_atoms
            rep = approximate_boundary_data(plan, lam, mu, P2, r, n_theta,
                                            moll_scale=4.0 * math.pi / n_theta, **res)
            assert sel.components[r][2] == rep.f_bar.lp_mass(2.0) + rep.g_bar.lp_mass(2.0)


def test_select_radius_composes_each_marginal_once(monkeypatch):
    plan = crossing_plan()
    lam, mu = plan.source, plan.target
    real = trajectories._plan_to_uniform
    calls = []

    def counted(nu, radius, *args):
        if radius == 4.0:
            calls.append(nu)
        return real(nu, radius, *args)

    monkeypatch.setattr(trajectories, "_plan_to_uniform", counted)
    select_radius(plan, lam, mu, P2, candidates=[2.2, 2.5, 2.8], n_theta=32, resolution=8)
    assert sum(nu is lam for nu in calls) == 1
    assert sum(nu is mu for nu in calls) == 1
    assert len(calls) == 2


def test_marginals_must_be_the_plans():
    # both functions index lam and mu by the plan's entry indices, so
    # reversed atoms read other masses at other points; they changed the
    # scores without an error
    plan = crossing_plan()
    lam, mu = plan.source, plan.target
    cands = [2.2, 2.5, 2.8]
    for bad_lam, bad_mu in ((DiscreteMeasure(lam.points[::-1], lam.weights[::-1]), mu),
                            (lam, DiscreteMeasure(mu.points[::-1], mu.weights[::-1])),
                            (lam, mu.with_mass(1.01 * mu.total_mass))):
        with pytest.raises(ValueError, match="marginal"):
            select_radius(plan, bad_lam, bad_mu, P2, candidates=cands, n_theta=32,
                          resolution=8)
        with pytest.raises(ValueError, match="marginal"):
            approximate_boundary_data(plan, bad_lam, bad_mu, P2, 2.5, 32, 0.4, resolution=8)
    # copies within the mass balance tolerance are the plan's marginals
    near = DiscreteMeasure(lam.points.copy(), lam.weights * (1.0 + 1e-12))
    want = select_radius(plan, lam, mu, P2, candidates=cands, n_theta=32, resolution=8)
    got = select_radius(plan, near, mu, P2, candidates=cands, n_theta=32, resolution=8)
    assert got.selected == want.selected


def test_select_radius_raises_for_a_side_without_mass_in_b4():
    # the entry at (4.8, 0) crosses every candidate sphere inwards, and
    # lam has no mass in B_4 to spread it over
    lam = DiscreteMeasure([[4.8, 0.0], [0.0, 4.2]], [1.0, 1.0])
    mu = DiscreteMeasure([[1.0, 0.0], [0.0, 4.2]], [1.0, 1.0])
    plan = white_box_plan(lam, mu)
    with pytest.raises(ValueError, match="no mass"):
        select_radius(plan, lam, mu, P2, candidates=[2.2, 2.5, 2.8], n_theta=32,
                      resolution=8)


def test_select_radius_refuses_candidates_outside_the_window():
    # 60 + 60 unit atoms over [-3.9, 3.9]^2: at R = 3.8 most crossing
    # entries have both ends outside B_3 and go uncounted, so a scan
    # over 2.5-3.8 that took every candidate selected 3.8
    rng = np.random.default_rng(1)
    lam = DiscreteMeasure(rng.uniform(-3.9, 3.9, (60, 2)), np.ones(60))
    mu = DiscreteMeasure(rng.uniform(-3.9, 3.9, (60, 2)), np.ones(60))
    plan = solve_exact(lam, mu, P2)
    for cands in (np.linspace(2.5, 3.8, 14), [0.0, 1.0, 2.0], [-1.0, 1.0, 2.0]):
        with pytest.raises(ValueError, match="window"):
            select_radius(plan, lam, mu, P2, candidates=cands, resolution=8)


def test_select_radius_needs_three_candidates():
    m = DiscreteMeasure([[0.1, 0.0]], [1.0])
    plan = solve_exact(m, m, P2)
    for cands in ([2.2, 2.6], [2.5, 2.5, 2.5]):
        with pytest.raises(ValueError, match="candidate radii"):
            select_radius(plan, m, m, P2, candidates=cands)


# ------------------------------------------------------- displacement law

def test_linfty_identity_zero():
    m = DiscreteMeasure([[0.3, 0.0], [0.0, 1.2]], [0.5, 0.5])
    plan = solve_exact(m, m, P2)
    rep = linfty_displacement(plan, P2, resolution=8)
    assert rep.sup_disp == 0.0
    assert rep.exponent == pytest.approx(0.25)


def test_linfty_ignores_entries_outside_window():
    lam = DiscreteMeasure([[3.5, 0.0], [0.1, 0.0]], [1.0, 1.0])
    mu = DiscreteMeasure([[3.5, 2.0], [0.2, 0.0]], [1.0, 1.0])
    plan = white_box_plan(lam, mu)
    rep = linfty_displacement(plan, P2, resolution=8)
    assert rep.sup_disp == pytest.approx(0.1, abs=1e-12)
    assert rep.smallness == 4 ** P2.p * compute_smallness(plan, P2, (4.0,), 8).total(4.0)
    # (3.5, 2) lies outside B_4, but its entry is not in the window
    assert rep.inside_b4


def test_linfty_inside_b4_gate():
    good = DiscreteMeasure([[2.9, 0.0], [0.0, 0.0]], [1.0, 1.0])
    good2 = DiscreteMeasure([[2.8, 0.1], [0.1, 0.0]], [1.0, 1.0])
    assert linfty_displacement(white_box_plan(good, good2), P2, resolution=8).inside_b4

    # the window entry (2.9, 0) -> (5.5, 0) leaves B_4; the second atoms keep
    # each marginal's mass inside B_4 so that D(4) is defined
    lam = DiscreteMeasure([[2.9, 0.0], [0.1, 0.0]], [1.0, 1.0])
    mu = DiscreteMeasure([[5.5, 0.0], [0.2, 0.0]], [1.0, 1.0])
    assert not linfty_displacement(white_box_plan(lam, mu), P2, resolution=8).inside_b4


@pytest.mark.parametrize("inner, outer", [(0, 1), (1, 0)], ids=["target_out", "source_out"])
def test_linfty_marginal_without_mass_in_b4(inner, outer):
    # one marginal is a single atom outside B_4, so D(4) is undefined; the
    # gate still reads the window entry leaving B_4
    ends = [DiscreteMeasure([[2.9, 0.0]], [1.0]), DiscreteMeasure([[5.5, 0.0]], [1.0])]
    plan = solve_exact(ends[inner], ends[outer], P2)
    rep = linfty_displacement(plan, P2, resolution=8)
    assert not rep.inside_b4
    assert rep.sup_disp == pytest.approx(2.6, rel=1e-12)
    assert rep.smallness == math.inf
    assert rep.bound_check == 0.0


# ------------------------------------------------------------ line integrals

def test_path_integral_frozen_values():
    seg = Trajectory([0.0, 0.0], [1.0, 0.0], 1.0)
    assert path_integral(seg, lambda P: np.ones(len(P)), 0.2, 0.7) == pytest.approx(0.5)
    assert path_integral(seg, lambda P: P[:, 0], 0.0, 1.0) == pytest.approx(0.5)
    across = Trajectory([1.0, 0.0], [-1.0, 0.0], 1.0)
    assert path_integral(across, lambda P: np.sum(P ** 2, axis=1), 0.0, 1.0) == \
        pytest.approx(1.0 / 3.0, rel=1e-12)
    assert path_integral(seg, lambda P: P[:, 0], 0.4, 0.4) == 0.0
    with pytest.raises(ValueError):
        path_integral(seg, lambda P: P[:, 0], 0.7, 0.2)
    with pytest.raises(ValueError):
        path_integral(seg, lambda P: P[:, 0], -0.1, 0.5)
