"""Measure bookkeeping tests: restriction, quadrature, projection, mollification."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from otlab.measures import (
    ANNULUS_EPS,
    Ball,
    BoundaryData,
    DiscreteMeasure,
    kappa,
    lebesgue_quadrature,
    mollify_boundary,
    projection_lemma_check,
    radial_project,
    restrict,
)


def ring_cloud(rng, n, r_lo, r_hi, mass=1.0):
    r = rng.uniform(r_lo, r_hi, n)
    a = rng.uniform(0.0, 2.0 * math.pi, n)
    pts = np.stack([r * np.cos(a), r * np.sin(a)], axis=1)
    return DiscreteMeasure(pts, np.full(n, mass / n))


class TestRestrictAndKappa:
    def test_strict_interior(self):
        mu = DiscreteMeasure([[0.0, 0.0], [5.0, 0.0]], [1.0, 1.0])
        out = restrict(mu, Ball.at_origin(1.0))
        assert out.n_atoms == 1 and out.total_mass == 1.0

    def test_boundary_atom_excluded(self):
        mu = DiscreteMeasure([[1.0, 0.0]], [1.0])
        assert restrict(mu, Ball.at_origin(1.0)).n_atoms == 0

    def test_far_atom_kept_without_overflow(self):
        # the squared norm of (1e190, 0) overflows to inf, which read the
        # atom as outside B_1e200 and dropped it
        ball = Ball.at_origin(1e200)
        assert ball.contains(np.array([[1e190, 0.0], [0.0, -1e190]])).tolist() == [True, True]
        mu = DiscreteMeasure([[1e190, 0.0], [2e200, 0.0]], [1.0, 2.0])
        assert restrict(mu, ball).total_mass == 1.0
        # on the line the norm is |x|: points left of the ball stay outside
        line = Ball.at_origin(1.0, dim=1)
        assert line.contains(np.array([[-2.0], [-1.0], [0.5]])).tolist() == [False, False, True]

    def test_empty_passthrough(self):
        out = restrict(DiscreteMeasure.empty(2), Ball.at_origin(1.0))
        assert out.n_atoms == 0

    def test_idempotent_and_monotone(self):
        rng = np.random.default_rng(3)
        mu = DiscreteMeasure(rng.normal(size=(200, 2)), rng.uniform(0, 1, 200))
        ball = Ball.at_origin(0.8)
        once = restrict(mu, ball)
        twice = restrict(once, ball)
        assert once.total_mass <= mu.total_mass
        assert np.array_equal(once.points, twice.points)
        assert np.array_equal(once.weights, twice.weights)

    def test_uniform_density(self):
        mu = DiscreteMeasure([[0.1, 0.0], [-0.2, 0.3]], [1.0, 1.0])
        assert kappa(mu, Ball.at_origin(1.0)) == pytest.approx(2.0 / math.pi)
        assert kappa(DiscreteMeasure.empty(2), Ball.at_origin(1.0)) == 0.0

    def test_quadrature_density_is_one(self):
        q = lebesgue_quadrature(Ball.at_origin(4.0), 80)
        assert kappa(q, Ball.at_origin(2.0)) == pytest.approx(1.0, abs=1e-3)


class TestLebesgueQuadrature:
    def test_mass_is_exact(self):
        for res in (2, 7, 40):
            q = lebesgue_quadrature(Ball.at_origin(1.0), res)
            assert q.total_mass == pytest.approx(math.pi, abs=1e-12)

    def test_line_mass(self):
        q = lebesgue_quadrature(Ball.at_origin(4.0, dim=1), 10)
        assert q.total_mass == pytest.approx(8.0, abs=1e-12)

    def test_second_moment_second_order(self):
        # int_{B_1} |x|^2 dx = pi/2; midpoint error must decay like res^{-2}
        errs = []
        for res in (20, 40):
            q = lebesgue_quadrature(Ball.at_origin(1.0), res)
            m2 = float(np.sum(q.weights * np.sum(q.points ** 2, axis=1)))
            errs.append(abs(m2 - math.pi / 2.0))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)

    def test_nested_grids_share_atoms(self):
        # ring width 1/10 divides both radii, so the B_2 grid is exactly
        # the interior part of the B_4 grid
        q4 = lebesgue_quadrature(Ball.at_origin(4.0), 40)
        q2 = lebesgue_quadrature(Ball.at_origin(2.0), 20)
        inner = restrict(q4, Ball.at_origin(2.0))
        order4 = np.lexsort(inner.points.T)
        order2 = np.lexsort(q2.points.T)
        assert np.allclose(inner.points[order4], q2.points[order2], atol=1e-12)
        assert np.allclose(inner.weights[order4], q2.weights[order2], atol=1e-14)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            lebesgue_quadrature(Ball.at_origin(1.0), 1)


class TestRadialProjection:
    def test_single_atom_lands_in_its_angular_bin(self):
        bd = radial_project(DiscreteMeasure([[0.5, 0.0]], [1.0]), 2.0, 16)
        assert bd.masses[0] == 1.0 and bd.total_mass == 1.0

    def test_origin_atom_rejected(self):
        with pytest.raises(ValueError):
            radial_project(DiscreteMeasure([[0.0, 0.0]], [1.0]), 1.0, 8)

    def test_mass_exact(self):
        rng = np.random.default_rng(5)
        mu = ring_cloud(rng, 500, 0.5, 3.0, mass=2.75)
        bd = radial_project(mu, 2.0, 37)
        assert bd.total_mass == pytest.approx(2.75, abs=1e-12)

    def test_rotation_by_one_bin_permutes(self):
        rng = np.random.default_rng(6)
        mu = ring_cloud(rng, 300, 0.5, 3.0)
        n = 24
        a = 2.0 * math.pi / n
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        mu_r = DiscreteMeasure(mu.points @ rot.T, mu.weights)
        b0 = radial_project(mu, 2.0, n)
        b1 = radial_project(mu_r, 2.0, n)
        assert np.allclose(np.roll(b0.masses, 1), b1.masses, atol=1e-12)

    def test_uniform_ring_near_uniform_bins(self):
        rng = np.random.default_rng(0)
        mu = ring_cloud(rng, 4000, 1.9, 1.9)
        bd = radial_project(mu, 2.0, 8)
        assert np.abs(bd.masses - 1.0 / 8.0).max() <= 1.0 / math.sqrt(4000)

    def test_line_projection_splits_by_sign(self):
        mu = DiscreteMeasure([[-0.5], [0.25], [3.0]], [1.0, 2.0, 4.0])
        bd = radial_project(mu, 1.0, 1)
        assert bd.dim == 1
        assert bd.masses.tolist() == [1.0, 6.0]


class TestMollification:
    def test_constant_fixed_point(self):
        b = BoundaryData(2.0, np.ones(32))
        out = mollify_boundary(b, 4.0 * b.bin_width)
        assert np.abs(out.masses - 1.0).max() < 1e-12

    def test_spike_support_and_symmetry(self):
        n = 32
        spike = np.zeros(n)
        spike[5] = 2.0
        out = mollify_boundary(BoundaryData(1.0, spike), 3.0 * 2.0 * math.pi / n)
        nz = np.nonzero(out.masses)[0]
        assert len(nz) <= 7
        assert out.total_mass == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(out.masses[5 - 2:5], out.masses[5 + 2:5:-1], atol=1e-14)

    def test_scale_below_bin_width_rejected(self):
        b = BoundaryData(1.0, np.ones(16))
        with pytest.raises(ValueError):
            mollify_boundary(b, 0.5 * b.bin_width)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_scale_rejected_by_name(self, r):
        # nan used to fail converting the tap count to int, inf overflowed it
        with pytest.raises(ValueError, match=f"mollification scale r = {r}"):
            mollify_boundary(BoundaryData(1.0, np.ones(16)), r)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_mass_conservation_and_positivity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 64))
        masses = rng.uniform(0.0, 3.0, n)
        b = BoundaryData(1.5, masses)
        out = mollify_boundary(b, rng.uniform(1.0, 4.0) * b.bin_width)
        assert out.total_mass == pytest.approx(b.total_mass, abs=1e-12)
        assert np.all(out.masses >= 0.0)
        assert out.densities.max() <= b.densities.max() * (1.0 + 1e-12)

    @pytest.mark.parametrize("n, bins", [(5, 9.5), (7, 1.0), (16, 3.0), (32, 4.2), (64, 12.7)])
    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_wrapped_ndimage_convolution(self, n, bins, signed):
        # the kernel has 2 floor(bins) + 1 taps, so (5, 9.5) wraps it
        # around the histogram more than once
        rng = np.random.default_rng(n)
        masses = rng.normal(size=n) if signed else rng.uniform(0.0, 3.0, n)
        b = BoundaryData(1.0, masses, signed=signed)
        r = bins * b.bin_width
        k = int(math.floor(r / b.bin_width))
        kern = 1.0 + np.cos(math.pi * np.arange(-k, k + 1) * b.bin_width / r)
        want = ndimage.convolve1d(masses, kern / kern.sum(), mode="wrap")
        if not signed:
            want = np.maximum(want, 0.0)
        got = mollify_boundary(b, r).masses
        assert np.abs(got - want).max() <= 1e-14 * np.abs(masses).max()

    def test_linearity(self):
        rng = np.random.default_rng(9)
        m1, m2 = rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)
        r = 3.0 * 2.0 * math.pi / 20
        a = mollify_boundary(BoundaryData(1.0, m1 + 2.0 * m2), r)
        b1 = mollify_boundary(BoundaryData(1.0, m1), r)
        b2 = mollify_boundary(BoundaryData(1.0, m2), r)
        assert np.allclose(a.masses, b1.masses + 2.0 * b2.masses, atol=1e-12)


class TestProjectionEstimate:
    def test_uniform_on_sphere_hits_jensen_equality(self):
        n = 64
        th = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        mu = DiscreteMeasure(np.stack([2.0 * np.cos(th), 2.0 * np.sin(th)], 1),
                             np.full(n, 1.0 / n))
        chk = projection_lemma_check(mu, 2.0, n)
        assert chk.degenerate == "support on a single sphere"
        assert chk.lower_ratio == pytest.approx(1.0, rel=1e-9)

    def test_annulus_cloud_two_sided(self):
        rng = np.random.default_rng(0)
        mu = ring_cloud(rng, 3000, 1.9, 2.1)
        chk = projection_lemma_check(mu, 2.0, 24)
        assert chk.degenerate is None
        assert chk.lower_ratio >= 1.0 - 1e-9
        assert chk.upper_ratio >= 1.0
        assert chk.passed

    def test_offset_spike_has_finite_positive_ratios(self):
        mu = DiscreteMeasure([[2.0 * 1.05, 0.0], [1.94, 0.1]], [1.0, 0.5])
        chk = projection_lemma_check(mu, 2.0, 16)
        assert 0.0 < chk.lower_ratio < math.inf
        assert 0.0 < chk.upper_ratio < math.inf
        assert chk.passed

    def test_zero_measure_degenerate_pass(self):
        chk = projection_lemma_check(DiscreteMeasure.empty(2), 2.0, 8)
        assert chk.degenerate == "zero measure"
        assert chk.passed

    def test_support_violation_rejected(self):
        mu = DiscreteMeasure([[3.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            projection_lemma_check(mu, 2.0, 8)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_exponent_battery(self, p):
        rng = np.random.default_rng(11)
        for _ in range(5):
            lo = 1.0 - rng.uniform(0.02, ANNULUS_EPS)
            hi = 1.0 + rng.uniform(0.02, ANNULUS_EPS)
            mu = ring_cloud(rng, 2000, 2.0 * lo, 2.0 * hi, mass=rng.uniform(0.5, 2.0))
            chk = projection_lemma_check(mu, 2.0, 24, p=p)
            assert chk.lower_ratio >= 1.0 - 1e-9
            assert chk.upper_ratio >= 0.95


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0, 0.0]], [-1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [1.0])

    def test_ball_radius_positive(self):
        with pytest.raises(ValueError):
            Ball.at_origin(0.0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_ball_radius_must_be_finite(self, radius):
        # an infinite radius was accepted, with volume inf
        with pytest.raises(ValueError, match="radius must be finite"):
            Ball.at_origin(radius)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_boundary_radius_must_be_finite(self, radius):
        # an infinite radius was accepted and every density read 0
        with pytest.raises(ValueError, match="radius must be finite"):
            BoundaryData(radius, np.ones(4))

    def test_ball_volume(self):
        assert Ball.at_origin(3.0, dim=1).volume == 6.0
        assert Ball.at_origin(2.0).volume == pytest.approx(4.0 * math.pi)

    def test_ball_contains_rejects_points_of_another_dimension(self):
        with pytest.raises(ValueError, match="points must be"):
            Ball.at_origin(1.0, dim=1).contains([[0.5, 0.5], [0.9, -0.9]])
        with pytest.raises(ValueError, match="points must be"):
            Ball.at_origin(1.0).contains(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="points must be"):
            Ball.at_origin(1.0).contains(np.zeros(2))

    def test_boundary_data_invariants(self):
        with pytest.raises(ValueError):
            BoundaryData(1.0, [-0.5, 1.0])
        with pytest.raises(ValueError):
            BoundaryData(1.0, [1.0, 2.0, 3.0], dim=1)
        with pytest.raises(ValueError, match="dimension"):
            BoundaryData(1.0, [1.0, 2.0, 3.0], dim=3)

    def test_identity_equality_and_hash(self):
        # array fields make value equality ambiguous; equality is identity
        for make in (lambda: DiscreteMeasure([[0.0, 0.0]], [1.0]),
                     lambda: Ball.at_origin(1.0),
                     lambda: BoundaryData(1.0, [1.0, 2.0])):
            a, b = make(), make()
            assert a == a and a != b and len({a, b}) == 2
