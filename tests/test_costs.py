"""Cost family unit tests.

Reference constants here were frozen from independent dense-grid
maximizations (97 angles x 121 log radii x 57 interpolation weights,
refined once) run separately from the library code; the library's own
coarse-grid estimates must reproduce them to the stated tolerance.
"""
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

from dot_oracle import (
    coordinate_distance,
    einsum_metric,
    planar_stack,
    same_bits,
    sum_fenchel_young,
)
from grid_oracle import grid_constant_loop
from holder_oracle import holder_maxima_rows
from newton_oracle import broadcast_dual_hessian
from otlab import costs
from otlab.costs import (
    CostSpec,
    cost_eval,
    cost_grad,
    dual_eval,
    dual_grad,
    u_p,
    v_p,
    verify_assumptions,
)

# sharp structural constants of the radial family, frozen from the
# independent grid oracle: {p: (elliptic, growth, cgrowth, controlled)}.
# growth = p is exact (lower bound on a ray); elliptic(3) = 3 sqrt(2) and
# the p=2 column are exact equality cases; the rest are grid values
RADIAL_SHARP = {
    1.5: (3.4306, 1.5, 2.0 ** -0.5, 2.0 ** 0.5),
    2.0: (2.0, 2.0, 0.5, 1.0),
    3.0: (3.0 * 2.0 ** 0.5, 3.0, 1.0 / 3.0, 1.0),
}
# conjugate convexity constants, frozen from the same oracle; they equal
# the reciprocal ellipticity constants at the conjugate exponent
DUAL_CONVEXITY = {1.5: 0.2357, 2.0: 0.5, 3.0: 0.2915}


def vec(*xs):
    return np.array(xs, dtype=float)


class TestClosedFormExamples:
    def test_dual_eval_cubic_cost(self):
        s = CostSpec.radial(3.0)
        # maximizer of <xi,x> - |x|^3/3 at xi=(8,0) sits at |x| = sqrt(8)
        got = dual_eval(s, vec(8.0, 0.0))
        assert got == pytest.approx(15.084944665313014, rel=1e-12)
        assert got == pytest.approx((2.0 / 3.0) * 8.0 ** 1.5, rel=1e-12)

    def test_dual_grad_cubic_cost(self):
        s = CostSpec.radial(3.0)
        g = dual_grad(s, vec(8.0, 0.0))
        assert g == pytest.approx(vec(math.sqrt(8.0), 0.0), rel=1e-12)

    def test_dual_grad_subquadratic(self):
        s = CostSpec.radial(1.5)
        assert dual_grad(s, vec(4.0, 0.0)) == pytest.approx(vec(16.0, 0.0), rel=1e-12)

    def test_quadratic_self_duality(self):
        s = CostSpec.radial(2.0)
        xi = vec(0.3, -1.7)
        assert dual_eval(s, xi) == pytest.approx(0.5 * np.dot(xi, xi), rel=1e-14)
        assert dual_grad(s, xi) == pytest.approx(xi, rel=1e-14)


class TestGradientInversion:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.0])
    def test_radial_round_trip(self, p):
        s = CostSpec.radial(p) if p in (1.5, 2.0, 3.0) else CostSpec.radial(p, lambda_cap=50.0)
        rng = np.random.default_rng(0)
        z = rng.normal(size=(64, 2)) * 10.0 ** rng.uniform(-2, 2, size=(64, 1))
        back = dual_grad(s, cost_grad(s, z))
        assert np.allclose(back, z, rtol=1e-10, atol=1e-12)

    def test_anisotropic_matches_quadratic_form_conjugate(self):
        a = CostSpec.anisotropic(3.0, np.diag([1.0, 4.0]), 64.0)
        ainv = np.diag([1.0, 0.25])
        rng = np.random.default_rng(1)
        xi = rng.normal(size=(128, 2)) * 10.0 ** rng.uniform(-3, 3, size=(128, 1))
        m = np.einsum("ni,ij,nj->n", xi, ainv, xi)
        # closed-form conjugate of (z.Az)^{p/2}/p, used as oracle only
        want_val = m ** (1.5 / 2.0) / 1.5
        want_grad = (m ** (-0.25))[:, None] * (xi @ ainv)
        assert np.allclose(dual_eval(a, xi), want_val, rtol=1e-11)
        assert np.allclose(dual_grad(a, xi), want_grad, rtol=1e-11)

    def test_anisotropic_round_trip_non_diagonal(self):
        a = np.array([[2.0, 0.7], [0.7, 1.0]])
        s = CostSpec.anisotropic(2.5, a, 40.0)
        rng = np.random.default_rng(2)
        z = rng.normal(size=(64, 2))
        assert np.allclose(dual_grad(s, cost_grad(s, z)), z, rtol=1e-10)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 6.0])
    def test_anisotropic_inverse_round_trip_wide_range(self, p):
        # dual_grad inverts cost_grad for every exponent, not only near
        # p in [1.5, 4], and at covectors from 1e-3 to 1e3
        s = CostSpec.anisotropic(p, [[1.3, 0.2], [0.2, 0.8]], 64.0)
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(256, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        xi = dirs * np.logspace(-3.0, 3.0, 256)[:, None]
        back = cost_grad(s, dual_grad(s, xi))
        rel = np.linalg.norm(back - xi, axis=1) / np.linalg.norm(xi, axis=1)
        assert rel.max() < 1e-12

    def test_zero_covector(self):
        for s in (CostSpec.radial(1.5), CostSpec.anisotropic(3.0, np.eye(2), 16.0)):
            assert np.all(dual_grad(s, vec(0.0, 0.0)) == 0.0)
            assert dual_eval(s, vec(0.0, 0.0)) == 0.0


def rotation(a):
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


@st.composite
def anisotropic_covectors(draw):
    """An anisotropic cost of random exponent, eigenvalues and eigenbasis,
    and a covector with |xi| log-uniform in [1e-3, 1e3]."""
    p = draw(st.floats(1.2, 6.0))
    r = rotation(draw(st.floats(0.0, math.pi)))
    eig = [draw(st.floats(0.25, 4.0)) for _ in range(2)]
    b = draw(st.floats(0.0, 2.0 * math.pi))
    xi = 10.0 ** draw(st.floats(-3.0, 3.0)) * vec(math.cos(b), math.sin(b))
    return CostSpec.anisotropic(p, r @ np.diag(eig) @ r.T, 64.0), xi


class TestAnisotropicConjugate:
    """Invariances of the closed-form conjugate of (z.Az)^{p/2}/p."""

    @given(anisotropic_covectors())
    @settings(max_examples=200, deadline=None)
    def test_fenchel_young_equality_at_the_contact_covector(self, case):
        spec, x = case
        xi = cost_grad(spec, x)
        pairing = float(np.dot(xi, x))
        assert cost_eval(spec, x) + dual_eval(spec, xi) == pytest.approx(pairing, rel=1e-12)

    @given(anisotropic_covectors(), st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_pprime_homogeneity(self, case, log_s):
        spec, xi = case
        s = 10.0 ** log_s
        want = s ** spec.p_prime * dual_eval(spec, xi)
        assert dual_eval(spec, s * xi) == pytest.approx(want, rel=1e-12)

    @given(anisotropic_covectors(), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_rotation_covariance(self, case, angle):
        spec, xi = case
        r = rotation(angle)
        turned = CostSpec.anisotropic(spec.p, r @ spec.matrix @ r.T, 64.0)
        assert dual_eval(turned, r @ xi) == pytest.approx(dual_eval(spec, xi), rel=1e-12)
        g, want = dual_grad(turned, r @ xi), r @ dual_grad(spec, xi)
        assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want)

    @given(anisotropic_covectors())
    @settings(max_examples=200, deadline=None)
    def test_dual_grad_is_the_gradient_of_dual_eval(self, case):
        spec, xi = case
        h = 1e-5 * np.linalg.norm(xi)
        fd = np.array([(dual_eval(spec, xi + h * e) - dual_eval(spec, xi - h * e)) / (2.0 * h)
                       for e in np.eye(2)])
        g = dual_grad(spec, xi)
        assert np.linalg.norm(fd - g) <= 1e-7 * np.linalg.norm(g)


def family_spec(family, p):
    """The radial cost at exponent p, the scan cost, or the tilted anisotropic
    cost at exponent p; lambda_caps are explicit, so no grid sweep runs."""
    if family == "radial":
        return CostSpec.radial(p, lambda_cap=64.0)
    if family == "scan":
        return SCAN_COST
    return CostSpec.anisotropic(p, [[1.3, 0.2], [0.2, 0.8]], 64.0)


def rel_gap(got, want):
    return np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want)


class TestOneFormulaPerKernel:
    """Radial is the anisotropic family at A = I, and the dual Hessian is
    the closed form for both families."""

    @given(st.floats(1.2, 6.0), st.floats(-4.0, 4.0), st.floats(0.0, 2.0 * math.pi),
           st.sampled_from([0.0, 1e-6, 1e-2]))
    @settings(max_examples=200, deadline=None)
    def test_identity_matrix_is_the_radial_cost(self, p, log_r, b, delta):
        z = 10.0 ** log_r * vec(math.cos(b), math.sin(b))
        radial, aniso = CostSpec.radial(p, lambda_cap=64.0), CostSpec.anisotropic(p, np.eye(2), 64.0)
        for kernel in (cost_eval, cost_grad, dual_eval, dual_grad):
            assert rel_gap(kernel(aniso, z), kernel(radial, z)) <= 1e-14
        want = costs._dual_hessian(radial, z[None], delta)
        assert rel_gap(costs._dual_hessian(aniso, z[None], delta), want) <= 1e-14

    @pytest.mark.parametrize("matrix", [None, [[1.3, 0.2], [0.2, 0.8]]])
    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
    def test_hessian_is_the_derivative_of_dual_grad(self, p, matrix):
        spec = (CostSpec.radial(p, lambda_cap=64.0) if matrix is None
                else CostSpec.anisotropic(p, matrix, 64.0))
        rng = np.random.default_rng(4)
        xi = rng.normal(size=(64, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(64, 1))
        h = 1e-5 * np.linalg.norm(xi, axis=1, keepdims=True)
        fd = np.stack([(dual_grad(spec, xi + h * e) - dual_grad(spec, xi - h * e)) / (2.0 * h)
                       for e in np.eye(2)], axis=2)
        H = costs._dual_hessian(spec, xi, 0.0)
        assert max(rel_gap(H[i], fd[i]) for i in range(len(xi))) <= 1e-6

    @given(st.sampled_from(["radial", "scan", "tilted"]), st.floats(1.2, 6.0),
           st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * math.pi)), max_size=8),
           st.sampled_from([1e-6, 1e-2]))
    @settings(max_examples=200, deadline=None)
    def test_hessian_planes_equal_the_broadcast_form(self, family, p, polar, delta):
        spec = family_spec(family, p)
        # the zero covector leads every batch
        xi = np.array([[0.0, 0.0]] + [[10.0 ** r * math.cos(b), 10.0 ** r * math.sin(b)]
                                      for r, b in polar])
        assert np.array_equal(costs._dual_hessian(spec, xi, delta),
                              broadcast_dual_hessian(spec, xi, delta))

    @given(anisotropic_covectors(), st.floats(0.0, 2.0 * math.pi),
           st.sampled_from([0.0, 1e-6, 1e-2]))
    @settings(max_examples=200, deadline=None)
    def test_hessian_rotation_covariance(self, case, angle, delta):
        spec, xi = case
        r = rotation(angle)
        turned = CostSpec.anisotropic(spec.p, r @ spec.matrix @ r.T, 64.0)
        want = r @ costs._dual_hessian(spec, xi[None], delta)[0] @ r.T
        assert rel_gap(costs._dual_hessian(turned, (r @ xi)[None], delta)[0], want) <= 1e-12


class TestComparisonQuantities:
    def test_quadratic_case_is_squared_distance(self):
        x, y = vec(1.0, 2.0), vec(-0.5, 0.25)
        assert v_p(2.0, x, y) == pytest.approx(np.sum((x - y) ** 2), rel=1e-14)

    def test_coincident_limit(self):
        # prefactor blows up at the origin for p < 2; the product limit is 0
        assert v_p(1.5, vec(0.0, 0.0), vec(0.0, 0.0)) == 0.0
        assert u_p(1.5, vec(0.0, 0.0), vec(0.0, 0.0)) == 0.0

    @given(
        st.floats(1.1, 4.0),
        st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
        st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    # squared coordinates near 1e-162 fall into subnormals
    @example(1.5, 0.0, 0.0, 0.0, 3.818e-162, 4.0)
    @example(1.5, 1.0, 0.0, 1.0, 3.818e-162, 4.0)
    @example(2.0, 1.0, 0.0, 1.0, 3.818e-162, 4.0)
    def test_symmetry_and_homogeneity(self, p, x0, x1, y0, y1, lam):
        x, y = vec(x0, x1), vec(y0, y1)
        vxy, vyx = v_p(p, x, y), v_p(p, y, x)
        assert vxy == pytest.approx(vyx, rel=1e-12, abs=1e-300)
        assert v_p(p, lam * x, lam * y) == pytest.approx(lam ** p * vxy, rel=1e-9, abs=1e-280)
        assert u_p(p, lam * x, lam * y) == pytest.approx(lam ** p * u_p(p, x, y), rel=1e-9, abs=1e-280)

    @given(st.floats(1.1, 4.0), st.floats(-9.0, 9.0), st.floats(-9.0, 9.0),
           st.floats(-9.0, 9.0), st.floats(-9.0, 9.0))
    @settings(max_examples=200, deadline=None)
    # |x - y|^2 = 1e-324 underflows to 0; v_p multiplies by |x - y| twice
    @example(1.125, 2.632909778630195e-43, 1.0204609539126113e-162, 2.632909778630195e-43, 0.0)
    def test_v_comparable_to_sum_norm_weight(self, p, x0, x1, y0, y1):
        # (|x|^2+|y|^2)^{(p-2)/2} <= 2^{|p-2|/2} (|x|+|y|)^{p-2} pointwise
        x, y = vec(x0, x1), vec(y0, y1)
        s = np.linalg.norm(x) + np.linalg.norm(y)
        if s == 0.0:
            return
        d = np.hypot(*(x - y))
        bound = 2.0 ** (abs(p - 2.0) / 2.0) * s ** (p - 2.0) * d * d
        assert v_p(p, x, y) <= bound * (1.0 + 1e-9) + 1e-290


class TestFenchelYoung:
    @given(st.sampled_from([1.5, 2.0, 3.0]),
           st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
           st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
    @settings(max_examples=150, deadline=None)
    def test_inequality_and_contact_equality(self, p, x0, x1, g0, g1):
        s = CostSpec.radial(p)
        x, xi = vec(x0, x1), vec(g0, g1)
        gap = cost_eval(s, x) + dual_eval(s, xi) - np.dot(xi, x)
        assert gap >= -1e-9 * (1.0 + cost_eval(s, x) + dual_eval(s, xi))
        contact = cost_grad(s, x)
        eq_gap = cost_eval(s, x) + dual_eval(s, contact) - np.dot(contact, x)
        assert abs(eq_gap) <= 1e-10 * (1.0 + np.linalg.norm(x) ** p)

    @given(st.sampled_from(["radial", "scan", "tilted"]), st.floats(1.2, 6.0),
           st.one_of(st.none(), st.floats(-3.0, 3.0)), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=200, deadline=None)
    @example("radial", 6.0, None, 0.0)
    def test_cost_of_the_dual_gradient_is_a_multiple_of_the_conjugate(self, family, p, log_r,
                                                                       angle):
        # equality in Fenchel-Young at x = grad c*(xi), with the p'-homogeneity
        # of c*, gives c(grad c*(xi)) = <xi, grad c*(xi)> - c*(xi) = (p' - 1) c*(xi)
        spec = family_spec(family, p)
        r = 0.0 if log_r is None else 10.0 ** log_r
        xi = r * vec(math.cos(angle), math.sin(angle))
        want = (spec.p_prime - 1.0) * dual_eval(spec, xi)
        assert abs(cost_eval(spec, dual_grad(spec, xi)) - want) <= 1e-13 * want


def by_name(rep):
    """The report's inequality results keyed by name."""
    return {r.name: r for r in rep.results}


@pytest.mark.parametrize("call, message", [
    (lambda: cost_eval(CostSpec.radial(2.0), [math.nan, 0.0]), "non-finite input"),
    (lambda: verify_assumptions(CostSpec.radial(2.0), 0, 0), "sample_count must be >= 1"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestAssumptionChecks:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_radial_passes_with_certified_lambda(self, p):
        rep = verify_assumptions(CostSpec.radial(p), 4096, seed=7)
        assert rep.passed
        assert rep.fenchel_young_defect < 1e-12

    def test_quadratic_passes_at_the_sharp_constant(self):
        # every primal inequality is an identity at Lambda = 2 when p = 2
        rep = verify_assumptions(CostSpec.radial(2.0, lambda_cap=2.0), 4096, seed=7)
        assert rep.passed
        results = by_name(rep)
        assert results["elliptic"].worst_constant == pytest.approx(2.0, rel=1e-9)
        assert results["growth"].worst_constant == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_fewer_samples_than_special_directions(self, n):
        # the five special directions were written into all n rows, which
        # raised a broadcast error below five samples
        rep = verify_assumptions(CostSpec.radial(2.0, lambda_cap=2.0), n, seed=7)
        assert rep.sample_count == n
        assert rep.passed

    @pytest.mark.parametrize("p, sharp", sorted(RADIAL_SHARP.items()))
    def test_observed_constants_match_frozen_oracle(self, p, sharp):
        rep = verify_assumptions(CostSpec.radial(p, lambda_cap=8.0), 8192, seed=13)
        names = ("elliptic", "growth", "cgrowth", "controlled_growth")
        for name, ref in zip(names, sharp):
            got = by_name(rep)[name].worst_constant
            # sampling sits below the sharp sup but must come close
            assert got <= ref * 1.001
            assert got >= ref * 0.95, (name, got, ref)

    @pytest.mark.parametrize("p, cref", sorted(DUAL_CONVEXITY.items()))
    def test_dual_convexity_reference_matches_frozen_oracle(self, p, cref):
        rep = verify_assumptions(CostSpec.radial(p), 2048, seed=5)
        r = by_name(rep)["pprime_convex"]
        assert r.reference == pytest.approx(cref, abs=2e-3)
        assert r.passed

    def test_vdiff_constant_is_two(self):
        for p in (1.5, 2.0, 3.0):
            rep = verify_assumptions(CostSpec.radial(p), 2048, seed=5)
            assert by_name(rep)["vdiff"].worst_constant == pytest.approx(2.0, abs=2e-2)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("spec", [CostSpec.radial(3.0),
                                      CostSpec.anisotropic(3.0, np.diag([1.0, 4.0]), 64.0)])
    def test_fenchel_young_defect_equals_the_sum_form(self, spec, seed):
        rep = verify_assumptions(spec, 4096, seed)
        # the report's points are the first draw of its generator
        x = costs._sample_points(4096, np.random.default_rng(seed))
        assert rep.fenchel_young_defect == sum_fenchel_young(spec, x)

    def test_anisotropic_example_within_its_eigenvalue_certificate(self):
        spec = CostSpec.anisotropic(3.0, np.diag([1.0, 4.0]), 64.0)
        rep = verify_assumptions(spec, 4096, seed=11)
        assert rep.passed
        # the closed-form conjugate makes the contact equality a real check
        assert rep.fenchel_young_defect < 1e-12
        # worst primal constant is the gradient one, near 8, far below 64
        assert by_name(rep)["controlled_growth"].worst_constant == pytest.approx(8.0, abs=0.1)

    def test_degenerate_exponent_is_rejected(self):
        with pytest.raises(ValueError):
            CostSpec.radial(1.0)
        with pytest.raises(ValueError):
            CostSpec.radial(1.0, lambda_cap=1e6)
        for p in (math.inf, math.nan):
            with pytest.raises(ValueError):
                CostSpec.radial(p, lambda_cap=8.0)

    def test_determinism(self):
        a = verify_assumptions(CostSpec.radial(1.5), 1024, seed=42)
        b = verify_assumptions(CostSpec.radial(1.5), 1024, seed=42)
        # field by field; the witnesses are arrays
        assert dataclasses.replace(a, results=()) == dataclasses.replace(b, results=())
        for ra, rb in zip(a.results, b.results, strict=True):
            assert dataclasses.replace(ra, witness=()) == dataclasses.replace(rb, witness=())
            assert all(map(np.array_equal, ra.witness, rb.witness))
            assert len(ra.witness) == len(rb.witness)


class TestConstruction:
    def test_non_spd_matrix_rejected(self):
        with pytest.raises(ValueError):
            CostSpec.anisotropic(2.0, np.array([[1.0, 2.0], [2.0, 1.0]]), 10.0)
        with pytest.raises(ValueError):
            CostSpec.anisotropic(2.0, np.array([[1.0, 0.5], [0.2, 1.0]]), 10.0)
        with pytest.raises(ValueError, match="finite"):
            CostSpec.anisotropic(3.0, np.diag([math.inf, 1.0]), 8.0)

    @pytest.mark.parametrize("matrix", [[[2.0]], np.eye(3), [1.0, 2.0]])
    def test_matrix_must_be_two_by_two(self, matrix):
        # every kernel and grid is planar; a 1 x 1 matrix used to pass
        # construction and fail inside verify_assumptions
        with pytest.raises(ValueError, match="2 x 2"):
            CostSpec.anisotropic(3.0, matrix, 8.0)

    def test_matrix_is_a_read_only_copy(self):
        # the spec caches A^{-1}, so A must not change under it
        a = np.diag([1.0, 4.0])
        spec = CostSpec.anisotropic(3.0, a, 64.0)
        a[0, 0] = 9.0
        assert spec.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            spec.matrix[0, 0] = 9.0
        assert np.array_equal(spec.inverse, np.diag([1.0, 0.25]))

    def test_lambda_floor(self):
        with pytest.raises(ValueError):
            CostSpec.radial(2.0, lambda_cap=0.5)
        # an infinite certificate would pass every sampled inequality
        for cap in (math.inf, math.nan):
            with pytest.raises(ValueError):
                CostSpec.radial(3.0, lambda_cap=cap)

    def test_anisotropic_equality_and_hash(self):
        # the generated comparison read the matrix as an array and raised
        a, b = (CostSpec.anisotropic(3.0, np.eye(2), 8.0) for _ in range(2))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        changed = np.eye(2)
        changed[1, 1] = 2.0
        assert a != CostSpec.anisotropic(3.0, changed, 8.0)
        assert a != CostSpec.anisotropic(3.0, np.eye(2), 9.0)
        assert a != CostSpec.anisotropic(2.5, np.eye(2), 8.0)
        assert a != CostSpec.radial(3.0, lambda_cap=8.0)
        # the family is read off the matrix
        assert a.family == "anisotropic" and CostSpec.radial(3.0).family == "radial"
        assert a.to_dict()["family"] == "anisotropic"

    def test_radial_equality_and_hash(self):
        assert CostSpec.radial(3.0) == CostSpec.radial(3.0)
        assert hash(CostSpec.radial(3.0)) == hash(CostSpec.radial(3.0))
        assert CostSpec.radial(3.0) != CostSpec.radial(1.5)
        assert CostSpec.radial(3.0) != CostSpec.radial(3.0, lambda_cap=9.0)
        assert CostSpec.radial(3.0) != "radial"

    def test_certified_defaults(self):
        assert CostSpec.radial(2.0).lambda_cap == 2.0
        assert CostSpec.radial(1.5).lambda_cap == pytest.approx(3.6)
        assert CostSpec.radial(3.0).lambda_cap == pytest.approx(4.5)
        # off-table exponents get a grid estimate with margin over the
        # frozen sharp values, interpolating monotonically around p = 2
        lam25 = CostSpec.radial(2.5).lambda_cap
        assert 2.0 < lam25 < 4.5

    def test_conjugate_exponent(self):
        assert CostSpec.radial(3.0).p_prime == pytest.approx(1.5)
        assert CostSpec.radial(1.5).p_prime == pytest.approx(3.0)


def matmul_metric(z, m):
    """The metric as a plain matrix product and sum, for comparison."""
    zm = z if m is None else z @ m
    return zm, np.sum(zm * z, axis=-1)


METRIC_SPECS = {
    "radial-p1.5": CostSpec.radial(1.5),
    "diag-p3.0": CostSpec.anisotropic(3.0, np.diag([1.0, 4.0]), 64.0),
    "tilted-p1.5": CostSpec.anisotropic(1.5, [[1.3, 0.2], [0.2, 0.8]], 64.0),
    "turned-p2.5": CostSpec.anisotropic(2.5, rotation(0.7) @ np.diag([0.5, 3.0]) @ rotation(-0.7),
                                        64.0),
}


class TestMetricKernel:
    @pytest.mark.parametrize("shape", [(2,), (50, 2), (6, 7, 2)])
    @pytest.mark.parametrize("name", list(METRIC_SPECS))
    def test_kernels_equal_the_matrix_product(self, name, shape, monkeypatch):
        spec = METRIC_SPECS[name]
        rng = np.random.default_rng(len(shape))
        z = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape[:-1] + (1,))
        xi = z.reshape(-1, 2)
        kernels = (lambda: cost_eval(spec, z), lambda: cost_grad(spec, z),
                   lambda: dual_eval(spec, z), lambda: dual_grad(spec, z),
                   lambda: costs._dual_hessian(spec, xi, 0.3))
        got = [k() for k in kernels]
        monkeypatch.setattr(costs, "_metric", matmul_metric)
        for a, k in zip(got, kernels):
            assert np.array_equal(a, k())

    @pytest.mark.parametrize("z", [np.ones(3), np.ones((4, 3)), np.ones((4, 1)), np.float64(1.0)])
    def test_anisotropic_kernels_need_planar_points(self, z):
        spec = METRIC_SPECS["tilted-p1.5"]
        for kernel in (cost_eval, cost_grad, dual_eval, dual_grad):
            with pytest.raises(ValueError):
                kernel(spec, z)

    @pytest.mark.parametrize("z", [np.ones(3), np.ones((4, 3)), np.ones((4, 1)), np.float64(1.0)])
    def test_radial_kernels_need_planar_points(self, z):
        # the unrolled form would read a 3-vector's first two coordinates
        spec = CostSpec.radial(3.0)
        for kernel in (cost_eval, cost_grad, dual_eval, dual_grad):
            with pytest.raises(ValueError, match="points must be planar"):
                kernel(spec, z)
        with pytest.raises(ValueError, match="points must be planar"):
            v_p(3.0, z, z)

    @given(z=st.sampled_from([(2,), (9, 2), (3, 4, 2), (5, 1, 2)]).flatmap(planar_stack))
    @example(z=np.array([[-0.0, 0.0], [-0.0, -0.0], [1e-300, -1e150], [1e150, 1e-300]]))
    @settings(max_examples=300, deadline=None)
    def test_radial_metric_equals_the_einsum_form(self, z):
        zm, q = costs._metric(z, None)
        assert zm is z
        assert same_bits(q, einsum_metric(z))

    # (h, 1, 2) against (w, 2) takes cdist, the other shapes the unrolled form
    @given(yz=st.sampled_from([((9, 2), (9, 2)), ((9, 2), (2,)), ((3, 4, 2), (4, 2)),
                               ((5, 1, 2), (6, 2))]).flatmap(
        lambda s: st.tuples(planar_stack(s[0]), planar_stack(s[1]))))
    @example(yz=(np.array([[-0.0, 0.0], [1e150, -1e150], [1e-300, 3.0]]),
                 np.array([[0.0, -0.0], [-1e150, 1e150], [-1e-300, 3.0]])))
    @settings(max_examples=300, deadline=None)
    def test_distance_equals_the_coordinate_form(self, yz):
        assert same_bits(costs._distance(*yz), coordinate_distance(*yz))


SCAN_COST = CostSpec.anisotropic(3.0, np.diag([1.0, 4.0]), 64.0)
# specs on which the grid constants are compared with the loop oracle
GRID_SPECS = {
    **{f"radial-p{p}": CostSpec.radial(p, lambda_cap=8.0) for p in (1.2, 1.5, 2.0, 3.0, 6.0)},
    "diag-p3.0": SCAN_COST,
    **{f"tilted-p{p}": CostSpec.anisotropic(p, [[1.3, 0.2], [0.2, 0.8]], 64.0) for p in (1.5, 2.0)},
}
GRID_KINDS = ("elliptic", "growth", "cgrowth", "controlled", "pprime_convex", "vdiff",
              "cgrowth_dual")


@functools.cache
def loop_vdiff(p):
    """The loop oracle's vdiff, which reads p alone, once per p."""
    return grid_constant_loop(CostSpec.radial(p, lambda_cap=8.0), "vdiff")


@functools.cache
def sampled_on_the_grid(spec, which):
    """verify_assumptions' reduction, witness included, over the grid's tuples."""
    return max((costs._worst(spec, which, *t) for t in costs._grid_tuples(spec, which)),
               key=lambda result: result[0])


class TestGridConstants:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        costs._grid_constant.cache_clear()

    @pytest.mark.parametrize("which", GRID_KINDS)
    @pytest.mark.parametrize("name", list(GRID_SPECS))
    def test_agrees_with_the_loop_oracle(self, name, which):
        # the tau sweeps expand the mixed point's form, so their rounding
        # differs from the loop's; the widest gap seen is 4.6e-13
        spec = GRID_SPECS[name]
        want = loop_vdiff(spec.p) if which == "vdiff" else grid_constant_loop(spec, which)
        assert costs._grid_constant(spec, which) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("which", GRID_KINDS)
    def test_cold_grid_memory_is_bounded(self, which):
        tracemalloc.start()
        try:
            out = costs._grid_constant(SCAN_COST, which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(out) and out > 0.0
        assert peak < 8 * 2 ** 20

    def test_vdiff_is_shared_across_families(self, monkeypatch):
        # V_p reads neither the family nor the matrix: one grid per (p, d)
        first = costs._grid_constant(SCAN_COST, "vdiff")

        def no_grid(*args):
            raise AssertionError("vdiff grid evaluated twice")

        monkeypatch.setattr(costs, "v_p", no_grid)
        assert costs._grid_constant(CostSpec.radial(3.0), "vdiff") == first


class TestOneDefinition:
    """The sampled check and the grid evaluate each inequality through one definition."""

    @pytest.mark.parametrize("which", GRID_KINDS)
    @pytest.mark.parametrize("name", list(GRID_SPECS))
    def test_sampled_reduction_on_the_grid_tuples_is_the_grid_constant(self, name, which):
        spec = GRID_SPECS[name]
        # vdiff reads p alone
        worst, witness = sampled_on_the_grid(CostSpec(spec.p) if which == "vdiff" else spec, which)
        want = 1.0 / worst if which == "pprime_convex" else worst
        assert costs._grid_constant(spec, which) == pytest.approx(want, rel=1e-12)
        # the witness, as a one-tuple sample, reproduces the worst quotient
        again, _ = costs._worst(spec, which, *(np.reshape(w, (1, -1)) for w in witness))
        assert again == pytest.approx(worst, rel=1e-12)

    @pytest.mark.parametrize("which", GRID_KINDS)
    def test_coincident_tuples_are_skipped(self, which):
        spec = GRID_SPECS["tilted-p1.5"]
        x = np.array([[1.0, 2.0], [0.5, -0.25]])
        tup = {"growth": (0.0 * x,), "vdiff": (x, x, x),
               "elliptic": (x, x, np.full((2, 1), 0.3)),
               "pprime_convex": (x, x, np.full((2, 1), 0.3))}.get(which, (x, x))
        assert np.all(np.isnan(costs._quotients(spec, which, *tup)))
        assert costs._worst(spec, which, *tup)[0] == 0.0

    def test_vanishing_denominator_under_a_positive_numerator_reads_inf(self, monkeypatch):
        monkeypatch.setitem(costs._INEQUALITIES, "probe",
                            lambda spec, x: (np.array([1.0, 0.0, 2.0]), np.zeros(3)))
        worst, witness = costs._worst(SCAN_COST, "probe", np.eye(3, 2))
        assert worst == np.inf
        assert np.array_equal(witness[0], [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(16))
    def test_benchmark_costs_pass_at_every_seed(self, seed):
        # every benchmark set-up certifies these two costs at its seed
        for spec in (CostSpec.radial(3.0), SCAN_COST):
            assert verify_assumptions(spec, 4096, seed).passed


def holder_cloud(kind, n, d, rng):
    """n points in d dimensions: uniform, few distinct points repeated,
    on one circle (two points in 1-D), rounded to a coarse grid, in two
    tight clusters far apart, or all equal."""
    if kind == "clusters":
        # each cluster fills one grid cell, which is cut into leaves
        centre = np.where(np.arange(n) % 2 == 0, 0.0, 10.0)[:, None]
        return centre + rng.uniform(-1e-3, 1e-3, (n, d))
    if kind == "coincident":
        return np.full((n, d), rng.normal())
    if kind == "duplicates":
        base = rng.uniform(-1.0, 1.0, (max(1, n // 4), d))
        return base[rng.integers(0, len(base), n)]
    if kind == "cocircular":
        if d == 1:
            return rng.choice([-1.0, 1.0], (n, 1))
        th = rng.uniform(0.0, 2.0 * math.pi, n)
        return np.column_stack([np.cos(th), np.sin(th)]) + 0.3
    x = rng.uniform(-1.0, 1.0, (n, d)) * 10.0 ** rng.uniform(-2.0, 2.0)
    return np.round(x, 1) if kind == "grid" else x


def holder_field(kind, width, x, rng):
    if kind == "constant":
        return np.full((len(x), width), rng.normal())
    if kind == "noise":
        return rng.normal(size=(len(x), width))
    a = rng.normal(size=(x.shape[1], width))
    return x @ a + 1.0 if kind == "linear" else np.sin(3.0 * x @ a)


class TestHolderMaxima:
    @given(n=st.integers(2, 400), d=st.sampled_from([1, 2]),
           cloud=st.sampled_from(["uniform", "duplicates", "cocircular", "grid", "clusters",
                                  "coincident"]),
           fields=st.lists(st.tuples(st.sampled_from(["constant", "linear", "smooth", "noise"]),
                                     st.sampled_from([1, 2])), min_size=1, max_size=2),
           beta=st.sampled_from([0.25, 0.5, 1.0]),
           sep=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.3)),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    @example(n=2, d=2, cloud="uniform", fields=[("noise", 2)], beta=0.5, sep=1.0, seed=0)
    @example(n=300, d=2, cloud="duplicates", fields=[("noise", 1), ("smooth", 2)], beta=0.5,
             sep=0.0, seed=1)
    @example(n=400, d=2, cloud="clusters", fields=[("noise", 1)], beta=0.5, sep=0.0, seed=2)
    @example(n=50, d=1, cloud="coincident", fields=[("noise", 2)], beta=1.0, sep=0.0, seed=3)
    def test_branch_and_bound_equals_the_row_sweep(self, n, d, cloud, fields, beta, sep, seed):
        # sep 0 is c2measures_check's tiny separation, sep 1 the cloud's
        # diameter (its extreme pair is still counted) and above it no
        # pair is far enough apart
        rng = np.random.default_rng(seed)
        x = holder_cloud(cloud, n, d, rng)
        fs = tuple(holder_field(kind, width, x, rng) for kind, width in fields)
        diameter = float(cdist(x, x).max())
        min_sep = np.finfo(float).tiny if sep == 0.0 else sep * diameter
        if min_sep == 0.0:
            min_sep = np.finfo(float).tiny
        want = holder_maxima_rows(x, fs, beta, min_sep)
        assert costs._holder_maxima(x, fs, beta, min_sep) == want

    def test_memory_stays_bounded_when_nothing_prunes(self):
        # a linear field at beta = 1 reaches its seminorm at every scale,
        # so no leaf pair's bound falls below it; all pairs of these 4.6k
        # points would take about 880 MB
        r = np.sqrt(np.linspace(0.0, 1.0, 4600)) * 0.75
        th = np.arange(4600) * math.pi * (3.0 - math.sqrt(5.0))
        x = np.column_stack([r * np.cos(th), r * np.sin(th)])
        a = np.array([[1.0, 0.3], [0.2, -1.0]])
        tracemalloc.start()
        try:
            out = costs._holder_maxima(x, (x @ a,), 1.0, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out[0] == pytest.approx(np.linalg.norm(a, 2), rel=1e-3)
        assert peak < 64 * 2 ** 20
