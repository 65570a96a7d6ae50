"""Disk mesh contracts.

Frozen reference values (measured on this generator, grading 0.28):
  R=1, target 0.5  -> 27 triangles, area 3.0207, realized h 0.6764
  R=1 triangle counts at target (0.2, 0.1, 0.05): 208, 861, 3474
  R=2 triangle counts at target (0.2, 0.1, 0.05): 861, 3474, 13912
  boundary node radius error ~ 2e-16
"""
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otlab import meshing
from otlab.meshing import DiskMesh, build_mesh
from ring_oracle import mesh_nodes_loop


def boundary_edges(m):
    """The boundary walk as (m, 2) node pairs, each node to its successor."""
    b = m.boundary_nodes
    return np.stack([b, np.roll(b, -1)], 1)


class TestBuildContracts:
    def test_coarse_unit_disk(self):
        m = build_mesh(1.0, 0.5)
        assert m.n_triangles == 27
        assert m.n_triangles >= 4
        deficit = math.pi - m.areas.sum()
        assert 0.0 < deficit < 0.5 ** 2
        assert m.h <= 1.5 * 0.5

    def test_halving_quadruples_triangles(self):
        for R, lo, hi in ((1.0, 208, 861), (2.0, 861, 3474)):
            assert build_mesh(R, 0.2).n_triangles == lo
            assert build_mesh(R, 0.1).n_triangles == hi
            assert 0.8 * 4 <= hi / lo <= 1.2 * 4

    def test_boundary_nodes_on_circle(self):
        for R, h in ((1.0, 0.3), (2.5, 0.1)):
            m = build_mesh(R, h)
            rb = np.linalg.norm(m.nodes[m.boundary_nodes], axis=1)
            assert np.abs(rb - R).max() <= 1e-10

    def test_diameter_bound_across_scales(self):
        for R, h in ((1.0, 0.2), (2.0, 0.1), (2.5, 0.1), (3.0, 0.25)):
            m = build_mesh(R, h)
            assert m.h <= 1.5 * h

    def test_area_converges_quadratically(self):
        deficits = [math.pi * 4.0 - build_mesh(2.0, h).areas.sum() for h in (0.2, 0.1)]
        assert deficits[1] > 0.0
        assert 2.5 <= deficits[0] / deficits[1] <= 6.0

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            build_mesh(1.0, 1.5)
        with pytest.raises(ValueError):
            build_mesh(1.0, 0.0)
        with pytest.raises(ValueError):
            build_mesh(-1.0, 0.1)
        # at R = inf the ring step is nan, and the ring loop would never stop
        for R in (math.inf, math.nan):
            with pytest.raises(ValueError, match="R < inf"):
                build_mesh(R, 0.1)
        # only the rim ring is built: 7 nodes around the centre, whose
        # spokes of length 1 exceed 1.5 * 0.65
        with pytest.raises(ValueError, match="element diameter"):
            build_mesh(1.0, 0.65)

    def test_node_budget_refuses_before_building(self):
        # pi (1 / 1e-4)^2 nodes, about 3.1e8, against the 2^18 budget
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"about 314159265 nodes, past the budget of 262144"):
                build_mesh(1.0, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    # every (R, h) the tests and the benchmark workloads build, the chain's
    # at each candidate radius; (1, 0.65) is refused
    @pytest.mark.parametrize("R, h", [
        *((1.0, h) for h in (0.025, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5)),
        (0.5, 0.1), (1.5, 0.2), (1.5, 0.4), (2.0, 0.05), (2.0, 0.1), (2.0, 0.15), (2.0, 0.2),
        (2.5, 0.08), (2.5, 0.1), (3.0, 0.25),
        *((R, h) for R in np.linspace(2.05, 2.95, 5) for h in (0.08, 0.25)),
    ])
    def test_nodes_equal_the_ring_loop(self, R, h):
        nodes = build_mesh(R, h).nodes
        assert np.array_equal(nodes, mesh_nodes_loop(R, h))
        # the budget's estimate never exceeds the nodes placed
        assert len(nodes) >= math.pi * (R / h) ** 2

    def test_deterministic(self):
        a = build_mesh(2.0, 0.15)
        b = build_mesh(2.0, 0.15)
        assert a.nodes.tobytes() == b.nodes.tobytes()
        assert a.triangles.tobytes() == b.triangles.tobytes()
        assert boundary_edges(a).tobytes() == boundary_edges(b).tobytes()


class TestGeometry:
    def test_orientation_and_positivity(self):
        m = build_mesh(1.5, 0.2)
        p0, p1, p2 = (m.nodes[m.triangles[:, k]] for k in range(3))
        d1, d2 = p1 - p0, p2 - p0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        assert np.all(det > 0.0)
        assert np.allclose(m.areas, 0.5 * det)

    def test_hat_gradients_sum_to_zero(self):
        m = build_mesh(1.0, 0.3)
        assert np.abs(m.shape_gradients.sum(axis=1)).max() < 1e-12

    def test_hat_gradient_reproduces_linear(self):
        # interpolating x + 2y triangle-wise must give gradient (1, 2)
        m = build_mesh(1.0, 0.3)
        vals = m.nodes[:, 0] + 2.0 * m.nodes[:, 1]
        g = np.einsum("tiv,ti->tv", m.shape_gradients, vals[m.triangles])
        assert np.abs(g - np.array([1.0, 2.0])).max() < 1e-10

    def test_lumped_mass_totals_area(self):
        m = build_mesh(2.0, 0.2)
        assert math.isclose(float(m.lumped_mass.sum()), m.areas.sum(), rel_tol=1e-12)
        assert np.all(m.lumped_mass > 0.0)

    def test_boundary_edges_walk_counterclockwise(self):
        m = build_mesh(1.0, 0.2)
        th = m.boundary_angles
        assert np.all(np.diff(th) > 0.0)
        edges = boundary_edges(m)
        assert np.array_equal(edges[:, 1], np.roll(edges[:, 0], -1))

    @pytest.mark.parametrize("R, h, permuted", [(1.0, 0.25, False), (1.0, 0.1, False),
                                                (2.5, 0.08, False), (1.0, 0.05, False),
                                                (1.0, 0.1, True)])
    def test_boundary_walk_steps_along_mesh_edges(self, R, h, permuted):
        # each consecutive pair of boundary nodes, wrapping around, is an edge
        # of exactly one triangle: the walk follows the mesh's boundary edges
        m = build_mesh(R, h)
        if permuted:
            m = DiskMesh(R, m.nodes[np.random.default_rng(5).permutation(m.n_nodes)])
        t = np.sort(m.triangles, axis=1)
        sides, owners = np.unique(np.concatenate([t[:, [0, 1]], t[:, [0, 2]], t[:, [1, 2]]]),
                                  axis=0, return_counts=True)
        owners = dict(zip(map(tuple, sides.tolist()), owners.tolist()))
        walk = np.sort(boundary_edges(m), axis=1)
        assert [owners.get(tuple(e), 0) for e in walk.tolist()] == [1] * len(walk)

    def test_boundary_walk_has_the_disc_on_its_left(self):
        # a counterclockwise walk turns its tangent clockwise into the outward normal
        m = build_mesh(2.0, 0.2)
        edges = boundary_edges(m)
        a, b = m.nodes[edges[:, 0]], m.nodes[edges[:, 1]]
        t = b - a
        outward = np.stack([t[:, 1], -t[:, 0]], -1)
        assert np.all(np.sum(outward * (a + b), axis=1) > 0.0)

    def test_boundary_arcs_close_the_circle(self):
        m = build_mesh(1.0, 0.25)
        th = m.boundary_angles
        gaps = np.diff(np.concatenate([th, [th[0] + 2.0 * math.pi]]))
        assert math.isclose(float(gaps.sum()), 2.0 * math.pi, rel_tol=1e-12)


def _vertex_formula(nodes, triangles):
    # P1 element data written triangle by triangle from its vertices
    p0, p1, p2 = (nodes[triangles[:, k]] for k in range(3))
    d1, d2 = p1 - p0, p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    g0 = np.stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]], -1) / det[:, None]
    g1 = np.stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]], -1) / det[:, None]
    g2 = np.stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]], -1) / det[:, None]
    return 0.5 * np.abs(det), np.stack([g0, g1, g2], 1)


def test_element_data_equals_the_vertex_formula():
    meshes = [build_mesh(R, h) for R, h in ((1.0, 0.25), (1.0, 0.05), (2.5, 0.08))]
    perm = np.random.default_rng(3).permutation(meshes[0].n_nodes)
    meshes.append(DiskMesh(1.0, meshes[0].nodes[perm]))
    for m in meshes:
        areas, grads = _vertex_formula(m.nodes, m.triangles)
        assert np.array_equal(m.areas, areas)
        assert np.array_equal(m.shape_gradients, grads)
        pts = m.nodes[m.boundary_nodes]
        assert np.array_equal(m.boundary_angles,
                              np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi))
        assert np.all(np.diff(m.boundary_angles) > 0.0)


def test_clockwise_simplices_are_refused(monkeypatch):
    nodes = build_mesh(1.0, 0.25).nodes
    delaunay = meshing.spatial.Delaunay

    def clockwise(points):
        tri = delaunay(points)
        return types.SimpleNamespace(simplices=tri.simplices[:, [0, 2, 1]],
                                     coplanar=tri.coplanar, convex_hull=tri.convex_hull)

    monkeypatch.setattr(meshing.spatial, "Delaunay", clockwise)
    with pytest.raises(ValueError, match="clockwise"):
        DiskMesh(1.0, nodes)


def _assert_located(m, pts, idx):
    # barycentric coordinates of each point in its triangle lie in [0, 1]
    assert np.all(idx >= 0)
    tri = m.triangles[idx]
    a = m.nodes[tri[:, 0]]
    T = np.stack([m.nodes[tri[:, 1]] - a, m.nodes[tri[:, 2]] - a], axis=2)
    lam = np.linalg.solve(T, (pts - a)[..., None])[..., 0]
    assert np.all(lam > -1e-9)
    assert np.all(lam.sum(axis=1) < 1.0 + 1e-9)


class TestPointLocation:
    def test_locate_finds_containing_triangle(self):
        m = build_mesh(1.0, 0.2)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.6, 0.6, size=(50, 2))
        _assert_located(m, pts, m.locate(pts))

    def test_locate_on_permuted_nodes(self):
        # the ids index the mesh's own triangles whatever the node order
        base = build_mesh(1.0, 0.2)
        rng = np.random.default_rng(11)
        m = DiskMesh(1.0, base.nodes[rng.permutation(base.n_nodes)])
        pts = rng.uniform(-0.6, 0.6, size=(200, 2))
        _assert_located(m, pts, m.locate(pts))
        assert m.n_triangles == base.n_triangles

    def test_locate_outside_is_negative(self):
        m = build_mesh(1.0, 0.3)
        assert m.locate([[2.0, 0.0]])[0] == -1


class TestValidation:
    def test_mesh_is_an_identity_dict_key(self):
        a, b = build_mesh(1.0, 0.4), build_mesh(1.0, 0.4)
        table = {a: "a", b: "b"}
        key = hash(a)
        assert a.lumped_mass.sum() > 0.0  # caching state on the mesh keeps its key
        assert a == a and a != b
        assert hash(a) == key and table[a] == "a" and table[b] == "b"

    def test_shape_checks(self):
        nodes = build_mesh(1.0, 0.5).nodes
        with pytest.raises(ValueError):
            DiskMesh(0.0, nodes)
        with pytest.raises(ValueError, match="R must be finite"):
            DiskMesh(math.inf, nodes)
        with pytest.raises(ValueError):
            DiskMesh(1.0, nodes[:, :1])
        with pytest.raises(ValueError):
            DiskMesh(1.0, nodes.ravel())

    def test_hull_must_be_the_circle_nodes(self):
        nodes = build_mesh(1.0, 0.5).nodes
        with pytest.raises(ValueError, match="convex hull"):
            DiskMesh(1.0, np.vstack([nodes, [[1.2, 0.1]]]))
        with pytest.raises(ValueError, match="convex hull"):
            DiskMesh(1.1, nodes)
        with pytest.raises(ValueError, match="convex hull"):
            DiskMesh(1.0, nodes[1:] * np.array([1.0, 0.5]))

    def test_nodes_outside_every_triangle_rejected(self):
        nodes = build_mesh(1.0, 0.5).nodes
        with pytest.raises(ValueError, match="repeated"):
            DiskMesh(1.0, np.vstack([nodes, nodes[:1]]))
        with pytest.raises(ValueError, match="no triangle"):
            DiskMesh(1.0, np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))


@settings(max_examples=15, deadline=None)
@given(R=st.floats(0.5, 4.0), frac=st.floats(0.05, 0.4))
def test_mesh_contract_properties(R, frac):
    h = R * frac
    m = build_mesh(R, h)
    assert m.h <= 1.5 * h
    assert 0.0 < m.areas.sum() < math.pi * R * R
    rb = np.linalg.norm(m.nodes[m.boundary_nodes], axis=1)
    assert np.abs(rb - R).max() <= 1e-10 * max(1.0, R)
    assert np.all(m.areas > 0.0)
