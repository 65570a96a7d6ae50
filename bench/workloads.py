"""Seeded inputs and instance runners of the three benchmark workloads.

Each workload draws its inputs from one integer instance seed and runs a
fixed sequence of public ``otlab`` calls on them, returning the outputs
the reference check compares.  Nothing here times or traces; ``run.py``
does both around these functions.

- ``chain``: exact plan -> radius selection -> boundary data -> Neumann
  solve -> displacement defect, the paper's whole linearisation chain.
  One equal-weight, equal-count plan plus many repeated auxiliary LPs,
  and one nonlinear Neumann solve.
- ``neumann``: the Neumann layer alone at p = 1.5 and p = 3 on a fixed
  mesh, with mollified companion solves and the Hoelder pair check; no
  transport at all.
- ``scan``: the smallness and lemma checks on unequal, non-uniform
  clouds under the anisotropic cost; many mid-size LPs, no Neumann.

Instance sizes are chosen small enough that one run holds many
instances: the work per instance varies with the seed by 10-35 percent
(LP pivots, Newton steps, the selected radius), and only averaging over
many instances keeps a run's totals steady from seed to seed.
"""
from __future__ import annotations

import math

import numpy as np

import otlab
from otlab import (
    Ball,
    BoundaryData,
    CostSpec,
    DiscreteMeasure,
    NeumannProblem,
    Trajectory,
)

# salt per workload so instance i of two workloads draws unrelated inputs
_SALT = {"chain": 101, "neumann": 202, "scan": 303}

# "full" is the benchmark; "tiny" keeps every call and shrinks the inputs
# so the benchmark's own tests run in seconds.  The chain's displacement
# amplitude scales with the atom spacing: 0.8 at 150 atoms crosses the
# candidate spheres about as often as 0.3 does at 400 atoms, so the
# selected radius nearly always carries boundary data to solve for.
SIZES = {
    "full": {"chain": {"atoms": 150, "amplitude": 0.8, "resolution": 6, "mesh_h": 0.08},
             "neumann": {"mesh_h": 0.05},
             "scan": {"source_atoms": 150, "target_atoms": 180, "resolution": 6}},
    "tiny": {"chain": {"atoms": 60, "amplitude": 0.3, "resolution": 8, "mesh_h": 0.25},
             "neumann": {"mesh_h": 0.1},
             "scan": {"source_atoms": 40, "target_atoms": 50, "resolution": 8}},
}

CHAIN_CANDIDATES = tuple(np.linspace(2.05, 2.95, 5))
SCAN_RADII = (2.0, 3.0, 4.0)
SCAN_RESTRICTION_RADII = tuple(np.linspace(2.0, 3.0, 5))
NEUMANN_PS = (1.5, 3.0)
NEUMANN_BINS = 128
NEUMANN_MOLL = (0.4, 0.2)
ASSUMPTION_SAMPLES = 4096


def cost_of(workload: str) -> CostSpec:
    if workload == "chain":
        return CostSpec.radial(3.0)
    if workload == "scan":
        return CostSpec.anisotropic(3.0, np.diag([1.0, 4.0]), 64.0)
    if workload == "neumann":
        # the layer runs two exponents; set-up certifies the stiffer one
        return CostSpec.radial(3.0)
    raise ValueError(f"unknown workload {workload!r}")


def _rng(workload: str, instance: int) -> np.random.Generator:
    return np.random.default_rng([_SALT[workload], int(instance)])


def _disk_points(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


def _smooth_displacement(rng: np.random.Generator, pts: np.ndarray,
                         amplitude: float) -> np.ndarray:
    """Sum of three random plane waves, scaled to sup norm `amplitude`."""
    field = np.zeros_like(pts)
    for _ in range(3):
        k = rng.normal(scale=0.6, size=2)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        vec = rng.normal(size=2)
        field += np.sin(pts @ k + phase)[:, None] * vec[None, :]
    return amplitude * field / np.linalg.norm(field, axis=1).max()


def _fourier_flux(rng: np.random.Generator, radius: float, n_bins: int) -> BoundaryData:
    """Signed flux of Fourier modes 1-4, amplitude 1/k and seeded phases.

    Bin masses integrate the modes exactly.  The fixed spectrum and sup
    density 1 leave only the shape to the seed, which keeps the Newton
    work per instance comparable.
    """
    edges = 2.0 * math.pi * np.arange(n_bins + 1) / n_bins
    masses = np.zeros(n_bins)
    for k in range(1, 5):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        a, b = math.cos(phase) / k, math.sin(phase) / k
        # int_bin (a cos k t + b sin k t) R dt
        prim = (a * np.sin(k * edges) - b * np.cos(k * edges)) * radius / k
        masses += prim[1:] - prim[:-1]
    flux = BoundaryData(radius, masses, dim=2, signed=True)
    return BoundaryData(radius, masses / np.abs(flux.densities).max(), dim=2, signed=True)


def make_inputs(workload: str, instance: int, size: str = "full") -> dict:
    """The seeded inputs of one instance; same instance, same inputs."""
    rng = _rng(workload, instance)
    size = SIZES[size][workload]
    if workload == "chain":
        n = size["atoms"]
        pts = _disk_points(rng, n, 4.0)
        w = np.full(n, 16.0 * math.pi / n)
        moved = pts + _smooth_displacement(rng, pts, size["amplitude"])
        return {"lam": DiscreteMeasure(pts, w), "mu": DiscreteMeasure(moved, w),
                "resolution": size["resolution"], "mesh_h": size["mesh_h"]}
    if workload == "neumann":
        return {"g": _fourier_flux(rng, 1.0, NEUMANN_BINS), "mesh_h": size["mesh_h"]}
    if workload == "scan":
        n, m = size["source_atoms"], size["target_atoms"]
        wl = rng.gamma(2.0, size=n)
        wm = rng.gamma(2.0, size=m)
        mass = 16.0 * math.pi
        return {"lam": DiscreteMeasure(_disk_points(rng, n, 4.0), wl * mass / wl.sum()),
                "mu": DiscreteMeasure(_disk_points(rng, m, 4.0), wm * mass / wm.sum()),
                "resolution": size["resolution"]}
    raise ValueError(f"unknown workload {workload!r}")


def set_up(workload: str, instance: int, size: str = "full") -> dict:
    """What a user does once before the loop: inputs plus a certified cost."""
    inputs = make_inputs(workload, instance, size)
    report = otlab.verify_assumptions(cost_of(workload), ASSUMPTION_SAMPLES, instance)
    if not report.passed:
        raise ArithmeticError(f"{workload} cost failed its assumption check")
    return inputs


def displacement_defect(plan, spec: CostSpec, phi, radius: float) -> float:
    """int c(y - x - grad c*(D phi)) over the Omega_R entries.

    Each entry contributes its mass times the path integral of the
    integrand over the part of its straight trajectory inside B_R.
    """
    x, y = plan.pairs()
    total = 0.0
    for k in np.flatnonzero(otlab.omega_mask(plan, radius)):
        traj = Trajectory(x[k], y[k], float(plan.masses[k]))
        window = otlab.crossing_times(traj, radius)
        if window is None:
            continue
        disp = y[k] - x[k]

        def integrand(pts, disp=disp):
            return otlab.cost_eval(spec, disp - otlab.dual_grad(spec, phi.gradient(pts)))

        total += traj.mass * otlab.path_integral(traj, integrand, window.sigma, window.tau)
    return total


def run_chain(inputs: dict, spec: CostSpec) -> dict:
    lam, mu = inputs["lam"], inputs["mu"]
    plan = otlab.solve_exact(lam, mu, spec)
    n_theta = 64
    sel = otlab.select_radius(plan, lam, mu, spec, CHAIN_CANDIDATES,
                              n_theta=n_theta, resolution=inputs["resolution"])
    radius = sel.selected
    approx = otlab.approximate_boundary_data(plan, lam, mu, spec, radius, n_theta,
                                             moll_scale=4.0 * math.pi / n_theta,
                                             resolution=inputs["resolution"])
    g = otlab.net_boundary_flux(approx.g_bar, approx.f_bar)
    mesh = otlab.build_mesh(radius, inputs["mesh_h"])
    prob = NeumannProblem(mesh, spec, g)
    phi = otlab.solve_neumann(prob)
    diag = otlab.regularity_diagnostics(prob, phi)
    otlab.flux_field(phi, spec)
    return {
        "total_cost": plan.total_cost,
        "dual_gap": plan.dual_gap,
        "radius": radius,
        "score_components": [list(sel.components[r]) for r in sorted(sel.components)],
        "energy_ratio": diag.energy_ratio,
        "defect": displacement_defect(plan, spec, phi, radius),
    }


def run_neumann(inputs: dict, spec: CostSpec) -> dict:
    # `spec` is the certified set-up cost; the layer sweeps both exponents
    g = inputs["g"]
    mesh = otlab.build_mesh(1.0, inputs["mesh_h"])
    out = {}
    for p in NEUMANN_PS:
        cost = CostSpec.radial(p)
        prob = NeumannProblem(mesh, cost, g)
        phi = otlab.solve_neumann(prob)
        pairs = [(r, otlab.solve_neumann(NeumannProblem(mesh, cost, otlab.mollify_boundary(g, r))))
                 for r in NEUMANN_MOLL]
        diag = otlab.regularity_diagnostics(prob, phi, pairs)
        otlab.flux_field(phi, cost)
        otlab.holder_product_check(phi, cost, Ball.at_origin(0.75))
        out[f"energy_ratio_p{p:g}"] = diag.energy_ratio
    return out


def run_scan(inputs: dict, spec: CostSpec) -> dict:
    lam, mu = inputs["lam"], inputs["mu"]
    plan = otlab.solve_exact(lam, mu, spec)
    res = inputs["resolution"]
    small = otlab.compute_smallness(plan, spec, SCAN_RADII, res)
    restriction = otlab.data_restriction_check(mu, spec, SCAN_RESTRICTION_RADII, resolution=res)
    local = otlab.localisation_check(plan, 2.5, spec, delta=0.25, tau=10.0, resolution=res)
    violations = otlab.check_cyclical_monotonicity(plan, spec, 3, 2000, 0)
    return {
        "total_cost": plan.total_cost,
        "dual_gap": plan.dual_gap,
        "E": [small.E_values[r] for r in SCAN_RADII],
        "D": [small.D_values[r] for r in SCAN_RADII],
        "restriction_integral": restriction.integral_estimate,
        "localisation": [local.lhs, local.w_localized],
        "violations": len(violations),
    }


RUNNERS = {"chain": run_chain, "neumann": run_neumann, "scan": run_scan}
