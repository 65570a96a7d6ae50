"""Recorded outputs of every pool instance, and the check against them.

Tolerances come from the solvers' own certificates, never from the
scatter between runs:

- LP values.  ``solve_exact`` accepts a plan when its dual residual and
  complementary-slackness defect stay below 1e-9 of the cost-matrix
  scale, so a certified optimum's cost is off by at most
  2e-9 * scale * mass.  Every value built from plans (costs, E, D, the
  score components, the restriction integral, the localised costs) is a
  mass-weighted sum of costs divided by a normaliser of at least 1 on
  these inputs, and gets that absolute tolerance.
- Neumann values.  ``solve_neumann`` stops once the weak residual falls
  below 1e-8 (1 + |g|_{L^p}); quantities read off the solved field get a
  relative tolerance of 100 times that target, the factor absorbing the
  coercivity constant of the degenerate p-Laplacian, plus the LP
  tolerance where the boundary data came from plans.
- The selected radius and the violation count must match exactly, and
  every ``dual_gap`` must still meet the certificate itself.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from otlab import cost_eval

REFERENCE_PATH = Path(__file__).with_name("reference.json")

LP_GAP = 1e-9  # solve_exact's certificate, relative to the cost scale
NEUMANN_RTOL = 100 * 1e-8  # solve_neumann's default residual target, padded

# output key -> tolerance class, per workload
CLASSES = {
    "chain": {"total_cost": "lp", "dual_gap": "gap", "radius": "exact",
              "score_components": "lp", "energy_ratio": "neumann", "defect": "neumann"},
    "neumann": {"energy_ratio_p1.5": "neumann", "energy_ratio_p3": "neumann"},
    "scan": {"total_cost": "lp", "dual_gap": "gap", "E": "lp", "D": "lp",
             "restriction_integral": "lp", "localisation": "lp", "violations": "exact"},
}


def load(size: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[size]


def cost_scale(inputs: dict, spec) -> tuple[float, float]:
    """(largest pairwise cost, total mass) of the instance's two clouds."""
    if "lam" not in inputs:
        return 0.0, 0.0
    lam, mu = inputs["lam"], inputs["mu"]
    diff = lam.points[:, None, :] - mu.points[None, :, :]
    return max(float(np.max(cost_eval(spec, diff))), 1.0), lam.total_mass


def mismatches(workload: str, inputs: dict, spec, got: dict, want: dict) -> list:
    """Human-readable differences between an instance's outputs and its record."""
    scale, mass = cost_scale(inputs, spec)
    lp_tol = 2.0 * LP_GAP * scale * mass
    bad = []
    for key, kind in CLASSES[workload].items():
        a = np.asarray(got[key], dtype=float)
        b = np.asarray(want[key], dtype=float)
        if a.shape != b.shape:
            bad.append(f"{key}: shape {a.shape} != recorded {b.shape}")
            continue
        if kind == "gap":
            ok = bool(np.all(a <= LP_GAP * scale))
            tol = LP_GAP * scale
        elif kind == "exact":
            ok, tol = bool(np.array_equal(a, b)), 0.0
        else:
            rtol = NEUMANN_RTOL if kind == "neumann" else 0.0
            tol = lp_tol + rtol * np.abs(b)
            ok = bool(np.all(np.isfinite(a)) and np.all(np.abs(a - b) <= tol))
        if not ok:
            bad.append(f"{key}: {a.tolist()} vs recorded {b.tolist()} (tol {np.max(tol):.3g})")
    return bad


def as_record(out: dict) -> dict:
    """JSON-safe copy of an instance's outputs with full float precision."""
    def clean(v):
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        v = float(v)
        if not math.isfinite(v):
            raise ValueError("non-finite output cannot be recorded")
        return v
    return {k: clean(v) for k, v in out.items()}
