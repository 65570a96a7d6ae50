"""The benchmark's own tests: tiny runs of every workload through run.py.

    python3 -m pytest -q bench

Each workload runs at the tiny size, untraced once and traced twice, in a
scratch directory.  The tests check the result line against
BENCHMARK.json, that counts repeat exactly between runs of one seed, that
top-level spans cover each instance, that the reference check rejects
drifted outputs, and that the benchmark refuses to run without sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# counts that must repeat exactly between two runs of one seed
EXACT_COUNTS = (
    "transport.solve_exact.calls", "transport.solve_exact.matrix_entries",
    "transport.solve_exact.support", "transport.solve_exact.repeat_calls",
    "transport.linprog.calls", "transport.linprog.iterations",
    "trajectories.approximate_boundary_data.calls",
    "trajectories.approximate_boundary_data.errors",
    "trajectories.path_integral.calls", "measures.lebesgue_quadrature.calls",
    "meshing.build_mesh.nodes", "meshing.DiskMesh.locate.points",
    "neumann.solve_neumann.calls", "neumann.splu.calls", "neumann.splu.fill_nnz",
    "neumann.holder_product_check.pairs", "costs.cost_eval.points",
    "costs.dual_grad.points",
)


def run_bench(cwd, workload, trace, seed=1, bench=RUN):
    proc = subprocess.run(
        [sys.executable, str(bench), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("bench")
    out = {}
    for w in WORKLOADS:
        out[w, 0] = result_of(run_bench(cwd, w, 0))
        out[w, 1] = result_of(run_bench(cwd, w, 1))
        out[w, "again"] = result_of(run_bench(cwd, w, 1))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_benchmark_json(results, workload, trace):
    res = results[workload, trace]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(results, workload):
    first, second = results[workload, 1]["metrics"], results[workload, "again"]["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_top_level_spans_cover_instances(results, workload):
    assert results[workload, 1]["metrics"]["trace.cover_min"]["value"] >= 0.95


def test_layer_split(results):
    chain = results["chain", 1]["metrics"]
    neumann = results["neumann", 1]["metrics"]
    scan = results["scan", 1]["metrics"]
    assert chain["transport.solve_exact.repeat_calls"]["value"] > 0
    assert neumann["transport.solve_exact.calls"]["value"] == 0
    assert neumann["neumann.splu.calls"]["value"] > 0
    assert scan["neumann.solve_neumann.calls"]["value"] == 0
    assert scan["neumann.splu.calls"]["value"] == 0


def test_reference_check_rejects_drift():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import reference
    import workloads

    spec = workloads.cost_of("chain")
    inputs = workloads.make_inputs("chain", 0, "tiny")
    want = reference.load("tiny")["chain"]["0"]
    assert reference.mismatches("chain", inputs, spec, dict(want), want) == []

    scale, mass = reference.cost_scale(inputs, spec)
    lp_tol = 2.0 * reference.LP_GAP * scale * mass
    drifts = {
        "total_cost": want["total_cost"] + 10.0 * lp_tol,
        "radius": want["radius"] + 0.225,
        "energy_ratio": want["energy_ratio"] * (1.0 + 10.0 * reference.NEUMANN_RTOL) + 2.0 * lp_tol,
        "dual_gap": 10.0 * reference.LP_GAP * scale,
    }
    for key, value in drifts.items():
        got = dict(want, **{key: value})
        bad = reference.mismatches("chain", inputs, spec, got, want)
        assert len(bad) == 1 and bad[0].startswith(key), (key, bad)
    within = dict(want, total_cost=want["total_cost"] + 0.5 * lp_tol)
    assert reference.mismatches("chain", inputs, spec, within, want) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "chain", 0, bench=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
