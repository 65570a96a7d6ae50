"""Benchmark of the otlab chain: one workload, one seed, one JSON result.

Usage, from the repository root:

    python3 bench/run.py --workload chain --seed 3 --seconds 20 --trace 0

One process runs a fixed, seeded set of instances of the workload in a
closed loop with one caller, checks every output against the values
recorded in ``bench/reference.json`` and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
an ``info`` object (sample counts, instance times, ``src/`` line count,
``nproc`` and library versions), for information only.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
three fresh processes that import otlab, build the inputs and certify the
cost), ``wall_s``, ``instance_s_p50`` and ``peak_rss_mb``.  ``--trace 1``
runs the same instances once untraced and once traced, reports the
per-layer counts and times and the tracing overhead, and writes every
span to ``.bench_out/``.

Instances come from a pool of ``POOL`` recorded instance seeds; the run
with seed s takes the n instances following s * n in that pool, n being
``--seconds`` divided by the workload's per-instance budget.
"""
from __future__ import annotations

import os

# one BLAS thread: the benchmark machine has two shared cores, and a
# threaded BLAS would make timings depend on the neighbours' load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("chain", "neumann", "scan")
POOL = 128
SETUP_REPEATS = 3
# seconds of --seconds each instance is budgeted; fixes n per run
INSTANCE_BUDGET_S = {"chain": 2.8, "neumann": 1.0, "scan": 2.5}
TRACE_DIR = Path(".bench_out")

LAYER_NAMES = ("costs", "measures", "meshing", "neumann", "trajectories", "transport")
PER_LAYER = (
    "transport.solve_exact.calls", "transport.solve_exact.s",
    "transport.solve_exact.matrix_entries", "transport.solve_exact.support",
    "transport.solve_exact.repeat_calls", "transport.solve_exact.repeat_s",
    "transport.linprog.calls", "transport.linprog.s", "transport.linprog.iterations",
    "transport.data_D.s", "transport.compute_smallness.s",
    "transport.data_restriction_check.s", "transport.localisation_check.s",
    "trajectories.select_radius.s", "trajectories.select_radius.candidates",
    "trajectories.approximate_boundary_data.calls",
    "trajectories.approximate_boundary_data.s",
    "trajectories.approximate_boundary_data.errors",
    "trajectories.path_integral.calls", "trajectories.path_integral.s",
    "measures.lebesgue_quadrature.calls", "measures.lebesgue_quadrature.s",
    "measures.restrict.calls",
    "meshing.build_mesh.s", "meshing.build_mesh.nodes",
    "meshing.DiskMesh.locate.calls", "meshing.DiskMesh.locate.points",
    "meshing.DiskMesh.locate.s",
    "neumann.solve_neumann.calls", "neumann.solve_neumann.s",
    "neumann.splu.calls", "neumann.splu.s", "neumann.splu.fill_nnz",
    "neumann.regularity_diagnostics.s",
    "neumann.holder_product_check.s", "neumann.holder_product_check.pairs",
    "costs.verify_assumptions.s",
    "costs.cost_eval.points", "costs.cost_eval.s",
    "costs.dual_grad.points", "costs.dual_grad.s",
) + tuple(f"{layer}.self_s" for layer in LAYER_NAMES) + (
    "trace.overhead_s", "trace.cover_min",
)


def unit_of(name: str) -> str:
    if name == "trace.cover_min":
        return "ratio"
    return "s" if name.endswith((".s", "_s")) else "count"


def _import_otlab():
    if not (SRC / "otlab" / "__init__.py").is_file():
        raise SystemExit(f"otlab sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def instances_for(workload: str, seed: int, seconds: float) -> list:
    n = max(1, int(seconds // INSTANCE_BUDGET_S[workload]))
    return [(seed * n + k) % POOL for k in range(n)]


def setup_child(workload: str, instance: int, size: str) -> None:
    """Time one set-up from a fresh interpreter; prints the seconds."""
    t0 = time.perf_counter()
    _import_otlab()
    import workloads
    workloads.set_up(workload, instance, size)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, instance: int, size: str) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(instance), "--seconds", "0",
             "--size", size],
            capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_instances(workload, items, refs, tracer=None):
    """Run each (instance, inputs) once, then check the outputs.

    Returns per-instance records and the wall time of the loop; the
    reference check runs after the loop and is not timed.
    """
    import reference
    import workloads

    spec = workloads.cost_of(workload)
    runner = workloads.RUNNERS[workload]
    records = []
    t_loop = time.perf_counter()
    for inst, inputs in items:
        if tracer is not None:
            tracer.begin(inst)
        t0 = time.perf_counter()
        out = error = None
        try:
            out = runner(inputs, spec)
        except Exception as exc:  # a failed instance is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        records.append({"instance": inst, "s": dt, "error": error, "out": out})
    wall = time.perf_counter() - t_loop

    for rec, (inst, inputs) in zip(records, items):
        out = rec.pop("out")
        if out is None:
            continue
        want = refs.get(str(inst))
        bad = (["no recorded reference"] if want is None
               else reference.mismatches(workload, inputs, spec, out, want))
        rec["error"] = "; ".join(bad) or None
    return records, wall


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def environment() -> dict:
    import numpy
    import scipy
    return {"src_lines": src_lines(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, size):
    insts = instances_for(workload, seed, seconds)
    setup_times = measure_setup(workload, insts[0], size)

    import reference
    import workloads
    refs = reference.load(size)[workload]
    items = [(i, workloads.make_inputs(workload, i, size)) for i in insts]

    records, wall = run_instances(workload, items, refs)

    times = [r["s"] for r in records]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(wall, "s"),
        "instance_s_p50": metric(statistics.median(times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"setup_samples": setup_times, "instance_samples": len(times)}
    return records, metrics, info


def per_layer(workload, seed, seconds, size):
    from tracer import Tracer
    import reference
    import workloads

    insts = instances_for(workload, seed, seconds)
    refs = reference.load(size)[workload]
    tracer = Tracer()
    with tracer:
        # set-up runs traced in-process: cold caches, like a user's first call
        tracer.begin("setup")
        workloads.set_up(workload, insts[0], size)
        tracer.end()
    items = [(i, workloads.make_inputs(workload, i, size)) for i in insts]

    plain, untraced = run_instances(workload, items, refs)
    with tracer:
        records, traced = run_instances(workload, items, refs, tracer)
    for a, b in zip(plain, records):
        b["error"] = b["error"] or a["error"]

    totals = {}
    for inst in tracer.instances:
        for name, stats in inst["stats"].items():
            for key, val in stats.items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0.0) + val
        for layer, val in inst["self_s"].items():
            totals[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0) + val

    # top-level spans against each instance's wall time (set-up excluded)
    totals["trace.cover_min"] = min(i["top_s"] / i["wall_s"] for i in tracer.instances[1:])
    totals["trace.overhead_s"] = traced - untraced
    metrics = {}
    for name in PER_LAYER:
        unit, value = unit_of(name), totals.get(name, 0.0)
        metrics[name] = metric(int(round(value)) if unit == "count" else value, unit)

    TRACE_DIR.mkdir(exist_ok=True)
    dump = [{"label": i["label"], "wall_s": i["wall_s"], "top_s": i["top_s"],
             "self_s": dict(i["self_s"]),
             "stats": {k: dict(v) for k, v in i["stats"].items()},
             "spans": i["spans"]} for i in tracer.instances]
    path = TRACE_DIR / f"trace-{workload}-{size}-seed{seed}.json"
    path.write_text(json.dumps({"instances": dump}))
    info = {"untraced_wall_s": untraced, "traced_wall_s": traced, "trace_file": str(path)}
    return records, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_child:
        setup_child(args.workload, args.seed, args.size)
        return 0
    _import_otlab()
    run = per_layer if args.trace else end_to_end
    records, metrics, info = run(args.workload, args.seed, args.seconds, args.size)

    failed = [r for r in records if r["error"]]
    info.update(environment())
    info.update({"workload": args.workload, "seed": args.seed, "size": args.size,
                 "instances": [r["instance"] for r in records],
                 "instance_s": [r["s"] for r in records],
                 "errors": {str(r["instance"]): r["error"] for r in failed}})
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
