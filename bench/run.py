"""Benchmark of cghom: three fixed workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload hierarchy --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0

Run from the root of a checkout; the package is imported from ``src/``.  A
run sets up the workload, repeats whole passes until ``--seconds`` have
passed (at least three), checks every pass's outputs, and prints the
metrics by name with their units, then one JSON object as its last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, with the tracing overhead.  See bench/README.md.
"""
from __future__ import annotations

import os

# One BLAS thread in this process and in every process it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_PASSES = 3          # so that the median pass time is one pass's time
SETUP_PROBES = 3        # fresh-interpreter set-ups, one after each of the first passes
WORKLOAD_NAMES = ("hierarchy", "ensemble", "dirichlet")

END_TO_END = {"wall_s": "s", "cells_per_s": "cells/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# metric name -> (span name, span quantity, unit)
PER_LAYER = {
    "fields.gen_named_field.s": ("fields.gen_named_field", "s", "s"),
    "fields.gen_named_field.calls": ("fields.gen_named_field", "calls", "count"),
    "solver.assemble.s": ("solver.assemble", "s", "s"),
    "solver.assemble.calls": ("solver.assemble", "calls", "count"),
    "solver.assemble.unknowns": ("solver.assemble", "unknowns", "count"),
    "solver.maximize_J_backend.s": ("solver.maximize_J_backend", "s", "s"),
    "solver.maximize_J_backend.calls": ("solver.maximize_J_backend", "calls", "count"),
    "solver.maximize_J_backend.loads": ("solver.maximize_J_backend", "loads", "count"),
    "solver.solve_dirichlet.s": ("solver.solve_dirichlet", "s", "s"),
    "solver.solve_dirichlet.calls": ("solver.solve_dirichlet", "calls", "count"),
    "solver.quadrature_flux_rhs.s": ("solver.quadrature_flux_rhs", "s", "s"),
    "coarsegrain.coarse_grain_cube.calls": ("coarsegrain.coarse_grain_cube", "calls", "count"),
    "coarsegrain.coarse_grain_cube.self_s": ("coarsegrain.coarse_grain_cube", "self_s", "s"),
    "coarsegrain.coarse_grain_cube.repeats": ("coarsegrain.coarse_grain_cube", "repeats", "count"),
    "coarsegrain.hierarchy_sweep.self_s": ("coarsegrain.hierarchy_sweep", "self_s", "s"),
    "coarsegrain.HierarchyCache.defects.s": (("coarsegrain.HierarchyCache.subadditivity_defect",
                                              "coarsegrain.HierarchyCache.sandwich_defect"), "s", "s"),
    "norms.ellipticity_constants.s": ("norms.ellipticity_constants", "s", "s"),
    "norms.ring_dual_norm.s": ("norms.ring_dual_norm", "s", "s"),
    "norms.ring_dual_norm.calls": ("norms.ring_dual_norm", "calls", "count"),
    "ergodic.estimate_Abar.self_s": ("ergodic.estimate_Abar", "self_s", "s"),
    "ergodic.diagnostics.s": (("ergodic.gap_diagnostic", "ergodic.check_monotone",
                               "ergodic.homogenized_matrix"), "s", "s"),
    "homexp.solve_oscillating.self_s": ("homexp.solve_oscillating", "self_s", "s"),
    "homexp.error_fields.s": ("homexp.error_fields", "s", "s"),
    "homexp.compute_E_s.s": ("homexp.compute_E_s", "s", "s"),
    "homexp.half_lattice_matrices.s": ("homexp.half_lattice_matrices", "s", "s"),
    "homexp.half_lattice_matrices.cubes": ("homexp.half_lattice_matrices", "cubes", "count"),
    "homexp.compute_GH.self_s": ("homexp.compute_GH", "self_s", "s"),
    "cli.write_json_report.s": ("cli.write_json_report", "s", "s"),
    "cli.output_bytes": (None, None, "bytes"),
    "trace.overhead_s": (None, None, "s"),
}


def import_workloads():
    """Import cghom from this checkout's ``src/`` and the workload module."""
    src = ROOT / "src"
    if not (src / "cghom" / "__init__.py").is_file():
        raise SystemExit(f"error: no cghom package under {src}")
    sys.path.insert(0, str(src))
    import workloads
    if Path(workloads.cghom.__file__).resolve().parent != src / "cghom":
        raise SystemExit(f"error: imported cghom from {workloads.cghom.__file__}")
    return workloads


def setup(name: str, seed: int, out_dir: Path, sizes: dict | None = None):
    """Import cghom and build the workload's inputs; returns (workload, seconds).

    ``sizes`` overrides the workload's size parameters (the self-check uses
    small ones); the benchmark always runs the defaults.
    """
    t0 = time.perf_counter()
    workload = import_workloads().WORKLOADS[name](seed, out_dir, **(sizes or {}))
    return workload, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(seed), "--setup-probe"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def resident_kb() -> int:
    """This process's resident set now, in kB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values of one traced pass from its span summary."""
    out = {}
    for metric, (span_names, quantity, _) in PER_LAYER.items():
        if span_names is None:
            continue
        names = span_names if isinstance(span_names, tuple) else (span_names,)
        out[metric] = sum(summary.get(n, {}).get(quantity, 0) for n in names)
    return out


def run_passes(workload, seconds: float, out_dir: Path, tracer=None,
               probe=None) -> dict:
    """Whole passes until ``seconds`` have passed, and at least MIN_PASSES.

    With a tracer every other pass is traced, starting with an untraced one.
    With ``probe``, a set-up probe follows each of the first SETUP_PROBES
    passes, so that the set-up times sample the same stretch of time as the
    passes; the probes' time does not count towards ``seconds``.
    """
    res = {"walls": [], "traced_walls": [], "layers": [], "attempted": 0,
           "failed": 0, "problems": [], "last": None, "setups": [],
           "resident_kb": resident_kb(), "worker_peak_kb": 0}
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        fresh_dir(out_dir)
        if traced:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        error = None
        try:
            output = workload.run_pass()
        except Exception:                 # a crash fails the pass, not the run
            output, error = None, traceback.format_exc(limit=3)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        res["attempted"] += workload.ops_per_pass
        if error is None:
            try:
                failed, problems = workload.check_pass(output)
                res["last"] = output
            except Exception:             # unreadable outputs fail the pass
                error = traceback.format_exc(limit=3)
        if error is not None:
            failed, problems = workload.ops_per_pass, [error]
        res["failed"] += failed
        res["problems"] += problems
        if traced:
            tracer.collect_workers()
            row = layer_metrics(spans.summarize(tracer.spans))
            row["cli.output_bytes"] = dir_bytes(out_dir)
            res["layers"].append(row)
            res["traced_walls"].append(wall)
        else:
            res["walls"].append(wall)
        if i == 0:    # the workers' peak, before any probe is reaped
            res["worker_peak_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        i += 1
        if probe is not None and i <= SETUP_PROBES:
            t0 = time.perf_counter()
            res["setups"].append(probe())
            start += time.perf_counter() - t0
        if time.perf_counter() - start >= seconds and i >= MIN_PASSES:
            return res


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None) -> dict:
    out_dir = OUT / f"{name}-{os.getpid()}"      # private to this run
    workload, setup_s = setup(name, seed, out_dir, sizes)
    tracer = None
    if trace:
        tracer = spans.Tracer(fresh_dir(OUT / f"{name}-{os.getpid()}-spans"))
    try:
        probe = None if trace else (lambda: probe_setup(name, seed))
        res = run_passes(workload, seconds, out_dir, tracer, probe)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None:
            shutil.rmtree(tracer.dump_dir, ignore_errors=True)
    if tracer is not None:
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(tracer.spans))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss    # before check_run
    problems = res["problems"]
    if res["last"] is not None:
        try:
            problems += workload.check_run(res["last"])
        except Exception:
            problems.append(traceback.format_exc(limit=3))
    failed = res["attempted"] if problems else res["failed"]
    wall = statistics.median(res["walls"])
    if trace:
        # median_low keeps each value one a traced pass produced (counts stay whole)
        metrics = {m: statistics.median_low(row[m] for row in res["layers"])
                   for m in res["layers"][0]}
        metrics["trace.overhead_s"] = statistics.median(res["traced_walls"]) - wall
        metrics = {m: {"value": metrics[m], "unit": PER_LAYER[m][2]} for m in PER_LAYER}
    else:
        # A forked worker's peak includes the pages it shares with this
        # process; count only what it holds above this process's resident
        # set at the fork, once per worker.
        added = max(0, res["worker_peak_kb"] - res["resident_kb"])
        values = {"wall_s": wall,
                  "cells_per_s": statistics.median(workload.cells_per_pass / w
                                                   for w in res["walls"]),
                  "setup_s": statistics.median([setup_s] + res["setups"]),
                  "peak_rss_mb": (own + workload.workers * added) / 1024.0}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    for problem in problems:
        print(f"check failed: {problem}")
    passes = len(res["walls"]) + len(res["traced_walls"])
    print(f"{name}: seed {seed}, {passes} passes, {workload.ops_per_pass} operations "
          f"and {workload.cells_per_pass} cells per pass")
    print("pass wall times, s: " + " ".join(f"{w:.3f}" for w in res["walls"])
          + ("; traced: " + " ".join(f"{w:.3f}" for w in res["traced_walls"])
             if trace else ""))
    for m, v in metrics.items():
        print(f"{m} = {v['value']:.6g} {v['unit']}")
    print(f"operations attempted {res['attempted']}, failed {failed}")
    return {"correct": not problems, "attempted": res["attempted"],
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, and print the set-up time")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_probe:
        _, seconds = setup(args.workload, args.seed, OUT / f"probe-{os.getpid()}")
        print(seconds)
        return 0
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], cwd=ROOT).returncode
                 for name in WORKLOAD_NAMES]
        return max(codes)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
