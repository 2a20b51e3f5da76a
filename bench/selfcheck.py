"""Fast self-check of the benchmark harness (about ten seconds; no timing claims).

    python3 bench/selfcheck.py

Checks that:
  * the metrics the harness emits match BENCHMARK.json by name and unit, for
    every workload, untraced and traced (small workload sizes);
  * every end-to-end metric is positive;
  * the tracer wraps each function in every module namespace that binds it,
    and every wrapped attribute is the original object again afterwards;
  * the traced counters count (calls, loads, repeated cubes);
  * in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.
Exits 1 on the first failed check.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import spans

SMALL = {
    "hierarchy": {"level": 2, "l": 1},
    "ensemble": {"n_max": 1, "samples": 4},
    "dirichlet": {"n_max": 2, "seeds": {"laminate": 1, "checkerboard": 1}},
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL  {what}")
        sys.exit(1)
    print(f"ok    {what}")


def snapshot() -> dict:
    """Every attribute of every cghom module and of HierarchyCache."""
    owners = [m for name, m in sys.modules.items()
              if name == "cghom" or name.startswith("cghom.")]
    owners.append(sys.modules["cghom.coarsegrain"].HierarchyCache)
    return {(id(o), attr): val for o in owners for attr, val in vars(o).items()}


def restored(before: dict) -> bool:
    now = snapshot()
    return now.keys() == before.keys() and all(now[k] is v for k, v in before.items())


def check_wrapping() -> None:
    from cghom import coarsegrain, ergodic, homexp, solver
    import cghom
    before = snapshot()
    original = solver.assemble
    tracer = spans.Tracer(run.fresh_dir(run.OUT / "selfcheck-spans"))
    tracer.install()
    try:
        expect(coarsegrain.assemble is solver.assemble is not original,
               "solver.assemble wrapped in solver and coarsegrain")
        expect(ergodic.coarse_grain_cube is homexp.coarse_grain_cube
               is cghom.coarse_grain_cube is coarsegrain.coarse_grain_cube,
               "coarse_grain_cube wrapped in every namespace binding it")
        field = cghom.gen_named_field("skew_lognormal", level=1, seed=3)
        coarsegrain.coarse_grain_cube(field)
        coarsegrain.coarse_grain_cube(field, field.domain)
    finally:
        tracer.uninstall()
    rows = spans.summarize(tracer.spans)
    cube = rows["coarsegrain.coarse_grain_cube"]
    expect(cube["calls"] == 2 and cube["repeats"] == 1,
           "coarse_grain_cube calls and repeats counted")
    expect(rows["solver.maximize_J_backend"]["loads"] == 20,
           "maximize_J_backend loads counted (10 per 2D cube)")
    expect(restored(before), "every wrapped attribute restored")


def check_metrics(bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.END_TO_END, "end-to-end names and units match BENCHMARK.json")
    expect(layer == {m: v[2] for m, v in run.PER_LAYER.items()},
           "per-layer names and units match BENCHMARK.json")
    run.SETUP_PROBES = 1
    for name in run.WORKLOAD_NAMES:
        for trace, want in ((False, e2e), (True, layer)):
            before = snapshot()
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.measure(name, 0, 0.0, trace, sizes=SMALL[name])
            json.dumps(result)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(got == want and result["attempted"] >= 1,
                   f"{name} --trace {int(trace)} emits every metric")
            if trace:
                expect(restored(before), f"{name}: attributes restored after tracing")
                calls = result["metrics"]["coarsegrain.coarse_grain_cube.calls"]["value"]
                expect(name == "dirichlet" or calls > 0, f"{name}: traced cube calls {calls}")
            else:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{name}: end-to-end metrics positive")


def check_bare_directory() -> None:
    bare = run.fresh_dir(run.OUT / "bare")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hierarchy",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare directory: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_workloads()
    check_wrapping()
    check_metrics(bench)
    check_bare_directory()
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
