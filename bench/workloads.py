"""The three benchmark workloads: their inputs, one timed pass, output checks.

Each workload is built from the benchmark's seed (that is its set-up), runs
one pass through the public ``cghom`` API or the ``cghom`` CLI entry point
called in-process, and checks the pass's outputs against computations made
apart from the program or against properties the method must have.

``check_pass`` returns (failed operations, problems); a problem is a failed
check and makes the run incorrect.  ``check_run`` runs once per run, after
the timed passes, and returns problems only.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

import cghom
from cghom import cli, coarsegrain, ergodic, fields, homexp, norms, solver

ROOT = Path(__file__).resolve().parent.parent
ALPHA = 0.6                                 # the CLI's default homexp.alpha
WORKERS = 2                                 # the CLI's process pool; nproc is 2
R90 = np.array([[0.0, -1.0], [1.0, 0.0]])   # quarter turn of the (x0, x1) plane


def reference_impl():
    """The test suite's loop-based oracles (tests/reference_impl.py)."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import reference_impl
    finally:
        sys.path.pop(0)
    return reference_impl


def rotation_defect(field, cube, A) -> float:
    """Rotate the cube's cells by a quarter turn and coarse-grain them.

    The Q1 grid is invariant under the square's symmetries, so the rotated
    cube's matrix must equal diag(R, R) A diag(R, R)^T.  Returns the largest
    entry of the difference relative to max(1, |A|).
    """
    def rotate(cells):
        turned = np.rot90(cells[cube.slices], 1, axes=(0, 1))
        return np.einsum("ab,...bc,dc->...ad", R90, turned, R90)

    turned = fields.CoefficientField(dim=2, level=cube.level,
                                     s_cells=rotate(field.s_cells),
                                     k_cells=rotate(field.k_cells))
    A_rot = coarsegrain.coarse_grain_cube(turned).A
    Q = np.kron(np.eye(2), R90)
    return float(np.abs(A_rot - Q @ A @ Q.T).max() / max(1.0, np.linalg.norm(A, 2)))


def _min_eig(mats) -> np.ndarray:
    return np.linalg.eigvalsh(mats).min(axis=-1)


def order_slacks(A_by_scale: dict) -> dict:
    """Smallest eigenvalues of the three order properties, every cube.

    Subadditivity: children's mean minus parent.  Sandwich: cell mean minus
    A (upper), and A minus Jswap (cell mean)^-1 Jswap (lower).  Returns, per
    property, the worst absolute eigenvalue and the worst one relative to
    the cube's |A|.
    """
    d = 2
    Jsw = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(d))
    cells = A_by_scale[0]
    out = {key: [np.inf, np.inf] for key in ("subadditivity", "upper", "lower")}
    for k in sorted(A_by_scale)[1:]:
        A = A_by_scale[k]
        m = A.shape[0]
        scale = np.linalg.norm(A, 2, axis=(-2, -1))
        kids = A_by_scale[k - 1].reshape(m, 3, m, 3, 2 * d, 2 * d).mean(axis=(1, 3))
        side = 3 ** k
        pt = cells.reshape(m, side, m, side, 2 * d, 2 * d).mean(axis=(1, 3))
        for key, lam in (("subadditivity", _min_eig(kids - A)),
                         ("upper", _min_eig(pt - A)),
                         ("lower", _min_eig(A - Jsw @ np.linalg.inv(pt) @ Jsw))):
            out[key][0] = min(out[key][0], float(lam.min()))
            out[key][1] = min(out[key][1], float((lam / scale).min()))
    return out


def _cli(argv) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _sets(assignments: dict) -> list[str]:
    argv = []
    for key, val in assignments.items():
        argv += ["--set", f"{key}={json.dumps(val)}"]
    return argv


def _one(out_dir: Path, pattern: str) -> Path | None:
    found = sorted(out_dir.glob(pattern))
    return found[0] if len(found) == 1 else None


class Hierarchy:
    """Single-window analysis of one skew lognormal field (API calls)."""

    name = "hierarchy"
    workers = 0

    def __init__(self, seed: int, out_dir: Path, level: int = 4, l: int = 2):
        self.level, self.l = level, l
        self.field = fields.gen_named_field("skew_lognormal", level=level,
                                            seed=seed, sigma=0.5, kappa=0.5)
        self.A_ref = np.eye(4)        # coarse matrix of the unit coefficient
        self.prefactor = np.eye(2)    # its s_star - k
        side = 3 ** level
        sweep = [(9 ** (level - k), 9 ** k) for k in range(1, level + 1)]
        lattice = [(((side - 3 ** k) // 3 ** (k - 1) + 1) ** 2, 9 ** k)
                   for k in range(level - l + 1, level + 1)]
        self.ops_per_pass = sum(c for c, _ in sweep + lattice)
        self.cells_per_pass = sum(c * v for c, v in sweep + lattice)

    def run_pass(self) -> dict:
        n = self.level
        cache = coarsegrain.hierarchy_sweep(self.field, check=True)
        return {
            "cache": cache,
            "subadditivity": cache.subadditivity_defect(),
            "sandwich": cache.sandwich_defect(),
            "ellipticity": norms.ellipticity_constants(cache, 0.4, 0.4),
            "E": homexp.compute_E_s(cache, self.A_ref, ALPHA),
            "GH": homexp.compute_GH(self.field, cache.A_by_scale[n][0, 0],
                                    self.A_ref, self.prefactor, ALPHA, self.l),
        }

    def check_pass(self, out: dict) -> tuple[int, list[str]]:
        problems = []
        cache = out["cache"]
        if cache.diagnostics:
            problems.append(f"sweep reported {len(cache.diagnostics)} order violations")
        slacks = order_slacks(cache.A_by_scale)
        for key, (_, rel) in slacks.items():
            if rel < -1e-8:
                problems.append(f"{key} slack {rel:.3e} |A| below -1e-8 |A|")
        reported = {"subadditivity": out["subadditivity"],
                    "upper": out["sandwich"]["upper"],
                    "lower": out["sandwich"]["lower"]}
        for key, val in reported.items():
            if abs(val - slacks[key][0]) > 1e-10:
                problems.append(f"reported {key} defect {val:.6e} differs from "
                                f"recomputed {slacks[key][0]:.6e}")
        rep = out["ellipticity"]
        if not (np.isfinite(rep.lambda_s) and rep.lambda_s > 0
                and rep.Lambda_t >= rep.lambda_s * (1 - 1e-12)):
            problems.append(f"ellipticity constants lambda_s={rep.lambda_s} "
                            f"Lambda_t={rep.Lambda_t} out of order")
        for name, val in (("E", out["E"]), ("G", out["GH"][0]), ("H", out["GH"][1])):
            if not (np.isfinite(val) and val >= 0):
                problems.append(f"{name} = {val} is not finite and nonnegative")
        return (self.ops_per_pass if problems else 0), problems

    def check_run(self, out: dict) -> list[str]:
        problems = []
        n, cache = self.level, out["cache"]
        for k, offset in ((max(n - 1, 1), (3 ** (n - 1),) * 2),
                          (max(n - 2, 1), (0, 2 * 3 ** max(n - 2, 1)))):
            cube = cghom.TriadicCube(level=k, offset=offset, dim=2)
            dev = rotation_defect(self.field, cube, cache.A_at(k, offset))
            if dev > 1e-10:
                problems.append(f"rotated level-{k} cube off by {dev:.3e}")
        k = min(2, n)
        offset = (3 ** n - 3 ** k, 0)
        op = solver.assemble(self.field, cghom.TriadicCube(level=k, offset=offset, dim=2))
        A = cache.A_at(k, offset)
        brute_force_J = reference_impl().brute_force_J
        for p, q in (([1.0, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, 1.0]),
                     ([1.0, 0.0], [0.0, 1.0]), ([1.0, -0.5], [0.3, 0.7])):
            gap = abs(coarsegrain.J_from_A(A, p, q, 2) - brute_force_J(op, p, q))
            if gap > 1e-9:
                problems.append(f"J{p, q} differs from the dense oracle by {gap:.3e}")
        return problems


class Ensemble:
    """Monte Carlo estimator through ``cghom ergodic`` with a process pool."""

    name = "ensemble"
    workers = WORKERS
    PARAMS = {"sigma": 0.4, "kappa": 0.6}

    def __init__(self, seed: int, out_dir: Path, n_max: int = 3,
                 samples: int = 64):
        self.seed, self.out_dir = seed, out_dir
        self.n_max, self.samples = n_max, samples
        self.argv = (["ergodic", "--seed", str(seed), "--workers", str(WORKERS),
                      "--output-dir", str(out_dir)]
                     + _sets({"field.kind": "skew_lognormal",
                              "field.params": self.PARAMS,
                              "ergodic.n_min": 1, "ergodic.n_max": n_max,
                              "ergodic.samples": samples, "ergodic.csv": True}))
        # per pass: every sample, plus one per-sample CSV write per scale
        self.ops_per_pass = n_max * samples + n_max
        self.cells_per_pass = samples * sum(9 ** n for n in range(1, n_max + 1))

    def run_pass(self) -> dict:
        rc, text = _cli(self.argv)
        return {"rc": rc, "text": text}

    def check_pass(self, out: dict) -> tuple[int, list[str]]:
        report_path = _one(self.out_dir, "ergodic_*.json")
        if out["rc"] != 0 or report_path is None:
            return self.ops_per_pass, [f"cghom ergodic exited {out['rc']}: {out['text'][-300:]}"]
        report = json.loads(report_path.read_text())
        if "a_bar" not in report:
            return self.ops_per_pass, ["report has no a_bar"]
        sig2, kap2 = self.PARAMS["sigma"] ** 2, self.PARAMS["kappa"] ** 2
        # exact ensemble means of avg s^-1 and avg (s + k^T s^-1 k)
        harmonic = np.exp(-sig2 / 2) * np.eye(2)
        pointwise = np.exp(sig2 / 2) * (1 + kap2 / 3) * np.eye(2)
        failed, problems = 0, []
        per_scale = {row["n"]: row for row in report["per_scale"]}
        for n in range(1, self.n_max + 1):
            row = per_scale.get(n)
            if row is None or row["samples"] != self.samples:
                failed += self.samples
                problems.append(f"scale {n} missing from the report")
                continue
            A = np.array(row["A_bar"])
            tol = 3.0 * float(np.linalg.norm(np.array(row["A_se"])))
            exact = 1e-10 * max(1.0, float(np.linalg.norm(A, 2)))
            s_star = np.linalg.inv(A[2:, 2:])
            b = A[:2, :2]
            s = b - A[:2, 2:] @ np.linalg.solve(A[2:, 2:], A[2:, :2])
            chain = (("harmonic <= s*", s_star - harmonic, tol),
                     ("s* <= s", s - s_star, exact), ("s <= b", b - s, exact),
                     ("b <= pointwise", pointwise - b, tol))
            bad = [f"{name} by {_min_eig(diff):.3e}" for name, diff, t in chain
                   if _min_eig(diff) < -t]
            if bad:
                failed += self.samples
                problems.append(f"scale {n}: " + ", ".join(bad))
        failed += self._csv_failures(per_scale)
        return failed, problems

    def _csv_failures(self, per_scale: dict) -> int:
        """Scales whose per-sample CSV rows are missing or disagree with A_bar.

        ``cmd_ergodic`` never asks for the samples to be kept, so today the
        CSV holds only its header and every scale's write fails.
        """
        path = _one(self.out_dir, "ergodic_samples_*.csv")
        if path is None:
            return self.n_max
        values: dict = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                values.setdefault(int(row["n"]), []).append(float(row["value"]))
        failed = 0
        for n in range(1, self.n_max + 1):
            vals = np.array(values.get(n, []))
            if vals.size != self.samples * 16:
                failed += 1
                continue
            mean = vals.reshape(self.samples, 4, 4).mean(axis=0)
            if np.abs(mean - np.array(per_scale[n]["A_bar"])).max() > 1e-12:
                failed += 1
        return failed

    def check_run(self, out: dict) -> list[str]:
        seed0 = int(ergodic.sample_seeds(self.seed, self.n_max, self.samples)[0])
        field = fields.gen_named_field("skew_lognormal", level=self.n_max,
                                       seed=seed0, **self.PARAMS)
        A = coarsegrain.coarse_grain_cube(field).A
        dev = rotation_defect(field, field.domain, A)
        return [f"rotated sample top cube off by {dev:.3e}"] if dev > 1e-10 else []


class Dirichlet:
    """Homogenization-error sweeps through ``cghom homogenize``."""

    name = "dirichlet"
    workers = WORKERS
    # The laminate's random phase takes two values, so two seeds cover it.
    # The i.i.d. checkerboard needs eight for its n=1 median to stay clear
    # of the 14 of 512 3x3 boards whose n=1 error is exactly zero.
    FAMILIES = {
        "laminate": {"field.kind": "laminate",
                     "field.params": {"a1": 1, "a2": 4, "phase": "random"},
                     "homexp.a_bar": [[1.6, 0.0], [0.0, 2.5]],
                     "homexp.target": {"family": "affine", "p": [1.0, 0.0]}},
        "checkerboard": {"field.kind": "checkerboard",
                         "field.params": {"low": 0.75, "high": 4 / 3, "mode": "iid"},
                         "homexp.a_bar": [[1.0, 0.0], [0.0, 1.0]],
                         "homexp.target": {"family": "affine", "p": [1.0, 0.0]}},
    }

    def __init__(self, seed: int, out_dir: Path, n_max: int = 5,
                 seeds: dict | None = None):
        self.seed, self.out_dir, self.n_max = seed, out_dir, n_max
        self.seeds = seeds or {"laminate": 2, "checkerboard": 8}
        self.argv = {}
        for fam, sets in self.FAMILIES.items():
            self.argv[fam] = (["homogenize", "--seed", str(seed),
                               "--workers", str(WORKERS),
                               "--output-dir", str(out_dir / fam)]
                              + _sets({**sets, "homexp.n_min": 1,
                                       "homexp.n_max": n_max,
                                       "homexp.seeds": self.seeds[fam]}))
        self.ops_per_pass = n_max * sum(self.seeds.values())
        cells = sum(9 ** n for n in range(1, n_max + 1))
        self.cells_per_pass = cells * sum(self.seeds.values())

    def run_pass(self) -> dict:
        return {fam: _cli(argv) for fam, argv in self.argv.items()}

    def check_pass(self, out: dict) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for fam, (rc, text) in out.items():
            ops = self.n_max * self.seeds[fam]
            path = _one(self.out_dir / fam, "homog_*.csv")
            if rc != 0 or path is None:
                failed += ops
                problems.append(f"{fam}: cghom homogenize exited {rc}: {text[-300:]}")
                continue
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            bad = sum(int(r["failed"]) for r in rows)
            if len(rows) != ops or bad:
                failed += ops
                problems.append(f"{fam}: {len(rows)} records, {bad} failed")
                continue
            med = [np.median([float(r["grad_err"]) for r in rows if int(r["n"]) == n])
                   for n in range(1, self.n_max + 1)]
            if not med[-1] < 0.5 * med[0]:
                failed += ops
                problems.append(f"{fam}: median grad error {med[-1]:.4g} at "
                                f"n={self.n_max} not below half of {med[0]:.4g}")
        return failed, problems

    def check_run(self, out: dict) -> list[str]:
        problems = []
        n_max = min(3, self.n_max)
        a = np.array([[2.0, 0.5], [-0.5, 1.0]])
        control = homexp.HomExperiment(
            spec=ergodic.FieldSpec("constant", 2, {"matrix": a.tolist()}), a_bar=a,
            h=homexp.TargetFunction("affine", p=[1.0, -0.5]), alpha=ALPHA,
            n_min=1, n_max=n_max)
        for rec in homexp.run_dirichlet_experiment(control, seed=self.seed):
            if rec.failed or max(rec.grad_err, rec.flux_err) >= 1e-10:
                problems.append(f"constant control at n={rec.n}: grad {rec.grad_err:.3e}, "
                                f"flux {rec.flux_err:.3e}")
        lam = self.FAMILIES["laminate"]
        along = homexp.HomExperiment(
            spec=ergodic.FieldSpec("laminate", 2, lam["field.params"]),
            a_bar=np.array(lam["homexp.a_bar"]),
            h=homexp.TargetFunction("affine", p=[0.0, 1.0]), alpha=ALPHA,
            n_min=1, n_max=n_max)
        recs = homexp.run_dirichlet_experiment(along, seed=self.seed)
        for rec in recs:
            if rec.failed or rec.grad_err >= 1e-11:
                problems.append(f"laminate along its layers at n={rec.n}: "
                                f"grad error {rec.grad_err:.3e}")
        # the exact solution is the target, so the flux error per cell is
        # (a - 2.5) e_2; its ring norm by the loop oracle
        field = fields.gen_named_field("laminate", level=n_max, seed=self.seed,
                                       **lam["field.params"])
        err = np.zeros(field.s_cells.shape[:2] + (2,))
        err[..., 1] = field.s_cells[..., 0, 0] - 2.5
        want = 3.0 ** (-ALPHA * n_max) * reference_impl().ring_norm_loops(err, ALPHA, 2)
        got = recs[-1].flux_err
        if not abs(got - want) <= 1e-10 * want:
            problems.append(f"laminate along its layers: flux error {got:.12e} "
                            f"vs loop oracle {want:.12e}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Hierarchy, Ensemble, Dirichlet)}
