"""Configuration-driven batch runner for all pipelines.

One JSON config file (flat sections mirroring the modules) drives every
subcommand; ``--set section.key=value`` flags override file values, and the
``CGHOM_OUTPUT_DIR`` environment variable overrides the configured output
directory (the ``--output-dir`` flag beats both).  Every output file embeds
the sha256 fingerprint of the fully merged config; timestamps appear only
under a separate ``meta`` key so that repeated runs with the same config and
seed are byte-identical elsewhere.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 self-test
(acceptance-gate) failure.
"""
from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import coarsegrain, ergodic, fields, homexp, norms, solver
from .fields import _KIND_PARAMS, gen_named_field, load_field, save_field
from .solver import NUMERICAL_ERRORS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GATE = 4

_ENV_OUTPUT_DIR = "CGHOM_OUTPUT_DIR"


class ConfigError(Exception):
    """Invalid or inconsistent configuration."""


DEFAULT_CONFIG = {
    "dim": 2,
    "seed": 0,
    "workers": 1,
    "output_dir": ".",
    "field": {"kind": "checkerboard", "level": 2, "params": {}},
    "norms": {"s": 0.4, "t": 0.4, "p": None, "q": None,
              "tail": True, "normalized": True},
    "coarsegrain": {"resolution": 1, "k_min": 0, "check": True},
    "ergodic": {"n_min": 1, "n_max": 3, "samples": 32, "csv": False},
    "homexp": {"alpha": 0.6, "n_min": 1, "n_max": 3, "seeds": 8,
               "a_bar": None, "target": {"family": "affine", "p": [1.0, 0.0]},
               "with_E": False, "with_GH": False, "ring_levels": 2},
    "cascade": {"sigmas": [0.25, 0.5], "powers": [1, 2, 3], "draws": 200000,
                "slope_sigma": 0.25, "slope_power": 3, "slope_level": 2,
                "slope_seeds": 200, "trend_sigma": 0.3, "trend_t": 0.9,
                "trend_levels": [2, 3, 4, 5], "trend_seeds": 12},
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path: str | None) -> dict:
    """Defaults deep-merged with the JSON config file (if any)."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(user) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    return _deep_merge(DEFAULT_CONFIG, user)


def apply_overrides(config: dict, assignments: list[str]) -> dict:
    """Apply ``section.key=value`` overrides (values parsed as JSON)."""
    out = copy.deepcopy(config)
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        path, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = path.strip().split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                raise ConfigError(f"override path {path!r} not in schema")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"override path {path!r} not in schema")
        node[parts[-1]] = value
    return out


# Merging the 27 children of a 3D level-3 cube is a dense boundary problem on
# 8,128 union nodes; one such cube condenses in 12.0 s at a 1,090 MB peak, too
# much per sample or seed.  Raising the cap waits on ROADMAP item 4.
MAX_LEVEL_3D = 2


def _coarse_grained_level(config: dict, command: str) -> int:
    """Level of the largest cube ``command`` coarse-grains (-1 for none)."""
    hx = config["homexp"]
    return {"coarsegrain": config["field"]["level"],
            "ellipticity": config["field"]["level"],
            "ergodic": config["ergodic"]["n_max"],
            "homogenize": hx["n_max"] if hx["a_bar"] is None else -1,
            }.get(command, -1)


def _check_3d_level(dim: int, level: int, what: str) -> None:
    if dim == 3 and level > MAX_LEVEL_3D:
        raise ConfigError(
            f"{what} would coarse-grain a 3D cube of level {level}; 3D cubes "
            f"above level {MAX_LEVEL_3D} are rejected because their merge is a "
            f"dense boundary problem of about 0.5 GB per matrix")


def _check_k_min(k_min: int, level: int, what: str) -> None:
    if k_min > level:
        raise ConfigError(f"coarsegrain.k_min={k_min} exceeds {what}: "
                          f"the sweep would keep no scale")


def validate_config(config: dict, command: str | None = None) -> None:
    """Reject inconsistent settings; with ``command``, also runs it cannot finish."""
    if config["dim"] not in (2, 3):
        raise ConfigError(f"dim must be 2 or 3, got {config['dim']}")
    if not isinstance(config["seed"], int) or config["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if not isinstance(config["workers"], int) or config["workers"] < 1:
        raise ConfigError("workers must be a positive integer")
    fld = config["field"]
    if fld["kind"] not in _KIND_PARAMS:
        raise ConfigError(f"unknown field kind {fld['kind']!r}; "
                          f"known: {sorted(_KIND_PARAMS)}")
    bad = set(fld.get("params", {})) - _KIND_PARAMS[fld["kind"]]
    if bad:
        raise ConfigError(f"unknown field parameter(s) {sorted(bad)} for "
                          f"kind {fld['kind']!r}")
    if not isinstance(fld["level"], int) or fld["level"] < 0:
        raise ConfigError("field.level must be a nonnegative integer")
    nm = config["norms"]
    s, t = nm["s"], nm["t"]
    if not (0.0 < s < 1.0 and 0.0 < t < 1.0):
        raise ConfigError("norms.s and norms.t must lie in (0, 1)")
    if s + t >= 1.0:
        raise ConfigError(f"norms exponents must satisfy s + t < 1, "
                          f"got s={s}, t={t}")
    for name in ("p", "q"):     # type(True) is bool, so flags are refused
        value = nm[name]
        if value is not None and not (type(value) in (int, float)
                                      and 0.0 < value < float("inf")):
            raise ConfigError(f"norms.{name} must be null or a number > 0, "
                              f"got {value!r}")
    if nm["p"] is not None and nm["q"] is not None:
        for name, other, sym in (("p", t, "t"), ("q", s, "s")):
            bound = config["dim"] / (2 * other)
            if not nm[name] > bound:
                raise ConfigError(f"norms.{name} must exceed d/(2{sym}) = "
                                  f"{bound:g} when norms.p and norms.q are "
                                  f"both given, got {nm[name]!r}")
    for key in ("norms.tail", "norms.normalized", "coarsegrain.check",
                "ergodic.csv", "homexp.with_E", "homexp.with_GH"):
        section, name = key.split(".")
        if not isinstance(config[section][name], bool):
            raise ConfigError(f"{key} must be true or false, "
                              f"got {config[section][name]!r}")
    alpha = config["homexp"]["alpha"]
    if not (max(s, t) < alpha < 1.0):
        raise ConfigError(f"homexp.alpha must lie in (max(s,t), 1) = "
                          f"({max(s, t)}, 1), got {alpha}")
    for key, low in (("ergodic.n_min", 0), ("ergodic.n_max", 0),
                     ("ergodic.samples", 2), ("homexp.n_min", 0),
                     ("homexp.n_max", 0), ("homexp.seeds", 1),
                     ("homexp.ring_levels", 1)):
        section, name = key.split(".")
        value = config[section][name]
        if not isinstance(value, int) or value < low:
            raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
    hx = config["homexp"]
    if not hx["n_min"] <= hx["n_max"]:
        raise ConfigError("homexp scale range must satisfy 0 <= n_min <= n_max")
    er = config["ergodic"]
    if not er["n_min"] <= er["n_max"]:
        raise ConfigError("ergodic scale range must satisfy 0 <= n_min <= n_max")
    cg = config["coarsegrain"]
    if not isinstance(cg["resolution"], int) or cg["resolution"] < 1:
        raise ConfigError("coarsegrain.resolution must be a positive integer")
    tgt = hx["target"]
    if tgt.get("family") not in ("affine", "quadratic", "trig"):
        raise ConfigError("homexp.target.family must be affine, quadratic or trig")
    wanted = [f"homexp.{key}" for key in ("with_E", "with_GH") if hx[key]]
    if command == "homogenize" and hx["a_bar"] is not None and wanted:
        raise ConfigError(f"{' and '.join(wanted)}: E, G and H need the ensemble "
                          f"mean A_bar, estimated only when homexp.a_bar is null")
    if command in ("coarsegrain", "ellipticity"):
        _check_k_min(cg["k_min"], fld["level"], f"field.level={fld['level']}")
    if command is not None:
        _check_3d_level(config["dim"], _coarse_grained_level(config, command),
                        f"'{command}'")


def config_fingerprint(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def resolve_output_dir(config: dict, flag_value: str | None) -> Path:
    """--output-dir flag beats the environment variable beats the config."""
    if flag_value:
        out = flag_value
    elif os.environ.get(_ENV_OUTPUT_DIR):
        out = os.environ[_ENV_OUTPUT_DIR]
    else:
        out = config["output_dir"]
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_json_report(obj: dict, path: Path, fingerprint: str,
                      meta: dict | None = None) -> None:
    body = dict(obj)
    body["config_sha256"] = fingerprint
    body["meta"] = {"created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                    **(meta or {})}
    path.write_text(json.dumps(body, sort_keys=True, indent=1,
                               default=_jsonable) + "\n")


def field_from_config(config: dict, seed: int | None = None):
    fld = config["field"]
    return gen_named_field(fld["kind"], level=fld["level"], dim=config["dim"],
                           seed=config["seed"] if seed is None else seed,
                           **fld.get("params", {}))


def fieldspec_from_config(config: dict) -> ergodic.FieldSpec:
    fld = config["field"]
    return ergodic.FieldSpec(kind=fld["kind"], dim=config["dim"],
                             params=dict(fld.get("params", {})))


def target_from_config(config: dict) -> homexp.TargetFunction:
    tgt = dict(config["homexp"]["target"])
    family = tgt.pop("family")
    return homexp.TargetFunction(family, **tgt)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_field(config: dict, out_dir: Path, fingerprint: str) -> int:
    field = field_from_config(config)
    name = f"field_{field.kind}_n{field.level}_seed{field.seed}.cghf"
    path = save_field(field, out_dir / name)
    print(f"wrote {path} ({field.cells_per_axis ** field.dim} cells, "
          f"sha256 {field.fingerprint[:16]})")
    return EXIT_OK


def _load_or_generate(config: dict, field_file: str | None):
    if field_file:
        field = load_field(field_file)
        _check_3d_level(field.dim, field.level, f"field file {field_file}")
        _check_k_min(config["coarsegrain"]["k_min"], field.level,
                     f"the level {field.level} of field file {field_file}")
        return field
    return field_from_config(config)


def cmd_coarsegrain(config: dict, out_dir: Path, fingerprint: str,
                    field_file: str | None) -> int:
    field = _load_or_generate(config, field_file)
    cg = config["coarsegrain"]
    cache = coarsegrain.hierarchy_sweep(field, k_min=cg["k_min"],
                                        resolution=cg["resolution"],
                                        check=cg["check"])
    cache_path = out_dir / f"cache_{fingerprint[:10]}.npz"
    cache.save(str(cache_path))
    top = cache.matrices_at(field.level, (0,) * field.dim)
    report = {
        "field_sha256": field.fingerprint,
        "level": field.level,
        "s_star": top.s_star, "k": top.k, "b": top.b, "s": top.s,
        "subadditivity_defect": cache.subadditivity_defect(),
        "diagnostics": cache.diagnostics,
        "cache_file": cache_path.name,
    }
    if cg["k_min"] == 0:
        report["sandwich_defect"] = cache.sandwich_defect()
    slack_min = {str(k): {c: v.min() for c, v in checks.items()}
                 for k, checks in cache.slacks().items()}
    write_json_report(report, out_dir / f"coarsegrain_{fingerprint[:10]}.json",
                      fingerprint, meta={"order_slack_min": slack_min})
    print(f"coarse-grained {field.kind} field at n={field.level}: "
          f"{len(cache.diagnostics)} ordering diagnostics")
    return EXIT_OK


def cmd_ellipticity(config: dict, out_dir: Path, fingerprint: str,
                    field_file: str | None) -> int:
    field = _load_or_generate(config, field_file)
    cg = config["coarsegrain"]
    nm = config["norms"]
    cache = coarsegrain.hierarchy_sweep(field, k_min=cg["k_min"],
                                        resolution=cg["resolution"], check=False)
    rep = norms.ellipticity_constants(cache, nm["s"], nm["t"], p=nm["p"],
                                      q=nm["q"], tail=nm["tail"],
                                      normalized=nm["normalized"])
    csv_path = out_dir / f"ellipticity_{fingerprint[:10]}.csv"
    norms.write_ellipticity_csv([rep], str(csv_path),
                                sample_ids=[field.fingerprint[:16]],
                                extra_cols={"config_sha256": fingerprint})
    report = {"lambda_s": rep.lambda_s, "Lambda_t": rep.Lambda_t,
              "contrast": rep.contrast, "per_scale_sinv": rep.per_scale_sinv,
              "per_scale_b": rep.per_scale_b, "field_sha256": field.fingerprint}
    if nm["p"] is not None and nm["q"] is not None:
        report["embedding"] = norms.embedding_check(cache, nm["p"], nm["q"],
                                                    nm["s"], nm["t"])
    write_json_report(report, out_dir / f"ellipticity_{fingerprint[:10]}.json",
                      fingerprint)
    print(f"lambda_s={rep.lambda_s:.6g} Lambda_t={rep.Lambda_t:.6g} "
          f"contrast={rep.contrast:.6g}")
    return EXIT_OK


def cmd_ergodic(config: dict, out_dir: Path, fingerprint: str) -> int:
    spec = fieldspec_from_config(config)
    er = config["ergodic"]
    with solver.worker_map(config["workers"]) as pmap:
        estimates = [
            ergodic.estimate_Abar(spec, n, er["samples"], seed=config["seed"],
                                  resolution=config["coarsegrain"]["resolution"],
                                  pmap=pmap, keep_samples=er["csv"])
            for n in range(er["n_min"], er["n_max"] + 1)
        ]
    gap = ergodic.gap_diagnostic(estimates) if len(estimates) >= 3 else None
    report = ergodic.estimates_report(estimates, gap)
    report["monotone"] = ergodic.check_monotone(estimates)
    try:
        hom = ergodic.homogenized_matrix(estimates, spec=spec)
        report["a_bar"] = hom.a_bar
        report["s_bar"] = hom.s_bar
        report["k_bar"] = hom.k_bar
    except ValueError as exc:
        report["a_bar_error"] = str(exc)
    write_json_report(report, out_dir / f"ergodic_{fingerprint[:10]}.json",
                      fingerprint)
    if er["csv"]:
        ergodic.write_samples_csv(estimates,
                                  str(out_dir / f"ergodic_samples_{fingerprint[:10]}.csv"))
    last = estimates[-1]
    print(f"n={last.n}: s_bar diag {np.diag(last.s_bar).round(5).tolist()}, "
          f"gap trace {float(np.trace(last.gap)):.5f}")
    if "a_bar_error" in report:
        print(f"homogenized matrix not accepted: {report['a_bar_error']}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_homogenize(config: dict, out_dir: Path, fingerprint: str) -> int:
    spec = fieldspec_from_config(config)
    hx = config["homexp"]
    resolution = config["coarsegrain"]["resolution"]
    A_bar = None
    with solver.worker_map(config["workers"]) as pmap:
        if hx["a_bar"] is not None:
            a_bar = np.asarray(hx["a_bar"], float)
        else:
            est = ergodic.estimate_Abar(spec, hx["n_max"],
                                        config["ergodic"]["samples"],
                                        seed=config["seed"],
                                        resolution=resolution, pmap=pmap)
            a_bar = est.s_bar + est.k_bar
            A_bar = est.A_bar
        exp = homexp.HomExperiment(spec=spec, a_bar=a_bar,
                                   h=target_from_config(config),
                                   alpha=hx["alpha"], n_min=hx["n_min"],
                                   n_max=hx["n_max"], resolution=resolution,
                                   A_bar=A_bar, ring_levels=hx["ring_levels"])
        per_seed = pmap(functools.partial(homexp.run_dirichlet_experiment, exp,
                                          with_E=hx["with_E"], with_GH=hx["with_GH"]),
                        range(config["seed"], config["seed"] + hx["seeds"]))
    family = f"{spec.kind}/{config['homexp']['target']['family']}"
    homexp.write_records_csv(per_seed,
                             str(out_dir / f"homog_{fingerprint[:10]}.csv"),
                             family=family,
                             extra_cols={"config_sha256": fingerprint})
    summary = homexp.summarize_records(per_seed)
    summary["family"] = family
    summary["a_bar"] = a_bar
    # how close the interior solves came to their residual check (1e-9)
    residuals = [r.residual for recs in per_seed for r in recs if not r.failed]
    write_json_report(summary, out_dir / f"homog_summary_{fingerprint[:10]}.json",
                      fingerprint,
                      meta={"max_interior_residual": max(residuals, default=None),
                            "failed_records": [{"seed": r.seed, "n": r.n, "error": r.error}
                                               for recs in per_seed for r in recs if r.failed]})
    print(f"{family}: median grad errors {np.round(summary['median_grad_err'], 6).tolist()}"
          f" (trend {summary['mk_grad']}), {summary['failures']} failures")
    return EXIT_NUMERICAL if summary["failures"] else EXIT_OK


# ---------------------------------------------------------------------------
# cascade verification


def cmd_cascade_verify(config: dict, out_dir: Path, fingerprint: str) -> int:
    ca = config["cascade"]
    report = {
        "moments": fields.layer_moment_check(
            ca["sigmas"], ca["powers"], ca["draws"], seed=config["seed"]),
        "slope": fields.product_slope_check(
            ca["slope_sigma"], ca["slope_level"], ca["slope_power"],
            ca["slope_seeds"], seed0=config["seed"], dim=config["dim"]),
        "bounded_trend": homexp.bnorm_trend_check(
            ca["trend_sigma"], ca["trend_t"], ca["trend_levels"],
            ca["trend_seeds"], seed0=config["seed"], dim=config["dim"]),
    }
    write_json_report(report, out_dir / f"cascade_{fingerprint[:10]}.json",
                      fingerprint)
    worst_z = max(row["z"] for row in report["moments"])
    print(f"moment worst z={worst_z:.2f}; slope rel err "
          f"{report['slope']['rel_err']:.3f}; trend stat "
          f"{report['bounded_trend']['trend']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# self test


def _selftest_checks():
    d = 2
    eye = np.eye(d)

    def constant_matrix():
        field = gen_named_field("constant", level=1, dim=d, matrix=(2.0 * eye).tolist())
        # without the field the condensed traces skip the closed form
        A = coarsegrain.condensed_A(solver.partition_traces(field, 1))[0, 0]
        want = np.zeros((2 * d, 2 * d))
        want[:d, :d] = 2.0 * eye
        want[d:, d:] = 0.5 * eye
        dev = np.abs(A - want).max()
        J = coarsegrain.J_from_A(A, eye[0], eye[0], d)
        return dev < 1e-10 and abs(J - 0.25) < 1e-10, \
            f"|A - diag(2I, I/2)| = {dev:.2e}, J(e1,e1) = {J:.6f}"

    def adjoint_relation():
        field = gen_named_field("skew_lognormal", level=1, dim=d, seed=3,
                                sigma=0.4, kappa=0.6)
        A = coarsegrain.coarse_grain_cube(field).A
        A_adj = coarsegrain.coarse_grain_adjoint(field).A
        D = np.eye(2 * d)
        D[d:, d:] *= -1.0
        dev = np.abs(A_adj - D @ A @ D).max()
        return dev < 1e-8, f"|A* - D A D| = {dev:.2e}"

    def maximizer_averages():
        field = gen_named_field("lognormal_iso", level=1, dim=d, seed=5, sigma=0.5)
        res = coarsegrain.verify_maximizer_averages(field)
        worst = max(res.values())
        return worst < 1e-8, f"worst identity error {worst:.2e}"

    def quadratic_response():
        field = gen_named_field("checkerboard", level=1, dim=d, seed=7,
                                low=0.5, high=2.0)
        worst = coarsegrain.verify_quadratic_response(field, n_trials=10)
        return worst < 1e-9, f"worst relative residual {worst:.2e}"

    def centering():
        field = gen_named_field("skew_lognormal", level=1, dim=d, seed=11,
                                sigma=0.3, kappa=0.5)
        h = np.array([[0.0, 0.25], [-0.25, 0.0]])
        res = coarsegrain.verify_centering(field, h)
        worst = max(res.values())
        return worst < 1e-8, f"worst block deviation {worst:.2e}"

    def ring_two_paths():
        rng = np.random.default_rng(13)
        vals = rng.standard_normal((9, 9, d))
        a1 = 3.0 ** (-0.6 * 2) * norms.ring_dual_norm(vals, 0.6, dim=d)
        a2 = norms.ring_dual_norm(vals, 0.6, dim=d, scale_origin=2)
        dev = abs(a1 - a2)
        return dev < 1e-12, f"path difference {dev:.2e}"

    def constant_ellipticity():
        field = gen_named_field("constant", level=1, dim=d,
                                matrix=(3.0 * eye).tolist())
        cache = coarsegrain.hierarchy_sweep(field, check=False)
        rep = norms.ellipticity_constants(cache, 0.4, 0.4)
        dev = max(abs(rep.lambda_s - 3.0), abs(rep.Lambda_t - 3.0))
        return dev < 1e-10, f"constants off by {dev:.2e}"

    def zero_oscillation():
        spec = ergodic.FieldSpec(kind="constant", dim=d, params={})
        h = homexp.TargetFunction("affine", p=[1.0, -0.5])
        exp = homexp.HomExperiment(spec=spec, a_bar=eye, h=h, alpha=0.6,
                                   n_min=2, n_max=2)
        rec = homexp.run_dirichlet_experiment(exp, seed=0)[0]
        worst = max(rec.grad_err, rec.flux_err)
        return (not rec.failed) and worst < 1e-10, f"control errors {worst:.2e}"

    def determinism():
        f1 = gen_named_field("cascade_iso", level=2, dim=d, seed=21, sigma=0.3)
        f2 = gen_named_field("cascade_iso", level=2, dim=d, seed=21, sigma=0.3)
        same = f1.fingerprint == f2.fingerprint
        return same, f"fingerprints {'match' if same else 'differ'}"

    return [
        ("constant-field matrix and J", constant_matrix),
        ("adjoint k negation", adjoint_relation),
        ("maximizer average identities", maximizer_averages),
        ("quadratic response identity", quadratic_response),
        ("centering equivariance", centering),
        ("ring norm two-path identity", ring_two_paths),
        ("constant-field ellipticity constants", constant_ellipticity),
        ("zero-oscillation control", zero_oscillation),
        ("field determinism", determinism),
    ]


def cmd_selftest(config: dict, out_dir: Path, fingerprint: str) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok, detail = check()
        except Exception as exc:              # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failures += 0 if ok else 1
    print(f"{failures} failure(s)")
    return EXIT_GATE if failures else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (defaults apply)")
    common.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="overrides",
                        help="override a config entry, e.g. homexp.alpha=0.7")
    common.add_argument("--output-dir", help="output directory (beats "
                        f"${_ENV_OUTPUT_DIR} and the config)")
    common.add_argument("--seed", type=int, help="override the base seed")
    common.add_argument("--workers", type=int, help="override the worker count")
    parser = argparse.ArgumentParser(
        prog="cghom",
        description="Coarse-graining laboratory for heterogeneous "
                    "divergence-form coefficients on triadic lattices.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-field", parents=[common],
                   help="generate a coefficient field file")
    for name in ("coarsegrain", "ellipticity"):
        p = sub.add_parser(name, parents=[common],
                           help=f"run the {name} pipeline")
        p.add_argument("field_file", nargs="?", default=None,
                       help="field file (generated from config if omitted)")
    sub.add_parser("ergodic", parents=[common],
                   help="Monte Carlo mean coarse matrices by scale")
    sub.add_parser("homogenize", parents=[common],
                   help="oscillating-vs-homogenized error sweep")
    sub.add_parser("cascade-verify", parents=[common],
                   help="cascade moment and norm statistics")
    sub.add_parser("selftest", parents=[common],
                   help="fast identity battery (CI gate)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        config = apply_overrides(config, args.overrides)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.workers is not None:
            config["workers"] = args.workers
        validate_config(config, args.command)
        out_dir = resolve_output_dir(config, args.output_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    fingerprint = config_fingerprint(config)
    try:
        if args.command == "gen-field":
            return cmd_gen_field(config, out_dir, fingerprint)
        if args.command == "coarsegrain":
            return cmd_coarsegrain(config, out_dir, fingerprint, args.field_file)
        if args.command == "ellipticity":
            return cmd_ellipticity(config, out_dir, fingerprint, args.field_file)
        if args.command == "ergodic":
            return cmd_ergodic(config, out_dir, fingerprint)
        if args.command == "homogenize":
            return cmd_homogenize(config, out_dir, fingerprint)
        if args.command == "cascade-verify":
            return cmd_cascade_verify(config, out_dir, fingerprint)
        if args.command == "selftest":
            return cmd_selftest(config, out_dir, fingerprint)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
