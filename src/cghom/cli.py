"""Configuration-driven batch runner for all pipelines.

Each setting is one row of ``SETTINGS`` and each subcommand one entry of
``COMMANDS``.  One JSON config file (flat sections mirroring the modules)
drives every subcommand; ``--set section.key=value`` flags override file
values, and the ``CGHOM_OUTPUT_DIR`` environment variable overrides the
configured output directory (the ``--output-dir`` flag beats both).  Every
output file embeds the sha256 fingerprint of the fully merged config;
timestamps appear only under a separate ``meta`` key so that repeated runs
with the same config and seed are byte-identical elsewhere.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 self-test
(acceptance-gate) failure.
"""
from __future__ import annotations

import argparse
import copy
import csv
import functools
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import coarsegrain, ergodic, fields, homexp, norms, solver
from .fields import (CascadeOverflowError, DegenerateCellError, gen_named_field,
                     load_field, save_field)
from .solver import NUMERICAL_ERRORS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GATE = 4

_ENV_OUTPUT_DIR = "CGHOM_OUTPUT_DIR"


class ConfigError(Exception):
    """Invalid or inconsistent configuration."""


# Every setting, by dotted key: (default, kind, range).  A kind is "int",
# "number", "bool", "str", "object" (free-form: a field kind's parameters, a
# target) or [kind], a non-empty list of that kind.  A range is an interval
# that a number, or each number of a list, must lie in; "(-inf, inf)" asks
# only that it be finite.  Null is allowed where the default is null.
SETTINGS = {
    "dim": (2, "int", "[2, 3]"),
    "seed": (0, "int", "[0, inf)"),
    "workers": (1, "int", "[1, inf)"),
    "output_dir": (".", "str", None),
    "field.kind": ("checkerboard", "str", None),
    "field.level": (2, "int", "[0, inf)"),
    "field.params": ({}, "object", None),
    "norms.s": (0.4, "number", "(0, 1)"),
    "norms.t": (0.4, "number", "(0, 1)"),
    "norms.p": (None, "number", "(0, inf)"),
    "norms.q": (None, "number", "(0, inf)"),
    "coarsegrain.resolution": (1, "int", "[1, inf)"),
    "ergodic.n_min": (1, "int", "[0, inf)"),
    "ergodic.n_max": (3, "int", "[0, inf)"),
    "ergodic.samples": (32, "int", "[2, inf)"),
    "ergodic.csv": (False, "bool", None),
    "homexp.alpha": (0.6, "number", "(0, 1)"),
    "homexp.n_min": (1, "int", "[0, inf)"),
    "homexp.n_max": (3, "int", "[0, inf)"),
    "homexp.seeds": (8, "int", "[1, inf)"),
    "homexp.a_bar": (None, [["number"]], "(-inf, inf)"),
    "homexp.target": ({"family": "affine", "p": [1.0, 0.0]}, "object", None),
    "homexp.with_E": (False, "bool", None),
    "homexp.with_GH": (False, "bool", None),
    "homexp.ring_levels": (2, "int", "[1, inf)"),
}
_SECTIONS = {key.rpartition(".")[0] for key in SETTINGS}     # "" is the root
# kind: (noun, the types of its values; true and false are not numbers)
_KINDS = {"int": ("integer", (int,)), "number": ("number", (int, float)),
          "bool": ("boolean", (bool,)), "str": ("string", (str,)),
          "object": ("object", (dict,))}


def _get(config: dict, key: str):
    return functools.reduce(dict.__getitem__, key.split("."), config)


def _fits(value, kind, rng: str | None) -> bool:
    if isinstance(kind, list):
        return type(value) is list and len(value) > 0 and all(
            _fits(item, kind[0], rng) for item in value)
    if type(value) not in _KINDS[kind][1]:
        return False
    if rng is None:
        return True
    low, high = map(float, rng[1:-1].split(","))
    return (low < value < high or value == low and rng[0] == "["
            or value == high and rng[-1] == "]")


def _noun(kind, plural: bool = False) -> str:
    """'an integer', 'a non-empty list of numbers'; plural: 'integers'."""
    name = (f"non-empty list{'s' * plural} of {_noun(kind[0], True)}"
            if isinstance(kind, list) else _KINDS[kind][0] + "s" * plural)
    return name if plural else ("an " if name[0] in "aeiou" else "a ") + name


def _flatten(key: str, value) -> list:
    """The (dotted key, value) pairs of one assignment: an object given to a
    section is split into its settings, a free-form object stays whole."""
    if key in _SECTIONS and type(value) is dict:
        return [pair for name, item in value.items()
                for pair in _flatten(f"{key}.{name}" if key else name, item)]
    return [(key, value)]


def _assign(config: dict, pairs: list) -> dict:
    """A copy of ``config`` with each (dotted key, value) of ``pairs`` set.  A
    key names a setting, or one key in a free-form object setting."""
    for key, value in pairs:
        if key in _SECTIONS:
            raise ConfigError(f"{f'section {key}' if key else 'the config root'} "
                              f"must be an object of settings, got {value!r}")
    unknown = [key for key, _ in pairs if key not in SETTINGS and
               SETTINGS.get(key.rpartition(".")[0], (None, None))[1] != "object"]
    if unknown:
        raise ConfigError(f"unknown config key(s): {unknown}")
    out = copy.deepcopy(config)
    for key, value in pairs:
        if key not in SETTINGS:
            key, name = key.rsplit(".", 1)
            old = _get(out, key)
            value = {**(old if type(old) is dict else {}), name: value}
        section, _, name = key.rpartition(".")
        (out.setdefault(section, {}) if section else out)[name] = copy.deepcopy(value)
    return out


DEFAULT_CONFIG = _assign({}, [(key, default) for key, (default, _, _) in SETTINGS.items()])


def load_config(path: str | None) -> dict:
    """The defaults with the settings of the JSON config file, if any, set."""
    try:
        user = {} if path is None else json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _assign(DEFAULT_CONFIG, _flatten("", user))


def apply_overrides(config: dict, assignments: list[str]) -> dict:
    """Set each ``key=value`` of ``assignments`` as a config file's settings
    are set; a value is parsed as JSON, or else kept as a string."""
    pairs = []
    for item in assignments or []:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"override {item!r} must look like key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        pairs += _flatten(key.strip(), value)
    return _assign(config, pairs)


# The last axis step of a 3D level-3 merge is a dense boundary problem on
# 5,728 union nodes; one such cube condenses in 5.5 s at a 988 MB peak RSS
# (one BLAS thread, 2-core Xeon VM), too much per sample or seed.  Raising
# the cap waits on a lower peak (ROADMAP item 7).
MAX_LEVEL_3D = 2


def _check_level(command: str, dim: int, level: int, source: str) -> None:
    """Refuse a run whose largest cube, of ``level`` (``source`` says where
    that comes from), cannot finish."""
    if dim == 3 and level > MAX_LEVEL_3D:
        raise ConfigError(
            f"'{command}' would coarse-grain a 3D cube of level {level} ({source}); "
            f"3D cubes above level {MAX_LEVEL_3D} are rejected because their last "
            f"merge step is a dense boundary problem of about 0.26 GB per matrix")


def _check_homexp_inputs(config: dict, command: str | None) -> None:
    """The target has a known family and builds, and ``a_bar``, if given, is
    square; for ``homogenize``, the one command that reads them, both fit
    ``dim``."""
    hx, dim = config["homexp"], config["dim"]
    if hx["target"].get("family") not in ("affine", "quadratic", "trig"):
        raise ConfigError("homexp.target.family must be affine, quadratic or trig")
    try:
        h = target_from_config(config)
    except KeyError as exc:
        raise ConfigError(f"homexp.target must give {exc} for its family") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"homexp.target must hold only numbers its family "
                          f"uses: {exc}") from exc
    shapes = {f"homexp.target.{name}": (getattr(h, name), (dim,) * ndim)
              for name, ndim in (("p", 1), ("H", 2), ("m", 1)) if hasattr(h, name)}
    a_bar = hx["a_bar"]
    if a_bar is not None:
        if any(len(row) != len(a_bar) for row in a_bar):
            raise ConfigError(f"homexp.a_bar must be a square matrix, got {a_bar!r}")
        shapes["homexp.a_bar"] = (np.asarray(a_bar), (dim, dim))
    for key, (value, shape) in shapes.items() if command == "homogenize" else ():
        if value.shape != shape:
            raise ConfigError(f"{key} must have shape {shape} in {dim}D, got {value.shape}")


def validate_config(config: dict, command: str | None = None,
                    field_file: str | None = None) -> None:
    """Refuse a setting outside its kind and range in ``SETTINGS``, then
    settings that do not fit together; with ``command``, also runs it cannot
    finish.  The level of a ``field_file`` is checked when it is read."""
    for key, (default, kind, rng) in SETTINGS.items():
        value = _get(config, key)
        if not (value is None and default is None or _fits(value, kind, rng)):
            raise ConfigError(f"{key} must be {'null or ' * (default is None)}"
                              f"{_noun(kind)}{f' in {rng}' if rng else ''}, got {value!r}")
    fld, nm, hx = config["field"], config["norms"], config["homexp"]
    try:        # the kind and its parameters, on one cell
        fieldspec_from_config(config).realize(0, config["seed"])
    except (DegenerateCellError, CascadeOverflowError):
        pass    # cell values the kind draws: a numerical failure of the run
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field kind {fld['kind']!r} with params "
                          f"{fld['params']!r} does not build: {exc}") from exc
    s, t = nm["s"], nm["t"]
    if s + t >= 1.0:
        raise ConfigError(f"norms exponents must satisfy s + t < 1, "
                          f"got s={s}, t={t}")
    if nm["p"] is not None and nm["q"] is not None:
        for name, other, sym in (("p", t, "t"), ("q", s, "s")):
            bound = config["dim"] / (2 * other)
            if not nm[name] > bound:
                raise ConfigError(f"norms.{name} must exceed d/(2{sym}) = "
                                  f"{bound:g} when norms.p and norms.q are "
                                  f"both given, got {nm[name]!r}")
    if not hx["alpha"] > max(s, t):
        raise ConfigError(f"homexp.alpha must exceed max(norms.s, norms.t) = "
                          f"{max(s, t)}, got {hx['alpha']}")
    for section in ("homexp", "ergodic"):
        if not config[section]["n_min"] <= config[section]["n_max"]:
            raise ConfigError(f"{section} scale range must satisfy n_min <= n_max")
    wanted = [f"homexp.{key}" for key in ("with_E", "with_GH") if hx[key]]
    if command == "homogenize" and hx["a_bar"] is not None and wanted:
        raise ConfigError(f"{' and '.join(wanted)}: E, G and H need the ensemble "
                          f"mean A_bar, estimated only when homexp.a_bar is null")
    if command == "homogenize" and hx["with_GH"] and hx["n_min"] == 0:
        raise ConfigError("homexp.with_GH needs homexp.n_min >= 1: G and H sum over "
                          "min(homexp.ring_levels, n) scales, none at n = 0")
    key = None if field_file or command is None else COMMANDS[command].level_key
    if key and not (command == "homogenize" and hx["a_bar"] is not None):
        _check_level(command, config["dim"], _get(config, key), f"{key}={_get(config, key)}")
    _check_homexp_inputs(config, command)


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


def _plain(obj):
    """``obj`` with NumPy scalars and arrays made Python ones, and each
    non-finite float made None: strict JSON has no NaN or Infinity."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json_report(obj: dict, path: Path, fingerprint: str,
                      meta: dict | None = None) -> None:
    body = dict(obj)
    body["config_sha256"] = fingerprint
    body["meta"] = {"created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                    **(meta or {})}
    path.write_text(json.dumps(_plain(body), sort_keys=True, indent=1,
                               allow_nan=False) + "\n")


def write_csv(path: Path, header: list, rows) -> None:
    """One CSV table; the csv module writes each float as its repr, so it
    reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def cmd_gen_field(config: dict, out_dir: Path, fingerprint: str, field) -> int:
    name = f"field_{field.kind}_n{field.level}_seed{field.seed}.cghf"
    path = save_field(field, out_dir / name)
    print(f"wrote {path} ({field.cells_per_axis ** field.dim} cells, "
          f"sha256 {field.fingerprint[:16]})")
    return EXIT_OK


def cmd_coarsegrain(config: dict, out_dir: Path, fingerprint: str, field) -> int:
    cache = coarsegrain.hierarchy_sweep(field, resolution=config["coarsegrain"]["resolution"])
    cache_path = out_dir / f"cache_{fingerprint[:10]}.npz"
    cache.save(str(cache_path))
    top = cache.matrices_at(field.level, (0,) * field.dim)
    report = {
        "field_sha256": field.fingerprint,
        "level": field.level,
        "s_star": top.s_star, "k": top.k, "b": top.b, "s": top.s,
        "subadditivity_defect": cache.subadditivity_defect(),
        "sandwich_defect": cache.sandwich_defect(),
        "diagnostics": cache.diagnostics,
        "cache_file": cache_path.name,
    }
    slack_min = {str(k): {c: v.min() for c, v in checks.items()}
                 for k, checks in cache.slacks().items()}
    write_json_report(report, out_dir / f"coarsegrain_{fingerprint[:10]}.json",
                      fingerprint, meta={"order_slack_min": slack_min})
    print(f"coarse-grained {field.kind} field at n={field.level}: "
          f"{len(cache.diagnostics)} ordering diagnostics")
    return EXIT_OK


def cmd_ellipticity(config: dict, out_dir: Path, fingerprint: str, field) -> int:
    nm = config["norms"]
    cache = coarsegrain.hierarchy_sweep(field, resolution=config["coarsegrain"]["resolution"],
                                        check=False)
    rep = norms.ellipticity_constants(cache, nm["s"], nm["t"], p=nm["p"], q=nm["q"])
    write_csv(out_dir / f"ellipticity_{fingerprint[:10]}.csv",
              ["sample", "n", "lambda_s", "Lambda_t", "besov_b", "besov_sinv",
               "lp_b", "lq_sinv", "config_sha256"],
              [[field.fingerprint[:16], rep.level, rep.lambda_s, rep.Lambda_t,
                rep.besov_b, rep.besov_sinv, rep.lp_b, rep.lq_sinv, fingerprint]])
    report = {"lambda_s": rep.lambda_s, "Lambda_t": rep.Lambda_t,
              "contrast": rep.contrast, "per_scale_sinv": rep.per_scale_sinv,
              "per_scale_b": rep.per_scale_b, "field_sha256": field.fingerprint}
    if nm["p"] is not None and nm["q"] is not None:
        report["embedding"] = norms.embedding_check(rep, field.dim)
    write_json_report(report, out_dir / f"ellipticity_{fingerprint[:10]}.json",
                      fingerprint)
    print(f"lambda_s={rep.lambda_s:.6g} Lambda_t={rep.Lambda_t:.6g} "
          f"contrast={rep.contrast:.6g}")
    return EXIT_OK


def cmd_ergodic(config: dict, out_dir: Path, fingerprint: str, field) -> int:
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
        hom = ergodic.homogenized_matrix(estimates)
        report["a_bar"] = hom.a_bar
        report["s_bar"] = hom.s_bar
        report["k_bar"] = hom.k_bar
    except ValueError as exc:
        report["a_bar_error"] = str(exc)
    write_json_report(report, out_dir / f"ergodic_{fingerprint[:10]}.json",
                      fingerprint)
    if er["csv"]:       # long format: one row per entry of each sample's A
        write_csv(out_dir / f"ergodic_samples_{fingerprint[:10]}.csv",
                  ["n", "sample", "i", "j", "value"],
                  ([e.n, index, i, j, value] for e in estimates
                   for index, A in enumerate(e.A_samples.tolist())
                   for i, row in enumerate(A) for j, value in enumerate(row)))
    last = estimates[-1]
    print(f"n={last.n}: s_bar diag {np.diag(last.s_bar).round(5).tolist()}, "
          f"gap trace {float(np.trace(last.gap)):.5f}")
    if "a_bar_error" in report:
        print(f"homogenized matrix not accepted: {report['a_bar_error']}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_homogenize(config: dict, out_dir: Path, fingerprint: str, field) -> int:
    spec = fieldspec_from_config(config)
    hx = config["homexp"]
    resolution = config["coarsegrain"]["resolution"]
    A_bar = None
    # The nodal solves factor with SuperLU.  Loaded here, before the pool
    # forks, SciPy is imported once instead of once in every worker.
    import scipy.sparse.linalg  # noqa: F401
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
    write_csv(out_dir / f"homog_{fingerprint[:10]}.csv",
              ["family", "seed", "n", "grad_err", "flux_err", "energy",
               "E_alpha", "G_alpha", "H_alpha", "failed", "config_sha256"],
              ([family, r.seed, r.n, r.grad_err, r.flux_err, r.energy, r.E_alpha,
                r.G_alpha, r.H_alpha, int(r.failed), fingerprint]
               for recs in per_seed for r in recs))
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
# self test


def _selftest_checks():
    """(name, check) pairs; a check returns (passed, detail).  Each identity,
    and each cascade check, is the one call that a c1 or c7 test makes too."""
    d, eye = 2, np.eye(2)

    def field(kind, **params):
        return gen_named_field(kind, level=1, dim=d, **params)

    def below(tol, detail, value):
        return value < tol, detail.format(value)

    def at_most(bound, detail, value):
        return value <= bound, detail.format(value)

    def constant_matrix():
        res = coarsegrain.verify_constant_field(2.0, d, [(eye[0], eye[0])])
        dJ = res["J_from_A"][0]          # J(e1, e1) = 1 + 1/4 - 1 at c = 2
        return (res["A"] < 1e-10 and abs(dJ) < 1e-10,
                f"|A - diag(2I, I/2)| = {res['A']:.2e}, J(e1,e1) = {0.25 + dJ:.6f}")

    def ring_two_paths():
        vals = np.random.default_rng(13).standard_normal((9, 9, d))
        return below(1e-12, "path difference {:.2e}", abs(
            3.0 ** (-0.6 * 2) * norms.ring_dual_norm(vals, 0.6, dim=d)
            - norms.ring_dual_norm(vals, 0.6, dim=d, scale_origin=2)))

    def constant_ellipticity():
        cache = coarsegrain.hierarchy_sweep(field("constant", matrix=(3.0 * eye).tolist()),
                                            check=False)
        rep = norms.ellipticity_constants(cache, 0.4, 0.4)
        return below(1e-10, "constants off by {:.2e}",
                     max(abs(rep.lambda_s - 3.0), abs(rep.Lambda_t - 3.0)))

    def zero_oscillation():
        exp = homexp.HomExperiment(spec=ergodic.FieldSpec(kind="constant", dim=d, params={}),
                                   a_bar=eye, h=homexp.TargetFunction("affine", p=[1.0, -0.5]),
                                   alpha=0.6, n_min=2, n_max=2)
        rec = homexp.run_dirichlet_experiment(exp, seed=0)[0]
        ok, detail = below(homexp.ZERO_ERROR, "control errors {:.2e}",
                           max(rec.grad_err, rec.flux_err))
        return ok and not rec.failed, detail

    def determinism():
        f1 = gen_named_field("cascade_iso", level=2, dim=d, seed=21, sigma=0.3)
        f2 = gen_named_field("cascade_iso", level=2, dim=d, seed=21, sigma=0.3)
        same = f1.fingerprint == f2.fingerprint
        return same, f"fingerprints {'match' if same else 'differ'}"

    def trend_contrast():       # no rising trend at t = 0.9, a rising one at t = 0.2
        bounded = homexp.bnorm_trend_check(0.3, 0.9, [2, 3, 4, 5], 12, seed0=0)
        growing = homexp.bnorm_trend_check(0.9, 0.2, [2, 3, 4, 5], 12, seed0=0)
        return (bounded["trend"] <= 0 < growing["trend"] and growing["final_over_initial"] > 1,
                f"trends {bounded['trend']} and {growing['trend']}, growing final/initial "
                f"{growing['final_over_initial']:.3g}")

    return [
        ("constant-field matrix and J", constant_matrix),
        ("adjoint k negation", lambda: below(
            1e-8, "|A* - D A D| = {:.2e}", coarsegrain.verify_adjoint(
                field("skew_lognormal", seed=3, sigma=0.4, kappa=0.6))["A"])),
        ("maximizer average identities", lambda: below(
            1e-8, "worst identity error {:.2e}", max(coarsegrain.verify_maximizer_averages(
                field("lognormal_iso", seed=5, sigma=0.5)).values()))),
        ("quadratic response identity", lambda: below(
            1e-9, "worst relative residual {:.2e}", coarsegrain.verify_quadratic_response(
                field("checkerboard", seed=7, low=0.5, high=2.0), n_trials=10))),
        ("centering equivariance", lambda: below(
            1e-8, "worst block deviation {:.2e}", max(coarsegrain.verify_centering(
                field("skew_lognormal", seed=11, sigma=0.3, kappa=0.5),
                np.array([[0.0, 0.25], [-0.25, 0.0]])).values()))),
        ("ring norm two-path identity", ring_two_paths),
        ("constant-field ellipticity constants", constant_ellipticity),
        ("zero-oscillation control", zero_oscillation),
        ("field determinism", determinism),
        ("cascade factor moments", lambda: at_most(4.0, "worst z {:.2f}", max(
            row["z"] for row in fields.layer_moment_check([0.25, 0.5], [1, 2, 3], 200000,
                                                          seed=0)))),
        ("cascade product slope", lambda: at_most(
            0.10, "slope relative error {:.3f}",
            fields.product_slope_check(0.25, 2, 3, 200, seed0=0)["rel_err"])),
        ("cascade norm-trend contrast", trend_contrast),
    ]


def cmd_selftest(config: dict, out_dir: Path, fingerprint: str, field) -> int:
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


class Command(NamedTuple):
    """A subcommand: ``handler(config, out_dir, fingerprint, field)`` runs it
    and returns its exit code.  ``field`` is where the run's field comes from:
    None, "config" (drawn from it) or "config or file" (read from the optional
    positional field file, drawn without one).  ``level_key`` names the
    setting giving the level of the largest cube it coarse-grains."""

    handler: Callable
    help: str
    field: str | None
    level_key: str | None


COMMANDS = {
    "gen-field": Command(cmd_gen_field, "generate a coefficient field file", "config", None),
    "coarsegrain": Command(cmd_coarsegrain, "run the coarsegrain pipeline",
                           "config or file", "field.level"),
    "ellipticity": Command(cmd_ellipticity, "run the ellipticity pipeline",
                           "config or file", "field.level"),
    "ergodic": Command(cmd_ergodic, "Monte Carlo mean coarse matrices by scale",
                       None, "ergodic.n_max"),
    "homogenize": Command(cmd_homogenize, "oscillating-vs-homogenized error sweep",
                          None, "homexp.n_max"),
    "selftest": Command(cmd_selftest, "identity and cascade checks (CI gate)", None, None),
}


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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        if command.field == "config or file":
            p.add_argument("field_file", nargs="?", default=None,
                           help="field file (generated from config if omitted)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, field_file = COMMANDS[args.command], getattr(args, "field_file", None)
    try:
        config = apply_overrides(load_config(args.config), args.overrides)
        config = _assign(config, [(key, value) for key, value in (
            ("seed", args.seed), ("workers", args.workers)) if value is not None])
        validate_config(config, args.command, field_file)
        out_dir = resolve_output_dir(config, args.output_dir)
        field = None
        if field_file:
            field = load_field(field_file)
            _check_level(args.command, field.dim, field.level,
                         f"the level {field.level} of field file {field_file}")
        elif command.field:
            field = fieldspec_from_config(config).realize(config["field"]["level"],
                                                          config["seed"])
        return command.handler(config, out_dir, config_fingerprint(config), field)
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
