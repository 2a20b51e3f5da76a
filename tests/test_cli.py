"""Command-line driver: config handling, exit codes, output artifacts."""
import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cghom import cli
from cghom.fields import gen_named_field, save_field
from reference_impl import forge_field_file


def _run(argv, tmp_path=None):
    args = list(argv)
    if tmp_path is not None:
        args += ["--output-dir", str(tmp_path)]
    return cli.main(args)


def _load_report(path):
    body = json.loads(path.read_text())
    body.pop("meta", None)
    return body


@pytest.fixture(autouse=True)
def _no_env_output_dir(monkeypatch):
    monkeypatch.delenv("CGHOM_OUTPUT_DIR", raising=False)


def test_selftest_passes(tmp_path, capsys):
    assert _run(["selftest"], tmp_path) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 12
    assert "FAIL" not in out
    assert "0 failure(s)" in out


@pytest.mark.parametrize("owner, name, value, check", [
    (cli.fields, "layer_moment_check", [{"z": 0.5}] * 5 + [{"z": 4.5}],
     "cascade factor moments"),
    (cli.fields, "product_slope_check", {"rel_err": 0.11}, "cascade product slope"),
    (cli.homexp, "bnorm_trend_check", {"trend": 1, "final_over_initial": 2.0},
     "cascade norm-trend contrast"),     # a rising trend in the bounded regime
], ids=["moments", "slope", "trend"])
def test_selftest_fails_a_cascade_statistic_past_its_bound(tmp_path, capsys, monkeypatch,
                                                           owner, name, value, check):
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: value)
    assert _run(["selftest"], tmp_path) == 4
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL  {check}  (")


def test_selftest_gate_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_selftest_checks",
                        lambda: [("forced", lambda: (False, "broken"))])
    assert _run(["selftest"], tmp_path) == 4


def test_the_command_table_builds_the_parser_and_dispatches(tmp_path, monkeypatch):
    names = ["gen-field", "coarsegrain", "ellipticity", "ergodic", "homogenize",
             "selftest"]
    assert list(cli.COMMANDS) == names
    parser = cli.build_parser()
    assert "{" + ",".join(names) + "}" in parser.format_help()
    for name in names:      # only these two take a positional field file
        if name in ("coarsegrain", "ellipticity"):
            assert parser.parse_args([name, "f.cghf"]).field_file == "f.cghf"
        else:
            with pytest.raises(SystemExit):
                parser.parse_args([name, "f.cghf"])
    calls = []
    for name, command in cli.COMMANDS.items():
        def handler(config, out_dir, fingerprint, field, name=name):
            calls.append((name, field))
            return 0
        monkeypatch.setitem(cli.COMMANDS, name, command._replace(handler=handler))
    for name in names:
        assert _run([name], tmp_path) == 0
    assert [name for name, _ in calls] == names
    drawn = [name for name, field in calls if field is not None]
    assert drawn == ["gen-field", "coarsegrain", "ellipticity"]
    assert all(field.level == 2 and field.kind == "checkerboard"
               for _, field in calls[:3])
    # a field file is read in place of the drawn field
    save_field(gen_named_field("constant", level=1), tmp_path / "one.cghf")
    assert _run(["ellipticity", str(tmp_path / "one.cghf")], tmp_path) == 0
    assert calls[-1][0] == "ellipticity" and calls[-1][1].kind == "constant"


def test_config_file_errors(tmp_path):
    bad_section = tmp_path / "bad.json"
    bad_section.write_text(json.dumps({"fields": {"kind": "laminate"}}))
    assert _run(["selftest", "--config", str(bad_section)], tmp_path) == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert _run(["selftest", "--config", str(not_json)], tmp_path) == 2
    assert _run(["selftest", "--config", str(tmp_path / "missing.json")],
                tmp_path) == 2


def test_config_file_keys_are_checked_at_every_depth(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coarsegrain": {"resolutoin": 2}}))
    assert _run(["coarsegrain", "--config", str(cfg)], tmp_path / "out") == 2
    assert "['coarsegrain.resolutoin']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a setting that is gone is an unknown key in a file too
    cfg.write_text(json.dumps({"norms": {"tail": False}}))
    assert _run(["ellipticity", "--config", str(cfg)], tmp_path / "out") == 2
    assert "unknown config key(s): ['norms.tail']" in capsys.readouterr().err
    # a kind's parameters and a target's keys are free-form
    cfg.write_text(json.dumps({"field": {"params": {"low": 0.5}},
                               "homexp": {"target": {"family": "trig", "m": [1, 2]}}}))
    assert cli.load_config(str(cfg))["field"]["params"] == {"low": 0.5}


def test_config_file_target_replaces_the_default_target(tmp_path):
    # merged key by key, a trig target would keep the default's p, which a
    # trig target does not use
    trig = {"family": "trig", "m": [1.0, 2.0]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"homexp": {"target": trig, "seeds": 2}}))
    config = cli.load_config(str(cfg))
    assert config["homexp"]["target"] == trig and config["homexp"]["seeds"] == 2
    assert config["homexp"]["alpha"] == cli.DEFAULT_CONFIG["homexp"]["alpha"]
    assert _run(["selftest", "--config", str(cfg)], tmp_path) == 0


def test_default_config_fingerprint_is_pinned():
    # output file names carry this digest, so the defaults must not drift
    assert cli.config_fingerprint(cli.DEFAULT_CONFIG) == (
        "bc4e7021a0e12a7b6cc2bcf8e392d8e9bf707a2613ee0c60647c9e99c4b6baba")


def test_config_file_and_set_assign_every_setting_alike(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cli.DEFAULT_CONFIG))
    from_file = cli.load_config(str(cfg))
    from_set = cli.apply_overrides(cli.load_config(None), [
        f"{key}={json.dumps(default)}" for key, (default, _, _) in cli.SETTINGS.items()])
    assert from_file == from_set == cli.DEFAULT_CONFIG
    cli.validate_config(from_set)
    # a section given as one object is split into its settings either way
    cfg.write_text(json.dumps({"coarsegrain": {"resolution": 2}, "homexp": {"target": {
        "family": "trig", "m": [1, 2]}}}))
    assert cli.load_config(str(cfg)) == cli.apply_overrides(cli.load_config(None), [
        'coarsegrain={"resolution": 2}', 'homexp={"target": {"family": "trig", "m": [1, 2]}}'])


@pytest.mark.parametrize("override, message", [
    ("homexp.a_bar=[[NaN]]", "homexp.a_bar must be null or a non-empty list of non-empty "
                             "lists of numbers in (-inf, inf), got [[nan]]"),
    ("norms.q=Infinity", "norms.q must be null or a number in (0, inf), got inf"),
    ("output_dir=5", "output_dir must be a string, got 5"),
    ("dim=2.0", "dim must be an integer in [2, 3], got 2.0"),
    ("coarsegrain=5", "section coarsegrain must be an object"),
    ("homexp.a_bar=[[1,0],[1]]", "homexp.a_bar must be a square matrix"),
])
def test_setting_errors_name_kind_and_range(tmp_path, capsys, override, message):
    assert _run(["selftest", "--set", override], tmp_path) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "norms.zeta=0.5",                 # unknown key
    "coarsegrain.k_min=1",            # settings that are gone
    "norms.tail=False",
    "norms.normalized=0",
    "coarsegrain.check=\"yes\"",
    "cascade.draws=\"x\"",           # the cascade section is gone too
    "cascade.draws=1",
    "cascade.slope_seeds=0",
    "cascade.trend_seeds=0",
    "cascade.slope_level=true",
    "cascade.trend_levels=[]",
    "cascade.trend_levels=[2,\"x\"]",
    "cascade.sigmas=[-0.5]",
    "cascade.powers=\"x\"",
    "cascade.slope_sigma=\"x\"",
    "cascade.trend_t=1",
    "cascade.trend_t=0",
    "cascade.sigmas=[NaN]",
    "cascade.slope_sigma=Infinity",
    "cascade.trend_sigma=NaN",
    "dim=5",                          # unsupported dimension
    "norms.s=0.6",                    # with default t=0.4 breaks s + t < 1
    "ergodic.samples=1",
    "ergodic.samples=2.5",
    "ergodic.n_max=2.5",
    "ergodic.n_min=\"1\"",
    "homexp.n_min=-1",
    "homexp.n_max=1.5",
    "homexp.seeds=0",
    "homexp.seeds=-2",
    "homexp.ring_levels=0",
    "field.kind=\"perlin\"",
    "homexp.target.family=\"bump\"",
    "coarsegrain.resolution=0",
    "workers=0",
    "norms.p=[1.0,0.0]",
    "norms.p=0",
    "norms.q=-1.5",
    "norms.p=\"x\"",
    "norms.q=true",
    "norms.p=2 norms.q=3",            # p <= d/(2t) = 2.5
    "norms.q=2.5 norms.p=3",          # q <= d/(2s) = 2.5
    "ergodic.csv=1",
    "homexp.with_E=null",
    "homexp.with_GH=\"true\"",
    "seed=true",                      # JSON true is not an integer
    "workers=true",
    "field.level=true",
    "coarsegrain.resolution=true",
    "norms.s=\"x\"",
    "norms.t=\"x\"",
    "homexp.alpha=\"x\"",
    "homexp.target={\"family\":\"quadratic\"}",     # no H
    "homexp.target={\"family\":\"trig\"}",          # no m
    "homexp.target={\"family\":\"affine\",\"p\":[1,0],\"H\":\"junk\"}",  # H unused
    "homexp.a_bar=[[1,0]]",
    "homexp.a_bar=\"x\"",
    "field.params={\"mode\":\"foo\"}",
    "field.params={\"sigma\":1}",                  # not a checkerboard parameter
    "field.params=[1]",
    "coarsegrain=5",                  # a section must stay an object
    "field.kind=\"lognormal_iso\" field.params={\"sigma\":\"abc\"}",
    "norms.p=Infinity",               # non-finite numbers are refused
    "homexp.a_bar=[[1,0],[0,NaN]]",
    "homexp.target={\"family\":\"affine\",\"p\":[NaN,0]}",
    "homexp.target={\"family\":\"trig\",\"m\":[1,0],\"amp\":Infinity}",
    "field.params={\"low\":NaN}",
    "field.kind=\"constant\" field.params={\"matrix\":[[1,0],[0,Infinity]]}",
    "output_dir=5",
    "output_dir=null",
    "dim=2.0",
])
def test_invalid_overrides_exit_2(tmp_path, capsys, override):
    argv = ["selftest"]
    for item in override.split():
        argv += ["--set", item]
    assert _run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    key, _, value = override.partition("=")
    if key in ("norms.zeta", "coarsegrain.k_min", "norms.tail", "norms.normalized",
               "coarsegrain.check") or key.startswith("cascade."):
        assert f"config error: unknown config key(s): ['{key}']" in err
    elif key.startswith(("norms.p", "norms.q", "ergodic.csv", "homexp.with_",
                         "homexp.target", "homexp.a_bar")) or value == '"x"':
        assert f"config error: {key} must" in err
    elif key.startswith(("seed", "workers", "field.level", "coarsegrain.",
                         "ergodic.", "homexp.n_", "homexp.seeds", "homexp.ring")):
        assert f"config error: {key} must be an integer" in err


@pytest.mark.parametrize("argv", [
    ["coarsegrain", "--set", 'field.params={"mode":"foo"}'],
    ["ergodic", "--set", "field.kind=lognormal_iso", "--set", 'field.params={"sigma":"abc"}'],
    ["homogenize", "--set", 'field.params={"phase":"x","mode":"periodic"}'],
    ["ellipticity", "--set", "coarsegrain.k_min=1"],
    ["selftest", "--set", "cascade.draws=1"],       # unknown keys stop the selftest
    ["selftest", "--set", "cascade.slope_seeds=0"],
    ["gen-field", "--set", 'field.params={"low":NaN}'],
    ["coarsegrain", "--set", 'field.params={"low":NaN}'],
    ["homogenize", "--set", 'homexp.target={"family":"affine","p":[NaN,0]}',
     "--set", "homexp.a_bar=[[1,0],[0,1]]"],
    ["ellipticity", "--set", "norms.p=2", "--set", "norms.q=6"],
    ["coarsegrain", "--set", "dim=3", "--set", "field.level=3"],
    ["homogenize", "--set", "homexp.n_min=0", "--set", "homexp.with_GH=true"],
])
def test_malformed_settings_stop_before_any_field_or_solve(tmp_path, monkeypatch,
                                                           capsys, argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("a field was drawn or a solve was started")
    realize = cli.ergodic.FieldSpec.realize

    def probe_only(spec, level, seed):     # the config check draws one cell
        return realize(spec, level, seed) if level == 0 else no_solve()
    monkeypatch.setattr(cli.ergodic.FieldSpec, "realize", probe_only)
    for owner, name in ((cli.coarsegrain, "hierarchy_sweep"),
                        (cli.ergodic, "estimate_Abar"),
                        (cli.homexp, "run_dirichlet_experiment"),
                        (cli.fields, "layer_moment_check")):
        monkeypatch.setattr(owner, name, no_solve)
    assert _run(argv, tmp_path / "out") == 2
    assert "config error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_homogenize_inputs_that_do_not_fit_dim_exit_2(tmp_path, monkeypatch,
                                                       capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve was started")
    monkeypatch.setattr(cli.ergodic, "estimate_Abar", no_solve)
    monkeypatch.setattr(cli.homexp, "run_dirichlet_experiment", no_solve)
    out = tmp_path / "out"
    for override, key in (
            ('homexp.target={"family":"affine","p":[1,0,0]}', "homexp.target.p"),
            ('homexp.target={"family":"quadratic","H":[1,2]}', "homexp.target.H"),
            ('homexp.target={"family":"trig","m":[1]}', "homexp.target.m"),
            ("homexp.a_bar=[[1,0,0],[0,1,0],[0,0,1]]", "homexp.a_bar")):
        assert _run(["homogenize", "--set", override], out) == 2
        assert f"config error: {key} must have shape" in capsys.readouterr().err
        # commands that do not read the target leave its shape alone
        cli.validate_config(cli.apply_overrides(cli.load_config(None), [override]),
                            "selftest")
    assert not out.exists()


def test_malformed_override_and_negative_seed(tmp_path):
    assert _run(["selftest", "--set", "no_equals_sign"], tmp_path) == 2
    assert _run(["selftest", "--seed", "-3"], tmp_path) == 2


def test_gen_field_writes_file(tmp_path, capsys):
    assert _run(["gen-field"], tmp_path) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "field_checkerboard_n2_seed0.cghf").exists()


def test_degenerate_field_is_numerical_failure(tmp_path):
    code = _run(["gen-field", "--set",
                 'field.params={"matrix": [[0.0, 0.0], [0.0, 0.0]]}',
                 "--set", 'field.kind="constant"'], tmp_path)
    assert code == 3


def test_ergodic_outputs_are_deterministic(tmp_path):
    sets = ["--set", "ergodic.samples=4", "--set", "ergodic.n_max=2",
            "--set", "ergodic.csv=true"]
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert _run(["ergodic"] + sets, d1) == 0
    assert _run(["ergodic"] + sets, d2) == 0
    j1, = d1.glob("ergodic_*.json")
    j2, = d2.glob("ergodic_*.json")
    assert _load_report(j1) == _load_report(j2)
    c1, = d1.glob("ergodic_samples_*.csv")
    c2, = d2.glob("ergodic_samples_*.csv")
    assert c1.read_bytes() == c2.read_bytes()
    # the embedded digest is the fingerprint of the merged validated config
    config = cli.apply_overrides(cli.load_config(None),
                                 ["ergodic.samples=4", "ergodic.n_max=2",
                                  "ergodic.csv=true"])
    cli.validate_config(config)
    want = cli.config_fingerprint(config)
    assert _load_report(j1)["config_sha256"] == want
    assert j1.name == f"ergodic_{want[:10]}.json"
    report = _load_report(j1)
    assert [e["n"] for e in report["per_scale"]] == [1, 2]
    assert report["monotone"]["ok"] in (True, False)
    assert "a_bar" in report or "a_bar_error" in report
    # the worker count changes no number, down to the last bit
    sets = ["--set", "ergodic.samples=8", "--set", "ergodic.n_max=3",
            "--set", "ergodic.csv=true"]
    reports, csvs = [], []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        assert _run(["ergodic", "--workers", str(workers)] + sets, out) == 0
        report = _load_report(next(out.glob("ergodic_*.json")))
        report.pop("config_sha256")
        reports.append(report)
        csvs.append(next(out.glob("ergodic_samples_*.csv")).read_bytes())
    assert reports[0] == reports[1]
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("workers, pools", [(2, 1), (1, 0)])
def test_each_command_starts_at_most_one_pool(tmp_path, monkeypatch, workers,
                                              pools):
    made = []
    init = concurrent.futures.ProcessPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__",
                        counting_init)
    assert _run(["ergodic", "--workers", str(workers),
                 "--set", "ergodic.samples=4", "--set", "ergodic.n_max=3"],
                tmp_path / "ergodic") == 0
    assert len(made) == pools
    made.clear()
    assert _run(["homogenize", "--workers", str(workers),
                 "--set", "ergodic.samples=4", "--set", "homexp.n_max=2",
                 "--set", "homexp.seeds=2"], tmp_path / "homogenize") == 0
    assert len(made) == pools


def test_ergodic_csv_holds_every_sample(tmp_path):
    samples, d = 4, 2
    assert _run(["ergodic", "--set", f"ergodic.samples={samples}",
                 "--set", "ergodic.n_max=2", "--set", "ergodic.csv=true"],
                tmp_path) == 0
    report = _load_report(next(tmp_path.glob("ergodic_*.json")))
    rows = np.loadtxt(next(tmp_path.glob("ergodic_samples_*.csv")),
                      delimiter=",", skiprows=1)
    for entry in report["per_scale"]:
        vals = rows[rows[:, 0] == entry["n"], 4]
        assert vals.size == samples * (2 * d) ** 2
        mean = vals.reshape(samples, 2 * d, 2 * d).mean(axis=0)
        assert np.abs(mean - np.array(entry["A_bar"])).max() < 1e-12


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_sample_is_named_numerical_failure(tmp_path, capsys, workers):
    code = _run(["ergodic", "--set", 'field.kind="cascade_iso"',
                 "--set", 'field.params={"sigma": 0.3, "cap": 1.0}',
                 "--set", "ergodic.n_max=1", "--set", "ergodic.samples=4",
                 "--workers", str(workers)], tmp_path)
    assert code == 3
    err = capsys.readouterr().err
    assert "sample 0 (seed" in err
    assert "CascadeOverflowError" in err


def test_failed_records_name_their_cause(tmp_path, capsys):
    code = _run(["homogenize", "--workers", "2",
                 "--set", 'field.kind="cascade_iso"',
                 "--set", 'field.params={"sigma": 0.3, "cap": 1.0}',
                 "--set", "homexp.a_bar=[[1, 0], [0, 1]]",
                 "--set", "homexp.seeds=2", "--set", "homexp.n_max=2"], tmp_path)
    assert code == 3
    assert "4 failures" in capsys.readouterr().out
    summary, = tmp_path.glob("homog_summary_*.json")
    failed = json.loads(summary.read_text())["meta"]["failed_records"]
    assert [(r["seed"], r["n"]) for r in failed] == [(0, 1), (0, 2), (1, 1), (1, 2)]
    assert all(r["error"].startswith("CascadeOverflowError: ") for r in failed)
    # the CSV keeps its columns; the cause goes under meta only
    header = next(tmp_path.glob("homog_*.csv")).read_text().splitlines()[0]
    assert header == ("family,seed,n,grad_err,flux_err,energy,E_alpha,G_alpha,"
                      "H_alpha,failed,config_sha256")


def test_3d_levels_that_cannot_finish_are_config_errors(tmp_path, monkeypatch,
                                                        capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve was started")
    monkeypatch.setattr(cli.coarsegrain, "hierarchy_sweep", no_solve)
    monkeypatch.setattr(cli.ergodic, "estimate_Abar", no_solve)
    assert _run(["coarsegrain", "--set", "dim=3", "--set", "field.level=3"],
                tmp_path) == 2
    assert "3D cube of level 3" in capsys.readouterr().err
    assert _run(["ergodic", "--set", "dim=3"], tmp_path) == 2
    assert not any(tmp_path.iterdir())
    config = cli.apply_overrides(cli.load_config(None),
                                 ["dim=3", "ergodic.n_max=2"])
    for command in ("coarsegrain", "ergodic", "gen-field", "selftest"):
        cli.validate_config(config, command)
    with pytest.raises(cli.ConfigError, match="homogenize"):
        cli.validate_config(config, "homogenize")


def test_a_field_file_gives_the_level_that_is_checked(tmp_path):
    # the run and the 3D cap read the file's level, not field.level
    assert _run(["gen-field", "--set", "field.level=3"], tmp_path) == 0
    field_file = str(tmp_path / "field_checkerboard_n3_seed0.cghf")
    assert _run(["coarsegrain", field_file], tmp_path / "file") == 0
    report = _load_report(next((tmp_path / "file").glob("coarsegrain_*.json")))
    assert report["level"] == 3
    assert _run(["ellipticity", field_file, "--set", "dim=3", "--set", "field.level=4"],
                tmp_path / "cap") == 0


def test_invalid_field_file_stops_before_any_solve(tmp_path, monkeypatch,
                                                  capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve was started")
    monkeypatch.setattr(cli.coarsegrain, "hierarchy_sweep", no_solve)
    field = gen_named_field("checkerboard", level=2, seed=0)
    path = save_field(field, tmp_path / "asym.cghf")
    forge_field_file(path, "s", (4, 4, 0, 1), 0.5)
    out = tmp_path / "out"
    for command in ("coarsegrain", "ellipticity"):
        assert _run([command, str(path)], out) == 3
        assert "s must be symmetric" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_deviation_functionals_need_the_estimated_A_bar(tmp_path, monkeypatch,
                                                        capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve was started")
    monkeypatch.setattr(cli.homexp, "run_dirichlet_experiment", no_solve)
    a_bar = "homexp.a_bar=[[1,0],[0,1]]"
    out = tmp_path / "out"
    assert _run(["homogenize", "--set", a_bar, "--set", "homexp.with_E=true",
                 "--set", "homexp.with_GH=true"], out) == 2
    assert "homexp.with_E and homexp.with_GH:" in capsys.readouterr().err
    assert not out.exists()
    for flag in ("with_E", "with_GH"):
        config = cli.apply_overrides(cli.load_config(None),
                                     [a_bar, f"homexp.{flag}=true"])
        with pytest.raises(cli.ConfigError, match=f"homexp.{flag}: "):
            cli.validate_config(config, "homogenize")
        cli.validate_config(config, "ergodic")
        config["homexp"]["a_bar"] = None          # A_bar is then estimated
        cli.validate_config(config, "homogenize")
    cli.validate_config(cli.apply_overrides(cli.load_config(None), [a_bar]),
                        "homogenize")
    # G and H at scale n sum over min(ring_levels, n) scales: none at n = 0
    assert _run(["homogenize", "--set", "homexp.n_min=0", "--set", "homexp.with_GH=true"],
                out) == 2
    assert "homexp.with_GH needs homexp.n_min >= 1" in capsys.readouterr().err
    assert not out.exists()
    for flags in (["homexp.n_min=0", "homexp.with_E=true"],
                  ["homexp.n_min=1", "homexp.with_GH=true"]):
        cli.validate_config(cli.apply_overrides(cli.load_config(None), flags), "homogenize")


def test_output_dir_precedence(tmp_path, monkeypatch, capsys):
    cfg_dir = tmp_path / "from_config"
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(cfg_dir)}))
    assert cli.main(["gen-field", "--config", str(cfg)]) == 0
    assert any(cfg_dir.glob("*.cghf"))
    monkeypatch.setenv("CGHOM_OUTPUT_DIR", str(env_dir))
    assert cli.main(["gen-field", "--config", str(cfg)]) == 0
    assert any(env_dir.glob("*.cghf"))
    assert cli.main(["gen-field", "--config", str(cfg),
                     "--output-dir", str(flag_dir)]) == 0
    assert any(flag_dir.glob("*.cghf"))
    # a directory that cannot be made is an i/o error, not a traceback
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert cli.main(["gen-field", "--output-dir", str(out)]) == 2
        assert "i/o error: " in capsys.readouterr().err


def test_coarsegrain_command_artifacts(tmp_path, capsys):
    assert _run(["coarsegrain"], tmp_path) == 0
    assert "ordering diagnostics" in capsys.readouterr().out
    report_path, = tmp_path.glob("coarsegrain_*.json")
    report = _load_report(report_path)
    for key in ("s_star", "k", "b", "s", "sandwich_defect"):
        assert key in report
    assert report["subadditivity_defect"] > -1e-8
    assert report["diagnostics"] == []
    assert (tmp_path / report["cache_file"]).exists()


def test_coarsegrain_meta_holds_the_worst_order_slacks(tmp_path):
    assert _run(["coarsegrain", "--set", "field.kind=skew_lognormal"], tmp_path) == 0
    report_path, = tmp_path.glob("coarsegrain_*.json")
    body = json.loads(report_path.read_text())
    cache = cli.coarsegrain.hierarchy_sweep(gen_named_field("skew_lognormal", level=2))
    want = {str(k): {c: float(v.min()) for c, v in checks.items()}
            for k, checks in cache.slacks().items()}
    assert body["meta"]["order_slack_min"] == want
    assert set(want) == {"1", "2"}
    assert all(set(c) == {"subadditivity", "sandwich_upper", "sandwich_lower"}
               for c in want.values())
    assert body["subadditivity_defect"] == min(c["subadditivity"] for c in want.values())


def test_ellipticity_command_with_field_file(tmp_path):
    assert _run(["gen-field"], tmp_path) == 0
    field_file = str(tmp_path / "field_checkerboard_n2_seed0.cghf")
    assert _run(["ellipticity", field_file, "--set", "norms.p=6",
                 "--set", "norms.q=6"], tmp_path) == 0
    report_path, = tmp_path.glob("ellipticity_*.json")
    report = _load_report(report_path)
    assert report["lambda_s"] > 0 and report["Lambda_t"] >= report["lambda_s"]
    assert report["embedding"]["ok"]
    csv_path, = tmp_path.glob("ellipticity_*.csv")
    header, row = csv_path.read_text().strip().splitlines()
    assert header.split(",")[-1] == "config_sha256"
    assert row.split(",")[-1] == report["config_sha256"]


def test_homogenize_worker_equivalence(tmp_path):
    sets = ["--set", 'field.kind="laminate"',
            "--set", 'field.params={"a1": 1.0, "a2": 4.0, "phase": "random"}',
            "--set", "homexp.a_bar=[[1.6, 0.0], [0.0, 2.5]]",
            "--set", "homexp.n_max=2", "--set", "homexp.seeds=2"]
    d1, d2 = tmp_path / "w1", tmp_path / "w2"
    assert _run(["homogenize"] + sets + ["--workers", "1"], d1) == 0
    assert _run(["homogenize"] + sets + ["--workers", "2"], d2) == 0
    s1, = d1.glob("homog_summary_*.json")
    s2, = d2.glob("homog_summary_*.json")
    r1, r2 = _load_report(s1), _load_report(s2)
    # the worst interior-solve residual goes under meta, below the 1e-9 check
    for path in (s1, s2):
        worst = json.loads(path.read_text())["meta"]["max_interior_residual"]
        assert 0.0 <= worst < 1e-12
    # the digests differ (workers is part of the config), the numbers don't
    for rep in (r1, r2):
        rep.pop("config_sha256")
    assert r1 == r2
    assert r1["failures"] == 0
    assert len(r1["median_grad_err"]) == 2


def test_reports_are_strict_json(tmp_path):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    runs = {"ergodic": ["--set", "ergodic.samples=4"],
            "homogenize": ["--set", "homexp.a_bar=[[1,0],[0,1]]", "--set", "homexp.seeds=2"]}
    for command, sets in runs.items():
        assert _run([command, "--set", "field.kind=constant"] + sets, tmp_path / command) == 0
    (report,), (summary,) = ((tmp_path / "ergodic").glob("ergodic_*.json"),
                             (tmp_path / "homogenize").glob("homog_summary_*.json"))
    report, summary = (json.loads(path.read_text(), parse_constant=refuse)
                       for path in (report, summary))
    assert report["gap_diagnostic"]["spearman_rho"] is None     # constant gap traces
    assert summary["grad_final_over_initial"] is None           # zero errors
    assert summary["flux_final_over_initial"] is None


def test_override_value_parsing():
    cfg = cli.apply_overrides(cli.load_config(None),
                              ["workers=3", 'field.kind="laminate"',
                               "ergodic.csv=true"])
    assert cfg["workers"] == 3
    assert cfg["field"]["kind"] == "laminate"
    assert cfg["ergodic"]["csv"] is True
    # bare words (not valid JSON) fall back to strings
    cfg2 = cli.apply_overrides(cli.load_config(None), ["field.kind=laminate"])
    assert cfg2["field"]["kind"] == "laminate"


def _fresh_python(code, cwd):
    """Stdout of ``code`` run by a new interpreter that imports this cghom."""
    src = str(Path(cli.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src}).stdout


@pytest.mark.parametrize("argv", [
    ["coarsegrain"], ["ellipticity"],
    ["ergodic", "--workers", "1", "--set", "ergodic.samples=4",
     "--set", "ergodic.n_max=2"]])
def test_commands_without_nodal_solves_load_no_scipy(tmp_path, argv):
    code = ("import sys, cghom.cli\n"
            f"rc = cghom.cli.main({argv!r} + ['--output-dir', '.'])\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code, tmp_path).splitlines()[-1] == "0 []"


def test_homogenize_pool_workers_start_with_scipy_loaded(tmp_path):
    # each worker notes, when a Dirichlet job starts, whether SuperLU's module
    # is loaded; the command imports it before the pool forks
    code = f"""
import os, sys
import cghom.cli
from cghom import homexp
solve = homexp.run_dirichlet_experiment
def probe(*args, **kwargs):
    with open(os.path.join({str(tmp_path)!r}, f"jobs-{{os.getpid()}}"), "a") as fh:
        fh.write(f"{{'scipy.sparse.linalg' in sys.modules}}\\n")
    return solve(*args, **kwargs)
homexp.run_dirichlet_experiment = probe
print("scipy" in sys.modules)
rc = cghom.cli.main(["homogenize", "--workers", "2", "--output-dir", "out",
                     "--set", "homexp.a_bar=[[1,0],[0,1]]", "--set", "homexp.n_max=2",
                     "--set", "homexp.seeds=4"])
print(rc, os.getpid())
"""
    lines = _fresh_python(code, tmp_path).splitlines()
    rc, main_pid = lines[-1].split()
    assert lines[0] == "False" and rc == "0"
    jobs = {path.name: path.read_text().split() for path in tmp_path.glob("jobs-*")}
    assert jobs and f"jobs-{main_pid}" not in jobs
    assert sum(map(len, jobs.values())) == 4
    assert all(first == "True" for first, *_ in jobs.values())
