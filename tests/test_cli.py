"""Command-line driver: config handling, exit codes, output artifacts."""
import concurrent.futures
import json

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
    assert out.count("PASS") == 9
    assert "FAIL" not in out
    assert "0 failure(s)" in out


def test_selftest_gate_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_selftest_checks",
                        lambda: [("forced", lambda: (False, "broken"))])
    assert _run(["selftest"], tmp_path) == 4


def test_config_file_errors(tmp_path):
    bad_section = tmp_path / "bad.json"
    bad_section.write_text(json.dumps({"fields": {"kind": "laminate"}}))
    assert _run(["selftest", "--config", str(bad_section)], tmp_path) == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert _run(["selftest", "--config", str(not_json)], tmp_path) == 2
    assert _run(["selftest", "--config", str(tmp_path / "missing.json")],
                tmp_path) == 2


@pytest.mark.parametrize("override", [
    "norms.zeta=0.5",                 # unknown key
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
    "norms.tail=False",               # not JSON, so kept as a string
    "norms.normalized=0",
    "coarsegrain.check=\"yes\"",
    "ergodic.csv=1",
    "homexp.with_E=null",
    "homexp.with_GH=\"true\"",
])
def test_invalid_overrides_exit_2(tmp_path, capsys, override):
    argv = ["selftest"]
    for item in override.split():
        argv += ["--set", item]
    assert _run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    key = override.partition("=")[0]
    if key.startswith(("norms.p", "norms.q", "norms.tail", "norms.normalized",
                       "coarsegrain.check", "ergodic.csv", "homexp.with_")):
        assert f"config error: {key} must" in err
    elif key.startswith(("ergodic.", "homexp.n_", "homexp.seeds",
                         "homexp.ring")):
        assert f"config error: {key} must be an integer" in err


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


def test_k_min_above_the_field_level_is_a_config_error(tmp_path, monkeypatch,
                                                      capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve was started")
    monkeypatch.setattr(cli.coarsegrain, "hierarchy_sweep", no_solve)
    out = tmp_path / "out"
    for command in ("coarsegrain", "ellipticity"):
        assert _run([command, "--set", "field.level=1",
                     "--set", "coarsegrain.k_min=3"], out) == 2
        err = capsys.readouterr().err
        assert "coarsegrain.k_min=3" in err and "field.level=1" in err
    assert not out.exists()
    # a field file's own level is checked too
    assert _run(["gen-field", "--set", "field.level=1"], tmp_path) == 0
    field_file = str(tmp_path / "field_checkerboard_n1_seed0.cghf")
    assert _run(["coarsegrain", field_file, "--set", "coarsegrain.k_min=2"],
                tmp_path) == 2
    assert "coarsegrain.k_min=2 exceeds the level 1 of field file" in capsys.readouterr().err


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


def test_output_dir_precedence(tmp_path, monkeypatch):
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


def test_cascade_verify_smoke(tmp_path, capsys):
    code = _run(["cascade-verify",
                 "--set", "cascade.draws=20000",
                 "--set", "cascade.slope_seeds=5",
                 "--set", "cascade.slope_level=1",
                 "--set", "cascade.trend_levels=[2, 3]",
                 "--set", "cascade.trend_seeds=3"], tmp_path)
    assert code == 0
    assert "slope rel err" in capsys.readouterr().out
    report_path, = tmp_path.glob("cascade_*.json")
    report = _load_report(report_path)
    assert {"moments", "slope", "bounded_trend"} <= set(report)
    assert len(report["moments"]) == 6
    assert report["slope"]["m_max"] == 6


def test_override_value_parsing():
    cfg = cli.apply_overrides(cli.load_config(None),
                              ["workers=3", 'field.kind="laminate"',
                               "norms.tail=false"])
    assert cfg["workers"] == 3
    assert cfg["field"]["kind"] == "laminate"
    assert cfg["norms"]["tail"] is False
    # bare words (not valid JSON) fall back to strings
    cfg2 = cli.apply_overrides(cli.load_config(None), ["field.kind=laminate"])
    assert cfg2["field"]["kind"] == "laminate"
