"""Monte Carlo averaging of coarse matrices and the derived diagnostics."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from cghom import cli, coarsegrain, ergodic
from cghom.coarsegrain import A_from_blocks, coarse_grain_cube, pointwise_bounds
from cghom.ergodic import (ErgodicEstimate, FieldSpec, SampleError,
                           check_monotone, derive_blocks, estimate_Abar,
                           estimates_report, gap_diagnostic,
                           homogenized_matrix, sample_seeds)
from cghom.fields import CascadeSpec, gen_cascade_field
from cghom.solver import SolverError, worker_map

CHK = FieldSpec(kind="checkerboard", dim=2, params={"low": 0.75, "high": 4 / 3})
SKW = FieldSpec(kind="skew_lognormal", dim=2,
                params={"sigma": 0.4, "kappa": 0.6})
SKW3 = FieldSpec(kind="skew_lognormal", dim=3,
                 params={"sigma": 0.4, "kappa": 0.6})
CONST = FieldSpec(kind="constant", dim=2,
                  params={"matrix": [[2.0, 0.5], [-0.5, 1.5]]})


def _synthetic(n, s_bar, s_star, k, sinv_bar=None, bpt_bar=None, se=0.0):
    A = A_from_blocks(np.asarray(s_bar, float), np.asarray(s_star, float),
                      np.asarray(k, float))
    return ErgodicEstimate(
        n=n, samples=100, seed=0, method="independent", A_bar=A,
        A_se=np.full_like(A, se),
        sinv_bar=np.eye(2) * 10 if sinv_bar is None else np.asarray(sinv_bar),
        bpt_bar=np.eye(2) * 10 if bpt_bar is None else np.asarray(bpt_bar))


def test_sample_seeds_deterministic_and_scale_keyed():
    a = sample_seeds(7, 2, 16)
    b = sample_seeds(7, 2, 16)
    c = sample_seeds(7, 3, 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert len(np.unique(a)) == 16


def test_estimate_determinism_and_worker_equivalence():
    e1 = estimate_Abar(CHK, 1, 8, seed=3)
    e2 = estimate_Abar(CHK, 1, 8, seed=3)
    assert np.array_equal(e1.A_bar, e2.A_bar)
    assert np.array_equal(e1.A_se, e2.A_se)
    with worker_map(2) as pmap:
        e3 = estimate_Abar(CHK, 1, 8, seed=3, pmap=pmap)
    assert np.array_equal(e1.A_bar, e3.A_bar)
    e4 = estimate_Abar(CHK, 1, 8, seed=4)
    assert not np.array_equal(e1.A_bar, e4.A_bar)


def _per_sample(spec, n, samples, seed, resolution=1):
    """Each sample coarse-grained on its own: (A per sample, mean avg s^-1,
    mean avg (s + k^T s^-1 k))."""
    rows = []
    for s in sample_seeds(seed, n, samples):
        field = spec.realize(n, int(s))
        rows.append((coarse_grain_cube(field, resolution=resolution).A,
                     *pointwise_bounds(field)))
    As, sinv, bpt = (np.stack(x) for x in zip(*rows))
    return As, sinv.mean(axis=0), bpt.mean(axis=0)


# 13 and 9 samples leave a short last job (8 + 5, 8 + 1); checkerboard cells
# at n=0 and the constant kind take the closed form
BATCH_CASES = [(SKW, 1, 13, 1), (SKW, 2, 13, 1), (SKW, 3, 9, 1), (CHK, 0, 13, 1),
               (CONST, 2, 5, 1), (SKW, 2, 13, 2), (SKW3, 1, 13, 1)]


def test_batched_jobs_match_per_sample_coarse_graining_bit_for_bit():
    # one BLAS thread throughout, as in a pool worker: the reference too
    with worker_map(1) as one, worker_map(2) as two:
        for spec, n, samples, resolution in BATCH_CASES:
            want_As, want_sinv, want_bpt = _per_sample(spec, n, samples, 21,
                                                       resolution)
            for run in (one, two):
                est = estimate_Abar(spec, n, samples, seed=21,
                                    resolution=resolution, pmap=run,
                                    keep_samples=True)
                assert np.array_equal(est.A_samples, want_As)
                assert np.array_equal(est.A_bar, want_As.mean(axis=0))
                assert np.array_equal(est.sinv_bar, want_sinv)
                assert np.array_equal(est.bpt_bar, want_bpt)


def test_jobs_are_bounded_and_their_split_changes_no_number(monkeypatch):
    sizes = []

    def pmap(fn, jobs):
        sizes.append([len(members) for *_, members in jobs])
        return one(fn, jobs)

    cases = [(SKW, 1, 13, [8, 5]), (SKW, 3, 9, [8, 1]), (SKW3, 1, 10, [8, 2]),
             (SKW, 4, 2, [1, 1])]
    with worker_map(1) as one:
        for spec, n, samples, want in cases:
            est = estimate_Abar(spec, n, samples, seed=22, pmap=pmap,
                                keep_samples=True)
            assert sizes[-1] == want
            cells = 3 ** (n * spec.dim)
            assert all(size <= ergodic.JOB_SAMPLES
                       and (size == 1 or size * cells <= ergodic.JOB_CELLS)
                       for size in sizes[-1])
            with monkeypatch.context() as patch:
                patch.setattr(ergodic, "JOB_SAMPLES", 3)
                small = estimate_Abar(spec, n, samples, seed=22, pmap=pmap,
                                      keep_samples=True)
            assert max(sizes[-1]) <= 3
            assert np.array_equal(small.A_samples, est.A_samples)
            assert np.array_equal(small.sinv_bar, est.sinv_bar)
            assert np.array_equal(small.bpt_bar, est.bpt_bar)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_sample_inside_a_job_is_named(monkeypatch, workers):
    # generation: a cascade cap between the largest layer product of the
    # samples before the worst one and the worst one's
    seeds = sample_seeds(4, 1, 8)
    worst = [max(gen_cascade_field(CascadeSpec(sigma=0.3, level=1,
                                               seed=int(s)))[1]["layer_max"])
             for s in seeds]
    bad = int(np.argmax(worst))
    assert 0 < bad < 7
    cap = 0.5 * (max(worst[:bad]) + worst[bad])
    spec = FieldSpec("cascade_iso", 2, {"sigma": 0.3, "cap": cap})
    with worker_map(workers) as pmap, pytest.raises(SampleError) as info:
        estimate_Abar(spec, 1, 8, seed=4, pmap=pmap)
    assert str(info.value).startswith(
        f"sample {bad} (seed {seeds[bad]}) failed: CascadeOverflowError: ")
    # numerics: condensed_A fails, or zeroes the lower block of, the window
    # whose corner cell (the traces' s0) holds sample 5's, so the job of
    # samples 0-7 fails, and so does sample 5 alone
    seeds = sample_seeds(0, 1, 8)
    marker = SKW.realize(1, int(seeds[5])).s_cells[0, 0, 0, 0]
    real = coarsegrain.condensed_A

    def failing(traces):
        if np.any(traces.s0 == marker):
            raise SolverError("injected")
        return real(traces)

    def degenerate(traces):
        A = real(traces)
        window = np.nonzero(traces.s0[:, 0, 0, 0] == marker)[0]
        A[window, 0, 2:, 2:] = 0.0
        return A

    for fault, cause in ((failing, "SolverError: injected"),
                         (degenerate, "ValueError: degenerate lower block")):
        monkeypatch.setattr(coarsegrain, "condensed_A", fault)
        with worker_map(workers) as pmap, pytest.raises(SampleError) as info:
            estimate_Abar(SKW, 1, 8, seed=0, pmap=pmap)
        assert str(info.value).startswith(
            f"sample 5 (seed {seeds[5]}) failed: {cause}")


def test_estimate_rejects_tiny_ensembles():
    with pytest.raises(ValueError, match="at least 2"):
        estimate_Abar(CHK, 1, 1)


def test_derived_blocks_reconstruction_identity():
    est = estimate_Abar(SKW, 1, 6, seed=5, keep_samples=True)
    assert est.reconstruction_err < 1e-12
    blocks = derive_blocks(est.A_bar, 2)
    assert np.allclose(blocks["s_star"], est.s_star_bar)
    assert np.allclose(blocks["gap"], est.s_bar - est.s_star_bar)
    assert np.allclose(est.sym_k, 0.5 * (est.k_bar + est.k_bar.T))
    assert est.A_samples.shape == (6, 4, 4)
    # the sample mean is the stored mean
    assert np.allclose(est.A_samples.mean(axis=0), est.A_bar)
    # the derived blocks are not constructor arguments
    inputs = {name: getattr(est, name) for name in
              ("n", "samples", "seed", "method", "A_bar", "A_se", "sinv_bar", "bpt_bar")}
    for name in ("s_star_bar", "k_bar", "b_bar", "s_bar", "gap", "sym_k",
                 "reconstruction_err"):
        with pytest.raises(TypeError, match=name):
            ErgodicEstimate(**inputs, **{name: 0.0})


def test_gap_identity_is_algebraic():
    est = estimate_Abar(SKW, 1, 6, seed=6)
    report = est.gap_identity()
    assert report["residual"] < 1e-10
    assert len(report["J_sums"]) == 2


def test_check_monotone_detects_order_and_violation():
    hi = _synthetic(1, 2.0 * np.eye(2), 1.5 * np.eye(2), np.zeros((2, 2)),
                    se=1e-6)
    lo = _synthetic(2, 1.8 * np.eye(2), 1.6 * np.eye(2), np.zeros((2, 2)),
                    se=1e-6)
    good = check_monotone([lo, hi])      # sorted internally by n
    assert good["ok"]
    assert good["pairs"][0]["n_from"] == 1
    bad = check_monotone([hi, _synthetic(2, 2.5 * np.eye(2), 1.5 * np.eye(2),
                                         np.zeros((2, 2)), se=1e-6)])
    assert not bad["ok"]


def test_gap_diagnostic_trend_and_validation():
    ests = [_synthetic(n, (1 + g) * np.eye(2), np.eye(2), np.zeros((2, 2)))
            for n, g in [(1, 0.4), (2, 0.2), (3, 0.05)]]
    rep = gap_diagnostic(ests)
    assert rep["decreasing"]
    assert rep["spearman_rho"] < 0
    assert np.allclose(rep["gap_traces"], [0.8, 0.4, 0.1])
    assert rep["identity_residual"] < 1e-12
    for entry in rep["sym_k_sandwich"]:
        assert entry["upper_slack"] > 0 and entry["lower_slack"] > 0
    with pytest.raises(ValueError, match="3 scales"):
        gap_diagnostic(ests[:2])


@pytest.mark.filterwarnings("ignore::scipy.stats.ConstantInputWarning")
def test_spearman_rho_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(12)
    for trial in range(400):
        n = int(rng.integers(3, 9))
        if trial % 2:       # ties: draw from a few values
            x, y = rng.integers(0, 3, n), rng.integers(0, 3, n)
        else:
            x, y = rng.standard_normal(n), rng.standard_normal(n)
        want = stats.spearmanr(x, y).statistic
        got = ergodic._spearman_rho(x, y)
        assert got == want or (np.isnan(got) and np.isnan(want)), (x, y)
    # constant input: nan without a warning
    with np.errstate(all="raise"):
        assert np.isnan(ergodic._spearman_rho([1, 2, 3], [5.0, 5.0, 5.0]))


def test_cli_import_leaves_scipy_stats_out():
    # no part of SciPy, and no process pool, is loaded by the import alone
    code = ("import sys, cghom.cli; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))")
    src = str(Path(ergodic.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_homogenized_matrix_from_small_ensemble():
    est = estimate_Abar(CHK, 1, 16, seed=8)
    hom = homogenized_matrix([est])
    assert np.allclose(hom.a_bar, est.s_bar + est.k_bar)
    assert np.linalg.eigvalsh(0.5 * (hom.a_bar + hom.a_bar.T)).min() > 0


def test_homogenized_matrix_raises_on_bound_violation():
    # dual block far below the harmonic lower bound
    bad = _synthetic(1, 0.3 * np.eye(2), 0.2 * np.eye(2), np.zeros((2, 2)),
                     sinv_bar=0.1 * np.eye(2))
    with pytest.raises(ValueError, match="harmonic_lower"):
        homogenized_matrix([bad])
    # bounds fine but the symmetric coupling degrades a = s + k
    k = np.array([[0.0, 2.0], [2.0, 0.0]])
    bad2 = _synthetic(1, 2.0 * np.eye(2), np.eye(2), k)
    with pytest.raises(ValueError, match="not SPD"):
        homogenized_matrix([bad2])


def test_report_and_csv_outputs(tmp_path):
    ests = [estimate_Abar(CHK, n, 4, seed=9, keep_samples=(n == 1))
            for n in (1, 2)]
    rep = estimates_report(ests)
    assert [e["n"] for e in rep["per_scale"]] == [1, 2]
    assert "gap_diagnostic" not in rep
    back = json.loads(json.dumps(rep, sort_keys=True, indent=1))
    assert back["per_scale"][0]["samples"] == 4
    assert np.allclose(back["per_scale"][0]["A_bar"], ests[0].A_bar)
    # cghom ergodic writes the kept samples in long format, floats by repr
    assert cli.main(["ergodic", "--seed", "9", "--output-dir", str(tmp_path),
                     "--set", "field.kind=checkerboard",
                     "--set", f"field.params={json.dumps(CHK.params)}",
                     "--set", "ergodic.n_max=1", "--set", "ergodic.samples=4",
                     "--set", "ergodic.csv=true"]) == 0
    csv_path, = tmp_path.glob("ergodic_samples_*.csv")
    lines = csv_path.read_text().strip().splitlines()
    # header + 4 samples x 16 entries, in sample then row-major order
    assert lines[0] == "n,sample,i,j,value"
    assert len(lines) == 1 + 4 * 16
    assert lines[1 + 16 * 3 + 4 * 2 + 1].split(",")[:4] == ["1", "3", "2", "1"]
    values = [float(line.split(",")[-1]) for line in lines[1:]]
    assert values == ests[0].A_samples.ravel().tolist()
