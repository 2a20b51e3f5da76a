"""Monte Carlo averaging of coarse matrices and the derived diagnostics."""
import json

import numpy as np
import pytest

from cghom.coarsegrain import A_from_blocks
from cghom.ergodic import (ErgodicEstimate, FieldSpec,
                           check_monotone, derive_blocks, estimate_Abar,
                           estimates_report, gap_diagnostic,
                           homogenized_matrix, sample_seeds,
                           write_samples_csv)

CHK = FieldSpec(kind="checkerboard", dim=2, params={"low": 0.75, "high": 4 / 3})
SKW = FieldSpec(kind="skew_lognormal", dim=2,
                params={"sigma": 0.4, "kappa": 0.6})


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
    e3 = estimate_Abar(CHK, 1, 8, seed=3, workers=2)
    assert np.array_equal(e1.A_bar, e3.A_bar)
    e4 = estimate_Abar(CHK, 1, 8, seed=4)
    assert not np.array_equal(e1.A_bar, e4.A_bar)


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


def test_homogenized_matrix_from_small_ensemble():
    est = estimate_Abar(CHK, 1, 16, seed=8)
    hom = homogenized_matrix([est], spec=CHK)
    assert np.allclose(hom.a_bar, est.s_bar + est.k_bar)
    assert hom.n == 1 and hom.samples == 16
    assert hom.spec is CHK
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
    csv_path = tmp_path / "samples.csv"
    write_samples_csv(ests, str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    # header + 4 samples x 16 entries from the n=1 estimate only
    assert lines[0] == "n,sample,i,j,value"
    assert len(lines) == 1 + 4 * 16
    # full-precision roundtrip of the first stored entry
    first = lines[1].split(",")
    assert float(first[-1]) == ests[0].A_samples[0, 0, 0]
