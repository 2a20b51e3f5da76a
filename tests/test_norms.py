"""Triadic norms against brute-force loop recomputations and closed forms."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cghom import norms
from cghom.coarsegrain import hierarchy_sweep
from cghom.fields import gen_named_field
from cghom.norms import (bnorm, block_means, ellipticity_constants,
                         embedding_check, ring_dual_norm, spec_norms,
                         write_ellipticity_csv)

from reference_impl import bnorm_loops, ellipticity_loops, ring_norm_loops


def test_spec_norms_symmetric_and_general():
    rng = np.random.default_rng(0)
    sym = rng.normal(size=(5, 3, 3))
    sym = sym + np.swapaxes(sym, -1, -2)
    want = np.array([np.abs(np.linalg.eigvalsh(m)).max() for m in sym])
    assert np.allclose(spec_norms(sym), want, atol=1e-12)
    gen = rng.normal(size=(4, 2, 2))
    want = np.array([np.linalg.svd(m, compute_uv=False)[0] for m in gen])
    assert np.allclose(spec_norms(gen), want, atol=1e-12)
    with pytest.raises(ValueError):
        spec_norms(rng.normal(size=(3, 2)))


def test_block_means_matches_loops():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(9, 9, 2, 2))
    got = block_means(v, 2, 3)
    for i in range(3):
        for j in range(3):
            want = v[3 * i:3 * i + 3, 3 * j:3 * j + 3].mean(axis=(0, 1))
            assert np.allclose(got[i, j], want)


def test_bnorm_against_bruteforce():
    rng = np.random.default_rng(3)
    scal = rng.normal(size=(9, 9))
    for t in (0.3, 0.7):
        for tail in (False, True):
            got = bnorm(scal, t, dim=2, tail=tail)
            want = bnorm_loops(scal, t, 2, tail=tail)
            assert abs(got - want) < 1e-12 * max(1.0, want)
    mats = rng.normal(size=(9, 9, 2, 2))
    mats = mats + np.swapaxes(mats, -1, -2)
    got = bnorm(mats, 0.4, dim=2, tail=True)
    want = bnorm_loops(mats, 0.4, 2, tail=True)
    assert abs(got - want) < 1e-12 * want


def test_bnorm_constant_geometric_sums():
    v = 2.5
    values = np.full((9, 9), v)
    r = 3.0 ** (-2 * 0.4)
    # truncated: sum_{j=0..n} r^j; tail completes the series to v/(1-r)
    assert np.isclose(bnorm(values, 0.4, tail=False), v * (1 - r ** 3) / (1 - r))
    assert np.isclose(bnorm(values, 0.4, tail=True), v / (1 - r))


def test_bnorm_single_cell_frozen():
    # one nonzero cell in a side-3 window at t = 1/2: weights 1/3 (cell term)
    # and 1/9 (window average); the sub-cell tail adds v/6
    values = np.zeros((3, 3))
    values[1, 2] = 1.0
    assert np.isclose(bnorm(values, 0.5, tail=False), 4.0 / 9.0)
    assert np.isclose(bnorm(values, 0.5, tail=True), 11.0 / 18.0)


def test_ring_norm_against_bruteforce():
    rng = np.random.default_rng(4)
    scal = rng.normal(size=(9, 9))
    for s in (0.35, 0.6):
        for tail in (False, True):
            got = ring_dual_norm(scal, s, dim=2, tail=tail)
            want = ring_norm_loops(scal, s, 2, tail=tail)
            assert abs(got - want) < 1e-12 * max(1.0, want)
    vec = rng.normal(size=(9, 9, 2))
    got = ring_dual_norm(vec, 0.45, dim=2, scale_origin=2)
    want = ring_norm_loops(vec, 0.45, 2, scale_origin=2)
    assert abs(got - want) < 1e-12 * max(1.0, want)


def test_ring_norm_against_bruteforce_in_3d():
    rng = np.random.default_rng(9)
    for values in (rng.normal(size=(9, 9, 9)), rng.normal(size=(9, 9, 9, 3))):
        for tail, origin in ((False, 0), (True, 2)):
            got = ring_dual_norm(values, 0.45, dim=3, tail=tail,
                                 scale_origin=origin)
            want = ring_norm_loops(values, 0.45, 3, tail=tail,
                                   scale_origin=origin)
            assert abs(got - want) < 1e-12 * max(1.0, want)


# a quarter turn or reflection of the window maps the partition and the
# half-overlap lattice onto themselves, and the cell magnitudes are
# invariant when vector cells move by R and matrix cells by R M R^T: both
# norms are unchanged

QUARTER_2D = np.array([[0.0, -1.0], [1.0, 0.0]])


def _norm_defect(seed, level, move_cells, R):
    d = R.shape[0]
    rng = np.random.default_rng(seed)
    m = 3 ** level
    scal = rng.normal(size=(m,) * d)
    vec = rng.normal(size=(m,) * d + (d,))
    mats = rng.normal(size=(m,) * d + (d, d))
    pairs = [(scal, move_cells(scal), ring_dual_norm),
             (vec, move_cells(vec) @ R.T, ring_dual_norm),
             (scal, move_cells(scal), bnorm),
             (mats, R @ move_cells(mats) @ R.T, bnorm)]
    defects = []
    for values, moved, norm in pairs:
        for tail in (False, True):
            want = norm(values, 0.4, dim=d, tail=tail)
            defects.append(abs(norm(moved, 0.4, dim=d, tail=tail) - want) / want)
    return np.max(defects)          # a nan defect fails the caller's check


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.integers(0, 3),
       turns=st.integers(1, 3))
def test_quarter_turns_leave_the_norms_unchanged(seed, level, turns):
    R = np.linalg.matrix_power(QUARTER_2D, turns)
    assert _norm_defect(seed, level, lambda c: np.rot90(c, turns, axes=(0, 1)),
                        R) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.integers(0, 3),
       axis=st.integers(0, 1))
def test_reflections_leave_the_norms_unchanged(seed, level, axis):
    R = np.eye(2)
    R[axis, axis] = -1.0
    assert _norm_defect(seed, level, lambda c: np.flip(c, axis=axis), R) < 1e-12


def test_3d_quarter_turn_leaves_the_norms_unchanged():
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert _norm_defect(10, 2, lambda c: np.rot90(c, 1, axes=(0, 1)),
                        R) < 1e-12


def test_ring_norm_scale_origin_rescales():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(9, 9))
    plain = ring_dual_norm(v, 0.5, dim=2)
    shifted = ring_dual_norm(v, 0.5, dim=2, scale_origin=2)
    # every scale term picks up the same 3^{-2 s n}, so the norm rescales
    # by 3^{-s n} overall
    assert np.isclose(shifted, 3.0 ** (-0.5 * 2) * plain)


def test_exponent_ranges_rejected():
    v = np.ones((3, 3))
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            bnorm(v, bad)
        with pytest.raises(ValueError):
            ring_dual_norm(v, bad)


def test_ellipticity_constants_constant_field():
    # tail-corrected + normalized constants of a = cI reproduce c exactly
    field = gen_named_field("constant", level=2, matrix=(3.0 * np.eye(2)).tolist())
    cache = hierarchy_sweep(field, check=False)
    rep = ellipticity_constants(cache, s=0.4, t=0.4)
    assert abs(rep.lambda_s - 3.0) < 1e-10
    assert abs(rep.Lambda_t - 3.0) < 1e-10
    assert abs(rep.contrast - 1.0) < 1e-10
    # truncated sums miss the sub-cell geometric continuation
    rep_tr = ellipticity_constants(cache, s=0.4, t=0.4, tail=False)
    r = 3.0 ** (-2 * 0.4)
    assert np.isclose(rep_tr.lambda_s, 3.0 / (1 - r ** 3))
    assert np.isclose(rep_tr.Lambda_t, 3.0 * (1 - r ** 3))


def test_ellipticity_constants_against_bruteforce():
    field = gen_named_field("skew_lognormal", level=2, seed=13, sigma=0.6,
                            kappa=0.5)
    cache = hierarchy_sweep(field, check=False)
    for tail in (False, True):
        for normalized in (False, True):
            rep = ellipticity_constants(cache, s=0.35, t=0.55, tail=tail,
                                        normalized=normalized)
            lam, Lam = ellipticity_loops(cache, 0.35, 0.55, tail=tail,
                                         normalized=normalized)
            assert abs(rep.lambda_s - lam) < 1e-10 * lam
            assert abs(rep.Lambda_t - Lam) < 1e-10 * Lam


def test_besov_and_lp_columns_populated():
    field = gen_named_field("lognormal_iso", level=2, seed=6, sigma=0.5)
    cache = hierarchy_sweep(field, check=False)
    rep = ellipticity_constants(cache, s=0.4, t=0.4, p=4.0, q=4.0)
    cells = cache.A_by_scale[0]
    want_lp = np.mean(spec_norms(cells[..., :2, :2]) ** 4.0) ** 0.25
    assert np.isclose(rep.lp_b, want_lp)
    assert rep.besov_b > 0 and rep.besov_sinv > 0


def test_embedding_check_bounds_hold():
    field = gen_named_field("checkerboard", level=2, seed=8, low=0.5, high=2.0)
    cache = hierarchy_sweep(field, check=False)
    out = embedding_check(cache, p=6.0, q=6.0, s=0.4, t=0.4)
    assert out["ok"]
    assert out["margin_b"] >= -1e-12
    assert out["margin_sinv"] >= -1e-12
    with pytest.raises(ValueError):
        embedding_check(cache, p=2.0, q=6.0, s=0.4, t=0.4)


def test_ellipticity_csv(tmp_path):
    field = gen_named_field("lognormal_iso", level=1, seed=1)
    cache = hierarchy_sweep(field, check=False)
    rep = ellipticity_constants(cache, s=0.4, t=0.4)
    path = tmp_path / "ell.csv"
    write_ellipticity_csv([rep, rep], str(path), sample_ids=[10, 11],
                          extra_cols={"config_sha256": "abc"})
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["sample", "n"]
    assert lines[0].split(",")[-1] == "config_sha256"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "10"
    assert lines[1].split(",")[-1] == "abc"
