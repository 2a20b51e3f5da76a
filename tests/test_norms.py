"""Triadic norms against brute-force loop recomputations and closed forms."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cghom import homexp, norms
from cghom.coarsegrain import hierarchy_sweep
from cghom.fields import gen_named_field
from cghom.norms import (bnorm, block_means, ellipticity_constants,
                         embedding_check, max_spec_norm, ring_dual_norm,
                         spec_norms, write_ellipticity_csv)

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


def _full_max(mats) -> float:
    return float(spec_norms(mats).max())


@st.composite
def _batches(draw):
    """Batches of order 2, 3, 4 or 6 with per-matrix scales 1e-8..1e8,
    symmetric or not, with exact ties, all zeros, one matrix, or matrices
    whose spectral norms sit just around the pruning bound."""
    m = draw(st.sampled_from([2, 3, 4, 6]))
    count = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = rng.normal(size=(count, m, m)) * 10.0 ** rng.uniform(-8, 8, (count, 1, 1))
    symmetric = draw(st.booleans())
    if symmetric:
        mats = mats + np.swapaxes(mats, -1, -2)
    kind = draw(st.sampled_from(["plain", "ties", "zero", "bound"]))
    if kind == "ties":
        mats = np.concatenate([mats, -mats[::-1], mats])
    elif kind == "zero":
        mats = np.zeros_like(mats)
    elif kind == "bound":
        # c I has |M|_F = sqrt(m) c, the pruning bound is c, and rank-one
        # matrices have |M|_F = |M|_2, here c (1 + eps) around that bound
        c = 10.0 ** rng.uniform(-8, 8)
        u = rng.normal(size=(count, m))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        v = u if symmetric else rng.normal(size=(count, m))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        eps = rng.choice([-1e-9, -1e-12, -1e-13, 0.0, 1e-13], size=(count, 1, 1))
        mats = c * (1 + eps) * u[:, :, None] * v[:, None, :]
        mats[0] = c * np.eye(m)
    return mats


@settings(max_examples=300, deadline=None)
@given(mats=_batches())
def test_max_spec_norm_equals_the_full_max(mats):
    assert max_spec_norm(mats) == _full_max(mats)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("symmetric", [True, False])
def test_max_spec_norm_non_finite_as_the_full_max(bad, symmetric):
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(6, 3, 3))
    if symmetric:
        mats = mats + np.swapaxes(mats, -1, -2)
    mats[2, 0, 1] = bad
    if symmetric:
        mats[2, 1, 0] = bad
    try:
        want = _full_max(mats)
    except Exception as exc:  # max_spec_norm must raise the same class
        with pytest.raises(type(exc)):
            max_spec_norm(mats)
        return
    got = max_spec_norm(mats)
    assert got == want or (np.isnan(got) and np.isnan(want))


def test_max_spec_norm_rejects_what_spec_norms_rejects():
    for bad in (np.ones((3, 2)), np.ones(4), np.zeros((0, 2, 2))):
        with pytest.raises(ValueError):
            spec_norms(bad)
        with pytest.raises(ValueError):
            max_spec_norm(bad)


def _pruned_reductions(field):
    d = field.dim
    cache = hierarchy_sweep(field, check=False)
    cells = cache.A_by_scale[0]
    A_mean = cells.reshape(-1, 2 * d, 2 * d).mean(axis=0)
    return (
        [homexp.compute_E_s(cache, A_bar, 0.6, tail=tail)
         for A_bar in (np.eye(2 * d), A_mean) for tail in (True, False)],
        [vars(ellipticity_constants(cache, 0.4, 0.3, p=4.0, q=5.0, tail=tail,
                                    normalized=normalized))
         for tail in (True, False) for normalized in (True, False)],
        [bnorm(block, t, dim=d) for t in (0.3, 0.7)
         for block in (cells[..., :d, :d], cells[..., d:, d:], cells[..., :d, d:])],
    )


_PRUNED_FIELDS = [(kind, dim, level, params)
                  for kind, params in (("skew_lognormal", {"sigma": 0.5, "kappa": 0.5}),
                                       ("checkerboard", {}), ("laminate", {}),
                                       ("constant", {}))
                  for dim, level in ((2, 3), (3, 2))]


@pytest.mark.parametrize("kind, dim, level, params", _PRUNED_FIELDS)
def test_pruned_reductions_equal_the_full_spectral_norms(monkeypatch, kind, dim,
                                                         level, params):
    field = gen_named_field(kind, level=level, dim=dim, seed=7, **params)
    got = _pruned_reductions(field)
    monkeypatch.setattr(norms, "max_spec_norm", _full_max)
    monkeypatch.setattr(homexp, "max_spec_norm", _full_max)
    assert got == _pruned_reductions(field)


def test_pruned_reductions_of_the_c2_fields(monkeypatch):
    kinds = ("checkerboard", "lognormal_iso", "skew_lognormal", "cascade_iso")
    suite = [gen_named_field(kinds[i % 4], level=level, seed=1000 + i)
             for level, count in ((1, 24), (2, 4)) for i in range(count)]
    got = [_pruned_reductions(f) for f in suite]
    monkeypatch.setattr(norms, "max_spec_norm", _full_max)
    monkeypatch.setattr(homexp, "max_spec_norm", _full_max)
    assert got == [_pruned_reductions(f) for f in suite]


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
