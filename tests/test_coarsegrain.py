"""Coarse-graining layer: closed forms, identities, orderings, hierarchy."""
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cghom import coarsegrain, solver
from cghom.coarsegrain import (A_from_blocks, CoarseGrainedMatrices,
                               HierarchyCache, J_from_A, blocks_from_A,
                               center_skew, coarse_grain_cube,
                               coarse_grain_windows, condensed_A,
                               hierarchy_sweep, jswap, loewner_chain,
                               order_slacks, pointwise_A,
                               pointwise_bounds, verify_adjoint,
                               verify_centering, verify_maximizer_averages,
                               verify_quadratic_response)
from cghom.ergodic import FieldSpec, _mc_sample
from cghom.fields import CoefficientField, gen_named_field
from cghom.homexp import half_lattice_matrices
from cghom.solver import (assemble, partition_traces, solve_dirichlet,
                          trace_loads)
from cghom.triadic import TriadicCube
from reference_impl import (brute_force_J, center_skew_transform, kkt_A,
                            kkt_maximizers, nodal_functionals,
                            order_slacks_loops, partition_offsets,
                            solve_inv_A_from_blocks, verify_cg_inequalities)


def _random_spd_skew(rng, n=6, dim=2):
    g = rng.normal(size=(n, dim, dim))
    s = g @ np.swapaxes(g, -1, -2) + 0.5 * np.eye(dim)
    k = rng.normal(size=(n, dim, dim))
    k = 0.5 * (k - np.swapaxes(k, -1, -2))
    return s, k


def test_pointwise_A_structure():
    rng = np.random.default_rng(0)
    s, k = _random_spd_skew(rng)
    A = pointwise_A(s, k)
    assert A.shape == (6, 4, 4)
    assert np.allclose(A, np.swapaxes(A, -1, -2))
    assert np.linalg.eigvalsh(A).min() > -1e-12
    assert np.allclose(A[..., 2:, 2:], np.linalg.inv(s))
    # a single constant cell is exactly self-dual: the Schur complement
    # equals the inverse of the lower block
    for i in range(6):
        s_star, kk, b, ss = blocks_from_A(A[i], 2)
        assert np.allclose(s_star, s[i], atol=1e-12)
        assert np.allclose(ss, s[i], atol=1e-12)
        assert np.allclose(kk, k[i], atol=1e-12)
        assert np.allclose(b, s[i] + k[i].T @ np.linalg.solve(s[i], k[i]))
    # batched codec round trip on general blocks: s >= s_star, k not skew
    s_star, _ = _random_spd_skew(rng)
    gap, _ = _random_spd_skew(rng)
    k_gen = rng.normal(size=(6, 2, 2))
    got_s_star, got_k, got_b, got_s = blocks_from_A(
        A_from_blocks(s_star + gap, s_star, k_gen), 2)
    np.testing.assert_allclose(got_s_star, s_star, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got_k, k_gen, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got_s, s_star + gap, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        got_b, s_star + gap + np.swapaxes(k_gen, -1, -2)
        @ np.linalg.solve(s_star, k_gen), rtol=1e-12, atol=1e-12)


def test_pointwise_A_jswap_involution():
    # with a skew coupling the closed form satisfies  swap A^{-1} swap = A
    rng = np.random.default_rng(1)
    s, k = _random_spd_skew(rng)
    A = pointwise_A(s, k)
    Jsw = jswap(2)
    for i in range(6):
        assert np.allclose(Jsw @ np.linalg.inv(A[i]) @ Jsw, A[i], atol=1e-10)


def _rel(got, want):
    """Worst entry gap per matrix, relative to the matrix's largest entry."""
    gap = np.abs(got - want).reshape(-1, want.shape[-1] ** 2).max(axis=-1)
    return float((gap / np.abs(want).reshape(gap.shape[0], -1).max(axis=-1)).max())


@pytest.mark.parametrize("dim, level", [(2, 3), (3, 2)])
def test_closed_forms_match_the_lapack_oracle(dim, level):
    # pointwise_A, the pointwise bounds and the codec against one solve and
    # one inverse per cell: stock kinds, strong skew, axis-aligned anisotropic
    # cells up to cond 1e10, and turned cells of cond 10
    rng = np.random.default_rng(dim)
    fields = [gen_named_field(kind, level=level, dim=dim, seed=3, **params)
              for kind, params in (("checkerboard", {"low": 1e-3, "high": 1e3}),
                                   ("laminate", {}), ("lognormal_iso", {"sigma": 2.0}),
                                   ("skew_lognormal", {"sigma": 1.5, "kappa": 2.0}),
                                   ("cascade_iso", {"sigma": 0.8}))]
    cells = fields[0].s_cells.shape
    eigs = 10.0 ** rng.uniform(-10, 0, size=cells[:-1])
    eigs[..., -1] = 1.0
    eigs *= 10.0 ** rng.uniform(-5, 5, size=cells[:-2] + (1,))
    s = np.zeros(cells)
    for i in range(dim):
        s[..., i, i] = eigs[..., i]
    k = fields[3].k_cells * np.sqrt(eigs.min(axis=-1) * eigs.max(axis=-1))[..., None, None]
    q, _ = np.linalg.qr(rng.normal(size=cells))
    turned = q @ np.diag(np.geomspace(1.0, 0.1, dim)) @ np.swapaxes(q, -1, -2)
    fields.append(CoefficientField(dim, level, s, k))
    fields.append(CoefficientField(dim, level, 0.5 * (turned + np.swapaxes(turned, -1, -2)), k))
    for f in fields:
        want = solve_inv_A_from_blocks(f.s_cells, f.s_cells, f.k_cells)
        assert _rel(pointwise_A(f.s_cells, f.k_cells), want) <= 1e-14
        mean = want.reshape(-1, 2 * dim, 2 * dim).mean(axis=0)
        for got, block in zip(pointwise_bounds(f), (mean[dim:, dim:], mean[:dim, :dim])):
            assert _rel(got, block) <= 1e-14
    # turned cells of cond 1e6 lose digits as cond eps in any inverse; a 3 x 3
    # adjugate would lose them as cond^2 eps (about 1e-5 here)
    turned = q @ np.diag(np.geomspace(1.0, 1e-6, dim)) @ np.swapaxes(q, -1, -2)
    turned = 0.5 * (turned + np.swapaxes(turned, -1, -2))
    assert _rel(pointwise_A(turned, k), solve_inv_A_from_blocks(turned, turned, k)) <= 1e-8
    # the codec on general blocks: s >= s_star, k not skew
    s_star, _ = _random_spd_skew(rng, n=50, dim=dim)
    gap, _ = _random_spd_skew(rng, n=50, dim=dim)
    k_gen = rng.normal(size=(50, dim, dim))
    assert _rel(A_from_blocks(s_star + gap, s_star, k_gen),
                solve_inv_A_from_blocks(s_star + gap, s_star, k_gen)) <= 1e-14


def test_constant_isotropic_J_formula():
    # a = cI gives J(p, q) = c|p|^2/2 + |q|^2/(2c) - p.q
    c = 2.0
    field = gen_named_field("constant", level=1, matrix=(c * np.eye(2)).tolist())
    cg = coarse_grain_cube(field)
    assert np.allclose(cg.A, np.diag([c, c, 1 / c, 1 / c]))
    rng = np.random.default_rng(2)
    for _ in range(10):
        p, q = rng.normal(size=2), rng.normal(size=2)
        want = 0.5 * c * p @ p + 0.5 / c * q @ q - p @ q
        assert np.isclose(J_from_A(cg.A, p, q, 2), want, atol=1e-12)
    # frozen spot value
    e1 = np.array([1.0, 0.0])
    assert np.isclose(J_from_A(cg.A, e1, e1, 2), 0.25)


def test_fem_path_reproduces_constant_closed_form():
    # forcing the saddle solves on a constant cube must land on the exact
    # closed form: affine maximizers live in the Q1 space
    mat = [[2.0, 0.7], [-0.7, 1.5]]
    field = gen_named_field("constant", level=1, matrix=mat)
    exact = coarse_grain_cube(field)          # closed-form shortcut
    # forced variational path: no cube of the traces flagged constant
    fem_A = condensed_A(replace(partition_traces(field, 1), const=None))[0, 0]
    assert np.abs(fem_A - exact.A).max() < 1e-9
    e1 = np.array([1.0, 0.0])
    assert np.isclose(J_from_A(fem_A, e1, e1, 2),
                      J_from_A(exact.A, e1, e1, 2), atol=1e-10)


def test_coarse_grain_matches_dense_nullspace_oracle():
    field = gen_named_field("skew_lognormal", level=1, seed=21, sigma=0.6,
                            kappa=0.8)
    op = assemble(field)
    cg = coarse_grain_cube(field)
    rng = np.random.default_rng(3)
    for _ in range(5):
        p, q = rng.normal(size=2), rng.normal(size=2)
        assert np.isclose(J_from_A(cg.A, p, q, 2), brute_force_J(op, p, q),
                          atol=1e-9)


def test_adjoint_field_flips_offdiagonal_blocks():
    field = gen_named_field("skew_lognormal", level=1, seed=22, sigma=0.5,
                            kappa=0.9)
    res = verify_adjoint(field, pairs=[(np.array([0.3, -1.1]), np.array([0.8, 0.4]))])
    assert res["A"] < 1e-9
    assert res["J"] < 1e-10


def test_centering_congruence_and_verify():
    field = gen_named_field("skew_lognormal", level=1, seed=23, sigma=0.5,
                            kappa=0.7)
    h = np.array([[0.0, 0.4], [-0.4, 0.0]])
    cg0 = coarse_grain_cube(field)
    pred, h_used = center_skew_transform(cg0.A, 2, h)
    cg1 = coarse_grain_cube(center_skew(field, h))
    assert np.abs(cg1.A - pred).max() < 1e-9
    assert np.array_equal(h_used, h)
    # default h symmetrizes the coupling block
    auto, h_auto = center_skew_transform(cg0.A, 2)
    _, k_c, _, _ = blocks_from_A(auto, 2)
    assert np.allclose(k_c, k_c.T, atol=1e-10)
    assert np.allclose(h_auto, 0.5 * (cg0.k - cg0.k.T))
    report = verify_centering(field, h)
    assert max(report.values()) < 1e-8
    with pytest.raises(ValueError, match="skew"):
        center_skew(field, np.eye(2))


def test_maximizer_average_identities():
    field = gen_named_field("skew_lognormal", level=1, seed=24, sigma=0.6,
                            kappa=0.6)
    report = verify_maximizer_averages(field)
    assert report["gradient_avg"] < 1e-8
    assert report["flux_avg"] < 1e-8


def test_quadratic_response_identity():
    field = gen_named_field("skew_lognormal", level=1, seed=25, sigma=0.5,
                            kappa=0.5)
    worst = verify_quadratic_response(field, n_trials=10,
                                      rng=np.random.default_rng(4))
    assert worst < 1e-9


def test_cg_inequalities_hold_on_random_harmonics():
    field = gen_named_field("skew_lognormal", level=1, seed=26, sigma=0.7,
                            kappa=0.8)
    report = verify_cg_inequalities(field, n_trials=10,
                                    rng=np.random.default_rng(5))
    assert report["dual_lower"] > -1e-10
    assert report["flux_upper"] > -1e-10
    assert report["cauchy_schwarz"] > -1e-10
    assert report["maximizer_equality"] < 1e-8


def test_loewner_chain_on_random_field():
    field = gen_named_field("checkerboard", level=1, seed=27, low=0.5, high=5.0)
    cg = coarse_grain_cube(field)
    report = loewner_chain(cg.s_star, cg.s, cg.b, *pointwise_bounds(field))
    for name, val in report.items():
        assert val > -1e-9, name


def test_laminate_exact_effective_entries():
    # 9 columns, phase 0: five at a1=1, four at a2=4.  Across the layers the
    # dual block hits the harmonic mean exactly; along them the primal block
    # hits the arithmetic mean exactly.
    field = gen_named_field("laminate", level=2, a1=1.0, a2=4.0, phase=0)
    cg = coarse_grain_cube(field)
    assert np.isclose(cg.s_star[0, 0], 9.0 / (5 / 1.0 + 4 / 4.0), atol=1e-9)
    assert np.isclose(cg.s[1, 1], (5 * 1.0 + 4 * 4.0) / 9.0, atol=1e-9)
    assert abs(cg.s_star[0, 1]) < 1e-9
    assert abs(cg.s[0, 1]) < 1e-9
    assert np.linalg.eigvalsh(cg.s - cg.s_star).min() > -1e-10
    g = gen_named_field("laminate", level=2, a1=1.0, a2=4.0, phase=1)
    cg1 = coarse_grain_cube(g)
    assert np.isclose(cg1.s_star[0, 0], 9.0 / (4 / 1.0 + 5 / 4.0), atol=1e-9)
    assert np.isclose(cg1.s[1, 1], (4 * 1.0 + 5 * 4.0) / 9.0, atol=1e-9)


def test_hierarchy_sweep_shapes_and_defects():
    field = gen_named_field("skew_lognormal", level=2, seed=28, sigma=0.5,
                            kappa=0.6)
    cache = hierarchy_sweep(field)
    assert cache.scales == [0, 1, 2]
    assert cache.A_by_scale[0].shape == (9, 9, 4, 4)
    assert cache.A_by_scale[1].shape == (3, 3, 4, 4)
    assert cache.A_by_scale[2].shape == (1, 1, 4, 4)
    assert cache.diagnostics == []
    assert cache.subadditivity_defect() > -1e-9
    sandwich = cache.sandwich_defect()
    assert sandwich["upper"] > -1e-9
    assert sandwich["lower"] > -1e-9
    # indexing by absolute offsets agrees with direct coarse-graining
    cube = TriadicCube(level=1, offset=(3, 6), dim=2)
    direct = coarse_grain_cube(field, cube)
    assert np.allclose(cache.A_at(1, (3, 6)), direct.A, atol=1e-12)
    mats = cache.matrices_at(1, (3, 6))
    assert isinstance(mats, CoarseGrainedMatrices)
    assert mats.cube == cube
    assert np.allclose(mats.s_star, direct.s_star, atol=1e-12)
    # cell scale equals the closed form
    assert np.allclose(cache.A_by_scale[0], pointwise_A(field.s_cells, field.k_cells))


def test_order_slacks_are_computed_once_per_cache(monkeypatch):
    field = gen_named_field("skew_lognormal", level=2, seed=28, sigma=0.5,
                            kappa=0.6)
    calls = []

    def counted(A_by_scale):
        calls.append(1)
        return order_slacks(A_by_scale)

    monkeypatch.setattr(coarsegrain, "order_slacks", counted)
    cache = hierarchy_sweep(field)
    sub, sandwich = cache.subadditivity_defect(), cache.sandwich_defect()
    assert len(calls) == 1 and cache.slacks() is cache.slacks()
    # the defects are the minima of a fresh computation, bit for bit
    fresh = order_slacks(cache.A_by_scale).values()
    assert sub == min(float(c["subadditivity"].min()) for c in fresh)
    assert sandwich == {side: min(float(c[f"sandwich_{side}"].min()) for c in fresh)
                        for side in ("upper", "lower")}
    unchecked = hierarchy_sweep(field, check=False)
    assert len(calls) == 1        # an unchecked sweep computes none until asked
    assert unchecked.subadditivity_defect() == sub and len(calls) == 2


def test_hierarchy_cache_save_load(tmp_path):
    field = gen_named_field("lognormal_iso", level=1, seed=29, sigma=0.4)
    cache = hierarchy_sweep(field)
    path = str(tmp_path / "cache.npz")
    cache.save(path)
    back = HierarchyCache.load(path)
    assert back.scales == cache.scales
    assert back.fingerprint == cache.fingerprint
    assert back.top_level == cache.top_level
    for k in cache.scales:
        assert np.array_equal(back.A_by_scale[k], cache.A_by_scale[k])


def test_hierarchy_cache_load_refuses_tampered_arrays(tmp_path):
    field = gen_named_field("skew_lognormal", level=2, seed=3)
    cache = hierarchy_sweep(field)
    path = tmp_path / "cache.npz"
    cache.save(str(path))
    arrays = {f"scale_{k}": A for k, A in cache.A_by_scale.items()}
    tampered = (({k: A for k, A in arrays.items() if k != "scale_1"},
                 r"holds scales \[0, 2\], but its manifest lists scales \[0, 1, 2\]"),
                (dict(arrays, scale_2=arrays["scale_1"]),
                 r"scale 2 has shape \(3, 3, 4, 4\), want \(1, 1, 4, 4\)"))
    for data, message in tampered:
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match=re.escape(str(path)) + " " + message):
            HierarchyCache.load(str(path))
    np.savez_compressed(path, **arrays)
    # the manifests of a sweep that dropped the cells and of one that covered
    # part of the window: both would load, then fail or read the wrong cubes
    manifest_path = tmp_path / "cache.npz.json"
    manifest = json.loads(manifest_path.read_text())
    forged = ((dict(manifest, scales=[1, 2]),
               r"lists scales \[1, 2\], but a cache holds every scale 0\.\.2 of its window"),
              (dict(manifest, top_level=1, scales=[0, 1], base_offset=[3, 3]),
               r"sweeps the cube at \[3, 3\], but a cache holds its field's whole window"))
    for data, message in forged:
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=re.escape(str(manifest_path)) + " " + message):
            HierarchyCache.load(str(path))
    # a whole-window manifest that records its offset, (0, 0), still loads
    manifest_path.write_text(json.dumps(dict(manifest, base_offset=[0, 0])))
    back = HierarchyCache.load(str(path))
    assert back.scales == [0, 1, 2]
    assert back.subadditivity_defect() == cache.subadditivity_defect()


def test_blocks_from_A_rejects_degenerate_lower_block():
    A = np.zeros((4, 4))
    A[:2, :2] = np.eye(2)
    with pytest.raises(ValueError, match="degenerate"):
        blocks_from_A(A, 2)


def test_cache_lookup_refuses_offsets_off_the_swept_lattice():
    field = gen_named_field("lognormal_iso", level=2, seed=30, sigma=0.3)
    cache = hierarchy_sweep(field)
    # below the window: the index would wrap round to the last cell's matrix
    with pytest.raises(ValueError, match=r"offset \(-1, 0\) is not a scale-0 cube of "
                       r"the level-2 window"):
        cache.A_at(0, (-1, 0))
    # off the scale-1 lattice: the cube at (3, 3) would be labelled (4, 4)
    with pytest.raises(ValueError, match=r"offset \(4, 4\) is not a scale-1 cube"):
        cache.matrices_at(1, (4, 4))
    with pytest.raises(ValueError, match=r"offset \(4, 4\) is not a scale-1 cube"):
        cache.A_at(1, (4, 4))
    with pytest.raises(ValueError, match=r"offset \(9, 3\) is not a scale-0 cube"):
        cache.A_at(0, (9, 3))           # just past the window's far side
    # a scale outside 0..n, and an offset of another dimension
    for k, z in ((3, (0, 0)), (-1, (0, 0)), (0, (0, 0, 0))):
        with pytest.raises(ValueError, match=re.escape(f"offset {z} is not a scale-{k} cube")):
            cache.A_at(k, z)
    assert np.array_equal(cache.A_at(0, (5, 3)), cache.A_by_scale[0][5, 3])
    assert np.array_equal(cache.A_at(1, (3, 6)), cache.A_by_scale[1][1, 2])
    direct = coarse_grain_cube(field, TriadicCube(level=1, offset=(3, 3), dim=2))
    assert np.allclose(cache.A_at(1, (3, 3)), direct.A, atol=1e-12)


def _assert_slacks_match_loops(cache):
    got = order_slacks(cache.A_by_scale)
    want = order_slacks_loops(cache.A_by_scale)
    assert list(got) == list(want)
    for k in want:
        assert list(got[k]) == list(want[k])
        scale = max(1.0, np.abs(cache.A_by_scale[k]).max())
        for check, slack in want[k].items():
            assert got[k][check].shape == slack.shape
            assert np.abs(got[k][check] - slack).max() <= 1e-12 * scale, (k, check)


def test_order_slacks_match_loops_on_suite_fields():
    # the c1/c2 suite draws its fields the same way
    kinds = ("checkerboard", "lognormal_iso", "skew_lognormal", "cascade_iso")
    for i in range(100):
        field = gen_named_field(kinds[i % 4], level=1, seed=1000 + i)
        _assert_slacks_match_loops(hierarchy_sweep(field, check=False))


def test_order_slacks_match_loops_in_3d_and_list_in_order(monkeypatch):
    f3 = gen_named_field("skew_lognormal", level=2, dim=3, seed=38, sigma=0.5,
                         kappa=0.6)
    _assert_slacks_match_loops(hierarchy_sweep(f3, check=False))
    f2 = gen_named_field("skew_lognormal", level=3, seed=39, sigma=0.6,
                         kappa=0.7)
    cache = hierarchy_sweep(f2, check=False)
    assert {k: list(c) for k, c in order_slacks(cache.A_by_scale).items()} == {
        k: ["subadditivity", "sandwich_upper", "sandwich_lower"] for k in (1, 2, 3)}
    _assert_slacks_match_loops(cache)
    # with a tolerance of -1 every slack passes the threshold, so the sweep
    # lists every check of every cube: by scale, then cube in C order, then
    # check, each cube at its offset in cells
    monkeypatch.setattr(coarsegrain, "SLACK_TOL", -1.0)
    listed = hierarchy_sweep(f2).diagnostics
    want = [([k, [3 ** k * i, 3 ** k * j]], check, slacks[check][i, j])
            for k, slacks in order_slacks_loops(cache.A_by_scale).items()
            for i, j in np.ndindex(*slacks["sandwich_upper"].shape)
            for check in slacks]
    assert [(d["cube"], d["check"]) for d in listed] == [w[:2] for w in want]
    assert np.allclose([d["min_eig"] for d in listed], [w[2] for w in want],
                       rtol=0, atol=1e-12)


def test_sweep_diagnostics_name_the_raised_cube(monkeypatch):
    # raising one cube's A by delta*I breaks its subadditivity and its upper
    # sandwich and nothing else: its lower sandwich and its parent's
    # subadditivity only gain slack
    field = gen_named_field("lognormal_iso", level=2, seed=40, sigma=0.3)
    real = coarsegrain.condensed_A

    def raised(traces, *args, **kwargs):
        A = real(traces, *args, **kwargs)
        if traces.level == 1:       # the level-1 cube at offset (3, 6)
            A[1, 2] += np.eye(4)
        return A

    monkeypatch.setattr(coarsegrain, "condensed_A", raised)
    cache = hierarchy_sweep(field)
    assert [(d["cube"], d["check"]) for d in cache.diagnostics] == [
        ([1, [3, 6]], "subadditivity"), ([1, [3, 6]], "sandwich_upper")]
    assert all(d["min_eig"] < -0.5 for d in cache.diagnostics)
    assert cache.subadditivity_defect() == cache.diagnostics[0]["min_eig"]
    assert cache.sandwich_defect()["upper"] == cache.diagnostics[1]["min_eig"]
    assert cache.sandwich_defect()["lower"] > 0


def test_sweep_lists_a_slack_only_below_its_scaled_tolerance(monkeypatch):
    # every scale-1 cube of this field has |A|_2 = 3, so a slack of -2 tol
    # lies between -tol |A|_2 and -tol and is not listed; -4 tol is
    field = gen_named_field("constant", level=2, matrix=[[3.0, 0.0], [0.0, 3.0]])
    tol = coarsegrain.SLACK_TOL
    real = coarsegrain.order_slacks

    def lowered(A_by_scale):
        out = real(A_by_scale)
        out[1]["subadditivity"][0, 0] = -2 * tol
        out[1]["sandwich_lower"][0, 1] = -4 * tol
        out[1]["sandwich_upper"][2, 2] = -0.5 * tol
        return out

    monkeypatch.setattr(coarsegrain, "order_slacks", lowered)
    cache = hierarchy_sweep(field)
    assert np.linalg.norm(cache.A_by_scale[1][0, 0], 2) == pytest.approx(3.0)
    assert cache.diagnostics == [{"cube": [1, [0, 3]], "check": "sandwich_lower",
                                  "min_eig": -4 * tol}]


# ---------------------------------------------------------------------------
# the maximizers of J against independent oracles


def _polarized_brute_force_A(op):
    """A from J(p, q) + p.q at the 2d unit xi = (-p, q) and their pair sums,
    each J by the dense nullspace oracle."""
    d = op.dim
    n = 2 * d

    def Q(xi):
        p, q = -xi[:d], xi[d:]
        return brute_force_J(op, p, q) + p @ q

    eye = np.eye(n)
    A = np.diag([2.0 * Q(e) for e in eye])
    for i in range(n):
        for j in range(i + 1, n):
            A[i, j] = A[j, i] = Q(eye[i] + eye[j]) - 0.5 * (A[i, i] + A[j, j])
    return A


def _assert_close_to_oracle(field, cube=None, resolution=1):
    op = assemble(field, cube, resolution)
    A = coarse_grain_cube(field, cube, resolution).A
    want = _polarized_brute_force_A(op)
    assert np.abs(A - want).max() < 1e-10 * max(1.0, np.linalg.norm(want, 2))


@pytest.mark.parametrize("i", range(8))
def test_A_matches_polarized_nullspace_oracle_on_suite_fields(i):
    # the c1/c2 suite draws its fields the same way
    kinds = ("checkerboard", "lognormal_iso", "skew_lognormal", "cascade_iso")
    _assert_close_to_oracle(gen_named_field(kinds[i % 4], level=1, seed=1000 + i))


def test_A_matches_polarized_nullspace_oracle_in_3d_and_refined():
    f3 = gen_named_field("skew_lognormal", level=2, dim=3, seed=31, sigma=0.5,
                         kappa=0.6)
    _assert_close_to_oracle(f3, TriadicCube(level=1, offset=(3, 0, 6), dim=3))
    f2 = gen_named_field("skew_lognormal", level=1, seed=32, sigma=0.6,
                         kappa=0.8)
    _assert_close_to_oracle(f2, resolution=2)


def _trace_maximizers(field, cube, resolution, pairs):
    """J of each (p, q) and its maximizer's boundary values (node 0 pinned to
    zero), from the unit-load maximizers V of the cube's top trace: the
    maximizer of (p, q) is V xi, xi = (-p, q).  Returns (J, W, L, Q)."""
    cube = cube or field.domain
    top = partition_traces(field, cube.level, cube, resolution)
    at = (0,) * field.dim
    X = np.stack([np.concatenate([-p, q]) for p, q in pairs], axis=1)
    W = np.zeros((top.L.shape[-1], len(pairs)))
    W[1:] = trace_loads(top)[0][at] @ X
    L, Q = top.L[at], top.Q[at]
    J = (np.einsum("ic,ic->c", X, L @ W)
         - 0.5 * np.einsum("ic,ic->c", W, Q @ W)) / top.vol
    return J, W, L, Q


@pytest.mark.parametrize("dim,resolution", [(2, 1), (2, 2), (3, 1)])
def test_maximizers_have_zero_mass_weighted_mean(dim, resolution):
    # The trace path pins boundary node 0 instead of fixing the mean.  The
    # zero-mean shift of the maximizer's nodal extension leaves everything
    # the verifiers read of it (L b and b^T Q b) unchanged.
    field = gen_named_field("skew_lognormal", level=1, dim=dim, seed=33,
                            sigma=0.5, kappa=0.7)
    rng = np.random.default_rng(8)
    pairs = [(rng.normal(size=dim), rng.normal(size=dim)) for _ in range(3)]
    # the whole window, and one cell (at resolution 1 it has no interior node)
    for cube in (None, TriadicCube(level=0, offset=(1,) * dim, dim=dim)):
        op = assemble(field, cube, resolution)
        S, G, B, mass = nodal_functionals(op)
        _, W, L, Q = _trace_maximizers(field, cube, resolution, pairs)
        V = np.stack([solve_dirichlet(op, w) for w in W.T], axis=1)
        V -= (mass @ V) / op.vol
        assert np.abs(mass @ V).max() < 1e-12 * max(1.0, np.abs(V).max())
        scale = max(1.0, np.abs(L @ W).max())
        assert np.abs(np.vstack([B, G]) @ V - L @ W).max() < 1e-12 * scale
        energy = np.einsum("ic,ic->c", W, Q @ W)
        assert (np.abs(np.einsum("ic,ic->c", V, S @ V) - energy).max()
                < 1e-12 * max(1.0, energy.max()))


def test_maximizers_match_the_saddle_point_oracle():
    # the c1 fields, a 3D level-1 cube, a refined grid and single cells
    fields = [gen_named_field(kind, level=1, seed=300 + j)
              for j, kind in enumerate(("checkerboard", "lognormal_iso",
                                        "skew_lognormal", "cascade_iso"))]
    fields.append(gen_named_field("constant", level=1,
                                  matrix=[[2.0, 0.5], [-0.5, 1.5]]))
    cases = [(f, None, 1) for f in fields]
    f3 = gen_named_field("skew_lognormal", level=2, dim=3, seed=31, sigma=0.5,
                         kappa=0.6)
    cases.append((f3, TriadicCube(level=1, offset=(3, 0, 6), dim=3), 1))
    cases.append((fields[2], None, 2))
    cases.append((fields[2], TriadicCube(level=0, offset=(1, 2), dim=2), 1))
    cases.append((f3, TriadicCube(level=0, offset=(4, 0, 8), dim=3), 1))
    rng = np.random.default_rng(9)
    for field, cube, resolution in cases:
        d = field.dim
        op = assemble(field, cube, resolution)
        pairs = [(np.eye(d)[0], np.zeros(d)), (np.zeros(d), np.eye(d)[-1])]
        pairs += [(rng.normal(size=d), rng.normal(size=d)) for _ in range(3)]
        J, W, _, _ = _trace_maximizers(field, cube, resolution, pairs)
        # the nodal maximizers: a-harmonic extensions, shifted to zero mean
        V = np.stack([solve_dirichlet(op, w) for w in W.T], axis=1)
        V -= (nodal_functionals(op)[3] @ V) / op.vol
        J_ref, V_ref = kkt_maximizers(op, pairs)
        assert np.abs(J - J_ref).max() <= 1e-10 * max(1.0, np.abs(J_ref).max())
        assert np.abs(V - V_ref).max() <= 1e-10 * max(1.0, np.abs(V_ref).max())


def test_cubes_of_one_shape_share_the_kkt_pattern():
    f1 = gen_named_field("skew_lognormal", level=1, seed=34, sigma=0.5, kappa=0.7)
    f2 = gen_named_field("checkerboard", level=2, seed=35, low=1.0, high=5.0)
    _assert_close_to_oracle(f1)
    _assert_close_to_oracle(f2, TriadicCube(level=1, offset=(6, 3), dim=2))
    assert not np.allclose(coarse_grain_cube(f1).A,
                           coarse_grain_cube(f2, TriadicCube(level=1, offset=(6, 3), dim=2)).A)


# ---------------------------------------------------------------------------
# the batched condensation against the per-cube saddle-point oracle


def _assert_sweep_matches_kkt(field, cache):
    d = cache.dim
    for k in cache.scales:
        if k == 0:
            continue
        mats = cache.A_by_scale[k].reshape(-1, 2 * d, 2 * d)
        offsets = partition_offsets(3 ** cache.top_level, 3 ** k, d)
        assert len(mats) == len(offsets)
        for A, off in zip(mats, offsets):
            cube = TriadicCube(level=k, offset=off, dim=d)
            want = kkt_A(assemble(field, cube, cache.resolution))
            assert (np.abs(A - want).max()
                    <= 1e-10 * max(1.0, np.linalg.norm(want, 2))), (k, cube)


def test_sweep_matches_kkt_oracle_on_suite_fields():
    # the c1/c2 suite draws its fields the same way
    kinds = ("checkerboard", "lognormal_iso", "skew_lognormal", "cascade_iso")
    for i in range(100):
        field = gen_named_field(kinds[i % 4], level=1, seed=1000 + i)
        _assert_sweep_matches_kkt(field, hierarchy_sweep(field, check=False))


def test_sweep_matches_kkt_oracle_in_3d_and_refined():
    f3 = gen_named_field("skew_lognormal", level=2, dim=3, seed=41, sigma=0.5,
                         kappa=0.6)
    _assert_sweep_matches_kkt(f3, hierarchy_sweep(f3, check=False))
    f2 = gen_named_field("skew_lognormal", level=2, seed=42, sigma=0.8,
                         kappa=0.9)
    _assert_sweep_matches_kkt(f2, hierarchy_sweep(f2, resolution=2))
    f3 = gen_named_field("cascade_iso", level=3, seed=43)
    _assert_sweep_matches_kkt(f3, hierarchy_sweep(f3))
    # the merge steps are cached per (dim, level, resolution) and hold
    # indices: one step per axis, 3 boxes each, the last onto the parent
    hits = solver._merge_steps.cache_info().hits
    steps = solver._merge_steps(2, 2, 2)
    assert solver._merge_steps.cache_info().hits == hits + 1
    assert [axes for axes, *_ in steps] == [(0,), (1,)]
    for (_, maps, nb, nu), nc in zip(steps, (4 * 6, 2 * (18 + 6))):
        assert maps.dtype.kind == "i" and maps.shape == (3, nc)
        assert maps.min() == 0 and maps.max() == nu - 1
    assert steps[-1][2] == 4 * 18


def test_constant_block_gets_the_closed_form_exactly():
    field = gen_named_field("skew_lognormal", level=2, seed=44, sigma=0.5,
                            kappa=0.7)
    s0, k0 = field.s_cells[4, 4], field.k_cells[4, 4]
    s, k = field.s_cells.copy(), field.k_cells.copy()
    s[3:6, 3:6], k[3:6, 3:6] = s0, k0
    field = replace(field, s_cells=s, k_cells=k)
    exact = pointwise_A(s0, k0)
    cube = TriadicCube(level=1, offset=(3, 3), dim=2)
    assert np.array_equal(hierarchy_sweep(field).A_by_scale[1][1, 1], exact)
    assert np.array_equal(coarse_grain_cube(field, cube).A, exact)
    # every other cube is coarse-grained, and agrees with the oracle
    _assert_sweep_matches_kkt(field, hierarchy_sweep(field, check=False))


def test_windows_coarse_grained_together_match_each_one_alone():
    # a batch mixing coarse-grained windows with constant ones, which take the
    # closed form, in 2D, 3D and at resolution 2; a failed job's rerun of one
    # sample (``_mc_sample``) gives that sample's row of the batch
    for dim, level, resolution in ((2, 2, 1), (2, 1, 2), (3, 1, 1)):
        skew = FieldSpec("skew_lognormal", dim, {"sigma": 0.5, "kappa": 0.7})
        first = skew.realize(level, 47)
        cell = first.s_cells[(0,) * dim] + first.k_cells[(0,) * dim]
        members = [(skew, 47), (FieldSpec("constant", dim, {"matrix": cell}), 0),
                   (skew, 48)]
        fields = [spec.realize(level, seed) for spec, seed in members]
        A, sinv, bpt = coarse_grain_windows(fields, resolution)
        for i, (field, (spec, seed)) in enumerate(zip(fields, members)):
            want = coarse_grain_cube(field, resolution=resolution).A
            assert np.array_equal(A[i], want)
            want_sinv, want_bpt = pointwise_bounds(field)
            assert np.array_equal(sinv[i], want_sinv)
            assert np.array_equal(bpt[i], want_bpt)
            row = _mc_sample(spec, level, resolution, i, seed)
            for batch, alone in zip((A, sinv, bpt), row):
                assert alone.shape[0] == 1 and np.array_equal(alone[0], batch[i])
        assert np.array_equal(A[1], pointwise_A(fields[1].s_cells[(0,) * dim],
                                                fields[1].k_cells[(0,) * dim]))


def test_only_unflagged_cubes_reach_the_load_solve(monkeypatch):
    # a blocky field: blocks of 9x9 and 3x3 equal cells, so batches mix
    # flagged and unflagged cubes at levels 1 and 2 (partition and half
    # lattice); the load solve sees only the unflagged ones, which keep the
    # A they get with no cube flagged, bit for bit
    field = gen_named_field("skew_lognormal", level=3, seed=44, sigma=0.5,
                            kappa=0.7)
    s, k = field.s_cells.copy(), field.k_cells.copy()
    for block in (np.s_[9:18, 0:9], np.s_[3:6, 21:24], np.s_[18:21, 18:21],
                  np.s_[12:15, 3:6]):
        corner = tuple(b.start for b in block)
        s[block], k[block] = s[corner], k[corner]
    solved = []

    def recording(traces):
        solved.append(traces.Lam.shape[:-2])
        return trace_loads(traces)

    monkeypatch.setattr(coarsegrain, "trace_loads", recording)
    mixed = 0
    for traces in solver.condense(s, k):
        batches = [traces]
        if traces.level < 2:
            batches.append(solver.merge_traces(traces, stride=1))
        for batch in batches:
            flagged = batch.const
            solved.clear()
            A = condensed_A(batch)
            free = int((~flagged).sum())
            assert solved == ([] if free == 0 else [flagged.shape]
                              if free == flagged.size else [(free,)])
            mixed += 0 < free < flagged.size
            want = condensed_A(replace(batch, const=None))
            assert np.array_equal(A[~flagged], want[~flagged])
            assert np.array_equal(A[flagged], pointwise_A(batch.s0[flagged],
                                                          batch.k0[flagged]))
    assert mixed == 4


def test_degenerate_cell_raises_from_the_condensation():
    # a degenerate cell is refused when its field is built, so no condensation
    # ever reads one
    field = gen_named_field("lognormal_iso", level=2, seed=45, sigma=0.4)
    s = field.s_cells.copy()
    s[4, 7] = np.diag([1.0, 1e15])
    with pytest.raises(solver.DegenerateCellError, match="exceeds cap"):
        replace(field, s_cells=s)
    s[4, 7] = 0.0
    with pytest.raises(solver.DegenerateCellError, match="not positive definite"):
        CoefficientField(dim=2, level=2, s_cells=s, k_cells=field.k_cells)
    # the field the bad copies came from is unchanged
    hierarchy_sweep(field)


def test_energy_identity_failure_raises_solver_error(monkeypatch):
    real = coarsegrain.trace_loads

    def off(traces):
        V, LV, J, energy = real(traces)
        return V, LV, J, 1.01 * energy

    monkeypatch.setattr(coarsegrain, "trace_loads", off)
    field = gen_named_field("skew_lognormal", level=2, seed=46, sigma=0.5,
                            kappa=0.6)
    with pytest.raises(solver.SolverError, match="energy identity violated"):
        hierarchy_sweep(field)
    with pytest.raises(solver.SolverError, match="energy identity violated"):
        coarse_grain_cube(field)
    # the message gives the relative gap that the 1e-8 guard compares
    with pytest.raises(solver.SolverError, match=r"violated: \|J - E\| / max\(1, \|J\|\) "
                                                 r"= 1\.000e-07 > 1e-8 at J=1\.0+e\+01"):
        coarsegrain.check_objective(np.array([10.0]), np.array([10.000001]))
    # the closed form of a constant cube needs no solve and is not checked
    const = gen_named_field("constant", level=1, matrix=[[2.0, 0.5], [-0.5, 1.0]])
    assert np.array_equal(coarse_grain_cube(const).A,
                          pointwise_A(const.s_cells[0, 0], const.k_cells[0, 0]))


@pytest.mark.parametrize("kind, params, ratio, raises", [
    ("skew_lognormal", {"sigma": 0.5, "kappa": 0.6}, 1e-6, True),
    ("skew_lognormal", {"sigma": 0.5, "kappa": 0.6}, 1e-10, False),
    # |A|_2 = 100: -1e-9 |A|_2 is below -1e-8 but within -1e-8 |A|_2
    ("constant", {"matrix": [[100.0, 0.0], [0.0, 100.0]]}, 1e-9, False),
    ("constant", {"matrix": [[100.0, 0.0], [0.0, 100.0]]}, 2e-8, True),
])
def test_psd_guard_is_relative_to_the_spectral_norm(monkeypatch, kind, params,
                                                    ratio, raises):
    # one cube's A gets the smallest eigenvalue -ratio * max(1, |A|_2), and
    # J == energy >= 0, so only the PSD guard can object; with no cube
    # flagged constant, the constant field's cubes are solved and checked too
    traces = partition_traces(gen_named_field(kind, level=2, seed=46, **params), 1)
    traces = replace(traces, const=None)
    A = condensed_A(traces)
    cube = (1, 2)
    eigs, vecs = np.linalg.eigh(A[cube])
    target = -ratio * max(1.0, np.abs(eigs).max())
    shift = (target - eigs[0]) * np.outer(vecs[:, 0], vecs[:, 0])
    real = coarsegrain.trace_loads

    def indefinite(tr):
        V, LV, _, energy = real(tr)
        LV = LV.copy()
        LV[cube] += tr.vol * shift
        return V, LV, energy, energy

    monkeypatch.setattr(coarsegrain, "trace_loads", indefinite)
    if raises:
        with pytest.raises(ValueError, match="coarse matrix not PSD"):
            condensed_A(traces)
    else:
        got = condensed_A(traces)
        assert np.linalg.eigvalsh(got[cube])[0] == pytest.approx(target, rel=1e-3)
        assert np.array_equal(np.delete(got.reshape(9, 4, 4), 5, axis=0),
                              np.delete(A.reshape(9, 4, 4), 5, axis=0))


# ---------------------------------------------------------------------------
# exact symmetry: the grid is invariant under the square's symmetry group, so
# a field mapped by R, a'(x) = R a(R^T x) R^T, has A' = diag(R,R) A diag(R,R)^T


def _random_skew_field(seed, level, dim=2):
    rng = np.random.default_rng(seed)
    shape = (3 ** level,) * dim
    g = rng.normal(size=shape + (dim, dim))
    s = g @ np.swapaxes(g, -1, -2) + 0.3 * np.eye(dim)
    k = rng.normal(size=shape + (dim, dim))
    return CoefficientField(dim=dim, level=level, s_cells=s,
                            k_cells=k - np.swapaxes(k, -1, -2))


def _mapped(field, move_cells, R):
    def move(cells):
        return np.einsum("ab,...bc,dc->...ad", R, move_cells(cells), R)
    return CoefficientField(dim=field.dim, level=field.level,
                            s_cells=move(field.s_cells), k_cells=move(field.k_cells))


def _symmetry_defect(field, move_cells, R):
    A = coarse_grain_cube(field).A
    A_moved = coarse_grain_cube(_mapped(field, move_cells, R)).A
    Q = np.kron(np.eye(2), R)
    return np.abs(A_moved - Q @ A @ Q.T).max() / max(1.0, np.linalg.norm(A, 2))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.integers(1, 2),
       turns=st.integers(1, 3))
def test_quarter_turns_map_A_exactly(seed, level, turns):
    field = _random_skew_field(seed, level)
    R = np.linalg.matrix_power(np.array([[0.0, -1.0], [1.0, 0.0]]), turns)
    assert _symmetry_defect(field, lambda c: np.rot90(c, turns, axes=(0, 1)),
                            R) < 1e-10


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.integers(1, 2),
       axis=st.integers(0, 1))
def test_reflections_map_A_exactly(seed, level, axis):
    field = _random_skew_field(seed, level)
    R = np.eye(2)
    R[axis, axis] = -1.0
    assert _symmetry_defect(field, lambda c: np.flip(c, axis=axis), R) < 1e-10


def test_3d_quarter_turn_maps_A_exactly():
    field = _random_skew_field(36, 1, dim=3)
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert _symmetry_defect(field, lambda c: np.rot90(c, 1, axes=(0, 1)),
                            R) < 1e-10


# the half-lattice cubes of a mapped field are the original ones, moved: the
# output is the original's, each matrix mapped by diag(R,R) and the lattice
# positions (C order) permuted like the cells


@pytest.mark.parametrize("level", [2, 3])
def test_half_lattice_matrices_are_permuted_exactly(level):
    field = _random_skew_field(37 + level, level)
    turn = (lambda c: np.rot90(c, 1, axes=(0, 1)),
            np.array([[0.0, -1.0], [1.0, 0.0]]))
    reflect = (lambda c: np.flip(c, axis=0), np.diag([-1.0, 1.0]))
    for move_cells, R in (turn, reflect):
        moved = _mapped(field, move_cells, R)
        Q = np.kron(np.eye(2), R)
        for k in range(level + 1):
            mats = half_lattice_matrices(field, k)
            m = round(np.sqrt(len(mats)))
            want = move_cells((Q @ mats @ Q.T).reshape(m, m, 4, 4))
            got = half_lattice_matrices(moved, k).reshape(m, m, 4, 4)
            assert (np.abs(got - want).max()
                    <= 1e-10 * max(1.0, np.abs(mats).max())), (k, R)


# the c2 order checks see the same cubes, moved: their slacks are an exact
# permutation of the original ones, each scale's array moved like the cells

C2_KINDS = ("checkerboard", "lognormal_iso", "skew_lognormal", "cascade_iso")


def _slack_defect(field, move_cells, R):
    A = hierarchy_sweep(field, check=False).A_by_scale
    A_moved = hierarchy_sweep(_mapped(field, move_cells, R), check=False).A_by_scale
    slacks, moved = order_slacks(A), order_slacks(A_moved)
    assert slacks.keys() == moved.keys()
    worst = 0.0
    for k, checks in slacks.items():
        assert checks.keys() == moved[k].keys() == {
            "subadditivity", "sandwich_upper", "sandwich_lower"}
        for name, values in checks.items():
            worst = max(worst, np.abs(moved[k][name] - move_cells(values)).max())
    return worst / max(1.0, max(np.abs(a).max() for a in A.values()))


@settings(max_examples=15, deadline=None)
@given(i=st.integers(0, 99), level=st.integers(1, 2), turns=st.integers(1, 3))
def test_quarter_turns_permute_the_order_slacks(i, level, turns):
    field = gen_named_field(C2_KINDS[i % 4], level=level, seed=1000 + i)
    R = np.linalg.matrix_power(np.array([[0.0, -1.0], [1.0, 0.0]]), turns)
    assert _slack_defect(field, lambda c: np.rot90(c, turns, axes=(0, 1)),
                         R) < 1e-10


@settings(max_examples=15, deadline=None)
@given(i=st.integers(0, 99), level=st.integers(1, 2), axis=st.integers(0, 1))
def test_reflections_permute_the_order_slacks(i, level, axis):
    field = gen_named_field(C2_KINDS[i % 4], level=level, seed=1000 + i)
    R = np.eye(2)
    R[axis, axis] = -1.0
    assert _slack_defect(field, lambda c: np.flip(c, axis=axis), R) < 1e-10
