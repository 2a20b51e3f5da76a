"""Homogenization-error experiments: targets, errors, trend machinery."""
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from cghom import cli, solver
from cghom.coarsegrain import hierarchy_sweep, pointwise_A
from cghom.ergodic import FieldSpec, estimate_Abar
from cghom.fields import gen_named_field
from cghom.homexp import (ErrorRecord, HomExperiment, TargetFunction,
                          compute_E_s, compute_GH, energy_estimate_diagnostic,
                          error_fields, half_lattice_matrices, mann_kendall,
                          run_dirichlet_experiment, solve_oscillating,
                          summarize_records, unit_ring_error)
from cghom.norms import ring_dual_norm, spec_norms
from cghom.triadic import TriadicCube
from reference_impl import half_overlap_offsets, kkt_A


def test_affine_target():
    h = TargetFunction("affine", p=[2.0, -1.0], c=0.5)
    x = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert np.allclose(h.value(x), [0.5, 0.5])
    assert np.allclose(h.grad(x), [[2.0, -1.0]] * 2)
    avg = h.cell_avg_grad(1, 2)
    assert avg.shape == (3, 3, 2)
    assert np.allclose(avg, [2.0, -1.0])


def test_affine_target_is_exact_and_target_numbers_finite():
    # affine runs as the quadratic with H = 0: its value, gradient and cell
    # averages are still exactly p.x + c, p and p
    p, c = np.array([0.3, -1.7]), 0.25
    h = TargetFunction("affine", p=p.tolist(), c=c)
    x = np.random.default_rng(5).normal(size=(1000, 2))
    assert np.array_equal(h.value(x), x @ p + c)
    assert np.array_equal(h.grad(x), np.broadcast_to(p, x.shape))
    for level in range(4):
        assert np.array_equal(h.cell_avg_grad(level, 2),
                              np.broadcast_to(p, (3 ** level,) * 2 + (2,)))
    for family, params in (("affine", {"p": [np.nan, 0.0]}),
                           ("affine", {"p": [1.0, 0.0], "c": np.inf}),
                           ("quadratic", {"H": [[1.0, 0.0], [0.0, np.nan]]}),
                           ("quadratic", {"H": np.eye(2), "p": [-np.inf, 0.0]}),
                           ("trig", {"m": [1.0, 0.0], "amp": np.inf}),
                           ("trig", {"m": [np.nan, 0.0]})):
        with pytest.raises(ValueError, match="must be finite"):
            TargetFunction(family, **params)


def test_quadratic_target():
    H = np.array([[1.0, 0.5], [0.5, -2.0]])
    p = np.array([0.3, 0.0])
    h = TargetFunction("quadratic", H=H.tolist(), p=p.tolist())
    x = np.array([[0.2, 0.7]])
    assert np.isclose(h.value(x)[0], 0.5 * x[0] @ H @ x[0] + p @ x[0])
    assert np.allclose(h.grad(x), x @ H.T + p)
    # the gradient is affine, so cell averages are values at cell centers
    avg = h.cell_avg_grad(2, 2)
    eps = 3.0 ** -2
    for idx in [(0, 0), (4, 7), (8, 2)]:
        center = (np.array(idx) + 0.5) * eps
        assert np.allclose(avg[idx], H @ center + p)
    with pytest.raises(ValueError, match="symmetric"):
        TargetFunction("quadratic", H=[[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="unknown target"):
        TargetFunction("bump", width=1.0)
    # a key the family does not read is refused, and named
    with pytest.raises(ValueError, match=r"'affine' does not use \['H', 'm'\]"):
        TargetFunction("affine", p=[1.0, 0.0], H=[[1.0]], m=[1.0])
    with pytest.raises(ValueError, match=r"'trig' does not use \['p'\]"):
        TargetFunction("trig", m=[1.0, 0.0], p=[1.0, 0.0])


def test_trig_target_cell_averages_vs_quadrature():
    h = TargetFunction("trig", m=[1.0, 2.0], amp=0.7, phase=0.3)
    avg = h.cell_avg_grad(1, 2)
    eps = 1.0 / 3.0
    for (i, j) in [(0, 0), (1, 2), (2, 1)]:
        for ax in range(2):
            val, err = integrate.dblquad(
                lambda y, x: h.grad(np.array([[x, y]]))[0, ax],
                i * eps, (i + 1) * eps, j * eps, (j + 1) * eps)
            assert np.isclose(avg[i, j, ax], val / eps ** 2, atol=1e-9), (i, j, ax)


def test_experiment_validates_alpha():
    spec = FieldSpec(kind="constant", params={"matrix": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(ValueError, match="alpha"):
        HomExperiment(spec=spec, a_bar=np.eye(2),
                      h=TargetFunction("affine", p=[1.0, 0.0]), alpha=1.2)


def test_constant_field_affine_target_is_exact():
    a = np.array([[2.0, 0.4], [-0.4, 1.0]])
    field = gen_named_field("constant", level=2, matrix=a.tolist())
    h = TargetFunction("affine", p=[1.0, -0.5])
    op, u = solve_oscillating(field, a, h)
    g_err, f_err = error_fields(op, u, a, h)
    assert np.abs(g_err).max() < 1e-11
    assert np.abs(f_err).max() < 1e-11
    assert unit_ring_error(g_err, 0.6, 2) < 1e-11


def test_constant_field_quadratic_target_is_exact():
    # constant coefficients: the discrete solution of the compensated
    # problem is the nodal interpolant of the rescaled target
    field = gen_named_field("constant", level=2, matrix=np.eye(2).tolist())
    h = TargetFunction("quadratic", H=[[0.0, 1.0], [1.0, 0.0]], p=[1.0, 0.5])
    op, u = solve_oscillating(field, np.eye(2), h)
    eps = 3.0 ** -2
    interp = h.value(solver.node_coordinates(op) * eps) / eps
    assert np.abs(u - interp).max() < 1e-10
    g_err, f_err = error_fields(op, u, np.eye(2), h)
    assert np.abs(g_err).max() < 1e-10
    assert np.abs(f_err).max() < 1e-10


def test_unit_ring_error_matches_shifted_scale_origin():
    rng = np.random.default_rng(0)
    err = rng.normal(size=(9, 9, 2))
    alpha = 0.55
    direct = unit_ring_error(err, alpha, 2)
    shifted = ring_dual_norm(err, alpha, dim=2, scale_origin=2)
    assert np.isclose(direct, shifted, rtol=1e-12)


def test_run_experiment_populates_functionals():
    spec = FieldSpec(kind="laminate",
                     params={"a1": 1.0, "a2": 4.0, "phase": "random"})
    A_bar = estimate_Abar(spec, 1, 4, seed=0).A_bar
    exp = HomExperiment(spec=spec, a_bar=np.diag([1.6, 2.5]),
                        h=TargetFunction("affine", p=[1.0, 0.0]), alpha=0.6,
                        n_min=1, n_max=2, A_bar=A_bar)
    recs = run_dirichlet_experiment(exp, seed=3, with_E=True, with_GH=True)
    assert [r.n for r in recs] == [1, 2]
    for r in recs:
        assert not r.failed
        assert np.isfinite(r.grad_err) and r.grad_err >= 0
        assert np.isfinite(r.flux_err) and np.isfinite(r.energy)
        assert np.isfinite(r.E_alpha) and np.isfinite(r.G_alpha)
        assert np.isfinite(r.H_alpha)
        assert 0.0 <= r.residual < 1e-12


def test_run_experiment_records_failures():
    spec = FieldSpec(kind="constant",
                     params={"matrix": [[0.0, 0.0], [0.0, 0.0]]})
    exp = HomExperiment(spec=spec, a_bar=np.eye(2),
                        h=TargetFunction("affine", p=[1.0, 0.0]), alpha=0.5,
                        n_min=1, n_max=2)
    recs = run_dirichlet_experiment(exp, seed=0)
    assert all(r.failed for r in recs)
    assert all(np.isnan(r.grad_err) for r in recs)


def test_run_experiment_rejects_functionals_without_A_bar():
    exp = HomExperiment(spec=FieldSpec(kind="constant"), a_bar=np.eye(2),
                        h=TargetFunction("affine", p=[1.0, 0.0]), alpha=0.5)
    for flags in ({"with_E": True}, {"with_GH": True}):
        with pytest.raises(ValueError, match="A_bar"):
            run_dirichlet_experiment(exp, seed=0, **flags)


@pytest.mark.parametrize("error", [solver.SolverError, TypeError])
def test_run_experiment_records_only_numerical_failures(monkeypatch, error):
    def failing(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr("cghom.homexp.solve_oscillating", failing)
    exp = HomExperiment(spec=FieldSpec(kind="constant"), a_bar=np.eye(2),
                        h=TargetFunction("affine", p=[1.0, 0.0]), alpha=0.5,
                        n_min=1, n_max=1)
    if error is TypeError:          # a programming error is not a result
        with pytest.raises(TypeError, match="forced"):
            run_dirichlet_experiment(exp, seed=0)
    else:
        assert [r.failed for r in run_dirichlet_experiment(exp, seed=0)] == [True]


def test_mann_kendall_frozen_values():
    assert mann_kendall([1.0, 2.0, 3.0]) == 3
    assert mann_kendall([3.0, 2.0, 1.0]) == -3
    assert mann_kendall([1.0, 1.0, 1.0]) == 0
    assert mann_kendall([2.0, 1.0, 3.0]) == 1


def test_summarize_records_medians_and_trends():
    def rec(n, seed, g, f, failed=False):
        return ErrorRecord(n=n, seed=seed, grad_err=g, flux_err=f,
                           energy=1.0, failed=failed)

    per_seed = [
        [rec(1, 0, 1.0, 2.0), rec(2, 0, 0.5, 1.0), rec(3, 0, 0.25, 0.5)],
        [rec(1, 1, 1.2, 2.2), rec(2, 1, 0.7, 1.2), rec(3, 1, 0.2, 0.4),
         rec(3, 1, float("nan"), float("nan"), failed=True)],
    ]
    out = summarize_records(per_seed)
    assert out["n"] == [1, 2, 3]
    assert np.allclose(out["median_grad_err"], [1.1, 0.6, 0.225])
    assert out["mk_grad"] == -3 and out["mk_flux"] == -3
    assert np.isclose(out["grad_final_over_initial"], 0.225 / 1.1)
    assert out["failures"] == 1


def test_summarize_records_gives_no_ratio_over_a_round_off_initial_error():
    # a cascade_iso level-1 window is constant, so its n = 1 grad error is 7e-17
    per_seed = [[ErrorRecord(n=n, seed=0, grad_err=g, flux_err=f, energy=1.0)
                 for n, g, f in ((1, 7e-17, 0.25), (2, 0.037, 0.125))]]
    out = summarize_records(per_seed)
    assert out["grad_final_over_initial"] is None
    assert out["flux_final_over_initial"] == 0.125 / 0.25


def test_compute_E_s_zero_for_matched_constant():
    field = gen_named_field("constant", level=2, matrix=np.eye(2).tolist())
    cache = hierarchy_sweep(field, check=False)
    A_bar = pointwise_A(np.eye(2), np.zeros((2, 2)))
    assert compute_E_s(cache, A_bar, 0.6) == 0.0


def test_compute_E_s_matches_explicit_scale_sum():
    field = gen_named_field("checkerboard", level=2, seed=5, low=0.5, high=3.0)
    cache = hierarchy_sweep(field, check=False)
    A_bar = cache.A_by_scale[2][0, 0]
    s = 0.45
    want = sum(3.0 ** (2 * s * (k - 2))
               * float(spec_norms(cache.A_by_scale[k] - A_bar).max())
               for k in (0, 1, 2))
    assert np.isclose(compute_E_s(cache, A_bar, s), want, rtol=1e-12)


def test_half_lattice_count_and_GH_properties():
    field = gen_named_field("lognormal_iso", level=2, seed=6, sigma=0.3)
    mats = half_lattice_matrices(field, 1)
    assert mats.shape == (49, 4, 4)
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="outside"):
            half_lattice_matrices(field, bad)
    const = gen_named_field("constant", level=2, matrix=np.eye(2).tolist())
    A0 = pointwise_A(np.eye(2), np.zeros((2, 2)))
    G, H = compute_GH(const, A0, A0, np.eye(2), 0.6, 2)
    assert G == 0.0 and H == 0.0
    # the window is the one scale-n cube of its lattice: with l = 1, G is 0
    # and H is |A_top - A_bar|^2, read off the window's own matrix
    A_top = hierarchy_sweep(field, check=False).A_by_scale[2][0, 0]
    G1, H1 = compute_GH(field, A_top, A0, np.eye(2), 0.6, 1)
    assert G1 == 0.0 and H1 == float(spec_norms(A_top - A0)) ** 2
    # the prefactor enters through its squared spectral norm; with l = 2 the
    # scale-1 lattice makes G positive
    G1, H1 = compute_GH(field, A_top, A0, np.eye(2), 0.6, 2)
    G2, H2 = compute_GH(field, A_top, A0, 2.0 * np.eye(2), 0.6, 2)
    assert G1 > 0.0 and H1 > 0.0
    assert np.isclose(G2, 4.0 * G1) and np.isclose(H2, 4.0 * H1)
    with pytest.raises(ValueError, match="l must"):
        compute_GH(field, A0, A0, np.eye(2), 0.6, 0)
    with pytest.raises(ValueError, match="l must"):
        compute_GH(field, A0, A0, np.eye(2), 0.6, 3)


def test_half_lattice_matches_kkt_oracle():
    field = gen_named_field("skew_lognormal", level=3, seed=8, sigma=0.6,
                            kappa=0.7)
    for k in (1, 2, 3):
        mats = half_lattice_matrices(field, k)
        offsets = half_overlap_offsets(field.cells_per_axis, k, 2)
        assert len(mats) == len(offsets)
        for A, rel in zip(mats, offsets):
            off = tuple(z + r for z, r in zip(field.domain.offset, rel))
            cube = TriadicCube(level=k, offset=off, dim=2)
            want = kkt_A(solver.assemble(field, cube))
            assert (np.abs(A - want).max()
                    <= 1e-10 * max(1.0, np.linalg.norm(want, 2))), cube
    # a constant block on the half lattice takes the closed form exactly
    s, k = field.s_cells.copy(), field.k_cells.copy()
    s[2:5, 4:7], k[2:5, 4:7] = s[0, 0], k[0, 0]
    field = replace(field, s_cells=s, k_cells=k)
    exact = pointwise_A(field.s_cells[0, 0], field.k_cells[0, 0])
    assert np.array_equal(half_lattice_matrices(field, 1)[2 * 25 + 4], exact)


def test_energy_diagnostic_keys_and_cache_reuse(monkeypatch):
    field = gen_named_field("skew_lognormal", level=2, seed=7, sigma=0.4,
                            kappa=0.5)
    h = TargetFunction("quadratic", H=[[0.0, 1.0], [1.0, 0.0]], p=[1.0, 0.0])
    m = 9
    X, Y = np.meshgrid(np.arange(m) + 0.5, np.arange(m) + 0.5, indexing="ij")
    f_cells = np.stack([np.sin(2 * np.pi * X / m), np.cos(2 * np.pi * Y / m)],
                       axis=-1)
    ops, assemble = [], solver.assemble

    def recorded(*args, **kw):
        ops.append(assemble(*args, **kw))
        return ops[-1]

    monkeypatch.setattr(solver, "assemble", recorded)
    out = energy_estimate_diagnostic(field, s=0.4, h=h, f_cells=f_cells)
    # its one operator is factored once per problem
    [op] = ops
    assert sorted(op._lu) == ["dirichlet", "neumann"]
    assert set(out) == {"lambda_s", "Lambda_t", "dirichlet_ratio",
                        "neumann_ratio"}
    assert out["dirichlet_ratio"] > 0 and np.isfinite(out["dirichlet_ratio"])
    assert out["neumann_ratio"] > 0 and np.isfinite(out["neumann_ratio"])
    only_h = energy_estimate_diagnostic(field, s=0.4, h=h)
    assert "neumann_ratio" not in only_h


def test_write_records_csv(tmp_path):
    # cghom homogenize writes one CSV row per (seed, scale) record, floats by repr
    assert cli.main(["homogenize", "--output-dir", str(tmp_path),
                     "--set", "field.kind=laminate", "--set", "homexp.n_max=1",
                     "--set", "homexp.seeds=1",
                     "--set", "homexp.a_bar=[[1.6, 0.0], [0.0, 2.5]]"]) == 0
    exp = HomExperiment(spec=FieldSpec("laminate", 2, {}), a_bar=np.diag([1.6, 2.5]),
                        h=TargetFunction("affine", p=[1.0, 0.0]), alpha=0.6,
                        n_min=1, n_max=1)
    rec, = run_dirichlet_experiment(exp, seed=0)
    path, = tmp_path.glob("homog_*.csv")
    header, row = path.read_text().strip().splitlines()
    assert header == ("family,seed,n,grad_err,flux_err,energy,E_alpha,G_alpha,"
                      "H_alpha,failed,config_sha256")
    row = row.split(",")
    assert row[:3] == ["laminate/affine", "0", "1"] and row[9] == "0"
    np.testing.assert_array_equal(
        [float(v) for v in row[3:9]],
        [rec.grad_err, rec.flux_err, rec.energy, rec.E_alpha, rec.G_alpha, rec.H_alpha])
    assert path.name == f"homog_{row[-1][:10]}.csv"
