"""Acceptance gates for the whole package, one test per gate.

Groups (prefix = gate family):
  c1  exact identities of the coarse-graining functional (tolerances 1e-8..1e-10)
  c2  Loewner order / inequality suites over >= 100 random fields
  c3  oracle equivalence against dense nullspace / nested-loop recomputations
  c4  homogenized-matrix oracles (laminate formula, 2D duality, mean bounds)
  c5  ensemble trends across scales (statistical gates, >= 200 samples)
  c6  homogenization error decay and the zero-oscillation control
  c7  multiplicative-cascade statistics
  c8  energy-estimate boundedness across an ensemble

The statistical gates use frozen seeds; the ensembles take a few minutes,
so the expensive sweeps are shared through module-scoped fixtures.
"""
import numpy as np
import pytest

from cghom.coarsegrain import (blocks_from_A, coarse_grain_cube,
                               hierarchy_sweep, loewner_chain,
                               pointwise_bounds, verify_adjoint,
                               verify_centering, verify_constant_field,
                               verify_maximizer_averages,
                               verify_quadratic_response)
from cghom.ergodic import (FieldSpec, check_monotone, derive_blocks,
                           estimate_Abar, gap_diagnostic, homogenized_matrix)
from cghom.fields import gen_named_field, layer_moment_check, product_slope_check
from cghom.homexp import (HomExperiment, TargetFunction, bnorm_trend_check,
                          compute_E_s, compute_GH, energy_estimate_diagnostic,
                          run_dirichlet_experiment, summarize_records)
from cghom.norms import bnorm, ellipticity_constants, ring_dual_norm
from cghom.solver import (assemble, partition_traces, solve_dirichlet,
                          trace_loads, worker_map)
from cghom.triadic import TriadicCube
from reference_impl import (bnorm_loops, brute_force_J, center_skew_transform,
                            ellipticity_loops, nodal_functionals,
                            ring_norm_loops, verify_cg_inequalities)

WORKERS = 4

DUALITY = FieldSpec(kind="checkerboard", dim=2,
                    params={"low": 0.75, "high": 4.0 / 3.0})
LAMINATE = FieldSpec(kind="laminate", dim=2,
                     params={"a1": 1.0, "a2": 4.0, "phase": "random"})
SKEWED = FieldSpec(kind="skew_lognormal", dim=2,
                   params={"sigma": 0.4, "kappa": 0.6})

RANDOM_KINDS = ("checkerboard", "lognormal_iso", "skew_lognormal", "cascade_iso")


def _random_field(i, level=1):
    return gen_named_field(RANDOM_KINDS[i % len(RANDOM_KINDS)], level=level,
                           seed=1000 + i)


def _trace_maximizers(field, pairs):
    """J of each (p, q) on the whole window and its maximizer's boundary
    values (node 0 pinned to zero), from the unit-load maximizers V of the
    top trace: the maximizer of (p, q) is V xi, xi = (-p, q)."""
    top = partition_traces(field, field.level)
    at = (0,) * field.dim
    X = np.stack([np.concatenate([-p, q]) for p, q in pairs], axis=1)
    W = np.zeros((top.L.shape[-1], len(pairs)))
    W[1:] = trace_loads(top)[0][at] @ X
    J = (np.einsum("ic,ic->c", X, top.L[at] @ W)
         - 0.5 * np.einsum("ic,ic->c", W, top.Q[at] @ W)) / top.vol
    return J, W


def _basis_pairs(rng, d=2, extra=5):
    eye = np.eye(d)
    pairs = [(eye[i], np.zeros(d)) for i in range(d)]
    pairs += [(np.zeros(d), eye[i]) for i in range(d)]
    pairs += [(eye[0], eye[1])]
    pairs += [(rng.normal(size=d), rng.normal(size=d)) for _ in range(extra)]
    return pairs


# ---------------------------------------------------------------------------
# shared ensembles (module scope: computed once, minutes total)


@pytest.fixture(scope="module")
def duality_sweep():
    """Scale sweep n=1..4 of the self-dual checkerboard, 200 draws each."""
    with worker_map(WORKERS) as pmap:
        return [estimate_Abar(DUALITY, n, 200, seed=0, pmap=pmap,
                              keep_samples=True) for n in range(1, 5)]


@pytest.fixture(scope="module")
def laminate_estimate():
    with worker_map(WORKERS) as pmap:
        return estimate_Abar(LAMINATE, 4, 16, seed=0, pmap=pmap)


@pytest.fixture(scope="module")
def skew_sweep():
    with worker_map(WORKERS) as pmap:
        return [estimate_Abar(SKEWED, n, 200, seed=0, pmap=pmap)
                for n in range(1, 4)]


@pytest.fixture(scope="module")
def deviation_ensembles(duality_sweep):
    """Per-scale samples of the three scale-weighted deviation functionals."""
    A_bar = duality_sweep[-1].A_bar
    s_star_bar, k_bar, _, _ = blocks_from_A(A_bar, 2)
    prefactor = s_star_bar - k_bar
    out = {"E": {}, "G": {}, "H": {}}
    for n in (1, 2, 3):
        E, G, H = [], [], []
        for i in range(200):
            field = DUALITY.realize(n, 77000 + i)
            cache = hierarchy_sweep(field, check=False)
            E.append(compute_E_s(cache, A_bar, 0.6))
            A_top = cache.A_by_scale[n][(0, 0)]
            g, h = compute_GH(field, A_top, A_bar, prefactor, 0.6, min(2, n))
            G.append(g)
            H.append(h)
        out["E"][n] = np.array(E)
        out["G"][n] = np.array(G)
        out["H"][n] = np.array(H)
    return out


@pytest.fixture(scope="module")
def laminate_runs():
    exp = HomExperiment(spec=LAMINATE, a_bar=np.diag([1.6, 2.5]),
                        h=TargetFunction("affine", p=[1.0, 0.0]),
                        alpha=0.6, n_min=1, n_max=4)
    return summarize_records([run_dirichlet_experiment(exp, seed=s)
                              for s in range(20)])


@pytest.fixture(scope="module")
def checkerboard_runs():
    exp = HomExperiment(spec=DUALITY, a_bar=np.eye(2),
                        h=TargetFunction("quadratic", H=[[0.0, 1.0], [1.0, 0.0]]),
                        alpha=0.6, n_min=1, n_max=4)
    return summarize_records([run_dirichlet_experiment(exp, seed=s)
                              for s in range(20)])


# ---------------------------------------------------------------------------
# c1: exact identities


def test_c1_constant_field_closed_form_via_solver():
    rng = np.random.default_rng(11)
    pairs = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(10)]
    res = verify_constant_field(2.5, 2, pairs)
    assert res["A"] < 1e-9
    assert np.abs(res["J"]).max() < 1e-9
    assert np.abs(res["J_from_A"]).max() < 1e-9


def test_c1_energy_identity_at_every_maximizer():
    rng = np.random.default_rng(21)
    fields = [gen_named_field(kind, level=1, seed=300 + j)
              for j, kind in enumerate(RANDOM_KINDS)]
    fields.append(gen_named_field("constant", level=1,
                                  matrix=[[2.0, 0.5], [-0.5, 1.5]]))
    for field in fields:
        op = assemble(field)
        S = nodal_functionals(op)[0]
        pairs = _basis_pairs(rng)
        Jvals, W = _trace_maximizers(field, pairs)
        for c, J in enumerate(Jvals):
            # the energy of the maximizer's nodal a-harmonic extension
            v = solve_dirichlet(op, W[:, c])
            energy = 0.5 * v @ (S @ v) / op.vol
            assert abs(J - energy) <= 1e-9 * max(1.0, abs(J))


def test_c1_maximizer_average_identities():
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(50):
        field = gen_named_field(RANDOM_KINDS[i % 4], level=2, seed=400 + i)
        if i % 3 == 0:
            cube = field.domain
        else:
            off = tuple(3 * int(t) for t in rng.integers(0, 3, size=2))
            cube = TriadicCube(level=1, offset=off, dim=2)
        pair = (rng.normal(size=2), rng.normal(size=2))
        res = verify_maximizer_averages(field, cube, pairs=[pair])
        worst = max(worst, res["gradient_avg"], res["flux_avg"])
    assert worst < 1e-8


def test_c1_quadratic_response_equality():
    rng = np.random.default_rng(41)
    for i in range(10):
        field = gen_named_field(RANDOM_KINDS[i % 4], level=1, seed=500 + i)
        res = verify_quadratic_response(field, p=rng.normal(size=2),
                                        q=rng.normal(size=2), n_trials=20,
                                        rng=rng)
        assert res < 1e-9


def test_c1_adjoint_negates_coupling_block():
    rng = np.random.default_rng(51)
    for i in range(20):
        field = gen_named_field(RANDOM_KINDS[i % 4], level=1, seed=600 + i)
        res = verify_adjoint(field, pairs=[(rng.normal(size=2), rng.normal(size=2))])
        assert max(res["A"], res["k"], res["s"], res["s_star"]) < 1e-8
        assert res["J"] < 1e-10


def test_c1_centering_equivariance():
    rng = np.random.default_rng(61)
    for i in range(20):
        field = gen_named_field("skew_lognormal", level=1, seed=700 + i)
        c = rng.normal()
        h = np.array([[0.0, c], [-c, 0.0]])
        res = verify_centering(field, h)
        assert max(res.values()) < 1e-8
        # self-centering leaves a symmetric coupling block
        A_c, _ = center_skew_transform(coarse_grain_cube(field).A, 2)
        _, k_c, _, _ = blocks_from_A(A_c, 2)
        assert np.abs(k_c - k_c.T).max() < 1e-10


# ---------------------------------------------------------------------------
# c2: order / inequality suites over >= 100 random fields


@pytest.fixture(scope="module")
def suite_fields():
    return [_random_field(i) for i in range(100)]


def test_c2_loewner_ordering_chain(suite_fields):
    worst = np.inf
    for field in suite_fields:
        cg = coarse_grain_cube(field)
        res = loewner_chain(cg.s_star, cg.s, cg.b, *pointwise_bounds(field))
        worst = min(worst, min(res.values()))
    assert worst >= -1e-8


def test_c2_harmonic_comparison_inequalities(suite_fields):
    rng = np.random.default_rng(71)
    worst_slack = np.inf
    worst_eq = 0.0
    for field in suite_fields:
        res = verify_cg_inequalities(field, p=rng.normal(size=2),
                                     q=rng.normal(size=2), n_trials=20,
                                     rng=rng)
        worst_slack = min(worst_slack, res["dual_lower"], res["flux_upper"],
                          res["cauchy_schwarz"])
        worst_eq = max(worst_eq, res["maximizer_equality"])
    assert worst_slack >= -1e-8
    assert worst_eq < 1e-8


def test_c2_partition_subadditivity(suite_fields):
    worst = np.inf
    for field in suite_fields:
        worst = min(worst, hierarchy_sweep(field, check=False)
                    .subadditivity_defect())
    for i in range(8):  # deeper three-scale hierarchies
        cache = hierarchy_sweep(_random_field(i, level=2), check=False)
        worst = min(worst, cache.subadditivity_defect())
    assert worst >= -1e-8


def test_c2_two_sided_sandwich(suite_fields):
    worst = np.inf
    for field in suite_fields:
        res = hierarchy_sweep(field, check=False).sandwich_defect()
        worst = min(worst, res["upper"], res["lower"])
    assert worst >= -1e-8


# ---------------------------------------------------------------------------
# c3: oracle equivalence


def test_c3_kkt_matches_dense_brute_force():
    rng = np.random.default_rng(81)
    for i in range(10):
        field = gen_named_field(RANDOM_KINDS[i % 4], level=1, seed=900 + i)
        op = assemble(field)
        pairs = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(3)]
        Jvals, _ = _trace_maximizers(field, pairs)
        for J, (p, q) in zip(Jvals, pairs):
            assert abs(J - brute_force_J(op, p, q)) < 1e-9


def test_c3_norms_match_nested_loops():
    rng = np.random.default_rng(91)
    scalar = rng.normal(size=(9, 9))
    matrix = rng.normal(size=(9, 9, 2, 2))
    for values in (scalar, matrix):
        for t in (0.4, 0.9):
            assert abs(bnorm(values, t, tail=True)
                       - bnorm_loops(values, t, 2, tail=True)) < 1e-9
        for s in (0.3, 0.6):
            assert abs(ring_dual_norm(values, s)
                       - ring_norm_loops(values, s, 2)) < 1e-9
        assert abs(ring_dual_norm(values, 0.6, tail=True, scale_origin=2)
                   - ring_norm_loops(values, 0.6, 2, tail=True,
                                     scale_origin=2)) < 1e-9
    cache = hierarchy_sweep(gen_named_field("skew_lognormal", level=2, seed=13))
    got = ellipticity_constants(cache, 0.4, 0.4)
    lam_want, Lam_want = ellipticity_loops(cache, 0.4, 0.4)
    assert abs(got.lambda_s - lam_want) < 1e-9
    assert abs(got.Lambda_t - Lam_want) < 1e-9


# ---------------------------------------------------------------------------
# c4: homogenized-matrix oracles


def test_c4_laminate_matches_classical_formula(laminate_estimate):
    a1, a2 = 1.0, 4.0
    want = np.diag([2.0 * a1 * a2 / (a1 + a2), 0.5 * (a1 + a2)])
    s_bar = laminate_estimate.s_bar
    rel = np.abs(np.diag(s_bar) - np.diag(want)) / np.diag(want)
    assert rel.max() < 0.02
    assert abs(s_bar[0, 1]) < 0.02 and abs(s_bar[1, 0]) < 0.02


def test_c4_duality_checkerboard_near_identity(duality_sweep):
    est = duality_sweep[-1]
    assert est.samples >= 200 and est.n == 4
    a_bar = est.s_bar + est.k_bar
    assert np.abs(a_bar - np.eye(2)).max() < 0.02


def test_c4_mean_bounds_within_three_se(duality_sweep, laminate_estimate,
                                        skew_sweep):
    # raises if any harmonic-mean / ordering / pointwise-mean bound breaks
    for family, estimates in (("duality", duality_sweep),
                              ("laminate", [laminate_estimate]),
                              ("skew", skew_sweep)):
        hom = homogenized_matrix(estimates, factor=3.0)
        sym = 0.5 * (hom.a_bar + hom.a_bar.T)
        assert np.linalg.eigvalsh(sym).min() > 0, family


# ---------------------------------------------------------------------------
# c5: ensemble trends across scales


def test_c5_mean_matrix_loewner_decreasing(duality_sweep, skew_sweep):
    assert check_monotone(duality_sweep, factor=3.0)["ok"]
    assert check_monotone(skew_sweep, factor=3.0)["ok"]


def test_c5_gap_trace_strictly_decreasing(duality_sweep):
    diag = gap_diagnostic(duality_sweep)
    traces = diag["gap_traces"]
    assert diag["decreasing"]
    assert diag["identity_residual"] < 1e-10
    # bootstrap the trace of each mean gap to separate the drops from noise
    rng = np.random.default_rng(1234)
    ses = []
    for est in duality_sweep:
        count = est.A_samples.shape[0]
        idx = rng.integers(0, count, size=(200, count))
        boot = est.A_samples[idx].mean(axis=1)
        tr = [float(np.trace(derive_blocks(A, 2)["gap"])) for A in boot]
        ses.append(float(np.std(tr, ddof=1)))
    for i in range(len(traces) - 1):
        drop = traces[i] - traces[i + 1]
        assert drop > 3.0 * float(np.hypot(ses[i], ses[i + 1])), i


def test_c5_symmetric_coupling_sandwich(duality_sweep, skew_sweep):
    for estimates in (duality_sweep, skew_sweep):
        diag = gap_diagnostic(estimates)
        for est, entry in zip(estimates, diag["sym_k_sandwich"]):
            tol = 3.0 * float(np.linalg.norm(est.A_se))
            assert entry["upper_slack"] >= -tol, entry
            assert entry["lower_slack"] >= -tol, entry


def test_c5_deviation_functionals_decreasing(deviation_ensembles):
    for name, start in (("E", 1), ("G", 2), ("H", 1)):
        samples = deviation_ensembles[name]
        means = {n: float(s.mean()) for n, s in samples.items()}
        ses = {n: float(s.std(ddof=1) / np.sqrt(s.size))
               for n, s in samples.items()}
        for n in range(start, 3):
            drop = means[n] - means[n + 1]
            assert drop > 3.0 * float(np.hypot(ses[n], ses[n + 1])), (name, n)
    # the half-overlap window average at the top scale is the top matrix
    assert np.abs(deviation_ensembles["G"][1]).max() < 1e-12


# ---------------------------------------------------------------------------
# c6: homogenization error decay


def _assert_error_decay(summary):
    assert summary["failures"] == 0
    assert summary["n"] == [1, 2, 3, 4]
    assert summary["mk_grad"] < 0
    assert summary["mk_flux"] < 0
    assert summary["grad_final_over_initial"] < 0.5
    assert summary["flux_final_over_initial"] < 0.5


def test_c6_laminate_error_decay(laminate_runs):
    _assert_error_decay(laminate_runs)


def test_c6_checkerboard_error_decay(checkerboard_runs):
    _assert_error_decay(checkerboard_runs)


def test_c6_zero_oscillation_control():
    exp = HomExperiment(spec=FieldSpec(kind="constant", dim=2, params={}),
                        a_bar=np.eye(2),
                        h=TargetFunction("quadratic", H=[[0.0, 1.0], [1.0, 0.0]]),
                        alpha=0.6, n_min=1, n_max=2)
    for rec in run_dirichlet_experiment(exp, seed=0):
        assert not rec.failed
        assert rec.grad_err <= 1e-10
        assert rec.flux_err <= 1e-10


# ---------------------------------------------------------------------------
# c7: cascade statistics


def test_c7_cascade_factor_moments():
    rows = layer_moment_check([0.25, 0.5], [1, 2, 3], 200000, seed=0)
    assert len(rows) == 6
    assert max(row["z"] for row in rows) <= 4.0


def test_c7_cascade_product_log_slope():
    res = product_slope_check(0.25, 2, 3, 200, seed0=0)
    assert res["rel_err"] <= 0.10


def test_c7_cascade_norm_trend_contrast():
    bounded = bnorm_trend_check(0.3, 0.9, [2, 3, 4, 5], 12, seed0=0)
    assert bounded["trend"] <= 0
    growing = bnorm_trend_check(0.9, 0.2, [2, 3, 4, 5], 12, seed0=0)
    assert growing["trend"] > 0
    assert growing["final_over_initial"] > 1.0


# ---------------------------------------------------------------------------
# c8: energy-estimate boundedness


def test_c8_energy_ratio_bounded_across_ensemble():
    target = TargetFunction("quadratic", H=[[0.0, 1.0], [1.0, 0.0]],
                            p=[1.0, 0.5])
    centers = (np.indices((9, 9)).transpose(1, 2, 0) + 0.5) / 9.0
    f_cells = np.stack([np.sin(2 * np.pi * centers[..., 0]),
                        np.cos(2 * np.pi * centers[..., 1])], axis=-1)
    dirichlet, neumann = [], []
    for i in range(50):
        field = gen_named_field("skew_lognormal", level=2, seed=9000 + i,
                                sigma=0.5, kappa=0.5)
        out = energy_estimate_diagnostic(field, s=0.4, h=target,
                                         f_cells=f_cells)
        dirichlet.append(out["dirichlet_ratio"])
        neumann.append(out["neumann_ratio"])
    for ratios in (np.array(dirichlet), np.array(neumann)):
        assert np.isfinite(ratios).all()
        assert ratios.max() / np.median(ratios) < 20.0
