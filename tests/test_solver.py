"""Assembly and solve layer: element integrals, boundary problems, averages."""
import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from cghom import solver
from cghom.fields import gen_named_field
from cghom.solver import (DegenerateCellError, assemble, cell_flux_averages,
                          cell_gradient_averages, energy_seminorm_sq, flux_rhs,
                          node_coordinates, partition_traces,
                          quadrature_flux_rhs, reference_tensors,
                          solve_dirichlet, solve_neumann, trace_loads)
from cghom.triadic import TriadicCube
from reference_impl import (default_order_dirichlet, default_order_neumann,
                            loop_assembly, nodal_functionals)


def _sympy_reference(dim):
    """Recompute the unit-element integrals symbolically and exactly.

    Every integrand is a polynomial, so each monomial integrates over the
    unit cube as a product of  int_0^1 x^k dx = 1/(k+1).
    """
    import sympy as sym

    xs = sym.symbols(f"x0:{dim}")
    locs = list(itertools.product((0, 1), repeat=dim))
    phis = []
    for loc in locs:
        phi = sym.Poly(1, *xs)
        for ax in range(dim):
            phi *= sym.Poly(xs[ax] if loc[ax] == 1 else 1 - xs[ax], *xs)
        phis.append(phi)

    def integrate(poly):
        return float(sum(coeff * sym.prod(sym.Rational(1, k + 1) for k in monom)
                         for monom, coeff in poly.terms()))

    n = len(locs)
    EK = np.zeros((dim, dim, n, n))
    EG = np.zeros((dim, n))
    for i in range(n):
        for a in range(dim):
            EG[a, i] = integrate(phis[i].diff(xs[a]))
            for j in range(n):
                for b in range(dim):
                    EK[a, b, i, j] = integrate(
                        phis[i].diff(xs[a]) * phis[j].diff(xs[b]))
    return EK, EG


@pytest.mark.parametrize("dim", [2, 3])
def test_reference_tensors_match_symbolic_integrals(dim):
    _, EK, EG = reference_tensors(dim)
    sEK, sEG = _sympy_reference(dim)
    assert np.allclose(EK, sEK, atol=1e-14)
    assert np.allclose(EG, sEG, atol=1e-14)


def test_isotropic_element_stiffness_frozen():
    # classic Q1 Laplace element: 2/3 diagonal, -1/6 edges, -1/3 across
    # (node order (0,0), (0,1), (1,0), (1,1))
    _, EK, _ = reference_tensors(2)
    K = EK[0, 0] + EK[1, 1]
    want = np.array([[4, -1, -1, -2],
                     [-1, 4, -2, -1],
                     [-1, -2, 4, -1],
                     [-2, -1, -1, 4]]) / 6.0
    assert np.allclose(K, want)


def _loop_assembly(field, op):
    """(K, S, G, B, mass) of the field's window, element by element."""
    s_elems = field.s_cells
    for ax in range(field.dim):
        s_elems = np.repeat(s_elems, op.resolution, axis=ax)
    return loop_assembly(op.a_elems, s_elems.reshape(op.a_elems.shape),
                         reference_tensors(field.dim), op.elements_per_axis, op.h)


def _nodal_cases(field):
    """The field at resolution 1, then a skew lognormal 2D level-2 field, a
    3D level-1 field and a 2D level-1 field at resolution 2."""
    yield field, 1
    yield gen_named_field("skew_lognormal", level=2, seed=24, sigma=0.7, kappa=0.8), 1
    yield gen_named_field("skew_lognormal", level=1, dim=3, seed=25, sigma=0.5,
                          kappa=0.6), 1
    yield gen_named_field("skew_lognormal", level=1, seed=26, sigma=0.5, kappa=0.6), 2


def test_stiffness_rows_sum_to_zero():
    field = gen_named_field("skew_lognormal", level=1, seed=5, sigma=0.5,
                            kappa=0.7)
    op = assemble(field)
    ones = np.ones(op.N)
    assert np.abs(op.K @ ones).max() < 1e-12
    assert np.abs(op.K.T @ ones).max() < 1e-12


def test_skew_part_contributes_antisymmetrically():
    field = gen_named_field("skew_lognormal", level=1, seed=6, sigma=0.4,
                            kappa=0.9)
    op = assemble(field)
    S = _loop_assembly(field, op)[1]            # assembled from s alone
    N = (op.K - S).toarray()
    assert np.abs(N + N.T).max() < 1e-12
    assert np.abs((S - S.T).toarray()).max() < 1e-12
    assert np.linalg.eigvalsh(S.toarray()).min() > -1e-12


def test_assembly_rejects_degenerate_cells():
    # a field is checked when it is built, so assembly never sees a bad cell
    field = gen_named_field("constant", level=1, matrix=np.eye(2).tolist())
    with pytest.raises(DegenerateCellError, match="not positive definite"):
        replace(field, s_cells=np.zeros_like(field.s_cells))
    s = field.s_cells.copy()
    s[0, 0] = np.diag([1.0, 1e15])
    with pytest.raises(DegenerateCellError, match="exceeds cap"):
        replace(field, s_cells=s)


def test_dirichlet_solve_matches_dense_reference():
    field = gen_named_field("skew_lognormal", level=1, seed=7, sigma=0.6,
                            kappa=0.5)
    op = assemble(field)
    rng = np.random.default_rng(3)
    g = rng.normal(size=len(op.boundary))
    u = solve_dirichlet(op, g)
    # independent dense elimination of the same linear system
    K = op.K.toarray()
    uref = np.zeros(op.N)
    uref[op.boundary] = g
    ii, bb = op.interior, op.boundary
    uref[ii] = np.linalg.solve(K[np.ix_(ii, ii)], -K[np.ix_(ii, bb)] @ g)
    assert np.abs(u - uref).max() < 1e-10


def test_affine_data_is_reproduced_exactly():
    # affine functions are in the Q1 space and a-harmonic for constant a
    field = gen_named_field("constant", level=1,
                            matrix=[[2.0, 0.5], [-0.5, 1.0]])
    op = assemble(field)
    x = node_coordinates(op)
    exact = x @ np.array([0.7, -0.3]) + 2.0
    u = solve_dirichlet(op, exact[op.boundary])
    assert np.abs(u - exact).max() < 1e-12
    g = cell_gradient_averages(op, u)
    assert np.allclose(g, [0.7, -0.3], atol=1e-12)
    f = cell_flux_averages(op, u)
    want = np.array([[2.0, 0.5], [-0.5, 1.0]]) @ [0.7, -0.3]
    assert np.allclose(f, want, atol=1e-12)


def test_laminate_reduces_to_series_resistors():
    # a field varying along x only behaves as resistors in series: the
    # profile with unit flux has slope 1/a_c inside column c
    field = gen_named_field("laminate", level=1, a1=1.0, a2=4.0, phase=0)
    op = assemble(field)
    cols = np.array([1.0, 4.0, 1.0])
    knots = np.concatenate([[0.0], np.cumsum(1.0 / cols)])
    x = node_coordinates(op)
    u = solve_dirichlet(op, np.interp(x[op.boundary, 0], [0, 1, 2, 3], knots))
    flux = cell_flux_averages(op, u)
    grads = cell_gradient_averages(op, u)
    assert np.allclose(flux[..., 0], 1.0, atol=1e-10)
    assert np.abs(flux[..., 1]).max() < 1e-10
    assert np.allclose(grads[..., 0], (1.0 / cols)[:, None], atol=1e-10)
    # effective conductivity across the stack = harmonic mean of the columns
    harm = 3.0 / (1.0 / cols).sum()
    assert np.isclose(3.0 / (knots[-1] - knots[0]), harm)


def test_neumann_solve_properties():
    rng = np.random.default_rng(4)
    field = gen_named_field("lognormal_iso", level=1, seed=9, sigma=0.4)
    for fld, r in _nodal_cases(field):
        op = assemble(fld, resolution=r)
        _, _, _, B, mass = _loop_assembly(fld, op)
        d = op.dim
        shape = (op.cells_per_axis,) * d + (d,)
        # constant data is removed entirely: zero solution
        u0 = solve_neumann(op, np.ones(shape))
        assert np.abs(u0).max() < 1e-12
        f = rng.normal(size=shape)
        u = solve_neumann(op, f)
        assert abs(mass @ u) < 1e-10            # mean-zero gauge
        assert np.abs(B @ u / op.vol).max() < 1e-10   # zero average flux
        # weak equation: K u = flux functional of the centered data
        fc = f - f.reshape(-1, d).mean(axis=0)
        assert np.abs(op.K @ u - flux_rhs(op, fc)).max() < 1e-9


def test_harmonic_extension_and_random_aharmonic():
    field = gen_named_field("checkerboard", level=1, seed=10, low=1.0, high=5.0)
    op = assemble(field)
    rng = np.random.default_rng(5)
    u = solve_dirichlet(op, rng.normal(size=len(op.boundary)))
    assert np.abs((op.K @ u)[op.interior]).max() < 1e-10
    # a random a-harmonic function is Gaussian boundary values: the top
    # trace reads its G, B and S-energy as the extension's nodal ones.  The
    # trace stores only Lam; Q = sym(Lam) and L = [X_b^T Lam; G_b] are
    # derived, so the cases include nonsymmetric a, 3D and refined grids.
    cases = [(field, 1), (field, 2),
             (gen_named_field("skew_lognormal", level=1, seed=14, sigma=0.5,
                              kappa=0.6), 1),
             (gen_named_field("skew_lognormal", level=2, seed=15, sigma=0.5,
                              kappa=0.6), 1),
             (gen_named_field("skew_lognormal", level=1, dim=3, seed=16,
                              sigma=0.5, kappa=0.6), 1)]
    for fld, r in cases:
        op = assemble(fld, resolution=r)
        top = partition_traces(fld, fld.level, resolution=r)
        at = (0,) * fld.dim
        g = rng.standard_normal((len(op.boundary), 3))
        w = np.stack([solve_dirichlet(op, col) for col in g.T], axis=1)
        S, G, B, _ = nodal_functionals(op)
        assert np.abs((op.K @ w)[op.interior]).max() < 1e-10
        assert np.abs(np.vstack([B, G]) @ w - top.L[at] @ g).max() < 1e-10
        # the bilinear form, which sees the skew part of a wrong Q
        assert np.abs(w.T @ (S @ w) - g.T @ top.Q[at] @ g).max() < 1e-10


def test_energy_seminorm_matches_dense_quadratic_form():
    rng = np.random.default_rng(6)
    for fld, r in _nodal_cases(gen_named_field("lognormal_iso", level=1, seed=11)):
        op = assemble(fld, resolution=r)
        S = _loop_assembly(fld, op)[1]
        u = rng.normal(size=op.N)
        want = float(u @ S.toarray() @ u) / op.vol
        assert np.isclose(energy_seminorm_sq(op, u), want)


def test_maximizer_backend_energy_identity():
    field = gen_named_field("skew_lognormal", level=1, seed=12, sigma=0.5,
                            kappa=0.6)
    op = assemble(field)
    S = nodal_functionals(op)[0]
    top = partition_traces(field, 1)
    L, Q = top.L[0, 0], top.Q[0, 0]
    V = trace_loads(top)[0][0, 0]
    pairs = [(np.array([1.0, 0.0]), np.array([0.0, 0.5])),
             (np.array([1.0, 1.0]), np.array([1.0, 0.0]))]
    for p, q in pairs:
        xi = np.concatenate([-p, q])
        b = np.concatenate([[0.0], V @ xi])    # boundary node 0 pinned
        J = (xi @ (L @ b) - 0.5 * b @ Q @ b) / top.vol
        # the maximizer is the a-harmonic extension of its boundary values
        v = solve_dirichlet(op, b)
        assert J >= -1e-12
        assert np.isclose(J, v @ (S @ v) / (2 * op.vol),
                          rtol=1e-10, atol=1e-12)
        assert np.abs((op.K @ v)[op.interior]).max() < 1e-8


def test_flux_rhs_agrees_with_quadrature():
    field = gen_named_field("lognormal_iso", level=1, seed=13)
    op = assemble(field)
    rng = np.random.default_rng(7)
    f_cells = rng.normal(size=(3, 3, 2))
    direct = flux_rhs(op, f_cells)

    def cellwise(x):
        idx = np.clip(x.astype(int), 0, 2)
        return f_cells[idx[:, 0], idx[:, 1]]

    via_quad = quadrature_flux_rhs(op, cellwise, order=2)
    assert np.abs(direct - via_quad).max() < 1e-12
    # the functional annihilates constants: total sum is zero
    assert abs(direct.sum()) < 1e-12


def test_quadrature_exactness_in_order():
    field = gen_named_field("constant", level=1)
    op = assemble(field)

    def smooth(x):
        return np.stack([np.sin(x[:, 0]), np.cos(x[:, 1] * 0.5)], axis=-1)

    lo = quadrature_flux_rhs(op, smooth, order=4)
    hi = quadrature_flux_rhs(op, smooth, order=8)
    assert np.abs(lo - hi).max() < 1e-8
    # f = (x0 x1^2, 0, ...) has per-axis degree 2, so order 2 is exact; at an
    # interior node y the load is -int x1^2 phi_y = -h^(d-1) (h y1^2 + h^3/6)
    for dim, r in ((2, 2), (3, 1)):
        op = assemble(gen_named_field("constant", level=1, dim=dim), resolution=r)
        y = node_coordinates(op)[op.interior]
        load = quadrature_flux_rhs(op, lambda x: np.stack(
            [x[:, 0] * x[:, 1] ** 2] + [0 * x[:, 0]] * (dim - 1), axis=-1))
        h = op.h
        assert np.allclose(load[op.interior],
                           -h ** (dim - 1) * (h * y[:, 1] ** 2 + h ** 3 / 6),
                           rtol=0, atol=1e-12)


def test_resolution_refines_the_grid():
    field = gen_named_field("checkerboard", level=1, seed=14, low=1.0, high=4.0)
    op1 = assemble(field, resolution=1)
    op2 = assemble(field, resolution=2)
    assert op1.nodes_per_axis == 4
    assert op2.nodes_per_axis == 7
    assert op2.cells_per_axis == 3
    x = node_coordinates(op2)
    u = solve_dirichlet(op2, (x @ [1.0, 0.0])[op2.boundary])
    assert cell_gradient_averages(op2, u).shape == (3, 3, 2)
    with pytest.raises(ValueError):
        assemble(field, resolution=0)


def test_subcube_assembly_uses_window_slice():
    field = gen_named_field("lognormal_iso", level=2, seed=15)
    cube = TriadicCube(level=1, offset=(3, 6), dim=2)
    op = assemble(field, cube)
    sub = field.s_cells[3:6, 6:9] + field.k_cells[3:6, 6:9]
    assert np.allclose(op.a_elems.reshape(3, 3, 2, 2), sub)
    with pytest.raises(ValueError):
        assemble(field, TriadicCube(level=1, offset=(7, 0), dim=2))


# ---------------------------------------------------------------------------
# shape caches: the assembly pattern and the nested-dissection order


@pytest.mark.parametrize("dim,level,resolution", [(2, 2, 1), (2, 1, 3), (3, 1, 2)])
def test_assembly_matches_the_element_loop(dim, level, resolution):
    field = gen_named_field("skew_lognormal", level=level, dim=dim, seed=16,
                            sigma=0.5, kappa=0.6)
    op = assemble(field, resolution=resolution)
    K, S, G, B, mass = _loop_assembly(field, op)
    nS, nG, nB, nmass = nodal_functionals(op)
    for got, want in ((op.K, K), (nS, S)):
        assert got.has_canonical_format and got.nnz == want.nnz
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-14 * np.abs(want.data).max()
    for got, want in ((nG, G), (nB, B), (nmass, mass)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_grid_shape_is_cached_read_only_and_shared():
    f1 = gen_named_field("lognormal_iso", level=2, seed=17)
    f2 = gen_named_field("checkerboard", level=2, seed=18)
    op1, op2 = assemble(f1), assemble(f2)
    gid, interior, boundary, indptr, indices, slot = solver._GRID_SHAPES[(2, 10)]
    for op in (op1, op2):
        assert op.gid is gid and op.interior is interior and op.boundary is boundary
        assert np.shares_memory(op.K.indices, indices)
        assert np.shares_memory(op.K.indptr, indptr)
    for arr in (gid, interior, boundary, indptr, indices, slot):
        assert arr.dtype.kind == "i" and not arr.flags.writeable
    assert slot.shape == (81 * 16,) and slot.max() == len(indices) - 1
    # a sub-cube of another window with the same node grid reuses it
    op3 = assemble(gen_named_field("constant", level=3),
                   TriadicCube(level=2, offset=(9, 0), dim=2))
    assert op3.gid is gid


@pytest.mark.parametrize("dim,m", [(2, 0), (2, 1), (2, 7), (2, 26), (3, 7), (3, 8)])
def test_nested_dissection_order_is_a_cached_permutation(dim, m):
    order = solver._nd_order(dim, m)
    assert solver._nd_order(dim, m) is order            # built once
    assert order.dtype.kind == "i" and not order.flags.writeable
    assert np.array_equal(np.sort(order), np.arange(m ** dim))
    if m ** dim > 16:
        # eliminated last: the middle node plane of the first longest axis
        coords = np.indices((m,) * dim).reshape(dim, -1)
        plane = np.nonzero(coords[0] == m // 2)[0]
        assert np.array_equal(order[-len(plane):], plane)


def test_interior_order_is_a_permutation_of_the_interior():
    field = gen_named_field("checkerboard", level=2, seed=19)
    op = assemble(field)
    u = solve_dirichlet(op, np.ones(len(op.boundary)))
    order, K_II, _ = op._int
    assert np.array_equal(order, op.interior[solver._nd_order(2, 8)])
    assert np.array_equal(np.sort(order), op.interior)
    assert (K_II != op.K[order][:, order]).nnz == 0
    assert np.allclose(u, 1.0, atol=1e-12)


def test_residual_check_reads_the_interior_solve():
    field = gen_named_field("skew_lognormal", level=2, seed=20, sigma=0.5,
                            kappa=0.6)
    op = assemble(field)
    order, K_II, lu = solver._interior_solver(op)
    rng = np.random.default_rng(8)
    g = rng.normal(size=len(op.boundary))
    noise = rng.normal(size=len(order))

    class Off:          # an LU whose solutions are off by eps * noise
        def __init__(self, eps):
            self.eps = eps

        def solve(self, r):
            return lu.solve(r) + self.eps * noise

    op._int = (order, K_II, Off(1e-12))
    u = solve_dirichlet(op, g)
    ii, bb = op.interior, op.boundary
    r = -(op.K[ii][:, bb] @ g)
    want = (np.linalg.norm(op.K[ii][:, ii] @ u[ii] - r)
            / (np.linalg.norm(r) + 1.0))
    assert 1e-13 < want < 1e-9
    assert op.residual == pytest.approx(want, rel=1e-3)
    op._int = (order, K_II, Off(1e-6))
    with pytest.raises(solver.SolverError, match="interior solve residual"):
        solve_dirichlet(op, g)


# ---------------------------------------------------------------------------
# the nested-dissection LUs against SuperLU's default (COLAMD) column order


def _default_order_gaps(op, rng):
    """Relative gaps to the default-order solves: the Dirichlet solution
    (random boundary data and cell fluxes), and the Neumann solution in
    nodal values and in the energy seminorm."""
    g = rng.normal(size=len(op.boundary))
    f = rng.normal(size=(op.cells_per_axis,) * op.dim + (op.dim,))
    u = solve_dirichlet(op, g, load=-flux_rhs(op, f))
    u_ref = default_order_dirichlet(op, g, -flux_rhs(op, f))
    v = solve_neumann(op, f)
    v_ref = default_order_neumann(op, flux_rhs(op, f - f.reshape(-1, op.dim).mean(axis=0)))
    dv = v - v_ref
    S = nodal_functionals(op)[0]
    return (np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref),
            np.linalg.norm(dv) / np.linalg.norm(v_ref),
            np.sqrt((dv @ (S @ dv)) / (v_ref @ (S @ v_ref))))


@pytest.mark.parametrize("kind,params", [
    ("laminate", {"a1": 1.0, "a2": 4.0, "phase": "random"}),
    ("checkerboard", {"low": 0.75, "high": 4.0 / 3.0}),
])
def test_nodal_solves_match_the_default_order_lu_on_the_c6_fields(kind, params):
    for n in range(1, 6):
        op = assemble(gen_named_field(kind, level=n, seed=1, **params))
        dirichlet, neumann, neumann_energy = _default_order_gaps(
            op, np.random.default_rng(n))
        assert dirichlet < 1e-12
        assert neumann_energy < 1e-12
        # K with one node pinned has condition number about 2e6 at n = 5,
        # so the nodal values of two orders agree only to a few 1e-12
        assert neumann < 1e-10


def test_nodal_solves_match_the_default_order_lu_on_c8_3d_and_refined():
    ops = [assemble(gen_named_field("skew_lognormal", level=2, seed=9000 + i,
                                    sigma=0.5, kappa=0.5)) for i in range(50)]
    ops.append(assemble(gen_named_field("skew_lognormal", level=2, dim=3,
                                        seed=21, sigma=0.5, kappa=0.6)))
    ops.append(assemble(gen_named_field("skew_lognormal", level=2, seed=22,
                                        sigma=0.5, kappa=0.6), resolution=2))
    ops.append(assemble(gen_named_field("lognormal_iso", level=1, dim=3,
                                        seed=23), resolution=2))
    rng = np.random.default_rng(9)
    for op in ops:
        assert max(_default_order_gaps(op, rng)) < 1e-12


def test_one_worker_maps_here_on_one_blas_thread_and_restores_the_count():
    controls = [(get, put) for get, put in solver._blas_thread_controls() if get]
    if not controls:
        pytest.skip("no OpenBLAS with a thread-count getter in this process")
    before = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        with solver.worker_map(1) as pmap:
            assert [get() for get, _ in controls] == [1] * len(controls)
            assert pmap(abs, range(-2, 2)) == [2, 1, 0, 1]
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, put), count in zip(controls, before):
            put(count)
