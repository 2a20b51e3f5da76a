"""Assembly and solve layer: element integrals, boundary problems, averages."""
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from cghom import solver
from cghom.coarsegrain import condensed_A, hierarchy_sweep
from cghom.fields import gen_named_field
from cghom.solver import (DegenerateCellError, assemble, cell_averages,
                          energy_seminorm_sq, node_coordinates, partition_traces,
                          quadrature_flux_rhs, reference_tensors,
                          solve_dirichlet, solve_neumann, trace_loads)
from cghom.triadic import TriadicCube
from reference_impl import (cellwise_flux_load, default_order_dirichlet,
                            default_order_neumann, loop_assembly,
                            nodal_functionals, one_step_merge,
                            recursive_nd_order, sorted_grid_shape)


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
    g, f = cell_averages(op, u)
    assert np.allclose(g, [0.7, -0.3], atol=1e-12)
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
    grads, flux = cell_averages(op, u)
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
        assert np.abs(op.K @ u - cellwise_flux_load(op, fc)).max() < 1e-9


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


def test_order_one_rule_on_cellwise_data_matches_the_element_loop():
    # each d_a phi_i has per-axis degree <= 1, so the one-point rule is exact
    # on cellwise data
    rng = np.random.default_rng(7)
    for fld, r in _nodal_cases(gen_named_field("lognormal_iso", level=1, seed=13)):
        op = assemble(fld, resolution=r)
        f_cells = rng.normal(size=(op.cells_per_axis,) * op.dim + (op.dim,))
        load = quadrature_flux_rhs(op, lambda x: f_cells[tuple(x.astype(int).T)],
                                   order=1)
        assert np.abs(load - cellwise_flux_load(op, f_cells)).max() < 1e-12
        # the functional annihilates constants: total sum is zero
        assert abs(load.sum()) < 1e-12


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
    assert cell_averages(op2, u)[0].shape == (3, 3, 2)
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
    hits = solver._grid_shape.cache_info().hits
    gid, interior, boundary, indptr, indices, slot = solver._grid_shape(2, 10)
    assert solver._grid_shape.cache_info().hits == hits + 1   # built by assemble
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


def test_every_memoized_table_is_read_only():
    # one object serves every caller, so a write would change every later
    # assembly or merge; writing an entry's own value shows the flag
    EK = reference_tensors(2)[1]
    with pytest.raises(ValueError, match="read-only"):
        EK[0, 0, 0, 0] = EK[0, 0, 0, 0]
    steps = solver._merge_steps(2, 2, 1)
    assert type(steps) is tuple
    tables = [*reference_tensors(3), solver._cell_reference(2, 2)[0],
              *solver._boundary_geometry(2, 1, 1), *(maps for _, maps, _, _ in steps)]
    assert not any(arr.flags.writeable for arr in tables)


@pytest.mark.parametrize("dim,m", [(2, 0), (2, 1), (2, 7), (2, 26), (3, 7), (3, 8)])
def test_nested_dissection_order_is_a_cached_permutation(dim, m):
    order = solver._nd_order((m,) * dim)
    assert solver._nd_order((m,) * dim) is order            # built once
    assert order.dtype.kind == "i" and not order.flags.writeable
    assert np.array_equal(np.sort(order), np.arange(m ** dim))
    if m ** dim > 16:
        # eliminated last: the middle node plane of the first longest axis
        coords = np.indices((m,) * dim).reshape(dim, -1)
        plane = np.nonzero(coords[0] == m // 2)[0]
        assert np.array_equal(order[-len(plane):], plane)


@pytest.mark.parametrize("dim,npa", [(2, npa) for npa in (2, 3, 4, 10, 28, 82, 244)]
                         + [(3, npa) for npa in (2, 3, 4, 10, 28)])
def test_grid_indices_match_sorting_and_recursion(dim, npa):
    # the closed-form CSR pattern against np.unique over the triplets, and the
    # memoized orders of the node grid (Neumann) and of its interior
    # (Dirichlet) against the direct recursion; values and dtypes
    for got, want in zip(solver._grid_shape(dim, npa), sorted_grid_shape(dim, npa)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for m in (npa, npa - 2):
        got, want = solver._nd_order((m,) * dim), recursive_nd_order(dim, m)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_grid_shape_of_244_squared_nodes_stays_small_while_built():
    # the n = 5 Dirichlet window's node grid, its indices built one axis at
    # a time, past the cache so that they are built here
    tracemalloc.start()
    try:
        arrays = solver._grid_shape.__wrapped__(2, 244)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(arr.nbytes for arr in arrays) <= held <= 8 * 2 ** 20
    assert peak <= 12 * 2 ** 20


def test_grid_shape_refuses_a_pattern_beyond_int32_before_allocating():
    before = solver._grid_shape.cache_info()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"59998\^2 = .* int32"):
            solver._grid_shape(2, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    after = solver._grid_shape.cache_info()
    # built, refused and not cached
    assert peak < 2 ** 20 and after.misses == before.misses + 1
    assert after.currsize == before.currsize


def _gathered_block(op, problem, order):
    """The one cached matrix of ``op``'s solve of ``problem``, whose free
    nodes are ``order``: CSC, equal in pattern and values to
    K[order][:, order], its pattern the one cached per grid shape and
    problem, so the operator holds only its values."""
    [(key, (K_ff, lu))] = op._lu.items()
    assert key == problem
    free, take, indptr, indices = solver._free_system(op.dim, op.nodes_per_axis, problem)
    assert free.dtype == np.int32 and not free.flags.writeable
    assert np.array_equal(free, order)
    want = op.K[order][:, order].tocsc()
    assert K_ff.format == "csc"
    for name in ("indptr", "indices", "data"):
        got = getattr(K_ff, name)
        assert got.dtype == getattr(want, name).dtype
        assert np.array_equal(got, getattr(want, name))
    assert np.shares_memory(K_ff.indptr, indptr)
    assert np.shares_memory(K_ff.indices, indices)
    assert np.array_equal(K_ff.data, op.K.data[take])
    assert not sp.issparse(lu)


def test_interior_order_is_a_permutation_of_the_interior():
    field = gen_named_field("checkerboard", level=2, seed=19)
    op = assemble(field)
    u = solve_dirichlet(op, np.ones(len(op.boundary)))
    order = op.interior[solver._nd_order((8, 8))]
    assert order.dtype == np.int32
    assert np.array_equal(np.sort(order), op.interior)
    _gathered_block(op, "dirichlet", order)
    assert np.allclose(u, 1.0, atol=1e-12)
    solve_dirichlet(op, np.zeros(len(op.boundary)))
    assert len(op._lu) == 1                 # factored once per operator


def _off_by(op, noise):
    """Make the one cached LU of ``op`` return solutions off by eps * noise,
    for the eps that the returned setter takes."""
    [(key, (K_ff, lu))] = op._lu.items()

    class Off:
        def __init__(self, eps):
            self.eps = eps

        def solve(self, r):
            return lu.solve(r) + self.eps * noise

    return lambda eps: op._lu.__setitem__(key, (K_ff, Off(eps)))


def test_residual_check_reads_the_interior_solve():
    field = gen_named_field("skew_lognormal", level=2, seed=20, sigma=0.5,
                            kappa=0.6)
    op = assemble(field)
    rng = np.random.default_rng(8)
    g = rng.normal(size=len(op.boundary))
    solve_dirichlet(op, g)
    set_eps = _off_by(op, rng.normal(size=len(op.interior)))
    set_eps(1e-12)
    u = solve_dirichlet(op, g)
    ii, bb = op.interior, op.boundary
    r = -(op.K[ii][:, bb] @ g)
    want = (np.linalg.norm(op.K[ii][:, ii] @ u[ii] - r)
            / (np.linalg.norm(r) + 1.0))
    assert 1e-13 < want < 1e-9
    assert op.residual == pytest.approx(want, rel=1e-3)
    set_eps(1e-6)
    with pytest.raises(solver.SolverError, match="interior solve residual"):
        solve_dirichlet(op, g)


def test_residual_check_reads_the_neumann_solve():
    field = gen_named_field("skew_lognormal", level=2, seed=20, sigma=0.5,
                            kappa=0.6)
    op = assemble(field)
    rng = np.random.default_rng(8)
    f = rng.normal(size=(9, 9, 2))
    solve_neumann(op, f)
    order = solver._nd_order((10, 10))
    _gathered_block(op, "neumann", order[order != 0])
    set_eps = _off_by(op, rng.normal(size=op.N - 1))
    set_eps(1e-12)
    u = solve_neumann(op, f)
    # K u = F on every node but the pinned one, and u's shift is in K's kernel
    F = cellwise_flux_load(op, f - f.reshape(-1, 2).mean(axis=0))[1:]
    want = np.linalg.norm((op.K @ u)[1:] - F) / (np.linalg.norm(F) + 1.0)
    assert 1e-13 < want < 1e-9
    assert op.residual == pytest.approx(want, rel=1e-3)
    set_eps(1e-6)
    with pytest.raises(solver.SolverError, match="interior solve residual"):
        solve_neumann(op, f)


def test_a_second_field_of_the_same_shape_rebuilds_no_table():
    rng = np.random.default_rng(9)
    g, f = rng.normal(size=36), rng.normal(size=(9, 9, 2))
    fields = [gen_named_field("skew_lognormal", level=2, seed=seed, sigma=0.5,
                              kappa=0.6) for seed in (21, 22)]
    tables = (solver._free_system, solver._merge_steps,
              solver._boundary_geometry, solver._cell_reference)

    def solve_and_sweep(field):
        op = assemble(field)
        solve_dirichlet(op, g)
        solve_neumann(op, f)
        hierarchy_sweep(field)
        # one factorization per problem, keyed by it
        assert sorted(op._lu) == ["dirichlet", "neumann"]
        return [table.cache_info() for table in tables]

    first, second = map(solve_and_sweep, fields)
    for was, now in zip(first, second):
        assert now.misses == was.misses and now.hits > was.hits


# ---------------------------------------------------------------------------
# the nested-dissection LUs against SuperLU's default (COLAMD) column order


def _default_order_gaps(op, rng):
    """Relative gaps to the default-order solves: the Dirichlet solution
    (random boundary data and cell fluxes), and the Neumann solution in
    nodal values and in the energy seminorm."""
    g = rng.normal(size=len(op.boundary))
    f = rng.normal(size=(op.cells_per_axis,) * op.dim + (op.dim,))

    def load(f):        # the functional of cellwise f, as solve_neumann builds it
        return quadrature_flux_rhs(op, lambda x: f[tuple(x.astype(int).T)], order=1)

    u = solve_dirichlet(op, g, load=-load(f))
    u_ref = default_order_dirichlet(op, g, -load(f))
    v = solve_neumann(op, f)
    v_ref = default_order_neumann(op, load(f - f.reshape(-1, op.dim).mean(axis=0)))
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


def _merge_gap(field, resolution=1):
    """Worst relative gap of ``merge_traces`` to the one-step merge, in the
    merged maps and in their ``condensed_A``, over every level of the field
    and strides 3 (the partition) and 1 (the half-overlap lattice).  No cube
    is flagged constant on either side, so every cube's A is solved."""
    worst = 0.0
    for children in solver.condense(field.s_cells, field.k_cells, resolution):
        if children.level == field.level:
            break
        for stride in (3, 1):
            got = solver.merge_traces(children, stride)
            want = one_step_merge(children, stride)
            assert got.Lam.shape == want.Lam.shape and got.level == want.level
            for a, b in ((got.Lam, want.Lam),
                         (condensed_A(replace(got, const=None)), condensed_A(want))):
                worst = max(worst, float(np.abs(a - b).max() / np.abs(b).max()))
    return worst


@pytest.mark.parametrize("kind", ["checkerboard", "lognormal_iso",
                                  "skew_lognormal", "cascade_iso"])
def test_axis_merge_matches_the_one_step_merge_on_the_c2_kinds(kind):
    # the c2 suite's kinds and seeds, at level 3 so that every merge past
    # the cells' takes one step per axis
    for seed in (1000, 1001):
        assert _merge_gap(gen_named_field(kind, level=3, seed=seed)) <= 1e-10


def test_axis_merge_matches_the_one_step_merge_in_3d_and_refined():
    f3 = gen_named_field("skew_lognormal", level=2, dim=3, seed=41, sigma=0.5,
                         kappa=0.6)
    assert _merge_gap(f3) <= 1e-10
    f2 = gen_named_field("skew_lognormal", level=2, seed=42, sigma=0.8, kappa=0.9)
    assert _merge_gap(f2, resolution=2) <= 1e-10
    f31 = gen_named_field("lognormal_iso", level=1, dim=3, seed=43, sigma=0.6)
    assert _merge_gap(f31, resolution=2) <= 1e-10


def test_merge_steps_follow_the_geometry():
    # at resolution 1 the cells' merge has no interface node before its last
    # axis, so it is one step over all 3^d cells, as the one-step merge
    for dim in (2, 3):
        [(axes, maps, nb, nu)] = solver._merge_steps(dim, 1, 1)
        assert axes == tuple(range(dim)) and maps.shape == (3 ** dim, 2 ** dim)
        assert (nb, nu) == (4 ** dim - 2 ** dim, 4 ** dim)
    # above it, one step per axis, each eliminating two interface planes:
    # the 3D level-3 merge eliminates 128, 416 and 1,352 nodes
    steps = solver._merge_steps(3, 3, 1)
    assert [axes for axes, *_ in steps] == [(0,), (1,), (2,)]
    assert [nu - nb for *_, nb, nu in steps] == [128, 416, 1352]
    assert steps[-1][2] == 28 ** 3 - 26 ** 3


def _constant_by_loops(a, side, step, count, start=0):
    """Whether each cube of a batch has, in every cell, the s + k of its
    corner cell, by a loop over the cubes: cube idx has side ``side`` and its
    corner at cell ``step * idx``, moved ``start`` cells along axis 0."""
    out = np.empty(count, dtype=bool)
    for idx in np.ndindex(*count):
        corner = (start + step * idx[0],) + tuple(step * i for i in idx[1:])
        out[idx] = np.all(a[tuple(slice(c, c + side) for c in corner)] == a[corner])
    return out


def _assert_flags_match_loops(s, k, resolution=1):
    """After every merge of ``condense``'s partitions, at stride 3 and 1 and
    on each row triple of ``rows``, the constant flags are the loops' and
    ``s0``, ``k0`` the corner cells.  Returns the flags set above the cells."""
    a, d, flagged = s + k, s.shape[-1], 0
    for children in solver.condense(s, k, resolution):
        if min(children.Lam.shape[:d]) < 3:
            break
        grid = 3 ** children.level
        merged = [(solver.merge_traces(children, stride), stride * grid, 0)
                  for stride in (3, 1)]
        merged += [(solver.merge_traces(children.rows(i, i + 3), stride=1), grid, i * grid)
                   for i in range(children.Lam.shape[0] - 2)]
        for got, step, start in merged:
            count = got.const.shape
            assert np.array_equal(got.const, _constant_by_loops(
                a, 3 ** got.level, step, count, start))
            corners = (slice(start, start + step * (count[0] - 1) + 1, step),)
            corners += tuple(slice(0, step * (n - 1) + 1, step) for n in count[1:])
            assert np.array_equal(got.s0, s[corners])
            assert np.array_equal(got.k0, k[corners])
            flagged += int(got.const.sum())
    return flagged


def _with_constant_blocks(field, blocks):
    """The field with each block (a tuple of slices) given its corner cell."""
    s, k = field.s_cells.copy(), field.k_cells.copy()
    for block in blocks:
        corner = tuple(b.start for b in block)
        s[block], k[block] = s[corner], k[corner]
    return replace(field, s_cells=s, k_cells=k)


def test_constant_flags_match_a_loop_over_the_cells():
    # constant blocks of 9x9 and 3x3 cells on and off the partition lattices,
    # and one whose copy of its corner cell misses in one cell
    skew = {"sigma": 0.5, "kappa": 0.7}
    f2 = _with_constant_blocks(
        gen_named_field("skew_lognormal", level=3, seed=44, **skew),
        [np.s_[9:18, 0:9], np.s_[3:12, 12:21], np.s_[3:6, 21:24],
         np.s_[13:16, 22:25], np.s_[18:21, 18:21], np.s_[18:21, 3:6]])
    s = f2.s_cells.copy()
    s[20, 5] = 2.0 * s[20, 5]
    f2 = replace(f2, s_cells=s)
    assert _assert_flags_match_loops(f2.s_cells, f2.k_cells) > 0
    f3 = _with_constant_blocks(
        gen_named_field("skew_lognormal", level=2, dim=3, seed=45, **skew),
        [np.s_[3:6, 0:3, 6:9], np.s_[4:7, 4:7, 4:7]])
    assert _assert_flags_match_loops(f3.s_cells, f3.k_cells) > 0
    r2 = _with_constant_blocks(
        gen_named_field("skew_lognormal", level=2, seed=46, **skew),
        [np.s_[3:6, 3:6], np.s_[1:4, 5:8]])
    assert _assert_flags_match_loops(r2.s_cells, r2.k_cells, resolution=2) > 0
    # two windows side by side, a random one and a constant one: the merges
    # at stride 1 straddle them
    const = gen_named_field("constant", level=2, matrix=[[2.0, 0.5], [-0.5, 1.0]])
    s, k = (np.concatenate([getattr(r2, n), getattr(const, n)])
            for n in ("s_cells", "k_cells"))
    assert _assert_flags_match_loops(s, k) > 0
    *_, top = solver.condense(s, k)
    assert top.const.tolist() == [[False], [True]]

