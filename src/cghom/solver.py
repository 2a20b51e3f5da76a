"""Q1 finite elements for nonsymmetric divergence-form operators.

Assembles the stiffness of ``-div(a grad .)`` with ``a`` constant per unit
cell, together with the volume functionals ``G u = int grad u`` and
``B u = int a grad u``, on triadic cubes.  The saddle-point (KKT) backend
maximizes the coarse-graining objective over discrete a-harmonic functions
with one sparse LU factorization per cube, reused across all load vectors.

Every functional here sees only gradients, so the additive constant is fixed
by pinning node 0 (a corner, hence a boundary node) to zero and removing it
from the system; solutions are then shifted to zero mass-weighted mean.  The
pinned KKT matrix has a CSC structure that depends only on the cube's shape,
so it is built once per shape and filled with each cube's values.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import CascadeOverflowError, CoefficientField
from .triadic import TriadicCube, block_means

COND_CAP = 1e12


class SolverError(RuntimeError):
    pass


class DegenerateCellError(ValueError):
    pass


# Failures of the numerics on a valid configuration: the CLI maps them to
# exit code 3 and a Dirichlet sweep records them per scale.  Anything else
# is a programming error and propagates.
NUMERICAL_ERRORS = (SolverError, DegenerateCellError, CascadeOverflowError,
                    np.linalg.LinAlgError, ValueError, FloatingPointError)


def reference_tensors(dim: int):
    """Exact unit-element integrals of Q1 shape-function products.

    Returns (locs, EK, EG, EM): local corner offsets, the (dim,dim,2^d,2^d)
    tensor of  int d_a phi_i  d_b phi_j,  the (dim,2^d) tensor of
    int d_a phi_i,  and the (2^d,) vector of  int phi_i.
    """
    if dim not in _REF_CACHE:
        mass = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        stif = np.array([[1.0, -1.0], [-1.0, 1.0]])
        grad = np.array([[-0.5, -0.5], [0.5, 0.5]])  # int l_i' l_j
        dint = np.array([-1.0, 1.0])
        oint = np.array([0.5, 0.5])
        locs = np.array(list(itertools.product((0, 1), repeat=dim)), dtype=int)
        n = len(locs)
        EK = np.zeros((dim, dim, n, n))
        EG = np.zeros((dim, n))
        for a in range(dim):
            for b in range(dim):
                for i, li in enumerate(locs):
                    for j, lj in enumerate(locs):
                        v = 1.0
                        for ax in range(dim):
                            if ax == a and ax == b:
                                v *= stif[li[ax], lj[ax]]
                            elif ax == a:
                                v *= grad[li[ax], lj[ax]]
                            elif ax == b:
                                v *= grad[lj[ax], li[ax]]
                            else:
                                v *= mass[li[ax], lj[ax]]
                        EK[a, b, i, j] = v
            for i, li in enumerate(locs):
                v = 1.0
                for ax in range(dim):
                    v *= dint[li[ax]] if ax == a else oint[li[ax]]
                EG[a, i] = v
        EM = np.full(n, 0.5 ** dim)
        _REF_CACHE[dim] = (locs, EK, EG, EM)
    return _REF_CACHE[dim]


_REF_CACHE: dict = {}


@dataclass
class AssembledOperator:
    """Sparse operator bundle for one cube at one resolution."""

    dim: int
    level: int
    resolution: int
    h: float
    vol: float
    nodes_per_axis: int
    N: int
    K: sp.csr_matrix
    S: sp.csr_matrix
    G: np.ndarray          # (dim, N)
    B: np.ndarray          # (dim, N)
    mass: np.ndarray       # (N,)
    interior: np.ndarray
    boundary: np.ndarray
    gid: np.ndarray        # (n_elements, 2^dim) global node ids per element
    a_elems: np.ndarray    # (n_elements, dim, dim)
    _kkt: object = dc_field(default=None, repr=False)
    _int: object = dc_field(default=None, repr=False)
    _neu: object = dc_field(default=None, repr=False)

    @property
    def elements_per_axis(self) -> int:
        return self.nodes_per_axis - 1

    @property
    def cells_per_axis(self) -> int:
        return self.elements_per_axis // self.resolution


def _check_cells(s_block: np.ndarray) -> None:
    eigs = np.linalg.eigvalsh(s_block)
    lo, hi = eigs.min(axis=-1), eigs.max(axis=-1)
    if lo.min() <= 0.0:
        raise DegenerateCellError(
            f"cell symmetric part not positive definite (min eig {lo.min():.3e})"
        )
    cond = (hi / lo).max()
    if cond > COND_CAP:
        raise DegenerateCellError(
            f"cell condition number {cond:.3e} exceeds cap {COND_CAP:.1e}"
        )


def assemble(field: CoefficientField, cube: TriadicCube | None = None,
             resolution: int = 1) -> AssembledOperator:
    """Assemble K, S, G, B and the mean functional on a cube of the field."""
    cube = cube or field.domain
    d = field.dim
    r = int(resolution)
    if r < 1:
        raise ValueError("resolution must be >= 1")
    if not field.domain.contains(cube):
        raise ValueError("cube not contained in the field window")

    s_block = field.s_cells[cube.slices]
    a_block = s_block + field.k_cells[cube.slices]
    _check_cells(s_block)

    for ax in range(d):
        a_block = np.repeat(a_block, r, axis=ax)
        s_block = np.repeat(s_block, r, axis=ax)
    mE = r * cube.side                      # elements per axis
    nE = mE ** d
    a_elems = a_block.reshape(nE, d, d)
    s_elems = s_block.reshape(nE, d, d)

    locs, EK, EG, EM = reference_tensors(d)
    nloc = len(locs)
    h = 1.0 / r
    npa = mE + 1
    nshape = (npa,) * d
    N = npa ** d

    corners = np.indices((mE,) * d).reshape(d, nE)
    gid = np.empty((nE, nloc), dtype=np.int64)
    for i, li in enumerate(locs):
        gid[:, i] = np.ravel_multi_index(corners + li[:, None], nshape)

    hK = h ** (d - 2)
    hG = h ** (d - 1)
    rows = np.empty(nE * nloc * nloc, dtype=np.int64)
    cols = np.empty_like(rows)
    kvals = np.empty(nE * nloc * nloc)
    svals = np.empty_like(kvals)
    pos = 0
    for i in range(nloc):
        for j in range(nloc):
            sl = slice(pos, pos + nE)
            rows[sl] = gid[:, i]
            cols[sl] = gid[:, j]
            kvals[sl] = a_elems.reshape(nE, -1) @ (EK[:, :, i, j].ravel() * hK)
            svals[sl] = s_elems.reshape(nE, -1) @ (EK[:, :, i, j].ravel() * hK)
            pos += nE
    K = sp.coo_matrix((kvals, (rows, cols)), shape=(N, N)).tocsr()
    S = sp.coo_matrix((svals, (rows, cols)), shape=(N, N)).tocsr()

    G = np.zeros((d, N))
    B = np.zeros((d, N))
    mass = np.zeros(N)
    for i in range(nloc):
        idx = gid[:, i]
        mass += np.bincount(idx, weights=np.full(nE, EM[i] * h ** d), minlength=N)
        bw = a_elems @ (EG[:, i] * hG)      # (nE, d): int (a grad phi_i) per elem
        for ax in range(d):
            G[ax] += np.bincount(idx, weights=np.full(nE, EG[ax, i] * hG), minlength=N)
            B[ax] += np.bincount(idx, weights=bw[:, ax], minlength=N)

    coords = np.indices(nshape).reshape(d, N)
    inner = np.all((coords > 0) & (coords < mE), axis=0)
    interior = np.nonzero(inner)[0]
    boundary = np.nonzero(~inner)[0]

    return AssembledOperator(
        dim=d, level=cube.level, resolution=r, h=h, vol=float(cube.volume),
        nodes_per_axis=npa, N=N, K=K, S=S, G=G, B=B, mass=mass,
        interior=interior, boundary=boundary, gid=gid, a_elems=a_elems,
    )


def _remove_mean(op: AssembledOperator, u: np.ndarray) -> np.ndarray:
    """Shift u (or each column of u) to zero mass-weighted mean."""
    return u - (op.mass @ u) / op.vol


_KKT_PATTERNS: dict = {}


def _kkt_pattern(op: AssembledOperator) -> sp.csc_matrix:
    """CSC structure of [S C^T; C 0] without node 0, C = interior rows of K.

    K and S share one canonical CSR structure that depends only on the cube's
    shape, so this is built once per (dim, nodes_per_axis).  Its values are
    not numbers but indices: entry e of a cube's KKT matrix is entry
    ``data[e]`` of ``concatenate([S.data, K.data])``.
    """
    key = (op.dim, op.nodes_per_axis)
    if key not in _KKT_PATTERNS:
        K = op.K
        pos = sp.csr_matrix((np.arange(1, K.nnz + 1), K.indices, K.indptr),
                            shape=K.shape)   # 1-based, so no index is a zero
        C = pos[op.interior][:, 1:]
        C.data += K.nnz
        pattern = sp.bmat([[pos[1:, 1:], C.T], [C, None]], format="csc")
        pattern.data -= 1
        _KKT_PATTERNS[key] = pattern
    return _KKT_PATTERNS[key]


def _kkt_solver(op: AssembledOperator):
    """Factor the saddle system [S C^T; C 0] with node 0 pinned, once per cube."""
    if op._kkt is None:
        pat = _kkt_pattern(op)
        values = np.concatenate([op.S.data, op.K.data])[pat.data]
        kkt = sp.csc_matrix((values, pat.indices, pat.indptr), shape=pat.shape)
        op._kkt = spla.splu(kkt).solve
    return op._kkt


def maximize_J_backend(op: AssembledOperator, pairs, tol: float = 1e-8,
                       check: bool = True):
    """Maximize  avg(-1/2 grad u . s grad u - p . a grad u + q . grad u)
    over discrete a-harmonic mean-zero u, for each (p, q).

    Returns (J_values, V): the optima and the maximizers as columns.
    Guards on every column: J >= 0 up to tolerance, and the saddle-point
    energy identity J = v^T S v / (2|U|) to relative tolerance.
    """
    pairs = [(np.asarray(p, float), np.asarray(q, float)) for p, q in pairs]
    loads = np.stack([-op.B.T @ p + op.G.T @ q for p, q in pairs], axis=1)
    rhs = np.zeros((op.N - 1 + len(op.interior), len(pairs)))
    rhs[: op.N - 1] = loads[1:]
    V = np.zeros((op.N, len(pairs)))
    V[1:] = _kkt_solver(op)(rhs)[: op.N - 1]
    V = _remove_mean(op, V)
    vSv = np.einsum("ic,ic->c", V, op.S @ V)
    Jvals = (-0.5 * vSv + np.einsum("ic,ic->c", loads, V)) / op.vol
    if check:
        for c, (p, q) in enumerate(pairs):
            scale = max(1.0, float(p @ p + q @ q))
            if Jvals[c] < -tol * scale:
                raise SolverError(f"negative objective J={Jvals[c]:.3e} for pair {c}")
            ener = vSv[c] / (2.0 * op.vol)
            if abs(Jvals[c] - ener) > tol * max(1.0, abs(Jvals[c])):
                raise SolverError(
                    f"energy identity violated: J={Jvals[c]:.6e} vs {ener:.6e}"
                )
    return Jvals, V


def flux_rhs(op: AssembledOperator, f_cells: np.ndarray) -> np.ndarray:
    """Nodal functional F_i = int f . grad phi_i for per-cell-constant f."""
    d = op.dim
    f = np.asarray(f_cells, float)
    for ax in range(d):
        f = np.repeat(f, op.resolution, axis=ax)
    fE = f.reshape(-1, d)
    _, _, EG, _ = reference_tensors(d)
    out = np.zeros(op.N)
    hG = op.h ** (d - 1)
    for i in range(EG.shape[1]):
        out += np.bincount(op.gid[:, i], weights=(fE @ EG[:, i]) * hG,
                           minlength=op.N)
    return out


def _interior_solver(op: AssembledOperator):
    if op._int is None:
        op._int = spla.splu(op.K[op.interior][:, op.interior].tocsc()).solve
    return op._int


def solve_dirichlet(op: AssembledOperator, boundary_values: np.ndarray,
                    f_cells: np.ndarray | None = None,
                    load_nodal: np.ndarray | None = None,
                    tol: float = 1e-9) -> np.ndarray:
    """Solve -div(a grad u) = div f with u = g on the boundary nodes.

    ``boundary_values`` is aligned with ``op.boundary``.  ``load_nodal``
    adds a raw nodal functional to the interior equations (used for exact
    right-hand sides assembled by quadrature).
    """
    u = np.zeros(op.N)
    u[op.boundary] = boundary_values
    load = np.zeros(op.N)
    if f_cells is not None:
        load -= flux_rhs(op, f_cells)
    if load_nodal is not None:
        load += load_nodal
    r = load[op.interior] - (op.K @ u)[op.interior]
    uI = _interior_solver(op)(r)
    res = np.linalg.norm(op.K[op.interior][:, op.interior] @ uI - r)
    if res > tol * (np.linalg.norm(r) + 1.0):
        raise SolverError(f"interior solve residual {res:.3e}")
    u[op.interior] = uI
    return u


def solve_neumann(op: AssembledOperator, f_cells: np.ndarray,
                  tol: float = 1e-9) -> np.ndarray:
    """Solve div(a grad u) = div f with no-flux boundary n.(a grad u - f) = 0.

    The constant in f is fixed first (cell mean removed), so the solution has
    zero average flux; node 0 is pinned and the result shifted to zero mean.
    """
    d = op.dim
    f = np.asarray(f_cells, float).reshape(-1, d)
    f = f - f.mean(axis=0)
    F = flux_rhs(op, f.reshape((op.cells_per_axis,) * d + (d,)))
    if op._neu is None:
        op._neu = spla.splu(op.K[1:, 1:].tocsc()).solve
    u = np.zeros(op.N)
    u[1:] = op._neu(F[1:])
    u = _remove_mean(op, u)
    flux_avg = op.B @ u / op.vol
    if np.linalg.norm(flux_avg) > tol * (np.linalg.norm(f) + 1.0):
        raise SolverError(f"Neumann flux average {flux_avg} not zero")
    return u


def harmonic_extension(op: AssembledOperator, boundary_values: np.ndarray) -> np.ndarray:
    """a-harmonic extension of boundary data (zero interior load)."""
    return solve_dirichlet(op, boundary_values)


def random_aharmonic(op: AssembledOperator, rng: np.random.Generator) -> np.ndarray:
    """Random mean-zero discrete a-harmonic function (Gaussian boundary data)."""
    g = rng.standard_normal(len(op.boundary))
    return _remove_mean(op, harmonic_extension(op, g))


def energy_seminorm_sq(op: AssembledOperator, u: np.ndarray) -> float:
    """Volume-normalized energy  avg grad u . s grad u."""
    return float(u @ (op.S @ u)) / op.vol


def element_gradient_averages(op: AssembledOperator, u: np.ndarray) -> np.ndarray:
    """Average of grad u over each element, shape (n_elements, dim)."""
    _, _, EG, _ = reference_tensors(op.dim)
    return (u[op.gid] @ EG.T) / op.h


def cell_gradient_averages(op: AssembledOperator, u: np.ndarray) -> np.ndarray:
    """Average of grad u over each unit cell, shape (cells,)*dim + (dim,)."""
    ge = element_gradient_averages(op, u)
    ge = ge.reshape((op.elements_per_axis,) * op.dim + (op.dim,))
    return block_means(ge, op.dim, op.resolution)


def cell_flux_averages(op: AssembledOperator, u: np.ndarray) -> np.ndarray:
    """Average of a grad u over each unit cell (a is constant per cell)."""
    ge = element_gradient_averages(op, u)
    fe = np.einsum("eab,eb->ea", op.a_elems, ge)
    fe = fe.reshape((op.elements_per_axis,) * op.dim + (op.dim,))
    return block_means(fe, op.dim, op.resolution)


def node_coordinates(op: AssembledOperator) -> np.ndarray:
    """Node coordinates in cell units relative to the cube corner, (N, dim)."""
    coords = np.indices((op.nodes_per_axis,) * op.dim).reshape(op.dim, op.N)
    return coords.T * op.h


def quadrature_flux_rhs(op: AssembledOperator, vector_fn, order: int = 2) -> np.ndarray:
    """Nodal functional  int fn(x) . grad phi_i  by per-element Gauss rule.

    Exact when fn is polynomial of per-axis degree <= 2*order - 2.
    Coordinates are cell units relative to the cube corner.
    """
    d = op.dim
    pts1, wts1 = np.polynomial.legendre.leggauss(order)
    pts1 = 0.5 * (pts1 + 1.0)
    wts1 = 0.5 * wts1
    locs, _, _, _ = reference_tensors(d)
    corners = np.indices((op.elements_per_axis,) * d).reshape(d, -1).T * op.h
    out = np.zeros(op.N)
    for combo in itertools.product(range(order), repeat=d):
        xi = np.array([pts1[c] for c in combo])
        w = np.prod([wts1[c] for c in combo]) * op.h ** d
        x = corners + xi * op.h                      # (nE, d) physical points
        fx = np.asarray(vector_fn(x), float)         # (nE, d)
        for i, li in enumerate(locs):
            gphi = np.empty(d)
            for a in range(d):
                val = 1.0
                for ax in range(d):
                    t = xi[ax]
                    if ax == a:
                        val *= (1.0 if li[ax] == 1 else -1.0) / op.h
                    else:
                        val *= t if li[ax] == 1 else (1.0 - t)
                gphi[a] = val
            out += np.bincount(op.gid[:, i], weights=w * (fx @ gphi),
                               minlength=op.N)
    return out
