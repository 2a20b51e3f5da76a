"""Q1 finite elements for nonsymmetric divergence-form operators.

Assembles the stiffness K of ``-div(a grad .)`` with ``a`` constant per
unit cell on triadic cubes, and condenses it onto cube boundaries.

``A(U)`` comes from boundary traces condensed from the cells up.  Each cube
carries only the Schur complement ``Lam`` of ``K`` onto its boundary nodes
(the discrete Dirichlet-to-Neumann map).  A parent's interior rows of ``K``
touch only its own children's elements, so merging its 3^d children's maps
and eliminating the shared skeleton is exact (nested dissection).  All cubes
of one scale share one node grid, so every step is batched over them.  The
energy form and the loads of the a-harmonic extension E follow from ``Lam``:
``S = sym(K)`` (grad u . k grad u = 0 in every cell), so ``E^T S E = sym(Lam)``;
``B = X^T K`` for the node coordinates X (Q1 reproduces x) and ``K E``
vanishes off the boundary, so ``B E = X_b^T Lam``; and ``G`` vanishes on
interior nodes, so ``G E = G_b``, fixed by geometry.

``trace_loads`` solves Q v = L^T for the maximizers of the 2d unit loads on
the boundary, L = [B; G] E; ``A(U)`` and the verifiers' maximizers both come
from them, and a verifier reads a function with boundary values b only
through ``L b`` and ``b^T Q b``.

The assembled operator serves the nodal solves: Dirichlet and Neumann
problems.  It holds K alone, and the nodal readers use the same identities:
the energy of u is u^T K u, the cube mean of a Q1 function is the mean of its
element corner values, and the average flux is the mean of the cell fluxes.
The nodal LUs are factored in a nested-dissection order of the node grid,
and the index arrays of assembly and of that order are built once per grid
shape.  Every functional here sees only gradients, so the additive constant
is fixed by pinning node 0 (a corner, hence a boundary node) to zero and
removing it from the system; a Neumann solution is then shifted to zero
mean.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import CascadeOverflowError, CoefficientField, DegenerateCellError
from .triadic import TriadicCube, block_means


class SolverError(RuntimeError):
    pass


# Failures of the numerics on a valid configuration: the CLI maps them to
# exit code 3 and a Dirichlet sweep records them per scale.  Anything else
# is a programming error and propagates.
NUMERICAL_ERRORS = (SolverError, DegenerateCellError, CascadeOverflowError,
                    np.linalg.LinAlgError, ValueError, FloatingPointError)


def _blas_thread_controls() -> list:
    """(getter or None, setter) of the thread count of each OpenBLAS mapped here."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return []
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:         # a mapping whose file is gone
            continue
        for name in (f"{pre}openblas_%s_num_threads{post}"
                     for pre in ("", "scipy_") for post in ("", "64_")):
            if hasattr(lib, name % "set"):
                put = getattr(lib, name % "set")
                put.argtypes, put.restype = [ctypes.c_int], None    # void (int)
                out.append((getattr(lib, name % "get", None), put))  # int (void)
    return out


def single_blas_thread() -> None:
    """Make OpenBLAS single-threaded here.  Pool workers call it on start: BLAS
    threads on top of a busy pool spin against each other (four workers on
    two cores ran the dense merges several times slower)."""
    for _, set_threads in _blas_thread_controls():
        set_threads(1)


@contextlib.contextmanager
def worker_map(workers: int):
    """Yield ``pmap(fn, jobs) -> list``: one process pool serves the block, its
    workers started through ``single_blas_thread`` and sent jobs in chunks of
    ``len(jobs) // (4 * workers)``, at least 1.  With one worker the builtin
    map runs them here on one BLAS thread, as in a pool worker, so ``workers``
    changes no number; each thread count it can read is restored on exit."""
    if workers == 1:
        saved = [(put, get()) for get, put in _blas_thread_controls() if get]
        for put, _ in saved:
            put(1)
        try:
            yield lambda fn, jobs: list(map(fn, jobs))
        finally:
            for put, count in saved:
                put(count)
        return
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=single_blas_thread) as pool:
        yield lambda fn, jobs: list(pool.map(
            fn, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


def reference_tensors(dim: int):
    """Exact unit-element integrals of Q1 shape-function products.

    Returns (locs, EK, EG): local corner offsets, the (dim,dim,2^d,2^d)
    tensor of  int d_a phi_i  d_b phi_j  and the (dim,2^d) tensor of
    int d_a phi_i.
    """
    if dim not in _REF_CACHE:
        mass = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        stif = np.array([[1.0, -1.0], [-1.0, 1.0]])
        grad = np.array([[-0.5, -0.5], [0.5, 0.5]])  # int l_i' l_j
        dint = np.array([-1.0, 1.0])
        oint = np.array([0.5, 0.5])
        locs = np.array(list(itertools.product((0, 1), repeat=dim)), dtype=int)

        def kron(factor):       # product over the axes, corners in C order
            return functools.reduce(np.kron, [factor(ax) for ax in range(dim)])

        EK = np.array([[kron(lambda ax: stif if ax == a == b else grad if ax == a
                             else grad.T if ax == b else mass)
                        for b in range(dim)] for a in range(dim)])
        EG = np.array([kron(lambda ax: dint if ax == a else oint) for a in range(dim)])
        _REF_CACHE[dim] = (locs, EK, EG)
    return _REF_CACHE[dim]


_REF_CACHE: dict = {}


@dataclass
class AssembledOperator:
    """The stiffness K of one cube at one resolution, with its node grid."""

    dim: int
    resolution: int
    h: float
    vol: float
    nodes_per_axis: int
    N: int
    K: sp.csr_matrix
    interior: np.ndarray
    boundary: np.ndarray
    gid: np.ndarray        # (n_elements, 2^dim) global node ids per element
    a_elems: np.ndarray    # (n_elements, dim, dim)
    # |K_II u_I - r| / (|r| + 1) of the last interior solve, the quantity
    # ``solve_dirichlet`` checks against its tolerance
    residual: float = float("nan")
    _int: object = dc_field(default=None, repr=False)
    _neu: object = dc_field(default=None, repr=False)

    @property
    def elements_per_axis(self) -> int:
        return self.nodes_per_axis - 1

    @property
    def cells_per_axis(self) -> int:
        return self.elements_per_axis // self.resolution


_GRID_SHAPES: dict = {}


def _grid_shape(dim: int, npa: int):
    """What assembly needs of an npa^dim node grid that depends on nothing else.

    Returns (gid, interior, boundary, indptr, indices, slot): the global node
    ids of each element's corners, the interior and boundary node ids (C
    order), and the CSR pattern of the stiffness together with ``slot``, the
    position in its data of each (element, i, j) triplet, element-major.
    Read-only indices, built once per (dim, nodes_per_axis).
    """
    key = (dim, npa)
    if key not in _GRID_SHAPES:
        locs = reference_tensors(dim)[0]
        mE, N = npa - 1, npa ** dim
        corners = np.indices((mE,) * dim).reshape(dim, -1)
        gid = np.stack([np.ravel_multi_index(corners + li[:, None], (npa,) * dim)
                        for li in locs], axis=1)
        rows = np.repeat(gid, len(locs), axis=1).ravel()
        cols = np.tile(gid, len(locs)).ravel()
        keys, slot = np.unique(rows * N + cols, return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(N + 1) * N)
        coords = np.indices((npa,) * dim).reshape(dim, N)
        inner = np.all((coords > 0) & (coords < mE), axis=0)
        arrays = (gid, np.nonzero(inner)[0], np.nonzero(~inner)[0],
                  indptr.astype(np.int32), (keys % N).astype(np.int32), slot)
        for arr in arrays:
            arr.flags.writeable = False
        _GRID_SHAPES[key] = arrays
    return _GRID_SHAPES[key]


def assemble(field: CoefficientField, cube: TriadicCube | None = None,
             resolution: int = 1) -> AssembledOperator:
    """Assemble the stiffness K on a cube of the field.

    The element ids, the interior/boundary split and the CSR pattern of K
    depend only on the node grid and come from a cache per
    (dim, nodes_per_axis); K is then one ``bincount`` of the element
    triplets into that pattern.
    """
    cube = cube or field.domain
    d = field.dim
    r = int(resolution)
    if r < 1:
        raise ValueError("resolution must be >= 1")
    if not field.domain.contains(cube):
        raise ValueError("cube not contained in the field window")

    a_block = field.s_cells[cube.slices] + field.k_cells[cube.slices]
    for ax in range(d):
        a_block = np.repeat(a_block, r, axis=ax)
    mE = r * cube.side                      # elements per axis
    nE = mE ** d
    a_elems = a_block.reshape(nE, d, d)

    locs, EK, _ = reference_tensors(d)
    nloc = len(locs)
    h = 1.0 / r
    npa = mE + 1
    N = npa ** d
    gid, interior, boundary, indptr, indices, slot = _grid_shape(d, npa)
    # (a, b) x (i, j) element tensor, so a cell's triplets are one product
    EKf = EK.reshape(d * d, nloc * nloc) * h ** (d - 2)
    data = np.bincount(slot, weights=(a_elems.reshape(nE, d * d) @ EKf).ravel(),
                       minlength=len(indices))
    return AssembledOperator(
        dim=d, resolution=r, h=h, vol=float(cube.volume), nodes_per_axis=npa,
        N=N, K=sp.csr_matrix((data, indices, indptr), shape=(N, N)),
        interior=interior, boundary=boundary, gid=gid, a_elems=a_elems,
    )


_ND_ORDERS: dict = {}


def _nd_order(dim: int, m: int) -> np.ndarray:
    """Nested-dissection elimination order of an m^dim node grid.

    Returns the grid's C-order node ids in elimination order.  A box of
    nodes is split by the middle node plane of its longest axis: the two
    halves come first, each ordered the same way, then the plane.  A Q1
    element spans one grid step, so the plane separates the halves and the
    LU fills only within the separators (George, SIAM J. Numer. Anal. 10,
    1973).  Boxes of at most 16 nodes keep C order.  Read-only indices,
    built once per (dim, m).
    """
    key = (dim, m)
    if key not in _ND_ORDERS:
        parts = []

        def split(box):
            if box.size <= 16:
                parts.append(box.ravel())
                return
            ax = int(np.argmax(box.shape))
            mid = box.shape[ax] // 2
            cut = (slice(None),) * ax
            split(box[cut + (slice(None, mid),)])
            split(box[cut + (slice(mid + 1, None),)])
            parts.append(box[cut + (mid,)].ravel())

        split(np.arange(m ** dim).reshape((m,) * dim))
        order = np.concatenate(parts)
        order.flags.writeable = False
        _ND_ORDERS[key] = order
    return _ND_ORDERS[key]


def _interior_solver(op: AssembledOperator):
    """The interior block of K and its LU, in nested-dissection order.

    Returns (order, K_II, lu): the interior node ids in the nested-dissection
    order of the interior grid, K restricted to them in that order, and its
    SuperLU factorization with no further column permutation, so that
    ``lu.solve(r[order])`` solves the interior equations.  Built once per
    operator.
    """
    if op._int is None:
        order = op.interior[_nd_order(op.dim, op.nodes_per_axis - 2)]
        K_II = op.K[order][:, order]
        op._int = (order, K_II, spla.splu(K_II.tocsc(), permc_spec="NATURAL"))
    return op._int


# ---------------------------------------------------------------------------
# boundary-trace condensation


@dataclass
class BoundaryTraces:
    """Boundary data of a batch of same-level cubes at one resolution.

    ``Lam`` is the Schur complement of K onto each cube's boundary nodes (C
    order of its node grid).  The energy form ``Q = E^T S E`` and the loads
    ``L = [B; G] E`` of the a-harmonic extension E are derived from it:
    ``Q = sym(Lam)`` as S = sym(K), and ``L = [X_b^T Lam; G_b]`` as B = X^T K
    and G vanishes on interior nodes.  The batch axes come first; cube
    ``idx`` has its corner at cell ``origin + step * idx``.
    """

    dim: int
    level: int
    resolution: int
    origin: tuple
    step: int
    Lam: np.ndarray        # batch + (nb, nb)

    @property
    def vol(self) -> float:
        return float(3 ** (self.level * self.dim))

    @property
    def Q(self) -> np.ndarray:
        """The energy form, batch + (nb, nb)."""
        return 0.5 * (self.Lam + np.swapaxes(self.Lam, -1, -2))

    @property
    def L(self) -> np.ndarray:
        """The loads [B; G] of the extension, batch + (2d, nb)."""
        X_b, G_b = _boundary_geometry(self.dim, self.level, self.resolution)
        B = X_b.T @ self.Lam
        return np.concatenate([B, np.broadcast_to(G_b, B.shape)], axis=-2)

    def rows(self, start: int, stop: int) -> "BoundaryTraces":
        """The cubes whose first batch index lies in [start, stop)."""
        origin = (self.origin[0] + self.step * start,) + tuple(self.origin[1:])
        return replace(self, origin=origin, Lam=self.Lam[start:stop])


def _on_boundary(coords: np.ndarray, m: int) -> np.ndarray:
    return np.any((coords == 0) | (coords == m), axis=0)


def _eliminate(Lam, nb: int):
    """Condense batched maps onto their first ``nb`` nodes: the trailing
    nodes take their a-harmonic values w_s = -X w_b, X = Lam_ss^{-1} Lam_sb."""
    if Lam.shape[-1] == nb:
        return Lam
    X = np.linalg.solve(Lam[..., nb:, nb:], Lam[..., nb:, :nb])
    return Lam[..., :nb, :nb] - Lam[..., :nb, nb:] @ X


_CELL_REFS: dict = {}


def _cell_reference(dim: int, r: int):
    """Unit-coefficient stiffness of one cell.

    Returns (Kref, nb): the (dim, dim, n, n) tensor whose contraction with a
    cell's ``a`` is its K, and the number of boundary nodes; the cell's
    (r+1)^dim nodes are ordered boundary first, then interior, each in C
    order.
    """
    key = (dim, r)
    if key not in _CELL_REFS:
        locs, EK, _ = reference_tensors(dim)
        h = 1.0 / r
        shape = (r + 1,) * dim
        coords = np.indices(shape).reshape(dim, -1)
        bnd = _on_boundary(coords, r)
        order = np.concatenate([np.nonzero(bnd)[0], np.nonzero(~bnd)[0]])
        pos = np.empty_like(order)
        pos[order] = np.arange(len(order))
        corners = np.indices((r,) * dim).reshape(dim, -1)
        Kref = np.zeros((dim, dim, len(order), len(order)))
        for corner in corners.T:
            g = pos[np.ravel_multi_index((corner + locs).T, shape)]
            Kref[:, :, g[:, None], g] += EK * h ** (dim - 2)
        _CELL_REFS[key] = (Kref, int(bnd.sum()))
    return _CELL_REFS[key]


def cell_traces(field: CoefficientField, domain: TriadicCube | None = None,
                resolution: int = 1) -> BoundaryTraces:
    """Boundary traces of every unit cell of a cube, batched.

    At resolution 1 a cell is one element and all its nodes are boundary
    nodes; at resolution r the cell's interior element nodes are eliminated.
    """
    domain = domain or field.domain
    d, r = field.dim, int(resolution)
    if r < 1:
        raise ValueError("resolution must be >= 1")
    if not field.domain.contains(domain):
        raise ValueError("cube not contained in the field window")
    Kref, nb = _cell_reference(d, r)
    a = field.s_cells[domain.slices] + field.k_cells[domain.slices]
    K = np.einsum("...ab,abij->...ij", a, Kref)
    return BoundaryTraces(dim=d, level=0, resolution=r, origin=domain.offset,
                          step=1, Lam=_eliminate(K, nb))


_MERGE_MAPS: dict = {}
_GEOMETRY: dict = {}


def _merge_maps(dim: int, level: int, r: int):
    """Where a level-``level`` parent puts its children's boundary nodes.

    Returns (maps, nb, nu): ``maps[j]`` holds, for child j of the 3^dim in C
    order, the positions of that child's boundary nodes among the nu union
    nodes; the union lists the parent's nb boundary nodes first, then the
    skeleton, each in C order.  Indices only, built once per
    (dim, level, resolution).
    """
    key = (dim, level, r)
    if key not in _MERGE_MAPS:
        mc = r * 3 ** (level - 1)                 # elements per child axis
        child = np.indices((mc + 1,) * dim).reshape(dim, -1)
        child = child[:, _on_boundary(child, mc)]
        shape = (3 * mc + 1,) * dim
        coords = np.indices(shape).reshape(dim, -1)
        bnd = _on_boundary(coords, 3 * mc)
        skeleton = np.any(coords % mc == 0, axis=0) & ~bnd
        order = np.concatenate([np.nonzero(bnd)[0], np.nonzero(skeleton)[0]])
        pos = np.full(coords.shape[1], -1)
        pos[order] = np.arange(len(order))
        maps = np.stack([pos[np.ravel_multi_index(child + mc * np.array(j)[:, None], shape)]
                         for j in np.ndindex(*(3,) * dim)])
        _MERGE_MAPS[key] = (maps, int(bnd.sum()), len(order))
    return _MERGE_MAPS[key]


def _boundary_geometry(dim: int, level: int, r: int):
    """(X_b, G_b) of a level-``level`` cube: its boundary nodes' coordinates
    in cell units from the cube's centre, (nb, dim), and G u = int grad u on
    them, (dim, nb), a product of 1D hat-function integrals.  The columns of
    ``Lam`` sum to zero, so the origin of X does not change the loads.
    Built once per (dim, level, resolution)."""
    key = (dim, level, r)
    if key not in _GEOMETRY:
        m = r * 3 ** level                        # elements per axis
        c = np.indices((m + 1,) * dim).reshape(dim, -1)
        c = c[:, _on_boundary(c, m)]
        hat = np.where((c == 0) | (c == m), 0.5, 1.0) / r     # int phi_i
        slope = (c == m) - (c == 0).astype(float)             # int phi_i'
        _GEOMETRY[key] = ((c.T - m / 2) / r, slope * hat.prod(axis=0) / hat)
    return _GEOMETRY[key]


def merge_traces(children: BoundaryTraces, stride: int = 3) -> BoundaryTraces:
    """Traces of the cubes one level up, each merged from a 3^d block of
    children: stride 3 gives the partition, stride 1 every block on the
    children's lattice.

    The children's maps are added onto the union of their boundary nodes
    and the skeleton (the union nodes off the parent boundary) is
    eliminated, batched over all parents.
    """
    d = children.dim
    maps, nb, nu = _merge_maps(d, children.level + 1, children.resolution)
    m = children.Lam.shape[:d]
    M = tuple((mi - 3) // stride + 1 for mi in m)
    Lam = np.zeros(M + (nu, nu))
    for j, ix in zip(np.ndindex(*(3,) * d), maps):
        block = tuple(slice(i, i + stride * (n - 1) + 1, stride)
                      for i, n in zip(j, M))
        Lam[..., ix[:, None], ix] += children.Lam[block]
    return BoundaryTraces(dim=d, level=children.level + 1,
                          resolution=children.resolution,
                          origin=children.origin, step=children.step * stride,
                          Lam=_eliminate(Lam, nb))


def condense(field: CoefficientField, domain: TriadicCube | None = None,
             resolution: int = 1):
    """Yield the boundary traces of every partition cube of the domain,
    scale by scale from the cells (level 0) up to the domain itself."""
    domain = domain or field.domain
    traces = cell_traces(field, domain, resolution)
    yield traces
    while traces.level < domain.level:
        traces = merge_traces(traces)
        yield traces


def partition_traces(field: CoefficientField, k: int,
                     domain: TriadicCube | None = None,
                     resolution: int = 1) -> BoundaryTraces:
    """The traces of the scale-k partition of the domain (``condense``
    stopped at scale k)."""
    domain = domain or field.domain
    if not 0 <= k <= domain.level:
        raise ValueError(f"scale k={k} outside [0, {domain.level}]")
    for traces in condense(field, domain, resolution):
        if traces.level == k:
            return traces


def trace_loads(traces: BoundaryTraces):
    """Maximizers of the 2d unit loads on every cube of a trace batch.

    With boundary node 0 pinned to zero, Q v = L^T on the other boundary
    nodes.  Returns (V, LV, J, energy): the maximizers' values on those
    nodes, batch + (nb - 1, 2d), the batch of 2d x 2d matrices L V, and per
    load column the optimum J and the energy v^T Q v / (2|U|).
    """
    Q = traces.Q[..., 1:, 1:]
    Lt = np.swapaxes(traces.L[..., 1:], -1, -2)
    V = np.linalg.solve(Q, Lt)
    LV = np.swapaxes(Lt, -1, -2) @ V
    vQv = np.einsum("...ic,...ic->...c", V, Q @ V)
    J = (np.diagonal(LV, axis1=-2, axis2=-1) - 0.5 * vQv) / traces.vol
    return V, LV, J, 0.5 * vQv / traces.vol


def flux_rhs(op: AssembledOperator, f_cells: np.ndarray) -> np.ndarray:
    """Nodal functional F_i = int f . grad phi_i for per-cell-constant f."""
    d = op.dim
    f = np.asarray(f_cells, float)
    for ax in range(d):
        f = np.repeat(f, op.resolution, axis=ax)
    fE = f.reshape(-1, d)
    EG = reference_tensors(d)[2]
    out = np.zeros(op.N)
    hG = op.h ** (d - 1)
    for i in range(EG.shape[1]):
        out += np.bincount(op.gid[:, i], weights=(fE @ EG[:, i]) * hG,
                           minlength=op.N)
    return out


def solve_dirichlet(op: AssembledOperator, boundary_values: np.ndarray,
                    load: np.ndarray | None = None) -> np.ndarray:
    """Solve (K u)_i = load_i at the interior nodes with u = g on the boundary.

    ``boundary_values`` is aligned with ``op.boundary``; ``load`` is a nodal
    functional, zero if not given (``-flux_rhs(op, f)`` for the equation
    -div(a grad u) = div f, or an exact right-hand side assembled by
    ``quadrature_flux_rhs``).  The interior equations are solved with the
    operator's nested-dissection LU (``_interior_solver``); the residual
    relative to |r| + 1 is kept as ``op.residual`` and must not exceed 1e-9.
    """
    u = np.zeros(op.N)
    u[op.boundary] = boundary_values
    order, K_II, lu = _interior_solver(op)
    r = -(op.K @ u)[order]
    if load is not None:
        r += load[order]
    uI = lu.solve(r)
    res = np.linalg.norm(K_II @ uI - r)
    op.residual = res / (np.linalg.norm(r) + 1.0)
    if op.residual > 1e-9:
        raise SolverError(f"interior solve residual {res:.3e}")
    u[order] = uI
    return u


def solve_neumann(op: AssembledOperator, f_cells: np.ndarray) -> np.ndarray:
    """Solve div(a grad u) = div f with no-flux boundary n.(a grad u - f) = 0.

    The constant in f is fixed first (cell mean removed), so the solution has
    zero average flux, which is checked to 1e-9 relative to |f| + 1; node 0
    is pinned and the result shifted to zero mean.  The LU of K without node
    0 is factored once per operator, in the nested-dissection order of the
    node grid (``_nd_order``) with no further column permutation.
    """
    d = op.dim
    f = np.asarray(f_cells, float).reshape(-1, d)
    f = f - f.mean(axis=0)
    F = flux_rhs(op, f.reshape((op.cells_per_axis,) * d + (d,)))
    if op._neu is None:
        order = _nd_order(d, op.nodes_per_axis)
        order = order[order != 0]
        op._neu = (order, spla.splu(op.K[order][:, order].tocsc(),
                                    permc_spec="NATURAL"))
    order, lu = op._neu
    u = np.zeros(op.N)
    u[order] = lu.solve(F[order])
    u = u - u[op.gid].mean()     # a Q1 element's mean is its corners' mean
    flux_avg = cell_flux_averages(op, u).reshape(-1, d).mean(axis=0)
    if np.linalg.norm(flux_avg) > 1e-9 * (np.linalg.norm(f) + 1.0):
        raise SolverError(f"Neumann flux average {flux_avg} not zero")
    return u


def energy_seminorm_sq(op: AssembledOperator, u: np.ndarray) -> float:
    """Volume-normalized energy  avg grad u . s grad u,  read off K as the
    skew part k adds grad u . k grad u = 0."""
    return float(u @ (op.K @ u)) / op.vol


def element_gradient_averages(op: AssembledOperator, u: np.ndarray) -> np.ndarray:
    """Average of grad u over each element, shape (n_elements, dim)."""
    EG = reference_tensors(op.dim)[2]
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
    slope = np.array([-1.0, 1.0]) / op.h             # the 1D hats' derivatives
    corners = np.indices((op.elements_per_axis,) * d).reshape(d, -1).T * op.h
    out = np.zeros(op.N)
    for combo in itertools.product(range(order), repeat=d):
        xi = pts1[list(combo)]
        w = np.prod(wts1[list(combo)]) * op.h ** d
        x = corners + xi * op.h                      # (nE, d) physical points
        fx = np.asarray(vector_fn(x), float)         # (nE, d)
        # (d, 2^d) shape-function gradients at xi: products over the axes of
        # the 1D hats and their slopes, corners in C order
        hats = [np.array([1.0 - t, t]) for t in xi]
        gphi = np.array([functools.reduce(np.kron, [slope if ax == a else hats[ax]
                                                    for ax in range(d)])
                         for a in range(d)])
        out += np.bincount(op.gid.ravel(), weights=(w * (fx @ gphi)).ravel(),
                           minlength=op.N)
    return out
