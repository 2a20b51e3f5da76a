"""Q1 finite elements for nonsymmetric divergence-form operators.

Assembles the stiffness K of ``-div(a grad .)`` with ``a`` constant per
unit cell on triadic cubes, and condenses it onto cube boundaries.

``A(U)`` comes from boundary traces condensed from the cells up.  Each cube
carries only the Schur complement ``Lam`` of ``K`` onto its boundary nodes
(the discrete Dirichlet-to-Neumann map).  A parent's interior rows of ``K``
touch only its own children's elements, so merging its 3^d children's maps
and eliminating the shared skeleton is exact (nested dissection).  The merge
goes one axis at a time, as in the pairwise merges of HPS: d steps, each
joining 3 boxes along one axis and eliminating only their two interface
planes, so no step solves for the whole skeleton at once.  All cubes of one
scale share one node grid, so every step is batched over them; merged with
stride 1 (the half-overlap lattice), a box built by one step is shared by
the 3 boxes of the next step that contain it.  ``condense`` builds every
trace from cell arrays; a trace also flags the cubes whose cells are all
equal, and carries their corner cell, so the closed form of a constant cube
reads only traces.  The energy form and the loads of the a-harmonic
extension E follow from ``Lam``:
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
Both solves take their loads from ``quadrature_flux_rhs`` and go through one
factor-and-solve, ``_solve``: one SuperLU per operator and problem of K on
the problem's free nodes in a nested-dissection order, and one 1e-9
residual check.  That block is gathered from K's data straight into CSC,
through the free nodes, map and pattern cached per grid shape and problem
(``_free_system``), and it is the one matrix the operator keeps beside its
LU.  SciPy is imported only in ``assemble``, ``_free_system`` and
``_solve``, so the trace path, and every command that solves no nodal
system, never loads it.  Every per-shape table here is a ``functools.cache``
function of its shape.  The index arrays of assembly and of that order are
int32, built once per grid shape without sorting: K's CSR pattern in closed
form from each node's 3^d stencil neighbours, one axis at a time, and the
order by a recursion memoized per box shape.  Every functional here sees
only gradients, so the additive constant is fixed by pinning node 0 (a
corner, hence a boundary node) to zero and removing it from the system; a
Neumann solution is then shifted to zero mean.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

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
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=single_blas_thread) as pool:
        yield lambda fn, jobs: list(pool.map(
            fn, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


def _read_only(*arrays) -> tuple:
    """The arrays, made read-only: a memoized table is shared by every caller."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.cache
def reference_tensors(dim: int):
    """Exact unit-element integrals of Q1 shape-function products.

    Returns (locs, EK, EG): local corner offsets, the (dim,dim,2^d,2^d)
    tensor of  int d_a phi_i  d_b phi_j  and the (dim,2^d) tensor of
    int d_a phi_i.
    """
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
    return _read_only(locs, EK, EG)


@dataclass
class AssembledOperator:
    """The stiffness K of one cube at one resolution, with its node grid."""

    dim: int
    resolution: int
    h: float
    vol: float
    nodes_per_axis: int
    N: int
    K: object              # scipy.sparse.csr_matrix, (N, N)
    interior: np.ndarray
    boundary: np.ndarray
    gid: np.ndarray        # (n_elements, 2^dim) global node ids per element
    a_elems: np.ndarray    # (n_elements, dim, dim)
    # |K_ff u_f - r| / (|r| + 1) of the last nodal solve, the quantity
    # ``_solve`` checks against its tolerance
    residual: float = float("nan")
    # "dirichlet" or "neumann" -> (K on its free nodes in CSC, its LU),
    # filled by ``_solve``
    _lu: dict = dc_field(default_factory=dict, init=False, repr=False)

    @property
    def elements_per_axis(self) -> int:
        return self.nodes_per_axis - 1

    @property
    def cells_per_axis(self) -> int:
        return self.elements_per_axis // self.resolution


@functools.cache
def _grid_shape(dim: int, npa: int):
    """What assembly needs of an npa^dim node grid that depends on nothing else.

    Returns (gid, interior, boundary, indptr, indices, slot): the global node
    ids of each element's corners, the interior and boundary node ids (C
    order), and the CSR pattern of the stiffness together with ``slot``, the
    position in its data of each (element, i, j) triplet, element-major.
    The pattern is closed-form: row p holds p + o for every offset o in
    {-1, 0, 1}^dim that stays on the grid (each such pair shares an
    element), and offsets in C order are columns in ascending order, so a
    triplet's slot is its row's start plus the rank of its offset among the
    row's.  Per axis, an offset's rank among the 2 or 3 that stay on the grid
    and their count are a table over the coordinate, and the row's rank is
    the mixed-radix number of those digits, so every array is built one axis
    at a time from 1D tables.  Read-only int32 indices, built once per
    (dim, nodes_per_axis); a grid whose pattern would reach 2^31 entries is
    refused before anything is allocated.
    """
    mE, nnz = npa - 1, (3 * npa - 2) ** dim
    if nnz >= 2 ** 31:
        raise ValueError(f"the stiffness of a {npa}^{dim} node grid has "
                         f"{3 * npa - 2}^{dim} = {nnz} entries; int32 indices "
                         "address fewer than 2^31")
    locs = reference_tensors(dim)[0]

    def along(vec, ax):     # axis 0 of vec laid along axis ax of the grid
        return vec.reshape(vec.shape[:1] + (1,) * (dim - 1 - ax) + vec.shape[1:])

    # per axis and coordinate: which offsets -1, 0, 1 stay on the grid,
    # the rank of each among those, and their count
    valid = np.add.outer(np.arange(npa), np.arange(-1, 2))
    valid = (valid >= 0) & (valid <= mE)
    rank = np.cumsum(valid, axis=1, dtype=np.int32) - 1
    count = valid.sum(axis=1, dtype=np.int32)
    indptr = np.zeros(npa ** dim + 1, np.int32)
    np.cumsum(functools.reduce(np.multiply, [along(count, a) for a in range(dim)]),
              out=indptr[1:])
    start = indptr[:-1].reshape((npa,) * dim)

    def position(box, offsets):
        """Where in the data each row of a box of the grid holds each
        column offsets[:, t]: box shape + (t,)."""
        digits = 0
        for a, at in enumerate(box):
            digits = (digits * along(count[at, None], a)
                      + along(rank[at][:, offsets[a] + 1], a))
        return start[box][..., None] + digits

    ids = np.arange(npa ** dim, dtype=np.int32).reshape((npa,) * dim)
    indices = np.empty(nnz, np.int32)
    for o in itertools.product((-1, 0, 1), repeat=dim):
        rows = tuple(slice(max(0, -c), npa - max(0, c)) for c in o)
        cols = tuple(slice(max(0, c), npa + min(0, c)) for c in o)
        indices[position(rows, np.array(o)[:, None])[..., 0]] = ids[cols]
    corner = [tuple(slice(c, c + mE) for c in li) for li in locs]
    gid = np.stack([ids[at] for at in corner], axis=-1)
    slot = np.empty((mE,) * dim + (len(locs),) * 2, np.int32)
    for i, li in enumerate(locs):
        slot[..., i, :] = position(corner[i], (locs - li).T)
    # interior nodes: all three offsets stay on the grid along every axis
    inner = functools.reduce(np.logical_and, [along(count == 3, a) for a in range(dim)])
    inner = np.broadcast_to(inner, (npa,) * dim).ravel()
    return _read_only(gid.reshape(-1, len(locs)), np.flatnonzero(inner).astype(np.int32),
                      np.flatnonzero(~inner).astype(np.int32), indptr, indices,
                      slot.reshape(-1))


def assemble(field: CoefficientField, cube: TriadicCube | None = None,
             resolution: int = 1) -> AssembledOperator:
    """Assemble the stiffness K on a cube of the field.

    The element ids, the interior/boundary split and the CSR pattern of K
    depend only on the node grid and come from a cache per
    (dim, nodes_per_axis); K is then one ``bincount`` of the element
    triplets into that pattern.
    """
    import scipy.sparse as sp
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


@functools.cache
def _nd_order(shape: tuple) -> np.ndarray:
    """Nested-dissection elimination order of a box of nodes of ``shape``.

    Returns the box's C-order node ids in elimination order.  A box of
    nodes is split by the middle node plane of its longest axis: the two
    halves come first, each ordered the same way, then the plane.  A Q1
    element spans one grid step, so the plane separates the halves and the
    LU fills only within the separators (George, SIAM J. Numer. Anal. 10,
    1973).  Boxes of at most 16 nodes keep C order.  Read-only int32
    indices, built once per shape, the halves' orders too.
    """
    ids = np.arange(int(np.prod(shape)), dtype=np.int32).reshape(shape)
    if ids.size <= 16:
        order = ids.ravel()
    else:
        ax = int(np.argmax(shape))
        mid = shape[ax] // 2
        cut = (slice(None),) * ax
        halves = [ids[cut + (part,)] for part in (slice(None, mid), slice(mid + 1, None))]
        order = np.concatenate([half.ravel()[_nd_order(half.shape)] for half in halves]
                               + [ids[cut + (mid,)].ravel()])
    return _read_only(order)[0]


# ---------------------------------------------------------------------------
# boundary-trace condensation


@dataclass
class BoundaryTraces:
    """Boundary data of a batch of same-level cubes at one resolution.

    ``Lam`` is the Schur complement of K onto each cube's boundary nodes (C
    order of its node grid).  The energy form ``Q = E^T S E`` and the loads
    ``L = [B; G] E`` of the a-harmonic extension E are derived from it:
    ``Q = sym(Lam)`` as S = sym(K), and ``L = [X_b^T Lam; G_b]`` as B = X^T K
    and G vanishes on interior nodes.  The batch axes come first.  ``const``
    flags the cubes whose cells all have the s + k of their corner cell, of
    s ``s0`` and k ``k0``.  ``const=None`` flags no cube, for ``condensed_A``
    to solve every one; such traces are not merged.
    """

    dim: int
    level: int
    resolution: int
    Lam: np.ndarray        # batch + (nb, nb)
    const: np.ndarray | None   # batch, bool
    s0: np.ndarray         # batch + (dim, dim)
    k0: np.ndarray         # batch + (dim, dim)

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
        cut = slice(start, stop)
        return replace(self, Lam=self.Lam[cut], const=self.const[cut],
                       s0=self.s0[cut], k0=self.k0[cut])


def _on_boundary(coords: np.ndarray, m) -> np.ndarray:
    """Which nodes of a grid with m elements per axis (a number, or one per
    axis as a (dim, 1) array) lie on its boundary."""
    return np.any((coords == 0) | (coords == m), axis=0)


def _eliminate(Lam, nb: int):
    """Condense batched maps onto their first ``nb`` nodes: the trailing
    nodes take their a-harmonic values w_s = -X w_b, X = Lam_ss^{-1} Lam_sb."""
    if Lam.shape[-1] == nb:
        return Lam
    X = np.linalg.solve(Lam[..., nb:, nb:], Lam[..., nb:, :nb])
    return Lam[..., :nb, :nb] - Lam[..., :nb, nb:] @ X


@functools.cache
def _cell_reference(dim: int, r: int):
    """Unit-coefficient stiffness of one cell.

    Returns (Kref, nb): the (dim, dim, n, n) tensor whose contraction with a
    cell's ``a`` is its K, and the number of boundary nodes; the cell's
    (r+1)^dim nodes are ordered boundary first, then interior, each in C
    order.
    """
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
    return _read_only(Kref)[0], int(bnd.sum())


def _box_merge(shape: tuple, axes: tuple):
    """Index maps of one merge step: 3^g boxes of ``shape`` elements per
    axis, placed side by side along the g ``axes``, onto the merged box.

    Returns (maps, nb, nu): ``maps[j]`` holds, for box j of the 3^g in C
    order, the positions of that box's boundary nodes among the nu union
    nodes; the union lists the merged box's nb boundary nodes first, then
    the nu - nb interface nodes off it, each in C order of its node grid.
    """
    d, axes = len(shape), list(axes)
    box = np.array(shape)[:, None]
    big = box.copy()
    big[axes] *= 3
    child = np.indices(tuple(box[:, 0] + 1)).reshape(d, -1)
    child = child[:, _on_boundary(child, box)]
    coords = np.indices(tuple(big[:, 0] + 1)).reshape(d, -1)
    bnd = _on_boundary(coords, big)
    inner = np.any(coords[axes] % box[axes] == 0, axis=0) & ~bnd
    order = np.concatenate([np.nonzero(bnd)[0], np.nonzero(inner)[0]])
    pos = np.full(coords.shape[1], -1)
    pos[order] = np.arange(len(order))
    shift = np.zeros((d, 1), dtype=int)
    maps = []
    for j in np.ndindex(*(3,) * len(axes)):
        shift[axes, 0] = np.array(j) * box[axes, 0]
        maps.append(pos[np.ravel_multi_index(child + shift, tuple(big[:, 0] + 1))])
    return np.stack(maps), int(bnd.sum()), len(order)


@functools.cache
def _merge_steps(dim: int, level: int, r: int):
    """The steps that merge a 3^dim block of children into a level-``level``
    parent, one axis at a time (the pairwise merges of HPS: Gillman and
    Martinsson, SISC 36, 2014).  Returns a tuple of (axes, maps, nb, nu),
    with (maps, nb, nu) as in ``_box_merge``: step t merges 3 boxes along
    axis t, which are rectangular after the first step, and eliminates the
    nodes of its two interface planes off the merged box's boundary.  A
    leading step whose interface planes hold no such node (at resolution 1,
    every step of the cells' merge but the last) is fused into the next one.
    Indices only, built once per (dim, level, resolution).
    """
    shape = [r * 3 ** (level - 1)] * dim      # elements per child axis
    steps, axes = [], ()
    for ax in range(dim):
        axes += (ax,)
        maps, nb, nu = _box_merge(tuple(shape), axes)
        if nu == nb and ax < dim - 1:
            continue
        for a in axes:
            shape[a] *= 3
        steps.append((axes, *_read_only(maps), nb, nu))
        axes = ()
    return tuple(steps)


@functools.cache
def _boundary_geometry(dim: int, level: int, r: int):
    """(X_b, G_b) of a level-``level`` cube: its boundary nodes' coordinates
    in cell units from the cube's centre, (nb, dim), and G u = int grad u on
    them, (dim, nb), a product of 1D hat-function integrals.  The columns of
    ``Lam`` sum to zero, so the origin of X does not change the loads.
    Built once per (dim, level, resolution)."""
    m = r * 3 ** level                        # elements per axis
    c = np.indices((m + 1,) * dim).reshape(dim, -1)
    c = c[:, _on_boundary(c, m)]
    hat = np.where((c == 0) | (c == m), 0.5, 1.0) / r     # int phi_i
    slope = (c == m) - (c == 0).astype(float)             # int phi_i'
    return _read_only((c.T - m / 2) / r, slope * hat.prod(axis=0) / hat)


def merge_traces(children: BoundaryTraces, stride: int = 3) -> BoundaryTraces:
    """Traces of the cubes one level up, each merged from a 3^d block of
    children: stride 3 gives the partition, stride 1 every block on the
    children's lattice.

    The block is merged in the steps of ``_merge_steps``, one axis at a time
    and batched over all parents.  A step adds 3 boxes' maps onto the union
    of their boundary nodes, through flat indices into a (batch, nu * nu)
    view, and eliminates only its two interface planes.  Its boxes are taken
    with the stride along its axis, so with stride 1 each box that a step
    builds is merged once and shared by the 3 boxes of the next step that
    contain it.  A merged box is constant when its boxes are and their
    corner cells have the ``s + k`` of its own corner cell, the first box's.
    """
    d = children.dim
    Lam, const, s0, k0 = children.Lam, children.const, children.s0, children.k0
    for axes, maps, nb, nu in _merge_steps(d, children.level + 1,
                                           children.resolution):
        M = tuple((n - 3) // stride + 1 if a in axes else n
                  for a, n in enumerate(Lam.shape[:d]))
        blocks = [tuple(slice(at[a], at[a] + stride * (n - 1) + 1, stride)
                        if a in at else slice(None) for a, n in enumerate(M))
                  for at in (dict(zip(axes, j)) for j in np.ndindex(*(3,) * len(axes)))]
        union = np.zeros(M + (nu * nu,))
        flats = (maps[:, :, None] * nu + maps[:, None, :]).reshape(len(maps), -1)
        union[..., flats[0]] = Lam[blocks[0]].reshape(M + (-1,))
        for block, flat in zip(blocks[1:], flats[1:]):
            union[..., flat] += Lam[block].reshape(M + (-1,))
        Lam = _eliminate(union.reshape(M + (nu, nu)), nb)
        a0, first = s0 + k0, blocks[0]
        const = np.logical_and.reduce(
            [const[b] & np.all(a0[b] == a0[first], axis=(-2, -1)) for b in blocks])
        s0, k0 = s0[first], k0[first]
    return BoundaryTraces(dim=d, level=children.level + 1,
                          resolution=children.resolution, Lam=Lam,
                          const=const, s0=s0, k0=k0)


def condense(s_cells: np.ndarray, k_cells: np.ndarray, resolution: int = 1):
    """Yield the boundary traces of every partition cube of an array of
    cells, scale by scale from the cells (level 0) up, while every batch
    axis holds 3 cubes or more.  ``s_cells`` and ``k_cells`` are shaped
    (cells per axis) + (dim, dim); the array need not be a cube:
    ``coarsegrain.coarse_grain_windows`` lays windows side by side.

    At resolution 1 a cell is one element and all its nodes are boundary
    nodes; at resolution r the cell's interior element nodes are eliminated.
    """
    d, r = s_cells.shape[-1], int(resolution)
    if r < 1:
        raise ValueError("resolution must be >= 1")
    Kref, nb = _cell_reference(d, r)
    K = np.einsum("...ab,abij->...ij", s_cells + k_cells, Kref)
    traces = BoundaryTraces(dim=d, level=0, resolution=r, Lam=_eliminate(K, nb),
                            const=np.ones(s_cells.shape[:d], dtype=bool),
                            s0=s_cells, k0=k_cells)
    yield traces
    while min(traces.Lam.shape[:d]) >= 3:
        traces = merge_traces(traces)
        yield traces


def partition_traces(field: CoefficientField, k: int,
                     domain: TriadicCube | None = None,
                     resolution: int = 1) -> BoundaryTraces:
    """The traces of the scale-k partition of the domain (``condense`` of
    its cells, stopped at scale k)."""
    domain = domain or field.domain
    if not 0 <= k <= domain.level:
        raise ValueError(f"scale k={k} outside [0, {domain.level}]")
    if not field.domain.contains(domain):
        raise ValueError("cube not contained in the field window")
    sl = domain.slices
    for traces in condense(field.s_cells[sl], field.k_cells[sl], resolution):
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


@functools.cache
def _free_system(dim: int, npa: int, problem: str):
    """The free nodes of a ``problem`` on an npa^dim node grid, in elimination
    order, the CSC pattern of K on them and where each of its entries lies in
    K's CSR data.

    A "dirichlet" problem solves for the interior nodes, in the
    nested-dissection order of the interior grid; a "neumann" one for every
    node but the pinned node 0, in that order of the node grid
    (``_nd_order``).  Returns (free, take, indptr, indices), so that
    ``K.data[take]`` with ``indptr`` and ``indices`` is
    ``K[free][:, free].tocsc()``: columns in elimination order, rows
    ascending within each.  Every operator on the grid has the same pattern,
    so this is that indexing done once, on a matrix whose entries are their
    own positions in the data.  Read-only int32 indices, built once per grid
    shape and problem.
    """
    import scipy.sparse as sp
    _, interior, _, K_indptr, K_indices, _ = _grid_shape(dim, npa)
    if problem == "dirichlet":
        free = interior[_nd_order((npa - 2,) * dim)]
    else:
        assert problem == "neumann", problem
        order = _nd_order((npa,) * dim)
        free = order[order != 0]
    positions = sp.csr_matrix((np.arange(len(K_indices), dtype=np.int32),
                               K_indices, K_indptr), shape=(npa ** dim,) * 2)
    block = positions[free][:, free].tocsc()
    return _read_only(free, block.data, block.indptr, block.indices)


def _solve(op: AssembledOperator, problem: str, u: np.ndarray,
           load: np.ndarray | None) -> np.ndarray:
    """Fill in u at the free nodes of ``problem`` so that (K u)_i = load_i
    (zero if not given) there, and return it.  K on the free nodes, in
    elimination order, is gathered from K's data into CSC (``_free_system``)
    and factored once per operator and problem (``op._lu``) by SuperLU with
    no further column permutation; that one matrix also serves the residual,
    which, relative to |r| + 1, is kept as ``op.residual`` and must not
    exceed 1e-9."""
    free, take, indptr, indices = _free_system(op.dim, op.nodes_per_axis, problem)
    if problem not in op._lu:
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
        K_ff = sp.csc_matrix((op.K.data[take], indices, indptr), shape=(len(free),) * 2)
        op._lu[problem] = (K_ff, splu(K_ff, permc_spec="NATURAL"))
    K_ff, lu = op._lu[problem]
    r = -(op.K @ u)[free]
    if load is not None:
        r += load[free]
    uf = lu.solve(r)
    res = np.linalg.norm(K_ff @ uf - r)
    op.residual = res / (np.linalg.norm(r) + 1.0)
    if op.residual > 1e-9:
        raise SolverError(f"interior solve residual {res:.3e}")
    u[free] = uf
    return u


def solve_dirichlet(op: AssembledOperator, boundary_values: np.ndarray,
                    load: np.ndarray | None = None) -> np.ndarray:
    """Solve (K u)_i = load_i at the interior nodes with u = g on the boundary.

    ``boundary_values`` is aligned with ``op.boundary``; ``load`` is a nodal
    functional, zero if not given, assembled by ``quadrature_flux_rhs``
    (minus the functional of f for the equation -div(a grad u) = div f).
    """
    u = np.zeros(op.N)
    u[op.boundary] = boundary_values
    return _solve(op, "dirichlet", u, load)


def solve_neumann(op: AssembledOperator, f_cells: np.ndarray) -> np.ndarray:
    """Solve div(a grad u) = div f with no-flux boundary n.(a grad u - f) = 0.

    The constant in f is fixed first (cell mean removed), so the solution has
    zero average flux, which is checked to 1e-9 relative to |f| + 1.  The
    load is the order-1 rule of ``quadrature_flux_rhs``, exact for cellwise
    f.  Node 0 is pinned, the others are solved for, and the result is
    shifted to zero mean.
    """
    d = op.dim
    f = np.asarray(f_cells, float).reshape(-1, d)
    f = (f - f.mean(axis=0)).reshape((op.cells_per_axis,) * d + (d,))
    F = quadrature_flux_rhs(op, lambda x: f[tuple(x.astype(int).T)], order=1)
    u = _solve(op, "neumann", np.zeros(op.N), F)
    u = u - u[op.gid].mean()     # a Q1 element's mean is its corners' mean
    flux_avg = cell_averages(op, u)[1].reshape(-1, d).mean(axis=0)
    if np.linalg.norm(flux_avg) > 1e-9 * (np.linalg.norm(f) + 1.0):
        raise SolverError(f"Neumann flux average {flux_avg} not zero")
    return u


def energy_seminorm_sq(op: AssembledOperator, u: np.ndarray) -> float:
    """Volume-normalized energy  avg grad u . s grad u,  read off K as the
    skew part k adds grad u . k grad u = 0."""
    return float(u @ (op.K @ u)) / op.vol


def cell_averages(op: AssembledOperator, u: np.ndarray):
    """Averages of grad u and of a grad u over each unit cell, each shaped
    (cells,)*dim + (dim,); a is constant per element."""
    grad = (u[op.gid] @ reference_tensors(op.dim)[2].T) / op.h
    flux = np.einsum("eab,eb->ea", op.a_elems, grad)
    shape = (op.elements_per_axis,) * op.dim + (op.dim,)
    return tuple(block_means(x.reshape(shape), op.dim, op.resolution)
                 for x in (grad, flux))


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
