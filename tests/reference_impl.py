"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way — explicit Python loops,
dense linear algebra, no shared helpers with the package — so that agreement
with the vectorized/sparse production code is meaningful.  The exception is
the saddle-point oracle (``kkt_maximizers``, ``kkt_A``): it takes the
package's assembled operator but maximizes J by the constrained (KKT)
formulation over all nodes, which the package does not use, so it checks
the trace path's maximizers, extended to the nodes, and the batched
condensation.  The
default-order solves (``default_order_dirichlet``, ``default_order_neumann``)
also take the operator, and factor its K in SuperLU's own (COLAMD) column
order instead of the package's nested-dissection order.  These oracles read
only the operator's K, a_elems and node grid; ``nodal_functionals`` derives
the energy form and the volume functionals from them, and is checked
against ``loop_assembly``.  ``one_step_merge`` is the boundary-trace merge
that adds all 3^d children onto one union and eliminates the whole
skeleton in one dense solve; the package merges one axis at a time, and
this checks it.  ``sorted_grid_shape`` and ``recursive_nd_order`` build
the package's cached grid indices the direct way, by sorting the assembly
triplets and by recursing over the boxes.  ``cellwise_flux_load`` builds
the load of cellwise data one element at a time, from the slopes of the
hat functions.  ``forge_field_file`` writes the
bad field files that the package can no longer build, for the tests of the
load-time check.  ``eigvalsh_cell_check`` and ``solve_inv_A_from_blocks``
are the field check and the codec as LAPACK does them, one call per cell:
the package certifies cells and inverts ``s_star`` in closed form, and
these check it.
"""
import dataclasses
import hashlib
import itertools
import json

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cghom.coarsegrain import _require_skew, _top_maximizers, blocks_from_A


def magnitude(value):
    """|value| of a scalar, vector (Euclidean) or matrix (spectral) cell."""
    value = np.asarray(value, float)
    if value.ndim == 0:
        return float(abs(value))
    if value.ndim == 1:
        return float(np.linalg.norm(value))
    return float(np.linalg.svd(value, compute_uv=False)[0])


def cube_mean(values, dim, corner, side):
    """Plain mean of the cells in [corner, corner + side)^dim."""
    sl = tuple(slice(c, c + side) for c in corner)
    block = values[sl]
    return block.reshape(-1, *values.shape[dim:]).mean(axis=0)


def partition_offsets(m, side, dim):
    starts = range(0, m, side)
    grids = np.meshgrid(*[list(starts)] * dim, indexing="ij")
    return [tuple(int(g[idx]) for g in grids) for idx in np.ndindex(grids[0].shape)]


def half_overlap_offsets(m, k, dim):
    """Offsets of contained side-3^k cubes on the 3^{k-1} lattice (cells)."""
    side = 3 ** k
    step = 3 ** (k - 1) if k >= 1 else 1
    starts = [z for z in range(0, m - side + 1, step)]
    grids = np.meshgrid(*[starts] * dim, indexing="ij")
    return [tuple(int(g[idx]) for g in grids) for idx in np.ndindex(grids[0].shape)]


def bnorm_loops(values, t, dim, tail=True):
    """Scale-discounted sup of partition-cube averages, by brute force."""
    values = np.asarray(values, float)
    m = values.shape[0]
    n = round(np.log(m) / np.log(3.0))
    total = 0.0
    for k in range(0, n + 1):
        side = 3 ** k
        worst = max(magnitude(cube_mean(values, dim, z, side))
                    for z in partition_offsets(m, side, dim))
        total += 3.0 ** (2 * t * (k - n)) * worst
    if tail:
        # below the cell scale every cube average is a single cell value
        worst_cell = max(magnitude(values[idx])
                         for idx in np.ndindex(*values.shape[:dim]))
        r = 3.0 ** (-2 * t)
        total += worst_cell * 3.0 ** (-2 * t * n) * r / (1.0 - r)
    return total


def ring_norm_loops(values, s, dim, tail=False, scale_origin=0):
    """Half-overlap-lattice dual norm, by brute force."""
    values = np.asarray(values, float)
    m = values.shape[0]
    n = round(np.log(m) / np.log(3.0))
    total = 0.0
    for k in range(0, n + 1):
        side = 3 ** k
        offsets = half_overlap_offsets(m, k, dim)
        sq = [float(np.sum(np.asarray(cube_mean(values, dim, z, side)) ** 2))
              for z in offsets]
        total += 3.0 ** (2 * s * (k - scale_origin)) * float(np.mean(sq))
    if tail:
        sq = [float(np.sum(np.asarray(values[idx], float) ** 2))
              for idx in np.ndindex(*values.shape[:dim])]
        r = 3.0 ** (-2 * s)
        total += float(np.mean(sq)) * 3.0 ** (-2 * s * scale_origin) * r / (1.0 - r)
    return float(np.sqrt(total))


def ellipticity_loops(cache, s, t, tail=True, normalized=True):
    """(lambda_s, Lambda_t) recomputed scale by scale with explicit loops."""
    d = cache.dim
    n = cache.top_level
    sum_sinv = sum_b = 0.0
    for k in sorted(cache.A_by_scale):
        A = cache.A_by_scale[k]
        worst_sinv = worst_b = 0.0
        for idx in np.ndindex(*A.shape[:-2]):
            worst_sinv = max(worst_sinv, magnitude(A[idx][d:, d:]))
            worst_b = max(worst_b, magnitude(A[idx][:d, :d]))
        sum_sinv += 3.0 ** (2 * s * (k - n)) * worst_sinv
        sum_b += 3.0 ** (2 * t * (k - n)) * worst_b
        if k == 0 and tail:
            rs, rt = 3.0 ** (-2 * s), 3.0 ** (-2 * t)
            sum_sinv += worst_sinv * 3.0 ** (-2 * s * n) * rs / (1.0 - rs)
            sum_b += worst_b * 3.0 ** (-2 * t * n) * rt / (1.0 - rt)
    cs = (1.0 - 3.0 ** (-2 * s)) if normalized else 1.0
    ct = (1.0 - 3.0 ** (-2 * t)) if normalized else 1.0
    return 1.0 / (cs * sum_sinv), ct * sum_b


def order_slacks_loops(A_by_scale):
    """Per-cube minimum eigenvalues of the three order checks, cube by cube.

    Same layout as ``coarsegrain.order_slacks``: {k: {check: array}} for
    the scales k >= 1 with a check whose inputs are present.
    """
    out = {}
    for k in sorted(A_by_scale):
        if k == 0:
            continue
        A = A_by_scale[k]
        d = A.shape[-1] // 2
        swap = np.zeros((2 * d, 2 * d))
        swap[:d, d:] = swap[d:, :d] = np.eye(d)
        checks = {}
        if k - 1 in A_by_scale:
            checks["subadditivity"] = np.empty(A.shape[:-2])
        if 0 in A_by_scale:
            checks["sandwich_upper"] = np.empty(A.shape[:-2])
            checks["sandwich_lower"] = np.empty(A.shape[:-2])
        for idx in np.ndindex(*A.shape[:-2]):
            if "subadditivity" in checks:
                kids = [A_by_scale[k - 1][tuple(3 * i + j for i, j in zip(idx, sub))]
                        for sub in np.ndindex(*(3,) * d)]
                avg = sum(kids) / len(kids)
                checks["subadditivity"][idx] = np.linalg.eigvalsh(avg - A[idx])[0]
            if "sandwich_upper" in checks:
                side = 3 ** k
                cells = [A_by_scale[0][tuple(side * i + j for i, j in zip(idx, sub))]
                         for sub in np.ndindex(*(side,) * d)]
                avg = sum(cells) / len(cells)
                checks["sandwich_upper"][idx] = np.linalg.eigvalsh(avg - A[idx])[0]
                lower = swap @ np.linalg.inv(avg) @ swap
                checks["sandwich_lower"][idx] = np.linalg.eigvalsh(A[idx] - lower)[0]
        if checks:
            out[k] = checks
    return out


def nodal_functionals(op):
    """(S, G, B, mass) of an assembled operator, from its K and node grid.

    S = sym(K), since grad u . k grad u = 0 for the skew part k; B = X^T K
    for the node coordinates X, since Q1 reproduces x (the columns of K sum
    to zero, so X is taken from the cube centre); G u = int grad u and the
    mass weights int phi_i are products of 1D hat-function integrals.
    """
    K, d, m = op.K, op.dim, op.nodes_per_axis - 1
    Kt = K.T.tocsr()
    assert np.array_equal(Kt.indptr, K.indptr) and np.array_equal(Kt.indices, K.indices)
    S = sp.csr_matrix((0.5 * (K.data + Kt.data), K.indices, K.indptr), shape=K.shape)
    c = np.indices((m + 1,) * d).reshape(d, -1)
    B = (K.T @ ((c.T - m / 2) * op.h)).T
    hat = np.where((c == 0) | (c == m), 0.5, 1.0) * op.h     # int phi_i, per axis
    slope = (c == m) - (c == 0).astype(float)                # int phi_i', per axis
    mass = hat.prod(axis=0)
    G = np.stack([slope[a] * np.prod(np.delete(hat, a, axis=0), axis=0)
                  for a in range(d)])
    return S, G, B, mass


def brute_force_J(op, p, q):
    """Maximize the discrete functional over a dense constraint nullspace.

    The feasible set (discrete a-harmonic, mean zero) is the nullspace of the
    interior operator rows stacked with the mass row; the concave quadratic is
    maximized on an orthonormal basis of that space via dense least squares —
    no saddle-point system, no sparse factorization.
    """
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    S, G, B, mass = nodal_functionals(op)
    constraints = np.vstack([op.K[op.interior].toarray(), mass[None, :]])
    basis = scipy.linalg.null_space(constraints)
    ell = -B.T @ p + G.T @ q
    hess = basis.T @ (S @ basis)
    lin = basis.T @ ell
    y, *_ = np.linalg.lstsq(hess, lin, rcond=None)
    u = basis @ y
    return float((-0.5 * u @ (S @ u) + ell @ u) / op.vol)


def kkt_maximizers(op, pairs):
    """(J, V) of each (p, q) by the saddle-point system of one cube.

    Maximizing J over {u : K u = 0 at the interior nodes} is stationarity of
    its Lagrangian: [S C^T; C 0] [v; mu] = [loads; 0], C = the interior rows
    of K.  Node 0 is pinned (its row and column dropped) and v is shifted to
    zero mass-weighted mean; one sparse LU per call, nothing cached.
    """
    N = op.N
    S, G, B, mass = nodal_functionals(op)
    loads = np.stack([-B.T @ np.asarray(p, float)
                      + G.T @ np.asarray(q, float) for p, q in pairs], axis=1)
    C = op.K[op.interior][:, 1:]
    kkt = sp.bmat([[S[1:, 1:], C.T], [C, None]], format="csc")
    rhs = np.zeros((kkt.shape[0], len(pairs)))
    rhs[:N - 1] = loads[1:]
    V = np.zeros((N, len(pairs)))
    V[1:] = spla.splu(kkt).solve(rhs)[:N - 1]
    V -= (mass @ V) / op.vol
    vSv = np.einsum("ic,ic->c", V, S @ V)
    return (-0.5 * vSv + np.einsum("ic,ic->c", loads, V)) / op.vol, V


def kkt_A(op):
    """A(U) of one assembled cube from the saddle-point maximizers V of the
    2d unit loads xi = (-p, q):  A = sym(L V)/|U| - [[0, I], [I, 0]],
    L = [B; G]."""
    d = op.dim
    eye, zero = np.eye(d), np.zeros(d)
    unit_loads = [(-e, zero) for e in eye] + [(zero, e) for e in eye]
    _, V = kkt_maximizers(op, unit_loads)
    _, G, B, _ = nodal_functionals(op)
    LV = np.vstack([B, G]) @ V
    swap = np.zeros((2 * d, 2 * d))
    swap[:d, d:] = swap[d:, :d] = np.eye(d)
    return 0.5 * (LV + LV.T) / op.vol - swap


def loop_assembly(a_elems, s_elems, tensors, elements_per_axis, h):
    """(K, S, G, B, mass) assembled element by element into COO triplets.

    ``tensors`` are the unit-element integrals (locs, EK, EG); each corner's
    shape function integrates to 1/2^d of the element; elements and nodes
    are numbered in C order of their grids.
    """
    locs, EK, EG = tensors
    d = a_elems.shape[-1]
    m = elements_per_axis
    shape = (m + 1,) * d
    N = (m + 1) ** d
    rows, cols, kvals, svals = [], [], [], []
    G, B, mass = np.zeros((d, N)), np.zeros((d, N)), np.zeros(N)
    for e, corner in enumerate(itertools.product(range(m), repeat=d)):
        ids = [np.ravel_multi_index(tuple(c + l for c, l in zip(corner, loc)), shape)
               for loc in locs]
        for i, gi in enumerate(ids):
            for j, gj in enumerate(ids):
                rows.append(gi)
                cols.append(gj)
                kvals.append(np.sum(a_elems[e] * EK[:, :, i, j]) * h ** (d - 2))
                svals.append(np.sum(s_elems[e] * EK[:, :, i, j]) * h ** (d - 2))
            G[:, gi] += EG[:, i] * h ** (d - 1)
            B[:, gi] += a_elems[e] @ EG[:, i] * h ** (d - 1)
            mass[gi] += h ** d / len(locs)
    K = sp.coo_matrix((kvals, (rows, cols)), shape=(N, N)).tocsr()
    S = sp.coo_matrix((svals, (rows, cols)), shape=(N, N)).tocsr()
    return K, S, G, B, mass


def cellwise_flux_load(op, f_cells):
    """Nodal functional F_i = int f . grad phi_i of per-cell-constant f,
    element by element.  On an element of side h, int d_a phi_i is
    h^(d-1) / 2^(d-1), signed + where corner i lies at the element's far
    end along axis a and - where it lies at the near end."""
    d, r, h, m = op.dim, op.resolution, op.h, op.nodes_per_axis - 1
    F = np.zeros(op.N)
    for corner in itertools.product(range(m), repeat=d):
        f = f_cells[tuple(c // r for c in corner)]
        for loc in itertools.product((0, 1), repeat=d):
            node = np.ravel_multi_index(tuple(c + l for c, l in zip(corner, loc)),
                                        (m + 1,) * d)
            F[node] += sum(f[a] * (2 * loc[a] - 1) for a in range(d)) * (h / 2) ** (d - 1)
    return F


def default_order_dirichlet(op, boundary_values, load):
    """Nodal Dirichlet solution: the interior block of K sliced in C order
    and factored by SuperLU in its default column order; nothing cached."""
    u = np.zeros(op.N)
    u[op.boundary] = boundary_values
    ii = op.interior
    r = load[ii] - (op.K @ u)[ii]
    u[ii] = spla.splu(op.K[ii][:, ii].tocsc()).solve(r)
    return u


def default_order_neumann(op, load):
    """Nodal Neumann solution for a nodal load: node 0 pinned, K without it
    factored by SuperLU in its default column order, the result shifted to
    zero mass-weighted mean; nothing cached."""
    u = np.zeros(op.N)
    u[1:] = spla.splu(op.K[1:, 1:].tocsc()).solve(load[1:])
    return u - (nodal_functionals(op)[3] @ u) / op.vol


def sorted_grid_shape(dim, npa):
    """Assembly indices of an npa^dim node grid, the CSR pattern found by
    sorting: (gid, interior, boundary, indptr, indices, slot) as the package's
    ``solver._grid_shape`` returns them, from ``np.unique`` over every
    (element, i, j) triplet's key row * N + col."""
    locs = np.array(list(itertools.product((0, 1), repeat=dim)))
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
    return (gid, np.nonzero(inner)[0], np.nonzero(~inner)[0],
            indptr.astype(np.int32), (keys % N).astype(np.int32), slot.ravel())


def recursive_nd_order(dim, m):
    """Nested-dissection order of an m^dim node grid by direct recursion:
    halves of the longest axis first, then its middle node plane; boxes of
    at most 16 nodes in C order."""
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
    return np.concatenate(parts)


def one_step_merge_maps(dim, level, r):
    """Where a level-``level`` parent puts its children's boundary nodes.

    Returns (maps, nb, nu): ``maps[j]`` holds, for child j of the 3^dim in C
    order, the positions of that child's boundary nodes among the nu union
    nodes; the union lists the parent's nb boundary nodes first, then the
    skeleton (every union node off the parent boundary), each in C order.
    """
    def on_boundary(coords, m):
        return np.any((coords == 0) | (coords == m), axis=0)

    mc = r * 3 ** (level - 1)                 # elements per child axis
    child = np.indices((mc + 1,) * dim).reshape(dim, -1)
    child = child[:, on_boundary(child, mc)]
    shape = (3 * mc + 1,) * dim
    coords = np.indices(shape).reshape(dim, -1)
    bnd = on_boundary(coords, 3 * mc)
    skeleton = np.any(coords % mc == 0, axis=0) & ~bnd
    order = np.concatenate([np.nonzero(bnd)[0], np.nonzero(skeleton)[0]])
    pos = np.full(coords.shape[1], -1)
    pos[order] = np.arange(len(order))
    maps = np.stack([pos[np.ravel_multi_index(child + mc * np.array(j)[:, None], shape)]
                     for j in np.ndindex(*(3,) * dim)])
    return maps, int(bnd.sum()), len(order)


def one_step_merge(children, stride=3):
    """Boundary traces one level up, each parent merged from a 3^d block of
    ``children`` (a batch of boundary traces) in one step: the children's
    maps are added onto the union of their boundary nodes and the whole
    skeleton is eliminated in one dense solve.  Stride 3 gives the
    partition, stride 1 every block on the children's lattice.  No parent
    is flagged constant."""
    d = children.dim
    maps, nb, nu = one_step_merge_maps(d, children.level + 1, children.resolution)
    m = children.Lam.shape[:d]
    M = tuple((mi - 3) // stride + 1 for mi in m)
    Lam = np.zeros(M + (nu, nu))
    for j, ix in zip(np.ndindex(*(3,) * d), maps):
        block = tuple(slice(i, i + stride * (n - 1) + 1, stride)
                      for i, n in zip(j, M))
        Lam[..., ix[:, None], ix] += children.Lam[block]
    X = np.linalg.solve(Lam[..., nb:, nb:], Lam[..., nb:, :nb])
    return dataclasses.replace(children, level=children.level + 1, const=None,
                               Lam=Lam[..., :nb, :nb] - Lam[..., :nb, nb:] @ X)


def forge_field_file(path, part, index, shift):
    """Add ``shift`` to entry ``index`` of the saved cells ``part`` ("s" or
    "k") and re-sign the sidecar, so only the cell check can reject the file.

    The payload is a 16-byte head, then every cell's s, then every cell's k,
    as little-endian doubles in C order.
    """
    raw = path.read_bytes()
    side = path.with_suffix(path.suffix + ".json")
    meta = json.loads(side.read_text())
    m, d = 3 ** meta["level"], meta["dim"]
    cells = np.frombuffer(raw[16:], dtype="<f8").reshape((2,) + (m,) * d + (d, d)).copy()
    cells[("s", "k").index(part)][index] += shift
    raw = raw[:16] + cells.astype("<f8").tobytes()
    path.write_bytes(raw)
    meta["sha256"] = hashlib.sha256(raw).hexdigest()
    side.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def center_skew_transform(A, dim, h=None):
    """Exact effect of subtracting a constant skew h on the coarse matrix.

    A spatially constant skew shift maps J(p, q) to J(p, q - h p); on the
    coarse matrix this is the congruence A -> T^T A T with T = [[I, 0],
    [h, I]].  With h omitted, the skew part of the cube's own coupling block
    is used, making the centered coupling symmetric.  Returns (A_centered, h).
    """
    d = dim
    if h is None:
        _, kmat, _, _ = blocks_from_A(A, d)
        h = 0.5 * (kmat - kmat.T)
    h = _require_skew(h)
    T = np.eye(2 * d)
    T[d:, :d] = h
    return T.T @ A @ T, h


def verify_cg_inequalities(field, cube=None, p=None, q=None, n_trials=20,
                           rng=None, resolution=1):
    """Test the coarse-graining inequalities on random a-harmonic functions.

    For each random admissible w, with g = avg grad w, F = avg a grad w and
    e = avg grad w . s grad w:
        g . s_star(U) g  <=  e,
        F . b(U)^{-1} F  <=  e,
        |p.F - q.g|      <=  sqrt(2 J(U,p,q)) sqrt(e),
    and the third holds with equality at the maximizer itself.  Returns the
    worst signed slacks (negative = violation) and the equality residual.
    """
    cube = cube or field.domain
    d = field.dim
    rng = rng or np.random.default_rng(0)
    p = np.ones(d) if p is None else np.asarray(p, float)
    q = np.zeros(d) if q is None else np.asarray(q, float)
    cg, L, Q, V = _top_maximizers(field, cube, resolution)
    xi = np.concatenate([-p, q])
    v = V @ xi
    J = (-0.5 * v @ Q @ v + xi @ (L @ v)) / cube.volume
    binv = np.linalg.inv(cg.b)

    def averages(w):
        F, g = np.split(L @ w / cube.volume, 2)
        return g, F, w @ Q @ w / cube.volume

    slack1 = slack2 = slack3 = np.inf
    for w in [v] + [rng.standard_normal(len(v)) for _ in range(n_trials)]:
        g, F, e = averages(w)
        slack1 = min(slack1, e - g @ cg.s_star @ g)
        slack2 = min(slack2, e - F @ binv @ F)
        slack3 = min(slack3, np.sqrt(max(2.0 * J, 0.0) * e) - abs(p @ F - q @ g))
    gv, Fv, ev = averages(v)
    eq_res = abs(np.sqrt(max(2.0 * J, 0.0) * ev) - abs(p @ Fv - q @ gv))
    return {"dual_lower": float(slack1), "flux_upper": float(slack2),
            "cauchy_schwarz": float(slack3), "maximizer_equality": float(eq_res)}


def eigvalsh_cell_check(s_cells, cap):
    """The message of the field check's first failing cell, or None, from
    each cell's eigenvalues alone: the first cell in C order whose least
    eigenvalue is <= 0, else the first whose condition number exceeds cap."""
    eigs = {idx: np.linalg.eigvalsh(s_cells[idx]) for idx in np.ndindex(s_cells.shape[:-2])}
    for idx, e in eigs.items():
        if e[0] <= 0.0:
            return f"cell {idx} symmetric part not positive definite (min eig {e[0]:.3e})"
    for idx, e in eigs.items():
        if e[-1] / e[0] > cap:
            return f"cell {idx} condition number {e[-1] / e[0]:.3e} exceeds cap {cap:.1e}"
    return None


def solve_inv_A_from_blocks(s, s_star, k):
    """``coarsegrain.A_from_blocks`` by one LAPACK solve and one inverse per
    matrix."""
    d = s.shape[-1]
    sinv_k = np.linalg.solve(s_star, k)
    A = np.zeros(s.shape[:-2] + (2 * d, 2 * d))
    A[..., :d, :d] = s + np.swapaxes(k, -1, -2) @ sinv_k
    A[..., :d, d:] = -np.swapaxes(sinv_k, -1, -2)
    A[..., d:, :d] = -sinv_k
    A[..., d:, d:] = np.linalg.inv(s_star)
    return A
