"""Variational coarse-graining of nonsymmetric coefficient fields.

On each triadic cube the quadratic functional

    J(p, q) = avg( -1/2 grad u . s grad u - p . a grad u + q . grad u )

is maximized over discrete a-harmonic mean-zero functions.  Its Hessian in
(p, q), shifted by the pairing p.q, is a symmetric positive semidefinite
2d x 2d matrix ``A`` that packages four coarse-grained quantities: an
upper symmetric part ``b``, a lower symmetric part ``s`` (its Schur
complement), a dual symmetric part ``s_star`` (inverse of the lower-right
block), and a skew-ish coupling ``k``.  ``J`` is quadratic in
xi = (-p, q), so ``A`` is read off the maximizers of the 2d unit loads.
These are solved on each cube's boundary traces, which ``solver.condense``
builds for every cube of every scale by merging children into parents
(``condensed_A``); ``coarse_grain_windows`` condenses several windows of one
level as one batch, and so does a single sample.  For a single constant cell
``A`` reduces to a closed form in (s, k), which every cube whose cells are
all equal takes exactly: the traces flag those cubes and carry their corner
cell, so nothing past the condensation reads the field.
The ``verify_*`` identities are the one implementation that both the
tests and ``cghom selftest`` run; each returns its deviations.  Those on
maximizers read the same top trace: the maximizer of (p, q) is the
unit-load maximizers combined by xi, and a random a-harmonic function is a
Gaussian vector of boundary values.

``A_from_blocks`` and ``blocks_from_A`` are the one codec between ``A`` and
its blocks; the closed form (``pointwise_A``) and the pointwise bounds are
its single-cell case.  ``order_slacks`` runs the subadditivity and sandwich
checks on every cube of a hierarchy, batched per scale, and the sweep's
``diagnostics`` and the cache's defects are read from it.  Block means come
from ``triadic.block_means``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .fields import CoefficientField, adjugate, gen_named_field
from .solver import (BoundaryTraces, SolverError, condense, partition_traces,
                     trace_loads)
from .triadic import TriadicCube, block_means


def jswap(dim: int) -> np.ndarray:
    """Block anti-diagonal involution [[0, I], [I, 0]]."""
    J = np.zeros((2 * dim, 2 * dim))
    J[:dim, dim:] = np.eye(dim)
    J[dim:, :dim] = np.eye(dim)
    return J


def _inverse(m: np.ndarray) -> np.ndarray:
    """m^{-1}, batched: by the adjugate (``fields.adjugate``) if 2 x 2, else by
    LAPACK, as a 3 x 3 adjugate loses digits as cond^2."""
    if m.shape[-1] == 3:
        return np.linalg.inv(m)
    inv, det = adjugate(m)
    inv /= det[..., None, None]
    return inv


def A_from_blocks(s: np.ndarray, s_star: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Inverse of ``blocks_from_A``, batched over leading axes:

        A = [[s + k^T s_star^{-1} k, -k^T s_star^{-1}],
             [-s_star^{-1} k,          s_star^{-1}     ]]
    """
    s, s_star, k = (np.asarray(x, float) for x in (s, s_star, k))
    d = s.shape[-1]
    A = np.empty(s.shape[:-2] + (2 * d, 2 * d))
    A[..., d:, d:] = _inverse(s_star)
    sinv_k = np.matmul(A[..., d:, d:], k, out=A[..., d:, :d])   # in place: fewer per-cell arrays
    np.matmul(np.swapaxes(k, -1, -2), sinv_k, out=A[..., :d, :d])
    A[..., :d, :d] += s
    np.negative(np.swapaxes(sinv_k, -1, -2), out=A[..., :d, d:])
    sinv_k *= -1.0
    return A


def blocks_from_A(A: np.ndarray, dim: int):
    """Extract (s_star, k, b, s) from a coarse matrix, batched over leading axes."""
    d = dim
    A11, A12 = A[..., :d, :d], A[..., :d, d:]
    A21, A22 = A[..., d:, :d], A[..., d:, d:]
    lo = np.linalg.eigvalsh(A22)[..., 0]
    if np.any(lo < 1e-12 * np.maximum(np.trace(A22, axis1=-2, axis2=-1), 1e-300)):
        raise ValueError(f"degenerate lower block: min eig {lo.min():.3e}")
    s_star = np.linalg.inv(A22)
    kmat = -s_star @ A21
    b = A11.copy()
    s = A11 - A12 @ np.linalg.solve(A22, A21)
    return s_star, kmat, b, s


def pointwise_A(s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Closed-form coarse matrix of a single constant coefficient a = s + k.

    A single cell is self-dual (s_star = s); batched over leading axes.
    """
    return A_from_blocks(s, s, k)


def _cell_means(s: np.ndarray, k: np.ndarray, batch: int):
    """Means over ``batch`` equal runs of cells of s^{-1} and s + k^T s^{-1} k."""
    sinv = _inverse(s)
    bpt = s + np.swapaxes(k, -1, -2) @ (sinv @ k)
    return tuple(x.reshape(batch, -1, *s.shape[-2:]).mean(axis=1) for x in (sinv, bpt))


def pointwise_bounds(field: CoefficientField, cube: TriadicCube | None = None):
    """Cube averages (avg s^{-1}, avg (s + k^T s^{-1} k)) of the cell data:
    the diagonal blocks of the cells' mean ``pointwise_A``, without forming it."""
    sl = (cube or field.domain).slices
    return tuple(x[0] for x in _cell_means(field.s_cells[sl], field.k_cells[sl], 1))


@dataclass(frozen=True)
class CoarseGrainedMatrices:
    """Coarse-grained quantities of one cube."""

    cube: TriadicCube
    A: np.ndarray
    s_star: np.ndarray
    k: np.ndarray
    b: np.ndarray
    s: np.ndarray

    @classmethod
    def from_A(cls, A: np.ndarray, cube: TriadicCube) -> "CoarseGrainedMatrices":
        s_star, kmat, b, s = blocks_from_A(A, cube.dim)
        return cls(cube=cube, A=A, s_star=s_star, k=kmat, b=b, s=s)

    @property
    def dim(self) -> int:
        return self.cube.dim


def J_from_A(A: np.ndarray, p, q, dim: int) -> float:
    """Evaluate J(p, q) from a coarse matrix: J = xi.A xi / 2 - p.q."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    xi = np.concatenate([-p, q])
    return float(0.5 * xi @ A @ xi - p @ q)


def Jstar_from_A(A: np.ndarray, p, q, dim: int) -> float:
    """Evaluate the adjoint-field functional from the same coarse matrix.

    The transposed coefficient shares both diagonal blocks and negates the
    off-diagonal ones, i.e. A* = D A D with D = diag(I, -I).
    """
    D = np.eye(2 * dim)
    D[dim:, dim:] *= -1.0
    return J_from_A(D @ A @ D, p, q, dim)


def check_objective(J: np.ndarray, energy: np.ndarray) -> None:
    """Raise SolverError at the first load column, in C order, whose optimum
    is below -1e-8 or misses the energy identity J = v^T S v / (2|U|) by
    more than 1e-8 * max(1, |J|)."""
    neg = J < -1e-8
    bad = neg | (np.abs(J - energy) > 1e-8 * np.maximum(1.0, np.abs(J)))
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        if neg[first]:
            raise SolverError(f"negative objective J={J[first]:.3e} "
                              f"for pair {first[-1]}")
        gap = abs(J[first] - energy[first]) / max(1.0, abs(J[first]))
        raise SolverError(f"energy identity violated: |J - E| / max(1, |J|) = "
                          f"{gap:.3e} > 1e-8 at J={J[first]:.6e}")


def condensed_A(traces: BoundaryTraces) -> np.ndarray:
    """A(U) of every cube of a trace batch, shaped batch + (2d, 2d).

    With xi = (-p, q) the load of J is L^T xi for L = [B; G], so J is
    quadratic in xi.  The maximizers V of the 2d unit loads give
    A = sym(L V) / |U| - jswap(d).  Every load column is checked for J >= 0
    and the energy identity, and every (symmetric) A for positive
    semidefiniteness up to 1e-8 * max(1, max |eig A|).  The cubes that the
    traces flag ``const`` (all cells equal) take the exact closed form of
    their corner cell instead, unchecked, and only the others are solved;
    a batch of flagged cubes alone (the cells, for one) is solved for
    nothing.
    """
    exact = (np.zeros(traces.Lam.shape[:-2], dtype=bool) if traces.const is None
             else traces.const)
    if exact.all():
        return pointwise_A(traces.s0, traces.k0)
    solved = ~exact
    batch = traces if solved.all() else replace(
        traces, Lam=traces.Lam[solved], const=None, s0=traces.s0[solved],
        k0=traces.k0[solved])
    _, LV, J, energy = trace_loads(batch)
    check_objective(J, energy)
    A = 0.5 * (LV + np.swapaxes(LV, -1, -2)) / traces.vol - jswap(traces.dim)
    eigs = np.linalg.eigvalsh(A).reshape(-1, A.shape[-1])
    lo, scale = eigs[:, 0], np.maximum(1.0, np.abs(eigs).max(axis=-1))
    if np.any(lo < -1e-8 * scale):
        raise ValueError("coarse matrix not PSD: min eig "
                         f"{lo[lo < -1e-8 * scale][0]:.3e}")
    if batch is traces:
        return A
    out = np.empty(exact.shape + A.shape[-2:])
    out[solved] = A
    out[exact] = pointwise_A(traces.s0[exact], traces.k0[exact])
    return out


def coarse_grain_cube(field: CoefficientField, cube: TriadicCube | None = None,
                      resolution: int = 1) -> CoarseGrainedMatrices:
    """Coarse-grain one cube: condense its cells' traces up to the cube and
    solve the 2d unit loads there (``condensed_A``).  A cube whose cells are
    all equal gets the exact closed form."""
    cube = cube or field.domain
    top = partition_traces(field, cube.level, cube, resolution)
    A = condensed_A(top)[(0,) * field.dim]
    return CoarseGrainedMatrices.from_A(A, cube)


def coarse_grain_windows(fields: list, resolution: int = 1):
    """``coarse_grain_cube(f, resolution=resolution).A`` and
    ``pointwise_bounds(f)`` of every field's window, bit for bit, for fields
    of one dim and level, as one condensation.

    The windows' cells lie side by side along axis 0, a (B 3^n) x (3^n)^(d-1)
    strip, which ``condense`` merges n times.  A stride-3 merge never
    crosses from one window into the next, as 3^n is a multiple of every
    3^k, so the scale-n batch holds one trace per window.  ``condensed_A``'s
    checks and closed form, the degenerate-block check of ``from_A`` and the
    bounds run on the whole batch.  Returns (A, avg s^{-1}, avg (s + k^T
    s^{-1} k)), each with a leading axis over the fields.
    """
    d, B = fields[0].dim, len(fields)
    s, k = (np.concatenate([getattr(f, name) for f in fields])
            for name in ("s_cells", "k_cells"))
    for top in condense(s, k, resolution):
        pass
    A = condensed_A(top).reshape(B, 2 * d, 2 * d)
    blocks_from_A(A, d)         # raises on a degenerate lower block
    return (A, *_cell_means(s, k, B))


def coarse_grain_adjoint(field: CoefficientField, cube: TriadicCube | None = None,
                         resolution: int = 1) -> CoarseGrainedMatrices:
    """Coarse-grain the transposed coefficient a^T = s - k."""
    flipped = replace(field, k_cells=-field.k_cells, params=dict(field.params))
    return coarse_grain_cube(flipped, cube, resolution)


def _require_skew(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, float)
    if not np.allclose(h, -h.T, atol=1e-12 * max(1.0, np.abs(h).max())):
        raise ValueError("h must be skew-symmetric")
    return h


def center_skew(field: CoefficientField, h: np.ndarray) -> CoefficientField:
    """Subtract a constant skew matrix h from the coefficient, cell by cell."""
    h = _require_skew(h)
    return replace(field, k_cells=field.k_cells - h,
                   params={**field.params, "centered_by": h.tolist()})


def verify_centering(field: CoefficientField, h: np.ndarray,
                     cube: TriadicCube | None = None, resolution: int = 1) -> dict:
    """Coarse-grain before and after a constant skew shift and compare.

    The symmetric blocks must be invariant and the coupling block must shift
    by exactly -h.  Returns the worst absolute deviations.
    """
    cube = cube or field.domain
    cg0 = coarse_grain_cube(field, cube, resolution)
    cg1 = coarse_grain_cube(center_skew(field, h), cube, resolution)
    # b of the shifted coupling k - h at fixed s, s_star
    b_shifted = A_from_blocks(cg0.s, cg0.s_star, cg0.k - h)[:field.dim, :field.dim]
    return {
        "s_star": float(np.abs(cg1.s_star - cg0.s_star).max()),
        "s": float(np.abs(cg1.s - cg0.s).max()),
        "b_shifted": float(np.abs(cg1.b - b_shifted).max()),
        "k_shift": float(np.abs(cg1.k - (cg0.k - np.asarray(h))).max()),
    }


def verify_adjoint(field: CoefficientField, pairs=()) -> dict:
    """Coarse-grain the field and its transpose a^T = s - k and compare.

    The adjoint's matrix must be A* = D A D with D = diag(I, -I): the same
    s and s_star and the coupling k negated; and for each (p, q) in
    ``pairs`` the field's J*, read off A by ``Jstar_from_A``, must equal the
    adjoint's J.  Returns the worst absolute deviations.
    """
    d = field.dim
    cg, adj = coarse_grain_cube(field), coarse_grain_adjoint(field)
    D = np.eye(2 * d)
    D[d:, d:] *= -1.0
    return {
        "A": float(np.abs(adj.A - D @ cg.A @ D).max()),
        "k": float(np.abs(adj.k + cg.k).max()),
        "s": float(np.abs(adj.s - cg.s).max()),
        "s_star": float(np.abs(adj.s_star - cg.s_star).max()),
        "J": max((abs(Jstar_from_A(cg.A, p, q, d) - J_from_A(adj.A, p, q, d))
                  for p, q in pairs), default=0.0),
    }


def verify_constant_field(c: float, dim: int, pairs) -> dict:
    """Coarse-grain the constant field c I on a level-1 cube by the
    variational path and compare with the closed form.

    No cube is flagged constant, so ``condensed_A`` solves the loads.  Its A
    must be diag(c I, I/c), and for each (p, q) in ``pairs``
    J = c |p|^2 / 2 + |q|^2 / (2c) - p.q, both as the objective at the
    maximizer V xi and as ``J_from_A``.  Returns the worst absolute
    deviation of A and, per pair, the signed errors of both J values.
    """
    field = gen_named_field("constant", level=1, dim=dim, matrix=c * np.eye(dim))
    cg, L, Q, V = _top_maximizers(field, field.domain, 1, variational=True)
    want = np.diag(np.r_[np.full(dim, c), np.full(dim, 1.0 / c)])
    J, J_A = [], []
    for p, q in pairs:
        p, q = np.asarray(p, float), np.asarray(q, float)
        xi = np.concatenate([-p, q])
        v = V @ xi
        closed = 0.5 * c * p @ p + 0.5 / c * q @ q - p @ q
        J.append((xi @ (L @ v) - 0.5 * v @ Q @ v) / field.domain.volume - closed)
        J_A.append(J_from_A(cg.A, p, q, dim) - closed)
    return {"A": float(np.abs(cg.A - want).max()), "J": np.array(J),
            "J_from_A": np.array(J_A)}


def _top_maximizers(field: CoefficientField, cube: TriadicCube, resolution: int,
                    variational: bool = False):
    """The cube's coarse matrices and what the verifiers read of it, all
    from its top trace: (cg, L, Q, V).  An a-harmonic function with boundary
    values b has [B; G] values L b and S-energy b^T Q b.  V, (nb, 2d), holds
    the boundary values of the unit-load maximizers (node 0 pinned to zero):
    the maximizer of (p, q) is V xi, xi = (-p, q).  Gaussian b give random
    a-harmonic functions.  With ``variational`` no cube is flagged constant,
    so A is solved even where the closed form applies."""
    top = partition_traces(field, cube.level, cube, resolution)
    if variational:
        top = replace(top, const=None)
    at = (0,) * field.dim
    cg = CoarseGrainedMatrices.from_A(condensed_A(top)[at], cube)
    V = np.zeros((top.L.shape[-1], 2 * field.dim))
    V[1:] = trace_loads(top)[0][at]
    return cg, top.L[at], top.Q[at], V


def verify_maximizer_averages(field: CoefficientField, cube: TriadicCube | None = None,
                              pairs=None, resolution: int = 1) -> dict:
    """Check the closed-form mean gradient and mean flux of each maximizer.

    For the optimizer v of J(p, q):
        avg grad v   = -p + s_star^{-1} (q + k p)
        avg a grad v = (I - k^T s_star^{-1}) q - b p
    Returns the worst absolute errors of both identities.
    """
    cube = cube or field.domain
    d = field.dim
    cg, L, _, V = _top_maximizers(field, cube, resolution)
    if pairs is None:
        eye = np.eye(d)
        pairs = [(eye[i], np.zeros(d)) for i in range(d)]
        pairs += [(np.zeros(d), eye[i]) for i in range(d)]
        pairs += [(eye[0], eye[-1])]
    sinv = np.linalg.inv(cg.s_star)
    worst_g = worst_f = 0.0
    for p, q in pairs:
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        f_avg, g_avg = np.split(L @ (V @ np.concatenate([-p, q])) / cube.volume, 2)
        g_pred = -p + sinv @ (q + cg.k @ p)
        f_pred = (np.eye(d) - cg.k.T @ sinv) @ q - cg.b @ p
        worst_g = max(worst_g, float(np.abs(g_avg - g_pred).max()))
        worst_f = max(worst_f, float(np.abs(f_avg - f_pred).max()))
    return {"gradient_avg": worst_g, "flux_avg": worst_f}


def verify_quadratic_response(field: CoefficientField, cube: TriadicCube | None = None,
                              p=None, q=None, n_trials: int = 20,
                              rng: np.random.Generator | None = None,
                              resolution: int = 1) -> float:
    """Check that deviations from the maximizer cost exactly quadratic energy.

    For any admissible (a-harmonic, mean-zero) w:
        J(p, q) - F(w) = 1/2 avg (grad v - grad w) . s (grad v - grad w),
    where F is the objective and v its maximizer.  Samples random a-harmonic
    w (plus w = 0 and w = v) and returns the worst relative residual.
    """
    cube = cube or field.domain
    d = field.dim
    rng = rng or np.random.default_rng(0)
    p = np.ones(d) if p is None else np.asarray(p, float)
    q = np.zeros(d) if q is None else np.asarray(q, float)
    _, L, Q, V = _top_maximizers(field, cube, resolution)
    xi = np.concatenate([-p, q])
    v = V @ xi

    def F(w):
        return (-0.5 * w @ Q @ w + xi @ (L @ w)) / cube.volume

    J = F(v)
    ws = [np.zeros(len(v)), v]
    ws += [rng.standard_normal(len(v)) for _ in range(n_trials)]
    worst = 0.0
    for w in ws:
        dvw = v - w
        rhs = 0.5 * dvw @ Q @ dvw / cube.volume
        worst = max(worst, abs((J - F(w)) - rhs) / max(1.0, abs(J)))
    return worst


def loewner_chain(s_star, s, b, sinv_avg, b_pt_avg) -> dict:
    """Min eigenvalues of each step of the chain
    (avg s^{-1})^{-1} <= s_star <= s <= b <= avg (s + k^T s^{-1} k)."""
    def lo(m):
        return float(np.linalg.eigvalsh(m).min())
    return {"harmonic_lower": lo(s_star - np.linalg.inv(sinv_avg)),
            "dual_vs_primal": lo(s - s_star),
            "primal_vs_b": lo(b - s),
            "b_vs_pointwise": lo(b_pt_avg - b)}


def order_slacks(A_by_scale: dict) -> dict:
    """Smallest eigenvalue of each partition cube's order checks.

    Returns {k: {check: array of shape (3^(n-k),)*dim}} for the scales
    k >= 1 with a check whose inputs are present: ``subadditivity``
    (needs scale k-1) of the children's mean minus A, and, with scale 0,
    ``sandwich_upper`` of the cells' mean minus A and ``sandwich_lower`` of
    A minus jswap (cells' mean)^{-1} jswap.  Each entry is >= 0 up to roundoff.
    """
    out = {}
    for k in sorted(set(A_by_scale) - {0}):
        A = A_by_scale[k]
        d = A.shape[-1] // 2
        gaps = {}
        if k - 1 in A_by_scale:
            gaps["subadditivity"] = block_means(A_by_scale[k - 1], d, 3) - A
        if 0 in A_by_scale:
            cells = block_means(A_by_scale[0], d, 3 ** k)
            gaps["sandwich_upper"] = cells - A
            gaps["sandwich_lower"] = A - jswap(d) @ np.linalg.inv(cells) @ jswap(d)
        if gaps:
            out[k] = {c: np.linalg.eigvalsh(g)[..., 0] for c, g in gaps.items()}
    return out


@dataclass
class HierarchyCache:
    """Coarse matrices of every partition subcube of a triadic domain.

    ``A_by_scale[k]`` has shape (3^(n-k),)*dim + (2d, 2d), indexed by the
    partition position of the scale-k cube relative to the domain corner.
    ``diagnostics`` lists per-cube ordering violations found during a checked
    sweep (empty = all clean).  ``slacks()`` is ``order_slacks`` of
    ``A_by_scale``, computed on its first call and kept; the sweep's check,
    both defects and the CLI's margins read it.
    """

    dim: int
    top_level: int
    resolution: int
    fingerprint: str
    A_by_scale: dict
    base_offset: tuple = ()
    diagnostics: list = dc_field(default_factory=list)
    _slacks: dict = dc_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.base_offset:
            self.base_offset = (0,) * self.dim

    @property
    def scales(self):
        return sorted(self.A_by_scale)

    def A_at(self, k: int, z: tuple) -> np.ndarray:
        idx = tuple((int(o) - b) // 3 ** k for o, b in zip(z, self.base_offset))
        return self.A_by_scale[k][idx]

    def matrices_at(self, k: int, z: tuple) -> CoarseGrainedMatrices:
        cube = TriadicCube(level=k, offset=tuple(int(o) for o in z), dim=self.dim)
        return CoarseGrainedMatrices.from_A(self.A_at(k, z), cube)

    def slacks(self) -> dict:
        if self._slacks is None:
            self._slacks = order_slacks(self.A_by_scale)
        return self._slacks

    def subadditivity_defect(self) -> float:
        """Most negative eigenvalue of (children average - parent), all scales."""
        return min((float(c["subadditivity"].min()) for c in self.slacks().values()
                    if "subadditivity" in c), default=np.inf)

    def sandwich_defect(self) -> dict:
        """Most negative eigenvalues of the pointwise upper and lower orderings."""
        if 0 not in self.A_by_scale:
            raise ValueError("sandwich check needs the cell scale (k_min = 0)")
        slacks = self.slacks().values()
        return {side: min((float(c[f"sandwich_{side}"].min()) for c in slacks),
                          default=np.inf)
                for side in ("upper", "lower")}

    def save(self, path: str) -> None:
        arrays = {f"scale_{k}": v for k, v in self.A_by_scale.items()}
        np.savez_compressed(path, **arrays)
        manifest = {
            "dim": self.dim, "top_level": self.top_level,
            "resolution": self.resolution, "fingerprint": self.fingerprint,
            "base_offset": list(self.base_offset), "scales": self.scales,
            "diagnostics": self.diagnostics, "version": 1,
        }
        with open(str(path) + ".json", "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path: str) -> "HierarchyCache":
        with open(str(path) + ".json") as fh:
            manifest = json.load(fh)
        if manifest.get("version") != 1:
            raise ValueError("unsupported cache version")
        npz = path if str(path).endswith(".npz") else str(path) + ".npz"
        with np.load(npz) as data:
            A_by_scale = {int(k.split("_")[1]): data[k] for k in data.files}
        return cls(dim=manifest["dim"], top_level=manifest["top_level"],
                   resolution=manifest["resolution"],
                   fingerprint=manifest["fingerprint"], A_by_scale=A_by_scale,
                   base_offset=tuple(manifest["base_offset"]),
                   diagnostics=manifest["diagnostics"])


# an order slack below -SLACK_TOL * max(1, |A|_2) is listed by the sweep
SLACK_TOL = 1e-8


def hierarchy_sweep(field: CoefficientField, domain: TriadicCube | None = None,
                    k_min: int = 0, resolution: int = 1,
                    check: bool = True) -> HierarchyCache:
    """Coarse-grain every partition subcube of the domain, scale by scale.

    One condensation of the domain's cells gives every scale's boundary
    traces (``solver.condense``; the cells were checked when the field was
    built), and ``condensed_A`` reads each scale's matrices off them; the
    cells (scale 0), like every constant cube, take the closed form.  With
    ``check`` the sweep then reads the cache's ``slacks`` (per-parent
    subadditivity and the two-sided pointwise sandwich on every cube); each
    slack below -SLACK_TOL * max(1, |A|_2) is listed in the cache's
    ``diagnostics`` by scale, cube (C order) and check (never aborting).
    """
    domain = domain or field.domain
    if not field.domain.contains(domain):
        raise ValueError("domain not contained in the field window")
    n, d = domain.level, field.dim
    base = domain.offset
    A_by_scale = {}
    sl = domain.slices
    for traces in condense(field.s_cells[sl], field.k_cells[sl], resolution):
        if traces.level >= k_min:
            A_by_scale[traces.level] = condensed_A(traces)
    cache = HierarchyCache(dim=d, top_level=n, resolution=resolution,
                           fingerprint=field.fingerprint, A_by_scale=A_by_scale,
                           base_offset=base)
    if check:
        for k, checks in cache.slacks().items():
            names = list(checks)
            slack = np.stack([checks[c] for c in names], axis=-1)
            # the scale is at least 1 and SLACK_TOL >= 0, so only a cube with
            # some slack below -SLACK_TOL can be listed: only its eigenvalues
            # are needed
            near = np.nonzero((slack < -SLACK_TOL).any(axis=-1))
            slack = slack[near]
            eigs = np.linalg.eigvalsh(A_by_scale[k][near])
            scale = np.maximum(1.0, np.abs(eigs).max(axis=-1))
            for j, c in np.argwhere(slack < -SLACK_TOL * scale[:, None]):
                offset = [int(b + 3 ** k * i[j]) for b, i in zip(base, near)]
                cache.diagnostics.append({"cube": [k, offset], "check": names[c],
                                          "min_eig": float(slack[j, c])})
    return cache
