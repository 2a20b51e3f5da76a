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
(``condensed_A``).  For a single constant cell ``A`` reduces to a closed
form in (s, k), which every cube whose cells are all equal takes exactly.
The ``verify_*`` identities and inequalities read the same top trace: the
maximizer of (p, q) is the unit-load maximizers combined by xi, and a random
a-harmonic function is a Gaussian vector of boundary values.

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
from numpy.lib.stride_tricks import sliding_window_view

from .fields import CoefficientField
from .solver import (BoundaryTraces, SolverError, condense, partition_traces,
                     trace_loads)
from .triadic import TriadicCube, block_means


def jswap(dim: int) -> np.ndarray:
    """Block anti-diagonal involution [[0, I], [I, 0]]."""
    J = np.zeros((2 * dim, 2 * dim))
    J[:dim, dim:] = np.eye(dim)
    J[dim:, :dim] = np.eye(dim)
    return J


def A_from_blocks(s: np.ndarray, s_star: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Inverse of ``blocks_from_A``, batched over leading axes:

        A = [[s + k^T s_star^{-1} k, -k^T s_star^{-1}],
             [-s_star^{-1} k,          s_star^{-1}     ]]
    """
    s, s_star, k = (np.asarray(x, float) for x in (s, s_star, k))
    d = s.shape[-1]
    sinv_k = np.linalg.solve(s_star, k)
    A = np.zeros(s.shape[:-2] + (2 * d, 2 * d))
    A[..., :d, :d] = s + np.swapaxes(k, -1, -2) @ sinv_k
    A[..., :d, d:] = -np.swapaxes(sinv_k, -1, -2)
    A[..., d:, :d] = -sinv_k
    A[..., d:, d:] = np.linalg.inv(s_star)
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


def pointwise_A_cells(field: CoefficientField,
                      cube: TriadicCube | None = None) -> np.ndarray:
    """Per-cell closed-form coarse matrices on a cube, (side,)*dim + (2d, 2d)."""
    cube = cube or field.domain
    sl = cube.slices
    return pointwise_A(field.s_cells[sl], field.k_cells[sl])


def pointwise_bounds(field: CoefficientField, cube: TriadicCube | None = None):
    """Cube averages (avg s^{-1}, avg (s + k^T s^{-1} k)) of the cell data:
    the diagonal blocks of the mean of ``pointwise_A_cells``."""
    d = field.dim
    avg = pointwise_A_cells(field, cube).reshape(-1, 2 * d, 2 * d).mean(axis=0)
    return avg[d:, d:], avg[:d, :d]


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


def _constant_cubes(field: CoefficientField, traces: BoundaryTraces):
    """Which cubes of a trace batch hold one coefficient in all their cells,
    and each cube's corner cell (s, k)."""
    d, side = traces.dim, 3 ** traces.level
    count = traces.Lam.shape[:d]
    sl = tuple(slice(o, o + traces.step * (n - 1) + side)
               for o, n in zip(traces.origin, count))
    corners = tuple(slice(0, traces.step * (n - 1) + 1, traces.step) for n in count)
    a = field.s_cells[sl] + field.k_cells[sl]
    cubes = sliding_window_view(a, (side,) * d, axis=tuple(range(d)))[corners]
    axes = tuple(range(-d, 0))
    const = np.all(cubes.max(axis=axes) == cubes.min(axis=axes), axis=(-2, -1))
    return const, field.s_cells[sl][corners], field.k_cells[sl][corners]


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
        raise SolverError(f"energy identity violated: J={J[first]:.6e} "
                          f"vs {energy[first]:.6e}")


def condensed_A(traces: BoundaryTraces,
                field: CoefficientField | None = None) -> np.ndarray:
    """A(U) of every cube of a trace batch, shaped batch + (2d, 2d).

    With xi = (-p, q) the load of J is L^T xi for L = [B; G], so J is
    quadratic in xi.  The maximizers V of the 2d unit loads give
    A = sym(L V) / |U| - jswap(d).  Every load column is checked for J >= 0
    and the energy identity, and every (symmetric) A for positive
    semidefiniteness up to 1e-8 * max(1, max |eig A|).  Given the ``field``,
    cubes whose cells are all equal take the exact closed form instead.
    """
    _, LV, J, energy = trace_loads(traces)
    A = 0.5 * (LV + np.swapaxes(LV, -1, -2)) / traces.vol - jswap(traces.dim)
    exact = np.zeros(A.shape[:-2], dtype=bool)
    if field is not None:
        exact, s0, k0 = _constant_cubes(field, traces)
        if exact.any():
            A[exact] = pointwise_A(s0[exact], k0[exact])
    check_objective(J[~exact], energy[~exact])
    eigs = np.linalg.eigvalsh(A[~exact])
    lo, scale = eigs[:, 0], np.maximum(1.0, np.abs(eigs).max(axis=-1))
    if np.any(lo < -1e-8 * scale):
        raise ValueError("coarse matrix not PSD: min eig "
                         f"{lo[lo < -1e-8 * scale][0]:.3e}")
    return A


def coarse_grain_cube(field: CoefficientField, cube: TriadicCube | None = None,
                      resolution: int = 1) -> CoarseGrainedMatrices:
    """Coarse-grain one cube: condense its cells' traces up to the cube and
    solve the 2d unit loads there (``condensed_A``).  A cube whose cells are
    all equal gets the exact closed form."""
    cube = cube or field.domain
    top = partition_traces(field, cube.level, cube, resolution)
    A = condensed_A(top, field)[(0,) * field.dim]
    return CoarseGrainedMatrices.from_A(A, cube)


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


def center_skew_transform(A: np.ndarray, dim: int, h: np.ndarray | None = None):
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


def _top_maximizers(field: CoefficientField, cube: TriadicCube, resolution: int):
    """The cube's coarse matrices and what the verifiers read of it, all
    from its top trace: (cg, L, Q, V).  An a-harmonic function with boundary
    values b has [B; G] values L b and S-energy b^T Q b.  V, (nb, 2d), holds
    the boundary values of the unit-load maximizers (node 0 pinned to zero):
    the maximizer of (p, q) is V xi, xi = (-p, q).  Gaussian b give random
    a-harmonic functions."""
    top = partition_traces(field, cube.level, cube, resolution)
    at = (0,) * field.dim
    cg = CoarseGrainedMatrices.from_A(condensed_A(top, field)[at], cube)
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


def verify_cg_inequalities(field: CoefficientField, cube: TriadicCube | None = None,
                           p=None, q=None, n_trials: int = 20,
                           rng: np.random.Generator | None = None,
                           resolution: int = 1) -> dict:
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


def verify_loewner_chain(field: CoefficientField, cube: TriadicCube | None = None,
                         resolution: int = 1,
                         cg: CoarseGrainedMatrices | None = None) -> dict:
    """Min eigenvalues of the ordering chain

        (avg s^{-1})^{-1}  <=  s_star(U)  <=  s(U)  <=  b(U)  <=  avg (s + k^T s^{-1} k)

    in the Loewner sense; every entry should be >= 0 up to roundoff.
    """
    cube = cube or field.domain
    if cg is None:
        cg = coarse_grain_cube(field, cube, resolution)
    return loewner_chain(cg.s_star, cg.s, cg.b, *pointwise_bounds(field, cube))


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
    cells (scale 0) take the closed form.  With ``check`` the sweep then
    reads the cache's ``slacks`` (per-parent subadditivity and the two-sided
    pointwise sandwich on every cube); each slack below
    -SLACK_TOL * max(1, |A|_2) is listed in the cache's ``diagnostics`` by
    scale, cube (C order) and check (the sweep never aborts on them).
    """
    domain = domain or field.domain
    if not field.domain.contains(domain):
        raise ValueError("domain not contained in the field window")
    n, d = domain.level, field.dim
    base = domain.offset
    A_by_scale = {}
    for traces in condense(field, domain, resolution):
        if traces.level >= k_min:
            A_by_scale[traces.level] = (condensed_A(traces, field) if traces.level > 0
                                        else pointwise_A_cells(field, domain))
    cache = HierarchyCache(dim=d, top_level=n, resolution=resolution,
                           fingerprint=field.fingerprint, A_by_scale=A_by_scale,
                           base_offset=base)
    if check:
        for k, checks in cache.slacks().items():
            names = list(checks)
            slack = np.stack([checks[c] for c in names], axis=-1)
            scale = np.maximum(1.0, np.abs(np.linalg.eigvalsh(A_by_scale[k])).max(axis=-1))
            for *idx, c in np.argwhere(slack < -SLACK_TOL * scale[..., None]):
                offset = [int(b + 3 ** k * i) for b, i in zip(base, idx)]
                cache.diagnostics.append({"cube": [k, offset], "check": names[c],
                                          "min_eig": float(slack[tuple(idx) + (c,)])})
    return cache
