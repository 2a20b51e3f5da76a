"""Triadic multiscale norms and coarse-grained ellipticity constants.

Two scale-decomposed norms drive everything here, both built from cube
averages of per-cell data on a side-3^n window:

* a scale-discounted sup norm ("bnorm"): sum over scales k of
  3^{2t(k-n)} max over the disjoint partition of |cube average|, and
* a dual-type ring norm: the square root of sum over scales of
  3^{2sk} times the *average* squared cube mean over the half-overlapping
  lattice (offsets in 3^{k-1} Z^d, cubes contained in the window).  Each
  such cube is a 3^d block of scale-(k-1) partition cubes, so its mean is
  the mean of 3 consecutive partition means along every axis, and the scale
  sweep walks the partition up from the cells.

The continuum definitions sum scales down to k = -infinity; cell data is
constant below scale 0, and partition cubes with k < 0 always sit inside a
single cell, so that tail is an exact geometric-series correction.  Both
norms sum the scales 0..n, with the tail on request.  For the half-lattice
ring norm a sub-cell cube can straddle a cell boundary, so its tail
correction (mean squared cell value) is the limiting value rather than
exact; the ring norm defaults to the truncated sum.

The coarse-grained ellipticity constants weight the spectral norms of
per-cube coarse-grained blocks (dual lower block inverse, upper block) the
same way the bnorm weights averages; they consume a hierarchy cache and
never solve anything themselves.  Each max over cubes of spectral norms
(matrix bnorm, these constants, ``homexp.compute_E_s``) is
``max_spec_norm``, which solves only the few matrices that can hold it.
The bnorm, these constants and the deviation functionals of ``homexp``
share one weighted sum with its exact tail, ``scale_weighted_sum``; the
ring norm takes the square root of that sum over its mean squares,
rescaled to its weight origin.  Partition-cube averages come from
``triadic.block_means``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarsegrain import HierarchyCache
from .triadic import block_means


def _norm_of_batch(mats: np.ndarray):
    """The per-matrix norm ``spec_norms`` uses on this batch, and its max |entry|."""
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError("expected square matrices in the trailing axes")
    top = np.abs(mats).max()
    if np.abs(mats - np.swapaxes(mats, -1, -2)).max() <= 1e-13 * max(1.0, top):
        return (lambda x: np.abs(np.linalg.eigvalsh(x)).max(axis=-1)), top
    return (lambda x: np.linalg.svd(x, compute_uv=False)[..., 0]), top


def spec_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norms of a batch of square matrices, shape (..., m, m).

    Symmetric batches use eigenvalues, general ones singular values, one
    matrix at a time; the max over a batch is ``max_spec_norm``.
    """
    mats = np.asarray(mats, float)
    return _norm_of_batch(mats)[0](mats)


def max_spec_norm(mats: np.ndarray) -> float:
    """``float(spec_norms(mats).max())``, bit for bit, solving only the
    matrices with |M|_F >= (1 - 1e-12) max_c |M_c|_F / sqrt(m): as
    |M|_2 <= |M|_F <= sqrt(m) |M|_2, no other can hold the max, the slack
    covers rounding, and the kept ones get the solve ``spec_norms`` would
    give them.  Frobenius norms are of the batch over its max |entry|, so
    they cannot overflow; if that is 0 or not finite, all are solved.
    """
    mats = np.asarray(mats, float)
    norm, top = _norm_of_batch(mats)
    if 0.0 < top < np.inf:
        x = mats / top
        fro = np.sqrt(np.einsum("...ij,...ij->...", x, x))
        keep = fro >= (1.0 - 1e-12) * fro.max() / np.sqrt(mats.shape[-1])
        mats = mats if keep.all() else mats[keep]
    return float(norm(mats).max())


def _level_of(values: np.ndarray, dim: int) -> int:
    m = values.shape[0]
    n = round(np.log(m) / np.log(3.0))
    if 3 ** n != m or any(values.shape[ax] != m for ax in range(dim)):
        raise ValueError(f"spatial shape {values.shape[:dim]} is not a triadic cube")
    return n


def scale_weighted_sum(maxima: dict, t: float, n: int, tail: bool) -> float:
    """sum_k 3^{2t(k-n)} m_k over the scales k of ``maxima`` (ascending).

    With ``tail`` the sum continues below the cell scale with every k < 0
    term equal to m_0, the exact geometric series for cell data.
    """
    total = 0.0
    for k, m in maxima.items():
        total += 3.0 ** (2 * t * (k - n)) * m
    if tail:
        r = 3.0 ** (-2 * t)
        total += maxima[0] * 3.0 ** (-2 * t * n) * r / (1.0 - r)
    return total


def bnorm(values: np.ndarray, t: float, dim: int = 2, tail: bool = True) -> float:
    """Scale-discounted sup of partition-cube averages.

    sum_{k=0..n} 3^{2t(k-n)} max_z |average over z+cube_k|, plus (with
    ``tail``, exact for cell data) the k < 0 continuation where every term
    equals the max cell magnitude.  Matrix cells are averaged entrywise and
    measured in spectral norm.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("exponent t must lie in (0, 1)")
    values = np.asarray(values, float)
    if values.size == 0:
        raise ValueError("empty domain")
    n = _level_of(values, dim)
    if values.ndim not in (dim, dim + 2):
        raise ValueError("expected per-cell scalars or matrices")
    magnitude = max_spec_norm if values.ndim > dim else lambda x: float(np.abs(x).max())
    maxima = {k: magnitude(block_means(values, dim, 3 ** k)) for k in range(n + 1)}
    return scale_weighted_sum(maxima, t, n, tail)


def ring_dual_norm(values: np.ndarray, s: float, dim: int = 2,
                   tail: bool = False, scale_origin: int = 0) -> float:
    """Half-lattice dual-type norm of per-cell scalars, vectors or matrices.

    sqrt( sum_{k=0..n} 3^{2s(k - scale_origin)} avg_z |(f)_{z+cube_k}|^2 )
    with z running over offsets in 3^{k-1} Z^d whose cube is contained in the
    window (at k = 0 this degenerates to the cell partition).  Vector and
    matrix cells contribute their squared Euclidean (Frobenius) norm.
    ``scale_origin`` shifts the weight normalization (0 reproduces the plain
    3^{2sk} convention; n gives the unit-domain weights directly).
    """
    if not 0.0 < s < 1.0:
        raise ValueError("exponent s must lie in (0, 1)")
    values = np.asarray(values, float)
    n = _level_of(values, dim)
    comps = tuple(range(dim, values.ndim))
    mean_sq, partition = {}, values
    for k in range(n + 1):
        means = partition
        if k:
            # each cube is a 3^d block of the scale-(k-1) partition: average
            # 3 consecutive partition means along every axis
            for ax in range(dim):
                m = means.shape[ax]
                means = sum(np.take(means, range(i, m - 2 + i), axis=ax)
                            for i in range(3)) / 3.0
            partition = block_means(partition, dim, 3)
        mean_sq[k] = float((means ** 2).sum(axis=comps).mean())
    weighted = scale_weighted_sum(mean_sq, s, n, tail)
    return float(np.sqrt(3.0 ** (2 * s * (n - scale_origin)) * weighted))


@dataclass
class EllipticityReport:
    """Scale-weighted ellipticity constants of one coarse-grained hierarchy."""

    level: int
    s_param: float
    t_param: float
    lambda_s: float
    Lambda_t: float
    besov_b: float
    besov_sinv: float
    lp_b: float
    lq_sinv: float
    p: float | None         # the exponents of lp_b and lq_sinv (None: not given)
    q: float | None
    per_scale_sinv: dict
    per_scale_b: dict
    fingerprint: str = ""

    @property
    def contrast(self) -> float:
        return self.Lambda_t / self.lambda_s


def _scale_maxima(cache: HierarchyCache) -> tuple[dict, dict]:
    """Per-scale maxima over partition cubes of |lower-block inverse| and |b|."""
    d = cache.dim
    sinv_max, b_max = {}, {}
    for k in cache.scales:
        A = cache.A_by_scale[k]
        sinv_max[k] = max_spec_norm(A[..., d:, d:])
        b_max[k] = max_spec_norm(A[..., :d, :d])
    return sinv_max, b_max


def ellipticity_constants(cache: HierarchyCache, s: float, t: float,
                          p: float | None = None, q: float | None = None) -> EllipticityReport:
    """Coarse-grained ellipticity constants from a hierarchy cache.

    lambda_s = [ (1-3^{-2s}) sum_k 3^{2s(k-n)} max_z |s_*^{-1}(z+cube_k)| ]^{-1}
    Lambda_t =   (1-3^{-2t}) sum_k 3^{2t(k-n)} max_z |b(z+cube_k)|

    (spectral norms; partition lattice), summed over every scale of the
    cache, k = 0..n, and continued below the cell scale with the per-cell
    values (exact for cell-constant coefficients); the prefactors make
    a = cI give lambda_s = Lambda_t = c.  ``p``/``q`` additionally record
    volume-averaged L^p norms of the per-cell upper block and L^q norms of
    the per-cell inverse, used by the embedding check.
    """
    if not (0.0 < s < 1.0 and 0.0 < t < 1.0):
        raise ValueError("exponents must lie in (0, 1)")
    n = cache.top_level
    d = cache.dim
    sinv_max, b_max = _scale_maxima(cache)
    lam = 1.0 / ((1.0 - 3.0 ** (-2 * s)) * scale_weighted_sum(sinv_max, s, n, True))
    Lam = (1.0 - 3.0 ** (-2 * t)) * scale_weighted_sum(b_max, t, n, True)

    cells = cache.A_by_scale[0]
    b_cells, sinv_cells = cells[..., :d, :d], cells[..., d:, d:]
    besov_b = bnorm(b_cells, t, dim=d)
    besov_sinv = bnorm(sinv_cells, s, dim=d)
    lp_b = lq_sinv = float("nan")
    if p is not None:
        lp_b = float(np.mean(spec_norms(b_cells) ** p) ** (1.0 / p))
    if q is not None:
        lq_sinv = float(np.mean(spec_norms(sinv_cells) ** q) ** (1.0 / q))
    return EllipticityReport(level=n, s_param=s, t_param=t, lambda_s=lam,
                             Lambda_t=Lam, besov_b=besov_b, besov_sinv=besov_sinv,
                             lp_b=lp_b, lq_sinv=lq_sinv, p=p, q=q,
                             per_scale_sinv=sinv_max, per_scale_b=b_max,
                             fingerprint=cache.fingerprint)


def embedding_check(rep: EllipticityReport, dim: int) -> dict:
    """Integrability embedding: scale-weighted constants from L^p/L^q norms.

    Verifies  Lambda_t <= (1-3^{-2t})/(1-3^{d/p-2t}) * ||b||_{L^p}  and the
    analogous bound of 1/lambda_s by ||s^{-1}||_{L^q} on ``rep``, the
    ``ellipticity_constants`` of a d = ``dim`` hierarchy with a ``p`` and
    ``q``, which the bound reads off the report; requires p > d/(2t) and
    q > d/(2s).  Returns both sides and margins (nonnegative = holds).
    """
    s, t, p, q = rep.s_param, rep.t_param, rep.p, rep.q
    if p is None or q is None:
        raise ValueError("the embedding check needs a report with the L^p and L^q "
                         "norms of the cells")
    if p <= dim / (2 * t) or q <= dim / (2 * s):
        raise ValueError("need p > d/(2t) and q > d/(2s)")
    rhs_b = (1.0 - 3.0 ** (-2 * t)) / (1.0 - 3.0 ** (dim / p - 2 * t)) * rep.lp_b
    rhs_sinv = (1.0 - 3.0 ** (-2 * s)) / (1.0 - 3.0 ** (dim / q - 2 * s)) * rep.lq_sinv
    inv_lam = 1.0 / rep.lambda_s
    return {
        "Lambda_t": rep.Lambda_t, "bound_b": rhs_b,
        "margin_b": rhs_b - rep.Lambda_t,
        "inv_lambda_s": inv_lam, "bound_sinv": rhs_sinv,
        "margin_sinv": rhs_sinv - inv_lam,
        "ok": bool(rhs_b >= rep.Lambda_t - 1e-12 and rhs_sinv >= inv_lam - 1e-12),
    }
