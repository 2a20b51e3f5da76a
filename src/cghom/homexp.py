"""Oscillating-to-homogenized Dirichlet experiments and error functionals.

The homogenization limit is probed on a growing window of side 3^n with unit
cells (equivalently, oscillation scale 3^{-n} on a fixed unit domain): the
solve uses boundary data 3^n h(3^{-n} y) and a right-hand side built so that
replacing the oscillating coefficient by its homogenized matrix makes
3^n h(3^{-n} y) the exact solution.  Gradient and flux errors are averaged
per unit cell and then measured in the dual-type ring norm with unit-domain
scale weights (the window norm times 3^{-alpha n} — the two conventions
agree identically).

Also here: the scale-weighted deviation functional of the hierarchy from its
mean, the half-lattice subadditivity-defect and fluctuation functionals, and
the energy-versus-data diagnostic whose constant is unknown (ensemble
boundedness is the only claim made for it).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import solver
from .coarsegrain import blocks_from_A, condensed_A, hierarchy_sweep, HierarchyCache
from .ergodic import FieldSpec
from .fields import CascadeSpec, CoefficientField, gen_cascade_field
from .norms import (bnorm, ellipticity_constants, max_spec_norm,
                    ring_dual_norm, scale_weighted_sum, spec_norms)


class TargetFunction:
    """Scalar target h with exact gradient and exact cell-averaged gradient.

    Families: affine  h = p.x + c;  quadratic  h = x.Hx/2 + p.x;
    trigonometric  h = amp sin(2 pi m.x + phase).  Coordinates are points of
    the unit domain (the experiment feeds x = 3^{-n} y).
    """

    def __init__(self, family: str, **params):
        self.family = family
        self.params = params
        if family == "affine":
            self.p = np.asarray(params["p"], float)
            self.c = float(params.get("c", 0.0))
        elif family == "quadratic":
            self.H = np.asarray(params["H"], float)
            self.p = np.asarray(params.get("p", np.zeros(self.H.shape[0])), float)
            if not np.allclose(self.H, self.H.T):
                raise ValueError("quadratic coefficient must be symmetric")
        elif family == "trig":
            self.m = np.asarray(params["m"], float)
            self.amp = float(params.get("amp", 1.0))
            self.phase = float(params.get("phase", 0.0))
        else:
            raise ValueError(f"unknown target family '{family}'")

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        if self.family == "affine":
            return x @ self.p + self.c
        if self.family == "quadratic":
            return 0.5 * np.einsum("...i,ij,...j->...", x, self.H, x) + x @ self.p
        th = 2.0 * np.pi * (x @ self.m) + self.phase
        return self.amp * np.sin(th)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        if self.family == "affine":
            return np.broadcast_to(self.p, x.shape).copy()
        if self.family == "quadratic":
            return x @ self.H.T + self.p
        th = 2.0 * np.pi * (x @ self.m) + self.phase
        return (2.0 * np.pi * self.amp) * np.cos(th)[..., None] * self.m

    def cell_avg_grad(self, level: int, dim: int) -> np.ndarray:
        """Exact average of (grad h)(3^{-level} y) over each unit cell.

        Returns shape (3^level,)*dim + (dim,).  Affine: constant; quadratic:
        gradient at cell centers (exact, the gradient is affine); trig:
        closed form via the complex box average of exp(i theta . z).
        """
        m = 3 ** level
        eps = 3.0 ** (-level)
        if self.family == "affine":
            out = np.empty((m,) * dim + (dim,))
            out[...] = self.p
            return out
        centers = np.stack(np.meshgrid(*[np.arange(m) + 0.5] * dim,
                                       indexing="ij"), axis=-1) * eps
        if self.family == "quadratic":
            return centers @ self.H.T + self.p
        theta = 2.0 * np.pi * self.m * eps            # phase advance per cell
        corners = np.stack(np.meshgrid(*[np.arange(m)] * dim,
                                       indexing="ij"), axis=-1)
        box = np.ones(corners.shape[:-1], dtype=complex)
        for ax in range(dim):
            t = theta[ax]
            if abs(t) < 1e-14:
                fac = np.exp(1j * t * corners[..., ax])
            else:
                fac = np.exp(1j * t * corners[..., ax]) * (np.exp(1j * t) - 1.0) / (1j * t)
            box = box * fac
        avg_cos = np.real(np.exp(1j * self.phase) * box)
        return (2.0 * np.pi * self.amp) * avg_cos[..., None] * self.m


@dataclass
class HomExperiment:
    """One experiment matrix: a field family against its homogenized limit."""

    spec: FieldSpec
    a_bar: np.ndarray
    h: TargetFunction
    alpha: float
    n_min: int = 1
    n_max: int = 4
    resolution: int = 1
    A_bar: np.ndarray | None = None      # 2d x 2d mean coarse matrix, optional
    ring_levels: int = 2                 # l for the half-lattice functionals

    def __post_init__(self):
        self.a_bar = np.asarray(self.a_bar, float)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass
class ErrorRecord:
    n: int
    seed: int
    grad_err: float
    flux_err: float
    energy: float
    E_alpha: float = float("nan")
    G_alpha: float = float("nan")
    H_alpha: float = float("nan")
    failed: bool = False
    residual: float = float("nan")     # of the interior solve, see solve_dirichlet
    error: str = ""                     # "<exception class>: <message>" if failed


def _quad_order(h: TargetFunction) -> int:
    return 2 if h.family in ("affine", "quadratic") else 4


def solve_oscillating(field: CoefficientField, a_bar: np.ndarray,
                      h: TargetFunction, resolution: int = 1):
    """Solve the rescaled Dirichlet problem on the field's window.

    The unknown approximates 3^n h(3^{-n} y); its gradient approximates
    g(y) = (grad h)(3^{-n} y) and its flux a_bar g(y).  The right-hand side
    is the nodal functional of the reference flux a_bar g, assembled by
    per-element Gauss quadrature (exact for affine/quadratic targets).
    Returns (operator, solution).
    """
    n = field.level
    op = solver.assemble(field, resolution=resolution)
    eps = 3.0 ** (-n)
    coords = solver.node_coordinates(op)
    bvals = h.value(coords[op.boundary] * eps) / eps

    def reference_flux(x):
        return h.grad(x * eps) @ np.asarray(a_bar, float).T

    load = solver.quadrature_flux_rhs(op, reference_flux, order=_quad_order(h))
    u = solver.solve_dirichlet(op, bvals, load)
    return op, u


def error_fields(op, u, a_bar: np.ndarray, h: TargetFunction):
    """Per-unit-cell averages of (grad u - g) and (a grad u - a_bar g)."""
    level = round(np.log(op.cells_per_axis) / np.log(3.0))
    g_ref = h.cell_avg_grad(level, op.dim)
    g_err = solver.cell_gradient_averages(op, u) - g_ref
    f_err = solver.cell_flux_averages(op, u) - g_ref @ np.asarray(a_bar, float).T
    return g_err, f_err


def unit_ring_error(err_cells: np.ndarray, alpha: float, dim: int) -> float:
    """Unit-domain ring norm of a window error field: 3^{-alpha n} times the
    window norm (identical to using unit-domain scale weights directly)."""
    n = round(np.log(err_cells.shape[0]) / np.log(3.0))
    return 3.0 ** (-alpha * n) * ring_dual_norm(err_cells, alpha, dim=dim)


def run_dirichlet_experiment(exp: HomExperiment, seed: int = 0,
                             with_E: bool = False,
                             with_GH: bool = False) -> list[ErrorRecord]:
    """Solve across scales n_min..n_max for one seed; never aborts mid-sweep.

    ``with_E`` adds the scale-weighted hierarchy deviation from ``exp.A_bar``;
    ``with_GH`` adds the half-lattice functionals (both need ``exp.A_bar``).
    """
    if (with_E or with_GH) and exp.A_bar is None:
        raise ValueError("with_E and with_GH need the ensemble mean exp.A_bar")
    records = []
    d = exp.spec.dim
    for n in range(exp.n_min, exp.n_max + 1):
        rec = ErrorRecord(n=n, seed=seed, grad_err=float("nan"),
                          flux_err=float("nan"), energy=float("nan"))
        try:
            field = exp.spec.realize(n, seed)
            op, u = solve_oscillating(field, exp.a_bar, exp.h, exp.resolution)
            rec.residual = op.residual
            g_err, f_err = error_fields(op, u, exp.a_bar, exp.h)
            rec.grad_err = unit_ring_error(g_err, exp.alpha, d)
            rec.flux_err = unit_ring_error(f_err, exp.alpha, d)
            rec.energy = float(np.sqrt(solver.energy_seminorm_sq(op, u)))
            if with_E or with_GH:
                cache = hierarchy_sweep(field, resolution=exp.resolution,
                                        check=False)
                if with_E:
                    rec.E_alpha = compute_E_s(cache, exp.A_bar, exp.alpha)
                if with_GH:
                    s_star_bar, k_bar, _, _ = blocks_from_A(exp.A_bar, d)
                    A_top = cache.A_by_scale[n][(0,) * d]
                    G, H = compute_GH(field, A_top, exp.A_bar,
                                      s_star_bar - k_bar, exp.alpha,
                                      min(exp.ring_levels, n), exp.resolution)
                    rec.G_alpha, rec.H_alpha = G, H
        except solver.NUMERICAL_ERRORS as exc:
            rec.failed, rec.error = True, f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return records


def mann_kendall(values) -> int:
    """Sign-of-trend statistic: sum over pairs i < j of sign(x_j - x_i)."""
    v = np.asarray(values, float)
    stat = 0
    for i in range(len(v)):
        stat += int(np.sign(v[i + 1:] - v[i]).sum())
    return stat


def bnorm_trend_check(sigma: float, t: float, levels, seeds: int,
                      seed0: int = 0, dim: int = 2) -> dict:
    """Mean scale-discounted sup norm of the cascade sum across window sizes.

    Returns per-level ensemble means and the pairwise-sign trend statistic;
    a nonpositive statistic means no increasing trend.
    """
    means = []
    for level in levels:
        vals = []
        for i in range(seeds):
            spec = CascadeSpec(sigma=sigma, level=level, seed=seed0 + i)
            f, _ = gen_cascade_field(spec, dim)
            vals.append(bnorm(f, t, dim=dim, tail=True))
        means.append(float(np.mean(vals)))
    return {"sigma": sigma, "t": t, "levels": list(levels), "means": means,
            "trend": mann_kendall(means),
            "final_over_initial": means[-1] / means[0] if means[0] else float("nan")}


def summarize_records(per_seed: list[list[ErrorRecord]]) -> dict:
    """Median errors per scale with trend statistics over an ensemble."""
    ns = sorted({r.n for recs in per_seed for r in recs if not r.failed})
    med_g, med_f = [], []
    for n in ns:
        g = [r.grad_err for recs in per_seed for r in recs
             if r.n == n and not r.failed]
        f = [r.flux_err for recs in per_seed for r in recs
             if r.n == n and not r.failed]
        med_g.append(float(np.median(g)))
        med_f.append(float(np.median(f)))
    return {
        "n": ns, "median_grad_err": med_g, "median_flux_err": med_f,
        "mk_grad": mann_kendall(med_g), "mk_flux": mann_kendall(med_f),
        "grad_final_over_initial": med_g[-1] / med_g[0]
            if med_g and med_g[0] > 0 else float("nan"),
        "flux_final_over_initial": med_f[-1] / med_f[0]
            if med_f and med_f[0] > 0 else float("nan"),
        "failures": sum(r.failed for recs in per_seed for r in recs),
    }


def compute_E_s(cache: HierarchyCache, A_bar: np.ndarray, s: float,
                tail: bool = False) -> float:
    """Scale-weighted worst deviation of the hierarchy from a reference matrix.

    sum_{k = 0..n} 3^{2s(k-n)} max over partition cubes |A(z+cube_k) - A_bar|
    in spectral norm.  Below the cell scale every cube of the partition
    lattice lies inside a single cell, so the k < 0 terms all equal the
    scale-0 maximum; ``tail`` adds that geometric continuation exactly.
    """
    n = cache.top_level
    missing = [k for k in range(n + 1) if k not in cache.A_by_scale]
    if missing:
        raise ValueError(f"cache is missing scales {missing}")
    A_bar = np.asarray(A_bar, float)
    devs = {k: max_spec_norm(cache.A_by_scale[k] - A_bar) for k in range(n + 1)}
    return scale_weighted_sum(devs, s, n, tail)


def _half_lattice_A(field: CoefficientField, partition) -> np.ndarray:
    """Coarse matrices of the scale-(k+1) cubes on the 3^k lattice, from the
    traces of the scale-k partition: each such cube is exactly a 3^d block
    of partition cubes, so it costs one merge.  The cubes overlap, so there
    are about 3^d times as many as in a partition; merging one row of them
    at a time keeps the merge's memory at a row's worth.  Within a row, the
    merge's first step builds each first-axis slab (3 partition cubes along
    the rows) once, and its next step shares it among the 3 cubes of the
    row that contain it."""
    rows = [condensed_A(solver.merge_traces(partition.rows(i, i + 3), stride=1), field)
            for i in range(partition.Lam.shape[0] - 2)]
    return np.concatenate(rows).reshape(-1, 2 * field.dim, 2 * field.dim)


def half_lattice_matrices(field: CoefficientField, k: int,
                          resolution: int = 1) -> np.ndarray:
    """Coarse matrices over the contained half-overlap scale-k lattice, its
    offsets in C order (at k = 0, the cells)."""
    if not 0 <= k <= field.level:
        raise ValueError(f"scale k={k} outside [0, {field.level}]")
    partition = solver.partition_traces(field, max(k - 1, 0), resolution=resolution)
    if k == 0:
        return condensed_A(partition, field).reshape(-1, 2 * field.dim, 2 * field.dim)
    return _half_lattice_A(field, partition)


def compute_GH(field: CoefficientField, A_top: np.ndarray, A_bar: np.ndarray,
               prefactor_mat: np.ndarray, s: float, l: int,
               resolution: int = 1) -> tuple[float, float]:
    """Half-lattice subadditivity-defect and fluctuation functionals.

    With c = |prefactor_mat|^2 (spectral norm squared):
      G = c sum_{k = n-l+1..n} 3^{2s(k-n)} | avg_z A(z+cube_k) - A_top |
      H = c sum_{k = n-l+1..n} 3^{2s(k-n)} avg_z | A(z+cube_k) - A_bar |^2
    where z runs over the contained half-overlap lattice of the window,
    A_top is the window's own coarse matrix and A_bar the ensemble mean.
    A_top must be that matrix: the window is the only scale-n cube of its
    lattice, so the k = n terms are read off it (G's is 0) and the window is
    condensed only up to the scale-(n-2) partition, from which each scale-k
    lattice, k < n, is merged (with l = 1, not at all).
    """
    n = field.level
    if not 1 <= l <= n:
        raise ValueError("l must lie in [1, window level]")
    c = float(spec_norms(np.asarray(prefactor_mat, float)) ** 2)
    A_top = np.asarray(A_top, float)
    A_bar = np.asarray(A_bar, float)
    G, H = {n: 0.0}, {n: float(spec_norms(A_top - A_bar)) ** 2}
    partitions = solver.condense(field, resolution=resolution) if l > 1 else ()
    for partition in partitions:
        k = partition.level + 1
        if k > n - l:
            mats = _half_lattice_A(field, partition)
            G[k] = float(spec_norms(mats.mean(axis=0) - A_top))
            H[k] = float(np.mean(spec_norms(mats - A_bar) ** 2))
        if k == n - 1:
            break
    return (c * scale_weighted_sum(G, s, n, False),
            c * scale_weighted_sum(H, s, n, False))


def energy_estimate_diagnostic(field: CoefficientField, s: float = 0.4,
                               h: TargetFunction | None = None,
                               f_cells: np.ndarray | None = None,
                               resolution: int = 1,
                               cache: HierarchyCache | None = None) -> dict:
    """Energy of solutions against the coarse-grained data factors.

    Dirichlet (data h, zero divergence load): ratio of the energy seminorm of
    u to (|b(U)|^{1/2} + Lambda_s^{1/2}) ||grad h||; Neumann (data f): ratio
    to (|s_star^{-1}(U)|^{1/2} + lambda_s^{-1/2}) ||f||.  The comparison
    constant is unknown, so only ensemble boundedness of these ratios is a
    meaningful check.  L^2 norms of the data stand in for the
    positive-regularity norms (piecewise-constant data degenerates the
    latter).
    """
    d = field.dim
    n = field.level
    if cache is None:
        cache = hierarchy_sweep(field, resolution=resolution, check=False)
    rep = ellipticity_constants(cache, s, s, tail=True, normalized=True)
    cg = cache.matrices_at(n, (0,) * d)
    op = solver.assemble(field, resolution=resolution)
    out = {"lambda_s": rep.lambda_s, "Lambda_t": rep.Lambda_t}
    if h is not None:
        coords = solver.node_coordinates(op)
        side = 3.0 ** n
        bvals = h.value(coords[op.boundary] / side) * side
        u = solver.solve_dirichlet(op, bvals)
        lhs = float(np.sqrt(solver.energy_seminorm_sq(op, u)))
        gh = h.cell_avg_grad(n, d)
        grad_h_l2 = float(np.sqrt((gh ** 2).sum(axis=-1).mean()))
        rhs = (float(spec_norms(cg.b)) ** 0.5 + rep.Lambda_t ** 0.5) * grad_h_l2
        out["dirichlet_ratio"] = lhs / rhs
    if f_cells is not None:
        f_cells = np.asarray(f_cells, float)
        u = solver.solve_neumann(op, f_cells)
        lhs = float(np.sqrt(solver.energy_seminorm_sq(op, u)))
        f_l2 = float(np.sqrt((f_cells ** 2).sum(axis=-1).mean()))
        sinv_norm = float(spec_norms(np.linalg.inv(cg.s_star)))
        rhs = (sinv_norm ** 0.5 + rep.lambda_s ** (-0.5)) * f_l2
        out["neumann_ratio"] = lhs / rhs
    return out


def write_records_csv(per_seed: list[list[ErrorRecord]], path: str,
                      family: str = "", extra_cols: dict | None = None) -> None:
    extra_cols = extra_cols or {}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["family", "seed", "n", "grad_err", "flux_err", "energy",
                    "E_alpha", "G_alpha", "H_alpha", "failed"]
                   + list(extra_cols))
        for recs in per_seed:
            for r in recs:
                w.writerow([family, r.seed, r.n, repr(r.grad_err),
                            repr(r.flux_err), repr(r.energy), repr(r.E_alpha),
                            repr(r.G_alpha), repr(r.H_alpha), int(r.failed)]
                           + list(extra_cols.values()))
