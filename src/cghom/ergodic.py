"""Monte Carlo realization of the subadditive large-scale limit.

Independent coefficient fields are drawn, each one coarse-grained on its top
cube (in batched jobs of up to 8 samples), and the 2d x 2d coarse matrices
are averaged.  The homogenized blocks derive from the block means — dual
block s̄* as the inverse of the mean lower-right block, coupling k̄ from the
mixed block, upper block b̄ directly, and s̄ as the Schur complement — so
the reconstructed mean matrix reproduces the sample mean identically.  The
vanishing of the gap s̄ - s̄* across scales is the convergence diagnostic;
the homogenized coefficient is s̄ + k̄ at the largest scale.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .coarsegrain import (A_from_blocks, J_from_A, Jstar_from_A,
                          blocks_from_A, coarse_grain_windows, loewner_chain)
from .fields import gen_named_field
from .solver import NUMERICAL_ERRORS, SolverError


@dataclass(frozen=True)
class FieldSpec:
    """Recipe for drawing i.i.d. coefficient fields of one ensemble."""

    kind: str
    dim: int = 2
    params: dict = dc_field(default_factory=dict)

    def realize(self, level: int, seed: int):
        return gen_named_field(self.kind, level=level, dim=self.dim,
                               seed=int(seed), **self.params)


def derive_blocks(A_bar: np.ndarray, dim: int) -> dict:
    """Homogenized blocks from a mean coarse matrix.

    s̄* = (mean lower block)^{-1}, k̄ = -s̄* (mean A21), b̄ = mean A11 and
    s̄ the Schur complement (``blocks_from_A``).  Rebuilding the matrix
    from them (``A_from_blocks``) gives A_bar back identically — an
    algebraic identity used as an accumulation sanity check.
    """
    s_star, k, b, s = blocks_from_A(A_bar, dim)
    recon = A_from_blocks(s, s_star, k)
    return {"s_star": s_star, "k": k, "b": b, "s": s, "gap": s - s_star,
            "sym_k": 0.5 * (k + k.T),
            "reconstruction_err": float(np.abs(recon - A_bar).max())}


@dataclass
class ErgodicEstimate:
    """Monte Carlo mean of the top-cube coarse matrix at one scale."""

    n: int
    samples: int
    seed: int
    method: str
    A_bar: np.ndarray
    A_se: np.ndarray
    sinv_bar: np.ndarray      # mean of per-cell s^{-1}, cell-averaged
    bpt_bar: np.ndarray       # mean of per-cell s + k^T s^{-1} k
    A_samples: np.ndarray | None = None
    # derived from A_bar by __post_init__
    s_star_bar: np.ndarray = dc_field(init=False)
    k_bar: np.ndarray = dc_field(init=False)
    b_bar: np.ndarray = dc_field(init=False)
    s_bar: np.ndarray = dc_field(init=False)
    gap: np.ndarray = dc_field(init=False)
    sym_k: np.ndarray = dc_field(init=False)
    reconstruction_err: float = dc_field(init=False)

    def __post_init__(self):
        d = self.A_bar.shape[0] // 2
        blocks = derive_blocks(self.A_bar, d)
        self.s_star_bar = blocks["s_star"]
        self.k_bar = blocks["k"]
        self.b_bar = blocks["b"]
        self.s_bar = blocks["s"]
        self.gap = blocks["gap"]
        self.sym_k = blocks["sym_k"]
        self.reconstruction_err = blocks["reconstruction_err"]

    @property
    def dim(self) -> int:
        return self.A_bar.shape[0] // 2

    def gap_identity(self) -> dict:
        """Mean functional values at the tuned loads, versus the gap.

        For each basis direction p, with q = (s̄*-k̄)p and q' = (s̄*+k̄)p,
        the sum E[J(p,q)] + E[J*(p,q')] collapses algebraically to
        p.(s̄-s̄*)p; both sides are returned with the worst residual.
        """
        d = self.dim
        sums, quads = [], []
        for i in range(d):
            p = np.eye(d)[i]
            qf = (self.s_star_bar - self.k_bar) @ p
            qa = (self.s_star_bar + self.k_bar) @ p
            sums.append(J_from_A(self.A_bar, p, qf, d)
                        + Jstar_from_A(self.A_bar, p, qa, d))
            quads.append(float(p @ self.gap @ p))
        resid = max(abs(a - b) for a, b in zip(sums, quads))
        return {"J_sums": sums, "gap_quadratic": quads, "residual": resid}


class SampleError(SolverError):
    """A Monte Carlo sample failed; the message names its index, seed and cause."""


# A job holds at most JOB_SAMPLES samples and JOB_CELLS cells (8 level-3 2D
# samples), or one sample that is bigger: with 32 level-3 samples per job
# the ensemble benchmark's peak RSS rose from 67 to 95 MB.
JOB_SAMPLES = 8
JOB_CELLS = 8 * 3 ** 6


def _mc_sample(spec, n, resolution, index, seed) -> tuple:
    try:
        return coarse_grain_windows([spec.realize(n, seed)], resolution)
    except NUMERICAL_ERRORS as exc:
        raise SampleError(f"sample {index} (seed {seed}) failed: "
                          f"{type(exc).__name__}: {exc}") from exc


def _mc_job(args) -> tuple:
    """(A, avg s^{-1}, avg (s + k^T s^{-1} k)) of one job's samples, batched
    (``coarse_grain_windows``).  If the batch fails, its samples run one at
    a time, so that the first to fail raises its ``SampleError``."""
    spec, n, resolution, members = args
    try:
        return coarse_grain_windows([spec.realize(n, seed) for _, seed in members],
                                    resolution)
    except NUMERICAL_ERRORS:
        rows = [_mc_sample(spec, n, resolution, *m) for m in members]
        return tuple(np.concatenate(x) for x in zip(*rows))


def sample_seeds(seed: int, n: int, samples: int) -> np.ndarray:
    """Deterministic per-sample seeds for ensemble (seed, n)."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(n), 0x5EED))
    return ss.generate_state(samples, dtype=np.uint32)


def estimate_Abar(spec: FieldSpec, n: int, samples: int, seed: int = 0,
                  resolution: int = 1, pmap=None,
                  keep_samples: bool = False) -> ErgodicEstimate:
    """Average the top-cube coarse matrix over independent field draws.

    The samples are cut, in order, into jobs of at most ``JOB_SAMPLES``
    samples and ``JOB_CELLS`` cells (a bigger sample is a job of its own),
    and each job's windows are coarse-grained together as one batch
    (``coarse_grain_windows``), which gives each sample's
    ``coarse_grain_cube(...).A`` and ``pointwise_bounds`` bit for bit.  The
    jobs run through ``pmap`` (one of ``solver.worker_map``) or, by default,
    here in order; a job whose batch fails reruns its samples one at a time,
    each as a batch of one, and the first that fails raises ``SampleError``.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    members = [(i, int(s)) for i, s in enumerate(sample_seeds(seed, n, samples))]
    per_job = max(1, min(JOB_SAMPLES, JOB_CELLS // 3 ** (n * spec.dim)))
    jobs = [(spec, n, resolution, members[i:i + per_job])
            for i in range(0, samples, per_job)]
    results = list((pmap or map)(_mc_job, jobs))
    As, sinv, bpt = (np.concatenate(x) for x in zip(*results))
    A_bar = As.mean(axis=0)
    A_se = As.std(axis=0, ddof=1) / np.sqrt(samples)
    return ErgodicEstimate(n=n, samples=samples, seed=seed, method="independent",
                           A_bar=A_bar, A_se=A_se, sinv_bar=sinv.mean(axis=0),
                           bpt_bar=bpt.mean(axis=0),
                           A_samples=As if keep_samples else None)


def check_monotone(estimates: list, factor: float = 3.0) -> dict:
    """Loewner monotone decrease of the mean coarse matrix across scales.

    For consecutive scales the difference A_bar(n) - A_bar(n+1) must be PSD
    up to ``factor`` times the combined standard errors (Frobenius-combined).
    """
    est = sorted(estimates, key=lambda e: e.n)
    pairs = []
    ok = True
    for a, b in zip(est, est[1:]):
        diff = a.A_bar - b.A_bar
        lo = float(np.linalg.eigvalsh(0.5 * (diff + diff.T)).min())
        tol = factor * float(np.linalg.norm(np.sqrt(a.A_se ** 2 + b.A_se ** 2)))
        good = lo >= -tol
        ok = ok and good
        pairs.append({"n_from": a.n, "n_to": b.n, "min_eig": lo,
                      "tolerance": tol, "ok": good})
    return {"pairs": pairs, "ok": ok}


def _spearman_rho(x, y) -> float:
    """Spearman's rho as ``scipy.stats.spearmanr`` gives it: the correlation
    of average ranks (ties share their mean rank); nan on constant input."""
    ranks = []
    for v in (x, y):
        _, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
        ranks.append((np.cumsum(counts) - 0.5 * (counts - 1))[inv])
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(*ranks)[1, 0])


def gap_diagnostic(estimates: list) -> dict:
    """Decreasing-gap report across scales.

    Tracks trace(s̄ - s̄*) per scale (requires at least 3), tests for a
    decreasing trend (negative rank correlation and final < initial), checks
    the mean-functional identity at the tuned loads, and the symmetric-part
    sandwich  -(s̄-s̄*) <= (k̄+k̄^T)/2 <= (s̄-s̄*)  per scale.
    """
    est = sorted(estimates, key=lambda e: e.n)
    if len(est) < 3:
        raise ValueError("need at least 3 scales for a trend")
    ns = [e.n for e in est]
    traces = [float(np.trace(e.gap)) for e in est]
    rho = _spearman_rho(ns, traces)
    identities = [e.gap_identity() for e in est]
    sandwich = []
    for e in est:
        lo1 = float(np.linalg.eigvalsh(e.gap - e.sym_k).min())
        lo2 = float(np.linalg.eigvalsh(e.gap + e.sym_k).min())
        sandwich.append({"n": e.n, "upper_slack": lo1, "lower_slack": lo2})
    return {
        "n": ns, "gap_traces": traces, "spearman_rho": rho,
        "decreasing": bool(rho < 0 and traces[-1] < traces[0]),
        "identity_residual": max(i["residual"] for i in identities),
        "identities": identities, "sym_k_sandwich": sandwich,
    }


@dataclass(frozen=True)
class HomogenizedMatrix:
    """Final homogenized coefficient with its provenance."""

    a_bar: np.ndarray
    s_bar: np.ndarray
    k_bar: np.ndarray
    n: int
    samples: int
    seed: int
    spec: FieldSpec


def homogenized_matrix(estimates: list, factor: float = 3.0,
                       spec: FieldSpec | None = None) -> HomogenizedMatrix:
    """ā = s̄ + k̄ at the largest scale, after the sandwich bound checks.

    Verifies (within ``factor`` standard errors where statistical):
    harmonic lower bound E[avg s^{-1}]^{-1} <= s̄*, exact inner ordering
    s̄* <= s̄, and upper bound b̄ <= E[avg (s + k^T s^{-1} k)].
    """
    est = max(estimates, key=lambda e: e.n)
    se_scale = factor * float(np.linalg.norm(est.A_se))
    chain = loewner_chain(est.s_star_bar, est.s_bar, est.b_bar, est.sinv_bar,
                          est.bpt_bar)
    for name in ("harmonic_lower", "dual_vs_primal", "b_vs_pointwise"):
        tol = 1e-10 if name == "dual_vs_primal" else se_scale
        if chain[name] < -tol:
            raise ValueError(f"homogenized bound violated ({name}): "
                             f"min eig {chain[name]:.3e} < -{tol:.3e}")
    a_bar = est.s_bar + est.k_bar
    sym = 0.5 * (a_bar + a_bar.T)
    if np.linalg.eigvalsh(sym).min() <= 0:
        raise ValueError("symmetric part of the homogenized matrix is not SPD")
    return HomogenizedMatrix(a_bar=a_bar, s_bar=est.s_bar, k_bar=est.k_bar,
                             n=est.n, samples=est.samples, seed=est.seed,
                             spec=spec)


def estimates_report(estimates: list, gap: dict | None = None) -> dict:
    """JSON-ready report: per-scale means, standard errors, derived blocks."""
    per_n = []
    for e in sorted(estimates, key=lambda x: x.n):
        per_n.append({
            "n": e.n, "samples": e.samples, "method": e.method,
            "A_bar": e.A_bar.tolist(), "A_se": e.A_se.tolist(),
            "s_bar": e.s_bar.tolist(), "s_star_bar": e.s_star_bar.tolist(),
            "k_bar": e.k_bar.tolist(), "b_bar": e.b_bar.tolist(),
            "gap_trace": float(np.trace(e.gap)),
            "reconstruction_err": e.reconstruction_err,
        })
    out = {"per_scale": per_n}
    if gap is not None:
        out["gap_diagnostic"] = gap
    return out
