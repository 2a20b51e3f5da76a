"""Random coefficient fields on the unit-cell lattice.

A field assigns to every unit cell of a window ``[0, 3^n)^d`` a matrix
``a = s + k`` with ``s`` symmetric positive definite and ``k`` skew
symmetric.  Generators cover deterministic checkerboards and laminates,
i.i.d. lognormal conductances with optional skew part, and a multiplicative
cascade with unbounded contrast.

That rule, with the cap ``COND_CAP`` on each cell's condition number, is a
field's whole contract.  ``CoefficientField`` checks it when it is built
(generator, ``load_field``, ``replace`` or a direct call), in closed form
where it can, and is immutable, so the solvers take its cells as checked.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .triadic import TriadicCube, domain_cube

_MAGIC = b"CGHF"
_FORMAT_VERSION = 1
COND_CAP = 1e12


class DegenerateCellError(ValueError):
    pass


def adjugate(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(adj m, det m) of batched 2 x 2 or 3 x 3 matrices: m @ adj m = det m I."""
    if m.shape[-1] == 2:
        adj = np.stack([m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]], -1)
        adj = adj.reshape(m.shape)
    else:
        i, j = np.indices((3, 3))   # 3 x 3 cofactors are cyclic
        a, b, c, e = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
        adj = m[..., a, c] * m[..., b, e] - m[..., a, e] * m[..., b, c]
    return adj, sum(m[..., 0, n] * adj[..., n, 0] for n in range(m.shape[-1]))


def _certified(s: np.ndarray) -> np.ndarray:
    """Cells certainly positive definite with condition number <= COND_CAP:
    u = s / tr s, from the lower triangle that ``eigvalsh`` reads, is positive
    definite iff tr u, tr adj u and det u are, and then cond u <= 1 / det u;
    det u >= 1e3 / COND_CAP is a margin far beyond round-off."""
    d = s.shape[-1]
    tr = sum(s[..., i, i] for i in range(d))
    with np.errstate(all="ignore"):     # a non-finite minor leaves the cell to eigvalsh
        u = s / tr[..., None, None]
        for i in range(1, d):
            u[..., :i, i] = u[..., i, :i]
        adj, det = adjugate(u)
        return ((tr > 0) & (sum(adj[..., i, i] for i in range(d)) > 0)
                & (det >= 1e3 / COND_CAP) & (det <= 1.0))


class CascadeOverflowError(RuntimeError):
    """Raised when a cascade layer product exceeds the configured cap."""

    def __init__(self, m, worst, cap):
        # the constructor's arguments are the exception's args, so a pickle
        # round trip (e.g. out of a worker process) rebuilds it
        super().__init__(m, worst, cap)
        self.m = m
        self.worst = worst
        self.cap = cap

    def __str__(self) -> str:
        return (f"cascade product f_{self.m} reached {self.worst:.3e}, above "
                f"cap {self.cap:.3e}; lower sigma or m_max, or raise the cap")


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Per-unit-cell coefficient data on a triadic window, checked when built.

    s_cells : array, shape (3^level,)*dim + (dim, dim)
        Symmetric positive definite part, one matrix per cell.
    k_cells : array, same shape
        Skew-symmetric part.

    The constructor raises ``ValueError`` for a wrong shape, a non-symmetric
    ``s`` or a non-skew ``k``, and ``DegenerateCellError``, naming the first
    such cell, for a NaN or infinite entry or an ``s`` that is not positive
    definite or has condition number above ``COND_CAP``.  It keeps read-only
    copies of both arrays, so the caller's arrays stay writable and the
    field's cannot change.
    """

    dim: int
    level: int
    s_cells: np.ndarray
    k_cells: np.ndarray
    kind: str = "custom"
    seed: int | None = None
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        m = self.cells_per_axis
        want = (m,) * self.dim + (self.dim, self.dim)
        s, k = (np.array(a, dtype=float) for a in (self.s_cells, self.k_cells))
        if s.shape != want or k.shape != want:
            raise ValueError(f"cell arrays must have shape {want}")
        grid, flat = want[:-2], s.reshape(-1, self.dim, self.dim)
        finite = (np.isfinite(s) & np.isfinite(k)).all(axis=(-2, -1))
        if not finite.all():
            raise DegenerateCellError(f"cell {list(np.ndindex(grid))[np.argmax(~finite)]}"
                                      " data must be finite, got NaN or infinity")
        sym_err = np.max(np.abs(s - np.swapaxes(s, -1, -2)))
        skw_err = np.max(np.abs(k + np.swapaxes(k, -1, -2)))
        if sym_err > 1e-12 or skw_err > 1e-12:
            raise ValueError(f"s must be symmetric (err {sym_err:.2e}) and k skew (err {skw_err:.2e})")
        rest = np.flatnonzero(~_certified(flat))   # eigvalsh decides these
        lo, hi = np.linalg.eigvalsh(flat[rest])[:, [0, -1]].T
        if (lo <= 0.0).any():
            j = np.argmax(lo <= 0.0)
            raise DegenerateCellError(f"cell {list(np.ndindex(grid))[rest[j]]} symmetric part"
                                      f" not positive definite (min eig {lo[j]:.3e})")
        if (hi / lo > COND_CAP).any():
            j = np.argmax(hi / lo > COND_CAP)
            raise DegenerateCellError(f"cell {list(np.ndindex(grid))[rest[j]]} condition"
                                      f" number {hi[j] / lo[j]:.3e} exceeds cap {COND_CAP:.1e}")
        for name, cells in (("s_cells", s), ("k_cells", k)):
            cells.flags.writeable = False
            object.__setattr__(self, name, cells)

    def __reduce__(self):
        # unpickling runs the constructor, so a field from a pickle is
        # checked and read-only as a built one is
        return (type(self), (self.dim, self.level, self.s_cells, self.k_cells,
                             self.kind, self.seed, self.params))

    @property
    def domain(self) -> TriadicCube:
        return domain_cube(self.level, self.dim)

    @property
    def cells_per_axis(self) -> int:
        return 3 ** self.level

    def payload_bytes(self) -> bytes:
        head = _MAGIC + struct.pack(
            "<III", _FORMAT_VERSION, self.dim, self.level
        )
        return head + self.s_cells.astype("<f8").tobytes() + self.k_cells.astype("<f8").tobytes()

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.payload_bytes()).hexdigest()


def _iso(vals: np.ndarray, dim: int) -> np.ndarray:
    """Scalar per-cell array -> isotropic matrix per cell."""
    return vals[..., None, None] * np.eye(dim)


def _skew_from_scalar(kap: np.ndarray) -> np.ndarray:
    """d=2: one scalar per cell -> [[0, kap], [-kap, 0]]."""
    z = np.zeros_like(kap)
    return np.stack(
        [np.stack([z, kap], axis=-1), np.stack([-kap, z], axis=-1)], axis=-2
    )


def _skew_from_vector(w: np.ndarray) -> np.ndarray:
    """d=3: per-cell 3-vector -> the usual cross-product skew matrix."""
    z = np.zeros_like(w[..., 0])
    r0 = np.stack([z, w[..., 2], -w[..., 1]], axis=-1)
    r1 = np.stack([-w[..., 2], z, w[..., 0]], axis=-1)
    r2 = np.stack([w[..., 1], -w[..., 0], z], axis=-1)
    return np.stack([r0, r1, r2], axis=-2)


@dataclass
class CascadeSpec:
    """Parameters of the multiplicative-cascade scalar field."""

    sigma: float
    level: int
    m_max: int | None = None
    seed: int = 0
    cap: float = 1e150

    def resolved_m_max(self) -> int:
        return self.m_max if self.m_max is not None else 2 * self.level + 4


def gen_cascade_layer(j: int, level: int, sigma: float, rng: np.random.Generator,
                      dim: int = 2) -> np.ndarray:
    """One normalized lognormal layer W_j = exp(phi_j - sigma^2/2).

    phi_j is centered Gaussian with variance sigma^2, constant on scale-j
    cubes of the partition lattice anchored at the window origin.  Layers
    coarser than the window (j > level) are a single draw.
    """
    if j < 1:
        raise ValueError("layers are indexed from 1")
    m = 3 ** level
    if j >= level:
        coarse = rng.normal(0.0, sigma, size=(1,) * dim)
        reps = m
    else:
        coarse = rng.normal(0.0, sigma, size=(3 ** (level - j),) * dim)
        reps = 3 ** j
    w = np.exp(coarse - 0.5 * sigma ** 2)
    for ax in range(dim):
        w = np.repeat(w, reps, axis=ax)
    return w


def layer_moment_check(sigmas, powers, draws: int, seed: int = 0) -> list[dict]:
    """Monte Carlo moments of one cascade factor against the lognormal law.

    A factor W = exp(g - sigma^2/2) with g ~ N(0, sigma^2) has
    E[W^p] = exp(p(p-1) sigma^2 / 2); reports the z-score of the sample mean
    for each (sigma, p).
    """
    out = []
    rng = np.random.default_rng((seed, 0xCA5CADE))
    for sigma in sigmas:
        w = np.exp(rng.normal(0.0, sigma, size=draws) - 0.5 * sigma ** 2)
        for p in powers:
            wp = w ** p
            exact = float(np.exp(0.5 * p * (p - 1) * sigma ** 2))
            mean = float(wp.mean())
            se = float(wp.std(ddof=1) / np.sqrt(draws))
            out.append({"sigma": sigma, "p": p, "exact": exact, "mean": mean,
                        "se": se, "z": abs(mean - exact) / se if se else 0.0})
    return out


def product_slope_check(sigma: float, level: int, p: float, seeds: int,
                        seed0: int = 0, dim: int = 2) -> dict:
    """Exponential growth rate of the running layer product's p-th moment.

    E[avg f_m^p] = exp(m p(p-1) sigma^2 / 2) exactly; fits the log of the
    Monte Carlo means linearly in m and compares the slope.
    """
    m_max = 2 * level + 4
    sums = np.zeros(m_max)
    for i in range(seeds):
        rng = np.random.default_rng((seed0 + i, 0xCA5CADE))
        prod = np.ones((3 ** level,) * dim)
        for m in range(1, m_max + 1):
            prod = prod * gen_cascade_layer(m, level, sigma, rng, dim)
            sums[m - 1] += float((prod ** p).mean())
    log_means = np.log(sums / seeds)
    ms = np.arange(1, m_max + 1, dtype=float)
    slope = float(np.polyfit(ms, log_means, 1)[0])
    target = 0.5 * p * (p - 1) * sigma ** 2
    return {"sigma": sigma, "p": p, "m_max": m_max, "slope": slope,
            "target": target,
            "rel_err": abs(slope - target) / target if target else abs(slope)}


def gen_cascade_field(spec: CascadeSpec, dim: int = 2) -> tuple[np.ndarray, dict]:
    """Scalar cascade f = sum_m f_m / m^3 with f_m the running layer product.

    Returns the per-cell values and a diagnostics dict (per-layer maxima of
    f_m, the truncation depth).  Aborts via CascadeOverflowError if any f_m
    exceeds ``spec.cap``.
    """
    m_max = spec.resolved_m_max()
    rng = np.random.default_rng((spec.seed, 0xCA5CADE))
    prod = np.ones((3 ** spec.level,) * dim)
    f = np.zeros_like(prod)
    layer_max = []
    for m in range(1, m_max + 1):
        prod = prod * gen_cascade_layer(m, spec.level, spec.sigma, rng, dim)
        worst = float(prod.max())
        if worst > spec.cap:
            raise CascadeOverflowError(m, worst, spec.cap)
        layer_max.append(worst)
        f += prod / m ** 3
    info = {"m_max": m_max, "layer_max": layer_max, "sigma": spec.sigma}
    return f, info


def _finite(value) -> bool:
    """Whether every number in a parameter value, nested lists too, is finite."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return all(map(_finite, value))
    return not isinstance(value, float) or np.isfinite(value)


def gen_named_field(kind: str, level: int, dim: int = 2, seed: int = 0,
                    **params) -> CoefficientField:
    """Build one of the stock coefficient fields.

    Kinds: constant, checkerboard, laminate, lognormal_iso, skew_lognormal,
    cascade_iso.  Randomness is fully determined by ``seed``.
    """
    if kind not in _KIND_PARAMS:
        raise ValueError(f"unknown field kind {kind!r}")
    unknown = set(params) - _KIND_PARAMS[kind]
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for field kind {kind!r}; "
            f"allowed: {sorted(_KIND_PARAMS[kind])}")
    if not _finite(list(params.values())):
        raise ValueError(f"field kind {kind!r} parameters must be finite, got {params}")
    m = 3 ** level
    shape = (m,) * dim
    rng = np.random.default_rng((seed, _KIND_TAGS.get(kind, 0)))
    k_cells = np.zeros(shape + (dim, dim))

    if kind == "constant":
        a = np.asarray(params.get("matrix", np.eye(dim)), dtype=float)
        s = 0.5 * (a + a.T)
        k = 0.5 * (a - a.T)
        s_cells = np.broadcast_to(s, shape + (dim, dim)).copy()
        k_cells = np.broadcast_to(k, shape + (dim, dim)).copy()

    elif kind == "checkerboard":
        lo = float(params.get("low", 1.0))
        hi = float(params.get("high", 9.0))
        mode = params.get("mode", "iid")
        if mode == "iid":
            mask = rng.random(shape) < 0.5
        elif mode == "periodic":
            phase = params.get("phase", "random")
            ph = int(rng.integers(0, 2)) if phase == "random" else int(phase)
            idx = np.indices(shape).sum(axis=0)
            mask = (idx + ph) % 2 == 0
        else:
            raise ValueError(f"unknown checkerboard mode {mode!r}")
        vals = np.where(mask, lo, hi)
        s_cells = _iso(vals, dim)

    elif kind == "laminate":
        a1 = float(params.get("a1", 1.0))
        a2 = float(params.get("a2", 4.0))
        phase = params.get("phase", 0)
        ph = int(rng.integers(0, 2)) if phase == "random" else int(phase)
        cols = np.arange(m)
        line = np.where((cols + ph) % 2 == 0, a1, a2)
        vals = np.broadcast_to(line.reshape((m,) + (1,) * (dim - 1)), shape).copy()
        s_cells = _iso(vals, dim)

    elif kind == "lognormal_iso":
        sigma = float(params.get("sigma", 0.5))
        vals = np.exp(rng.normal(0.0, sigma, size=shape))
        s_cells = _iso(vals, dim)

    elif kind == "skew_lognormal":
        sigma = float(params.get("sigma", 0.5))
        kappa = float(params.get("kappa", 0.5))
        vals = np.exp(rng.normal(0.0, sigma, size=shape))
        s_cells = _iso(vals, dim)
        if dim == 2:
            k_cells = _skew_from_scalar(kappa * vals * rng.uniform(-1.0, 1.0, size=shape))
        else:
            w = kappa * vals[..., None] * rng.uniform(-1.0, 1.0, size=shape + (3,))
            k_cells = _skew_from_vector(w)

    elif kind == "cascade_iso":
        sigma = float(params.get("sigma", 0.3))
        m_max = params.get("m_max")
        cap = float(params.get("cap", 1e150))
        spec = CascadeSpec(sigma=sigma, level=level, m_max=m_max, seed=seed, cap=cap)
        f, info = gen_cascade_field(spec, dim)
        s_cells = _iso(1.0 + f, dim)
        params = dict(params, m_max=info["m_max"])

    else:
        raise ValueError(f"unknown field kind {kind!r}")

    return CoefficientField(
        dim=dim, level=level, s_cells=s_cells, k_cells=k_cells,
        kind=kind, seed=seed, params=dict(params),
    )


_KIND_TAGS = {
    "constant": 1, "checkerboard": 2, "laminate": 3,
    "lognormal_iso": 4, "skew_lognormal": 5, "cascade_iso": 6,
}

_KIND_PARAMS = {
    "constant": {"matrix"},
    "checkerboard": {"low", "high", "mode", "phase"},
    "laminate": {"a1", "a2", "phase"},
    "lognormal_iso": {"sigma"},
    "skew_lognormal": {"sigma", "kappa"},
    "cascade_iso": {"sigma", "m_max", "cap"},
}


def save_field(field: CoefficientField, path: str | Path) -> Path:
    """Write the binary payload plus a JSON sidecar; returns the binary path."""
    path = Path(path)
    payload = field.payload_bytes()
    path.write_bytes(payload)
    sidecar = {
        "format": "cghom-field",
        "version": _FORMAT_VERSION,
        "dim": field.dim,
        "level": field.level,
        "kind": field.kind,
        "seed": field.seed,
        "params": field.params,
        "extension": "periodic",
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=1) + "\n"
    )
    return path


def load_field(path: str | Path) -> CoefficientField:
    """Inverse of save_field; verifies magic, version and checksum, and the
    field's constructor checks the cells."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path} is not a field file (bad magic)")
    version, dim, level = struct.unpack("<III", raw[4:16])
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported field format version {version}")
    m = 3 ** level
    count = m ** dim * dim * dim
    body = np.frombuffer(raw[16:], dtype="<f8")
    if body.size != 2 * count:
        raise ValueError("field payload has wrong size")
    s_cells, k_cells = body.reshape((2,) + (m,) * dim + (dim, dim))
    side = path.with_suffix(path.suffix + ".json")
    kind, seed, params = "custom", None, {}
    if side.exists():
        meta = json.loads(side.read_text())
        if meta.get("sha256") != hashlib.sha256(raw).hexdigest():
            raise ValueError(f"checksum mismatch between {path} and sidecar")
        kind = meta.get("kind", kind)
        seed = meta.get("seed")
        params = meta.get("params", {})
    return CoefficientField(
        dim=dim, level=level, s_cells=s_cells, k_cells=k_cells,
        kind=kind, seed=seed, params=params,
    )
