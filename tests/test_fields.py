"""Coefficient-field generators, validation and the binary file format."""
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cghom import fields
from cghom.fields import (CascadeOverflowError, CascadeSpec, CoefficientField,
                          DegenerateCellError, gen_cascade_field,
                          gen_cascade_layer, gen_named_field, load_field,
                          save_field)
from reference_impl import eigvalsh_cell_check, forge_field_file


def test_seed_determinism():
    a = gen_named_field("lognormal_iso", level=2, seed=11, sigma=0.7)
    b = gen_named_field("lognormal_iso", level=2, seed=11, sigma=0.7)
    c = gen_named_field("lognormal_iso", level=2, seed=12, sigma=0.7)
    assert np.array_equal(a.s_cells, b.s_cells)
    assert not np.array_equal(a.s_cells, c.s_cells)
    assert a.fingerprint == b.fingerprint != c.fingerprint


def test_constant_field():
    mat = [[2.0, 0.3], [-0.3, 1.0]]
    f = gen_named_field("constant", level=1, matrix=mat)
    a = np.asarray(mat)
    assert np.allclose(f.s_cells, 0.5 * (a + a.T))
    assert np.allclose(f.k_cells, 0.5 * (a - a.T))
    assert np.allclose(f.s_cells + f.k_cells, a)
    assert f.cells_per_axis == 3


def test_degenerate_constant_rejected():
    with pytest.raises(ValueError):
        gen_named_field("constant", level=1, matrix=[[0.0, 0.0], [0.0, 0.0]])


def test_checkerboard_values_and_modes():
    f = gen_named_field("checkerboard", level=2, seed=4, low=1.0, high=4.0)
    diag = f.s_cells[..., 0, 0]
    assert set(np.unique(diag)) == {1.0, 4.0}
    assert np.allclose(f.s_cells[..., 0, 1], 0.0)
    assert np.allclose(f.k_cells, 0.0)
    # periodic mode alternates along every axis
    g = gen_named_field("checkerboard", level=1, low=1.0, high=4.0,
                        mode="periodic", phase=0)
    d = g.s_cells[..., 0, 0]
    idx = np.indices(d.shape).sum(axis=0)
    assert np.array_equal(d == 1.0, idx % 2 == 0)
    with pytest.raises(ValueError):
        gen_named_field("checkerboard", level=1, mode="diagonal")


def test_laminate_varies_along_first_axis_only():
    f = gen_named_field("laminate", level=2, a1=1.0, a2=4.0, phase=0)
    diag = f.s_cells[..., 0, 0]
    assert (np.ptp(diag, axis=1) == 0).all()      # constant across rows
    assert np.array_equal(diag[:, 0], np.where(np.arange(9) % 2 == 0, 1.0, 4.0))
    g = gen_named_field("laminate", level=2, a1=1.0, a2=4.0, phase=1)
    assert np.array_equal(g.s_cells[..., 0, 0][:, 0],
                          np.where(np.arange(9) % 2 == 1, 1.0, 4.0))


def test_skew_lognormal_structure():
    f = gen_named_field("skew_lognormal", level=2, seed=9, sigma=0.5, kappa=0.8)
    k = f.k_cells
    assert np.allclose(k, -np.swapaxes(k, -1, -2))
    eigs = np.linalg.eigvalsh(f.s_cells)
    assert eigs.min() > 0
    f3 = gen_named_field("skew_lognormal", level=1, dim=3, seed=9)
    assert np.allclose(f3.k_cells, -np.swapaxes(f3.k_cells, -1, -2))


def test_unknown_kind_and_params_rejected():
    with pytest.raises(ValueError, match="unknown field kind"):
        gen_named_field("perlin", level=1)
    with pytest.raises(ValueError, match="unknown parameter"):
        gen_named_field("checkerboard", level=1, values=[1, 4])
    with pytest.raises(ValueError, match="unknown parameter"):
        gen_named_field("constant", level=1, value=1.0)
    # a non-finite number is refused before any cell is drawn
    for kind, params in (("checkerboard", {"low": np.nan}),
                         ("lognormal_iso", {"sigma": np.inf}),
                         ("cascade_iso", {"cap": float("inf")}),
                         ("constant", {"matrix": [[1.0, 0.0], [0.0, np.nan]]}),
                         ("constant", {"matrix": np.diag([1.0, -np.inf])})):
        with pytest.raises(ValueError, match="parameters must be finite"):
            gen_named_field(kind, level=1, **params)


def test_cascade_layer_shapes_and_moments():
    rng = np.random.default_rng(0)
    w = gen_cascade_layer(1, 3, 0.3, rng)
    assert w.shape == (27, 27)
    # constant on 3x3 blocks
    assert np.ptp(w.reshape(9, 3, 9, 3), axis=(1, 3)).max() == 0.0
    # a layer coarser than the window is a single draw
    w4 = gen_cascade_layer(4, 3, 0.3, rng)
    assert np.ptp(w4) == 0.0
    with pytest.raises(ValueError):
        gen_cascade_layer(0, 3, 0.3, rng)
    # normalization E[W] = 1 (many independent draws at the finest layer)
    draws = [gen_cascade_layer(1, 2, 0.5, np.random.default_rng(i)).mean()
             for i in range(200)]
    assert abs(np.mean(draws) - 1.0) < 0.02


def test_cascade_field_and_overflow():
    f, info = gen_cascade_field(CascadeSpec(sigma=0.3, level=2, seed=5))
    assert f.shape == (9, 9)
    assert (f > 0).all()
    assert info["m_max"] == 2 * 2 + 4
    assert len(info["layer_max"]) == info["m_max"]
    with pytest.raises(CascadeOverflowError) as info:
        gen_cascade_field(CascadeSpec(sigma=0.3, level=2, seed=5, cap=1e-6))
    # it must survive the pickle round trip out of a worker process
    back = pickle.loads(pickle.dumps(info.value))
    assert str(back) == str(info.value)
    assert (back.m, back.worst, back.cap) == (info.value.m, info.value.worst, 1e-6)


def test_cascade_iso_field_kind():
    f = gen_named_field("cascade_iso", level=2, seed=3, sigma=0.3)
    assert (f.s_cells[..., 0, 0] > 1.0).all()    # 1 + cascade sum
    assert np.allclose(f.k_cells, 0.0)
    assert f.params["m_max"] == 8


def test_validate_flags_nonsymmetric_s():
    # the cells are checked when the field is built, whichever way it is built
    s = np.broadcast_to(np.eye(2), (3, 3, 2, 2)).copy()
    k = np.zeros_like(s)

    def build(s_cells=s, k_cells=k):
        return CoefficientField(dim=2, level=1, s_cells=s_cells, k_cells=k_cells)

    def bent(cells, entry, value):
        out = cells.copy()
        out[(1, 2) + entry] = value
        return out

    with pytest.raises(ValueError, match="must have shape"):
        build(s_cells=s[:2])
    with pytest.raises(ValueError, match="s must be symmetric"):
        build(s_cells=bent(s, (0, 1), 0.5))
    with pytest.raises(ValueError, match="k skew"):
        build(k_cells=bent(k, (0, 1), 0.5))
    for cells in ({"s_cells": bent(s, (0, 0), np.nan)},
                  {"k_cells": bent(k, (0, 1), np.inf)}):
        with pytest.raises(DegenerateCellError, match=r"cell \(1, 2\) data must be finite"):
            build(**cells)
    with pytest.raises(DegenerateCellError, match=r"cell \(1, 2\) symmetric part not positive definite"):
        build(s_cells=bent(s, (0, 0), -1.0))
    with pytest.raises(DegenerateCellError, match=r"cell \(1, 2\) condition number .* exceeds cap"):
        build(s_cells=bent(s, (1, 1), 1e13))
    f = build()
    # the field's arrays are read-only copies; the caller's stay writable
    with pytest.raises(ValueError, match="read-only"):
        f.s_cells[0, 0, 0, 1] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.k_cells = k
    s[0, 0, 0, 0] = 2.0
    assert f.s_cells[0, 0, 0, 0] == 1.0
    # replace builds a new field, so it checks the cells again
    with pytest.raises(ValueError, match="k skew"):
        dataclasses.replace(f, k_cells=bent(k, (0, 1), 0.5))
    assert dataclasses.replace(f, s_cells=s).s_cells[0, 0, 0, 0] == 2.0


def test_save_load_roundtrip(tmp_path):
    f = gen_named_field("skew_lognormal", level=2, seed=21, sigma=0.6, kappa=0.4)
    path = save_field(f, tmp_path / "field.cghf")
    assert path.with_suffix(path.suffix + ".json").exists()
    g = load_field(path)
    assert np.array_equal(f.s_cells, g.s_cells)
    assert np.array_equal(f.k_cells, g.k_cells)
    assert g.kind == f.kind and g.seed == f.seed
    assert g.fingerprint == f.fingerprint


def test_pickle_roundtrip_rebuilds_the_field():
    f = gen_named_field("skew_lognormal", level=2, seed=21, sigma=0.6, kappa=0.4)
    g = pickle.loads(pickle.dumps(f))
    assert not g.s_cells.flags.writeable and not g.k_cells.flags.writeable
    assert g.fingerprint == f.fingerprint
    assert (g.kind, g.seed, g.params) == (f.kind, f.seed, f.params)
    # the constructor runs on the way in: a bad payload is rejected
    bad = pickle.dumps(f).replace(f.k_cells.tobytes(), (f.k_cells + 1.0).tobytes())
    with pytest.raises(ValueError, match="skew"):
        pickle.loads(bad)


def test_load_rejects_corruption(tmp_path):
    f = gen_named_field("constant", level=1)
    path = save_field(f, tmp_path / "field.cghf")
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.cghf"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        load_field(bad)
    # flip one payload byte: the sidecar checksum must catch it
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_field(path)


def test_load_rejects_invalid_cells(tmp_path):
    # files whose cells break the field's contract, with a valid checksum
    cases = (("s must be symmetric", "s", (0, 1), 0.5),
             ("k skew", "k", (0, 0), 0.5),
             ("positive definite", "s", (0, 0), -10.0),
             ("exceeds cap", "s", (0, 0), 1e13),
             ("must be finite", "s", (0, 0), np.nan),
             ("must be finite", "k", (0, 1), -np.inf))
    f = gen_named_field("skew_lognormal", level=2, seed=21, sigma=0.6,
                        kappa=0.4)
    for i, (message, part, entry, shift) in enumerate(cases):
        path = save_field(f, tmp_path / f"bad{i}.cghf")
        forge_field_file(path, part, (4, 4) + entry, shift)
        with pytest.raises(ValueError, match=message) as err:
            load_field(path)
        # each cell error names the forged cell, the first that fails
        if err.type is DegenerateCellError:
            assert str(err.value).startswith("cell (4, 4) ")
    # of two failing cells, the first in C order is named
    path = save_field(f, tmp_path / "two.cghf")
    forge_field_file(path, "s", (5, 1, 0, 0), -10.0)
    forge_field_file(path, "s", (2, 7, 1, 1), -10.0)
    with pytest.raises(DegenerateCellError, match=r"^cell \(2, 7\) symmetric part"):
        load_field(path)


def _field_message(s_cells):
    """The field check's message on these cells (k = 0), or None."""
    dim = s_cells.shape[-1]
    level = round(np.log(s_cells.shape[0]) / np.log(3))
    try:
        CoefficientField(dim=dim, level=level, s_cells=s_cells,
                         k_cells=np.zeros_like(s_cells))
    except DegenerateCellError as err:
        return str(err)
    return None


def _rotated(eigs, seed):
    """A symmetric matrix with these eigenvalues, turned by a random rotation."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(eigs),) * 2))
    s = q @ np.diag(eigs) @ q.T
    return 0.5 * (s + s.T)


@pytest.mark.parametrize("dim, level", [(2, 3), (3, 2)])
def test_cell_check_certifies_the_stock_kinds(dim, level):
    # every stock cell is settled in closed form, so eigvalsh never runs on
    # them, and the eigenvalue oracle accepts each field the check builds
    kinds = [("constant", {}), ("checkerboard", {"low": 1e-3, "high": 1e3}),
             ("laminate", {}), ("lognormal_iso", {"sigma": 2.0}),
             ("skew_lognormal", {"sigma": 1.5, "kappa": 2.0}),
             ("cascade_iso", {"sigma": 0.8})]
    for kind, params in kinds:
        f = gen_named_field(kind, level=level, dim=dim, seed=5, **params)
        assert fields._certified(f.s_cells).all(), kind
        assert eigvalsh_cell_check(f.s_cells, fields.COND_CAP) is None


@pytest.mark.parametrize("dim", [2, 3])
def test_anisotropic_cells_get_the_eigvalsh_decision(dim):
    # axis-aligned and turned anisotropic cells from cond 1 to 1e14: the
    # certificate settles only cells far inside the cap, and the decision and
    # message on every field are the eigenvalue oracle's
    rng = np.random.default_rng(dim)
    for cond in (1.0, 1e3, 1e6, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14):
        eigs = np.geomspace(1.0, 1.0 / cond, dim) * 10.0 ** rng.uniform(-5, 5)
        for cell in (np.diag(eigs), _rotated(eigs, int(cond) % 997)):
            s = np.broadcast_to(np.eye(dim), (3,) * dim + (dim, dim)).copy()
            s[(1,) * dim] = cell
            assert _field_message(s) == eigvalsh_cell_check(s, fields.COND_CAP)
            if fields._certified(cell):
                assert cond <= 1e9


def test_uncertified_cells_are_decided_by_eigvalsh():
    # cond 1e11 is inside the cap but outside the certificate's margin, so
    # only the eigenvalue fallback can accept it; cond 1e13 it must reject,
    # with the first failing cell named
    for cond, message in ((1e11, None),
                          (1e13, "cell (0, 2) condition number 1.000e+13 exceeds cap 1.0e+12")):
        s = np.broadcast_to(np.eye(2), (3, 3, 2, 2)).copy()
        s[0, 2] = s[2, 0] = np.diag([1.0, 1.0 / cond])
        assert not fields._certified(s[0, 2])
        assert _field_message(s) == message


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([2, 3]),
       edge=st.sampled_from(["zero", "cap", "margin"]),
       ulps=st.integers(-64, 64), turned=st.booleans(),
       scale=st.floats(-30, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_cells_at_the_thresholds_get_the_eigvalsh_decision(dim, edge, ulps, turned,
                                                           scale, seed):
    # cells within round-off of least eigenvalue 0, of cond = COND_CAP, and
    # of the certificate's own margin (cond near 1e9), placed in a field of
    # well-conditioned cells: same decision and message as the oracle
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    least = {"zero": ulps * eps,
             "cap": (1.0 + ulps * eps) / fields.COND_CAP,
             "margin": 10.0 ** rng.uniform(-9.5, -8.5) * (1.0 + ulps * eps)}[edge]
    eigs = np.concatenate([[1.0], rng.uniform(least, 1.0, dim - 2), [least]])
    eigs *= 10.0 ** scale
    cell = _rotated(eigs, seed) if turned else np.diag(eigs)
    s = np.broadcast_to(np.eye(dim) * 10.0 ** scale, (3,) * dim + (dim, dim)).copy()
    s[tuple(rng.integers(0, 3, dim))] = cell
    assert _field_message(s) == eigvalsh_cell_check(s, fields.COND_CAP)
