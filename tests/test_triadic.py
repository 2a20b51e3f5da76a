"""Cube addressing, partitions and the two sub-cube lattices."""
import numpy as np
import pytest

from cghom.triadic import (TriadicCube, GridSpec, block_means, domain_cube,
                           partition_children, subcubes_at_scale)

from reference_impl import half_overlap_offsets


def test_cube_basics():
    c = TriadicCube(level=2, offset=(3, 9), dim=2)
    assert c.side == 9
    assert c.volume == 81.0
    assert c.slices == (slice(3, 12), slice(9, 18))
    assert domain_cube(2, 2) == TriadicCube(level=2, offset=(0, 0), dim=2)


def test_cube_validation():
    with pytest.raises(ValueError):
        TriadicCube(level=-1, offset=(0, 0), dim=2)
    with pytest.raises(ValueError):
        TriadicCube(level=1, offset=(0,), dim=2)
    with pytest.raises(ValueError):
        TriadicCube(level=1, offset=(0, 0), dim=4)
    with pytest.raises(ValueError):
        TriadicCube(level=1, offset=(0, -3), dim=2)


def test_containment():
    parent = TriadicCube(level=2, offset=(0, 0), dim=2)
    assert parent.contains(TriadicCube(level=1, offset=(6, 3), dim=2))
    assert parent.contains(parent)
    assert not parent.contains(TriadicCube(level=1, offset=(7, 0), dim=2))
    assert not parent.contains(TriadicCube(level=3, offset=(0, 0), dim=2))


def test_partition_children_cover():
    parent = TriadicCube(level=2, offset=(9, 18), dim=2)
    kids = partition_children(parent)
    assert len(kids) == 9
    assert all(k.level == 1 for k in kids)
    # children tile the parent exactly: every cell index hit once
    hits = np.zeros((9, 9), dtype=int)
    for kid in kids:
        assert parent.contains(kid)
        hits[tuple(slice(o - p, o - p + kid.side)
                   for o, p in zip(kid.offset, parent.offset))] += 1
    assert (hits == 1).all()


def test_partition_children_3d():
    kids = partition_children(TriadicCube(level=1, offset=(0, 0, 0), dim=3))
    assert len(kids) == 27
    assert len({k.offset for k in kids}) == 27


def test_partition_lattice_counts():
    dom = domain_cube(3, 2)
    for k in range(0, 4):
        cubes = subcubes_at_scale(dom, k, "partition")
        assert len(cubes) == 3 ** (2 * (3 - k))
        assert all(c.level == k for c in cubes)


def test_half_overlap_lattice_matches_bruteforce():
    dom = domain_cube(2, 2)
    for k in (1, 2):
        got = {c.offset for c in subcubes_at_scale(dom, k, "half_overlap")}
        want = set(half_overlap_offsets(9, k, 2))
        assert got == want


def test_half_overlap_count_frozen():
    # side-3 cubes on the step-1 lattice inside a side-9 window: 7 per axis
    dom = domain_cube(2, 2)
    assert len(subcubes_at_scale(dom, 1, "half_overlap")) == 49
    # at k = n only the window itself fits
    assert len(subcubes_at_scale(dom, 2, "half_overlap")) == 1
    # k = 0 degenerates to the cell partition
    assert len(subcubes_at_scale(dom, 0, "half_overlap")) == 81


def test_subcubes_rejects_bad_scale():
    dom = domain_cube(2, 2)
    with pytest.raises(ValueError):
        subcubes_at_scale(dom, 3, "partition")
    with pytest.raises(ValueError):
        subcubes_at_scale(dom, 1, "diagonal")


def test_cell_average_matches_slice_mean():
    rng = np.random.default_rng(7)
    values = rng.normal(size=(9, 9))
    cube = TriadicCube(level=1, offset=(3, 6), dim=2)
    assert np.isclose(block_means(values, 2, cube.side)[1, 2],
                      values[3:6, 6:9].mean())
    # matrix-valued cells average entrywise
    mats = rng.normal(size=(9, 9, 2, 2))
    got = block_means(mats, 2, cube.side)[1, 2]
    assert np.allclose(got, mats[3:6, 6:9].mean(axis=(0, 1)))


def test_grid_spec_counts():
    g = GridSpec(dim=2, top_level=1, resolution=2)
    assert g.cells_per_axis == 3
    assert g.elements_per_axis == 6
    assert g.nodes_per_axis == 7
    assert g.num_nodes == 49
    assert np.isclose(g.mesh_size, 0.5)
    with pytest.raises(ValueError):
        GridSpec(dim=2, top_level=1, resolution=0)
