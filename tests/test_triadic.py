"""Cube addressing and partition-cube averages."""
import numpy as np
import pytest

from cghom.triadic import TriadicCube, block_means, domain_cube


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
