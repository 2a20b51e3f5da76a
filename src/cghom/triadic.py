"""Triadic cube geometry on the unit-cell lattice.

The analysis window at scale ``n`` is the cube ``[0, 3^n)^d`` in unit-cell
coordinates.  Scale-``k`` cubes are half-open translates ``[z, z + 3^k)^d``
whose offsets live either on the partition lattice ``3^k Z^d`` (disjoint
tiling) or on the finer overlapping lattice ``3^{k-1} Z^d``.  A contained
cube of the overlapping lattice is a 3^d block of scale-(k-1) partition
cubes, so both lattices are built from the partition: ``norms.ring_dual_norm``
averages such blocks of ``block_means``, and ``homexp.half_lattice_matrices``
merges the blocks' boundary traces.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TriadicCube:
    """Half-open cube ``[offset, offset + 3^level)^dim`` in cell coordinates."""

    level: int
    offset: tuple[int, ...]
    dim: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dim}")
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if len(self.offset) != self.dim:
            raise ValueError("offset length must match dimension")
        if any(z < 0 for z in self.offset):
            raise ValueError("offsets must be nonnegative window coordinates")

    @property
    def side(self) -> int:
        return 3 ** self.level

    @property
    def volume(self) -> float:
        return float(self.side ** self.dim)

    @property
    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(z, z + self.side) for z in self.offset)

    def contains(self, other: "TriadicCube") -> bool:
        return all(
            z <= w and w + other.side <= z + self.side
            for z, w in zip(self.offset, other.offset)
        )


def domain_cube(level: int, dim: int = 2) -> TriadicCube:
    """The full window ``[0, 3^level)^dim``."""
    return TriadicCube(level, (0,) * dim, dim)


def block_means(values: np.ndarray, dim: int, factor: int) -> np.ndarray:
    """Mean over non-overlapping blocks of side ``factor`` (trailing axes kept):
    ``(m,)*dim + trailing`` values give ``(m // factor,)*dim + trailing``."""
    mc = values.shape[0] // factor
    shape = []
    for _ in range(dim):
        shape.extend([mc, factor])
    shape.extend(values.shape[dim:])
    v = values.reshape(shape)
    return v.mean(axis=tuple(2 * ax + 1 for ax in range(dim)))

