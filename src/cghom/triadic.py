"""Triadic cube geometry on the unit-cell lattice.

The analysis window at scale ``n`` is the cube ``[0, 3^n)^d`` in unit-cell
coordinates.  Scale-``k`` cubes are half-open translates ``[z, z + 3^k)^d``
whose offsets live either on the partition lattice ``3^k Z^d`` (disjoint
tiling) or on the finer overlapping lattice ``3^{k-1} Z^d``.
"""
from __future__ import annotations

import itertools
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


@dataclass(frozen=True)
class GridSpec:
    """Nodal grid over a window: ``resolution`` Q1 elements per cell axis."""

    dim: int
    top_level: int
    resolution: int = 1

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("resolution must be a positive integer")
        if self.dim not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dim}")

    @property
    def cells_per_axis(self) -> int:
        return 3 ** self.top_level

    @property
    def elements_per_axis(self) -> int:
        return self.resolution * self.cells_per_axis

    @property
    def nodes_per_axis(self) -> int:
        return self.elements_per_axis + 1

    @property
    def num_nodes(self) -> int:
        return self.nodes_per_axis ** self.dim

    @property
    def mesh_size(self) -> float:
        return 1.0 / self.resolution


def partition_children(cube: TriadicCube) -> list[TriadicCube]:
    """The 3^d disjoint subcubes one level down."""
    if cube.level == 0:
        raise ValueError("level-0 cubes have no children")
    step = 3 ** (cube.level - 1)
    out = []
    for shifts in itertools.product(range(3), repeat=cube.dim):
        off = tuple(z + s * step for z, s in zip(cube.offset, shifts))
        out.append(TriadicCube(cube.level - 1, off, cube.dim))
    return out


def subcubes_at_scale(domain: TriadicCube, k: int, lattice: str = "partition") -> list[TriadicCube]:
    """Scale-``k`` subcubes of ``domain`` on the requested lattice.

    ``partition`` tiles the domain disjointly (offsets on ``3^k Z^d``).
    ``half_overlap`` walks the finer lattice ``3^{k-1} Z^d`` and keeps every
    translate fully contained in the domain, including boundary-touching
    ones; at k = 0 the finer lattice is sub-cell, so the family degenerates
    to the unit-cell partition (step 1).
    """
    if not 0 <= k <= domain.level:
        raise ValueError(f"scale k={k} outside [0, {domain.level}]")
    side_k = 3 ** k
    extent = domain.side
    if lattice == "partition":
        step = side_k
    elif lattice == "half_overlap":
        step = 3 ** (k - 1) if k >= 1 else 1
    else:
        raise ValueError(f"unknown lattice {lattice!r}")
    per_axis = range(0, extent - side_k + 1, step)
    out = []
    for rel in itertools.product(per_axis, repeat=domain.dim):
        off = tuple(z + r for z, r in zip(domain.offset, rel))
        out.append(TriadicCube(k, off, domain.dim))
    return out


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

