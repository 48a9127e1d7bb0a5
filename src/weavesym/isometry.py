"""Exact integer isometries of the unit square grid.

Cells are the unit squares [i, i+1] x [j, j+1] with x running right and
y running down.  Every isometry handled here is a point operation from
the symmetry group of the square lattice followed by an integer
translation, so cell centres map to cell centres and all arithmetic
stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

Vec = tuple[int, int]


@dataclass(frozen=True)
class PointOp:
    """One of the eight point symmetries of the square lattice."""

    name: str
    matrix: tuple[Vec, Vec]

    def apply(self, v: Vec) -> Vec:
        (a, b), (c, d) = self.matrix
        return (a * v[0] + b * v[1], c * v[0] + d * v[1])

    @property
    def delta(self) -> int:
        """+1 for operations that keep the axis directions, -1 for the
        four that exchange them (quarter turns and diagonal mirrors)."""
        return 1 if self.matrix[0][1] == 0 else -1

    def __repr__(self) -> str:
        return f"PointOp({self.name})"


IDENTITY = PointOp("identity", ((1, 0), (0, 1)))
R90 = PointOp("rot90", ((0, -1), (1, 0)))
R180 = PointOp("rot180", ((-1, 0), (0, -1)))
R270 = PointOp("rot270", ((0, 1), (-1, 0)))
MIRROR_X = PointOp("mirror_x", ((1, 0), (0, -1)))      # horizontal axis
MIRROR_Y = PointOp("mirror_y", ((-1, 0), (0, 1)))      # vertical axis
MIRROR_DIAG = PointOp("mirror_diag", ((0, 1), (1, 0)))    # axis x = y
MIRROR_ANTI = PointOp("mirror_anti", ((0, -1), (-1, 0)))  # axis x = -y

POINT_OPS: tuple[PointOp, ...] = (
    IDENTITY, R90, R180, R270, MIRROR_X, MIRROR_Y, MIRROR_DIAG, MIRROR_ANTI,
)

_BY_NAME = {op.name: op for op in POINT_OPS}

# Axis direction of each reflection, as a primitive integer vector.
AXIS_DIR = {
    "mirror_x": (1, 0),
    "mirror_y": (0, 1),
    "mirror_diag": (1, 1),
    "mirror_anti": (1, -1),
}


def op_by_name(name: str) -> PointOp:
    return _BY_NAME[name]


@dataclass(frozen=True)
class GridIsometry:
    """The map x -> op(x) + t with an integer translation part t."""

    op: PointOp
    t: Vec = (0, 0)
