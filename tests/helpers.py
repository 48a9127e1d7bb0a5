"""Code that only the tests use: telling rotations from reflections,
composing and inverting point ops and grid isometries, mapping one
cell, looking up the colour action of any isometry in a computed group,
the coset representatives of a lattice, and a weave structure with the
same faces on every strand."""

from weavesym.isometry import POINT_OPS, GridIsometry, PointOp
from weavesym.weave import ONESIDED_WARP, ONESIDED_WEFT, WeaveStructure

_BY_MATRIX = {op.matrix: op for op in POINT_OPS}


def is_rotation(op: PointOp) -> bool:
    """True for the four point ops with determinant 1."""
    (a, b), (c, d) = op.matrix
    return a * d - b * c == 1


def apply_cell(iso: GridIsometry, cell):
    """Image of a grid cell, computed through its centre.

    The centre of cell (i, j) is (2i+1, 2j+1) in doubled coordinates;
    point operations keep both coordinates odd, so the result is again
    a cell centre.
    """
    x, y = iso.op.apply((2 * cell[0] + 1, 2 * cell[1] + 1))
    x += 2 * iso.t[0]
    y += 2 * iso.t[1]
    return ((x - 1) // 2, (y - 1) // 2)


def compose_ops(f: PointOp, g: PointOp) -> PointOp:
    """Matrix product f*g, i.e. apply g first."""
    (a, b), (c, d) = f.matrix
    (p, q), (r, s) = g.matrix
    return _BY_MATRIX[((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))]


def compose(f: GridIsometry, g: GridIsometry) -> GridIsometry:
    """f after g."""
    tx, ty = f.op.apply(g.t)
    return GridIsometry(compose_ops(f.op, g.op), (tx + f.t[0], ty + f.t[1]))


def invert_op(f: PointOp) -> PointOp:
    # the matrices are orthogonal, so the inverse is the transpose
    (a, b), (c, d) = f.matrix
    return _BY_MATRIX[((a, c), (b, d))]


def invert(f: GridIsometry) -> GridIsometry:
    inv = invert_op(f.op)
    tx, ty = inv.apply(f.t)
    return GridIsometry(inv, (-tx, -ty))


def chi_of(analysis, iso: GridIsometry):
    """Colour behaviour of an arbitrary isometry, read from the computed
    group: its translation part reduced modulo the preserve lattice,
    or None when the group has no such member."""
    key = (iso.op.name, analysis.lattice.reduce(iso.t))
    for el in analysis.elements:
        if (el.iso.op.name, el.iso.t) == key:
            return el.chi
    return None


def coset_reps(lat):
    """The points of [0, a) x [0, c) of a lattice, row by row, one per
    coset."""
    return ((x, y) for y in range(lat.c) for x in range(lat.a))


def uniform(pattern, warp=ONESIDED_WARP, weft=ONESIDED_WEFT) -> WeaveStructure:
    """A structure whose warps all show `warp` and wefts all `weft`."""
    return WeaveStructure(pattern, (warp,) * pattern.width, (weft,) * pattern.height)
