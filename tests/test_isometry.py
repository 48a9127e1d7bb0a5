import pytest
from helpers import apply_cell, compose, compose_ops, invert, invert_op, is_rotation

from weavesym.isometry import (
    IDENTITY,
    MIRROR_ANTI,
    MIRROR_DIAG,
    MIRROR_X,
    MIRROR_Y,
    POINT_OPS,
    R90,
    R180,
    R270,
    GridIsometry,
    op_by_name,
)


def test_eight_distinct_ops():
    assert len(POINT_OPS) == 8
    assert len({op.matrix for op in POINT_OPS}) == 8


def test_deltas():
    assert [op.delta for op in (IDENTITY, R90, R180, R270)] == [1, -1, 1, -1]
    assert [op.delta for op in (MIRROR_X, MIRROR_Y)] == [1, 1]
    assert [op.delta for op in (MIRROR_DIAG, MIRROR_ANTI)] == [-1, -1]


def test_rotation_flags():
    rotations = {op.name for op in POINT_OPS if is_rotation(op)}
    assert rotations == {"identity", "rot90", "rot180", "rot270"}


def test_op_by_name_roundtrip():
    for op in POINT_OPS:
        assert op_by_name(op.name) is op
    with pytest.raises(KeyError):
        op_by_name("rot45")


def test_compose_ops_closes():
    names = {op.name for op in POINT_OPS}
    for f in POINT_OPS:
        for g in POINT_OPS:
            assert compose_ops(f, g).name in names


def test_compose_ops_examples():
    assert compose_ops(R90, R90) is R180
    assert compose_ops(R90, R270) is IDENTITY
    assert compose_ops(MIRROR_X, MIRROR_Y) is R180
    # apply the right operand first
    assert compose_ops(MIRROR_X, R90) is MIRROR_ANTI
    assert compose_ops(R90, MIRROR_X) is MIRROR_DIAG


def test_invert_op():
    for op in POINT_OPS:
        assert compose_ops(op, invert_op(op)) is IDENTITY
        assert compose_ops(invert_op(op), op) is IDENTITY
    assert invert_op(R90) is R270


def test_apply_cell_rotation_about_origin():
    g = GridIsometry(R90)
    # cell (0, 0) spans [0,1]^2; a quarter turn about the origin lands
    # it on [-1,0]x[0,1]
    assert apply_cell(g, (0, 0)) == (-1, 0)
    assert apply_cell(g, (2, 1)) == (-2, 2)


def test_apply_cell_mirror():
    g = GridIsometry(MIRROR_Y, (4, 0))
    # x -> 4 - x swaps the four columns 0..3 end for end
    assert [apply_cell(g, (i, 0))[0] for i in range(4)] == [3, 2, 1, 0]


def test_compose_matches_pointwise_action():
    cells = [(0, 0), (1, 2), (-3, 4), (5, -1)]
    for f_op in POINT_OPS:
        for g_op in POINT_OPS:
            f = GridIsometry(f_op, (1, -2))
            g = GridIsometry(g_op, (0, 3))
            fg = compose(f, g)
            for c in cells:
                assert apply_cell(fg, c) == apply_cell(f, apply_cell(g, c))


def test_invert_isometry():
    cells = [(0, 0), (2, 5), (-1, 3)]
    for op in POINT_OPS:
        g = GridIsometry(op, (3, 1))
        inv = invert(g)
        for c in cells:
            assert apply_cell(inv, apply_cell(g, c)) == c
            assert apply_cell(g, apply_cell(inv, c)) == c
