import random

import pytest
from helpers import apply_cell
from naive_oracle import NAIVE_OPS, grid_of, naive_pullback

from weavesym.design import (
    Design,
    DesignFormatError,
    format_design,
    load_design,
    parse_design,
    reverse_row,
    save_design,
)
from weavesym.isometry import MIRROR_DIAG, MIRROR_X, POINT_OPS, R90, GridIsometry

TWILL = Design.from_strings(["##..", ".##.", "..##", "#..#"])


def test_from_strings_bit_order():
    d = Design.from_strings(["#..", ".#."])
    assert d.width == 3 and d.height == 2
    assert d.rows == (1, 2)


def test_from_strings_rejects_empty():
    with pytest.raises(ValueError, match="at least one row"):
        Design.from_strings([])


def test_from_strings_rejects_a_plain_string():
    with pytest.raises(ValueError, match="not one string"):
        Design.from_strings("#.")


def test_from_strings_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 1 has 1 cells, expected 2"):
        Design.from_strings(["#.", "#"])


def test_from_strings_rejects_other_characters():
    with pytest.raises(ValueError, match="invalid cell 'x' in row 0"):
        Design.from_strings(["#x"])


def test_to_strings_roundtrip():
    assert Design.from_strings(TWILL.to_strings()) == TWILL


def test_to_strings_matches_cells():
    for w in range(1, 11):
        for h in range(1, 10 // w + 1):
            for bits in range(1 << (w * h)):
                d = Design(w, h, tuple((bits >> (j * w)) & ((1 << w) - 1)
                                       for j in range(h)))
                assert d.to_strings() == [
                    "".join("#" if d.cell(i, j) else "." for i in range(w))
                    for j in range(h)]


def test_cell_is_periodic():
    d = Design.from_strings(["#.", ".#"])
    assert d.cell(0, 0) == 1
    assert d.cell(2, 2) == 1
    assert d.cell(-1, 0) == 0
    assert d.cell(-2, -2) == 1


def test_black_count_and_balance():
    assert TWILL.black_count == 8


def test_complemented():
    d = Design.from_strings(["#.", ".#"])
    assert d.complemented().rows == (2, 1)
    assert d.complemented().complemented() == d


def test_tiled():
    d = Design.from_strings(["#.", ".#"])
    t = d.tiled(2, 2)
    assert (t.width, t.height) == (4, 4)
    for j in range(4):
        for i in range(4):
            assert t.cell(i, j) == d.cell(i, j)


def _reverse_cells(row, w):
    return sum(1 << (w - 1 - i) for i in range(w) if row >> i & 1)


def test_reverse_row_moves_cell_i_to_w_minus_1_minus_i():
    for w in range(1, 11):
        for row in range(1 << w):
            assert reverse_row(row, w) == _reverse_cells(row, w), (row, w)
    # wider than a machine word
    rng = random.Random(13)
    for w in range(1, 131):
        for _ in range(5):
            row = rng.getrandbits(w)
            assert reverse_row(row, w) == _reverse_cells(row, w), (row, w)


def test_transformed_is_pullback():
    rng = random.Random(5)
    for _ in range(20):
        w, h = rng.randint(1, 5), rng.randint(1, 5)
        d = Design(w, h, tuple(rng.randrange(1 << w) for _ in range(h)))
        for op in POINT_OPS:
            e = d.transformed(op)
            g = GridIsometry(op)
            for j in range(e.height):
                for i in range(e.width):
                    assert e.cell(i, j) == d.cell(*apply_cell(g, (i, j)))


def test_pullback_rows_matches_cell_image():
    # square and non-square blocks, on the design's own block, on the
    # transposed block and on a larger one, so that axis-swapping ops on
    # w != h read the design periodically
    rng = random.Random(11)
    for w in range(1, 7):
        for h in range(1, 7):
            d = Design(w, h, tuple(rng.randrange(1 << w) for _ in range(h)))
            grid = grid_of(d)
            for op in POINT_OPS:
                for width, height in ((w, h), (h, w), (w + 3, 2 * h + 1)):
                    rows = d.pullback_rows(op, width, height)
                    got = [[(r >> i) & 1 for i in range(width)] for r in rows]
                    want = naive_pullback(grid, w, h, NAIVE_OPS[op.name], width, height)
                    assert got == want, (d, op.name, width, height)


def test_transformed_transposes_block():
    assert TWILL.transformed(R90).width == TWILL.height
    assert TWILL.transformed(MIRROR_X).width == TWILL.width
    assert TWILL.transformed(MIRROR_DIAG).height == TWILL.width


def test_validation():
    with pytest.raises(ValueError):
        Design(0, 1, ())
    with pytest.raises(ValueError):
        Design(2, 2, (1,))
    with pytest.raises(ValueError):
        Design(2, 1, (4,))


@pytest.mark.parametrize("rows, bad", [
    ((3, 4, 8), 1),     # 4 needs a third cell
    ((1, 2, -1), 2),    # a negative row has bits beyond every width
    ((8, 1, -1), 0),    # the first bad row is named, not the most negative
])
def test_validation_names_the_first_bad_row(rows, bad):
    with pytest.raises(ValueError, match=f"^row {bad} has bits outside the block width$"):
        Design(2, 3, rows)


def test_parse_design():
    d = parse_design("weave-design v1\n// note\nblock 3 2\n#..\n.#.\n")
    assert d.rows == (1, 2)


def test_parse_design_errors():
    with pytest.raises(DesignFormatError, match="header"):
        parse_design("block 2 2\n..\n..\n")
    with pytest.raises(DesignFormatError, match="line 3"):
        parse_design("weave-design v1\nblock 3 1\n#.\n")
    with pytest.raises(DesignFormatError, match="invalid cell"):
        parse_design("weave-design v1\nblock 2 1\n#x\n")
    with pytest.raises(DesignFormatError, match="^line 2: expected 2 rows, found 1"):
        parse_design("weave-design v1\nblock 2 2\n..\n")
    with pytest.raises(DesignFormatError, match="^line 5: expected 1 rows, found 2"):
        parse_design("weave-design v1\nblock 2 1\n..\n// two\n##\n")
    with pytest.raises(DesignFormatError, match="^empty design file$"):
        parse_design("// nothing here\n\n")
    with pytest.raises(DesignFormatError, match="^line 2: expected 'weave-design v1' header$"):
        parse_design("\nweave-structure v1\nblock 1 1\n#\n")
    with pytest.raises(DesignFormatError, match="^missing 'block W H' line$"):
        parse_design("weave-design v1\n// no block\n")
    with pytest.raises(DesignFormatError, match="^line 3: expected 'block W H'$"):
        parse_design("weave-design v1\n\nblock 2\n..\n")
    with pytest.raises(DesignFormatError, match="^line 2: block dimensions must be integers$"):
        parse_design("weave-design v1\nblock 2 x\n..\n")
    with pytest.raises(DesignFormatError, match="^line 2: block dimensions must be positive$"):
        parse_design("weave-design v1\nblock 0 1\n\n")


def test_format_parse_roundtrip():
    text = format_design(TWILL, comment="two up two down")
    assert parse_design(text) == TWILL
    assert "// two up two down" in text


def test_file_roundtrip(tmp_path):
    path = tmp_path / "d.weave"
    save_design(TWILL, path)
    assert load_design(path) == TWILL
