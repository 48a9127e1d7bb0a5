"""Doubly periodic black/white designs and their file format.

A design assigns one of two colours to every grid cell and repeats with
some translational block.  Black (1) marks cells where the weft strand
passes over the warp; white (0) marks warp-over-weft.  Rows are stored
as integers with bit i holding the colour of cell (i, j); `rotl`,
`reverse_row`, `transpose_rows` and `tile_rows` are the row operations
the rest of the package builds on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .isometry import PointOp

BLACK = "#"
WHITE = "."
MAGIC = "weave-design v1"
_CELL_CHARS = str.maketrans("10", BLACK + WHITE)
_CELL_BITS = str.maketrans(BLACK + WHITE, "10")


class DesignFormatError(ValueError):
    """Raised for malformed design files."""


def rotl(row: int, s: int, w: int, mask: int) -> int:
    """A w-cell row rotated so that cell i moves to cell i + s mod w;
    `mask` is (1 << w) - 1."""
    s %= w
    if s == 0:
        return row
    return ((row << s) | (row >> (w - s))) & mask


def reverse_row(row: int, w: int) -> int:
    """A w-cell row mirrored so that cell i moves to cell w - 1 - i."""
    # the bit above the row keeps its leading zeros in the string
    return int(bin(row | (1 << w))[:2:-1], 2)


def transpose_rows(rows, w: int) -> list[int]:
    """Rows of the transposed block: cell (i, j) moves to (j, i), so
    row i holds column i of a block of w-cell rows."""
    # column i, read bottom row first, is the binary string of row i
    strs = [format(r, f"0{w}b") for r in reversed(rows)]
    return [int("".join(col), 2) for col in zip(*strs)][::-1]


def tile_rows(rows, w: int, width: int) -> list[int]:
    """Each w-cell row repeated across `width` cells, cut at the right."""
    n = -(-width // w)
    repunit = ((1 << (w * n)) - 1) // ((1 << w) - 1)
    mask = (1 << width) - 1
    return [(r * repunit) & mask for r in rows]


@dataclass(frozen=True)
class Design:
    width: int
    height: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("block dimensions must be positive")
        if len(self.rows) != self.height:
            raise ValueError(f"expected {self.height} rows, got {len(self.rows)}")
        mask = (1 << self.width) - 1
        if min(self.rows) < 0 or max(self.rows) > mask:
            j = next(j for j, r in enumerate(self.rows) if not 0 <= r <= mask)
            raise ValueError(f"row {j} has bits outside the block width")

    @classmethod
    def from_strings(cls, lines) -> "Design":
        """Design from equal-length strings of '#' (black) and '.'
        (white); anything else raises ValueError."""
        if isinstance(lines, str):
            raise ValueError("rows must be a list of strings, not one string")
        if not lines:
            raise ValueError("a design needs at least one row")
        rows = []
        for j, line in enumerate(lines):
            if not isinstance(line, str):
                raise ValueError(f"row {j} is not a string")
            if len(line) != len(lines[0]):
                raise ValueError(f"row {j} has {len(line)} cells, expected {len(lines[0])}")
            rows.append(_row_bits(line, j))
        return cls(len(lines[0]), len(lines), tuple(rows))

    def to_strings(self) -> list[str]:
        # the binary string of a row holds cell 0 last
        spec = f"0{self.width}b"
        return [format(r, spec)[::-1].translate(_CELL_CHARS) for r in self.rows]

    def cell(self, i: int, j: int) -> int:
        """Colour of cell (i, j), extended periodically."""
        return (self.rows[j % self.height] >> (i % self.width)) & 1

    @property
    def black_count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def complemented(self) -> "Design":
        mask = (1 << self.width) - 1
        return Design(self.width, self.height, tuple(r ^ mask for r in self.rows))

    def tiled(self, nx: int, ny: int) -> "Design":
        """The same pattern declared on an nx-by-ny multiple block."""
        rows = tile_rows(self.rows, self.width, self.width * nx)
        return Design(self.width * nx, self.height * ny, tuple(rows) * ny)

    def transformed(self, op: PointOp) -> "Design":
        """Pull-back of the design under a point operation.

        The result e satisfies e(c) = self(op(c)).  Operations that
        exchange the axes transpose the block.
        """
        if op.delta == -1:
            w, h = self.height, self.width
        else:
            w, h = self.width, self.height
        return Design(w, h, self.pullback_rows(op, w, h))

    def pullback_rows(self, op: PointOp, width: int, height: int) -> tuple[int, ...]:
        """Rows of e with e(c) = self(op(c)) on a width-by-height block,
        reading the design periodically.

        Every point op is a row-level operation: x -> -x reverses the
        bits of each row, y -> -y reverses the row order, and the four
        ops that exchange the axes first transpose the block.
        """
        (a, b), (c, d) = op.matrix
        w, h, rows = self.width, self.height, self.rows
        if b:
            rows = transpose_rows(rows, w)
            w, h = h, w
            flip_x, flip_y = c < 0, b < 0
        else:
            flip_x, flip_y = a < 0, d < 0
        if flip_x:
            rows = [reverse_row(r, w) for r in rows]
        if flip_y:
            rows = rows[::-1]
        if width != w:
            rows = tile_rows(rows, w, width)
        return tuple((rows * -(-height // h))[:height])

    def __str__(self) -> str:
        return "\n".join(self.to_strings())


def _row_bits(line: str, j: int) -> int:
    """Row integer of a '#'/'.' string, bit i holding cell i."""
    if line.strip(BLACK + WHITE):
        bad = next(ch for ch in line if ch not in (BLACK, WHITE))
        raise ValueError(f"invalid cell {bad!r} in row {j}")
    return int(line[::-1].translate(_CELL_BITS) or "0", 2)


def content_lines(text: str, magic: str, kind: str) -> list[tuple[int, str]]:
    """(line number, body) of every line after the `magic` header that
    is not blank once its `//` comment is stripped; numbers count from
    1.  A file of only blank and comment lines is an empty `kind` file;
    otherwise the first line with a body must be the header."""
    lines = [(lineno, body) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (body := raw.split("//", 1)[0].strip())]
    if not lines:
        raise DesignFormatError(f"empty {kind} file")
    lineno, header = lines[0]
    if header != magic:
        raise DesignFormatError(f"line {lineno}: expected '{magic}' header")
    return lines[1:]


def parse_design(text: str) -> Design:
    return parse_block(content_lines(text, MAGIC, "design"))


def parse_block(lines: list[tuple[int, str]]) -> Design:
    """The design of a 'block W H' line and its rows, given as
    `content_lines` pairs so that errors name the file's own lines."""
    if not lines:
        raise DesignFormatError("missing 'block W H' line")
    lineno, decl = lines[0]
    parts = decl.split()
    if len(parts) != 3 or parts[0] != "block":
        raise DesignFormatError(f"line {lineno}: expected 'block W H'")
    try:
        width, height = int(parts[1]), int(parts[2])
    except ValueError:
        raise DesignFormatError(f"line {lineno}: block dimensions must be integers") from None
    if width < 1 or height < 1:
        raise DesignFormatError(f"line {lineno}: block dimensions must be positive")
    body = lines[1:]
    if len(body) != height:
        # name the first surplus row, or the block line when rows are missing
        where = body[height][0] if len(body) > height else lineno
        raise DesignFormatError(
            f"line {where}: expected {height} rows, found {len(body)}")
    rows = []
    for j, (lineno, line) in enumerate(body):
        if len(line) != width:
            raise DesignFormatError(
                f"line {lineno}: row {j} has {len(line)} cells, expected {width}")
        try:
            rows.append(_row_bits(line, j))
        except ValueError as exc:
            raise DesignFormatError(f"line {lineno}: {exc}") from None
    return Design(width, height, tuple(rows))


def format_design(design: Design, comment: str | None = None) -> str:
    out = [MAGIC]
    if comment:
        out.extend("// " + line for line in comment.splitlines())
    out.append(f"block {design.width} {design.height}")
    out.extend(design.to_strings())
    return "\n".join(out) + "\n"


def load_design(path: str | os.PathLike) -> Design:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_design(fh.read())


def save_design(design: Design, path: str | os.PathLike, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_design(design, comment))
