"""Physical weave structures: strands, faces and view rendering.

A structure is an over/under pattern (1 = weft passes over warp)
together with face colours for every strand.  Strands are flat ribbons
that do not twist, so each one shows a fixed face towards the viewer's
side and the other face towards the back.  Face strings hold two
characters, front face then back face, with "B" for black and "W" for
white.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd

from .design import Design, DesignFormatError, content_lines, parse_block, reverse_row, rotl

STRUCTURE_MAGIC = "weave-structure v1"

# classic palettes: a one-sided cloth shows dark warp faces and light
# weft faces in front, with the colours trading places behind; a basket
# mixes strands that are the same colour on both faces
ONESIDED_WARP = "BW"
ONESIDED_WEFT = "WB"
BASKET_WARP = "WW"
BASKET_WEFT = "BB"

# Largest twill `gen_twill` builds, in cells (a 2000x2000 twill fits;
# --over 100000 would otherwise ask for about 10^10 cells).
MAX_TWILL_CELLS = 1 << 22


def _check_faces(faces, count, label):
    faces = tuple(faces)
    if len(faces) != count:
        raise ValueError(f"expected {count} {label} face entries, got {len(faces)}")
    for f in faces:
        if len(f) != 2 or any(ch not in "BW" for ch in f):
            raise ValueError(f"bad {label} faces {f!r}: want two of B/W")
    return faces


@dataclass(frozen=True)
class WeaveStructure:
    pattern: Design
    warp_faces: tuple[str, ...]   # one entry per warp strand (column)
    weft_faces: tuple[str, ...]   # one entry per weft strand (row)

    def __post_init__(self):
        object.__setattr__(
            self, "warp_faces",
            _check_faces(self.warp_faces, self.pattern.width, "warp"))
        object.__setattr__(
            self, "weft_faces",
            _check_faces(self.weft_faces, self.pattern.height, "weft"))

    def _face_masks(self, k: int) -> tuple[int, list[int]]:
        """Column mask of the warps whose face k is black, and per weft
        a full row mask when its face k is black, else 0."""
        full = (1 << self.pattern.width) - 1
        warp = sum(1 << i for i, f in enumerate(self.warp_faces) if f[k] == "B")
        return warp, [full if f[k] == "B" else 0 for f in self.weft_faces]

    def render_front(self) -> Design:
        """Colour seen from the front: the front face of whichever
        strand is on top."""
        p = self.pattern
        warp, wefts = self._face_masks(0)
        return Design(p.width, p.height, tuple(
            (r & weft) | (~r & warp) for r, weft in zip(p.rows, wefts)))

    def render_back(self) -> Design:
        """Colour seen after turning the fabric over about a vertical
        axis: the back face of the strand underneath, with the x axis
        reversed."""
        p = self.pattern
        warp, wefts = self._face_masks(1)
        return Design(p.width, p.height, tuple(
            reverse_row((~r & weft) | (r & warp), p.width)
            for r, weft in zip(p.rows, wefts)))


def gen_twill(over: int, under: int, shift: int = 1,
              rows: int | None = None) -> Design:
    """Over/under twill pattern: weft j covers warps with
    (i - shift*j) mod (over+under) < over, so each row is the row
    before it rotated by `shift`."""
    if over < 1 or under < 1:
        raise ValueError("twill needs at least one over and one under")
    p = over + under
    if rows is None:
        rows = p // gcd(shift, p)
    if p * rows > MAX_TWILL_CELLS:
        raise ValueError(f"a {p}x{rows} twill exceeds {MAX_TWILL_CELLS} cells")
    base, mask = (1 << over) - 1, (1 << p) - 1
    return Design(p, rows, tuple(rotl(base, shift * j, p, mask) for j in range(rows)))


def striped_faces(count: int, stripe: int, phase: int = 0,
                  first: str = "BW") -> tuple[str, ...]:
    """Face colours for strands laid out in alternating stripes."""
    if stripe < 1:
        raise ValueError("stripe width must be positive")
    second = first[::-1]
    return tuple(
        first if ((k + phase) // stripe) % 2 == 0 else second
        for k in range(count))


def parse_structure(text: str) -> WeaveStructure:
    faces = {}                  # "warp"/"weft" -> (line number, entries)
    pattern_lines = []
    for lineno, line in content_lines(text, STRUCTURE_MAGIC, "structure"):
        label, *entries = line.split()
        if label in ("warp", "weft"):
            if label in faces:
                raise DesignFormatError(f"line {lineno}: repeated '{label}' line")
            faces[label] = (lineno, entries)
        else:
            pattern_lines.append((lineno, line))
    try:
        pattern = parse_block(pattern_lines)
    except DesignFormatError as exc:
        raise DesignFormatError(f"in structure pattern: {exc}") from None
    if len(faces) != 2:
        raise DesignFormatError("structure needs 'warp ...' and 'weft ...' lines")
    checked = {}
    for label, count in (("warp", pattern.width), ("weft", pattern.height)):
        lineno, entries = faces[label]
        try:
            checked[label] = _check_faces(entries, count, label)
        except ValueError as exc:
            raise DesignFormatError(f"line {lineno}: {exc}") from None
    return WeaveStructure(pattern, checked["warp"], checked["weft"])


def format_structure(struct: WeaveStructure) -> str:
    out = [STRUCTURE_MAGIC,
           f"block {struct.pattern.width} {struct.pattern.height}"]
    out.extend(struct.pattern.to_strings())
    out.append("warp " + " ".join(struct.warp_faces))
    out.append("weft " + " ".join(struct.weft_faces))
    return "\n".join(out) + "\n"


def load_structure(path: str | os.PathLike) -> WeaveStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_structure(fh.read())


def save_structure(struct: WeaveStructure, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_structure(struct))
