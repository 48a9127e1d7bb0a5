"""SVG diagrams of a classified design.

Two views are produced: the colour diagram marks every member of the
two-colour group over the design, red for side-preserving and blue for
side-reversing; the layer diagram shows the induced spatial elements in
black.  Each group record is expanded to all of its loci inside a
window of whole blocks, and every glyph carries machine-readable class
and data attributes.  The documents are written as text, in the layout
that ElementTree's indent() and tostring() give the same tree.
"""

from __future__ import annotations

from math import gcd

from .analysis import ColorGroupAnalysis, axis_offset2, parallel_coeff
from .classify import Classification
from .isometry import AXIS_DIR
from .lattice import Lattice
from .naming import lift_kind

CELL = 24          # pixels per grid unit
HALF = CELL // 2   # pixels per half-unit

RED = "#c8281e"
BLUE = "#1e50c8"
BLACK = "#111111"

_LAYER_CLASS = {
    "translation": "translation",
    "glide-plane-parallel": "glide-parallel",
    "axis2-normal": "rot2",
    "inversion-center": "inversion",
    "axis4-normal": "rot4",
    "rotoinversion4-normal": "rotoinv4",
    "mirror-plane-normal": "mirror",
    "axis2-inplane": "axis2-inplane",
    "glide-plane-normal": "glide",
    "screw2-inplane": "screw2",
}


def _line_segment(u, off2: int, w2: int, h2: int):
    """End points of the axis line with direction u and half-unit offset
    off2, clipped to the window [0,w2] x [0,h2]; off2 lies in
    `_offset_range(u, w2, h2)`, so the segment is never empty."""
    if u == (1, 0):
        return (0, off2), (w2, off2)
    if u == (0, 1):
        return (off2, 0), (off2, h2)
    if u == (1, 1):
        x0, x1 = max(0, off2), min(w2, h2 + off2)
        return (x0, x0 - off2), (x1, x1 - off2)
    x0, x1 = max(0, off2 - h2), min(w2, off2)
    return (x0, off2 - x0), (x1, off2 - x1)


def _rotation_centres(lat: Lattice, name: str, t, w2: int, h2: int):
    """Half-unit centres of the rotations (name, t + v), v in the lattice,
    that fall inside the window, in row-major order of v."""
    tx, ty = t
    # the box of (x, y) = t + v whose centre can land in the window: the
    # window itself for a half-turn, its rotated bounding box otherwise
    if name == "rot180":
        xs, ys = (0, w2), (0, h2)
    elif name == "rot90":
        xs, ys = (0, (w2 + h2) // 2), (-(w2 // 2), h2 // 2)
    else:
        xs, ys = (-(h2 // 2), w2 // 2), (0, (w2 + h2) // 2)
    out = []
    for vx, vy in lat.points_in_box((xs[0] - tx, xs[1] - tx), (ys[0] - ty, ys[1] - ty)):
        x, y = tx + vx, ty + vy
        if name == "rot180":
            c2 = (x, y)
        elif name == "rot90":
            c2 = (x - y, x + y)
        else:
            c2 = (x + y, y - x)
        if 0 <= c2[0] < w2 and 0 <= c2[1] < h2:
            out.append(c2)
    return out


def _offset_range(u, w2: int, h2: int) -> tuple[int, int]:
    """Half-open range of the half-unit offsets of the axes with
    direction u that `_line_segment` clips to a segment."""
    if u == (1, 0):
        return 0, h2
    if u == (0, 1):
        return 0, w2
    if u == (1, 1):
        return 1 - h2, w2
    return 1, w2 + h2


def _axis_translates(lat: Lattice, name: str, t, w2: int, h2: int):
    """(offset2, t + v) for each distinct axis of the reflections
    (name, t + v), v in the lattice, that crosses the window.

    The axes come in the order in which a row-major scan of the lattice
    points v in the box [-pad, pad)^2, pad = w2 + h2 + 4, first meets
    them.  That order is part of the output and is not the order of the
    offsets: which row first meets an offset depends on where the scan
    starts and where each row is clipped.  So the walk keeps the box's
    first row and column bounds, visits in each row only the points
    whose axis crosses the window, and stops once every reachable
    offset has been met.
    """
    lo, hi = _offset_range(AXIS_DIR[name], w2, h2)
    a, b, c = lat.a, lat.b, lat.c
    step = axis_offset2(name, (a, 0))
    # the offsets of t + L are axis_offset2(t) + gZ
    g = gcd(step, axis_offset2(name, (b, c)))
    want = len(range(lo + (axis_offset2(name, t) - lo) % g, hi, g))
    pad = w2 + h2 + 4
    found = {}
    for m in range(-(pad // c), (pad - 1) // c + 1):
        if len(found) == want:
            break
        x, y = t[0] + m * b, t[1] + m * c
        n0 = -((pad + m * b) // a)
        n1 = (pad - 1 - m * b) // a
        f0 = axis_offset2(name, (x, y))
        if step:
            n_lo = max(n0, -((f0 - lo) // step))
            n_hi = min(n1, (hi - 1 - f0) // step)
        elif lo <= f0 < hi:
            n_lo = n_hi = n0
        else:
            continue
        for n in range(n_lo, n_hi + 1):
            off2 = f0 + n * step
            if off2 not in found:
                found[off2] = (x + n * a, y)
    return found.items()


def _px(v2: int) -> str:
    return str(v2 * HALF)


def _start(depth: int, tag: str, attrs: dict) -> str:
    """Indented start tag, attributes in insertion order and written
    as given: every value is a constant of this module, a format field
    or an integer, and none holds a character that XML escapes."""
    return "  " * depth + "<" + tag + "".join(
        f' {k}="{v}"' for k, v in attrs.items())


def _leaf(depth: int, tag: str, attrs: dict) -> str:
    return _start(depth, tag, attrs) + " />"


def _element(depth: int, tag: str, attrs: dict, children: list[str]) -> list[str]:
    """Lines of one element over its already written children, laid out
    as `ET.indent` and `ET.tostring` lay it out."""
    if not children:
        return [_leaf(depth, tag, attrs)]
    return [_start(depth, tag, attrs) + ">", *children, "  " * depth + f"</{tag}>"]


def _document(w2: int, h2: int, body: list[str]) -> str:
    return "\n".join(_element(0, "svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": _px(w2), "height": _px(h2),
        "viewBox": f"0 0 {w2 * HALF} {h2 * HALF}"}, body)) + "\n"


_DEFS = _element(1, "defs", {}, _element(2, "marker", {
    "id": "arrow", "markerWidth": "8", "markerHeight": "8",
    "refX": "6", "refY": "3", "orient": "auto"},
    [_leaf(3, "path", {"d": "M0,0 L6,3 L0,6 z", "fill": "context-stroke"})]))
# cell rectangles differ only in their integer x and y
_CELL_RECT = _leaf(2, "rect", {
    "x": "%d", "y": "%d", "width": str(CELL), "height": str(CELL),
    "class": "cell", "fill": "#222222"})


def _draw_cells(design, nx: int, ny: int) -> list[str]:
    tiled = design.tiled(nx, ny)
    cells = []
    for j, r in enumerate(tiled.rows):
        while r:
            low = r & -r
            cells.append(_CELL_RECT % ((low.bit_length() - 1) * CELL, j * CELL))
            r ^= low
    return [_leaf(1, "rect", {
        "x": "0", "y": "0", "width": _px(2 * tiled.width), "height": _px(2 * tiled.height),
        "fill": "#ffffff", "stroke": "#999999", "stroke-width": "1"}),
        *_element(1, "g", {"class": "design"}, cells)]


def _glyph_line(kind: str, side: str, mode: str) -> str:
    """The leaf of every glyph of one (kind, side) in `mode`, with
    `str.format` fields where the geometry goes: a line takes its end
    points in pixels and its half-unit offset, a point its half-unit
    centre, that centre in pixels and the pixel corner of its square, a
    vector its grid components and their pixel ends."""
    if mode == "color":
        css = {"rotation2": "rot2", "rotation4": "rot4"}.get(kind, kind)
        data_kind, color = kind, RED if side == "S1" else BLUE
    else:
        data_kind = lift_kind(kind, side)
        css, color = _LAYER_CLASS[data_kind], BLACK
    base = {"class": f"{css} {side.lower()}", "data-kind": data_kind}
    if kind in ("mirror", "glide"):
        attrs = {"x1": "{0}", "y1": "{1}", "x2": "{2}", "y2": "{3}", **base,
                 "data-offset2": "{4}", "stroke": color}
        if data_kind in ("glide", "glide-plane-normal"):
            attrs["stroke-width"] = "1.6"
            attrs["stroke-dasharray"] = "7 4"
        elif data_kind == "screw2-inplane":
            attrs["stroke-width"] = "1.8"
            attrs["stroke-dasharray"] = "10 3 2 3"
        elif data_kind == "axis2-inplane":
            attrs["stroke-width"] = "1.8"
        else:
            attrs["stroke-width"] = "2.5"
        return _leaf(2, "line", attrs)
    if kind == "translation":
        return _leaf(2, "line", {
            "x1": "0", "y1": "0", "x2": "{2}", "y2": "{3}", **base,
            "data-vector": "{0},{1}",
            "stroke": color, "stroke-width": "3",
            "stroke-dasharray": "4 3" if data_kind == "glide-plane-parallel" else "none",
            "marker-end": "url(#arrow)"})
    base.update({"data-x2": "{0}", "data-y2": "{1}"})
    if kind == "rotation4":
        return _leaf(2, "rect", {
            "x": "{4}", "y": "{5}", "width": "10", "height": "10",
            "fill": "none" if data_kind == "rotoinversion4-normal" else color,
            "stroke": color, "stroke-width": "1.5",
            "transform": "rotate(45 {2} {3})", **base})
    if data_kind == "inversion-center":
        return _leaf(2, "circle", {
            "cx": "{2}", "cy": "{3}", "r": "4",
            "fill": "#ffffff", "stroke": color, "stroke-width": "1.5", **base})
    return _leaf(2, "ellipse", {
        "cx": "{2}", "cy": "{3}", "rx": "5.5", "ry": "3", "fill": color, **base})


def _svg(analysis: ColorGroupAnalysis, repeats, mode: str) -> str:
    """Every element's glyph line is built once and each of its loci in
    the window formatted into it; lines, then vectors, then points."""
    nx, ny = repeats
    d, lat = analysis.design, analysis.lattice
    w2, h2 = 2 * d.width * nx, 2 * d.height * ny
    lines, vectors, points = [], [], []
    for el in analysis.elements:
        kind = el.element["kind"]
        if kind == "identity":
            continue
        if kind == "translation":
            vx, vy = el.element["vector"]
            vectors.append(_glyph_line(kind, el.side, mode).format(
                vx, vy, vx * CELL, vy * CELL))
            continue
        op, t = el.iso.op, el.iso.t
        if kind in ("rotation2", "rotation4"):
            glyph = _glyph_line(kind, el.side, mode)
            points.extend(
                glyph.format(cx, cy, cx * HALF, cy * HALF, cx * HALF - 5, cy * HALF - 5)
                for cx, cy in _rotation_centres(lat, op.name, t, w2, h2))
            continue
        u = AXIS_DIR[op.name]
        m2 = 2 * lat.min_along(u)
        mirror, glide = (_glyph_line(k, el.side, mode) for k in ("mirror", "glide"))
        for off2, tv in _axis_translates(lat, op.name, t, w2, h2):
            (x0, y0), (x1, y1) = _line_segment(u, off2, w2, h2)
            glyph = glide if parallel_coeff(op, tv) % m2 else mirror
            lines.append(glyph.format(x0 * HALF, y0 * HALF, x1 * HALF, y1 * HALF, off2))
    return _document(w2, h2, [
        *_DEFS, *_draw_cells(d, nx, ny),
        *_element(1, "g", {"class": f"{mode}-elements"}, lines + vectors + points)])


def color_diagram_svg(cls: Classification | ColorGroupAnalysis,
                      repeats=(2, 2)) -> str:
    """Design plus the two-colour group, coloured by side."""
    analysis = cls.analysis if isinstance(cls, Classification) else cls
    return _svg(analysis, repeats, "color")


def layer_diagram_svg(cls: Classification | ColorGroupAnalysis,
                      repeats=(2, 2)) -> str:
    """Design plus the induced spatial elements, in black."""
    analysis = cls.analysis if isinstance(cls, Classification) else cls
    return _svg(analysis, repeats, "layer")


def design_svg(design, repeats=(1, 1)) -> str:
    """Plain cell rendering, no symmetry overlay."""
    nx, ny = repeats
    return _document(2 * design.width * nx, 2 * design.height * ny,
                     _draw_cells(design, nx, ny))


def save_svg(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
