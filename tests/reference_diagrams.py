"""Reference SVG renderer: the padded-box glyph scan and ElementTree.

This is the renderer `weavesym.diagrams` replaced, kept as the oracle
for its output.  Every glyph is found by testing each lattice point of
a box padded to w2 + h2 + 4 on every side, and the document is built as
an ElementTree, indented and serialised.  `weavesym.diagrams` must
produce the same bytes.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from weavesym.analysis import axis_offset2, parallel_coeff
from weavesym.isometry import AXIS_DIR
from weavesym.naming import lift_kind

# the renderer's sizes, colours and layer classes, copied rather than
# imported so that a wrong value in `weavesym.diagrams` fails the check
CELL = 24
HALF = 12
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


def line_segment(u, off2, w2, h2):
    if u == (1, 0):
        if 0 <= off2 < h2:
            return (0, off2), (w2, off2)
    elif u == (0, 1):
        if 0 <= off2 < w2:
            return (off2, 0), (off2, h2)
    elif u == (1, 1):
        x0, x1 = max(0, off2), min(w2, h2 + off2)
        if x0 < x1:
            return (x0, x0 - off2), (x1, x1 - off2)
    else:
        x0, x1 = max(0, off2 - h2), min(w2, off2)
        if x0 < x1:
            return (x0, off2 - x0), (x1, off2 - x1)
    return None


def expand_glyphs(analysis, nx, ny):
    d = analysis.design
    lat = analysis.lattice
    w2, h2 = 2 * d.width * nx, 2 * d.height * ny
    pad = w2 + h2 + 4
    vbox = lat.points_in_box((-pad, pad), (-pad, pad))
    glyphs = []
    for el in analysis.elements:
        kind = el.element["kind"]
        if kind == "identity":
            continue
        if kind == "translation":
            glyphs.append({"side": el.side, "shape": "vector",
                           "kind": kind, "vector": tuple(el.element["vector"])})
            continue
        op, t = el.iso.op, el.iso.t
        if kind in ("rotation2", "rotation4"):
            seen = set()
            for v in vbox:
                tx, ty = t[0] + v[0], t[1] + v[1]
                if op.name == "rot180":
                    c2 = (tx, ty)
                elif op.name == "rot90":
                    c2 = (tx - ty, tx + ty)
                else:
                    c2 = (tx + ty, ty - tx)
                if 0 <= c2[0] < w2 and 0 <= c2[1] < h2 and c2 not in seen:
                    seen.add(c2)
                    glyphs.append({"side": el.side, "shape": "point",
                                   "kind": kind, "center2": c2})
        else:
            u = AXIS_DIR[op.name]
            m2 = 2 * lat.min_along(u)
            seen = set()
            for v in vbox:
                tv = (t[0] + v[0], t[1] + v[1])
                off2 = axis_offset2(op.name, tv)
                if off2 in seen:
                    continue
                seg = line_segment(u, off2, w2, h2)
                if seg is None:
                    continue
                seen.add(off2)
                r = parallel_coeff(op, tv) % m2
                glyphs.append({"side": el.side, "shape": "line",
                               "kind": "mirror" if r == 0 else "glide",
                               "offset2": off2, "segment": seg})
    return glyphs, (w2, h2)


def _px(v2):
    return str(v2 * HALF)


def _draw_cells(root, design, nx, ny):
    w2, h2 = 2 * design.width * nx, 2 * design.height * ny
    ET.SubElement(root, "rect", {
        "x": "0", "y": "0", "width": _px(w2), "height": _px(h2),
        "fill": "#ffffff", "stroke": "#999999", "stroke-width": "1"})
    cells = ET.SubElement(root, "g", {"class": "design"})
    for j in range(design.height * ny):
        for i in range(design.width * nx):
            if design.cell(i, j):
                ET.SubElement(cells, "rect", {
                    "x": str(i * CELL), "y": str(j * CELL),
                    "width": str(CELL), "height": str(CELL),
                    "class": "cell", "fill": "#222222"})


def _draw_glyph(parent, glyph, css, data_kind, color):
    shape = glyph["shape"]
    if shape == "line":
        (x0, y0), (x1, y1) = glyph["segment"]
        attrs = {"x1": _px(x0), "y1": _px(y0), "x2": _px(x1), "y2": _px(y1),
                 "class": css, "data-kind": data_kind,
                 "data-offset2": str(glyph["offset2"]),
                 "stroke": color}
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
        ET.SubElement(parent, "line", attrs)
    elif shape == "point":
        cx, cy = glyph["center2"]
        base = {"class": css, "data-kind": data_kind,
                "data-x2": str(cx), "data-y2": str(cy)}
        if data_kind in ("rotation4", "axis4-normal", "rotoinversion4-normal"):
            ET.SubElement(parent, "rect", {
                "x": str(cx * HALF - 5), "y": str(cy * HALF - 5),
                "width": "10", "height": "10",
                "fill": "none" if data_kind == "rotoinversion4-normal" else color,
                "stroke": color, "stroke-width": "1.5",
                "transform": f"rotate(45 {cx * HALF} {cy * HALF})", **base})
        elif data_kind == "inversion-center":
            ET.SubElement(parent, "circle", {
                "cx": _px(cx), "cy": _px(cy), "r": "4",
                "fill": "#ffffff", "stroke": color, "stroke-width": "1.5",
                **base})
        else:
            ET.SubElement(parent, "ellipse", {
                "cx": _px(cx), "cy": _px(cy), "rx": "5.5", "ry": "3",
                "fill": color, **base})
    else:
        vx, vy = glyph["vector"]
        ET.SubElement(parent, "line", {
            "x1": "0", "y1": "0", "x2": str(vx * CELL), "y2": str(vy * CELL),
            "class": css, "data-kind": data_kind,
            "data-vector": f"{vx},{vy}",
            "stroke": color, "stroke-width": "3",
            "stroke-dasharray": "4 3" if data_kind == "glide-plane-parallel" else "none",
            "marker-end": "url(#arrow)"})


def render(analysis, glyphs, repeats, mode):
    """The colour or layer diagram of `analysis` from glyphs that
    `expand_glyphs` returned for the same repeats."""
    nx, ny = repeats
    w2, h2 = 2 * analysis.design.width * nx, 2 * analysis.design.height * ny
    root = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": _px(w2), "height": _px(h2),
        "viewBox": f"0 0 {w2 * HALF} {h2 * HALF}"})
    defs = ET.SubElement(root, "defs")
    marker = ET.SubElement(defs, "marker", {
        "id": "arrow", "markerWidth": "8", "markerHeight": "8",
        "refX": "6", "refY": "3", "orient": "auto"})
    ET.SubElement(marker, "path", {"d": "M0,0 L6,3 L0,6 z", "fill": "context-stroke"})
    _draw_cells(root, analysis.design, nx, ny)
    overlay = ET.SubElement(root, "g", {"class": f"{mode}-elements"})
    order = {"line": 0, "vector": 1, "point": 2}
    for glyph in sorted(glyphs, key=lambda g: order[g["shape"]]):
        side = glyph["side"]
        if mode == "color":
            short = {"rotation2": "rot2", "rotation4": "rot4"}.get(
                glyph["kind"], glyph["kind"])
            css = f"{short} {side.lower()}"
            _draw_glyph(overlay, glyph, css, glyph["kind"],
                        RED if side == "S1" else BLUE)
        else:
            lifted = lift_kind(glyph["kind"], side)
            css = f"{_LAYER_CLASS[lifted]} {side.lower()}"
            _draw_glyph(overlay, glyph, css, lifted, BLACK)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


def design_svg(design, repeats=(1, 1)):
    nx, ny = repeats
    w2, h2 = 2 * design.width * nx, 2 * design.height * ny
    root = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": _px(w2), "height": _px(h2),
        "viewBox": f"0 0 {w2 * HALF} {h2 * HALF}"})
    _draw_cells(root, design, nx, ny)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"
