import random
import xml.etree.ElementTree as ET

import reference_diagrams as ref

from weavesym import diagrams
from weavesym.analysis import color_group
from weavesym.catalog import load_manifest
from weavesym.classify import classify
from weavesym.design import Design, rotl
from weavesym.diagrams import color_diagram_svg, design_svg, layer_diagram_svg
from weavesym.weave import gen_twill

SVG = "{http://www.w3.org/2000/svg}"
TWILL = gen_twill(2, 2, 1)
REFERENCE = Design.from_strings(["#..#", "#.#.", ".##.", "#.#."])


def parse(svg_text):
    return ET.fromstring(svg_text)


def glyphs(root, shape):
    return [el for el in root.iter(f"{SVG}{shape}") if el.get("data-kind")]


def test_design_svg_draws_cells():
    root = parse(design_svg(TWILL))
    cells = [el for el in root.iter(f"{SVG}rect") if el.get("class") == "cell"]
    assert len(cells) == TWILL.black_count
    assert root.get("width") == str(4 * 24)


def test_design_svg_repeats():
    root = parse(design_svg(TWILL, repeats=(2, 2)))
    cells = [el for el in root.iter(f"{SVG}rect") if el.get("class") == "cell"]
    assert len(cells) == 4 * TWILL.black_count


def test_color_diagram_sides_and_colors():
    root = parse(color_diagram_svg(classify(TWILL)))
    lines = glyphs(root, "line")
    assert lines, "expected mirror and glide lines"
    for el in lines:
        css = el.get("class")
        assert css.split()[-1] in ("s1", "s2")
        stroke = el.get("stroke")
        if "s1" in css.split():
            assert stroke == "#c8281e"
        elif "s2" in css.split():
            assert stroke == "#1e50c8"


def test_color_diagram_rot2_points():
    root = parse(color_diagram_svg(classify(TWILL)))
    pts = glyphs(root, "ellipse")
    assert pts
    assert all(el.get("data-kind") == "rotation2" for el in pts)
    # centre coordinates are recorded in half units
    for el in pts:
        x2, y2 = int(el.get("data-x2")), int(el.get("data-y2"))
        assert 0 <= x2 < 16 and 0 <= y2 < 16
        assert float(el.get("cx")) == x2 * 12


def test_color_diagram_mirror_and_glide_split():
    # the twill's anti-diagonal family carries pure mirrors, the
    # diagonal family only glides
    root = parse(color_diagram_svg(classify(TWILL)))
    kinds = {el.get("data-kind") for el in glyphs(root, "line")
             if el.get("data-vector") is None}
    assert kinds == {"mirror", "glide"}


def test_layer_diagram_lifted_kinds():
    root = parse(layer_diagram_svg(classify(TWILL)))
    kinds = {el.get("data-kind") for el in glyphs(root, "line")}
    kinds |= {el.get("data-kind") for el in glyphs(root, "ellipse")}
    kinds |= {el.get("data-kind") for el in glyphs(root, "circle")}
    assert "axis2-normal" in kinds
    assert "inversion-center" in kinds
    assert "screw2-inplane" in kinds
    assert "glide-plane-normal" in kinds
    assert "axis2-inplane" in kinds
    assert "mirror-plane-normal" not in kinds


def test_layer_diagram_swap_translation_arrow():
    root = parse(layer_diagram_svg(classify(TWILL)))
    arrows = [el for el in root.iter(f"{SVG}line")
              if el.get("data-kind") == "glide-plane-parallel"]
    assert len(arrows) == 1
    assert arrows[0].get("data-vector") == "2,0"


def test_reference_layer_diagram():
    root = parse(layer_diagram_svg(classify(REFERENCE)))
    kinds = {el.get("data-kind") for el in root.iter() if el.get("data-kind")}
    assert kinds == {"mirror-plane-normal", "axis2-inplane", "inversion-center",
                     "glide-plane-normal", "screw2-inplane"}


def test_fourfold_glyphs():
    root = parse(color_diagram_svg(classify(Design.from_strings(["#.", ".#"]))))
    squares = [el for el in root.iter(f"{SVG}rect")
               if el.get("data-kind") == "rotation4"]
    assert squares


def test_mirror_lines_land_on_axis():
    cls = classify(REFERENCE)
    root = parse(layer_diagram_svg(cls))
    for el in root.iter(f"{SVG}line"):
        if el.get("data-kind") != "mirror-plane-normal":
            continue
        # horizontal mirrors only, at the recorded half-unit offset
        y1, y2 = float(el.get("y1")), float(el.get("y2"))
        assert y1 == y2 == int(el.get("data-offset2")) * 12


# --------------------------------------------- byte identity with the reference

REPEATS = ((1, 1), (2, 2), (3, 2))


def assert_reference_svgs(analysis):
    """Compare both diagrams with the reference; return the (kind, side)
    pairs of the glyphs drawn."""
    drawn = set()
    for repeats in REPEATS:
        glyphs, _ = ref.expand_glyphs(analysis, *repeats)
        where = (analysis.design, repeats)
        assert color_diagram_svg(analysis, repeats) == ref.render(
            analysis, glyphs, repeats, "color"), where
        assert layer_diagram_svg(analysis, repeats) == ref.render(
            analysis, glyphs, repeats, "layer"), where
        drawn.update((g["kind"], g["side"]) for g in glyphs)
    return drawn


def test_svg_matches_reference_on_small_blocks():
    count = 0
    drawn = set()
    for w in range(1, 10):
        for h in range(1, 9 // w + 1):
            for bits in range(1 << (w * h)):
                rows = tuple((bits >> (j * w)) & ((1 << w) - 1) for j in range(h))
                drawn |= assert_reference_svgs(color_group(Design(w, h, rows)))
                count += 1
    assert count == 3210
    # every glyph style is compared in both modes; side-preserving
    # translations are the lattice and are not drawn
    assert drawn == {("translation", "S2")} | {
        (kind, side) for kind in ("rotation2", "rotation4", "mirror", "glide")
        for side in ("S1", "S2")}


def test_svg_matches_reference_on_catalog():
    entries = load_manifest()
    assert len(entries) == 44
    for entry in entries:
        assert_reference_svgs(color_group(entry.design))


def sheared_motifs(rng, count):
    """Seeded motifs, half of them square and symmetric about the
    diagonal, tiled up to 3x3 and sheared by a shift that grows with the
    motif row band."""
    for _ in range(count):
        mw = rng.randint(1, 3)
        if rng.random() < 0.5:
            mh = mw
            upper = {(i, j): rng.getrandbits(1) for j in range(mw) for i in range(j, mw)}
            rows = [sum(upper[max(i, j), min(i, j)] << i for i in range(mw))
                    for j in range(mh)]
        else:
            mh = rng.randint(1, 3)
            rows = [rng.getrandbits(mw) for _ in range(mh)]
        tiled = Design(mw, mh, tuple(rows)).tiled(rng.randint(1, 3), rng.randint(1, 3))
        w = tiled.width
        shear = rng.randrange(w)
        yield Design(w, tiled.height, tuple(
            rotl(r, shear * (j // mh), w, (1 << w) - 1)
            for j, r in enumerate(tiled.rows)))


def test_svg_matches_reference_on_sheared_motifs():
    sheared = diagonal = 0
    for design in sheared_motifs(random.Random(20261018), 150):
        analysis = color_group(design)
        sheared += analysis.lattice.b != 0
        diagonal += any(el.iso.op.name in ("mirror_diag", "mirror_anti")
                        for el in analysis.elements)
        assert_reference_svgs(analysis)
    assert sheared and diagonal


def test_design_svg_matches_reference():
    blank = [Design(w, h, (0,) * h) for w, h in ((1, 1), (3, 2), (2, 5))]
    for design in blank + [TWILL, REFERENCE, TWILL.tiled(2, 3)]:
        for repeats in ((1, 1), (2, 3)):
            assert design_svg(design, repeats) == ref.design_svg(design, repeats)
    assert '<g class="design" />' in design_svg(blank[1])


def test_line_glyphs_cost_one_clip_each(monkeypatch):
    calls = 0
    real = diagrams._line_segment

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(diagrams, "_line_segment", counted)
    svg = color_diagram_svg(color_group(TWILL.tiled(8, 8)), (2, 2))
    lines = svg.count(" data-offset2=")
    assert lines == 382
    assert calls == lines
