"""The four benchmark workloads: seeded inputs, the timed call, and the
correctness checks run after each pass.

A pass is one fixed list of slots.  The seed decides the content of
every slot (random bits, and a dihedral transform, cyclic shift and
complement of each structured motif) and the order of the pass, while
the slot list fixes block sizes and motif families.  Per-design cost
therefore depends on the slot, not on the seed, which keeps medians and
percentiles comparable across seeds.

Inputs are built here from plain strings, independently of the
package; the program only ever sees design text or search targets.
"""

from __future__ import annotations

import importlib
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from naive_oracle import NAIVE_OPS, naive_chi_table, naive_color_action

design_mod = importlib.import_module("weavesym.design")
classify_mod = importlib.import_module("weavesym.classify")
diagrams_mod = importlib.import_module("weavesym.diagrams")
search_mod = importlib.import_module("weavesym.search")
naming_mod = importlib.import_module("weavesym.naming")

# naive_chi_table costs 8 * (w*h)^2 cell visits; above this area it
# would outweigh the timed work, so larger blocks get per-element checks
CHI_TABLE_MAX_CELLS = 64
# search-table settings: the criterion-1 sweep
SEARCH_MAX_BLOCK = (12, 12)
SEARCH_MAX_CELLS = 16
SVG_NS = "{http://www.w3.org/2000/svg}"
SVG_CELL_PX = 24
SVG_REPEATS = 2


# ---------------------------------------------------------------- inputs

def random_rows(rng, w: int, h: int) -> list[str]:
    return [format(rng.getrandbits(w), f"0{w}b").translate(_BITS) for _ in range(h)]


_BITS = str.maketrans("10", "#.")
_COMPLEMENT = str.maketrans("#.", ".#")


def twill(over: int, under: int, shift: int) -> list[str]:
    p = over + under
    rows = 1
    while (shift * rows) % p:
        rows += 1
    return ["".join("#" if (i - shift * j) % p < over else "." for i in range(p))
            for j in range(rows)]


def basket(k: int) -> list[str]:
    """k-by-k blocks in a checkerboard: the k/k basket (hopsack) weave."""
    return ["".join("#" if (i // k + j // k) % 2 == 0 else "." for i in range(2 * k))
            for j in range(2 * k)]


def varied(rng, rows: list[str]) -> list[str]:
    """A seeded copy of a motif under one of the 8 grid point
    operations, a cyclic shift and possibly a colour complement; all of
    these leave the symmetry type unchanged."""
    k = rng.randrange(8)
    if k & 4:
        rows = ["".join(col) for col in zip(*rows)]
    if k & 2:
        rows = rows[::-1]
    if k & 1:
        rows = [r[::-1] for r in rows]
    dx, dy = rng.randrange(len(rows[0])), rng.randrange(len(rows))
    rows = [r[dx:] + r[:dx] for r in rows[dy:] + rows[:dy]]
    if rng.random() < 0.5:
        rows = [r.translate(_COMPLEMENT) for r in rows]
    return rows


def tiled(rows: list[str], width: int, height: int) -> list[str]:
    """The motif repeated to fill at most width x height."""
    nx, ny = max(1, width // len(rows[0])), max(1, height // len(rows))
    return [r * nx for r in rows] * ny


def design_text(rows: list[str]) -> str:
    return "weave-design v1\nblock {} {}\n{}\n".format(
        len(rows[0]), len(rows), "\n".join(rows))


@dataclass
class DesignInput:
    rows: list[str]
    text: str
    motif: list[str] | None = None     # generator motif of a tiled design
    mirrored: bool = False             # left half mirrored onto the right


def random_input(rng, w: int, h: int) -> DesignInput:
    if rng.random() < 0.5:
        w, h = h, w
    rows = random_rows(rng, w, h)
    return DesignInput(rows, design_text(rows))


def periodic_input(rng, family: str, param: tuple, side: int) -> DesignInput:
    if family == "mirror":
        half = random_rows(rng, side // 2, param[0])
        block = [r + r[::-1] for r in half]
        rows = tiled(block, side, side)
        return DesignInput(rows, design_text(rows),
                           motif=block if block != rows else None, mirrored=True)
    if family == "twill":
        motif = varied(rng, twill(*param))
    elif family == "basket":
        motif = varied(rng, basket(*param))
    else:
        motif = random_rows(rng, *param)
        if rng.random() < 0.5:
            motif = ["".join(col) for col in zip(*motif)]
    rows = tiled(motif, side, side)
    return DesignInput(rows, design_text(rows), motif=motif)


# Slot lists.  With m slots per pass, the pooled median and 90th
# percentile (statistics.quantiles, exclusive method) always fall
# between the slots of cost rank m/2 and m/2 + 1, and 0.9m and
# 0.9m + 1.  Each list therefore puts several copies of one slot
# around those ranks, so that both percentiles read a single kind of
# design, and the other slots are clearly cheaper or dearer.

# (w, h); the seed picks the orientation
ANALYZE_RANDOM_SLOTS = (
    [(8, 8), (8, 8), (8, 12), (8, 16), (12, 12), (8, 24),
     (12, 16), (16, 16), (16, 16), (12, 24), (16, 20), (8, 32)]
    + [(24, 32)] * 14                                   # ranks 13-26: median
    + [(64, 64)] * 3 + [(32, 128)] * 2 + [(48, 96)] * 2
    + [(96, 128)] * 6                                   # ranks 34-39: 90th
    + [(128, 128)]
)

# (family, parameters, block side)
ANALYZE_PERIODIC_SLOTS = (
    [("twill", (3, 5, 3), 16), ("twill", (1, 3, 1), 16), ("twill", (1, 2, 1), 18),
     ("twill", (2, 1, 1), 18), ("twill", (3, 3, 1), 18), ("twill", (2, 2, 1), 16),
     ("twill", (1, 1, 1), 16), ("basket", (2,), 16), ("basket", (4,), 16),
     ("motif", (4, 5), 20), ("motif", (4, 4), 16), ("motif", (6, 4), 24),
     ("motif", (5, 5), 20), ("motif", (5, 6), 30), ("motif", (8, 4), 32),
     ("mirror", (16,), 16), ("mirror", (20,), 20)]
    + [("twill", (2, 2, 1), 32)] * 7                    # ranks 18-24: median
    + [("basket", (2,), 32), ("mirror", (32,), 32), ("twill", (1, 1, 1), 32),
       ("twill", (3, 5, 3), 64), ("motif", (8, 8), 64), ("mirror", (32,), 128),
       ("twill", (1, 3, 1), 64), ("mirror", (64,), 64)]
    + [("twill", (2, 2, 1), 64)] * 6                    # ranks 33-38: 90th
    + [("motif", (8, 8), 128), ("twill", (2, 2, 1), 128)]
)

# block sides stay at 32 or below: the diagrams draw every locus of
# every element over 2 x 2 blocks, and a 2/2 twill tiled to 128 x 128
# takes more than 10 s to render
RENDER_SLOTS = (
    [("random", (8, 8), 0), ("random", (8, 16), 0), ("random", (12, 12), 0),
     ("random", (16, 16), 0), ("random", (16, 24), 0), ("random", (12, 28), 0),
     ("mirror", (8,), 16), ("motif", (4, 4), 16)]
    + [("random", (24, 32), 0)] * 4                     # ranks 9-12: median
    + [("motif", (5, 6), 30), ("twill", (3, 5, 3), 24), ("twill", (2, 2, 1), 12),
       ("twill", (1, 3, 1), 16)]
    + [("twill", (1, 1, 1), 8), ("basket", (2,), 16)] * 2   # ranks 17-20: 90th
)


# ---------------------------------------------------------------- checks

def _op_keeps_axes(mat) -> bool:
    return mat[0][1] == 0


def _in_lattice(basis, t) -> bool:
    (ax, ay), (bx, by) = basis
    det = ax * by - ay * bx
    u = t[0] * by - t[1] * bx
    v = ax * t[1] - ay * t[0]
    return u % det == 0 and v % det == 0


class _Grid:
    """The minimal design interface naive_chi_table reads."""

    def __init__(self, rows):
        self.width, self.height = len(rows[0]), len(rows)
        self.grid = [[1 if ch == "#" else 0 for ch in r] for r in rows]

    def cell(self, i, j):
        return self.grid[j % self.height][i % self.width]


def check_record(rows: list[str], record: dict, period: list[str] | None = None) -> list[str]:
    """Problems with one analysis record, judged by the naive oracle:
    every reported element must have the colour action and side it
    claims, the lattice basis must act as reported, and on small blocks
    the elements must cover exactly the isometries the brute-force
    table finds.

    `period` is a smaller block that the design repeats, if any.  The
    oracle extends its grid periodically and compares over a region
    that every isometry maps onto a period of that grid, so checking on
    the smaller block gives the same answers for less work."""
    problems = []
    d = record["design"]
    if (d["width"], d["height"], d["rows"]) != (len(rows[0]), len(rows), rows):
        return ["design echoed in the record differs from the input"]
    g = _Grid(period or rows)
    w, h = g.width, g.height

    def action(op, t):
        # a translation by whole blocks is the identity on the grid
        if op == "identity" and t[0] % w == 0 and t[1] % h == 0:
            return "preserve"
        return naive_color_action(g.grid, w, h, NAIVE_OPS[op], t)

    basis = [tuple(v) for v in record["lattices"]["preserveBasis"]]
    for v in basis:
        if action("identity", v) != "preserve":
            problems.append(f"basis vector {v} does not preserve colours")
    swap = record["lattices"]["swapRep"]
    if swap is not None and action("identity", tuple(swap)) != "swap":
        problems.append(f"swap representative {swap} does not swap colours")
    elements = [(el["pointOp"], tuple(el["t"]), el["chi"], el["side"])
                for el in record["elements"]]
    for op, t, chi, side in elements:
        if action(op, t) != chi:
            problems.append(f"element {op} {t}: colour action is not {chi}")
        mat = NAIVE_OPS[op]
        want_side = "S1" if (chi == "preserve") == _op_keeps_axes(mat) else "S2"
        if side != want_side:
            problems.append(f"element {op} {t}: side {side}, expected {want_side}")
    if len(rows[0]) * len(rows) <= CHI_TABLE_MAX_CELLS:
        for (op, tx, ty), want in naive_chi_table(g).items():
            got = [chi for op2, t, chi, _ in elements
                   if op2 == op and _in_lattice(basis, (tx - t[0], ty - t[1]))]
            if got != ([want] if want is not None else []):
                problems.append(f"isometry {op} ({tx},{ty}): naive {want}, reported {got}")
    return problems


def check_svg(text: str, rows: list[str], sides: set[str], mode: str) -> list[str]:
    """The diagram is well-formed SVG of the right size, draws every
    black cell of the 2 x 2 window, and draws glyphs for exactly the
    sides of the non-identity elements."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"{mode} diagram is not well-formed: {exc}"]
    problems = []
    w, h = len(rows[0]), len(rows)
    size = (root.get("width"), root.get("height"))
    if size != (str(w * SVG_REPEATS * SVG_CELL_PX), str(h * SVG_REPEATS * SVG_CELL_PX)):
        problems.append(f"{mode} diagram has size {size}")
    black = SVG_REPEATS * SVG_REPEATS * sum(r.count("#") for r in rows)
    cells = root.findall(f"{SVG_NS}g[@class='design']/{SVG_NS}rect")
    if len(cells) != black:
        problems.append(f"{mode} diagram draws {len(cells)} cells, expected {black}")
    overlay = root.find(f"{SVG_NS}g[@class='{mode}-elements']")
    drawn = {glyph.get("class").split()[-1].upper()
             for glyph in (overlay if overlay is not None else [])}
    if drawn != sides:
        problems.append(f"{mode} diagram draws sides {sorted(drawn)}, expected {sorted(sides)}")
    return problems


def record_json(cls) -> str:
    """The `analyze --json` output of one classification."""
    return json.dumps(cls.to_json(), indent=2, ensure_ascii=False)


# ------------------------------------------------------------- workloads

@dataclass
class Workload:
    name: str
    why: str
    min_ops: int
    make_pass: object = field(repr=False)   # rng -> list of inputs
    run_op: object = field(repr=False)      # input -> output (timed)
    check_op: object = field(repr=False)    # (input, output) -> problems
    tally: object = field(repr=False)       # (output, Counter) -> None


def _search_pass(rng):
    return [search_mod.parse_pair_target(f"{s},{s1}")
            for s, s1 in sorted(naming_mod.pair_table())]


def _search_run(target):
    return search_mod.search(target, max_block=SEARCH_MAX_BLOCK, limit=1,
                             max_cells=SEARCH_MAX_CELLS)


def _search_check(target, results) -> list[str]:
    if len(results) != 1:
        return [f"{target.describe()}: {len(results)} results, expected 1"]
    design, cls = results[0]
    w, h = design.width, design.height
    if w > SEARCH_MAX_BLOCK[0] or h > SEARCH_MAX_BLOCK[1] or w * h > SEARCH_MAX_CELLS:
        return [f"{target.describe()}: {w}x{h} block is outside the search bounds"]
    layer = naming_mod.pair_table()[(target.s, target.s1)]
    again = classify_mod.classify(design)
    problems = []
    for label, c in (("search", cls), ("re-classified", again)):
        if c.pair_descriptor != target.describe() or c.layer_symbol != layer:
            problems.append(f"{target.describe()}: {label} result is "
                            f"{c.pair_descriptor} -> {c.layer_symbol}, expected {layer}")
    rows = design.to_strings()
    problems += check_record(rows, again.to_json())
    return problems


def _search_tally(results, counts):
    counts["search.results"] += len(results)


def _analyze_run(item: DesignInput) -> str:
    design = design_mod.parse_design(item.text)
    return record_json(classify_mod.classify(design))


def _design_problems(item: DesignInput, record: dict) -> list[str]:
    problems = check_record(item.rows, record, item.motif)
    if item.motif is not None:
        # motifs are small enough for the full chi table, which then
        # vouches for the tiled design's lattice and elements too
        motif = json.loads(record_json(classify_mod.classify(
            design_mod.parse_design(design_text(item.motif)))))
        problems += check_record(item.motif, motif)
        for key in ("pairDescriptor", "layerSymbol", "lattices"):
            if record[key] != motif[key]:
                problems.append(f"tiled design's {key} {record[key]} differs "
                                f"from its motif's {motif[key]}")
    if item.mirrored and not any(el["pointOp"] == "mirror_y" and el["chi"] == "preserve"
                                 for el in record["elements"]):
        problems.append("mirror-doubled design has no colour-preserving mirror_y")
    return problems


def _analyze_check(item: DesignInput, text: str) -> list[str]:
    return _design_problems(item, json.loads(text))


def _analyze_tally(text, counts):
    counts["record.bytes"] += len(text.encode("utf-8"))


def _render_run(item: DesignInput):
    cls = classify_mod.classify(design_mod.parse_design(item.text))
    return cls, diagrams_mod.color_diagram_svg(cls), diagrams_mod.layer_diagram_svg(cls)


def _render_check(item: DesignInput, output) -> list[str]:
    cls, color, layer = output
    record = cls.to_json()
    sides = {el["side"] for el in record["elements"] if el["element"]["kind"] != "identity"}
    return (_design_problems(item, record)
            + check_svg(color, item.rows, sides, "color")
            + check_svg(layer, item.rows, sides, "layer"))


def _render_tally(output, counts):
    counts["svg.bytes"] += sum(len(svg.encode("utf-8")) for svg in output[1:])


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            "search-table",
            "criterion-1 sweep over the 15 pair_table() targets, seed-permuted; "
            "limit 1, max_block 12x12, max_cells 16; group construction dominates",
            min_ops=1,
            make_pass=_search_pass, run_op=_search_run, check_op=_search_check,
            tally=_search_tally),
        Workload(
            "analyze-random",
            "analyze --json on 40 seeded random blocks per pass, sides 8-128, mixed "
            "aspect; no translations, so the pull-back and coset scan dominate",
            min_ops=100,
            make_pass=lambda rng: [random_input(rng, w, h) for w, h in ANALYZE_RANDOM_SLOTS],
            run_op=_analyze_run, check_op=_analyze_check, tally=_analyze_tally),
        Workload(
            "analyze-periodic",
            "analyze --json on 40 seeded twill, basket, random-motif and mirror designs "
            "tiled to 16-128 blocks; many translations, so the lattice scan dominates",
            min_ops=100,
            make_pass=lambda rng: [periodic_input(rng, f, p, s)
                                   for f, p, s in ANALYZE_PERIODIC_SLOTS],
            run_op=_analyze_run, check_op=_analyze_check, tally=_analyze_tally),
        Workload(
            "render",
            "analyze --svg-color --svg-layer on 20 seeded blocks of side 8-32 per pass, "
            "half random (few glyphs) and half periodic (many); SVG output dominates",
            min_ops=100,
            make_pass=lambda rng: [
                random_input(rng, *p) if f == "random" else periodic_input(rng, f, p, s)
                for f, p, s in RENDER_SLOTS],
            run_op=_render_run, check_op=_render_check, tally=_render_tally),
    )
}
