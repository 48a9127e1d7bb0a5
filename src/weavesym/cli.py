"""Command line interface."""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as catalog_mod
from .classify import classify
from .design import DesignFormatError, load_design
from .diagrams import color_diagram_svg, design_svg, layer_diagram_svg, save_svg
from .search import DEFAULT_MAX_CELLS, parse_layer_target, parse_pair_target, search
from .weave import (
    ONESIDED_WARP,
    ONESIDED_WEFT,
    WeaveStructure,
    gen_twill,
    load_structure,
    save_structure,
    striped_faces,
)


def _cmd_analyze(args) -> int:
    design = load_design(args.design)
    cls = classify(design)
    if args.svg_color:
        save_svg(color_diagram_svg(cls), args.svg_color)
    if args.svg_layer:
        save_svg(layer_diagram_svg(cls), args.svg_layer)
    if args.json:
        print(json.dumps(cls.to_json(), indent=2, ensure_ascii=False))
        return 0
    an = cls.analysis
    print(f"design {design.width}x{design.height}, "
          f"{design.black_count}/{design.width * design.height} black")
    a, b, c = an.lattice.a, an.lattice.b, an.lattice.c
    line = f"translations ({a},0) ({b},{c})"
    if an.swap_rep is not None:
        line += f", colour-swapping rep ({an.swap_rep[0]},{an.swap_rep[1]})"
    print(line)
    print(f"S  = {cls.plane_group_s}")
    print(f"S1 = {cls.plane_group_s1}" + ("  (S2 empty)" if an.s2_empty else ""))
    if cls.provisional:
        print("provisional: contains 4-fold rotations")
    print(f"{cls.pair_descriptor} → {cls.layer_symbol}")
    return 0


def _cmd_render_weave(args) -> int:
    struct = load_structure(args.structure)
    face = struct.render_front() if args.side == "front" else struct.render_back()
    save_svg(design_svg(face), args.out)
    return 0


def _cmd_generate_twill(args) -> int:
    pattern = gen_twill(args.over, args.under, args.shift, args.rows)
    if args.stripe_warp:
        warp = striped_faces(pattern.width, args.stripe_warp,
                             args.phase_warp, ONESIDED_WARP)
    else:
        warp = (ONESIDED_WARP,) * pattern.width
    if args.stripe_weft:
        weft = striped_faces(pattern.height, args.stripe_weft,
                             args.phase_weft, ONESIDED_WEFT)
    else:
        weft = (ONESIDED_WEFT,) * pattern.height
    save_structure(WeaveStructure(pattern, warp, weft), args.out)
    return 0


def _parse_block(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}")
    try:
        w, h = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}") from None
    return w, h


def _cmd_search(args) -> int:
    if args.pair:
        target = parse_pair_target(args.pair)
    else:
        target = parse_layer_target(args.layer)
    results = search(target, max_block=args.max_block, limit=args.limit,
                     max_cells=args.max_cells)
    for design, cls in results:
        print(f"{design.width}x{design.height}  "
              f"{cls.pair_descriptor} → {cls.layer_symbol}")
        for line in design.to_strings():
            print("  " + line)
    if not results:
        print(f"no design found for {target.describe()}", file=sys.stderr)
        return 1
    return 0


def _cmd_catalog(args) -> int:
    entries = catalog_mod.load_manifest(args.manifest)
    if args.action == "stats":
        st = catalog_mod.catalog_stats(entries)
        print(f"entries: {st['total']}")
        print(f"basket: {st['basket']}")
        print(f"non-basket: {st['nonBasket']}")
        print(f"distinct layer symbols: {st['distinctLayers']}")
        print(f"glide: {st['glide']}/{st['total']}")
        print(f"fourfold: {st['fourfold']}")
        print("layer counts:")
        for sym, n in st["layerCounts"].items():
            print(f"  {sym}: {n}")
        return 0
    report = catalog_mod.verify_catalog(entries)
    for r in report["reports"]:
        if r["ok"]:
            print(f"ok   {r['id']}  {r['computedPair']} → {r['computedLayer']}")
        else:
            print(f"FAIL {r['id']}  expected {r['expectedPair']} → "
                  f"{r['expectedLayer']}, got {r['computedPair']} → "
                  f"{r['computedLayer']}")
    n_fail = len(report["failures"])
    print(f"{report['total']} entries, {n_fail} failures")
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weavesym",
        description="Two-colour symmetry analysis of periodic weave designs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a design file")
    p.add_argument("design", help="design file path")
    p.add_argument("--json", action="store_true", help="emit the full JSON record")
    p.add_argument("--svg-color", metavar="PATH",
                   help="write the colour symmetry diagram")
    p.add_argument("--svg-layer", metavar="PATH",
                   help="write the induced layer-element diagram")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("render-weave", help="render a weave structure face")
    p.add_argument("structure", help="structure file path")
    p.add_argument("--side", choices=("front", "back"), default="front")
    p.add_argument("--out", required=True, metavar="PATH", help="output SVG path")
    p.set_defaults(func=_cmd_render_weave)

    p = sub.add_parser("generate", help="generate a weave structure")
    gsub = p.add_subparsers(dest="kind", required=True)
    t = gsub.add_parser("twill", help="over/under twill")
    t.add_argument("--over", type=int, required=True)
    t.add_argument("--under", type=int, required=True)
    t.add_argument("--shift", type=int, default=1)
    t.add_argument("--rows", type=int, default=None,
                   help="number of weft rows (default: one full period)")
    t.add_argument("--stripe-warp", type=int, default=0, metavar="N",
                   help="alternate warp face colours in stripes of N strands")
    t.add_argument("--stripe-weft", type=int, default=0, metavar="N")
    t.add_argument("--phase-warp", type=int, default=0)
    t.add_argument("--phase-weft", type=int, default=0)
    t.add_argument("--out", required=True, metavar="PATH")
    t.set_defaults(func=_cmd_generate_twill)

    p = sub.add_parser("search", help="find designs realising a symmetry target")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--pair", metavar="S,S1",
                     help="target pair, e.g. 'p2mg,p2gg' or 'c2mm,-'")
    grp.add_argument("--layer", metavar="SYMBOL", help="target layer symbol")
    p.add_argument("--max-block", type=_parse_block, default=(12, 12),
                   metavar="WxH")
    p.add_argument("--limit", type=int, default=1)
    p.add_argument("--max-cells", type=int, default=DEFAULT_MAX_CELLS,
                   help="cap on block area during the sweep")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("catalog", help="bundled survey catalog")
    p.add_argument("action", choices=("verify", "stats"))
    p.add_argument("--manifest", metavar="PATH",
                   help="use an external manifest instead of the bundled one")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DesignFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
