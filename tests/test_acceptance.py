"""End-to-end acceptance battery.

Each test covers one stated criterion and reports a single PASS line;
a failure shows up as the usual pytest FAILED line for that criterion.
"""

import random
import time

from helpers import uniform
from invariants import (
    check_against_naive,
    check_closure,
    check_complement_invariance,
    check_conjugation_covariance,
    check_doubling_invariance,
    check_identity_record,
    check_inversion_coordinates,
    check_lift_count,
    check_no_parallel_mirror_planes,
    check_side_index,
)

from weavesym.catalog import load_manifest, verify_catalog
from weavesym.classify import classify
from weavesym.design import Design
from weavesym.diagrams import color_diagram_svg, layer_diagram_svg
from weavesym.naming import pair_table
from weavesym.search import parse_pair_target, search
from weavesym.weave import BASKET_WARP, BASKET_WEFT


def test_criterion_1_all_pairs_realised_within_budget():
    start = time.monotonic()
    for (s, s1), layer in sorted(pair_table().items()):
        target = parse_pair_target(f"{s},{s1}")
        results = search(target, max_block=(12, 12), limit=1)
        assert results, f"no design found for ({s}, {s1})"
        design, cls = results[0]
        assert cls.layer_symbol == layer, (s, s1, cls.layer_symbol)
        assert classify(design).layer_symbol == layer
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"search took {elapsed:.1f}s"
    print(f"PASS criterion 1: 15/15 pairs realised in {elapsed:.1f}s")


def test_criterion_2_reference_design_classification():
    ref = next(e for e in load_manifest() if e.id == "ref-01")
    cls = classify(ref.design)
    assert cls.pair_descriptor == "(c2mm, c1m1)"
    assert cls.layer_symbol == "c2/m11"
    horiz = [el for el in cls.analysis.elements if el.iso.op.name == "mirror_x"]
    vert = [el for el in cls.analysis.elements if el.iso.op.name == "mirror_y"]
    turns = [el for el in cls.analysis.elements if el.iso.op.name == "rot180"]
    assert horiz and all(el.side == "S1" for el in horiz)
    assert vert and all(el.side == "S2" for el in vert)
    assert turns and all(el.side == "S2" for el in turns)
    print("PASS criterion 2: reference design gives (c2mm, c1m1) → c2/m11 "
          "with horizontal axes side-preserving")


def test_criterion_3_catalog_reproduces_survey():
    entries = load_manifest()
    assert len(entries) == 44
    baskets = sum(1 for e in entries if e.item_type == "basket")
    assert baskets == 33 and len(entries) - baskets == 11
    assert len({e.expected_layer for e in entries}) == 15
    assert sum(1 for e in entries if e.has_glide) == 32
    report = verify_catalog(entries)
    assert report["failures"] == [], report["failures"]
    assert sum(1 for r in report["reports"] if r["provisional"]) == 0
    print("PASS criterion 3: catalog 44 entries (33 basket), 15 layer "
          "symbols, glide 32/44, all verified, no 4-fold")


def test_criterion_4_group_properties_on_random_corpus(classified_corpus):
    assert len(classified_corpus) >= 200
    rng = random.Random(901)
    for design, cls in classified_corpus:
        check_identity_record(cls)
        check_side_index(cls)
        check_lift_count(cls)
        check_inversion_coordinates(cls)
        check_no_parallel_mirror_planes(cls)
        check_closure(cls, rng, samples=8)
        check_complement_invariance(design, cls)
        check_doubling_invariance(design, cls)
        check_conjugation_covariance(design, cls, rng, samples=2)
    print(f"PASS criterion 4: group invariants hold on "
          f"{len(classified_corpus)} random designs")


def test_criterion_5_optimised_pipeline_matches_brute_force():
    checked = 0
    for w in range(1, 10):
        for h in range(1, 9 // w + 1):
            mask = (1 << w) - 1
            for bits in range(1 << (w * h)):
                rows = tuple((bits >> (w * j)) & mask for j in range(h))
                check_against_naive(Design(w, h, rows))
                checked += 1
    rng = random.Random(902)
    for _ in range(150):
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        check_against_naive(
            Design(w, h, tuple(rng.randrange(1 << w) for _ in range(h))))
        checked += 1
    print(f"PASS criterion 5: brute-force checker agrees on {checked} "
          f"exhaustive and sampled blocks")


def test_criterion_6_weave_face_rendering():
    rng = random.Random(903)
    for _ in range(50):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        pattern = Design(w, h, tuple(rng.randrange(1 << w) for _ in range(h)))
        onesided = uniform(pattern)
        front, back = onesided.render_front(), onesided.render_back()
        for j in range(h):
            for i in range(w):
                assert back.cell(i, j) == front.cell(w - 1 - i, j)
        basket = uniform(pattern, BASKET_WARP, BASKET_WEFT)
        assert basket.render_front() == pattern
    print("PASS criterion 6: 50 structures render with mirrored backs and "
          "pattern-faithful basket fronts")


def test_criterion_7_fourfold_designs_classify_provisionally():
    results = search(parse_pair_target("p4mm,p4gm"), max_block=(6, 6), limit=1)
    assert results
    design, cls = results[0]
    assert cls.provisional
    kinds = {item["kind"] for item in cls.inventory}
    assert "axis4-normal" in kinds
    assert "rotoinversion4-normal" in kinds
    cls.to_json()
    color_diagram_svg(cls)
    layer_diagram_svg(cls)
    print("PASS criterion 7: 4-fold design classifies provisionally with "
          "axis4/rotoinversion4 inventory")
