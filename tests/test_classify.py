import json

from weavesym.classify import classify
from weavesym.design import Design
from weavesym.weave import gen_twill

TWILL = gen_twill(2, 2, 1)
CHECKER = Design.from_strings(["#.", ".#"])
REFERENCE = Design.from_strings(["#..#", "#.#.", ".##.", "#.#."])


def test_twill_classification():
    cls = classify(TWILL)
    assert cls.pair_descriptor == "(p2mg, p2gg)"
    assert cls.layer_symbol == "pbab"
    assert not cls.provisional
    assert not cls.analysis.s2_empty


def test_reference_classification():
    cls = classify(REFERENCE)
    assert cls.pair_descriptor == "(c2mm, c1m1)"
    assert cls.layer_symbol == "c2/m11"
    assert not cls.provisional


def test_checkerboard_is_provisional():
    cls = classify(CHECKER)
    assert cls.pair_descriptor == "(p4mm, p4gm)"
    assert cls.layer_symbol == "unassigned"
    assert cls.provisional


def test_s2_empty_descriptor():
    # axis-aligned mirrors only; every element preserves colour and side
    cls = classify(Design.from_strings(["#..", "...", "#.."]))
    assert cls.analysis.s2_empty
    assert cls.plane_group_s == "p2mm"
    assert cls.pair_descriptor == "(p2mm, -)"
    assert cls.plane_group_s == cls.plane_group_s1
    assert cls.layer_symbol == "unassigned"


def test_json_contract_keys():
    obj = classify(TWILL).to_json()
    assert set(obj) == {
        "design", "lattices", "elements", "planeGroupS", "planeGroupS1",
        "pairDescriptor", "layerSymbol", "provisional", "inventory",
    }
    assert obj["design"] == {"width": 4, "height": 4,
                             "rows": ["##..", ".##.", "..##", "#..#"]}
    assert obj["lattices"] == {"preserveBasis": [[4, 0], [1, 1]],
                               "swapRep": [2, 0]}
    assert obj["planeGroupS"] == "p2mg"
    assert obj["planeGroupS1"] == "p2gg"
    assert obj["pairDescriptor"] == "(p2mg, p2gg)"
    assert obj["layerSymbol"] == "pbab"
    assert obj["provisional"] is False
    json.dumps(obj)


def test_json_elements_shape():
    obj = classify(TWILL).to_json()
    for el in obj["elements"]:
        assert set(el) == {"pointOp", "t", "chi", "side", "element"}
        assert el["chi"] in ("preserve", "swap")
        assert el["side"] in ("S1", "S2")
        assert isinstance(el["element"]["kind"], str)
    ident = obj["elements"][0]
    assert ident["pointOp"] == "identity" and ident["t"] == [0, 0]


def test_json_swap_rep_null_when_absent():
    obj = classify(REFERENCE).to_json()
    assert obj["lattices"]["swapRep"] is None


def test_inventory_excludes_identity():
    for design in (TWILL, CHECKER, REFERENCE):
        cls = classify(design)
        assert len(cls.inventory) == len(cls.analysis.elements) - 1
        assert all(item["kind"] != "identity" for item in cls.inventory)


def test_twill_inventory_kinds():
    cls = classify(TWILL)
    kinds = sorted(item["kind"] for item in cls.inventory)
    assert kinds == sorted([
        "glide-plane-parallel",   # the swapping translation
        "axis2-normal",           # preserving half turn
        "inversion-center",       # swapping half turn
        "screw2-inplane",         # preserving glide
        "glide-plane-normal",     # swapping diagonal glide
        "axis2-inplane",          # preserving mirror
        "glide-plane-normal",     # swapping anti-diagonal glide
    ])


def test_checkerboard_inventory_has_fourfold_kinds():
    kinds = {item["kind"] for item in classify(CHECKER).inventory}
    assert "axis4-normal" in kinds
    assert "rotoinversion4-normal" in kinds
