import random

import pytest
from test_analysis import periodic_motifs, small_designs
from test_diagrams import sheared_motifs

from weavesym.analysis import color_group
from weavesym.catalog import load_manifest
from weavesym.classify import classify
from weavesym.design import Design
from weavesym.naming import (
    PLANE_GROUPS,
    group_records,
    layer_symbol_for,
    lift_element,
    lift_kind,
    normalize_plane_name,
    oriented_plane_symbol,
    pair_descriptor,
    pair_for_layer,
    pair_table,
    point_group,
    validate_pair,
)
from weavesym.weave import gen_twill

TWILL = gen_twill(2, 2, 1)
REFERENCE = Design.from_strings(["#..#", "#.#.", ".##.", "#.#."])


def test_twill_oriented_symbols():
    cls = classify(TWILL)
    assert cls.oriented_s == "p2gm"
    assert cls.oriented_s1 == "p2gg"
    assert cls.plane_group_s == "p2mg"
    assert cls.plane_group_s1 == "p2gg"


def test_reference_symbols():
    cls = classify(REFERENCE)
    assert cls.plane_group_s == "c2mm"
    assert cls.plane_group_s1 == "c1m1"
    assert cls.oriented_s1 == "c1m1"


def test_oriented_symbol_from_records():
    analysis = color_group(TWILL)
    full = analysis.full_lattice
    reps = group_records(analysis)
    assert oriented_plane_symbol(full, reps) == "p2gm"
    reps1 = group_records(analysis, side="S1")
    assert oriented_plane_symbol(analysis.lattice, reps1) == "p2gg"


def _reduced_records(analysis, lattice, side=None):
    """Reference records: translation parts reduced modulo `lattice`
    and de-duplicated per point op."""
    reps = {}
    seen = set()
    for el in analysis.elements:
        if side is not None and el.side != side:
            continue
        t = lattice.reduce(el.iso.t)
        key = (el.iso.op.name, t)
        if key in seen:
            continue
        seen.add(key)
        reps.setdefault(el.iso.op.name, []).append(t)
    return reps


def test_unreduced_records_name_as_reduced_ones():
    rng = random.Random(20261018)
    corpus = [*small_designs(10), *(e.design for e in load_manifest()),
              *periodic_motifs(rng, 200), *sheared_motifs(rng, 150)]
    assert len(corpus) == 7306 + 44 + 350
    swap = sheared = axial = diagonal = 0
    for design in corpus:
        analysis = color_group(design)
        full, lat = analysis.full_lattice, analysis.lattice
        assert (oriented_plane_symbol(full, group_records(analysis))
                == oriented_plane_symbol(full, _reduced_records(analysis, full))), design
        assert (oriented_plane_symbol(lat, group_records(analysis, side="S1"))
                == oriented_plane_symbol(lat, _reduced_records(analysis, lat, "S1"))), design
        ops = {el.iso.op.name for el in analysis.elements}
        swap += analysis.swap_rep is not None
        sheared += full.b != 0 or lat.b != 0
        axial += bool(ops & {"mirror_x", "mirror_y"})
        diagonal += bool(ops & {"mirror_diag", "mirror_anti"})
    assert swap and sheared and axial and diagonal


def test_pair_table_covers_fifteen_rows():
    table = pair_table()
    assert len(table) == 15
    assert len(set(table.values())) == 15
    assert table[("c2mm", "c1m1")] == "c2/m11"
    assert table[("p2mg", "p2gg")] == "pbab"
    assert table[("p1", "-")] == "p1"
    assert table[("p1", "p1")] == "p11a"
    assert table[("p2gg", "p1g1")] == "p2₁/b11"
    assert table[("p1g1", "p1")] == "p2₁11"


def test_layer_symbol_fallback():
    assert layer_symbol_for("p2mg", "p2gg", False) == "pbab"
    assert layer_symbol_for("p4mm", "p4gm", False) == "unassigned"
    assert layer_symbol_for("p2mg", "p1m1", False) == "unassigned"
    assert layer_symbol_for("c2mm", "c1m1", True) == "cmm2"


def test_normalize_plane_name():
    assert normalize_plane_name("p2") == "p211"
    assert normalize_plane_name("pg") == "p1g1"
    assert normalize_plane_name("cm") == "c1m1"
    assert normalize_plane_name("pmg") == "p2mg"
    assert normalize_plane_name("p4m") == "p4mm"
    assert normalize_plane_name("c2mm") == "c2mm"
    with pytest.raises(ValueError):
        normalize_plane_name("p3m1")


def test_pair_for_layer_spellings():
    assert pair_for_layer("p21/b11") == ("p2gg", "p1g1")
    assert pair_for_layer("p2₁/b11") == ("p2gg", "p1g1")
    assert pair_for_layer(" pbab ") == ("p2mg", "p2gg")
    with pytest.raises(ValueError, match="unknown layer-group symbol"):
        pair_for_layer("pxyz")


def test_pair_for_layer():
    assert pair_for_layer("pbab") == ("p2mg", "p2gg")
    assert pair_for_layer("c2/m11") == ("c2mm", "c1m1")
    with pytest.raises(ValueError):
        pair_for_layer("unassigned")


def test_validate_pair():
    validate_pair("c2mm", "c1m1")
    validate_pair("p1", "-")
    validate_pair("p4mm", "p4gm")
    with pytest.raises(ValueError, match="subgroup"):
        validate_pair("p1", "p2mg")
    with pytest.raises(ValueError, match="subgroup"):
        validate_pair("c2mm", "p1")


# Point-group facts as hand-kept tables, and the pair rule written on
# them; `point_group` derives the same facts from the symbol itself.
POINT_ORDER = {
    "p1": 1, "p211": 2, "p1m1": 2, "p1g1": 2, "c1m1": 2,
    "p2mm": 4, "p2mg": 4, "p2gg": 4, "c2mm": 4, "p4": 4,
    "p4mm": 8, "p4gm": 8,
}
HAS_ROT2 = {"p211", "p2mm", "p2mg", "p2gg", "c2mm", "p4", "p4mm", "p4gm"}
HAS_ROT4 = {"p4", "p4mm", "p4gm"}
HAS_REFL = {"p1m1", "p1g1", "c1m1", "p2mm", "p2mg", "p2gg", "c2mm", "p4mm", "p4gm"}


def _reference_pair_ok(s, s1):
    if s1 == "-":
        return True
    order_s, order_s1 = POINT_ORDER[s], POINT_ORDER[s1]
    ok = (
        order_s in (order_s1, 2 * order_s1)
        and (s1 not in HAS_ROT2 or s in HAS_ROT2)
        and (s1 not in HAS_ROT4 or s in HAS_ROT4)
        and (s1 not in HAS_REFL or s in HAS_REFL)
    )
    if ok and order_s == 2 * order_s1 and order_s <= 4:
        if s == "c2mm":
            ok = s1 in ("c1m1", "p211")
        elif s == "c1m1":
            ok = s1 == "p1"
        elif s1 == "c1m1":
            ok = False
    return ok


def test_point_group_matches_reference_tables():
    assert set(POINT_ORDER) == set(PLANE_GROUPS)
    for g in PLANE_GROUPS:
        n, refl = point_group(g)
        assert n * (1 + refl) == POINT_ORDER[g], g
        assert (n % 2 == 0) == (g in HAS_ROT2), g
        assert (n == 4) == (g in HAS_ROT4), g
        assert refl == (g in HAS_REFL), g


def test_validate_pair_matches_reference_rule():
    accepted = 0
    for s in PLANE_GROUPS:
        for s1 in (*PLANE_GROUPS, "-"):
            try:
                validate_pair(s, s1)
                ok = True
            except ValueError:
                ok = False
            assert ok == _reference_pair_ok(s, s1), (s, s1)
            accepted += ok
    assert accepted == 70


def test_pair_descriptor():
    assert pair_descriptor("c2mm", "c1m1", False) == "(c2mm, c1m1)"
    assert pair_descriptor("p1", "p1", True) == "(p1, -)"


def test_lift_kind_table():
    assert lift_kind("translation", "S2") == "glide-plane-parallel"
    assert lift_kind("rotation2", "S1") == "axis2-normal"
    assert lift_kind("rotation2", "S2") == "inversion-center"
    assert lift_kind("rotation4", "S1") == "axis4-normal"
    assert lift_kind("rotation4", "S2") == "rotoinversion4-normal"
    assert lift_kind("mirror", "S1") == "mirror-plane-normal"
    assert lift_kind("mirror", "S2") == "axis2-inplane"
    assert lift_kind("glide", "S1") == "glide-plane-normal"
    assert lift_kind("glide", "S2") == "screw2-inplane"


def test_lift_element_keeps_geometry():
    cls = classify(TWILL)
    for el in cls.analysis.elements:
        lifted = lift_element(el)
        if el.element["kind"] == "identity":
            assert lifted is None
            continue
        for key, value in el.element.items():
            if key != "kind":
                assert lifted[key] == value
