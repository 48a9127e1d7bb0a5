import json

import pytest
from helpers import uniform

from weavesym.cli import main
from weavesym.design import Design, format_design
from weavesym.weave import format_structure, gen_twill, load_structure

TWILL_TEXT = format_design(gen_twill(2, 2, 1))


@pytest.fixture()
def twill_file(tmp_path):
    path = tmp_path / "twill.weave"
    path.write_text(TWILL_TEXT)
    return path


def test_analyze_plain(twill_file, capsys):
    assert main(["analyze", str(twill_file)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "(p2mg, p2gg) → pbab"
    assert "S  = p2mg" in out
    assert "S1 = p2gg" in out


def test_analyze_plain_marks_quarter_turns_provisional(tmp_path, capsys):
    path = tmp_path / "checker.weave"
    path.write_text(format_design(Design.from_strings(["#.", ".#"])))
    assert main(["analyze", str(path)]) == 0
    assert "provisional: contains 4-fold rotations" in capsys.readouterr().out.splitlines()


def test_analyze_json(twill_file, capsys):
    assert main(["analyze", str(twill_file), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["layerSymbol"] == "pbab"
    assert obj["pairDescriptor"] == "(p2mg, p2gg)"


def test_analyze_svg_outputs(twill_file, tmp_path, capsys):
    color = tmp_path / "c.svg"
    layer = tmp_path / "l.svg"
    assert main(["analyze", str(twill_file),
                 "--svg-color", str(color), "--svg-layer", str(layer)]) == 0
    assert color.read_text().startswith("<svg")
    assert "data-kind" in layer.read_text()


def test_analyze_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.weave"
    path.write_text("weave-design v1\nblock 2 2\n#.\n")
    assert main(["analyze", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_generate_twill(tmp_path):
    out = tmp_path / "t.weave"
    assert main(["generate", "twill", "--over", "2", "--under", "2",
                 "--out", str(out)]) == 0
    struct = load_structure(out)
    assert struct.pattern == gen_twill(2, 2, 1)
    assert set(struct.warp_faces) == {"BW"}
    assert set(struct.weft_faces) == {"WB"}


def test_generate_striped_twill(tmp_path):
    out = tmp_path / "t.weave"
    assert main(["generate", "twill", "--over", "1", "--under", "1",
                 "--rows", "4", "--stripe-warp", "1", "--phase-warp", "1",
                 "--out", str(out)]) == 0
    struct = load_structure(out)
    assert struct.warp_faces == ("WB", "BW")
    assert struct.pattern.height == 4


def test_generate_weft_striped_twill(tmp_path):
    out = tmp_path / "t.weave"
    assert main(["generate", "twill", "--over", "1", "--under", "1",
                 "--rows", "4", "--stripe-weft", "2", "--phase-weft", "1",
                 "--out", str(out)]) == 0
    struct = load_structure(out)
    assert struct.weft_faces == ("WB", "BW", "BW", "WB")
    assert set(struct.warp_faces) == {"BW"}


def test_generate_rejects_bad_twill(tmp_path, capsys):
    out = tmp_path / "t.weave"
    assert main(["generate", "twill", "--over", "0", "--under", "2",
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--over", "100000", "--under", "1"],
    ["--over", "1000", "--under", "1000", "--rows", "5000"],
])
def test_generate_rejects_oversized_twill(extra, tmp_path, capsys):
    out = tmp_path / "t.weave"
    assert main(["generate", "twill", *extra, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_render_weave_front_and_back(tmp_path):
    struct_path = tmp_path / "s.weave"
    struct_path.write_text(format_structure(
        uniform(gen_twill(2, 2, 1))))
    front = tmp_path / "front.svg"
    back = tmp_path / "back.svg"
    assert main(["render-weave", str(struct_path), "--out", str(front)]) == 0
    assert main(["render-weave", str(struct_path), "--side", "back",
                 "--out", str(back)]) == 0
    assert front.read_text().startswith("<svg")
    assert back.read_text().startswith("<svg")


def test_search_pair(capsys):
    assert main(["search", "--pair", "pmg,pgg", "--max-block", "8x8"]) == 0
    out = capsys.readouterr().out
    assert "(p2mg, p2gg) → pbab" in out


def test_search_layer_alias(capsys):
    assert main(["search", "--layer", "p-1", "--max-block", "6x6"]) == 0
    assert "(p211, p1)" in capsys.readouterr().out


def test_search_invalid_pair(capsys):
    assert main(["search", "--pair", "p1,c2mm"]) == 2
    err = capsys.readouterr().err
    assert "must be a subgroup of S" in err


def test_search_no_result(capsys):
    # this pair needs more room than a 2x2 block
    assert main(["search", "--pair", "c2mm,c1m1", "--max-block", "2x2"]) == 1
    assert "no design found" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--limit", "0"), ("--limit", "-1"), ("--max-cells", "0"), ("--max-cells", "40"),
    ("--max-block", "0x3"),
])
def test_search_rejects_out_of_range_bounds(flag, value, capsys):
    assert main(["search", "--pair", "p1,-", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("value", ["3x", "ax3", "3x3x3"])
def test_search_rejects_malformed_max_block(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--pair", "p1,-", "--max-block", value])
    assert exc.value.code == 2
    assert f"expected WxH, got {value!r}" in capsys.readouterr().err


def test_catalog_verify(capsys):
    assert main(["catalog", "verify"]) == 0
    out = capsys.readouterr().out
    assert "44 entries, 0 failures" in out.splitlines()[-1]


def test_catalog_stats(capsys):
    assert main(["catalog", "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries: 44" in out
    assert "glide: 32/44" in out


TWILL_ENTRY = {
    "id": "x-01", "name": "twill", "itemType": "basket",
    "design": {"width": 4, "height": 4,
               "rows": ["##..", ".##.", "..##", "#..#"]},
    "expectedPair": "(p2mg, p2gg)", "expectedLayer": "pbab",
    "hasGlide": True, "synthetic": True,
}


def verify_manifest(tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    return main(["catalog", "verify", "--manifest", str(path)])


def test_catalog_external_manifest(tmp_path, capsys):
    manifest = {"version": 1, "entries": [TWILL_ENTRY]}
    assert verify_manifest(tmp_path, json.dumps(manifest)) == 0
    assert "1 entries, 0 failures" in capsys.readouterr().out


def test_catalog_wrong_expectation_exits_1(tmp_path, capsys):
    entry = {**TWILL_ENTRY, "expectedPair": "(p1, -)"}
    assert verify_manifest(tmp_path, json.dumps({"version": 1, "entries": [entry]})) == 1
    assert "1 entries, 1 failures" in capsys.readouterr().out


@pytest.mark.parametrize("manifest,message", [
    ({"version": 1, "entries": [{k: v for k, v in TWILL_ENTRY.items() if k != "design"}]},
     "entry x-01: missing key 'design'"),
    ({"version": 1, "entries": [{k: v for k, v in TWILL_ENTRY.items() if k != "id"}]},
     "entry #0: missing key 'id'"),
    ({"version": 1}, "missing key 'entries'"),
    ([TWILL_ENTRY], "expected a JSON object"),
    ({"version": 1, "entries": [
        {**TWILL_ENTRY, "design": {**TWILL_ENTRY["design"],
                                   "rows": ["##..", ".##", "..##", "#..#"]}}]},
     "row 1 has 3 cells"),
    ({"version": 1, "entries": [
        {**TWILL_ENTRY, "design": {**TWILL_ENTRY["design"], "rows": [1, 2]}}]},
     "entry x-01 design: row 0 is not a string"),
    ({"version": 1, "entries": [{**TWILL_ENTRY, "id": ["a"]}]},
     "entry #0: key 'id' must be a string"),
    ({"version": 1, "entries": [{**TWILL_ENTRY, "hasGlide": "no"}]},
     "entry x-01: key 'hasGlide' must be true or false"),
    ({"version": 1, "entries": [TWILL_ENTRY, {**TWILL_ENTRY, "name": "copy"}]},
     "duplicate entry ids in manifest"),
], ids=["no-design", "no-id", "no-entries", "top-level-list", "ragged-row",
        "int-rows", "list-id", "string-bool", "duplicate-id"])
def test_catalog_bad_manifest_exits_2(tmp_path, capsys, manifest, message):
    assert verify_manifest(tmp_path, json.dumps(manifest)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
def test_catalog_non_integer_version_exits_2(tmp_path, capsys, version):
    manifest = {"version": version, "entries": [TWILL_ENTRY]}
    assert verify_manifest(tmp_path, json.dumps(manifest)) == 2
    assert "unsupported manifest version" in capsys.readouterr().err


def test_catalog_unreadable_manifest_exits_2(tmp_path, capsys):
    assert verify_manifest(tmp_path, '{"version": 1, "entries": [') == 2
    assert main(["catalog", "verify", "--manifest", str(tmp_path / "none.json")]) == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_catalog_deeply_nested_manifest_exits_2(tmp_path, capsys):
    assert verify_manifest(tmp_path, "[" * 2000 + "]" * 2000) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "nested too deeply" in err


def test_roundtrip_generate_render_analyze(tmp_path, capsys):
    struct_path = tmp_path / "s.weave"
    assert main(["generate", "twill", "--over", "3", "--under", "1",
                 "--out", str(struct_path)]) == 0
    assert main(["render-weave", str(struct_path), "--side", "back",
                 "--out", str(tmp_path / "b.svg")]) == 0
    design_path = tmp_path / "d.weave"
    struct = load_structure(struct_path)
    design_path.write_text(format_design(struct.render_front()))
    assert main(["analyze", str(design_path)]) == 0
    assert "→" in capsys.readouterr().out
