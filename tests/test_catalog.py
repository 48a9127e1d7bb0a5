import importlib.util
import json
import pathlib
import sys
from importlib import resources

import pytest

from weavesym.catalog import (
    MANIFEST_RESOURCE,
    CatalogEntry,
    catalog_stats,
    has_glide,
    load_manifest,
    verify_catalog,
    verify_entry,
)
from weavesym.search import canonical_key


def test_has_glide():
    assert has_glide("p2gg")
    assert has_glide("p2mg")
    assert has_glide("c2mm")
    assert has_glide("c1m1")
    assert not has_glide("p2mm")
    assert not has_glide("p1m1")
    assert not has_glide("p1")
    assert not has_glide("p211")


def test_manifest_loads():
    entries = load_manifest()
    assert len(entries) == 44
    assert len({e.id for e in entries}) == 44
    assert all(e.synthetic for e in entries)


def test_manifest_reference_entry():
    entries = load_manifest()
    ref = next(e for e in entries if e.id == "ref-01")
    assert ref.expected_pair == "(c2mm, c1m1)"
    assert ref.expected_layer == "c2/m11"
    assert ref.has_glide


def test_entry_designs_are_distinct():
    entries = load_manifest()
    keys = {canonical_key(e.design) for e in entries}
    assert len(keys) == 44


def test_item_type_split():
    entries = load_manifest()
    baskets = [e for e in entries if e.item_type == "basket"]
    assert len(baskets) == 33
    assert len(entries) - len(baskets) == 11


def test_expected_layers():
    entries = load_manifest()
    layers = {e.expected_layer for e in entries}
    assert len(layers) == 15
    assert "unassigned" not in layers


def test_glide_fraction():
    entries = load_manifest()
    assert sum(1 for e in entries if e.has_glide) == 32


def test_verify_entry_agrees():
    entries = load_manifest()
    report = verify_entry(entries[0])
    assert report["ok"]
    assert report["computedPair"] == entries[0].expected_pair


def test_verify_catalog_clean():
    report = verify_catalog(load_manifest())
    assert report["total"] == 44
    assert report["failures"] == []


def test_catalog_stats():
    st = catalog_stats(load_manifest())
    assert st["total"] == 44
    assert st["basket"] == 33
    assert st["nonBasket"] == 11
    assert st["distinctLayers"] == 15
    assert st["glide"] == 32
    assert st["fourfold"] == 0
    assert sum(st["layerCounts"].values()) == 44
    assert sum(st["itemTypes"].values()) == 44


def test_external_manifest(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "version": 1,
        "entries": [{
            "id": "x-01", "name": "twill", "itemType": "basket",
            "design": {"width": 4, "height": 4,
                       "rows": ["##..", ".##.", "..##", "#..#"]},
            "expectedPair": "(p2mg, p2gg)", "expectedLayer": "pbab",
            "hasGlide": True, "synthetic": True,
        }],
    }))
    entries = load_manifest(path)
    assert len(entries) == 1
    assert verify_entry(entries[0])["ok"]


def test_manifest_rejects_bad_version(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"version": 9, "entries": []}')
    with pytest.raises(ValueError, match="version"):
        load_manifest(path)


def test_entry_size_mismatch():
    with pytest.raises(ValueError, match="size"):
        CatalogEntry.from_json({
            "id": "bad", "name": "bad", "itemType": "basket",
            "design": {"width": 3, "height": 1, "rows": ["##"]},
            "expectedPair": "(p1, -)", "expectedLayer": "p1",
            "hasGlide": False, "synthetic": True,
        })


@pytest.mark.parametrize("entry,message", [
    ({"id": "bad", "name": "bad"}, "entry bad: missing key 'itemType'"),
    ({"name": "no id"}, "entry #3: missing key 'id'"),
    ("not an object", "entry #3: expected a JSON object"),
    ({"id": "bad", "name": "bad", "itemType": "basket", "design": {"rows": ["#"]},
      "expectedPair": "(p1, -)", "expectedLayer": "p1",
      "hasGlide": False, "synthetic": True},
     "entry bad design: missing key 'width'"),
], ids=["no-item-type", "no-id", "not-an-object", "no-width"])
def test_entry_missing_keys(entry, message):
    with pytest.raises(ValueError, match=message):
        CatalogEntry.from_json(entry, 3)


@pytest.mark.parametrize("text,message", [
    ("[]", "expected a JSON object"),
    ('{"version": 1}', "missing key 'entries'"),
], ids=["top-level-list", "no-entries"])
def test_manifest_rejects_bad_shape(tmp_path, text, message):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_manifest(path)


def test_build_script_reproduces_the_bundled_manifest(tmp_path, monkeypatch):
    # any change to search order or naming that the bundled catalog
    # cannot be rebuilt from shows up here
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "build_catalog.py"
    spec = importlib.util.spec_from_file_location("build_catalog", path)
    script = importlib.util.module_from_spec(spec)
    # the script puts src/ on sys.path when it loads
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(script)
    out = tmp_path / "manifest.json"
    monkeypatch.setattr(script, "OUT", out)
    assert script.main() == 0
    bundled = resources.files("weavesym").joinpath(MANIFEST_RESOURCE).read_bytes()
    assert out.read_bytes() == bundled
