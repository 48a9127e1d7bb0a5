"""Bundled design catalog and its verification.

The manifest records, for each catalogued item, the repeating block and
the classification it is expected to produce.  ``verify_catalog`` runs
the full pipeline over every entry and compares; ``catalog_stats``
summarises group frequencies the way a survey table would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .classify import classify
from .design import Design

MANIFEST_RESOURCE = "data/catalog/manifest.json"


def has_glide(plane_symbol: str) -> bool:
    """Whether the side-preserving-or-not group forces glide reflections.

    True when the symbol contains a g, or is centred (a centred mirror
    class always carries interleaved glides).
    """
    return "g" in plane_symbol or plane_symbol.startswith("c")


# the keys of a manifest entry and of its design, with their JSON types
ENTRY_KEYS = {"id": str, "name": str, "itemType": str, "design": dict,
              "expectedPair": str, "expectedLayer": str, "hasGlide": bool,
              "synthetic": bool}
DESIGN_KEYS = {"width": int, "height": int, "rows": list}
_TYPE_NAMES = {str: "a string", bool: "true or false", int: "an integer",
               list: "a list", dict: "an object"}


def _require(obj, keys: dict, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object")
    for key, kind in keys.items():
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")
        # exact types, so that true is not taken for an integer
        if type(obj[key]) is not kind:
            raise ValueError(f"{where}: key {key!r} must be {_TYPE_NAMES[kind]}")


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    name: str
    item_type: str
    design: Design
    expected_pair: str
    expected_layer: str
    has_glide: bool
    synthetic: bool

    @classmethod
    def from_json(cls, obj: dict, index: int = 0) -> "CatalogEntry":
        """Entry from its manifest object.  A malformed object, or a key
        of the wrong JSON type, raises ValueError naming the key and the
        entry: by its id, or by its `index` in the manifest when it has
        no string id."""
        label = obj.get("id") if isinstance(obj, dict) else None
        where = f"entry {label}" if isinstance(label, str) else f"entry #{index}"
        _require(obj, ENTRY_KEYS, where)
        d = obj["design"]
        _require(d, DESIGN_KEYS, f"{where} design")
        try:
            design = Design.from_strings(d["rows"])
        except ValueError as exc:
            raise ValueError(f"{where} design: {exc}") from None
        if design.width != d["width"] or design.height != d["height"]:
            raise ValueError(f"{where}: design size mismatch")
        return cls(
            id=obj["id"],
            name=obj["name"],
            item_type=obj["itemType"],
            design=design,
            expected_pair=obj["expectedPair"],
            expected_layer=obj["expectedLayer"],
            has_glide=obj["hasGlide"],
            synthetic=obj["synthetic"],
        )


def load_manifest(path=None) -> list[CatalogEntry]:
    """Entries from an explicit manifest file, or the bundled one."""
    if path is None:
        text = resources.files("weavesym").joinpath(MANIFEST_RESOURCE).read_text("utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("manifest: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("manifest: expected a JSON object")
    if type(obj.get("version")) is not int or obj["version"] != 1:
        raise ValueError("unsupported manifest version")
    if not isinstance(obj.get("entries"), list):
        raise ValueError("manifest: missing key 'entries' (a list)")
    entries = [CatalogEntry.from_json(e, i) for i, e in enumerate(obj["entries"])]
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate entry ids in manifest")
    return entries


def verify_entry(entry: CatalogEntry) -> dict:
    cls = classify(entry.design)
    computed_pair = cls.pair_descriptor
    computed_layer = cls.layer_symbol
    computed_glide = has_glide(cls.plane_group_s)
    ok = (computed_pair == entry.expected_pair
          and computed_layer == entry.expected_layer
          and computed_glide == entry.has_glide)
    return {
        "id": entry.id,
        "ok": ok,
        "expectedPair": entry.expected_pair,
        "expectedLayer": entry.expected_layer,
        "computedPair": computed_pair,
        "computedLayer": computed_layer,
        "hasGlide": computed_glide,
        "provisional": cls.provisional,
        "itemType": entry.item_type,
    }


def verify_catalog(entries) -> dict:
    reports = [verify_entry(e) for e in entries]
    return {
        "total": len(reports),
        "failures": [r for r in reports if not r["ok"]],
        "reports": reports,
    }


def catalog_stats(entries) -> dict:
    """Survey-style summary, computed from the pipeline (not the
    stored expectations)."""
    reports = [verify_entry(e) for e in entries]
    layers: dict[str, int] = {}
    types: dict[str, int] = {}
    glide = 0
    fourfold = 0
    for r in reports:
        layers[r["computedLayer"]] = layers.get(r["computedLayer"], 0) + 1
        types[r["itemType"]] = types.get(r["itemType"], 0) + 1
        if r["hasGlide"]:
            glide += 1
        if r["provisional"]:
            fourfold += 1
    basket = types.get("basket", 0)
    return {
        "total": len(reports),
        "basket": basket,
        "nonBasket": len(reports) - basket,
        "itemTypes": dict(sorted(types.items())),
        "layerCounts": dict(sorted(layers.items(), key=lambda kv: (-kv[1], kv[0]))),
        "distinctLayers": len(layers),
        "glide": glide,
        "fourfold": fourfold,
    }
