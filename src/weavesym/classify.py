"""Full classification of one design: groups, pair and layer symbol."""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import ColorGroupAnalysis, color_group
from .design import Design
from .naming import (
    canonical_symbol,
    group_records,
    layer_symbol_for,
    lift_element,
    oriented_plane_symbol,
    pair_descriptor,
)


@dataclass(frozen=True)
class Classification:
    analysis: ColorGroupAnalysis
    oriented_s: str
    oriented_s1: str
    plane_group_s: str
    plane_group_s1: str
    pair_descriptor: str
    layer_symbol: str
    provisional: bool
    inventory: tuple[dict, ...]

    def to_json(self) -> dict:
        a = self.analysis
        return {
            "design": {
                "width": a.design.width,
                "height": a.design.height,
                "rows": a.design.to_strings(),
            },
            "lattices": {
                "preserveBasis": [list(v) for v in a.lattice.basis],
                "swapRep": list(a.swap_rep) if a.swap_rep is not None else None,
            },
            "elements": [el.to_json() for el in a.elements],
            "planeGroupS": self.plane_group_s,
            "planeGroupS1": self.plane_group_s1,
            "pairDescriptor": self.pair_descriptor,
            "layerSymbol": self.layer_symbol,
            "provisional": self.provisional,
            "inventory": [dict(item) for item in self.inventory],
        }


def classify_analysis(analysis: ColorGroupAnalysis) -> Classification:
    oriented_s = oriented_plane_symbol(analysis.full_lattice, group_records(analysis))
    oriented_s1 = oriented_plane_symbol(
        analysis.lattice, group_records(analysis, side="S1"))
    s = canonical_symbol(oriented_s)
    s1 = canonical_symbol(oriented_s1)
    s2_empty = analysis.s2_empty
    provisional = any(
        el.element["kind"] == "rotation4" for el in analysis.elements)
    inventory = tuple(
        lifted for el in analysis.elements
        if (lifted := lift_element(el)) is not None)
    return Classification(
        analysis=analysis,
        oriented_s=oriented_s,
        oriented_s1=oriented_s1,
        plane_group_s=s,
        plane_group_s1=s1,
        pair_descriptor=pair_descriptor(s, s1, s2_empty),
        layer_symbol=layer_symbol_for(s, s1, s2_empty),
        provisional=provisional,
        inventory=inventory,
    )


def classify(design: Design) -> Classification:
    return classify_analysis(color_group(design))
