"""Plane-group naming and the pair-to-layer-group table.

A group is named from its translation lattice and one representative
per lattice coset.  Slot 2 of the oriented symbol describes the mirror
family along (1,0), slot 3 the family along (0,1); for groups whose
reflections run diagonally the slots refer to (1,1) and (1,-1)
instead.  Canonical names fold the two slot orders together, since the
two orientations describe the same group type.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from math import gcd

from .analysis import ColorGroupAnalysis, GroupElement, parallel_coeff
from .isometry import AXIS_DIR, Vec, op_by_name
from .lattice import Lattice


def group_records(analysis: ColorGroupAnalysis,
                  side: str | None = None) -> dict[str, list[Vec]]:
    """Translation parts of the members as stored, grouped by point op;
    with side="S1" only the side-preserving ones.

    `_family_char` reads a part t only as `parallel_coeff(op, t)` modulo
    a g0 that divides the coefficient of each basis vector of the lattice
    L it is given.  The coefficient is linear in t, so reducing t modulo
    L, or dropping a repeated part, changes no residue and no op present.
    """
    reps: dict[str, list[Vec]] = {}
    for el in analysis.elements:
        if side is None or el.side == side:
            reps.setdefault(el.iso.op.name, []).append(el.iso.t)
    return reps


def _family_char(lat: Lattice, reps: dict[str, list[Vec]], op_names) -> str:
    """'m' if some coset of the family admits a true mirror, 'g' if the
    family is present but glide-only, '1' if absent."""
    found = None
    for name in op_names:
        ts = reps.get(name)
        if not ts:
            continue
        op = op_by_name(name)
        # the modulus by which the glide coefficient of one coset can
        # change under lattice translates
        g0 = gcd(2 * lat.min_along(AXIS_DIR[name]),
                 *(parallel_coeff(op, v) for v in lat.basis))
        for t in ts:
            if parallel_coeff(op, t) % g0 == 0:
                return "m"
        found = "g"
    return found or "1"


def _centering_ratio(lat: Lattice, diagonal: bool) -> int:
    if diagonal:
        return (2 * lat.min_along((1, 1)) * lat.min_along((1, -1))) // lat.index
    return (lat.min_along((1, 0)) * lat.min_along((0, 1))) // lat.index


def oriented_plane_symbol(lat: Lattice, reps: dict[str, list[Vec]]) -> str:
    ops = set(reps)
    has4 = "rot90" in ops or "rot270" in ops
    refl = [n for n in AXIS_DIR if n in ops]
    if has4:
        if not refl:
            return "p4"
        axis = _family_char(lat, reps, ("mirror_x", "mirror_y"))
        diag = _family_char(lat, reps, ("mirror_diag", "mirror_anti"))
        # a fourfold lattice is square; pick the orientation in which its
        # conventional cell is primitive
        if _centering_ratio(lat, diagonal=False) == 1:
            return "p4" + axis + diag
        return "p4" + diag + axis
    if refl:
        diagonal = refl[0] in ("mirror_diag", "mirror_anti")
        letter = "c" if _centering_ratio(lat, diagonal) == 2 else "p"
        first, second = (("mirror_diag", "mirror_anti") if diagonal
                         else ("mirror_x", "mirror_y"))
        digit = "2" if "rot180" in ops else "1"
        return (letter + digit
                + _family_char(lat, reps, (first,))
                + _family_char(lat, reps, (second,)))
    if "rot180" in ops:
        return "p211"
    return "p1"


_SLOT_SWAP = {"p11m": "p1m1", "p11g": "p1g1", "c11m": "c1m1", "p2gm": "p2mg"}


def canonical_symbol(symbol: str) -> str:
    return _SLOT_SWAP.get(symbol, symbol)


PLANE_GROUPS = (
    "p1", "p211", "p1m1", "p1g1", "c1m1",
    "p2mm", "p2mg", "p2gg", "c2mm", "p4", "p4mm", "p4gm",
)


def point_group(symbol: str) -> tuple[int, bool]:
    """(n, refl) of a plane-group symbol: the highest rotation order,
    its digit, and whether it has reflections, an 'm' or a 'g'
    (International Tables for Crystallography, Vol. A).  The point
    order is n * (1 + refl)."""
    return int(symbol[1]), "m" in symbol or "g" in symbol


_PLANE_ALIASES = {
    "p2": "p211", "pm": "p1m1", "pg": "p1g1", "cm": "c1m1",
    "pmm": "p2mm", "pmg": "p2mg", "pgm": "p2gm", "pgg": "p2gg",
    "cmm": "c2mm", "p4m": "p4mm", "p4g": "p4gm",
}


def normalize_plane_name(name: str) -> str:
    name = canonical_symbol(_PLANE_ALIASES.get(name.strip(), name.strip()))
    if name not in PLANE_GROUPS:
        raise ValueError(f"unknown plane-group symbol {name!r}")
    return name


def validate_pair(s: str, s1: str) -> None:
    """Reject pairs that cannot be an index-1-or-2 side split."""
    if s1 == "-":
        return
    (n, refl), (n1, refl1) = point_group(s), point_group(s1)
    order_s, order_s1 = n * (1 + refl), n1 * (1 + refl1)
    ok = order_s in (order_s1, 2 * order_s1) and n % n1 == 0 and refl >= refl1
    # when the point order halves, both groups share one lattice: a
    # centred S keeps its centring in S1 unless S1 has no reflections,
    # and a primitive S only has primitive S1
    if ok and order_s == 2 * order_s1 and order_s <= 4:
        centred, centred1 = s[0] == "c", s1[0] == "c"
        ok = centred == centred1 or (centred and not refl1)
    if not ok:
        raise ValueError(
            f"S₁ must be a subgroup of S of index 1 or 2; ({s}, {s1}) is not")


def pair_descriptor(s: str, s1: str, s2_empty: bool) -> str:
    return f"({s}, {'-' if s2_empty else s1})"


@lru_cache(maxsize=1)
def pair_table() -> dict[tuple[str, str], str]:
    """Layer-group symbol for each realisable (S, S1) pair."""
    text = resources.files("weavesym").joinpath("data/pair_table.json").read_text("utf-8")
    data = json.loads(text)
    return {(row["s"], row["s1"]): row["layer"] for row in data["rows"]}


def layer_symbol_for(s: str, s1: str, s2_empty: bool) -> str:
    return pair_table().get((s, "-" if s2_empty else s1), "unassigned")


def pair_for_layer(name: str) -> tuple[str, str]:
    """The (S, S1) pair of a tabulated layer symbol, written as in the
    table or with a plain 1 for each subscript one."""
    name = name.strip()
    for pair, layer in pair_table().items():
        if name in (layer, layer.replace("₁", "1")):
            return pair
    raise ValueError(f"unknown layer-group symbol {name!r}")


_LIFT = {
    ("translation", "S1"): "translation",
    ("translation", "S2"): "glide-plane-parallel",
    ("rotation2", "S1"): "axis2-normal",
    ("rotation2", "S2"): "inversion-center",
    ("rotation4", "S1"): "axis4-normal",
    ("rotation4", "S2"): "rotoinversion4-normal",
    ("mirror", "S1"): "mirror-plane-normal",
    ("mirror", "S2"): "axis2-inplane",
    ("glide", "S1"): "glide-plane-normal",
    ("glide", "S2"): "screw2-inplane",
}


def lift_kind(kind: str, side: str) -> str:
    return _LIFT[(kind, side)]


def lift_element(el: GroupElement) -> dict | None:
    """Spatial symmetry the element induces on the physical weave.

    Side-preserving members act the same above and below the plane;
    side-reversing members combine their planar action with turning the
    fabric over.  The identity is not inventoried.
    """
    kind = el.element["kind"]
    if kind == "identity":
        return None
    out = dict(el.element)
    out["kind"] = _LIFT[(kind, el.side)]
    return out
