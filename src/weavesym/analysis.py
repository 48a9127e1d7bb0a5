"""Two-colour symmetry analysis of periodic designs.

For a design d, the colour group S collects every grid isometry g that
either preserves colours (d(g(c)) = d(c) for all cells) or exchanges
them.  Each member is also labelled with the physical side of the weave
it keeps or reverses: an operation keeps the side exactly when its
colour behaviour matches its handling of the axis directions, because
turning the fabric over both exchanges warp and weft faces and mirrors
the plane.
"""

from __future__ import annotations

from dataclasses import dataclass

from .design import Design, rotl
from .isometry import (
    AXIS_DIR,
    GridIsometry,
    IDENTITY,
    POINT_OPS,
    PointOp,
    Vec,
)
from .lattice import Lattice

PRESERVE = "preserve"
SWAP = "swap"


def side_of(chi: str, delta: int) -> str:
    return "S1" if (chi == PRESERVE) == (delta == 1) else "S2"


def _shift_action(rows, image, sx: int, sy: int, w: int, mask: int) -> str | None:
    """PRESERVE when rotating every row j by sx gives image row j + sy,
    SWAP when it gives that row's complement, else None."""
    h = len(rows)
    first = rotl(rows[0], sx, w, mask) ^ image[sy % h]
    if first == 0:
        kind = PRESERVE
    elif first == mask:
        kind = SWAP
    else:
        return None
    for j in range(1, h):
        if rotl(rows[j], sx, w, mask) ^ image[(j + sy) % h] != first:
            return None
    return kind


def _translation_action(design: Design, a: int, b: int) -> str | None:
    w = design.width
    return _shift_action(design.rows, design.rows, a, b, w, (1 << w) - 1)


def _first_acting(design: Design, vectors) -> tuple[Vec, str] | None:
    for v in vectors:
        act = _translation_action(design, *v)
        if act is not None:
            return v, act
    return None


def translation_lattices(design: Design) -> tuple[Lattice, Vec | None]:
    """Lattice of colour-preserving translations and, if the design has
    colour-exchanging translations, a canonical representative of their
    coset.

    The translations with either colour action form a lattice T with
    Hermite basis e1 = (a, 0), e2 = (b, c).  T contains the block
    translations, so a divides w and c divides h: a is the least
    divisor of w that acts, and c the least divisor of h for which some
    (b, c) with b < a acts.  The preserve lattice is the kernel of the
    colour action on T.
    """
    w, h, rows = design.width, design.height, design.rows
    mask = (1 << w) - 1
    e1, chi1 = _first_acting(
        design, ((d, 0) for d in range(1, w) if w % d == 0)) or ((w, 0), PRESERVE)
    # a member (x, c) of T maps row 0 onto row c or its complement, and
    # only x < a can be the Hermite b
    shifts: dict[int, list[int]] = {}
    for x in range(e1[0]):
        shifts.setdefault(rotl(rows[0], x, w, mask), []).append(x)
    e2, chi2 = _first_acting(design, (
        (x, c)
        for c in range(1, h) if h % c == 0
        for row in (rows[c], rows[c] ^ mask)
        for x in shifts.get(row, ())
    )) or ((0, h), PRESERVE)
    # the kernel: preserving basis vectors, doubled swapping ones, and
    # e1 + e2 when both swap
    basis = ((e1, chi1), (e2, chi2))
    swapping = [v for v, chi in basis if chi == SWAP]
    kernel = [v for v, chi in basis if chi == PRESERVE]
    kernel += [(2 * x, 2 * y) for x, y in swapping]
    if len(swapping) == 2:
        kernel.append((e1[0] + e2[0], e1[1] + e2[1]))
    lat = Lattice.from_vectors(kernel)
    return lat, (lat.reduce(swapping[0]) if swapping else None)


def parallel_coeff(op: PointOp, t: Vec) -> int:
    """k with t + op(t) = k * axis_dir, for a reflection op."""
    u = AXIS_DIR[op.name]
    mt = op.apply(t)
    return (t[0] + mt[0]) // u[0] if u[0] else (t[1] + mt[1]) // u[1]


def axis_offset2(op_name: str, t: Vec) -> int:
    """Position of the reflection axis, in half-units.

    mirror_x: the line y = off/2; mirror_y: x = off/2;
    mirror_diag: x - y = off/2; mirror_anti: x + y = off/2.
    """
    tx, ty = t
    return {
        "mirror_x": ty,
        "mirror_y": tx,
        "mirror_diag": tx - ty,
        "mirror_anti": tx + ty,
    }[op_name]


def locate_element(lat: Lattice, iso: GridIsometry) -> dict:
    """Geometric description of one isometry, as wire-ready data.

    Positions use half-unit integers (twice the plane coordinate), so
    cell centres and cell corners stay exact.  Reflections are reported
    as a true mirror when some translate of the isometry along its axis
    by a vector of `lat` cancels the glide component.
    """
    op, t = iso.op, iso.t
    if op is IDENTITY:
        if t == (0, 0):
            return {"kind": "identity"}
        return {"kind": "translation", "vector": list(t)}
    if op.name == "rot180":
        return {"kind": "rotation2", "center2": [t[0], t[1]]}
    if op.name == "rot90":
        return {"kind": "rotation4", "center2": [t[0] - t[1], t[0] + t[1]]}
    if op.name == "rot270":
        return {"kind": "rotation4", "center2": [t[0] + t[1], t[1] - t[0]]}
    u = AXIS_DIR[op.name]
    m = lat.min_along(u)
    r = parallel_coeff(op, t) % (2 * m)
    base = {"axisDir": list(u), "axisOffset2": axis_offset2(op.name, t)}
    if r == 0:
        return {"kind": "mirror", **base}
    return {"kind": "glide", "glide2": [r * u[0], r * u[1]], **base}


@dataclass(frozen=True)
class GroupElement:
    iso: GridIsometry
    chi: str
    side: str
    element: dict

    def to_json(self) -> dict:
        return {
            "pointOp": self.iso.op.name,
            "t": list(self.iso.t),
            "chi": self.chi,
            "side": self.side,
            "element": self.element,
        }


@dataclass(frozen=True)
class ColorGroupAnalysis:
    design: Design
    lattice: Lattice            # colour-preserving translations
    swap_rep: Vec | None        # coset representative of swap translations
    elements: tuple[GroupElement, ...]

    @property
    def full_lattice(self) -> Lattice:
        """Translation lattice of S, swap translations included."""
        if self.swap_rep is None:
            return self.lattice
        return self.lattice.extended(self.swap_rep)

    @property
    def s2_empty(self) -> bool:
        return all(el.side == "S1" for el in self.elements)


def color_group(design: Design) -> ColorGroupAnalysis:
    """All colour-compatible isometries, one per coset of the
    colour-preserving translation lattice."""
    lat, swap_rep = translation_lattices(design)
    return _build_group(design, lat, swap_rep)


def _build_group(design: Design, lat: Lattice,
                 swap_rep: Vec | None) -> ColorGroupAnalysis:
    # the design repeats on the a x c' rectangle spanned by (a, 0) and
    # (0, c') in `lat`, so the point-op scans run on that period block;
    # for IDENTITY op_members returns (0, 0) and then swap_rep, the only
    # swap-coset point in [0, a) x [0, c)
    a, c = lat.a, lat.min_along((0, 1))
    period = Design(a, c, design.pullback_rows(IDENTITY, a, c))
    elements = []
    for op in POINT_OPS:
        for t, chi in op_members(period, lat, swap_rep, op):
            iso = GridIsometry(op, t)
            elements.append(
                GroupElement(iso, chi, side_of(chi, op.delta), locate_element(lat, iso)))
    return ColorGroupAnalysis(design, lat, swap_rep, tuple(elements))


def op_members(design: Design, lat: Lattice, swap_rep: Vec | None,
               op: PointOp) -> list[tuple[Vec, str]]:
    """Translation parts and colour actions of the colour-group members
    with point part `op`, one per coset of `lat`, as (coset rep, chi)
    in (ty, tx) order.

    `design` may be any block of the design whose sides (w, 0) and
    (0, h) lie in `lat`: `_build_group` passes the a x c' period block,
    search its exact candidate blocks.  When `op` is present its members
    are one of them composed with every translation of the group, so
    they fill one coset of `lat`, or two when there are colour-exchanging
    translations (`swap_rep` is not None); the scan stops once it has
    that many.  It costs O(w + h + hits * h), with hits the shifts that
    pass the row-0 lookup below, instead of one test per coset rep.
    """
    # members of the colour group normalise the preserve lattice, so
    # ops that move it can be skipped outright; for the survivors the
    # pull-back repeats on the block too, and one comparison on the
    # block is sound
    if not (lat.contains(op.apply((lat.a, 0))) and lat.contains(op.apply((lat.b, lat.c)))):
        return []
    w, h, rows = design.width, design.height, design.rows
    mask = (1 << w) - 1
    egrid = design.pullback_rows(op, w, h)
    # a shift (sx, sy) can act only if row 0 rotated by sx is pull-back
    # row sy or its complement, so index the pull-back rows by value and
    # test just those shifts
    at: dict[int, list[int]] = {}
    for sy, row in enumerate(egrid):
        at.setdefault(row, []).append(sy)
    wanted = 1 if swap_rep is None else 2
    found: dict[Vec, str] = {}
    for sx in range(w):
        r0 = rotl(rows[0], sx, w, mask)
        for sy in (*at.get(r0, ()), *at.get(r0 ^ mask, ())):
            chi = _shift_action(rows, egrid, sx, sy, w, mask)
            if chi is None:
                continue
            # s gives the member x -> op(x) + op(s), kept under its rep
            # t; the rep's own shift invert(op)(t) differs from s by a
            # vector of `lat` (op normalises `lat`), and the rows and
            # egrid repeat on `lat`, so both shifts have one chi
            found.setdefault(lat.reduce(op.apply((sx, sy))), chi)
            if len(found) == wanted:
                return sorted(found.items(), key=lambda m: (m[0][1], m[0][0]))
    # every shift of the block was looked up and none acts (one member
    # would bring all `wanted` cosets with it)
    return []
