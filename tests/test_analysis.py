import random

from weavesym import analysis
from weavesym.analysis import (
    PRESERVE,
    SWAP,
    _translation_action,
    color_group,
    parallel_coeff,
    translation_lattices,
)
from weavesym.design import Design, rotl
from weavesym.isometry import (
    MIRROR_ANTI,
    MIRROR_DIAG,
    MIRROR_X,
    MIRROR_Y,
    R90,
    R180,
    GridIsometry,
    op_by_name,
)
from weavesym.lattice import Lattice
from weavesym.weave import gen_twill

CHECKER = Design.from_strings(["#.", ".#"])
TWILL = gen_twill(2, 2, 1)
REFERENCE = Design.from_strings(["#..#", "#.#.", ".##.", "#.#."])


def records(analysis):
    return {(el.iso.op.name, el.iso.t): (el.chi, el.side, el.element["kind"])
            for el in analysis.elements}


def test_checkerboard_lattices():
    lat, swap = translation_lattices(CHECKER)
    assert lat == Lattice(2, 1, 1)
    assert swap == (1, 0)


def test_twill_lattices():
    assert TWILL.rows == (3, 6, 12, 9)
    lat, swap = translation_lattices(TWILL)
    assert lat == Lattice(4, 1, 1)
    assert swap == (2, 0)


def test_reference_lattices():
    lat, swap = translation_lattices(REFERENCE)
    assert lat == Lattice(4, 2, 2)
    assert swap is None


def test_twill_group_records():
    got = records(color_group(TWILL))
    assert got == {
        ("identity", (0, 0)): ("preserve", "S1", "identity"),
        ("identity", (2, 0)): ("swap", "S2", "translation"),
        ("rot180", (1, 0)): ("preserve", "S1", "rotation2"),
        ("rot180", (3, 0)): ("swap", "S2", "rotation2"),
        ("mirror_diag", (1, 0)): ("preserve", "S2", "glide"),
        ("mirror_diag", (3, 0)): ("swap", "S1", "glide"),
        ("mirror_anti", (0, 0)): ("preserve", "S2", "mirror"),
        ("mirror_anti", (2, 0)): ("swap", "S1", "glide"),
    }


def test_reference_group_sides():
    analysis = color_group(REFERENCE)
    by_op = {}
    for el in analysis.elements:
        by_op.setdefault(el.iso.op.name, []).append(el)
    assert all(el.side == "S1" for el in by_op["mirror_x"])
    assert all(el.side == "S2" for el in by_op["mirror_y"])
    assert all(el.side == "S2" for el in by_op["rot180"])
    assert "rot90" not in by_op and "mirror_diag" not in by_op


def test_color_action_direct():
    # the twill's quarter turns are not colour symmetries
    analysis = color_group(TWILL)
    for t in [(x, y) for x in range(4) for y in range(4)]:
        assert analysis.chi_of(GridIsometry(R90, t)) is None
    assert analysis.chi_of(GridIsometry(R180, (1, 0))) == "preserve"
    assert analysis.chi_of(GridIsometry(R180, (3, 0))) == "swap"
    assert analysis.chi_of(GridIsometry(MIRROR_ANTI, (0, 0))) == "preserve"


def test_color_action_translations():
    analysis = color_group(TWILL)
    identity = op_by_name("identity")
    assert analysis.chi_of(GridIsometry(identity, (1, 1))) == "preserve"
    assert analysis.chi_of(GridIsometry(identity, (2, 0))) == "swap"
    assert analysis.chi_of(GridIsometry(identity, (1, 0))) is None


def scan_lattices(design):
    """Reference: test every translation of the block."""
    preserve = [(design.width, 0), (0, design.height)]
    swap = None
    for b in range(design.height):
        for a in range(design.width):
            if a == 0 and b == 0:
                continue
            act = _translation_action(design, a, b)
            if act == PRESERVE:
                preserve.append((a, b))
            elif act == SWAP and swap is None:
                swap = (a, b)
    lat = Lattice.from_vectors(preserve)
    return lat, (lat.reduce(swap) if swap is not None else None)


def basis_actions(design, lat, swap):
    """Colour actions of the Hermite basis of the full translation
    lattice."""
    full = lat if swap is None else lat.extended(swap)
    return (_translation_action(design, full.a, 0),
            _translation_action(design, full.b, full.c))


def test_lattices_match_scan_on_small_blocks():
    seen = set()
    for w in range(1, 11):
        for h in range(1, 10 // w + 1):
            for bits in range(1 << (w * h)):
                rows = tuple((bits >> (j * w)) & ((1 << w) - 1) for j in range(h))
                design = Design(w, h, rows)
                want = scan_lattices(design)
                assert translation_lattices(design) == want, (w, h, rows)
                seen.add(basis_actions(design, *want))
    assert basis_actions(CHECKER, *scan_lattices(CHECKER)) == (SWAP, SWAP)
    assert seen == {(a, b) for a in (PRESERVE, SWAP) for b in (PRESERVE, SWAP)}


def periodic_motifs(rng, count):
    """Seeded motifs, some with complement-shift halves, tiled up to 6x6
    and sheared by a shift that grows with the motif row band."""
    for _ in range(count):
        mw, mh = rng.randint(1, 3), rng.randint(1, 3)
        rows = [rng.getrandbits(mw) for _ in range(mh)]
        if rng.random() < 0.5:
            mask = (1 << mw) - 1
            rows = [r | ((r ^ mask) << mw) for r in rows]
            mw *= 2
        if rng.random() < 0.5:
            mask = (1 << mw) - 1
            rows += [r ^ mask for r in rows]
            mh *= 2
        tiled = Design(mw, mh, tuple(rows)).tiled(rng.randint(1, 6), rng.randint(1, 6))
        w = tiled.width
        shear = rng.randrange(w)
        yield Design(w, tiled.height, tuple(
            rotl(r, shear * (j // mh), w, (1 << w) - 1)
            for j, r in enumerate(tiled.rows)))


def test_lattices_match_scan_on_tiled_motifs():
    seen = set()
    for design in periodic_motifs(random.Random(20261018), 400):
        want = scan_lattices(design)
        assert translation_lattices(design) == want, (design.width, design.rows)
        seen.add(basis_actions(design, *want))
    assert {(PRESERVE, SWAP), (SWAP, PRESERVE), (SWAP, SWAP)} <= seen


def test_lattice_cost_is_a_few_actions(monkeypatch):
    calls = 0
    real = analysis._translation_action

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(analysis, "_translation_action", counted)
    lat, swap = translation_lattices(TWILL.tiled(32, 32))
    assert (lat, swap) == (Lattice(4, 1, 1), (2, 0))
    assert calls <= 16


def test_checkerboard_has_quarter_turns():
    got = records(color_group(CHECKER))
    assert ("rot90", (1, 0)) in got or ("rot90", (0, 0)) in got
    kinds = {k for (_, _, k) in got.values()}
    assert "rotation4" in kinds


def test_chi_of_covers_whole_classes():
    analysis = color_group(TWILL)
    assert analysis.chi_of(GridIsometry(R180, (1, 0))) == "preserve"
    # the same element shifted by preserve and swap translations
    assert analysis.chi_of(GridIsometry(R180, (5, 0))) == "preserve"
    assert analysis.chi_of(GridIsometry(R180, (2, 1))) == "preserve"
    assert analysis.chi_of(GridIsometry(R180, (3, 0))) == "swap"
    assert analysis.chi_of(GridIsometry(R180, (0, 0))) is None
    assert analysis.chi_of(GridIsometry(R90, (1, 0))) is None


def test_full_lattice_extends_by_swap():
    analysis = color_group(TWILL)
    assert analysis.full_lattice == Lattice(2, 1, 1)
    ref = color_group(REFERENCE)
    assert ref.full_lattice == ref.lattice


def test_parallel_coeff():
    # t + op(t) along the axis direction
    assert parallel_coeff(MIRROR_X, (3, 5)) == 6
    assert parallel_coeff(MIRROR_Y, (3, 5)) == 10
    assert parallel_coeff(MIRROR_DIAG, (3, 5)) == 8
    assert parallel_coeff(MIRROR_ANTI, (3, 5)) == -2


def test_uniform_design_group():
    # a solid colour preserves under everything and swaps under nothing
    solid = Design.from_strings(["##", "##"])
    analysis = color_group(solid)
    assert analysis.swap_rep is None
    assert analysis.lattice == Lattice(1, 0, 1)
    assert all(el.chi == "preserve" for el in analysis.elements)
