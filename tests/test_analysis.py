import random

from helpers import chi_of, invert_op
from test_diagrams import sheared_motifs

from weavesym import analysis
from weavesym.analysis import (
    PRESERVE,
    SWAP,
    _shift_action,
    _translation_action,
    color_group,
    locate_element,
    op_members,
    parallel_coeff,
    side_of,
    translation_lattices,
)
from weavesym.catalog import load_manifest
from weavesym.design import Design, reverse_row, rotl
from weavesym.isometry import (
    IDENTITY,
    MIRROR_ANTI,
    MIRROR_DIAG,
    MIRROR_X,
    MIRROR_Y,
    POINT_OPS,
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
        assert chi_of(analysis, GridIsometry(R90, t)) is None
    assert chi_of(analysis, GridIsometry(R180, (1, 0))) == "preserve"
    assert chi_of(analysis, GridIsometry(R180, (3, 0))) == "swap"
    assert chi_of(analysis, GridIsometry(MIRROR_ANTI, (0, 0))) == "preserve"


def test_color_action_translations():
    analysis = color_group(TWILL)
    identity = op_by_name("identity")
    assert chi_of(analysis, GridIsometry(identity, (1, 1))) == "preserve"
    assert chi_of(analysis, GridIsometry(identity, (2, 0))) == "swap"
    assert chi_of(analysis, GridIsometry(identity, (1, 0))) is None


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


def small_designs(max_cells):
    """Every design of at most `max_cells` cells: each block shape, each
    bitmask."""
    for w in range(1, max_cells + 1):
        for h in range(1, max_cells // w + 1):
            for bits in range(1 << (w * h)):
                yield Design(w, h, tuple((bits >> (j * w)) & ((1 << w) - 1)
                                         for j in range(h)))


def test_lattices_match_scan_on_small_blocks():
    seen = set()
    for design in small_designs(10):
        want = scan_lattices(design)
        assert translation_lattices(design) == want, design
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


def full_block_members(design, lat, swap_rep, op):
    """Reference: the member scan on the whole declared block, walking
    every coset rep of `lat` in row order."""
    if not all(lat.contains(op.apply(v)) for v in lat.basis):
        return []
    w, h, rows = design.width, design.height, design.rows
    mask = (1 << w) - 1
    egrid = design.pullback_rows(op, w, h)
    inv = invert_op(op)
    found = []
    for t in [(x, y) for y in range(lat.c) for x in range(lat.a)]:
        sx, sy = inv.apply(t)
        chi = _shift_action(rows, egrid, sx, sy, w, mask)
        if chi is None:
            continue
        found.append((t, chi))
        if len(found) == (1 if swap_rep is None else 2):
            break
    return found


def full_block_elements(design):
    """(op, t, chi, side, element) of every colour-group member, from
    the full-block scan, in `color_group` order."""
    lat, swap_rep = translation_lattices(design)
    out = [("identity", (0, 0), PRESERVE, "S1", {"kind": "identity"})]
    if swap_rep is not None:
        out.append(("identity", swap_rep, SWAP, side_of(SWAP, 1),
                    locate_element(lat, GridIsometry(IDENTITY, swap_rep))))
    for op in POINT_OPS[1:]:
        for t, chi in full_block_members(design, lat, swap_rep, op):
            out.append((op.name, t, chi, side_of(chi, op.delta),
                        locate_element(lat, GridIsometry(op, t))))
    return out


def mirror_doubled(rng, count):
    """Seeded random halves followed by their mirror image, tiled up to
    3x3."""
    for _ in range(count):
        w, h = rng.randint(1, 4), rng.randint(1, 6)
        rows = [rng.getrandbits(w) for _ in range(h)]
        wide = Design(2 * w, h, tuple(r | (reverse_row(r, w) << w) for r in rows))
        yield wide.tiled(rng.randint(1, 3), rng.randint(1, 3))


def test_period_block_group_matches_full_block_scan():
    rng = random.Random(20261018)
    corpus = [*small_designs(10), *(e.design for e in load_manifest()),
              *periodic_motifs(rng, 200), *sheared_motifs(rng, 150),
              *mirror_doubled(rng, 150)]
    assert len(corpus) == 7306 + 44 + 200 + 150 + 150
    smaller = sheared = swap = diagonal = 0
    for design in corpus:
        got = color_group(design)
        assert [(el.iso.op.name, el.iso.t, el.chi, el.side, el.element)
                for el in got.elements] == full_block_elements(design), design
        lat = got.lattice
        smaller += lat.a * lat.min_along((0, 1)) < design.width * design.height
        sheared += lat.b != 0
        swap += got.swap_rep is not None
        diagonal += any(el.iso.op.name in ("mirror_diag", "mirror_anti")
                        for el in got.elements)
    assert smaller and sheared and swap and diagonal


# the distinct block shapes of the analyze-random benchmark up to 24 x 32,
# and 32 x 48
RANDOM_SHAPES = [(8, 8), (8, 12), (8, 16), (12, 12), (8, 24), (12, 16), (16, 16),
                 (12, 24), (16, 20), (8, 32), (24, 32), (32, 48)]


def row0_blocks(rng):
    """Blocks whose row 0 is all zeros, all ones or '01' repeated, so
    it meets many pull-back rows; the other rows are random, and in
    every second block they mirror about row 0 (row j equals row -j)."""
    for w, h in [(8, 8), (12, 16), (16, 12), (24, 32)]:
        mask = (1 << w) - 1
        for r0 in (0, mask, mask // 3):
            for mirrored in (False, True):
                rows = [r0] + [rng.getrandbits(w) for _ in range(h - 1)]
                if mirrored:
                    rows = [rows[min(j, h - j)] for j in range(h)]
                yield Design(w, h, tuple(rows))


def test_group_matches_full_block_scan_on_large_and_adversarial_blocks():
    rng = random.Random(20261019)
    randoms = [Design(w, h, tuple(rng.getrandbits(w) for _ in range(h)))
               for shape in RANDOM_SHAPES for w, h in (shape, shape[::-1])]
    stripes = [Design(w, h, (rng.getrandbits(w),) * h)
               for w, h in [(rng.randint(1, 12), rng.randint(1, 8)) for _ in range(60)]]
    # a sheared lattice has c' > c, so several shifts in the a x c'
    # period block map to one coset rep
    sheared = [d for d in [*periodic_motifs(rng, 200), *sheared_motifs(rng, 200)]
               if (lat := translation_lattices(d)[0]).min_along((0, 1)) > lat.c]
    cases = {"random": randoms, "row0": list(row0_blocks(rng)),
             "stripes": stripes, "sheared": sheared}
    groups = {case: [color_group(d) for d in designs] for case, designs in cases.items()}
    for case, designs in cases.items():
        for design, got in zip(designs, groups[case]):
            assert [(el.iso.op.name, el.iso.t, el.chi, el.side, el.element)
                    for el in got.elements] == full_block_elements(design), (case, design)
            # on the declared block, taller than the period, one column
            # can hold several shifts of one member
            for op in POINT_OPS:
                args = (design, got.lattice, got.swap_rep, op)
                assert op_members(*args) == full_block_members(*args), (case, design, op)
    assert {d.width < d.height for d in randoms} == {True, False}
    assert any(len(g.elements) > 1 for g in groups["row0"])
    assert any(g.swap_rep is not None for g in groups["stripes"])
    assert any(g.swap_rep is not None for g in groups["sheared"])
    assert any(d.height > g.lattice.min_along((0, 1))
               for d, g in zip(sheared, groups["sheared"]))
    assert len(sheared) >= 20


def test_group_tests_only_row0_hits(monkeypatch):
    # a random block has no translations, so a walk over the coset reps
    # would test 128 * 128 shifts for each point op
    rng = random.Random(20261019)
    design = Design(128, 128, tuple(rng.getrandbits(128) for _ in range(128)))
    lat, swap_rep = translation_lattices(design)
    assert (lat, swap_rep) == (Lattice(128, 0, 128), None)
    calls = 0
    real = analysis._shift_action

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(analysis, "_shift_action", counted)
    elements = analysis._build_group(design, lat, swap_rep).elements
    assert [(el.iso.op, el.iso.t) for el in elements] == [(IDENTITY, (0, 0))]
    assert calls <= 16


def test_group_scans_only_the_period_block(monkeypatch):
    # the lattice scan compares the declared rows; the point-op scans
    # that follow see one 4x4 period of the twill
    design = TWILL.tiled(32, 32)
    lat, swap_rep = translation_lattices(design)
    want = color_group(TWILL).elements
    heights = []
    real = analysis._shift_action

    def recorded(rows, *args):
        heights.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(analysis, "_shift_action", recorded)
    assert analysis._build_group(design, lat, swap_rep).elements == want
    assert heights and set(heights) == {4}


def test_checkerboard_has_quarter_turns():
    got = records(color_group(CHECKER))
    assert ("rot90", (1, 0)) in got or ("rot90", (0, 0)) in got
    kinds = {k for (_, _, k) in got.values()}
    assert "rotation4" in kinds


def test_chi_of_covers_whole_classes():
    analysis = color_group(TWILL)
    assert chi_of(analysis, GridIsometry(R180, (1, 0))) == "preserve"
    # the same element shifted by preserve and swap translations
    assert chi_of(analysis, GridIsometry(R180, (5, 0))) == "preserve"
    assert chi_of(analysis, GridIsometry(R180, (2, 1))) == "preserve"
    assert chi_of(analysis, GridIsometry(R180, (3, 0))) == "swap"
    assert chi_of(analysis, GridIsometry(R180, (0, 0))) is None
    assert chi_of(analysis, GridIsometry(R90, (1, 0))) is None


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
