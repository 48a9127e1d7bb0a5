"""Invariant checkers shared by the property suite and the acceptance
battery.  Each function raises AssertionError with context on failure."""

from helpers import chi_of, compose, invert
from naive_oracle import NAIVE_OPS, grid_of, naive_chi_table, naive_color_action

from weavesym.classify import classify
from weavesym.isometry import POINT_OPS, GridIsometry, op_by_name

ALLOWED_INVENTORY_KINDS = {
    "glide-plane-parallel",
    "axis2-normal",
    "inversion-center",
    "axis4-normal",
    "rotoinversion4-normal",
    "mirror-plane-normal",
    "axis2-inplane",
    "glide-plane-normal",
    "screw2-inplane",
}


def _sign(chi):
    return 1 if chi == "preserve" else -1


def check_identity_record(cls):
    first = cls.analysis.elements[0]
    assert first.iso.op.name == "identity" and first.iso.t == (0, 0)
    assert first.chi == "preserve" and first.side == "S1"


def check_closure(cls, rng, samples=20):
    """chi is multiplicative over composition, so sigma = chi * delta is
    too; inverses stay in the group with the same chi."""
    analysis = cls.analysis
    isos = [el.iso for el in analysis.elements]
    chis = {el.iso: el.chi for el in analysis.elements}
    a, b = analysis.lattice.basis
    for _ in range(samples):
        f, g = rng.choice(isos), rng.choice(isos)
        m, n = rng.randint(-2, 2), rng.randint(-2, 2)
        shifted = GridIsometry(
            g.op, (g.t[0] + m * a[0] + n * b[0], g.t[1] + m * a[1] + n * b[1]))
        assert chi_of(analysis, shifted) == chis[g], (f, g, m, n)
        product = compose(f, shifted)
        want = "preserve" if _sign(chis[f]) * _sign(chis[g]) == 1 else "swap"
        assert chi_of(analysis, product) == want, (f, g, m, n)
        assert chi_of(analysis, invert(shifted)) == chis[g], (g, m, n)


def check_side_index(cls):
    n1 = sum(1 for el in cls.analysis.elements if el.side == "S1")
    n2 = sum(1 for el in cls.analysis.elements if el.side == "S2")
    assert n2 == 0 or n2 == n1, (n1, n2)


def check_complement_invariance(design, cls):
    other = classify(design.complemented())
    assert other.analysis.lattice == cls.analysis.lattice
    assert other.analysis.swap_rep == cls.analysis.swap_rep
    assert other.pair_descriptor == cls.pair_descriptor
    assert other.layer_symbol == cls.layer_symbol
    mine = {(el.iso.op.name, el.iso.t): el.chi for el in cls.analysis.elements}
    theirs = {(el.iso.op.name, el.iso.t): el.chi for el in other.analysis.elements}
    assert mine == theirs


def check_doubling_invariance(design, cls):
    for nx, ny in ((2, 1), (1, 2), (2, 2)):
        other = classify(design.tiled(nx, ny))
        assert other.analysis.lattice == cls.analysis.lattice, (nx, ny)
        assert other.analysis.swap_rep == cls.analysis.swap_rep, (nx, ny)
        assert other.pair_descriptor == cls.pair_descriptor, (nx, ny)
        assert other.layer_symbol == cls.layer_symbol, (nx, ny)


def check_conjugation_covariance(design, cls, rng, samples=4):
    """Re-gridding the design by a point operation conjugates the group:
    the named classification is unchanged and each conjugated isometry
    keeps its colour action."""
    isos = [el.iso for el in cls.analysis.elements]
    chis = {el.iso: el.chi for el in cls.analysis.elements}
    for op in POINT_OPS:
        moved = design.transformed(op)
        grid = grid_of(moved)
        other = classify(moved)
        assert other.pair_descriptor == cls.pair_descriptor, op.name
        assert other.layer_symbol == cls.layer_symbol, op.name
        assert other.provisional == cls.provisional, op.name
        a = GridIsometry(op)
        a_inv = invert(a)
        for g in rng.sample(isos, min(samples, len(isos))):
            h = compose(a_inv, compose(g, a))
            got = naive_color_action(
                grid, moved.width, moved.height, NAIVE_OPS[h.op.name], h.t)
            assert got == chis[g], (op.name, g)


def check_lift_count(cls):
    assert len(cls.inventory) == len(cls.analysis.elements) - 1


def check_inversion_coordinates(cls):
    want = sorted(tuple(el.element["center2"]) for el in cls.analysis.elements
                  if el.element["kind"] == "rotation2" and el.side == "S2")
    got = sorted(tuple(item["center2"]) for item in cls.inventory
                 if item["kind"] == "inversion-center")
    assert got == want


def check_no_parallel_mirror_planes(cls):
    kinds = {item["kind"] for item in cls.inventory}
    assert kinds <= ALLOWED_INVENTORY_KINDS, kinds - ALLOWED_INVENTORY_KINDS
    assert "mirror-plane-parallel" not in kinds


def check_against_naive(design):
    """The lattice-reduced pipeline agrees with the brute-force checker
    on every one of the 8 * w * h translation classes."""
    analysis = classify(design).analysis
    table = naive_chi_table(design)
    for (name, tx, ty), want in table.items():
        got = chi_of(analysis, GridIsometry(op_by_name(name), (tx, ty)))
        assert got == want, (design.rows, name, tx, ty, got, want)


ALL_GROUP_CHECKS = (
    check_identity_record,
    check_side_index,
    check_lift_count,
    check_inversion_coordinates,
    check_no_parallel_mirror_planes,
)
