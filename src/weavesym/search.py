"""Exhaustive search for designs realising a target symmetry pair.

Candidates are enumerated by growing block area, one per class of
designs under the translations and the point ops that map the block
onto itself: the first member of the class in the enumeration order.
A block wider than it is tall is skipped when its transpose lies in
the bounds, because that block came first and holds the transpose of
each of its classes.  Each candidate's translation lattice decides
whether the block is exact (a design that repeats a smaller block was
already seen on that block).  Each block is enumerated once per
process, whole, by the first search that reaches it; its candidates
are stored packed and read back by every later search.  The lattice
and the target's point orders then decide the candidate: its point
ops are tested one at a time, and it is dropped as soon as S or S1
outgrows its point order or disagrees with it on the half-turn; only
candidates whose S and S1 hold exactly their point orders are fully
classified.  Designs that are copies of one another up to grid point
operations and translations are thus met once; matches are still
deduplicated on `canonical_key`, a guard that never drops one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product

from .analysis import _build_group, op_members, side_of, translation_lattices
from .classify import Classification, classify_analysis
from .design import Design, rotl
from .isometry import (
    IDENTITY,
    MIRROR_ANTI,
    MIRROR_DIAG,
    MIRROR_X,
    MIRROR_Y,
    POINT_OPS,
    R90,
    R180,
    R270,
)
from .naming import normalize_plane_name, pair_for_layer, point_group, validate_pair

# Exhausting all designs of a given area is exponential, so the sweep is
# capped; every tabulated pair is realised well inside this bound.
DEFAULT_MAX_CELLS = 16
# Hard ceiling on the cap: the sweep up to 20 cells already enumerates
# about 1.9 million candidates, and each further cell doubles that.
MAX_CELLS = 20


@dataclass(frozen=True)
class SearchTarget:
    s: str
    s1: str    # "-" when S2 must be empty

    def describe(self) -> str:
        return f"({self.s}, {self.s1})"


def parse_pair_target(text: str) -> SearchTarget:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'S,S1' with exactly one comma, got {text!r}")
    s = normalize_plane_name(parts[0])
    s1 = parts[1] if parts[1] == "-" else normalize_plane_name(parts[1])
    validate_pair(s, s1)
    return SearchTarget(s, s1)


def parse_layer_target(text: str) -> SearchTarget:
    return SearchTarget(*pair_for_layer(text))


def iter_blocks(max_w: int, max_h: int, max_cells: int):
    sizes = [(w * h, w, h)
             for w in range(1, min(max_w, max_cells) + 1)
             for h in range(1, min(max_h, max_cells // w) + 1)]
    for _, w, h in sorted(sizes):
        yield w, h


def iter_candidates(w: int, h: int):
    """(design, lattice, swap_rep) for one design per class of exact
    w-by-h designs, as `_enumerate` yields them.

    The first call for a block runs its enumeration to the end and
    stores the candidates packed: each as the block read as one integer
    (row h-1 most significant) and the index of its (lattice, swap_rep)
    among the block's distinct pairs.  Every call decodes them from
    there, with no lattice or canonicity test.  Safe to call from
    several threads: two that reach a new block together may both
    enumerate it, and one of the equal results is kept.
    """
    block = _BLOCKS.get((w, h))
    if block is None:
        block = _BLOCKS.setdefault((w, h), _store(w, h))
    bits, pair, pairs = block
    mask = (1 << w) - 1
    shifts = range(0, w * h, w)
    for packed, k in zip(bits, pair):
        lat, swap_rep = pairs[k]
        yield Design(w, h, tuple([(packed >> s) & mask for s in shifts])), lat, swap_rep


def _store(w: int, h: int):
    """The whole enumeration of one block, packed as `iter_candidates`
    reads it: (bits, pair index, distinct (lattice, swap_rep) pairs).
    Each entry of `bits` holds w*h bits, at most MAX_CELLS in a search."""
    bits, pair, index = array("L"), array("H"), {}
    for design, lat, swap_rep in _enumerate(w, h):
        bits.append(_pack(design.rows, w))
        pair.append(index.setdefault((lat, swap_rep), len(index)))
    return bits, pair, list(index)


# (w, h) -> the packed candidates of that block, once enumerated whole
_BLOCKS: dict[tuple[int, int], tuple[array, array, list]] = {}


def _enumerate(w: int, h: int):
    """(design, lattice, swap_rep) for one design per class of exact
    w-by-h designs, in increasing order of the block read as one
    integer (row h-1 most significant).

    A class is the images of a design under the translations and the
    point ops that map the block onto itself: the identity, the
    half-turn and both mirrors, and on a square block the four ops
    that exchange the axes.  Rows 1..h-1 run through every value and
    the first row takes only the rotation-maximal values at or above
    every rotation of the other rows (the top-row test).  The first
    design of a class met in this order stands for it and marks every
    member that passes the top-row test, in a table indexed by the
    block read as one integer; a marked design is skipped.
    The preserve lattice holds (w, 0) and (0, h), so the block is exact
    unless its shortest translation along an axis is shorter than the
    block; every image of an exact design is exact.
    """
    mask = (1 << w) - 1
    # per-width table, one machine int (at least 32 bits) per row
    # value: each row's largest rotation, set once per rotation orbit
    tops = array("L", [0]) * (1 << w)
    for r in range(1, 1 << w):
        if not tops[r]:
            orbit = [rotl(r, s, w, mask) for s in range(w)]
            top = max(orbit)
            for v in orbit:
                tops[v] = top
    firsts = [r for r in range(1 << w) if r == tops[r]]
    ops = POINT_OPS if w == h else (IDENTITY, R180, MIRROR_X, MIRROR_Y)
    n = w * h
    full = (1 << n) - 1
    ones = full // mask   # cell 0 of every row
    marked = bytearray(1 << n)
    for upper in product(range(1 << w), repeat=h - 1):
        upper = upper[::-1]   # row 1 varies fastest, row h-1 slowest
        if upper < upper[::-1]:
            # the y-mirror image (r0, r[h-1], ..., r1) passes the
            # top-row test and comes earlier, whatever r0 is
            continue
        top = max((tops[r] for r in upper), default=0)
        high = _pack(upper, w)
        for r0 in firsts[bisect_left(firsts, top):]:
            if marked[high << w | r0]:
                continue
            design = Design(w, h, (r0, *upper))
            for op in ops:
                image = design.pullback_rows(op, w, h)
                # a translate passes when its row 0 is the image's
                # largest row rotation
                first = max([tops[r] for r in image])
                packed = _pack(image, w)
                for dy, r in enumerate(image):
                    if tops[r] != first:
                        continue
                    # the translate taking row dy to row 0, then each
                    # row rotated by dx: `low` holds the dx cells that
                    # wrap round to the start of every row
                    moved = (packed >> dy * w | packed << n - dy * w) & full
                    for dx in range(w):
                        if rotl(r, dx, w, mask) == first:
                            low = ones * ((1 << dx) - 1)
                            marked[moved << dx & full & ~low | moved >> w - dx & low] = 1
            lat, swap_rep = translation_lattices(design)
            if lat.a < w or lat.min_along((0, 1)) < h:
                continue
            yield design, lat, swap_rep


def _pack(rows, w: int) -> int:
    """The w-cell rows read as one integer, the last row most significant."""
    packed = 0
    for r in reversed(rows):
        packed = packed << w | r
    return packed


def canonical_key(design: Design):
    """Smallest (w, h, rows) over all point-op images and translations;
    equal keys mean the designs are copies of one another."""
    best = None
    for op in POINT_OPS:
        d2 = design.transformed(op)
        w, h = d2.width, d2.height
        mask = (1 << w) - 1
        for dy in range(h):
            rot = d2.rows[dy:] + d2.rows[:dy]
            for dx in range(w):
                cand = (w, h, tuple(rotl(r, dx, w, mask) for r in rot))
                if best is None or cand < best:
                    best = cand
    return best


def matches(cls: Classification, target: SearchTarget) -> bool:
    # the layer symbol is looked up from the pair, so equal pairs agree on it
    return cls.pair_descriptor == target.describe()


# Point ops in the order the prefilter tests them: the half-turn first,
# whose presence in S and in S1 their rotation orders fix; the others
# only count towards the point orders.
_PREFILTER_OPS = (R180, MIRROR_X, MIRROR_Y, MIRROR_DIAG, MIRROR_ANTI, R90, R270)


def prefilter(target: SearchTarget):
    """Predicate on (design, lattice, swap_rep) that is False only when
    the design's colour group cannot give the target pair.

    It first asks for colour-exchanging translations exactly when S1 is
    given and has the point order of S, n * (1 + refl) as read by
    `naming.point_group`.  Point ops are then tested one at a time, and
    the predicate stops as soon as S or S1 holds more ops than its
    point order, an S2 member appears when the target wants S2 empty,
    or the half-turn lies in S or in S1 though that group's n is odd,
    or is missing though it is even.  After the last op, S and S1 must
    each hold exactly their point order.
    """
    s2_empty = target.s1 == "-"
    n, refl = point_group(target.s)
    n1, refl1 = point_group(target.s if s2_empty else target.s1)
    order, order_s1 = n * (1 + refl), n1 * (1 + refl1)
    swap = not s2_empty and order == order_s1

    def admits(design: Design, lat, swap_rep) -> bool:
        if (swap_rep is not None) != swap:
            return False
        n_ops = n_s1_ops = 1   # the identity
        for op in _PREFILTER_OPS:
            sides = [side_of(chi, op.delta)
                     for _, chi in op_members(design, lat, swap_rep, op)]
            in_s, in_s1 = bool(sides), "S1" in sides
            n_ops += in_s
            n_s1_ops += in_s1
            if n_ops > order or n_s1_ops > order_s1 or (s2_empty and "S2" in sides):
                return False
            if op is R180 and (in_s != (n % 2 == 0) or in_s1 != (n1 % 2 == 0)):
                return False
        return n_ops == order and n_s1_ops == order_s1

    return admits


def search(target: SearchTarget, max_block=(12, 12), limit: int | None = 1,
           max_cells: int = DEFAULT_MAX_CELLS):
    """Designs matching the target, ordered by block area, then block
    width, then the block read as one integer with row h-1 most
    significant (so rows (2, 1) come before (1, 2)).

    Returns a list of (design, classification) pairs.  With limit=None
    the whole capped space is swept.  Raises ValueError for a limit
    below 1, a block side below 1 or a cell cap outside 1..MAX_CELLS.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if not 1 <= max_cells <= MAX_CELLS:
        raise ValueError(f"max_cells must be between 1 and {MAX_CELLS}, got {max_cells}")
    max_w, max_h = max_block
    if max_w < 1 or max_h < 1:
        raise ValueError(f"max_block sides must be at least 1, got {max_block}")
    admits = prefilter(target)
    results = []
    seen = set()
    for w, h in iter_blocks(max_w, max_h, max_cells):
        if h < w <= max_h:
            # the transposed h x w block comes first and lies in the
            # bounds, so every class on this block was met there
            continue
        for design, lat, swap_rep in iter_candidates(w, h):
            if not admits(design, lat, swap_rep):
                continue
            cls = classify_analysis(_build_group(design, lat, swap_rep))
            if not matches(cls, target):
                continue
            key = canonical_key(design)
            if key in seen:
                continue
            seen.add(key)
            results.append((design, cls))
            if limit is not None and len(results) >= limit:
                return results
    return results
