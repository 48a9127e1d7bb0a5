import json
import random
import sys
import threading
from pathlib import Path
from types import ModuleType

import pytest

import weavesym.search as search_mod
from weavesym.analysis import _build_group, translation_lattices
from weavesym.classify import classify, classify_analysis
from weavesym.design import Design
from weavesym.isometry import IDENTITY, MIRROR_DIAG, R90, R180
from weavesym.naming import PLANE_GROUPS, pair_table, point_group, validate_pair
from weavesym.search import (
    MAX_CELLS,
    SearchTarget,
    canonical_key,
    iter_blocks,
    iter_candidates,
    matches,
    parse_layer_target,
    parse_pair_target,
    prefilter,
    search,
)


def test_parse_pair_target():
    t = parse_pair_target("p2mg,p2gg")
    assert (t.s, t.s1) == ("p2mg", "p2gg")
    t = parse_pair_target(" c2mm , - ")
    assert (t.s, t.s1) == ("c2mm", "-")
    t = parse_pair_target("pmg,pgg")
    assert (t.s, t.s1) == ("p2mg", "p2gg")
    t = parse_pair_target("p4m,p4g")
    assert (t.s, t.s1) == ("p4mm", "p4gm")


def test_parse_pair_target_rejects_non_subgroup():
    with pytest.raises(ValueError, match="must be a subgroup of S"):
        parse_pair_target("p1,c2mm")
    with pytest.raises(ValueError, match="must be a subgroup of S"):
        parse_pair_target("c2mm,p1g1")
    with pytest.raises(ValueError):
        parse_pair_target("c2mm")


def test_parse_layer_target():
    t = parse_layer_target("pbab")
    assert (t.s, t.s1) == ("p2mg", "p2gg")
    t = parse_layer_target("p21/b11")
    assert (t.s, t.s1) == ("p2gg", "p1g1")


def test_iter_blocks_ordered_by_area():
    blocks = list(iter_blocks(4, 4, 8))
    areas = [w * h for w, h in blocks]
    assert areas == sorted(areas)
    assert all(w * h <= 8 for w, h in blocks)
    assert (3, 2) in blocks and (4, 2) in blocks and (3, 3) not in blocks


def test_iter_blocks_bounded_by_max_cells():
    # the block sides beyond max_cells are never visited
    assert list(iter_blocks(10**9, 10**9, 16)) == list(iter_blocks(16, 16, 16))


def test_iter_candidates_skips_translated_copies():
    seen = {d.rows for d, _, _ in iter_candidates(2, 2)}
    # a single black cell: only the class representative appears
    assert sum(1 for rows in seen
               if sum(r.bit_count() for r in rows) == 1) == 1


def _generate_then_filter(w, h):
    """Reference enumeration: every bitmask of the block in increasing
    order, keeping designs whose first row is nonzero (unless all rows
    are), at or above every rotation of every row, and with no smaller
    period than the block."""
    mask = (1 << w) - 1

    def rot(r, s):
        return ((r << s) | (r >> (w - s))) & mask

    for bits in range(1 << (w * h)):
        rows = tuple((bits >> (w * j)) & mask for j in range(h))
        if rows[0] == 0 and bits:
            continue
        if any(rot(r, s) > rows[0] for r in rows for s in range(w)):
            continue
        if any(all(rot(r, p) == r for r in rows) for p in range(1, w) if w % p == 0):
            continue
        if any(all(rows[j] == rows[(j + q) % h] for j in range(h))
               for q in range(1, h) if h % q == 0):
            continue
        yield rows


# the point ops that map a w-by-h block onto itself, as matrices
# (a, b, c, d) taking cell (i, j) to (a*i + b*j, c*i + d*j); the last
# four exchange the axes, so they keep only a square block
_BLOCK_OPS = ((1, 0, 0, 1), (-1, 0, 0, -1), (-1, 0, 0, 1), (1, 0, 0, -1),
              (0, 1, 1, 0), (0, -1, -1, 0), (0, -1, 1, 0), (0, 1, -1, 0))


def _block_class(w, h, rows):
    """Every image of a w-by-h design under the translations and the
    point ops that map its block onto itself, moved cell by cell."""
    cells = [(i, j) for j in range(h) for i in range(w) if rows[j] >> i & 1]
    images = set()
    for a, b, c, d in _BLOCK_OPS[:8 if w == h else 4]:
        for dx in range(w):
            for dy in range(h):
                image = [0] * h
                for i, j in cells:
                    image[(c * i + d * j + dy) % h] |= 1 << ((a * i + b * j + dx) % w)
                images.add(tuple(image))
    return images


def test_iter_candidates_matches_generate_then_filter():
    """iter_candidates yields exactly the first design, in
    _generate_then_filter order, of each of its classes: on every block
    of at most 12 cells, and on the larger blocks that search() visits
    at the default bounds (4x4 is the only one of them whose classes
    use all 8 point ops)."""
    larger = [(w, h) for w, h in iter_blocks(12, 12, 16)
              if w * h > 12 and not h < w <= 12]
    assert larger == [(2, 7), (3, 5), (2, 8), (4, 4)]
    for w, h in [*iter_blocks(12, 12, 12), *larger]:
        expected, seen = [], set()
        for rows in _generate_then_filter(w, h):
            if rows not in seen:
                expected.append(rows)
                seen |= _block_class(w, h, rows)
        got = [d.rows for d, _, _ in iter_candidates(w, h)]
        assert got == expected, (w, h)


def test_canonical_key_identifies_copies():
    d = Design.from_strings(["##..", ".##.", "..##", "#..#"])
    # d with old cell (i, j) moved to (i + 2, j + 1)
    shifted = Design.from_strings([".##.", "..##", "#..#", "##.."])
    assert canonical_key(d) == canonical_key(shifted)
    assert canonical_key(d) == canonical_key(d.transformed(R90))
    assert canonical_key(d) == canonical_key(d.transformed(MIRROR_DIAG))
    other = Design.from_strings(["##..", "#.#.", "..##", ".#.#"])
    assert canonical_key(d) != canonical_key(other)


def test_search_finds_twill_family():
    results = search(parse_pair_target("p2mg,p2gg"), max_block=(8, 8), limit=1)
    assert len(results) == 1
    design, cls = results[0]
    assert cls.pair_descriptor == "(p2mg, p2gg)"
    assert cls.layer_symbol == "pbab"
    assert classify(design).layer_symbol == "pbab"


def test_search_respects_limit_and_dedups():
    results = search(parse_pair_target("c1m1,p1"), max_block=(8, 8), limit=3)
    assert len(results) == 3
    keys = {canonical_key(d) for d, _ in results}
    assert len(keys) == 3


def test_search_empty_s2_target():
    results = search(parse_pair_target("p1,-"), max_block=(4, 4), limit=2)
    assert len(results) == 2
    for _, cls in results:
        assert cls.analysis.s2_empty
        assert cls.plane_group_s == "p1"


def test_search_layer_target():
    results = search(parse_layer_target("p-1"), max_block=(8, 8), limit=1)
    _, cls = results[0]
    assert cls.layer_symbol == "p-1"
    assert cls.pair_descriptor == "(p211, p1)"


def test_search_describe():
    assert SearchTarget("p2mg", "p2gg").describe() == "(p2mg, p2gg)"


def _all_targets():
    targets = []
    for s in PLANE_GROUPS:
        for s1 in (*PLANE_GROUPS, "-"):
            try:
                validate_pair(s, s1)
            except ValueError:
                continue
            targets.append(SearchTarget(s, s1))
    return targets


def test_prefilter_never_rejects_a_match():
    targets = _all_targets()
    assert len(targets) == 70
    admits = [prefilter(t) for t in targets]
    designs = rejected = 0
    for w, h in iter_blocks(10, 10, 10):
        for rows in _generate_then_filter(w, h):
            design = Design(w, h, rows)
            lat, swap_rep = translation_lattices(design)
            designs += 1
            cls = classify_analysis(_build_group(design, lat, swap_rep))
            for target, admit in zip(targets, admits):
                if admit(design, lat, swap_rep):
                    continue
                rejected += 1
                assert not matches(cls, target), (design, target.describe())
    assert designs == 1947
    # the prefilter does prune: most (design, target) pairs are rejected
    assert rejected > designs * len(targets) // 2


def _stated_rule(target, analysis):
    """The prefilter's rule, read from the full colour group: colour-
    exchanging translations exactly when S1 is given and has the point
    order of S, S and S1 each holding exactly their point order, the
    half-turn in each exactly when its n is even, and no point-op S2
    member when S2 must be empty."""
    s2_empty = target.s1 == "-"
    n, refl = point_group(target.s)
    n1, refl1 = point_group(target.s if s2_empty else target.s1)
    order, order_s1 = n * (1 + refl), n1 * (1 + refl1)
    ops = {el.iso.op for el in analysis.elements}
    ops_s1 = {el.iso.op for el in analysis.elements if el.side == "S1"}
    return ((analysis.swap_rep is not None) == (not s2_empty and order == order_s1)
            and len(ops) == order and len(ops_s1) == order_s1
            and (R180 in ops) == (n % 2 == 0) and (R180 in ops_s1) == (n1 % 2 == 0)
            and not (s2_empty and any(el.side == "S2" and el.iso.op is not IDENTITY
                                      for el in analysis.elements)))


def test_prefilter_admits_exactly_its_stated_rule():
    targets = _all_targets()
    admits = [prefilter(t) for t in targets]
    designs = 0
    for w, h in iter_blocks(10, 10, 10):
        for rows in _generate_then_filter(w, h):
            design = Design(w, h, rows)
            lat, swap_rep = translation_lattices(design)
            designs += 1
            analysis = _build_group(design, lat, swap_rep)
            for target, admit in zip(targets, admits):
                assert admit(design, lat, swap_rep) == _stated_rule(target, analysis), (
                    design, target.describe())
    assert designs == 1947


def test_search_matches_an_unpruned_sweep():
    """search() equals every bitmask filtered as in _generate_then_filter,
    classified in full, matched, and kept on its first canonical key."""
    designs = [Design(w, h, rows) for w, h in iter_blocks(12, 12, 8)
               for rows in _generate_then_filter(w, h)]
    classified = [(d, classify(d), canonical_key(d)) for d in designs]
    # (12, 12) holds every block of at most 8 cells and (3, 10) the
    # transpose of each of its wide blocks; (9, 2) holds that of 2x1
    # but not those of 3x1 or 4x2
    for max_w, max_h in ((12, 12), (3, 10), (9, 2)):
        found = 0
        for target in _all_targets():
            expected, seen = [], set()
            for design, cls, key in classified:
                if design.width > max_w or design.height > max_h or not matches(cls, target):
                    continue
                if key not in seen:
                    seen.add(key)
                    expected.append((design.width, design.height, design.rows))
            got = [(d.width, d.height, d.rows) for d, _ in
                   search(target, max_block=(max_w, max_h), limit=None, max_cells=8)]
            assert got == expected, (max_w, max_h, target.describe())
            found += bool(got)
        # 12 of the 70 targets are realised within 8 cells on each bound
        assert found == 12


def test_first_designs_match_the_fixture():
    """search(t, limit=1, max_cells=12) for each of the 70 targets that
    validate_pair accepts: the first design's rows and layer symbol,
    or null when no design of at most 12 cells realises the target, as
    pinned in first_designs.json (keyed "S,S1")."""
    expected = json.loads(Path(__file__).with_name("first_designs.json").read_text())
    got = {}
    for target in _all_targets():
        found = search(target, limit=1, max_cells=12)
        got[f"{target.s},{target.s1}"] = (
            [found[0][0].to_strings(), found[0][1].layer_symbol] if found else None)
    assert got == expected
    assert sum(v is not None for v in got.values()) == 25


def test_search_tests_one_candidate_per_class(monkeypatch):
    """Within the default bounds, search() hands the prefilter one
    design per class under translations and all 8 point ops: 5,364,
    where every translation class of every block gives 57,037; the
    same from an empty block cache and from a full one."""
    monkeypatch.setattr(search_mod, "_BLOCKS", {})
    real = search_mod.iter_candidates
    count = 0

    def counted(w, h):
        nonlocal count
        for item in real(w, h):
            count += 1
            yield item

    monkeypatch.setattr(search_mod, "iter_candidates", counted)
    for _ in range(2):
        count = 0
        search(parse_pair_target("p4mm,p4mm"), max_block=(12, 12), limit=None, max_cells=16)
        assert count == 5364


def _triples(items):
    return [(d.width, d.height, d.rows, lat, swap_rep) for d, lat, swap_rep in items]


def test_block_cache_yields_the_enumeration(monkeypatch):
    """For every block search() visits at the default bounds, the
    candidates read while the cache fills and once it is full are
    those of the uncached enumeration."""
    monkeypatch.setattr(search_mod, "_BLOCKS", {})
    blocks = [(w, h) for w, h in iter_blocks(12, 12, 16) if not h < w <= 12]
    for w, h in blocks:
        cold = _triples(iter_candidates(w, h))
        warm = _triples(iter_candidates(w, h))
        assert cold == warm == _triples(search_mod._enumerate(w, h)), (w, h)
    assert sorted(search_mod._BLOCKS) == sorted(blocks)


def test_block_cache_serves_interleaved_iterators(monkeypatch):
    """An iterator left inside the stored prefix carries on correctly
    after another one has extended the block to its end."""
    monkeypatch.setattr(search_mod, "_BLOCKS", {})
    expected = _triples(search_mod._enumerate(2, 6))
    first = iter_candidates(2, 6)
    head = [next(first) for _ in range(3)]
    second = _triples(iter_candidates(2, 6))
    assert _triples(head) + _triples(first) == second == expected


def test_block_cache_recovers_from_an_interrupted_enumeration(monkeypatch):
    """An exception raised inside the enumeration stores nothing and
    yields nothing, so the next read enumerates the whole block."""
    monkeypatch.setattr(search_mod, "_BLOCKS", {})
    expected = _triples(search_mod._enumerate(3, 3))
    calls = 0

    def interrupted(design):
        nonlocal calls
        calls += 1
        if calls == 5:
            raise KeyboardInterrupt
        return translation_lattices(design)

    monkeypatch.setattr(search_mod, "translation_lattices", interrupted)
    it = iter_candidates(3, 3)
    head = []
    with pytest.raises(KeyboardInterrupt):
        for item in it:
            head.append(item)
    assert head == []
    assert calls == 5
    assert (3, 3) not in search_mod._BLOCKS
    assert _triples(iter_candidates(3, 3)) == expected


def test_search_that_stops_early_stores_its_blocks_whole(monkeypatch):
    """A limit=1 search that stops inside the 3x3 block leaves every
    block it reached stored whole, so reading any of them back needs no
    further lattice."""
    monkeypatch.setattr(search_mod, "_BLOCKS", {})
    search(parse_pair_target("c1m1,p1"), limit=1)
    assert (3, 3) in search_mod._BLOCKS
    expected = {block: _triples(search_mod._enumerate(*block))
                for block in search_mod._BLOCKS}

    def no_lattices(design):
        raise AssertionError("the block was not stored whole")

    monkeypatch.setattr(search_mod, "translation_lattices", no_lattices)
    for (w, h), triples in expected.items():
        assert _triples(iter_candidates(w, h)) == triples, (w, h)


def test_search_is_safe_from_several_threads(monkeypatch):
    """Threads sweeping the 15 tabulated targets in their own orders
    over an empty block cache each get the serial results."""
    targets = [parse_pair_target(f"{s},{s1}") for s, s1 in sorted(pair_table())]

    def found(target):
        return [(d.width, d.height, d.rows, cls.pair_descriptor)
                for d, cls in search(target, limit=1)]

    serial = {t: found(t) for t in targets}
    monkeypatch.setattr(search_mod, "_BLOCKS", {})
    results, errors = [], []

    def sweep(seed):
        order = targets[:]
        random.Random(seed).shuffle(order)
        try:
            results.append({t: found(t) for t in order})
        except Exception as exc:   # reported below, by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=sweep, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [serial] * 4


def test_search_submodule_is_not_shadowed():
    # the package does not re-export the function under the module's name
    import weavesym.search as m

    assert isinstance(m, ModuleType)
    assert callable(m.search) and callable(m.iter_candidates)


@pytest.mark.parametrize("kwargs", [
    {"limit": 0}, {"limit": -1}, {"max_cells": 0}, {"max_cells": MAX_CELLS + 1},
    {"max_block": (0, 12)}, {"max_block": (12, -1)},
])
def test_search_rejects_out_of_range_bounds(kwargs):
    with pytest.raises(ValueError):
        search(parse_pair_target("p1,-"), **kwargs)
