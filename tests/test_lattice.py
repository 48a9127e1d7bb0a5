import random

import pytest

from helpers import coset_reps
from weavesym.lattice import Lattice


def brute_members(lat, bound):
    """Lattice points in [-bound, bound)^2 by direct span."""
    out = set()
    span = 3 * bound
    for m in range(-span, span + 1):
        for n in range(-span, span + 1):
            x = n * lat.a + m * lat.b
            y = m * lat.c
            if -bound <= x < bound and -bound <= y < bound:
                out.add((x, y))
    return out


def test_from_vectors_hermite_form():
    lat = Lattice.from_vectors([(4, 0), (1, 1)])
    assert (lat.a, lat.b, lat.c) == (4, 1, 1)
    lat = Lattice.from_vectors([(2, 2), (4, 0)])
    assert (lat.a, lat.b, lat.c) == (4, 2, 2)


def test_from_vectors_order_independent():
    rng = random.Random(11)
    for _ in range(100):
        vecs = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(3)]
        vecs.append((rng.randint(1, 5), 0))
        vecs.append((0, rng.randint(1, 5)))
        lat = Lattice.from_vectors(vecs)
        rng.shuffle(vecs)
        assert Lattice.from_vectors(vecs) == lat


def test_from_vectors_rejects_rank_deficient():
    with pytest.raises(ValueError):
        Lattice.from_vectors([(2, 0), (4, 0)])
    with pytest.raises(ValueError):
        Lattice.from_vectors([(0, 0)])


def test_contains_matches_span():
    rng = random.Random(12)
    for _ in range(50):
        a, c = rng.randint(1, 5), rng.randint(1, 5)
        b = rng.randrange(a)
        lat = Lattice(a, b, c)
        members = brute_members(lat, 8)
        for x in range(-8, 8):
            for y in range(-8, 8):
                assert lat.contains((x, y)) == ((x, y) in members)


def test_reduce_and_cosets():
    lat = Lattice(3, 1, 2)
    for x in range(-7, 8):
        for y in range(-7, 8):
            r = lat.reduce((x, y))
            assert r in coset_reps(lat)
            assert lat.contains((x - r[0], y - r[1]))
    assert len(list(coset_reps(lat))) == lat.index == 6


def test_min_along():
    lat = Lattice(4, 2, 2)
    assert lat.min_along((1, 0)) == 4
    assert lat.min_along((0, 1)) == 4
    assert lat.min_along((1, 1)) == 2
    assert lat.min_along((1, -1)) == 2


def test_min_along_brute():
    rng = random.Random(13)
    for _ in range(80):
        a, c = rng.randint(1, 6), rng.randint(1, 6)
        lat = Lattice(a, rng.randrange(a), c)
        for u in ((1, 0), (0, 1), (1, 1), (1, -1)):
            m = lat.min_along(u)
            assert m > 0 and lat.contains((m * u[0], m * u[1]))
            for k in range(1, m):
                assert not lat.contains((k * u[0], k * u[1]))


def test_extended():
    lat = Lattice(4, 1, 1)
    assert lat.extended((2, 0)) == Lattice(2, 1, 1)
    assert lat.extended((0, 2)) == lat.extended((4, 2))


def test_points_in_box():
    rng = random.Random(14)
    for _ in range(60):
        a, c = rng.randint(1, 5), rng.randint(1, 5)
        lat = Lattice(a, rng.randrange(a), c)
        x0, y0 = rng.randint(-9, 3), rng.randint(-9, 3)
        x1, y1 = x0 + rng.randint(0, 12), y0 + rng.randint(0, 12)
        got = set(lat.points_in_box((x0, x1), (y0, y1)))
        want = {(x, y) for (x, y) in brute_members(lat, 32)
                if x0 <= x < x1 and y0 <= y < y1}
        assert got == want


def test_index_counts_cells():
    lat = Lattice(3, 2, 4)
    pts = lat.points_in_box((0, 12), (0, 12))
    assert len(pts) == 144 // lat.index
