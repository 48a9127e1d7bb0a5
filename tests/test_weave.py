import random
from itertools import product

import pytest
from helpers import uniform
from naive_oracle import naive_render_back, naive_render_front, naive_twill_rows

from weavesym.design import Design, DesignFormatError
from weavesym.weave import (
    BASKET_WARP,
    BASKET_WEFT,
    ONESIDED_WARP,
    ONESIDED_WEFT,
    WeaveStructure,
    format_structure,
    gen_twill,
    load_structure,
    parse_structure,
    save_structure,
    striped_faces,
)


def random_structure(rng, max_side=6):
    w, h = rng.randint(1, max_side), rng.randint(1, max_side)
    pattern = Design(w, h, tuple(rng.randrange(1 << w) for _ in range(h)))
    faces = ["BW", "WB", "BB", "WW"]
    return WeaveStructure(pattern,
                          tuple(rng.choice(faces) for _ in range(w)),
                          tuple(rng.choice(faces) for _ in range(h)))


def test_gen_twill_period_and_rows():
    t = gen_twill(2, 2, 1)
    assert (t.width, t.height) == (4, 4)
    assert t.rows == (3, 6, 12, 9)
    t = gen_twill(2, 2, 2)
    assert t.height == 2
    t = gen_twill(1, 3, 1, rows=8)
    assert (t.width, t.height) == (4, 8)


def test_gen_twill_rejects_bad_counts():
    with pytest.raises(ValueError):
        gen_twill(0, 2)
    with pytest.raises(ValueError):
        gen_twill(2, 0)


def test_gen_twill_matches_cell_reference():
    for over in range(1, 7):
        for under in range(1, 7):
            for shift in range(-7, 8):
                t = gen_twill(over, under, shift)
                assert t.rows == naive_twill_rows(over, under, shift, t.height), (
                    over, under, shift)


def test_gen_twill_default_rows_close_one_period():
    # reference: the least row count whose total shift is a multiple of
    # over + under, found by counting up
    for over in range(1, 7):
        for under in range(1, 7):
            p = over + under
            for shift in range(-7, 8):
                rows = 1
                while (shift * rows) % p:
                    rows += 1
                assert gen_twill(over, under, shift).height == rows, (over, under, shift)


def test_gen_twill_bounds_its_size():
    t = gen_twill(1000, 1000)
    assert (t.width, t.height) == (2000, 2000)
    with pytest.raises(ValueError, match="exceeds"):
        gen_twill(100_000, 1)


def test_gen_twill_row_structure():
    t = gen_twill(3, 1, 1)
    for j in range(t.height):
        for i in range(t.width):
            assert t.cell(i, j) == (1 if (i - j) % 4 < 3 else 0)


def test_striped_faces():
    assert striped_faces(6, 2) == ("BW", "BW", "WB", "WB", "BW", "BW")
    assert striped_faces(4, 1, phase=1, first="WB") == ("BW", "WB", "BW", "WB")
    with pytest.raises(ValueError):
        striped_faces(4, 0)


def test_uniform_builder():
    pattern = gen_twill(2, 1)
    s = uniform(pattern)
    assert s.warp_faces == (ONESIDED_WARP,) * 3
    assert s.weft_faces == (ONESIDED_WEFT,) * 3


def test_face_validation():
    pattern = gen_twill(1, 1)
    with pytest.raises(ValueError):
        WeaveStructure(pattern, ("BW",), ("WB", "WB"))
    with pytest.raises(ValueError):
        WeaveStructure(pattern, ("BW", "XX"), ("WB", "WB"))


def test_render_front_picks_top_strand():
    pattern = Design.from_strings(["#."])
    s = WeaveStructure(pattern, ("BW", "WB"), ("BB",))
    front = s.render_front()
    # cell 0: weft over, weft front face B; cell 1: warp over, front W
    assert front.rows == (1,)


def test_onesided_back_is_horizontal_mirror_of_front():
    rng = random.Random(3)
    for _ in range(50):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        pattern = Design(w, h, tuple(rng.randrange(1 << w) for _ in range(h)))
        s = uniform(pattern)
        front, back = s.render_front(), s.render_back()
        for j in range(h):
            for i in range(w):
                assert back.cell(i, j) == front.cell(w - 1 - i, j)


def assert_renders_match_reference(s):
    assert s.render_front().rows == naive_render_front(s), s
    assert s.render_back().rows == naive_render_back(s), s


def test_renders_match_cell_reference_on_small_patterns():
    faces = ("BB", "BW", "WB", "WW")
    count = 0
    for w in range(1, 5):
        for h in range(1, 4 // w + 1):
            mask = (1 << w) - 1
            for bits in range(1 << (w * h)):
                pattern = Design(w, h, tuple((bits >> (j * w)) & mask for j in range(h)))
                for warp in product(faces, repeat=w):
                    for weft in product(faces, repeat=h):
                        assert_renders_match_reference(WeaveStructure(pattern, warp, weft))
                        count += 1
    assert count == 41504


def test_renders_match_cell_reference_on_random_structures():
    rng = random.Random(6)
    for _ in range(300):
        assert_renders_match_reference(random_structure(rng, max_side=12))


def test_basket_front_is_the_pattern():
    rng = random.Random(4)
    for _ in range(20):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        pattern = Design(w, h, tuple(rng.randrange(1 << w) for _ in range(h)))
        s = uniform(pattern, BASKET_WARP, BASKET_WEFT)
        assert s.render_front() == pattern


def test_structure_roundtrip(tmp_path):
    rng = random.Random(5)
    for k in range(10):
        s = random_structure(rng)
        text = format_structure(s)
        assert parse_structure(text) == s
        path = tmp_path / f"s{k}.weave"
        save_structure(s, path)
        assert load_structure(path) == s


def test_parse_structure_errors():
    with pytest.raises(DesignFormatError, match="header"):
        parse_structure("weave-design v1\nblock 1 1\n#\n")
    with pytest.raises(DesignFormatError, match="warp"):
        parse_structure("weave-structure v1\nblock 1 1\n#\n")
    with pytest.raises(DesignFormatError, match="face"):
        parse_structure(
            "weave-structure v1\nblock 2 1\n#.\nwarp BW\nweft WB\n")
    with pytest.raises(DesignFormatError, match="^empty structure file$"):
        parse_structure("  // blank\n")


def test_parse_structure_errors_name_the_file_line():
    head = "weave-structure v1\n// a comment\n\nblock 2 2\n#.\n"
    with pytest.raises(DesignFormatError,
                       match="^in structure pattern: line 6: invalid cell 'x'"):
        parse_structure(head + "#x\nwarp BW BW\nweft WB WB\n")
    with pytest.raises(DesignFormatError,
                       match="^line 7: expected 2 warp face entries, got 1$"):
        parse_structure(head + "##\nwarp BW\nweft WB WB\n")
    with pytest.raises(DesignFormatError, match="^line 8: bad weft faces 'WX'"):
        parse_structure(head + "##\nwarp BW BW\nweft WB WX\n")
    with pytest.raises(DesignFormatError, match="^line 9: repeated 'warp' line$"):
        parse_structure(head + "##\nwarp BW BW\nweft WB WB\nwarp WB WB\n")
    # a face line is known by its first word, whatever space follows it
    assert (parse_structure(head + "##\nwarp\tBW BW\nweft WB WB\n")
            == parse_structure(head + "##\nwarp BW BW\nweft WB WB\n"))
    with pytest.raises(DesignFormatError,
                       match="^line 7: expected 2 warp face entries, got 0$"):
        parse_structure(head + "##\nwarp\nweft WB WB\n")
