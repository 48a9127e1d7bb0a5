"""Property tests of the design and structure file formats: round trips,
and malformed files rejected with the number of the offending line."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weavesym.design import Design, DesignFormatError, format_design, parse_design
from weavesym.weave import WeaveStructure, format_structure, parse_structure

FACES = st.sampled_from(["BW", "WB", "BB", "WW"])
BAD_CELLS = st.sampled_from("xo01*+-_")
NOISE = st.sampled_from(["", "   ", "// note", "  // # . block 2 2", "//"])


@st.composite
def designs(draw, max_side=8):
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    rows = draw(st.lists(st.integers(0, (1 << w) - 1), min_size=h, max_size=h))
    return Design(w, h, tuple(rows))


@st.composite
def structures(draw):
    pattern = draw(designs())
    warp = draw(st.lists(FACES, min_size=pattern.width, max_size=pattern.width))
    weft = draw(st.lists(FACES, min_size=pattern.height, max_size=pattern.height))
    return WeaveStructure(pattern, tuple(warp), tuple(weft))


@st.composite
def noisy(draw, lines):
    """The lines with blank and comment-only lines slipped in and
    trailing comments added, as file text, plus the file line number of
    each original line."""
    out, numbers = [], []
    for line in lines:
        out += draw(st.lists(NOISE, max_size=2))
        if draw(st.booleans()):
            line += "  // trailing"
        out.append(line)
        numbers.append(len(out))
    return "\n".join(out) + "\n", numbers


def mutate_cell(draw, lines, first_row, design):
    """Replace one cell of the pattern rows with an invalid character;
    returns the index of the changed line."""
    j = draw(st.integers(0, design.height - 1))
    i = draw(st.integers(0, design.width - 1))
    k = first_row + j
    lines[k] = lines[k][:i] + draw(BAD_CELLS) + lines[k][i + 1:]
    return k


@given(designs(), st.text(max_size=40))
def test_design_roundtrip(design, comment):
    text = format_design(design, comment)
    assert parse_design(text) == design


@given(designs(), st.data())
def test_design_roundtrip_through_comments(design, data):
    text, _ = data.draw(noisy(format_design(design).splitlines()))
    assert parse_design(text) == design


@given(structures(), st.data())
def test_structure_roundtrip(struct, data):
    text = format_structure(struct)
    assert parse_structure(text) == struct
    text, _ = data.draw(noisy(text.splitlines()))
    assert parse_structure(text) == struct


@given(designs(), st.data())
def test_mutated_design_cell_names_its_line(design, data):
    lines = format_design(design).splitlines()
    k = mutate_cell(data.draw, lines, 2, design)
    text, numbers = data.draw(noisy(lines))
    with pytest.raises(DesignFormatError, match=rf"^line {numbers[k]}: invalid cell"):
        parse_design(text)


@given(structures(), st.data())
def test_mutated_structure_cell_names_its_line(struct, data):
    lines = format_structure(struct).splitlines()
    k = mutate_cell(data.draw, lines, 2, struct.pattern)
    text, numbers = data.draw(noisy(lines))
    with pytest.raises(DesignFormatError,
                       match=rf"^in structure pattern: line {numbers[k]}: invalid cell"):
        parse_structure(text)


@given(structures(), st.sampled_from(["warp", "weft"]), st.booleans(), st.data())
def test_face_count_error_names_its_line(struct, label, extra, data):
    lines = format_structure(struct).splitlines()
    k = len(lines) - (2 if label == "warp" else 1)
    entries = lines[k].split()[1:]
    entries = entries + ["BW"] if extra or len(entries) == 1 else entries[:-1]
    lines[k] = " ".join([label, *entries])
    text, numbers = data.draw(noisy(lines))
    count = struct.pattern.width if label == "warp" else struct.pattern.height
    message = (f"line {numbers[k]}: expected {count} {label} face entries, "
               f"got {len(entries)}")
    with pytest.raises(DesignFormatError, match=f"^{re.escape(message)}$"):
        parse_structure(text)
