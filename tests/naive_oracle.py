"""Slow reference checker for colour actions, kept independent of the
package internals: plain lists, corner arithmetic instead of bitboards,
and no lattice reduction."""

from math import lcm

NAIVE_OPS = {
    "identity": ((1, 0), (0, 1)),
    "rot90": ((0, -1), (1, 0)),
    "rot180": ((-1, 0), (0, -1)),
    "rot270": ((0, 1), (-1, 0)),
    "mirror_x": ((1, 0), (0, -1)),
    "mirror_y": ((-1, 0), (0, 1)),
    "mirror_diag": ((0, 1), (1, 0)),
    "mirror_anti": ((0, -1), (-1, 0)),
}


def cell_image(mat, t, i, j):
    """Image of the unit cell [i,i+1]x[j,j+1]: map the four corners and
    take the smallest, which is the new cell index."""
    xs, ys = [], []
    for dx in (0, 1):
        for dy in (0, 1):
            xs.append(mat[0][0] * (i + dx) + mat[0][1] * (j + dy) + t[0])
            ys.append(mat[1][0] * (i + dx) + mat[1][1] * (j + dy) + t[1])
    return min(xs), min(ys)


def naive_pullback(grid, w, h, mat, width, height):
    """Grid e with e(c) = design(mat * c) on a width-by-height block,
    reading the w-by-h design grid periodically."""
    out = []
    for j in range(height):
        row = []
        for i in range(width):
            ii, jj = cell_image(mat, (0, 0), i, j)
            row.append(grid[jj % h][ii % w])
        out.append(row)
    return out


def grid_of(design):
    return [[design.cell(i, j) for i in range(design.width)]
            for j in range(design.height)]


def naive_color_action(grid, w, h, mat, t):
    """'preserve', 'swap' or None for the isometry x -> mat*x + t.

    Axis-swapping operations are compared over an lcm(w, h) square so
    that both colourings run through full periods.
    """
    if mat[0][1] == 0:
        rw, rh = w, h
    else:
        rw = rh = lcm(w, h)
    same = swapped = True
    for j in range(rh):
        for i in range(rw):
            ii, jj = cell_image(mat, t, i, j)
            a = grid[jj % h][ii % w]
            b = grid[j][i] if j < h and i < w else grid[j % h][i % w]
            if a == b:
                swapped = False
            else:
                same = False
            if not (same or swapped):
                return None
    return "preserve" if same else "swap"


def naive_chi_table(design):
    """chi for all 8 * w * h isometries with translations inside the
    block; translations repeat with the block, so this is the whole
    group up to the design's own periodicity."""
    grid = grid_of(design)
    w, h = design.width, design.height
    table = {}
    for name, mat in NAIVE_OPS.items():
        for ty in range(h):
            for tx in range(w):
                table[(name, tx, ty)] = naive_color_action(grid, w, h, mat, (tx, ty))
    return table


def naive_render_front(struct):
    """Rows of the front view, cell by cell: the front face of whichever
    strand is on top."""
    p = struct.pattern
    rows = []
    for j in range(p.height):
        bits = 0
        for i in range(p.width):
            face = struct.weft_faces[j] if p.cell(i, j) else struct.warp_faces[i]
            if face[0] == "B":
                bits |= 1 << i
        rows.append(bits)
    return tuple(rows)


def naive_render_back(struct):
    """Rows of the back view, cell by cell: the back face of the strand
    underneath, with the x axis reversed."""
    p = struct.pattern
    w = p.width
    rows = []
    for j in range(p.height):
        bits = 0
        for i in range(w):
            ii = w - 1 - i
            face = struct.warp_faces[ii] if p.cell(ii, j) else struct.weft_faces[j]
            if face[1] == "B":
                bits |= 1 << i
        rows.append(bits)
    return tuple(rows)


def naive_twill_rows(over, under, shift, rows):
    """Twill rows, cell by cell: weft j covers warp i when
    (i - shift*j) mod (over+under) < over."""
    p = over + under
    out = []
    for j in range(rows):
        bits = 0
        for i in range(p):
            if (i - shift * j) % p < over:
                bits |= 1 << i
        out.append(bits)
    return tuple(out)
