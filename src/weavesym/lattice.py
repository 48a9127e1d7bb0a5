"""Full-rank integer translation lattices in Hermite normal form."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

Vec = tuple[int, int]


@dataclass(frozen=True)
class Lattice:
    """Sublattice of Z^2 with basis (a, 0), (b, c); a, c >= 1, 0 <= b < a."""

    a: int
    b: int
    c: int

    @classmethod
    def from_vectors(cls, vectors) -> "Lattice":
        """Hermite form of the lattice generated by `vectors`.

        Callers pass a set of generators that spans a full-rank
        lattice; a set that does not raises ValueError.
        """
        a = 0
        b = c = 0
        for x, y in vectors:
            # fold (x, y) into the pair (b, c) by a Euclid run on the
            # y-components, pushing y=0 leftovers into a
            while y != 0:
                q = c // y
                b, c, x, y = x, y, b - q * x, c - q * y
            a = gcd(a, x)
        if c < 0:
            b, c = -b, -c
        if a == 0 or c == 0:
            raise ValueError("generators do not span a full-rank lattice")
        return cls(a, b % a, c)

    @property
    def basis(self) -> tuple[Vec, Vec]:
        return ((self.a, 0), (self.b, self.c))

    @property
    def index(self) -> int:
        """Index in Z^2; the area of a fundamental domain."""
        return self.a * self.c

    def contains(self, v: Vec) -> bool:
        if v[1] % self.c:
            return False
        return (v[0] - (v[1] // self.c) * self.b) % self.a == 0

    def reduce(self, v: Vec) -> Vec:
        """Canonical coset representative in [0, a) x [0, c)."""
        k, ry = divmod(v[1], self.c)
        return ((v[0] - k * self.b) % self.a, ry)

    def min_along(self, direction: Vec) -> int:
        """Smallest m > 0 with m*direction in the lattice.

        `direction` must be primitive; only (1,0), (0,1), (1,1) and
        (1,-1) are ever needed.
        """
        ux, uy = direction
        m1 = self.c // gcd(self.c, uy)
        g = m1 * ux - ((m1 * uy) // self.c) * self.b
        return m1 * (self.a // gcd(self.a, g))

    def extended(self, v: Vec) -> "Lattice":
        return Lattice.from_vectors([*self.basis, v])

    def points_in_box(self, x_range: tuple[int, int], y_range: tuple[int, int]):
        """All lattice vectors (x, y) with x, y inside the half-open ranges."""
        x0, x1 = x_range
        y0, y1 = y_range
        out = []
        for m in range((y0 + self.c - 1) // self.c, (y1 - 1) // self.c + 1):
            y = m * self.c
            base = m * self.b
            n0 = (x0 - base + self.a - 1) // self.a
            for n in range(n0, (x1 - 1 - base) // self.a + 1):
                out.append((base + n * self.a, y))
        return out
