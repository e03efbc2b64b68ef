"""Exact root systems and Weyl-group machinery for the simple Lie types.

Weights are stored as tuples of integers in Dynkin-label coordinates
(pairings with the simple coroots).  Product systems concatenate the
labels of their factors; every structural object (Cartan matrix, positive
roots, invariant pairing) is the block direct sum of the factor data.

All arithmetic is exact: the invariant pairing is kept as a matrix of
`fractions.Fraction`, with a pre-scaled integer copy used in hot loops.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

Weight = tuple[int, ...]


class ConfigurationError(ValueError):
    """Invalid series/rank combination or malformed constructor input."""


class PreconditionError(ValueError):
    """An operation was called outside its contract (e.g. non-dominant weight)."""


_EXCEPTIONAL_POSROOTS = {"G": 6, "F": 24, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120}


@dataclass(frozen=True)
class SimpleType:
    """One simple factor, e.g. SimpleType('A', 2) for su(3)."""

    series: str
    rank: int

    def __post_init__(self) -> None:
        ok = {
            "A": self.rank >= 1,
            "B": self.rank >= 2,
            "C": self.rank >= 2,
            "D": self.rank >= 2,
            "E": self.rank in (6, 7, 8),
            "F": self.rank == 4,
            "G": self.rank == 2,
        }.get(self.series, False)
        if not ok:
            raise ConfigurationError(f"invalid simple type {self.series}{self.rank}")

    @property
    def num_positive_roots(self) -> int:
        n = self.rank
        if self.series == "A":
            return n * (n + 1) // 2
        if self.series in ("B", "C"):
            return n * n
        if self.series == "D":
            return n * (n - 1)
        if self.series == "G":
            return 6
        if self.series == "F":
            return 24
        return _EXCEPTIONAL_POSROOTS[("E", n)]

    @property
    def dim(self) -> int:
        """Dimension of the compact Lie algebra of this type."""
        return self.rank + 2 * self.num_positive_roots

    def cartan_matrix(self) -> list[list[int]]:
        return _cartan_matrix(self.series, self.rank)

    def root_lengths(self) -> list[Fraction]:
        """Half squared lengths (alpha, alpha)/2 of the simple roots, long = 1."""
        n = self.rank
        if self.series in ("A", "D", "E"):
            return [Fraction(1)] * n
        if self.series == "B":
            return [Fraction(1)] * (n - 1) + [Fraction(1, 2)]
        if self.series == "C":
            return [Fraction(1, 2)] * (n - 1) + [Fraction(1)]
        if self.series == "F":
            return [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)]
        return [Fraction(1, 3), Fraction(1)]  # G2, first node short

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def _cartan_matrix(series: str, n: int) -> list[list[int]]:
    # Convention: A[i][j] = 2*(alpha_i, alpha_j)/(alpha_j, alpha_j), so row i
    # holds the Dynkin labels of the simple root alpha_i.
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if series in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if series == "B" and n >= 2:
            link(n - 2, n - 1, -2, -1)  # last root short
        if series == "C" and n >= 2:
            link(n - 2, n - 1, -1, -2)  # last root long
    elif series == "D":
        for i in range(n - 2):
            link(i, i + 1)
        if n >= 3:
            link(n - 3, n - 1)
        # n == 2 stays disconnected: so(4) = A1 x A1
    elif series == "E":
        for i, j in [(0, 2), (2, 3), (3, 4), (4, 5)] + [(4 + k, 5 + k) for k in range(1, n - 5)]:
            link(i, j)
        link(1, 3)
    elif series == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif series == "G":
        link(0, 1, -1, -3)  # first root short
    return a


def _invert_fraction_matrix(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class RootSystem:
    """Root data for a finite product of simple types.

    The instance is immutable after construction and safe to share; all
    operations are pure functions of their arguments.
    """

    def __init__(self, factors):
        if isinstance(factors, SimpleType):
            factors = [factors]
        factors = tuple(factors)
        if not factors:
            raise ConfigurationError("at least one simple factor required")
        self.factors = factors
        self.rank = sum(f.rank for f in factors)
        self.rho: Weight = (1,) * self.rank

        # Block-diagonal Cartan matrix and per-root lengths.
        n = self.rank
        self.cartan = [[0] * n for _ in range(n)]
        lengths: list[Fraction] = []
        off = 0
        self._slices = []
        for f in factors:
            block = f.cartan_matrix()
            r = f.rank
            for i in range(r):
                for j in range(r):
                    self.cartan[off + i][off + j] = block[i][j]
            lengths.extend(f.root_lengths())
            self._slices.append((off, off + r))
            off += r
        self._lengths = lengths

        # Sparse reflection rows: row i lists (j, a_ij) with a_ij != 0.
        self._rows = [tuple((j, self.cartan[i][j]) for j in range(n) if self.cartan[i][j])
                      for i in range(n)]

        # Pairing of fundamental weights: F[i][j] = d_i * (A^-1)[j][i].
        a_frac = [[Fraction(x) for x in row] for row in self.cartan]
        ainv = _invert_fraction_matrix(a_frac)
        self._ainv = ainv
        gram = [[lengths[i] * ainv[j][i] for j in range(n)] for i in range(n)]
        self._gram = gram
        scale = math.lcm(*(x.denominator for row in gram for x in row))
        self._gram_int = [[int(x * scale) for x in row] for row in gram]

        self._positive_roots()
        self.weyl_order = self._parabolic_order(range(n))
        self._irrep_cache: dict[Weight, dict] = {}
        self._factor_systems: list[RootSystem] | None = None

    # -- construction helpers ------------------------------------------------

    def _positive_roots(self) -> None:
        n = self.rank
        simple = [tuple(self.cartan[i][j] for j in range(n)) for i in range(n)]
        # Orbit closure of the simple roots under simple reflections; a root is
        # positive when its root-basis coordinates are all >= 0.
        coords = {simple[i]: tuple(int(i == j) for j in range(n)) for i in range(n)}
        frontier = list(simple)
        while frontier:
            nxt = []
            for w in frontier:
                cw = coords[w]
                for i in range(n):
                    c = w[i]
                    if c == 0:
                        continue
                    w2 = self._reflect(w, i)
                    if w2 not in coords:
                        c2 = list(cw)
                        c2[i] -= c
                        coords[w2] = tuple(c2)
                        nxt.append(w2)
            frontier = nxt
        pos = [(w, c) for w, c in coords.items() if all(x >= 0 for x in c)]
        pos.sort(key=lambda wc: (sum(wc[1]), wc[1]))
        self.pos_roots: tuple[Weight, ...] = tuple(w for w, _ in pos)
        self.pos_root_coords: tuple[tuple[int, ...], ...] = tuple(c for _, c in pos)
        expected = sum(f.num_positive_roots for f in self.factors)
        if len(self.pos_roots) != expected:
            raise ConfigurationError(
                f"positive-root generation produced {len(self.pos_roots)}, expected {expected}")

    # -- elementary operations -------------------------------------------------

    def _reflect(self, w: Weight, i: int) -> Weight:
        c = w[i]
        if c == 0:
            return w
        v = list(w)
        for j, a in self._rows[i]:
            v[j] -= c * a
        return tuple(v)

    def reflect(self, i: int, w: Weight) -> Weight:
        """Simple reflection s_i applied to a weight."""
        return self._reflect(w, i)

    def to_dominant(self, w: Weight) -> tuple[Weight, int]:
        """Dominant representative and the determinant of the Weyl element used.

        The sign is 0 when the weight lies on a chamber wall (some label of the
        dominant representative vanishes), where the determinant is not
        well-defined.
        """
        v = list(w)
        sign = 1
        n = self.rank
        rows = self._rows
        while True:
            for i in range(n):
                c = v[i]
                if c < 0:
                    for j, a in rows[i]:
                        v[j] -= c * a
                    sign = -sign
                    break
            else:
                break
        if 0 in v:
            sign = 0
        return tuple(v), sign

    def is_dominant(self, w: Weight) -> bool:
        return all(x >= 0 for x in w)

    def pairing(self, v: Weight, w: Weight) -> Fraction:
        """Invariant symmetric form, normalized so long roots have norm 2."""
        g = self._gram
        n = self.rank
        total = Fraction(0)
        for i in range(n):
            vi = v[i]
            if vi:
                row = g[i]
                total += vi * sum(row[j] * w[j] for j in range(n) if w[j])
        return total

    def _ip_int(self, v, w) -> int:
        g = self._gram_int
        n = self.rank
        total = 0
        for i in range(n):
            vi = v[i]
            if vi:
                row = g[i]
                s = 0
                for j in range(n):
                    wj = w[j]
                    if wj:
                        s += row[j] * wj
                total += vi * s
        return total

    def root_coords(self, w: Weight) -> tuple[Fraction, ...]:
        """Coordinates of a weight in the simple-root basis (exact rationals).

        Dynkin labels are related to root coordinates c by labels = c A, so
        c = A^-T labels.
        """
        ainv = self._ainv
        n = self.rank
        return tuple(sum(ainv[j][i] * w[j] for j in range(n)) for i in range(n))

    def dominates(self, lam: Weight, mu: Weight) -> bool:
        """True when lam - mu is a non-negative integer combination of simple roots."""
        diff = tuple(a - b for a, b in zip(lam, mu))
        for c in self.root_coords(diff):
            if c.denominator != 1 or c < 0:
                return False
        return True

    def height(self, w: Weight) -> Fraction:
        return sum(self.root_coords(w))

    # -- Weyl group ------------------------------------------------------------

    def _parabolic_order(self, nodes) -> int:
        """Order of the Weyl group generated by the simple reflections of the
        given nodes, by Macdonald's product prod (ht a + 1) // prod ht a over
        the positive roots a supported on them."""
        outside = [i for i in range(self.rank) if i not in nodes]
        num = den = 1
        for c in self.pos_root_coords:
            if not any(c[i] for i in outside):
                num *= sum(c) + 1
                den *= sum(c)
        return num // den

    def _orbit(self, w: Weight) -> dict[Weight, int]:
        """Breadth-first Weyl orbit; each point carries (-1)^(its BFS depth).

        The parity is det of the Weyl element reaching the point only when w
        is regular; otherwise just the keys are meaningful.
        """
        out = {w: 1}
        frontier = [w]
        reflect = self._reflect
        while frontier:
            nxt = []
            for v in frontier:
                s = -out[v]
                for i in range(self.rank):
                    if v[i] == 0:
                        continue
                    u = reflect(v, i)
                    if u not in out:
                        out[u] = s
                        nxt.append(u)
            frontier = nxt
        return out

    def weyl_orbit(self, w: Weight) -> list[Weight]:
        return list(self._orbit(w))

    def signed_orbit(self, w: Weight) -> dict[Weight, int]:
        """Orbit of a strictly dominant weight, with det(w) per point."""
        if any(x <= 0 for x in w):
            raise PreconditionError("signed_orbit requires a strictly dominant weight")
        return self._orbit(w)

    def stabilizer_order(self, w: Weight) -> int:
        """Order of the stabilizer of a dominant weight (a parabolic Weyl group)."""
        if not self.is_dominant(w):
            raise PreconditionError("stabilizer_order requires a dominant weight")
        return self._parabolic_order([i for i in range(self.rank) if w[i] == 0])

    def orbit_size(self, w: Weight) -> int:
        return self.weyl_order // self.stabilizer_order(w)

    # -- representation-theoretic helpers ---------------------------------------

    def weyl_dimension(self, lam: Weight):
        """Dimension of the irreducible with highest weight lam (exact integer)."""
        if not self.is_dominant(lam):
            raise PreconditionError(f"weight {lam} is not dominant")
        lam_rho = tuple(x + 1 for x in lam)
        num = 1
        den = 1
        for beta in self.pos_roots:
            num *= self._ip_int(lam_rho, beta)
            den *= self._ip_int(self.rho, beta)
        dim = Fraction(num, den)
        if dim.denominator != 1:
            raise AssertionError("Weyl dimension did not reduce to an integer")
        return int(dim)

    def dual_weight(self, lam: Weight) -> Weight:
        """Highest weight of the dual representation, -w0(lam)."""
        if not self.is_dominant(lam):
            raise PreconditionError(f"weight {lam} is not dominant")
        neg = tuple(-x for x in lam)
        return self.to_dominant(neg)[0]

    # -- product-system plumbing -------------------------------------------------

    def split(self, w: Weight) -> list[Weight]:
        return [tuple(w[a:b]) for a, b in self._slices]

    def join(self, parts) -> Weight:
        return tuple(itertools.chain.from_iterable(parts))

    def factor_systems(self) -> list["RootSystem"]:
        if self._factor_systems is None:
            self._factor_systems = [RootSystem([f]) for f in self.factors]
        return self._factor_systems

    def __repr__(self) -> str:
        return "RootSystem(%s)" % "x".join(map(str, self.factors))


def adjoint_weight(st: SimpleType) -> Weight:
    """Highest weight of the adjoint representation of a simple factor."""
    n = st.rank
    if st.series == "A":
        if n == 1:
            return (2,)
        return (1,) + (0,) * (n - 2) + (1,)
    if st.series == "B":
        if n == 2:
            return (0, 2)
        return (0, 1) + (0,) * (n - 2)
    if st.series == "C":
        return (2,) + (0,) * (n - 1)
    if st.series == "D":
        if n == 2:
            raise ConfigurationError("so(4) is not simple; use two A1 factors")
        if n == 3:
            return (0, 1, 1)
        return (0, 1) + (0,) * (n - 2)
    if st.series == "G":
        return (0, 1)
    if st.series == "F":
        return (1, 0, 0, 0)
    return {6: (0, 1, 0, 0, 0, 0),
            7: (1, 0, 0, 0, 0, 0, 0),
            8: (0, 0, 0, 0, 0, 0, 0, 1)}[n]
