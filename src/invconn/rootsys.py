"""Exact root systems and Weyl-group machinery for the simple Lie types.

Weights are stored as tuples of integers in Dynkin-label coordinates
(pairings with the simple coroots).  Product systems concatenate the
labels of their factors; every structural object (Cartan matrix, positive
roots, invariant pairing) is the block direct sum of the factor data, which
is computed once per simple type, and `signed_orbit` is the product of the
factor orbits.

All arithmetic is exact.  Root coordinates, heights and dominance use the
integer matrix det(A) A^-1 of the Cartan matrix A: det(A) times the root
coordinates of a weight are integers, so a height key or a dominance test
builds no `Fraction` (`root_coords` and `height` still return the exact
rationals).  The invariant pairing is a matrix of `fractions.Fraction`, with
a pre-scaled integer copy used in hot loops.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

Weight = tuple[int, ...]


class ConfigurationError(ValueError):
    """Invalid series/rank combination or malformed constructor input."""


class PreconditionError(ValueError):
    """An operation was called outside its contract (e.g. non-dominant weight)."""


_EXCEPTIONAL_POSROOTS = {"G": 6, "F": 24, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120}
_EXCEPTIONAL_WEYL_ORDERS = {("G", 2): 12, ("F", 4): 1152, ("E", 6): 51_840,
                            ("E", 7): 2_903_040, ("E", 8): 696_729_600}


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
    def weyl_order(self) -> int:
        """Order of the Weyl group, in closed form: no root is built."""
        n = self.rank
        if self.series == "A":
            return math.factorial(n + 1)
        if self.series in ("B", "C"):
            return 2 ** n * math.factorial(n)
        if self.series == "D":
            return 2 ** (n - 1) * math.factorial(n)
        return _EXCEPTIONAL_WEYL_ORDERS[(self.series, n)]

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


def _invert_int_matrix(m: list[list[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d m^-1) with d = |det m| for an invertible integer matrix m: both
    are integer, and m^-1 is the second divided by the first.

    Fraction-free Gauss-Jordan (Bareiss) on [m | I] in Python ints: every
    step divides exactly by the previous pivot, and [m | I] ends as
    [p I | p m^-1] with p = det m up to the sign of the row swaps.
    """
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col]
        for r in range(n):
            if r != col:
                c = aug[r][col]
                aug[r] = [(p[col] * x - c * y) // prev for x, y in zip(aug[r], p)]
        prev = p[col]
    sign = 1 if prev > 0 else -1
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in aug)


@functools.cache
def _simple_inverse(st: SimpleType) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """det A and the integer matrix det(A) A^-1 of one simple type's Cartan
    matrix A; computed once per type."""
    return _invert_int_matrix(st.cartan_matrix())


_FractionMatrix = tuple[tuple[Fraction, ...], ...]


@functools.cache
def _simple_pairing(st: SimpleType) -> _FractionMatrix:
    """The pairing of the fundamental weights of one simple type,
    F[i][j] = d_i * (A^-1)[j][i] with d_i the half squared length of
    alpha_i; exact, and computed once per type."""
    det, adj = _simple_inverse(st)
    lengths = st.root_lengths()
    return tuple(tuple(lengths[i] * Fraction(adj[j][i], det) for j in range(st.rank))
                 for i in range(st.rank))


@functools.cache
def _pairing_size(st: SimpleType) -> Fraction:
    """sum |F_ij| over the pairing of fundamental weights of one simple type."""
    return sum(abs(x) for row in _simple_pairing(st) for x in row)


@functools.cache
def _simple_positive_roots(st: SimpleType) -> tuple[tuple[Weight, tuple[int, ...]], ...]:
    """(Dynkin labels, simple-root coordinates) of the positive roots of one
    simple type, computed once per type.

    Orbit closure of the simple roots under the simple reflections; a root is
    positive when its root-basis coordinates are all >= 0.
    """
    n = st.rank
    simple = [tuple(row) for row in st.cartan_matrix()]  # row i: labels of alpha_i
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
                w2 = tuple(x - c * a for x, a in zip(w, simple[i]))
                if w2 not in coords:
                    c2 = list(cw)
                    c2[i] -= c
                    coords[w2] = tuple(c2)
                    nxt.append(w2)
        frontier = nxt
    return tuple((w, c) for w, c in coords.items() if all(x >= 0 for x in c))


def _weight_array(weights: list[Weight], rank: int) -> np.ndarray:
    """(n, rank) int64 array of the weights, or of Python ints if one does not fit."""
    try:
        return np.array(weights, dtype=np.int64).reshape(-1, rank)
    except OverflowError:
        return np.array(weights, dtype=object).reshape(-1, rank)


@dataclass(frozen=True)
class SignedOrbit:
    """A Weyl orbit of a strictly dominant weight: the points as an (n, rank)
    array and det of the Weyl element reaching each point as an (n,) array
    of +-1, both int64 (points of Python ints beyond int64).  `len()` is the
    number of points."""

    points: np.ndarray
    signs: np.ndarray

    def __len__(self) -> int:
        return len(self.signs)


class RootSystem:
    """Root data for a finite product of simple types.

    The instance is immutable after construction and safe to share; all
    operations are pure functions of their arguments.  The derived data
    (positive roots, Weyl order, inverse Cartan matrix and pairing) is built
    from the per-type caches on first use, so a system whose only use is a
    reflection or a dual weight costs little more than its Cartan matrix.
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

        # Block-diagonal Cartan matrix.
        n = self.rank
        self.cartan = [[0] * n for _ in range(n)]
        off = 0
        self._slices = []
        for f in factors:
            block = f.cartan_matrix()
            r = f.rank
            for i in range(r):
                for j in range(r):
                    self.cartan[off + i][off + j] = block[i][j]
            self._slices.append((off, off + r))
            off += r

        # Sparse reflection rows: row i lists (j, a_ij) with a_ij != 0.
        self._rows = [tuple((j, self.cartan[i][j]) for j in range(n) if self.cartan[i][j])
                      for i in range(n)]

        self._irrep_cache: dict[Weight, dict] = {}
        self._factor_systems: list[RootSystem] | None = None

    # -- derived data, built on first use -----------------------------------------

    @functools.cached_property
    def _gram(self) -> list[list[Fraction]]:
        """Pairing of fundamental weights: F[i][j] = d_i * (A^-1)[j][i]."""
        n = self.rank
        out = [[Fraction(0)] * n for _ in range(n)]
        for f, (a, b) in zip(self.factors, self._slices):
            for i, row in enumerate(_simple_pairing(f)):
                out[a + i][a:b] = row
        return out

    @functools.cached_property
    def _gram_int(self) -> list[list[int]]:
        """`_gram` scaled to integers by the lcm of its denominators."""
        scale = math.lcm(*(x.denominator for row in self._gram for x in row))
        return [[x.numerator * (scale // x.denominator) for x in row] for row in self._gram]

    @functools.cached_property
    def _orbit_label_factor(self) -> int:
        """An integer K such that every point of the Weyl orbit of a weight
        whose labels are at most m in size has labels at most K m in size.

        The orbit keeps the invariant norm, |u|^2 = |v|^2 <= m^2 sum |F_ij|,
        and a label is u_i = (u, alpha_i^vee) with |alpha_i^vee|^2 =
        4 / |alpha_i|^2 <= 6 (the short root of G2 has |alpha|^2 = 2/3), so
        u_i^2 <= 6 m^2 sum |F_ij|.
        """
        return math.isqrt(math.ceil(6 * sum(map(_pairing_size, self.factors)))) + 1

    @functools.cached_property
    def _scaled_inverse(self) -> tuple[int, list[list[int]]]:
        """(det A, det(A) A^-1) for the Cartan matrix A: the determinant and an
        integer matrix, block diagonal, the block of factor f being
        (det A / det A_f) det(A_f) A_f^-1."""
        det = math.prod(_simple_inverse(f)[0] for f in self.factors)
        n = self.rank
        out = [[0] * n for _ in range(n)]
        for f, (a, b) in zip(self.factors, self._slices):
            det_f, adj = _simple_inverse(f)
            for i, row in enumerate(adj):
                out[a + i][a:b] = [det // det_f * x for x in row]
        return det, out

    @functools.cached_property
    def _coord_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Column i of det(A) A^-1 as its nonzero (j, entry) pairs: det(A) times
        the i-th root coordinate of w is sum(entry * w[j])."""
        scaled = self._scaled_inverse[1]
        return tuple(tuple((j, row[i]) for j, row in enumerate(scaled) if row[i])
                     for i in range(self.rank))

    @functools.cached_property
    def _height_vector(self) -> tuple[int, ...]:
        """Row sums of det(A) A^-1: the integer height key
        sum(h[j] * w[j]) of a weight w is det(A) times its height."""
        return tuple(sum(row) for row in self._scaled_inverse[1])

    @functools.cached_property
    def _positive(self) -> list[tuple[Weight, tuple[int, ...]]]:
        """Positive roots with their simple-root coordinates, by height: those
        of the factors, padded with zeros to the other factors' labels."""
        n = self.rank
        pos = []
        for f, (a, b) in zip(self.factors, self._slices):
            left, right = (0,) * a, (0,) * (n - b)
            pos.extend((left + w + right, left + c + right) for w, c in _simple_positive_roots(f))
        pos.sort(key=lambda wc: (sum(wc[1]), wc[1]))
        expected = sum(f.num_positive_roots for f in self.factors)
        if len(pos) != expected:
            raise ConfigurationError(
                f"positive-root generation produced {len(pos)}, expected {expected}")
        return pos

    @functools.cached_property
    def pos_roots(self) -> tuple[Weight, ...]:
        return tuple(w for w, _ in self._positive)

    @functools.cached_property
    def pos_root_coords(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for _, c in self._positive)

    @functools.cached_property
    def weyl_order(self) -> int:
        return math.prod(f.weyl_order for f in self.factors)

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
        c = A^-T labels; each coordinate is an integer of det(A) A^-1 over
        det A.
        """
        det = self._scaled_inverse[0]
        return tuple(Fraction(sum(t * w[j] for j, t in col), det) for col in self._coord_columns)

    def dominates(self, lam: Weight, mu: Weight) -> bool:
        """True when lam - mu is a non-negative integer combination of simple roots."""
        det = self._scaled_inverse[0]
        for col in self._coord_columns:
            c = sum(t * (lam[j] - mu[j]) for j, t in col)
            if c < 0 or c % det:
                return False
        return True

    def _height_key(self, w: Weight) -> int:
        """det(A) times the height of w: an integer that orders weights by height."""
        return sum(h * x for h, x in zip(self._height_vector, w))

    def height(self, w: Weight) -> Fraction:
        return Fraction(self._height_key(w), self._scaled_inverse[0])

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

    def signed_orbit(self, w: Weight) -> SignedOrbit:
        """Orbit of a strictly dominant weight as arrays, with det(w) per point.

        The orbit is the product of the factor orbits, each from the BFS of
        `_orbit`, so no map with one entry per element of W is built for a
        product system.  Points of the first factor vary slowest.
        """
        if any(x <= 0 for x in w):
            raise PreconditionError("signed_orbit requires a strictly dominant weight")
        systems = self.factor_systems() if len(self.factors) > 1 else [self]
        points = np.zeros((1, 0), dtype=np.int64)
        signs = np.ones(1, dtype=np.int64)
        for sub, part in zip(systems, self.split(w)):
            orbit = sub._orbit(part)
            sub_points = _weight_array(list(orbit), sub.rank)
            sub_signs = np.fromiter(orbit.values(), dtype=np.int64, count=len(orbit))
            prod = np.empty((len(points), len(sub_points), points.shape[1] + sub.rank),
                            dtype=np.result_type(points.dtype, sub_points.dtype))
            prod[:, :, :points.shape[1]] = points[:, None, :]
            prod[:, :, points.shape[1]:] = sub_points[None, :, :]
            points = prod.reshape(-1, prod.shape[2])
            signs = np.outer(signs, sub_signs).ravel()
        return SignedOrbit(points, signs)

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
        dim, rem = divmod(num, den)
        if rem:
            raise AssertionError("Weyl dimension did not reduce to an integer")
        return dim

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
