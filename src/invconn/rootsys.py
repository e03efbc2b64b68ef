"""Exact root systems and Weyl-group machinery for the simple Lie types.

Weights are stored as tuples of integers in Dynkin-label coordinates
(pairings with the simple coroots).  Product systems concatenate the
labels of their factors; every structural object (Cartan matrix, positive
roots, invariant pairing) is the block direct sum of the factor data, which
is computed once per simple type, and `signed_orbit` is the product of the
factor orbits; the data derived from them is built once per process for
each factor tuple.  `factor_systems` of a simple system is the system
itself, so the per-weight cache a system keeps (the dominant weights below
a highest weight, filled by `chars`) serves every caller that splits it
into factors.  A system whose rank x rank Cartan matrix would take more than
`MAX_ARRAY_BYTES` is refused before any of it is built.

A Weyl orbit is built one layer at a time from its dominant weight,
reflecting each point only at its positive labels (`_orbit`): layer k holds
the points reached by Weyl elements of length k, so a layer is deduplicated
against itself alone and its sign is (-1)^k.

All arithmetic is exact and in integers.  Heights use the integer matrix
det(A) A^-1 of the Cartan matrix A: det(A) times the height of a weight is
an integer key (`_height_key`).  The invariant pairing is an integer matrix
over one common denominator (`_ip_int`, `_gram_scale`), built from integer
root lengths and det(A) A^-1 as one integer table per simple type
(`_simple_pairing`).  No rational is built, and the module does not
import `fractions` or the `decimal` it loads.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._codes import MAX_ARRAY_BYTES

Weight = tuple[int, ...]


class ConfigurationError(ValueError):
    """Invalid series/rank combination or malformed constructor input."""


class PreconditionError(ValueError):
    """An operation was called outside its contract (e.g. non-dominant weight)."""


_E_POSROOTS = {6: 36, 7: 63, 8: 120}
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
        return _E_POSROOTS[n]

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
        n = self.rank
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), x in _cartan_matrix(self.series, n).items():
            a[i][j] = x
        return a

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def _cartan_matrix(series: str, n: int) -> dict[tuple[int, int], int]:
    """The Cartan matrix of one simple type as its off-diagonal nonzero
    entries {(i, j): a_ij}; every diagonal entry is 2."""
    # Convention: A[i][j] = 2*(alpha_i, alpha_j)/(alpha_j, alpha_j), so row i
    # holds the Dynkin labels of the simple root alpha_i.
    a = {}

    def link(i, j, aij=-1, aji=-1):
        a[i, j] = aij
        a[j, i] = aji

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


def _scaled_lengths(st: SimpleType) -> tuple[int, tuple[int, ...]]:
    """(L, L d) for the half squared lengths d_i = (alpha_i, alpha_i)/2 of
    the simple roots, long = 1: the least L that makes them integers."""
    n = st.rank
    if st.series in ("A", "D", "E"):
        return 1, (1,) * n
    if st.series == "B":
        return 2, (2,) * (n - 1) + (1,)
    if st.series == "C":
        return 2, (1,) * (n - 1) + (2,)
    if st.series == "F":
        return 2, (2, 2, 1, 1)
    return 3, (1, 3)  # G2, first node short


@functools.cache
def _simple_inverse(st: SimpleType) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """det A and the integer matrix det(A) A^-1 of one simple type's Cartan
    matrix A; computed once per type."""
    return _invert_int_matrix(st.cartan_matrix())


@functools.cache
def _simple_pairing(st: SimpleType) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, D F) for the pairing of the fundamental weights of one simple
    type, F[i][j] = d_i * (A^-1)[j][i] with d_i the half squared length of
    alpha_i, and D the least common denominator of its entries: an integer
    and an integer matrix, computed once per type."""
    det, adj = _simple_inverse(st)
    scale, lengths = _scaled_lengths(st)
    nums = [[lengths[i] * adj[j][i] for j in range(st.rank)] for i in range(st.rank)]
    g = math.gcd(scale * det, *itertools.chain.from_iterable(nums))
    return scale * det // g, tuple(tuple(x // g for x in row) for row in nums)


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


class _per_factors(functools.cached_property):
    """A `cached_property` of `RootSystem`, a pure function of `factors`,
    built once per process for each factor tuple and shared by every system
    with those factors; the dominant weights stay per system."""

    def __init__(self, func):
        super().__init__(func)
        self.shared = {}

    def __get__(self, rs, owner=None):
        if rs is None:
            return self
        if rs.factors not in self.shared:
            self.shared[rs.factors] = self.func(rs)
        value = rs.__dict__[self.attrname] = self.shared[rs.factors]
        return value


class RootSystem:
    """Root data for a finite product of simple types.

    The instance is immutable after construction and safe to share; all
    operations are pure functions of their arguments.  The derived data
    (positive roots, Weyl order, inverse Cartan matrix and pairing) is built
    from the per-type caches on first use, once per factor tuple
    (`_per_factors`), so a system whose only use is a reflection or a dual
    weight costs little more than its Cartan matrix.
    """

    def __init__(self, factors):
        if isinstance(factors, SimpleType):
            factors = [factors]
        factors = tuple(factors)
        if not factors:
            raise ConfigurationError("at least one simple factor required")
        self.factors = factors
        self.rank = n = sum(f.rank for f in factors)
        if n * n * 8 > MAX_ARRAY_BYTES:
            raise ConfigurationError(f"rank {n} is too large: its Cartan matrix would take "
                                     f"more than {MAX_ARRAY_BYTES >> 20} MiB")
        self.rho: Weight = (1,) * n

        ends = itertools.accumulate(f.rank for f in factors)
        self._slices = [(b - f.rank, b) for f, b in zip(factors, ends)]
        # The Cartan matrix as one int64 array, and the sparse reflection
        # rows: row i lists (j, a_ij) with a_ij != 0, by j.  Both are filled
        # from the factors' nonzero entries.
        self.cartan = np.zeros((n, n), dtype=np.int64)
        rows = [[(i, 2)] for i in range(n)]
        for f, (a, _) in zip(factors, self._slices):
            for (i, j), x in _cartan_matrix(f.series, f.rank).items():
                self.cartan[a + i, a + j] = x
                rows[a + i].append((a + j, x))
        np.fill_diagonal(self.cartan, 2)
        self._rows = [tuple(sorted(row)) for row in rows]

        # Per highest weight: the dominant weights below it
        # (`chars.dominant_weights_below`).
        self._dominant_cache: dict[Weight, tuple[Weight, ...]] = {}
        self._factor_systems: list[RootSystem] | None = None

    def _block_diagonal(self, blocks) -> list[list[int]]:
        """The rank x rank matrix with one block per factor on its diagonal."""
        n = self.rank
        out = [[0] * n for _ in range(n)]
        for block, (a, b) in zip(blocks, self._slices):
            for i, row in enumerate(block):
                out[a + i][a:b] = row
        return out

    # -- derived data, built on first use once per factor tuple -------------------

    @_per_factors
    def _gram_scale(self) -> int:
        """The least common denominator of the pairing of fundamental weights."""
        return math.lcm(*(_simple_pairing(f)[0] for f in self.factors))

    @_per_factors
    def _gram_int(self) -> list[list[int]]:
        """The pairing of fundamental weights, F[i][j] = d_i * (A^-1)[j][i],
        times `_gram_scale`: an integer matrix, block diagonal by factor."""
        scale = self._gram_scale
        return self._block_diagonal([[x * (scale // den) for x in row] for row in pairing]
                                    for den, pairing in map(_simple_pairing, self.factors))

    @_per_factors
    def _orbit_label_factor(self) -> int:
        """An integer K such that every point of the Weyl orbit of a weight
        whose labels are at most m in size has labels at most K m in size.

        The orbit keeps the invariant norm, |u|^2 = |v|^2 <= m^2 sum |F_ij|,
        and a label is u_i = (u, alpha_i^vee) with |alpha_i^vee|^2 =
        4 / |alpha_i|^2 <= 6 (the short root of G2 has |alpha|^2 = 2/3), so
        u_i^2 <= 6 m^2 sum |F_ij|.
        """
        size = sum(abs(x) for row in self._gram_int for x in row)
        return math.isqrt(-(-6 * size // self._gram_scale)) + 1

    @_per_factors
    def _scaled_inverse(self) -> tuple[int, list[list[int]]]:
        """(det A, det(A) A^-1) for the Cartan matrix A: the determinant and an
        integer matrix, block diagonal, the block of factor f being
        (det A / det A_f) det(A_f) A_f^-1."""
        inverses = [_simple_inverse(f) for f in self.factors]
        det = math.prod(det_f for det_f, _ in inverses)
        return det, self._block_diagonal([[det // det_f * x for x in row] for row in adj]
                                         for det_f, adj in inverses)

    @_per_factors
    def _height_vector(self) -> tuple[int, ...]:
        """Row sums of det(A) A^-1: the integer height key
        sum(h[j] * w[j]) of a weight w is det(A) times its height."""
        return tuple(sum(row) for row in self._scaled_inverse[1])

    @_per_factors
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

    @_per_factors
    def pos_roots(self) -> tuple[Weight, ...]:
        return tuple(w for w, _ in self._positive)

    @_per_factors
    def pos_root_coords(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for _, c in self._positive)

    @_per_factors
    def weyl_order(self) -> int:
        return math.prod(f.weyl_order for f in self.factors)

    # -- elementary operations -------------------------------------------------

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

    def _ip_int(self, v, w) -> int:
        """`_gram_scale` times the invariant pairing of v and w, normalized
        so that long roots have norm 2: an integer."""
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

    def _height_key(self, w: Weight) -> int:
        """det(A) times the height of w: an integer that orders weights by height."""
        return sum(h * x for h, x in zip(self._height_vector, w))

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
        """Weyl orbit of w, one layer at a time; each point carries (-1)^(its
        layer).

        The search starts at the dominant representative of w and reflects
        each point only at its positive labels.  Such a reflection lengthens
        the shortest Weyl element reaching the point by one, so layer k holds
        exactly the points whose shortest element has length k: a layer can
        only repeat its own points, and it is deduplicated against itself
        alone.  The parity is det of the Weyl element reaching the point only
        when w is regular; otherwise just the keys are meaningful.
        """
        top = self.to_dominant(w)[0]
        out = {top: 1}
        layer = [top]
        rows = self._rows
        sign = 1
        while layer:
            sign = -sign
            nxt = {}
            for v in layer:
                for i, c in enumerate(v):
                    if c > 0:
                        u = list(v)
                        for j, a in rows[i]:
                            u[j] -= c * a
                        nxt[tuple(u)] = sign
            out.update(nxt)
            layer = nxt
        return out

    def weyl_orbit(self, w: Weight) -> list[Weight]:
        return list(self._orbit(w))

    def signed_orbit(self, w: Weight) -> SignedOrbit:
        """Orbit of a strictly dominant weight as arrays, with det(w) per point.

        The orbit is the product of the factor orbits, each from the layered
        search of `_orbit`, so no map with one entry per element of W is built
        for a product system.  Points of the first factor vary slowest.
        """
        if any(x <= 0 for x in w):
            raise PreconditionError("signed_orbit requires a strictly dominant weight")
        systems = self.factor_systems()
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

    @_per_factors
    def _dimension_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """For every positive root beta, the integer vector c with
        sum(c * w) = <w, beta> in the scale of `_gram_int`, and <rho, beta>."""
        g = self._gram_int
        rows = []
        for beta in self.pos_roots:
            c = tuple(sum(g_ij * b for g_ij, b in zip(row, beta)) for row in g)
            rows.append((c, sum(c)))
        return tuple(rows)

    @_per_factors
    def _rho_denominator(self) -> int:
        """The product of <rho, beta> over the positive roots beta."""
        return math.prod(r for _, r in self._dimension_rows)

    def weyl_dimension(self, lam: Weight):
        """Dimension of the irreducible with highest weight lam (exact integer):
        the product of <lam + rho, beta> / <rho, beta> over the positive roots,
        one integer dot product per root (`_dimension_rows`)."""
        if len(lam) != self.rank:
            raise PreconditionError(f"weight {lam} has {len(lam)} labels, "
                                    f"but {self} has rank {self.rank}")
        if not self.is_dominant(lam):
            raise PreconditionError(f"weight {lam} is not dominant")
        num = 1
        for c, r in self._dimension_rows:
            num *= sum(map(operator.mul, c, lam)) + r
        dim, rem = divmod(num, self._rho_denominator)
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
        """One system per simple factor; a simple system is its own factor, so
        it shares its caches with every caller that splits it."""
        if self._factor_systems is None:
            self._factor_systems = ([self] if len(self.factors) == 1
                                    else [RootSystem([f]) for f in self.factors])
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
