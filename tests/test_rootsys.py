import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SIMPLE_TYPES_TO_RANK_8, bfs_orbit, dimension_rows_reference, dominates, height,
                      pairing, reflect, root_coords, root_lengths, shrink_weight)

import invconn
from invconn.rootsys import (ConfigurationError, PreconditionError, RootSystem,
                             SimpleType, _invert_int_matrix, _simple_inverse, adjoint_weight)
from invconn.siiclass import load_catalog

SRC = str(Path(invconn.__file__).resolve().parents[1])

ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
             ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("G", 2), ("F", 4),
             ("E", 6), ("E", 7), ("E", 8)]


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_adjoint_dimension(series, rank):
    st = SimpleType(series, rank)
    rs = RootSystem([st])
    assert len(rs.pos_roots) == st.num_positive_roots
    assert rs.weyl_dimension(adjoint_weight(st)) == st.dim


def test_so4_splits_as_two_a1():
    rs = RootSystem([SimpleType("D", 2)])
    assert len(rs.pos_roots) == 2
    assert rs.weyl_dimension((2, 0)) + rs.weyl_dimension((0, 2)) == 6


@pytest.mark.parametrize("bad", [("A", 0), ("B", 1), ("E", 5), ("F", 3), ("G", 3), ("X", 2)])
def test_invalid_simple_types(bad):
    with pytest.raises(ConfigurationError):
        SimpleType(*bad)


def test_build_examples():
    a1 = RootSystem([SimpleType("A", 1)])
    assert a1.pos_roots == ((2,),)
    assert a1.rho == (1,)

    g2 = RootSystem([SimpleType("G", 2)])
    assert len(g2.pos_roots) == 6
    assert SimpleType("G", 2).dim == 14

    prod = RootSystem([SimpleType("A", 1), SimpleType("A", 2)])
    assert len(prod.pos_roots) == 1 + 3
    # block-diagonal pairing: cross terms vanish
    assert pairing(prod, (1, 0, 0), (0, 1, 0)) == 0
    assert pairing(prod, (1, 0, 0), (0, 0, 1)) == 0
    a2 = RootSystem([SimpleType("A", 2)])
    assert pairing(prod, (0, 1, 1), (0, 1, 1)) == pairing(a2, (1, 1), (1, 1))


def test_positive_root_norms_positive():
    for series, rank in ALL_TYPES:
        rs = RootSystem([SimpleType(series, rank)])
        for alpha in rs.pos_roots:
            assert pairing(rs, alpha, alpha) > 0


def test_cartan_shape():
    rs = RootSystem([SimpleType("F", 4)])
    for i in range(4):
        assert rs.cartan[i][i] == 2
        for j in range(4):
            if i != j:
                assert rs.cartan[i][j] <= 0


def test_to_dominant_examples():
    a1 = RootSystem([SimpleType("A", 1)])
    assert a1.to_dominant((-3,)) == ((3,), -1)
    assert a1.to_dominant((0,)) == ((0,), 0)
    a2 = RootSystem([SimpleType("A", 2)])
    dom, sign = a2.to_dominant((-1, 2))
    assert dom == (1, 1) and sign == -1


def test_double_reflection_is_identity():
    rs = RootSystem([SimpleType("F", 4)])
    rnd = random.Random(11)
    for _ in range(50):
        lam = tuple(rnd.randint(-4, 4) for _ in range(4))
        for i in range(4):
            assert reflect(rs, i, reflect(rs, i, lam)) == lam


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3)])
def test_to_dominant_sign_tracks_reflection_parity(series, rank):
    # Walk a strictly dominant weight around with random reflections and
    # check the recovered chamber representative and determinant.
    rs = RootSystem([SimpleType(series, rank)])
    rnd = random.Random(7)
    start = tuple(rnd.randint(1, 3) for _ in range(rank))
    for _ in range(200):
        w = start
        sign = 1
        for _ in range(rnd.randint(0, 12)):
            i = rnd.randrange(rank)
            w2 = reflect(rs, i, w)
            if w2 != w:
                w = w2
                sign = -sign
        dom, s = rs.to_dominant(w)
        assert dom == start
        assert s == sign


def test_to_dominant_idempotent():
    rs = RootSystem([SimpleType("B", 3)])
    rnd = random.Random(3)
    for _ in range(100):
        lam = tuple(rnd.randint(-5, 5) for _ in range(3))
        dom, _ = rs.to_dominant(lam)
        assert rs.to_dominant(dom)[0] == dom


def test_weyl_dimension_examples():
    a2 = RootSystem([SimpleType("A", 2)])
    assert a2.weyl_dimension((1, 1)) == 8
    a1 = RootSystem([SimpleType("A", 1)])
    assert a1.weyl_dimension((0,)) == 1
    a4 = RootSystem([SimpleType("A", 4)])
    assert a4.weyl_dimension((0, 1, 1, 0)) == 75  # = dim su(10) - dim su(5)
    with pytest.raises(PreconditionError):
        a2.weyl_dimension((-1, 0))
    for wrong_length in ((1,), (1, 1, 1)):
        with pytest.raises(PreconditionError, match="labels"):
            a2.weyl_dimension(wrong_length)


def test_dual_weight_examples():
    a2 = RootSystem([SimpleType("A", 2)])
    assert a2.dual_weight((3, 0)) == (0, 3)
    g2 = RootSystem([SimpleType("G", 2)])
    assert g2.dual_weight((1, 0)) == (1, 0)
    a3 = RootSystem([SimpleType("A", 3)])
    assert a3.dual_weight((1, 0, 0)) == (0, 0, 1)


def test_dual_weight_via_lowest_weight():
    # The dual highest weight is minus the lowest weight of the module.
    from invconn.chars import irrep_character
    a3 = RootSystem([SimpleType("A", 3)])
    chi = irrep_character(a3, (1, 0, 0))
    lowest = min(chi.mult, key=lambda w: height(a3, w))
    assert tuple(-x for x in lowest) == a3.dual_weight((1, 0, 0)) == (0, 0, 1)


def test_dual_weight_involution():
    rnd = random.Random(5)
    for series, rank in [("A", 3), ("D", 4), ("E", 6)]:
        rs = RootSystem([SimpleType(series, rank)])
        for _ in range(20):
            lam = tuple(rnd.randint(0, 2) for _ in range(rank))
            assert rs.dual_weight(rs.dual_weight(lam)) == lam


def test_weyl_orbit_and_signed_orbit():
    rs = RootSystem([SimpleType("B", 2)])
    orbit = rs.signed_orbit((1, 1))
    assert len(orbit) == rs.weyl_order == 8
    assert orbit.points.shape == (8, 2)
    assert orbit.signs.sum() == 0  # equal numbers of even and odd elements
    signs = dict(zip(map(tuple, orbit.points.tolist()), orbit.signs.tolist()))
    assert signs[(1, 1)] == 1
    with pytest.raises(PreconditionError):
        rs.signed_orbit((1, 0))


def test_signed_orbit_matches_the_bfs_on_catalog_systems():
    # The product of the factor orbits, as arrays, against the BFS over the
    # whole product system: the same points with the same signs.
    systems = {row.factors: row for row in load_catalog()}
    checked = 0
    for factors, row in systems.items():
        rs = RootSystem(factors)
        if rs.weyl_order > 20_000:
            continue
        w = tuple(x + 1 for x in rs.join(row.constituents[0]))
        orbit = rs.signed_orbit(w)
        assert len(orbit) == rs.weyl_order, factors
        assert orbit.points.dtype == orbit.signs.dtype == np.int64
        signs = dict(zip(map(tuple, orbit.points.tolist()), orbit.signs.tolist()))
        assert signs == bfs_orbit(rs, w)
        checked += 1
    assert checked == 29


@st.composite
def _weights_in_small_orbits(draw):
    """A simple system of rank <= 8, a dominant weight lam whose orbit has at
    most 3000 points, and w = u(lam) for a random word u of simple
    reflections."""
    rs = RootSystem([draw(st.sampled_from(SIMPLE_TYPES_TO_RANK_8))])
    lam = draw(st.tuples(*[st.integers(min_value=0, max_value=3)] * rs.rank))
    lam = shrink_weight(lam, lambda v: rs.orbit_size(v) > 3000)
    w = lam
    for i in draw(st.lists(st.integers(min_value=0, max_value=rs.rank - 1), max_size=12)):
        w = reflect(rs, i, w)
    return rs, lam, w


@settings(max_examples=80, deadline=None)
@given(_weights_in_small_orbits())
def test_layered_orbit_matches_the_bfs(case):
    rs, lam, w = case
    orbit = rs.weyl_orbit(w)
    assert len(orbit) == len(set(orbit)) == rs.orbit_size(lam)
    # A weight that is not dominant has the orbit of its dominant weight.
    assert set(orbit) == set(rs.weyl_orbit(lam)) == set(bfs_orbit(rs, w))
    # From a dominant weight each layer is one BFS depth, so the signs agree too.
    assert rs._orbit(lam) == bfs_orbit(rs, lam)


def test_orbit_size_via_stabilizer():
    rs = RootSystem([SimpleType("F", 4)])
    for lam in [(1, 0, 0, 0), (0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 0, 0)]:
        assert rs.orbit_size(lam) == len(rs.weyl_orbit(lam))
    prod = RootSystem([SimpleType("A", 2), SimpleType("B", 2)])
    for lam in [(1, 0, 1, 0), (0, 0, 1, 1), (1, 1, 0, 0)]:
        assert prod.orbit_size(lam) == len(prod.weyl_orbit(lam))


def _closed_form_weyl_order(series, n):
    exceptional = {("E", 6): 51_840, ("E", 7): 2_903_040, ("E", 8): 696_729_600,
                   ("F", 4): 1152, ("G", 2): 12}
    if series == "A":
        return math.factorial(n + 1)
    if series in ("B", "C"):
        return 2 ** n * math.factorial(n)
    if series == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return exceptional[(series, n)]


@pytest.mark.parametrize("series,rank", [(s, n) for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 2))
                                         for n in range(lo, 9)]
                         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
def test_weyl_order_closed_forms(series, rank):
    # The closed form of `SimpleType` against Macdonald's product over the
    # positive roots, which `stabilizer_order` keeps.
    rs = RootSystem([SimpleType(series, rank)])
    assert SimpleType(series, rank).weyl_order == _closed_form_weyl_order(series, rank)
    assert rs.weyl_order == _closed_form_weyl_order(series, rank)
    assert rs.stabilizer_order((0,) * rank) == rs._parabolic_order(range(rank)) == rs.weyl_order


def test_weyl_orders():
    assert RootSystem([SimpleType("A", 2), SimpleType("A", 2)]).weyl_order == 36
    # Stabilisers are the Weyl groups of the sub-diagrams on the zero labels.
    e8 = RootSystem([SimpleType("E", 8)])
    assert e8.stabilizer_order((0,) * 7 + (1,)) == _closed_form_weyl_order("E", 7)
    assert e8.stabilizer_order((1,) + (0,) * 7) == _closed_form_weyl_order("D", 7)
    c4 = RootSystem([SimpleType("C", 4)])
    assert c4.stabilizer_order((0, 1, 0, 0)) == 2 * _closed_form_weyl_order("C", 2)
    f4 = RootSystem([SimpleType("F", 4)])
    assert f4.stabilizer_order((0, 0, 0, 1)) == _closed_form_weyl_order("B", 3)
    assert f4.stabilizer_order((1, 1, 1, 1)) == 1


def test_product_structure_matches_factors():
    prod = RootSystem([SimpleType("A", 1), SimpleType("A", 2)])
    a1 = RootSystem([SimpleType("A", 1)])
    a2 = RootSystem([SimpleType("A", 2)])
    roots = {r for r in prod.pos_roots}
    expected = {(r[0], 0, 0) for r in a1.pos_roots} | {(0,) + r for r in a2.pos_roots}
    assert roots == expected
    assert prod.split((2, 1, 0)) == [(2,), (1, 0)]
    assert prod.join([(2,), (1, 0)]) == (2, 1, 0)


def _ambient_type(amb) -> SimpleType:
    if amb.series == "SU":
        return SimpleType("A", amb.n - 1)
    if amb.series == "SO":
        return SimpleType("B" if amb.n % 2 else "D", amb.n // 2)
    if amb.series == "Sp":
        return SimpleType("C", amb.n)
    return SimpleType(amb.series, amb.n)


def _catalog_systems():
    """Every subgroup system of the catalog and every ambient simple type."""
    rows = load_catalog()
    systems = {row.factors for row in rows} | {(_ambient_type(row.ambient),) for row in rows}
    return [RootSystem(f) for f in sorted(systems, key=str)]


def _fraction_inverse(m):
    """m^-1 by Gauss-Jordan over Fractions, dividing every pivot row."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def test_invert_int_matrix_gives_det_and_adjugate():
    rnd = random.Random(21)
    mats = [rs.cartan.tolist() for rs in _catalog_systems()]
    for _ in range(30):  # random invertible matrices, some needing row swaps
        n = rnd.randint(1, 6)
        m = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if round(np.linalg.det(np.array(m, dtype=float))) != 0:
            mats.append(m)
    for m in mats:
        det, scaled = _invert_int_matrix(m)
        assert det == abs(round(np.linalg.det(np.array(m, dtype=float))))
        prod = np.array(m, dtype=object) @ np.array(scaled, dtype=object)
        assert (prod == det * np.eye(len(m), dtype=int)).all()


def test_integer_root_coordinates_match_fractions():
    # root_coords, height, the integer height key and dominates against an
    # inverse Cartan matrix computed over Fractions, on every catalog system
    # of rank at most 40: all but the ambient D64, B66 and D124, whose
    # integer inverses the test above checks.
    rnd = random.Random(22)
    systems = [rs for rs in _catalog_systems() if rs.rank <= 40]
    assert len(systems) == len(_catalog_systems()) - 3
    for rs in systems:
        n = rs.rank
        ainv = _fraction_inverse(rs.cartan.tolist())
        det = rs._scaled_inverse[0]

        def coords(w):
            return tuple(sum(ainv[j][i] * w[j] for j in range(n)) for i in range(n))

        for _ in range(12):
            w = tuple(rnd.randint(-6, 6) for _ in range(n))
            assert root_coords(rs, w) == coords(w)
            assert height(rs, w) == sum(coords(w)) and type(height(rs, w)) is Fraction
            assert rs._height_key(w) == det * sum(coords(w))
            # lam - mu: a random weight (rarely in the root cone), or a
            # non-negative combination of positive roots (always).
            lam = tuple(rnd.randint(0, 4) for _ in range(n))
            below = lam
            for alpha in rnd.sample(rs.pos_roots, min(3, len(rs.pos_roots))):
                below = tuple(x - a for x, a in zip(below, alpha))
            for mu in (w, below):
                diff = coords(tuple(a - b for a, b in zip(lam, mu)))
                expected = all(c.denominator == 1 and c >= 0 for c in diff)
                assert dominates(rs, lam, mu) == expected, (rs, lam, mu)
            assert dominates(rs, lam, below)


def _half_squared_lengths(cartan):
    """(alpha_i, alpha_i)/2 of the simple roots, longest = 1, from the
    Cartan matrix alone: (alpha_i, alpha_j) = A_ij d_j = A_ji d_i."""
    n = len(cartan)
    d = [None] * n
    for root in range(n):
        if d[root] is None:
            d[root], stack = Fraction(1), [root]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if d[j] is None and cartan[i][j]:
                        d[j] = d[i] * cartan[j][i] / cartan[i][j]
                        stack.append(j)
    return [x / max(d) for x in d]


def _fraction_pairing(rs):
    """F[i][j] = d_i (A^-1)[j][i] over Fractions, block diagonal by factor;
    A^-1 from the integer inverse that the test above checks."""
    n, off = rs.rank, 0
    gram = [[Fraction(0)] * n for _ in range(n)]
    for f in rs.factors:
        det, adj = _simple_inverse(f)
        for i, d in enumerate(_half_squared_lengths(f.cartan_matrix())):
            for j in range(f.rank):
                gram[off + i][off + j] = d * Fraction(adj[j][i], det)
        off += f.rank
    return gram


def test_integer_pairing_matches_fractions():
    # The integer pairing, its scale and the orbit label bound against the
    # pairing built over Fractions, with the root lengths read off the
    # Cartan matrix: on every catalog system and the simple types A1-A11,
    # B2-B9, C2-C9, D4-D9, E6-E8, F4 and G2.
    rnd = random.Random(23)
    types = ([("A", n) for n in range(1, 12)] + [(s, n) for s in "BC" for n in range(2, 10)]
             + [("D", n) for n in range(4, 10)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
    systems = _catalog_systems() + [RootSystem([SimpleType(*t)]) for t in types]
    for rs in systems:
        gram = _fraction_pairing(rs)
        scale = math.lcm(*(x.denominator for row in gram for x in row))
        assert rs._gram_int == [[x.numerator * (scale // x.denominator) for x in row] for row in gram], rs
        size = sum(abs(x) for row in gram for x in row)
        assert rs._orbit_label_factor == math.isqrt(math.ceil(6 * size)) + 1, rs
        lengths = [x for f in rs.factors for x in _half_squared_lengths(f.cartan_matrix())]
        assert [x for f in rs.factors for x in root_lengths(f)] == lengths, rs
        for _ in range(3):
            v, w = (tuple(rnd.randint(-3, 3) for _ in range(rs.rank)) for _ in range(2))
            assert pairing(rs, v, w) == sum(v[i] * gram[i][j] * w[j] for i in range(rs.rank)
                                           for j in range(rs.rank) if v[i] and w[j]), rs


@pytest.mark.parametrize("factors", [[t] for t in SIMPLE_TYPES_TO_RANK_8] + [
    [SimpleType("A", 2), SimpleType("G", 2), SimpleType("B", 3)],
    [SimpleType("C", 3), SimpleType("A", 1), SimpleType("F", 4)],
    [SimpleType("D", 4), SimpleType("E", 6), SimpleType("A", 1), SimpleType("A", 1)]], ids=str)
def test_dimension_rows_equal_the_gram_product(factors):
    # Each row scales the simple-root coordinates of its root; the reference
    # pairs the root's labels with every row of the integer Gram matrix.
    rs = RootSystem(factors)
    assert rs._dimension_rows == dimension_rows_reference(rs)


def test_weyl_dimension_is_exact_for_huge_weights():
    a2 = RootSystem([SimpleType("A", 2)])
    big = 2 ** 80
    assert a2.weyl_dimension((big, big)) == (big + 1) ** 2 * (2 * big + 2) // 2


def test_a_rank_over_the_array_limit_builds_no_cartan_matrix(monkeypatch):
    # A rank x rank matrix of 8-byte entries over 128 MiB: rank 4097.
    from invconn import rootsys

    def refuse(*args):
        raise AssertionError("a Cartan matrix was built")

    monkeypatch.setattr(rootsys, "_cartan_matrix", refuse)
    for factors in ([SimpleType("A", 4097)], [SimpleType("A", 2048), SimpleType("D", 2049)]):
        with pytest.raises(ConfigurationError, match="rank 4097 is too large"):
            RootSystem(factors)


_BUILD_A2048 = """
import tracemalloc
from invconn.rootsys import RootSystem, SimpleType
tracemalloc.start()
RootSystem([SimpleType("A", 2048)])
print(tracemalloc.get_traced_memory()[1])
"""


def test_a_large_rank_holds_one_cartan_matrix():
    # The int64 Cartan matrix of A2048 takes 32 MiB, and building the
    # system holds little else: no list-of-lists copy, no dense row scan.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _BUILD_A2048],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 1.1 * 2048 ** 2 * 8
