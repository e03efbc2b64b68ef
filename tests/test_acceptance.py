"""Acceptance suite: every exit criterion, one pass/fail line each.

Four checks in this module concern published reference values that are
wrong.  Each asserts the value that can be derived, and that the program
still reports the published value as an erratum:

  * test_c1_row_so4n_family_at_n2 -- the n=2 member of the SO_4n family,
    SO8/Sp2xSp1, has m = R(pi2) (x) R(2pi1) = 5 (x) 3 of
    Sp(2) x Sp(1) = Spin(5) x Spin(3).  Since 5 (x) 5 = 1 + 10 + 14 does
    not contain 5, m does not occur in m (x) m, so a = s = l = 0; under
    triality the pair is SO(8)/SO(5)xSO(3), which is symmetric and outside
    the paper's non-symmetric scope.  The published (1,0,1,1) stays in the
    catalog and the row reports a mismatch.
  * test_c6_ricci_published_closed_form, test_c6_n4_degeneracy,
    test_c6_n3_positivity -- the vectorial member on u(n).  With
    <X,Y> = -Re tr XY, xi = i Id and d = n^2 one has Ric_g = -B/4 =
    -(n/2) trXY + 1/2 trX trY, |xi|^2 = n, <X,xi><Y,xi> = -trX trY and a
    vanishing bracket term, so the trace-type formula
    Ric_g + (d-2)<X,xi><Y,xi> + (2-d)|xi|^2<X,Y> gives
    Ric = 1/2{(2n^3-5n) trXY + (5-2n^2) trX trY}.  The published
    1/2{(n-4) trXY + (5-2n) trX trY} is the same formula at d = n and
    |xi|^2 = 1; no rescaling of xi or of the metric yields it for n >= 3.
    At n=4 the trXY term stays (54 trXY - 27/2 trX trY), and at n=3 the
    Ricci tensor is negative semi-definite (-39/2 on su(3), 0 on xi).  The
    u(n) battery keeps flagging the three published lines.

Expected total runtime is well under a minute.
"""

import itertools
import random

import numpy as np
import pytest
from conftest import (a_from_torsion, c_tensor, covariant_derivative, curvature, der_tensor, plethysm21,
                      random_a_tensor, random_bilinear, random_torsion_tensor, sparse_derivative,
                      torsion_from_a)

from invconn import conncalc as cc
from invconn.chars import (PlethysmOps, alt2, alt3, decompose, expand,
                           irrep_character, multiplicity, sym2, sym3,
                           tensor)
from invconn.cli import einstein_battery, un_battery
from invconn.rootsys import RootSystem, SimpleType
from invconn.siiclass import (Expected, classify, classify_reducible,
                              external_cross_check, get_row, unitary_group_module)

SEED = 42
TOL = 1e-9


def gate(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name} {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: exact multiplicity reproduction for the named rows
# ---------------------------------------------------------------------------

C1_ROWS = [
    ("SU10/SU5", (1, 1, 2, 1)),
    ("SU6/SU3", (1, 2, 3, 1)),          # SU_{n(n+1)/2}/SU_n at n=3
    ("SU9/SU3xSU3", (2, 2, 4, 2)),
    ("SU6/SU2xSU3", (1, 1, 2, 1)),
    ("SO8/SU3", (2, 0, 2, 2)),
    ("SO21/SO7", (3, 1, 4, 2)),
    ("SO14/SO5", (3, 1, 4, 2)),
    ("SO14/Sp3", (1, 0, 1, 1)),
    ("SO10/Sp2", (2, 1, 3, 1)),
    ("Sp3/SO3xSp1", (1, 0, 1, 1)),
    ("SO7/G2", (1, 0, 1, 1)),
    ("SO14/G2", (2, 0, 2, 2)),
    ("SO16/Spin9", (1, 0, 1, 1)),
    ("Sp2/SU2", (1, 0, 1, 1)),
    ("G2/SU3", (2, 0, 2, 2)),
    ("G2/SO3", (1, 0, 1, 1)),
    ("F4/G2xSU2", (1, 0, 1, 1)),
    ("E7/SU3", (2, 3, 5, 2)),
    ("E6/G2", (1, 1, 2, 1)),
]


@pytest.mark.parametrize("row_id,expected", C1_ROWS)
def test_c1_table_reproduction(row_id, expected):
    rep = classify(get_row(row_id))
    gate(f"criterion 1: {row_id} -> (a,s,N,l) = {expected}",
         rep.status == "ok" and rep.values() == expected,
         f"computed {rep.values()}")


def test_c1_row_so4n_family_at_n2():
    # m = R(pi2) (x) R(2pi1) = 5 (x) 3 of Sp(2) x Sp(1).  5 (x) 5 = 1+10+14
    # has no 5, so m does not occur in m (x) m and a = s = l = 0; the pair
    # is SO(8)/SO(5)xSO(3) under triality, a symmetric space.  The row keeps
    # the published (1,0,1,1), which classify reports as a mismatch.
    row = get_row("SO8/Sp2xSp1")
    rep = classify(row)
    cross = external_cross_check(row)
    c2 = RootSystem([SimpleType("C", 2)])
    five = irrep_character(c2, (0, 1))
    five_in_square = multiplicity(tensor(five, five), (0, 1))
    gate("criterion 1: SO8/Sp2xSp1 (family member n=2) -> (0,0,0,0); "
         "published (1,0,1,1) reported as a mismatch",
         rep.status == "ok" and rep.values() == (0, 0, 0, 0)
         and cross["direct"] == cross["factorized"] == (0, 0, 0)
         and five_in_square == 0
         and row.expected == Expected(1, 0, 1, 1, "r")
         and rep.matched_expected is False,
         f"computed {rep.values()} ({rep.status}); direct {cross['direct']}, "
         f"factorized {cross['factorized']}; [5x5 : 5] = {five_in_square}; "
         f"published {row.expected}, matched {rep.matched_expected}")


# ---------------------------------------------------------------------------
# Criterion 2: out-of-budget rows are skipped, never mis-reported
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("row_id", ["SO248/E8", "SO128/Spin16"])
def test_c2_infeasible_rows_are_skipped(row_id):
    rep = classify(get_row(row_id))
    gate(f"criterion 2: {row_id} skipped under default budget",
         rep.status.startswith("skipped: infeasible") and rep.a is None,
         rep.status)


# ---------------------------------------------------------------------------
# Criterion 3: u(n) bi-invariant classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5])
def test_c3_un_classification(n):
    rep = classify_reducible(unitary_group_module(n))
    gate(f"criterion 3: u({n}) -> N=6, a=2, l=1, eps=1",
         (rep.N, rep.a, rep.l, rep.epsilon) == (6, 2, 1, 1),
         f"computed N={rep.N} a={rep.a} l={rep.l} eps={rep.epsilon}")


# ---------------------------------------------------------------------------
# Criterion 4: engine identities
# ---------------------------------------------------------------------------

SMALL_SYSTEMS = [
    [("A", 1)], [("A", 2)], [("A", 3)], [("A", 4)], [("B", 2)], [("B", 3)],
    [("C", 3)], [("C", 4)], [("D", 4)], [("G", 2)], [("F", 4)],
    [("A", 1), ("A", 2)], [("A", 2), ("A", 2)], [("A", 1), ("A", 1), ("B", 2)],
]


def _random_sum(rs, rnd):
    merged = {}
    for _ in range(rnd.randint(1, 3)):
        while True:
            lam = tuple(rnd.randint(0, 2) for _ in range(rs.rank))
            if rs.weyl_dimension(lam) <= 600:
                break
        merged[lam] = merged.get(lam, 0) + rnd.randint(1, 2)
    return expand(rs, merged.items()), merged


def test_c4_decompose_round_trip_and_klimyk():
    rnd = random.Random(SEED)
    for case in range(50):
        rs = RootSystem([SimpleType(*f) for f in SMALL_SYSTEMS[case % len(SMALL_SYSTEMS)]])
        chi, merged = _random_sum(rs, rnd)
        terms = dict(decompose(chi))
        assert terms == merged, (rs, case)
        for lam in list(merged) + [(1,) * rs.rank, (3,) * rs.rank]:
            assert multiplicity(chi, lam) == terms.get(lam, 0)
    gate("criterion 4: 50 random decompose round trips; orbit-sum == Racah–Speiser", True)


def _random_irrep(rnd, max_dim, pool):
    while True:
        st = SimpleType(*pool[rnd.randrange(len(pool))])
        rs = RootSystem([st])
        lam = tuple(rnd.randint(0, 3) for _ in range(rs.rank))
        if 1 < rs.weyl_dimension(lam) <= max_dim:
            return rs, lam


def test_c4_binomial_and_external_product_identities():
    pool = [("A", 1), ("A", 2), ("B", 2), ("A", 3), ("G", 2)]
    rnd = random.Random(SEED)
    pairs = 0
    while pairs < 20:
        rs_v, lam_v = _random_irrep(rnd, 50, pool)
        rs_w, lam_w = _random_irrep(rnd, 50, pool)
        v = irrep_character(rs_v, lam_v)
        w = irrep_character(rs_w, lam_w)
        if v.dim() * w.dim() > 100:
            continue
        prod = RootSystem(list(rs_v.factors) + list(rs_w.factors))
        vw = irrep_character(prod, lam_v + lam_w)

        def lift(ch_v, ch_w):
            out = {}
            for w1, m1 in ch_v.mult.items():
                for w2, m2 in ch_w.mult.items():
                    key = w1 + w2
                    out[key] = out.get(key, 0) + m1 * m2
            from invconn.chars import Character
            return Character(prod, out)

        # degree-2 identities for external products
        assert alt2(vw) == lift(alt2(v), sym2(w)) + lift(sym2(v), alt2(w))
        assert sym2(vw) == lift(sym2(v), sym2(w)) + lift(alt2(v), alt2(w))
        # degree-3 identity with the mixed-symmetry component
        lhs = alt3(vw)
        rhs = (lift(alt3(v), sym3(w)) + lift(plethysm21(v), plethysm21(w))
               + lift(sym3(v), alt3(w)))
        assert lhs == rhs
        pairs += 1
    gate("criterion 4: degree-2 and degree-3 external-product identities on 20 pairs", True)


def test_c4_binomial_identity_on_direct_sums():
    rnd = random.Random(SEED + 1)
    for _ in range(10):
        rs = RootSystem([SimpleType(*f) for f in SMALL_SYSTEMS[rnd.randrange(len(SMALL_SYSTEMS))]])
        x = irrep_character(rs, tuple(rnd.randint(0, 1) for _ in range(rs.rank)))
        y = irrep_character(rs, tuple(rnd.randint(0, 1) for _ in range(rs.rank)))
        assert alt2(x + y) == alt2(x) + tensor(x, y) + alt2(y)
        assert sym2(x + y) == sym2(x) + tensor(x, y) + sym2(y)
    gate("criterion 4: binomial split of squares over direct sums", True)


@pytest.mark.parametrize("rank", [3, 4])
def test_c4_adjoint_square_decompositions(rank):
    # Exterior and symmetric squares of the rank-n special unitary adjoint.
    rs = RootSystem([SimpleType("A", rank)])
    n = rank
    ad = (1,) + (0,) * (n - 2) + (1,)
    chi = irrep_character(rs, ad)

    def e(*ones):
        w = [0] * n
        for i, c in ones:
            w[i - 1] += c
        return tuple(w)

    expected_alt = sorted([e((1, 2), (n - 1, 1)), e((2, 1), (n, 2)), ad])
    got_alt = sorted(lam for lam, m in decompose(alt2(chi)) for _ in range(m))
    assert got_alt == expected_alt
    expected_sym = sorted([e((1, 2), (n, 2)), e((2, 1), (n - 1, 1)), ad, (0,) * n])
    got_sym = sorted(lam for lam, m in decompose(sym2(chi)) for _ in range(m))
    assert got_sym == expected_sym
    gate(f"criterion 4: adjoint square decompositions for A{rank}", True)


# ---------------------------------------------------------------------------
# Criterion 5: factorized vs direct multiplicity paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("row_id", ["SU6/SU2xSU3", "SU9/SU3xSU3", "Sp3/SO3xSp1",
                                    "Sp4/SO4xSp1"])
def test_c5_external_cross_checks(row_id):
    result = external_cross_check(get_row(row_id))
    gate(f"criterion 5: factorized == direct for {row_id}", result["match"],
         f"{result['direct']}")


# ---------------------------------------------------------------------------
# Criterion 6: u(n) numerical battery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_c6_un_battery_computable_checks(n):
    checks = un_battery(n, seed=SEED)
    bad = [c.name for c in checks if not c.passed and not c.expected_to_fail]
    gate(f"criterion 6: u({n}) battery (metricity, equivariance, type, phi, "
         f"calibration, two-path Ricci)", not bad, "; ".join(bad))


def _vectorial_ricci(n):
    alg = cc.build_algebra("u", n)
    return alg, cc.ricci_matrix(alg, cc.vectorial_metric_map(alg))


def _trace_form(alg, c_xy, c_xx):
    """The bilinear form c_xy trXY + c_xx trX trY over the basis of alg."""
    tr = np.einsum("iaa->i", alg.basis)
    tr_xy = np.einsum("iab,jba->ij", alg.basis, alg.basis)
    return np.real(c_xy * tr_xy + c_xx * np.outer(tr, tr))


def _battery_flags(n, name):
    """Whether the u(n) battery reports the check `name` as a known erratum."""
    checks = {c.name: c for c in un_battery(n, seed=SEED)}
    return name in checks and not checks[name].passed and checks[name].expected_to_fail


def test_c6_ricci_published_closed_form():
    # The trace-type formula at d = n^2, |xi|^2 = n gives
    # Ric = 1/2{(2n^3-5n) trXY + (5-2n^2) trX trY}; the published
    # 1/2{(n-4) trXY + (5-2n) trX trY} is the same formula at d = n,
    # |xi|^2 = 1, and the battery flags it.
    errs, flagged = {}, {}
    for n in (3, 4, 5, 6):
        alg, direct = _vectorial_ricci(n)
        errs[n] = float(np.abs(direct - _trace_form(alg, n**3 - 2.5 * n, 2.5 - n**2)).max())
        flagged[n] = _battery_flags(n, "Ricci equals the published u(n) closed form")
    gate("criterion 6: u(n) Ricci equals 1/2((2n^3-5n)trXY + (5-2n^2)trXtrY), n=3..6; "
         "published 1/2((n-4)trXY + (5-2n)trXtrY) flagged",
         max(errs.values()) < TOL and all(flagged.values()),
         f"errs={ {k: f'{v:.2e}' for k, v in errs.items()} }; flagged={flagged}")


def test_c6_n4_degeneracy():
    # At n=4 the corrected form is 54 trXY - (27/2) trX trY: the trXY term
    # does not drop out, so the published -(3/2) trX trY is flagged.
    alg, direct = _vectorial_ricci(4)
    err = float(np.abs(direct - _trace_form(alg, 54, -13.5)).max())
    flagged = _battery_flags(4, "n=4: Ricci equals -(3/2) trX trY")
    gate("criterion 6: u(4) Ricci equals 54 trXY - (27/2) trX trY; "
         "published -(3/2) trX trY flagged", err < TOL and flagged,
         f"err={err:.3e}; flagged={flagged}")


def test_c6_n3_positivity():
    # At n=3 Ric = (39/2) trXY - (13/2) trX trY with trXY = -<X,Y>: it is
    # -39/2 on su(3) and 0 on the centre xi, so Ric <= 0 and the published
    # positivity is flagged.
    alg, direct = _vectorial_ricci(3)
    rng = np.random.default_rng(SEED)
    worst = max(float(x @ direct @ x)
                for x in rng.standard_normal((1000, alg.dim)))
    eig_err = float(np.abs(np.linalg.eigvalsh(direct) - ([-19.5] * 8 + [0.0])).max())
    centre = float(np.abs(direct @ alg.coeffs(1j * np.eye(3))).max())
    flagged = _battery_flags(3, "n=3: Ricci positive on 1000 random directions")
    gate("criterion 6: u(3) Ricci <= 0 on 1000 seeded random directions, "
         "eigenvalues -39/2 (x8) and 0 on xi; published positivity flagged",
         worst <= 0 and eig_err < TOL and centre < TOL and flagged,
         f"max={worst:.3f}; eig err={eig_err:.2e}; centre={centre:.2e}; flagged={flagged}")


# ---------------------------------------------------------------------------
# Criterion 7: Einstein battery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,n", [("su", 2), ("su", 3), ("so", 5)])
def test_c7_einstein_battery_simple(name, n):
    checks = einstein_battery(name, n, [-1.0, 0.5, 1.0, 2.0])
    bad = [c.name for c in checks if not c.passed]
    gate(f"criterion 7: {name}({n}) Einstein, parallel torsion, flat +-1", not bad,
         "; ".join(bad))
    alg = cc.build_algebra(name, n)
    for alpha in (-1.0, 1.0):
        flat = float(np.abs(curvature(alg, cc.bracket_family_map(alg, alpha))).max())
        assert flat < 1e-10


def test_c7_u3_reported_non_einstein():
    alg = cc.build_algebra("u", 3)
    for alpha in (0.5, 2.0):
        rep = cc.einstein_check(alg, cc.bracket_family_map(alg, alpha))
        assert not rep.is_einstein
    # the flat members satisfy the Einstein condition trivially
    for alpha in (-1.0, 1.0):
        rep = cc.einstein_check(alg, cc.bracket_family_map(alg, alpha))
        assert rep.is_einstein and abs(rep.scal) < 1e-12
    gate("criterion 7: u(3) reported non-Einstein for non-flat members", True)


# ---------------------------------------------------------------------------
# Criterion 8: torsion-type projector suite
# ---------------------------------------------------------------------------

def test_c8_projector_suite():
    rng = np.random.default_rng(SEED)
    for d in (4, 5):
        for _ in range(100):
            a = random_a_tensor(d, rng)
            dec = cc.classify_type(a)
            assert np.abs(np.asarray(dec.reassembled()) - a).max() < 1e-9
            assert abs(np.tensordot(dec.a1, dec.a2, axes=3)) < 1e-9
            assert abs(np.tensordot(dec.a1, dec.a3, axes=3)) < 1e-9
            assert abs(np.tensordot(dec.a2, dec.a3, axes=3)) < 1e-9
            for part in (dec.a1, dec.a2, dec.a3):
                again = cc.classify_type(part)
                total = again.a1 if part is dec.a1 else (
                    again.a2 if part is dec.a2 else again.a3)
                assert (total - part).max_abs() < 1e-9
    gate("criterion 8: idempotent, orthogonal, reassembling projectors "
         "(200 seeded tensors, d=4,5)", True)


def test_c8_projector_ranks():
    d = 4
    images = {1: [], 2: [], 3: []}
    for x in range(d):
        for y in range(d):
            for z in range(y + 1, d):
                e = np.zeros((d, d, d))
                e[x, y, z], e[x, z, y] = 1.0, -1.0
                dec = cc.classify_type(e)
                images[1].append(np.asarray(dec.a1).ravel())
                images[2].append(np.asarray(dec.a2).ravel())
                images[3].append(np.asarray(dec.a3).ravel())
    ranks = tuple(int(np.linalg.matrix_rank(np.array(images[k]), tol=1e-9))
                  for k in (1, 2, 3))
    gate("criterion 8: projector ranks (4, 16, 4) at d=4", ranks == (4, 16, 4),
         str(ranks))


def test_c8_torsion_round_trip():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d in (4, 5):
        for _ in range(100):
            t = random_torsion_tensor(d, rng)
            round_trip = np.asarray(torsion_from_a(a_from_torsion(t)))
            worst = max(worst, float(np.abs(round_trip - t).max()))
    gate("criterion 8: torsion <-> difference tensor round trip", worst < 1e-10,
         f"worst={worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 9: derivation suite
# ---------------------------------------------------------------------------

def test_c9_derivation_suite():
    su3 = cc.build_algebra("su", 3)
    u3 = cc.build_algebra("u", 3)
    maps = cc.laquer_basis(u3)
    ok = (cc.derivation_defect(su3, su3.bracket) < 1e-12
          and cc.derivation_defect(u3, np.zeros((9, 9, 9))) < 1e-14
          and cc.derivation_defect(u3, maps["mu4"] - maps["mu5"]) > TOL
          and np.abs(c_tensor(u3, maps["theta"])).max() < 1e-12)
    gate("criterion 9: derivation defects (ad, zero, mu4-mu5) and symmetric C", ok)


def test_c9_derivative_identities_random(matrix_reference):
    su3 = cc.build_algebra("su", 3)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        mu = random_bilinear(8, rng)
        der, _ = matrix_reference(su3, mu)
        worst = max(worst, float(np.abs(der_tensor(su3, mu) - der).max()))
        # (D_Z T) - (D_Z T^c) = C on the join the batteries run, with the
        # dense derivative as its oracle.
        t = cc.torsion(su3, mu)
        lhs = sparse_derivative(mu, t) - sparse_derivative(mu, -su3.bracket)
        dense = covariant_derivative(su3, mu, t) - covariant_derivative(su3, mu, -su3.bracket)
        worst = max(worst, float(np.abs(lhs - dense).max()))
        worst = max(worst, float(np.abs(np.transpose(lhs, (1, 2, 0, 3))
                                        - c_tensor(su3, mu)).max()))
    gate("criterion 9: derivative identities on random maps", worst < TOL,
         f"worst={worst:.2e}")
