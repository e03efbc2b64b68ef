import ast
import dataclasses
import itertools
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from conftest import (a_from_torsion, c_tensor, covariant_derivative, curvature, dense_bracket,
                      dense_classify_type, dense_killing, dense_laquer_basis, dense_metric_defect,
                      dense_ricci, dense_torsion, dense_torsion_type_conditions, der_tensor,
                      is_equivariant, random_a_tensor, random_bilinear, random_torsion_tensor,
                      rescaled_algebra, ricci_skew_path, sparse_derivative, torsion_from_a, u_tensor)

from invconn import _codes
from invconn import conncalc as cc

TOL = 1e-9


@pytest.fixture(scope="module")
def u3():
    return cc.build_algebra("u", 3)


@pytest.fixture(scope="module")
def su3():
    return cc.build_algebra("su", 3)


@pytest.fixture(scope="module")
def laquer(u3):
    return cc.laquer_basis(u3)


def test_build_algebra_examples(u3, su3):
    assert u3.dim == 9
    assert su3.dim == 8
    assert all(abs(np.trace(b)) < 1e-14 for b in su3.basis)
    so5 = cc.build_algebra("so", 5)
    assert so5.dim == 10
    assert so5.closure_residual < 1e-12
    with pytest.raises(cc.AlgebraError):
        cc.build_algebra("sp", 2)
    with pytest.raises(cc.AlgebraError):
        cc.build_algebra("u", 1)


def test_killing_form_un(u3):
    n = 3
    expected = np.zeros((9, 9))
    for i in range(9):
        for j in range(9):
            x, y = u3.basis[i], u3.basis[j]
            expected[i, j] = np.real(2 * n * np.trace(x @ y) - 2 * np.trace(x) * np.trace(y))
    assert np.abs(u3.killing - expected).max() < 1e-12


def test_laquer_basis(u3, laquer):
    assert (laquer["mu1"] - u3.bracket).max_abs() < 1e-14
    # mu5 is rank one in the central direction
    flat = np.asarray(laquer["mu5"]).reshape(81, 9)
    assert np.linalg.matrix_rank(flat, tol=1e-10) == 1
    xi = u3.coeffs(1j * np.eye(3))
    residual = flat - np.outer(flat @ xi, xi) / (xi @ xi)
    assert np.abs(residual).max() < 1e-12
    # nu vanishes whenever both arguments are traceless
    nu = np.asarray(laquer["nu"])
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(9)
        y = rng.standard_normal(9)
        x -= (x @ xi) / (xi @ xi) * xi
        y -= (y @ xi) / (xi @ xi) * xi
        assert np.abs(np.einsum("ijk,i,j->k", nu, x, y)).max() < 1e-12
    su3 = cc.build_algebra("su", 3)
    with pytest.raises(cc.AlgebraError):
        cc.laquer_basis(su3)


def test_equivariance(u3, laquer):
    for key in ("mu1", "mu2", "mu3", "mu4", "mu5", "mu6"):
        ok, defect = is_equivariant(u3, laquer[key])
        assert ok, (key, defect)
    ok, _ = is_equivariant(u3, np.zeros((9, 9, 9)))
    assert ok
    rng = np.random.default_rng(2)
    ok, defect = is_equivariant(u3, random_bilinear(9, rng))
    assert not ok and defect > 0.1


def test_metricity(u3, laquer):
    assert cc.is_metric(u3, laquer["mu4"] - laquer["mu5"])[0]
    assert not cc.is_metric(u3, laquer["nu"])[0]
    assert not cc.is_metric(u3, laquer["theta"])[0]
    assert cc.is_metric(u3, cc.levi_civita_map(u3))[0]
    # metricity == skewness of Lambda(X) == parallel metric tensor
    eye = np.eye(9)
    for key, mu in laquer.items():
        by_defect = cc.metric_defect(u3, mu) < TOL
        dg = covariant_derivative(u3, mu, eye, vector_valued=False)
        assert by_defect == (np.abs(dg).max() < TOL), key
        assert _close(cc.parallel_metric_defect(u3, mu), np.abs(dg).max()), key


def test_symmetric_map_on_sun_is_not_metric(su3):
    # The invariant symmetric map i(XY+YX - (2/n)tr(XY)Id) on su(n).
    n = 3
    eta = su3.bilinear_coeffs(
        lambda x, y: 1j * (x @ y + y @ x - (2.0 / n) * np.trace(x @ y) * np.eye(n)))
    assert np.abs(eta - np.transpose(eta, (1, 0, 2))).max() < 1e-12  # symmetric
    ok, _ = is_equivariant(su3, eta)
    assert ok
    assert not cc.is_metric(su3, eta)[0]
    with pytest.raises(cc.TensorShapeError):
        cc.torsion_type_conditions(su3, eta)


def test_torsion_examples(u3, laquer):
    zero = np.zeros((9, 9, 9))
    assert (cc.torsion(u3, zero) + u3.bracket).max_abs() < 1e-14
    assert cc.torsion(u3, cc.levi_civita_map(u3)).max_abs() < 1e-14
    w = laquer["mu4"] - laquer["mu5"]
    assert (cc.torsion(u3, w) - (-laquer["nu"] - u3.bracket)).max_abs() < 1e-12


def test_a_tensor_and_round_trips(u3, laquer):
    zero = np.zeros((9, 9, 9))
    a_c = cc.a_tensor(u3, zero)
    assert (a_c + 0.5 * u3.bracket).max_abs() < 1e-14
    dec = cc.classify_type(a_c)
    assert dec.a1_norm < TOL and dec.a2_norm < TOL and dec.a3_norm > 0.1
    assert cc.a_tensor(u3, cc.levi_civita_map(u3)).max_abs() < 1e-14
    w = laquer["mu4"] - laquer["mu5"]
    assert (cc.a_tensor(u3, w) - a_from_torsion(cc.torsion(u3, w))).max_abs() < 1e-12


def test_classify_type_of_vectorial_member(u3):
    mv = cc.vectorial_metric_map(u3)
    dec = cc.classify_type(cc.a_tensor(u3, mv))
    assert dec.a2_norm < TOL and dec.a3_norm < TOL
    phi_expected = np.array([float(np.real(-1j * np.trace(b))) for b in u3.basis])
    assert np.abs(dec.phi - phi_expected).max() < 1e-12
    assert cc.classify_type(np.zeros((9, 9, 9))).reassembled().max_abs() == 0.0


def test_classify_type_preconditions():
    rng = np.random.default_rng(3)
    with pytest.raises(cc.TensorShapeError):
        cc.classify_type(rng.standard_normal((4, 4, 4)))
    with pytest.raises(cc.TensorShapeError):
        cc.classify_type(rng.standard_normal((4, 4, 3)))


def test_projector_suite_random():
    rng = np.random.default_rng(42)
    for d in (4, 5):
        for _ in range(100):
            a = random_a_tensor(d, rng)
            dec = cc.classify_type(a)
            assert np.abs(np.asarray(dec.reassembled()) - a).max() < 1e-9
            assert abs(np.tensordot(dec.a1, dec.a2, axes=3)) < 1e-9
            assert abs(np.tensordot(dec.a1, dec.a3, axes=3)) < 1e-9
            assert abs(np.tensordot(dec.a2, dec.a3, axes=3)) < 1e-9
            norm2 = dec.a1_norm**2 + dec.a2_norm**2 + dec.a3_norm**2
            assert abs(norm2 - np.linalg.norm(a)**2) < 1e-9
            again = cc.classify_type(dec.a1)
            assert (again.a1 - dec.a1).max_abs() < 1e-9
            assert again.a2_norm < 1e-9 and again.a3_norm < 1e-9


def test_projector_ranks_dimension_4():
    d = 4
    basis = []
    for x in range(d):
        for y in range(d):
            for z in range(y + 1, d):
                e = np.zeros((d, d, d))
                e[x, y, z] = 1.0
                e[x, z, y] = -1.0
                basis.append(e)
    assert len(basis) == d * d * (d - 1) // 2 == 24
    images = {1: [], 2: [], 3: []}
    for e in basis:
        dec = cc.classify_type(e)
        images[1].append(np.asarray(dec.a1).ravel())
        images[2].append(np.asarray(dec.a2).ravel())
        images[3].append(np.asarray(dec.a3).ravel())
    ranks = [int(np.linalg.matrix_rank(np.array(images[k]), tol=1e-9)) for k in (1, 2, 3)]
    assert ranks == [4, 16, 4]


def test_torsion_a_round_trip_random():
    rng = np.random.default_rng(7)
    for d in (4, 5):
        for _ in range(50):
            t = random_torsion_tensor(d, rng)
            assert np.abs(np.asarray(torsion_from_a(a_from_torsion(t))) - t).max() < 1e-10
            a = random_a_tensor(d, rng)
            assert np.abs(np.asarray(a_from_torsion(torsion_from_a(a))) - a).max() < 1e-10


def test_torsion_type_conditions(u3, laquer):
    mv = cc.vectorial_metric_map(u3)
    rep = cc.torsion_type_conditions(u3, mv)
    assert rep.vectorial and not rep.traceless and not rep.skew
    trace_vec = cc.trace_vector(mv)
    assert np.array_equal(trace_vec, np.einsum("iik->k", np.asarray(mv)))
    assert np.abs(trace_vec - 8.0 * u3.coeffs(1j * np.eye(3))).max() < 1e-12
    rep_a = cc.torsion_type_conditions(u3, cc.bracket_family_map(u3, 2.0))
    assert rep_a.skew and rep_a.traceless and not rep_a.vectorial
    rep_g = cc.torsion_type_conditions(u3, cc.levi_civita_map(u3))
    assert rep_g.cyclic and rep_g.traceless


def test_curvature_examples(u3, su3):
    zero = np.zeros((9, 9, 9))
    assert np.abs(curvature(u3, zero)).max() < 1e-14
    assert np.abs(curvature(u3, u3.bracket)).max() < 1e-12
    su2 = cc.build_algebra("su", 2)
    r = curvature(su2, cc.levi_civita_map(su2))
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        sect = float(np.einsum("xyzk,x,y,z,k->", r, x, y, y, x))
        br = np.einsum("xyk,x,y->k", su2.bracket, x, y)
        assert abs(sect - 0.25 * br @ br) < 1e-10
        assert sect >= -1e-12


def test_ricci_calibration(u3, su3):
    rep = cc.ricci(u3, cc.levi_civita_map(u3))
    assert np.abs(rep.ricci + 0.25 * u3.killing).max() < 1e-12
    rep = cc.ricci(su3, cc.levi_civita_map(su3))
    assert np.abs(rep.ricci + 0.25 * su3.killing).max() < 1e-12
    assert np.abs(rep.ric_sym + rep.ric_alt - rep.ricci).max() < 1e-14


def test_two_path_vectorial_ricci(u3):
    mv = cc.vectorial_metric_map(u3)
    xi = u3.coeffs(1j * np.eye(3))
    direct = cc.ricci_matrix(u3, mv)
    ric_g = cc.ricci_matrix(u3, cc.levi_civita_map(u3))
    formula = cc.vectorial_ricci(u3, xi, ric_g)
    assert np.abs(direct - formula).max() < TOL
    # commutators are traceless, so the bracket term vanishes for this xi
    assert np.abs(np.einsum("xyk,k->xy", u3.bracket, xi)).max() < 1e-14
    assert np.abs(formula - formula.T).max() < 1e-12
    with pytest.raises(cc.TensorShapeError):
        cc.vectorial_ricci(u3, np.zeros(9), ric_g)


def test_ricci_skew_path(su3):
    for alpha in (0.5, 1.0, 2.0):
        t = -alpha * su3.bracket  # alpha times the canonical torsion
        via_lemma = ricci_skew_path(su3, t)
        direct = cc.ricci_matrix(su3, cc.bracket_family_map(su3, alpha))
        assert np.abs(via_lemma - direct).max() < TOL
    ric_g = cc.ricci_matrix(su3, cc.levi_civita_map(su3))
    assert np.abs(ricci_skew_path(su3, np.zeros((8, 8, 8))) - ric_g).max() < 1e-12
    # the invariant 3-form has vanishing co-differential
    dt = covariant_derivative(su3, cc.levi_civita_map(su3), su3.bracket, vector_valued=False)
    assert np.abs(np.einsum("iixy->xy", dt)).max() < 1e-12
    with pytest.raises(cc.TensorShapeError):
        ricci_skew_path(su3, np.ones((8, 8, 8)))


def test_derivation_examples(u3, su3, laquer):
    assert cc.derivation_defect(su3, su3.bracket) < 1e-12
    assert cc.derivation_defect(u3, np.zeros((9, 9, 9))) < 1e-14
    assert cc.derivation_defect(u3, laquer["mu4"] - laquer["mu5"]) > 0.1


def test_covariant_derivative_identities(u3, su3, laquer, matrix_reference):
    rng = np.random.default_rng(42)
    mu = random_bilinear(8, rng)
    # der and the equivariance defect against commutators of matrices, for
    # random maps and the Laquer maps.
    cases = [(su3, mu), (u3, random_bilinear(9, rng))]
    cases += [(u3, laquer[key]) for key in sorted(laquer)]
    for alg, m in cases:
        der, eq = matrix_reference(alg, m)
        assert np.abs(der_tensor(alg, m) - der).max() < 1e-12
        eq_max = float(np.sqrt((eq * eq).sum(axis=3)).max())
        assert abs(cc.equivariance_defect(alg, m) - eq_max) < 1e-12
    # (D_Z T) - (D_Z T^c) = C for arbitrary maps, on the join the batteries
    # run, with the dense derivative as its oracle.
    t = cc.torsion(su3, mu)
    lhs = sparse_derivative(mu, t) - sparse_derivative(mu, -su3.bracket)
    assert _close(lhs, covariant_derivative(su3, mu, t) - covariant_derivative(su3, mu, -su3.bracket))
    assert np.abs(np.transpose(lhs, (1, 2, 0, 3)) - c_tensor(su3, mu)).max() < 1e-9


def test_constructor_checks_closure(su3):
    # Without any one of the su(3) elements, some commutator leaves the span.
    # The residual in the message is the dense oracle's.
    for k in range(8):
        basis = np.delete(su3.basis, k, axis=0)
        _, residual, _ = dense_bracket(basis)
        with pytest.raises(cc.AlgebraError, match=re.escape(f"not closed under the bracket ({residual:.2e})")):
            cc.MatrixAlgebra("su3-minus-one", 3, basis)
    # su(2) in the top-left block is closed, and so is any rescaling of su(3).
    su2 = cc.MatrixAlgebra("su2-block", 3, [su3.basis[0], su3.basis[2], su3.basis[3]])
    assert su2.closure_residual < 1e-12
    # Antisymmetry needs no check: comm is antisymmetric and coeffs is linear.
    assert (su2.bracket + su2.bracket.transpose((1, 0, 2))).max_abs() == 0.0
    rng = np.random.default_rng(3)
    assert rescaled_algebra(su3, rng.uniform(0.5, 2.0, 8)).closure_residual < 1e-11


def test_closure_check_is_relative_to_the_bracket_scale(su3):
    # Commutators grow with the square of the scale, and so does their
    # rounding: at scale 1e4 the residual is about 1e-8, which an absolute
    # 1e-11 would reject.
    for scale in (1e3, 1e4):
        alg = rescaled_algebra(su3, [scale] * 8)
        assert (alg.bracket - scale * su3.bracket).max_abs() < 1e-9 * scale
        comm_max = max(np.abs(x @ y - y @ x).max() for x in alg.basis for y in alg.basis)
        assert alg.closure_residual <= 1e-11 * comm_max


def test_rescaled_algebra_coefficients(su3, matrix_reference):
    alg = rescaled_algebra(su3, np.linspace(1.0, 2.0, 8))
    rng = np.random.default_rng(4)
    for v in (np.arange(8.0), rng.standard_normal(8)):
        assert np.abs(alg.coeffs(alg.matrix(v)) - v).max() < 1e-12
    comm = alg.bilinear_coeffs(lambda x, y: x @ y - y @ x)
    assert np.abs(comm - np.asarray(alg.bracket)).max() < 1e-12
    # With matrix/coeffs consistent, the matrix-level reference applies too.
    mu = random_bilinear(8, rng)
    der, _ = matrix_reference(alg, mu)
    assert np.abs(der_tensor(alg, mu) - der).max() < 1e-10


def _gram_rank(basis) -> int:
    """The SVD reference: numpy's rank of the Gram matrix of -Re tr."""
    basis = np.asarray(basis)
    return int(np.linalg.matrix_rank(-np.real(np.einsum("iab,jba->ij", basis, basis))))


def test_independence_is_read_from_the_inverse_gram_matrix(su3):
    # Gram matrices singular exactly or within rounding (`inv` raises), of
    # condition 1e18, or with a NaN entry (the norm check) all reject.  The
    # NaN basis makes the SVD reference itself fail to converge.
    near = su3.basis.copy()
    near[-1] = (su3.basis[0] + su3.basis[1]) / np.sqrt(2) + 1e-15 * su3.basis[7]
    nan = su3.basis.copy()
    nan[2, 0, 1] = np.nan
    for basis in ([su3.basis[0]] * 8, near, nan):
        with pytest.raises(cc.AlgebraError, match="not linearly independent"):
            cc.MatrixAlgebra("dependent", 3, basis)
    with pytest.raises(cc.AlgebraError, match="not linearly independent"):
        rescaled_algebra(su3, np.geomspace(1, 1e-9, 8))
    with pytest.raises(np.linalg.LinAlgError):
        _gram_rank(nan)
    # Orthogonal mixes of the so(5) basis build, with the reference's rank d.
    so5 = cc.build_algebra("so", 5)
    for seed in range(4):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((10, 10)))
        mix = np.einsum("ij,jab->iab", q, so5.basis)
        assert cc.MatrixAlgebra("so5-mix", 5, mix).dim == _gram_rank(mix) == 10
    # Mixes of Gram condition 1e16 and beyond have the reference's rank
    # below d, and the check rejects them all.
    for k in range(8, 12):
        rng = np.random.default_rng(k)
        q1, q2 = (np.linalg.qr(rng.standard_normal((10, 10)))[0] for _ in range(2))
        mix = np.einsum("ij,jab->iab", q1 @ np.diag(np.geomspace(1, 10.0**-k, 10)) @ q2, so5.basis)
        assert _gram_rank(mix) < 10
        with pytest.raises(cc.AlgebraError, match="not linearly independent"):
            cc.MatrixAlgebra("so5-mix", 5, mix)


def test_coeffs_of_a_stack(u3):
    rng = np.random.default_rng(6)
    stack = np.einsum("pqi,iab->pqab", rng.standard_normal((4, 5, 9)), u3.basis)
    per_element = np.array([[u3.coeffs(m) for m in row] for row in stack])
    assert u3.coeffs(stack).shape == (4, 5, 9)
    assert np.abs(u3.coeffs(stack) - per_element).max() < 1e-14


def test_skew_map_derivative_identity(su3):
    # For skew maps: D_Z T = 2 R(Z,X)Y + 2 Lambda(Y)(Lambda(Z)X - [Z,X]) - der.
    rng = np.random.default_rng(11)
    for _ in range(5):
        mu = random_bilinear(8, rng, skew=True)
        t = cc.torsion(su3, mu)
        dt = covariant_derivative(su3, mu, t)  # [z,x,y,k]
        r = curvature(su3, mu)
        lam_term = (np.einsum("ypq,zxp->zxyq", mu, mu)
                    - np.einsum("ypq,zxp->zxyq", mu, su3.bracket))
        rhs = 2 * r + 2 * lam_term - np.transpose(der_tensor(su3, mu), (2, 0, 1, 3))
        assert np.abs(dt - rhs).max() < 1e-9


def test_c_tensor_examples(u3, su3, laquer):
    assert np.abs(c_tensor(u3, laquer["theta"])).max() < 1e-12  # symmetric map
    assert np.abs(c_tensor(su3, su3.bracket)).max() < 1e-11  # twice the Jacobiator
    rng = np.random.default_rng(5)
    mu = random_bilinear(8, rng, skew=True)
    cyc = (np.einsum("yzp,xpk->xyzk", mu, mu)
           + np.einsum("zxp,ypk->xyzk", mu, mu)
           + np.einsum("xyp,zpk->xyzk", mu, mu))
    assert np.abs(c_tensor(su3, mu) - 2 * cyc).max() < 1e-10


def test_parallel_torsion_of_bracket_family(su3):
    for alpha in (-1.0, 0.5, 1.0, 2.0):
        mu = cc.bracket_family_map(su3, alpha)
        t = cc.torsion(su3, mu)
        assert (t - (-alpha) * su3.bracket).max_abs() < 1e-12
        assert np.abs(covariant_derivative(su3, mu, t)).max() < 1e-12


def test_u_tensor(u3):
    assert np.abs(u_tensor(u3)).max() < 1e-14
    su2 = cc.build_algebra("su", 2)
    assert np.abs(u_tensor(su2)).max() < 1e-14
    skewed = rescaled_algebra(su2, [2.0, 1.0, 1.0])
    assert np.abs(u_tensor(skewed)).max() > 0.1
    u = u_tensor(skewed)
    assert np.abs(u - np.transpose(u, (1, 0, 2))).max() < 1e-14  # symmetric
    # abelian algebra: every bracket vanishes, hence U = 0
    diag = [np.diag([1j, 0.0]), np.diag([0.0, 1j])]
    abelian = cc.MatrixAlgebra("t2", 2, diag)
    assert np.abs(u_tensor(abelian)).max() == 0.0


def test_einstein_check(u3, su3):
    so5 = cc.build_algebra("so", 5)
    for alg in (su3, so5):
        for alpha in (-1.0, 0.5, 1.0, 2.0):
            rep = cc.einstein_check(alg, cc.bracket_family_map(alg, alpha))
            assert rep.is_einstein, (alg.name, alpha, rep.residual)
    su2 = cc.build_algebra("su", 2)
    rep = cc.einstein_check(su2, cc.levi_civita_map(su2))
    assert rep.is_einstein and rep.scal > 0
    for alpha in (0.5, 2.0):
        rep = cc.einstein_check(u3, cc.bracket_family_map(u3, alpha))
        assert not rep.is_einstein
    with pytest.raises(cc.TensorShapeError):
        cc.einstein_check(u3, cc.laquer_basis(u3)["nu"])


def test_flat_connections(u3, su3):
    for alg in (u3, su3):
        for alpha in (-1.0, 1.0):
            mu = cc.bracket_family_map(alg, alpha)
            assert np.abs(curvature(alg, mu)).max() < 1e-10


# ---------------------------------------------------------------------------
# O(d^3) battery paths against the full-tensor oracles
# ---------------------------------------------------------------------------

def _o3_algebras():
    su3 = cc.build_algebra("su", 3)
    return [cc.build_algebra("u", 3), su3, cc.build_algebra("so", 5),
            rescaled_algebra(su3, np.linspace(1.0, 2.0, 8))]


def _close(a, b, rel=1e-12):
    return np.abs(np.asarray(a) - b).max() <= rel * max(1.0, float(np.abs(b).max()))


def test_ricci_matrix_equals_the_curvature_contraction():
    rng = np.random.default_rng(21)
    for alg in _o3_algebras():
        for mu in (random_bilinear(alg.dim, rng), cc.levi_civita_map(alg)):
            full = np.einsum("exye->xy", curvature(alg, mu))
            assert _close(cc.ricci_matrix(alg, mu), full), alg.name
            assert _close(dense_ricci(np.asarray(alg.bracket), np.asarray(mu)), full), alg.name


def test_ricci_skew_path_equals_the_derivative_trace():
    rng = np.random.default_rng(23)
    for alg in _o3_algebras():
        raw = rng.standard_normal((alg.dim,) * 3)
        t = sum(sign * np.transpose(raw, perm) for perm, sign in (
            ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
            ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)))
        dt = covariant_derivative(alg, cc.levi_civita_map(alg), t, vector_valued=False)
        delta = -np.einsum("iixy->xy", dt)
        ric_g = cc.ricci_matrix(alg, cc.levi_civita_map(alg))
        full = ric_g - 0.25 * np.einsum("ixk,iyk->xy", t, t) - 0.5 * delta
        assert _close(ricci_skew_path(alg, t), full), alg.name


def _slot_only(mu, f):
    """The scalar-valued derivative of F along mu by its slot terms alone,
    one batched matrix product per slot: mu[z,x,q] f[a,q,b] comes out as
    [z,a,x,b]."""
    d = mu.shape[1]
    out = np.zeros((len(mu),) + f.shape)
    for slot in range(f.ndim):
        out -= np.matmul(mu[:, None], f.reshape(d ** slot, d, -1)[None]).reshape(out.shape)
    return out


def _kernel_cases(alg, mu):
    """(Lambda list, F, reduce, defect, full-tensor oracle) for every check
    that reduces through `_max_derivative`, with mu, F and every Lambda as
    Coo.  The curvature and the metric derivative have oracles of their own,
    `curvature` and `_slot_only`."""
    mu = cc._coo(mu)
    t, eye = cc.torsion(alg, mu), np.eye(alg.dim)
    cases = [(lam, f, reduce, defect, covariant_derivative(alg, lam, f)) for lam, f, reduce, defect in (
        (alg.bracket, mu, cc._max_slot_norm, cc.equivariance_defect),
        (mu, alg.bracket, cc._max_slot_norm, cc.derivation_defect),
        (mu, t, cc._max_abs, lambda alg, mu: cc.parallel_defect(alg, mu, t)))]
    return [(cc._along(lam, 3), f, reduce, defect, full) for lam, f, reduce, defect, full in cases] + [
        ([alg.bracket, mu, -mu.transpose((0, 2, 1))], mu, cc._max_abs, cc.flatness_defect,
         curvature(alg, mu)),
        ([mu, mu], cc._coo(eye), cc._max_abs, cc.parallel_metric_defect,
         _slot_only(np.asarray(mu), eye))]


@pytest.mark.parametrize("rows_per_block", [1, 3, None])
def test_blocked_defects_equal_the_full_tensor(monkeypatch, rows_per_block):
    # Three rows per block leaves a partial last block for d = 8, 10 and
    # divides d = 9; None keeps the default, one block at these sizes.
    rng = np.random.default_rng(22)
    blocks, kernel = [], cc._derivative
    monkeypatch.setattr(cc, "_derivative", lambda lams, f: blocks.append(len(lams[0])) or kernel(lams, f))
    for alg in _o3_algebras():
        d = alg.dim
        rows = rows_per_block or d
        mu = random_bilinear(d, rng)
        t = cc.torsion(alg, mu)
        assert _close(np.concatenate([covariant_derivative(alg, mu[z:z + rows], t)
                                      for z in range(0, d, rows)]),
                      covariant_derivative(alg, mu, t))
        for lams, f, reduce, defect, full in _kernel_cases(alg, mu):
            where = (alg.name, defect.__name__)
            if rows_per_block is not None:
                monkeypatch.setattr(cc, "_BLOCK_ENTRIES", rows_per_block * d ** f.ndim)
            blocks.clear()
            assert _close(cc._max_dense_derivative(alg, lams, f, reduce), reduce(full)), where
            assert blocks == [rows] * (d // rows) + [d % rows] * (d % rows > 0), where
            assert _close(defect(alg, mu), reduce(full)), where
        assert _close(cc.derivation_defect(alg, mu), cc._max_slot_norm(der_tensor(alg, mu)))
        assert cc.flatness_defect(alg, alg.bracket) < 1e-12


def test_laquer_basis_equals_the_matrix_maps():
    for alg in (cc.build_algebra("u", 3), cc.build_algebra("u", 4),
                rescaled_algebra(cc.build_algebra("u", 3), np.linspace(1.0, 2.0, 9))):
        eye = np.eye(alg.n)
        oracle = {
            "mu1": lambda x, y: x @ y - y @ x,
            "mu2": lambda x, y: 1j * (x @ y + y @ x),
            "mu3": lambda x, y: 1j * np.trace(x) * y,
            "mu4": lambda x, y: 1j * np.trace(y) * x,
            "mu5": lambda x, y: 1j * np.trace(x @ y) * eye,
            "mu6": lambda x, y: 1j * np.trace(x) * np.trace(y) * eye,
        }
        maps, closed_form = cc.laquer_basis(alg), dense_laquer_basis(alg)
        for key, f in oracle.items():
            assert np.abs(np.asarray(maps[key]) - alg.bilinear_coeffs(f)).max() < 1e-12, (alg.name, key)
        for key, mu in closed_form.items():
            assert _close(np.asarray(maps[key]), mu), (alg.name, key)
        assert np.array_equal(cc.vectorial_metric_map(alg, maps), cc.vectorial_metric_map(alg))


# ---------------------------------------------------------------------------
# The nonzero engine against the dense oracles
# ---------------------------------------------------------------------------

ORACLE_ALGEBRAS = [(name, n) for name in ("u", "su", "so") for n in range(3, 7)] + [("su-rescaled", 3)]


def _oracle_algebra(name, n):
    if name == "su-rescaled":
        return rescaled_algebra(cc.build_algebra("su", n), np.linspace(1.0, 2.0, n * n - 1))
    return cc.build_algebra(name, n)


def _oracle_maps(alg, rng):
    """Bracket-family members, the Laquer maps on u(n), and random maps:
    masked to about 5 % of the entries and fully dense, general and metric
    (skew in the last two slots)."""
    d = alg.dim
    maps = {f"alpha={alpha:g}": cc.bracket_family_map(alg, alpha) for alpha in (-1.0, 0.5, 2.0)}
    if alg.name.startswith("u("):
        maps.update(cc.laquer_basis(alg))
        maps["vectorial"] = cc.vectorial_metric_map(alg)
    mask = rng.random((d, d, d)) < 0.05
    maps["masked"] = random_bilinear(d, rng) * mask
    maps["masked metric"] = random_a_tensor(d, rng) * (mask | np.transpose(mask, (0, 2, 1)))
    maps["dense"] = random_bilinear(d, rng)
    maps["dense metric"] = random_a_tensor(d, rng)
    return maps


@pytest.mark.parametrize("name, n", ORACLE_ALGEBRAS)
def test_algebra_build_equals_the_dense_products(name, n):
    alg = _oracle_algebra(name, n)
    bracket, residual, comm_max = dense_bracket(alg.basis)
    assert isinstance(alg.bracket, cc.Coo)
    assert _close(np.asarray(alg.bracket), bracket)
    assert _close(alg.killing, dense_killing(bracket))
    # Both residuals are rounding noise on a closed span.
    assert max(alg.closure_residual, residual) <= 1e-14 * max(1.0, comm_max)


@pytest.mark.parametrize("name, n", ORACLE_ALGEBRAS)
def test_functionals_equal_the_dense_oracles(name, n):
    alg = _oracle_algebra(name, n)
    bracket = np.asarray(alg.bracket)
    # The type split needs a skew difference tensor, so a bi-invariant metric.
    bi_invariant = dense_metric_defect(bracket) < TOL
    rng = np.random.default_rng(41 + n)
    for key, mu in _oracle_maps(alg, rng).items():
        where = (alg.name, key)
        coo, full = cc._coo(mu), np.asarray(mu)
        defect = cc.metric_defect(alg, coo)
        assert _close(defect, dense_metric_defect(full)), where
        assert _close(np.asarray(cc.torsion(alg, coo)), dense_torsion(bracket, full)), where
        ricci = cc.ricci_matrix(alg, coo)
        assert _close(ricci, dense_ricci(bracket, full)), where
        # A dense map is the same tensor with more nonzeros.
        assert np.array_equal(cc.ricci_matrix(alg, full), ricci), where
        if defect >= TOL or not bi_invariant:
            continue
        dec = cc.classify_type(cc.a_tensor(alg, coo))
        for got, want in zip((dec.phi, dec.a1, dec.a2, dec.a3), dense_classify_type(full - 0.5 * bracket)):
            assert _close(np.asarray(got), want), where
        got, want = cc.torsion_type_conditions(alg, coo), dense_torsion_type_conditions(bracket, full, TOL)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, cc.TypeDecomposition):  # phi, a1, a2 and a3 in one array
                a, b = (np.concatenate([x.phi, *(np.asarray(t).ravel() for t in (x.a1, x.a2, x.a3))])
                        for x in (a, b))
            assert a == b if isinstance(b, bool) else _close(a, b), (where, field.name)


def test_coo_arithmetic_equals_the_dense_arithmetic():
    rng = np.random.default_rng(43)
    d = 5
    a, b = (random_bilinear(d, rng) * (rng.random((d, d, d)) < 0.3) for _ in range(2))
    ca, cb = cc._coo(a), cc._coo(b)
    assert np.array_equal(np.asarray(ca), a)
    for got, want in ((-ca, -a), (ca + cb, a + b), (ca - cb, a - b), (ca - ca, 0 * a),
                      (2.5 * ca, 2.5 * a), (ca * np.float64(-3), -3 * a), (ca / 3.0, a / 3.0)):
        assert isinstance(got, cc.Coo) and np.array_equal(np.asarray(got), want)
        assert np.all(np.diff(got.codes) > 0) and np.all(got.vals != 0)
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(np.asarray(ca.transpose(perm)), np.transpose(a, perm)), perm
    assert ca.max_abs() == np.abs(a).max() and _close(ca.norm(), np.linalg.norm(a))
    # Entries in any order: duplicates are summed in the order given, zeros dropped.
    t = cc.Coo((2, 3), [4, 1, 4, 0, 1], [1.0, 2.0, 0.5, 0.0, -2.0])
    assert t.codes.tolist() == [4] and t.vals.tolist() == [1.5]
    with pytest.raises(TypeError):
        np.abs(ca)
    with pytest.raises(TypeError):
        ca + a


def test_build_algebra_refuses_sizes_over_the_limit():
    for name, n in (("su", 40), ("u", 30), ("u", 15), ("so", 19)):
        with pytest.raises(cc.AlgebraError, match="MiB limit"):
            cc.build_algebra(name, n)
    # The largest accepted sizes stay within the limit.
    assert cc._largest_array_bytes(14 * 14, 14) <= cc.MAX_ARRAY_BYTES
    assert cc._largest_array_bytes(18 * 17 // 2, 18) <= cc.MAX_ARRAY_BYTES


# ---------------------------------------------------------------------------
# The sparse derivative path against the dense blocks
# ---------------------------------------------------------------------------

def _sparse_algebras():
    su3 = cc.build_algebra("su", 3)
    return [cc.build_algebra("u", n) for n in (3, 4, 5, 6)] + [
        cc.build_algebra("su", 4), cc.build_algebra("so", 5),
        rescaled_algebra(su3, np.linspace(1.0, 2.0, 8))]


def _masked(rng, d, density):
    """A random 3-tensor restricted to a random sparsity mask."""
    return random_bilinear(d, rng) * (rng.random((d, d, d)) < density)


def _derivative_blocks(lams, f):
    """The exact product count of each Z row and the sparse path's blocks."""
    return _rows_and_blocks(cc._derivative_terms(lams, f))


def _rows_and_blocks(terms):
    """The exact product count of each row of a join and its blocks."""
    shape, total, joins = cc._einsum_blocks(terms)
    assert total == cc._row_products(joins, shape).sum()
    return cc._row_products(joins, shape), cc._join_blocks(joins, total, shape)


def _sparse_full(lams, f):
    """The full derivative rebuilt from the sparse path's (code, value) pairs."""
    d = f.shape[0]
    full = np.zeros(d ** (f.ndim + 1))
    for codes, vals in _derivative_blocks(lams, f)[1]:
        assert np.all(np.diff(codes) > 0)  # sorted and distinct
        full[codes] = vals
    return full.reshape((d,) + f.shape)


def _no_dense_path(*args):
    raise AssertionError("the dense path ran")


def test_sparse_path_equals_the_dense_blocks(monkeypatch):
    dense, default = cc._max_dense_derivative, cc._BLOCK_PRODUCTS
    monkeypatch.setattr(cc, "_max_dense_derivative", _no_dense_path)
    rng = np.random.default_rng(31)
    split = []
    for alg in _sparse_algebras():
        d = alg.dim
        maps = dict(cc.laquer_basis(alg)) if alg.name.startswith("u(") else {}
        maps["bracket"] = alg.bracket
        for density in (0.02, 0.05):
            maps[f"masked {density}"] = _masked(rng, d, density)
        for key, mu in maps.items():
            for lams, f, reduce, defect, full in _kernel_cases(alg, mu):
                where = (alg.name, key, defect.__name__)
                expect = dense(alg, lams, f, reduce)
                assert _close(expect, reduce(full)), where
                # The default target keeps the smaller derivatives in one
                # block and splits the larger ones (`split`); blocks of the
                # largest row's products end inside every derivative.
                rows = _derivative_blocks(lams, f)[0]
                for block in (default, int(rows.max())):
                    monkeypatch.setattr(cc, "_BLOCK_PRODUCTS", block)
                    nblocks = len(list(_derivative_blocks(lams, f)[1]))
                    assert (nblocks > 1) == (block < rows.sum()), where
                    if block == default:
                        split.append(nblocks > 1)
                    assert _close(defect(alg, mu), expect), where
                    assert _close(_sparse_full(lams, f), full), where
                # Below one row's products every row with products is a block
                # of its own, and the einsum concatenates them.
                monkeypatch.setattr(cc, "_BLOCK_PRODUCTS", 0)
                assert len(list(_derivative_blocks(lams, f)[1])) == np.count_nonzero(rows), where
                assert _close(np.asarray(cc._einsum_sum(cc._derivative_terms(lams, f))), full), where
    assert any(split) and not all(split)


def test_flatness_of_the_bracket_takes_the_sparse_path(monkeypatch):
    monkeypatch.setattr(cc, "_max_dense_derivative", _no_dense_path)
    for name, n in (("su", 4), ("so", 5), ("u", 3)):
        alg = cc.build_algebra(name, n)
        # alpha = -1 (the bracket) and alpha = 1 (zero): flat by Jacobi, and
        # without a single product.
        assert cc.flatness_defect(alg, cc.bracket_family_map(alg, -1.0)) < 1e-12
        assert cc.flatness_defect(alg, cc.bracket_family_map(alg, 1.0)) == 0.0
        assert cc.flatness_defect(alg, cc.levi_civita_map(alg)) > 0.1


def test_sparse_path_gives_zero_for_a_zero_derivative(monkeypatch):
    monkeypatch.setattr(cc, "_max_dense_derivative", _no_dense_path)
    rng = np.random.default_rng(32)
    for alg in _sparse_algebras():
        d = alg.dim
        zero = np.zeros((d, d, d))
        # No products at all: a zero map, or the flat member alpha = 1.
        assert cc.equivariance_defect(alg, zero) == 0.0
        assert cc.derivation_defect(alg, zero) == 0.0
        assert cc.parallel_metric_defect(alg, zero) == 0.0
        flat = cc.bracket_family_map(alg, 1.0)
        assert cc.parallel_defect(alg, flat, cc.torsion(alg, flat)) == 0.0
        # Products that cancel exactly: Lambda(Z) = Id leaves a vector-valued
        # 1-form F unchanged, so D_Z F = F - F.
        ident = cc._coo(np.broadcast_to(np.eye(d), (d, d, d)))
        f = cc._coo(rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.2))
        assert _derivative_blocks(cc._along(ident, 2), f)[0].sum() > 0
        assert cc.parallel_defect(alg, ident, f) == 0.0
        assert cc._max_derivative(alg, cc._along(ident, 2), f, cc._max_slot_norm) == 0.0


def test_blocks_whose_sums_all_cancel_reduce_to_zero(monkeypatch):
    # Lambda = m - m^T is skew in its last two slots, so every entry of the
    # derivative of the metric cancels.  With one row per block, the blocks
    # of five dense z slices of m are summed densely (the sixth also spans
    # the empty rows and is sorted), every block is empty once its zeros are
    # dropped, and an empty block reduces to 0.0.
    monkeypatch.setattr(cc, "_max_dense_derivative", _no_dense_path)
    alg = cc.build_algebra("u", 4)
    d = alg.dim
    a = np.zeros((d, d, d))
    a[:6] = np.random.default_rng(34).standard_normal((6, d, d))
    m = cc.Coo.from_dense(a)
    skew = m - m.transpose((0, 2, 1))
    lams, f = [skew, skew], cc._identity(d)
    rows = _derivative_blocks(lams, f)[0]
    monkeypatch.setattr(cc, "_BLOCK_PRODUCTS", int(rows.max()))
    dense = []
    real = _codes.sum_by_code
    monkeypatch.setattr(cc, "sum_by_code", lambda blocks, size, terms, start=0:
                        dense.append(size <= terms) or real(blocks, size, terms, start))
    assert [len(codes) for codes, _ in _derivative_blocks(lams, f)[1]] == [0] * 6
    assert dense == [True] * 5 + [False]
    for reduce in (cc._max_abs, cc._max_slot_norm):
        assert cc._max_derivative(alg, lams, f, reduce) == 0.0
        assert cc._reduce_sparse(np.zeros(0, dtype=np.int64), np.zeros(0), d, reduce) == 0.0
    assert cc.parallel_metric_defect(alg, skew) == 0.0


def test_dense_maps_keep_the_dense_path(monkeypatch):
    def no_sparse_path(*args):
        raise AssertionError("the sparse path ran")
        yield

    rng = np.random.default_rng(33)
    cases = []
    for alg in _sparse_algebras():
        mu = random_bilinear(alg.dim, rng)
        cases.append((alg, mu, cc.equivariance_defect(alg, mu), cc.derivation_defect(alg, mu),
                      cc.parallel_defect(alg, mu, cc.torsion(alg, mu)), cc.flatness_defect(alg, mu),
                      cc.parallel_metric_defect(alg, mu)))
    monkeypatch.setattr(cc, "_join_blocks", no_sparse_path)
    for alg, mu, eq, der, par, flat, metric in cases:
        assert cc.equivariance_defect(alg, mu) == eq
        assert cc.derivation_defect(alg, mu) == der
        assert cc.parallel_defect(alg, mu, cc.torsion(alg, mu)) == par
        assert cc.flatness_defect(alg, mu) == flat
        assert cc.parallel_metric_defect(alg, mu) == metric
        assert _close(eq, cc._max_slot_norm(covariant_derivative(alg, alg.bracket, mu)))


def test_u8_battery_blocks_stay_within_the_block_target(monkeypatch):
    # Every block that `_join_blocks` sums holds at most _BLOCK_PRODUCTS
    # products, or a single row of more.  `sum_by_code` calls made while
    # the blocks generator runs are the blocks' sums: (rows * stride, products).
    from invconn import cli
    real_blocks, real_sum = cc._join_blocks, cc.sum_by_code
    strides, sums, joins = [], [], []

    def join_blocks(*args):
        blocks, stride = real_blocks(*args), math.prod(args[2][1:])
        joins.append(len(sums))
        while True:
            strides.append(stride)
            try:
                block = next(blocks)
            except StopIteration:
                return
            finally:
                strides.pop()
            yield block

    def sum_by_code(parts, size, terms, start=0):
        if strides:
            sums.append((size // strides[-1], terms))
        return real_sum(parts, size, terms, start)

    monkeypatch.setattr(cc, "_join_blocks", join_blocks)
    monkeypatch.setattr(cc, "sum_by_code", sum_by_code)
    cli.un_battery(8)
    assert all(products <= cc._BLOCK_PRODUCTS or rows == 1 for rows, products in sums)
    # Some joins of the battery are split, and their blocks are full.
    assert len(sums) > len(joins)
    assert max(products for _, products in sums) > cc._BLOCK_PRODUCTS // 2


@pytest.mark.parametrize("name,n", [("u", 14), ("su", 14), ("so", 18)])
def test_largest_batteries_stay_under_the_row_cap(monkeypatch, name, n):
    # The largest algebras `build_algebra` accepts: every derivative of
    # their batteries is counted per Z row, no product formed, and no row
    # reaches the cap above which `_max_derivative` goes dense.
    from invconn import cli
    largest = []

    def count_rows(alg, lams, f, reduce):
        shape, total, joins = cc._einsum_blocks(cc._derivative_terms(lams, cc._coo(f)))
        largest.append(int(cc._row_products(joins, shape).max(initial=0)))
        return 0.0

    monkeypatch.setattr(cc, "_max_derivative", count_rows)
    if name == "u":
        cli.un_battery(n)
    cli.einstein_battery(name, n, [-2.0, -1.0, 0.0, 0.5, 1.0])
    assert largest and max(largest) <= cc._MAX_ROW_PRODUCTS


def test_sparse_codes_fit_int64():
    # The derivative of a 19-axis F has 8^20 = 2^60 entries: the term of
    # axis t puts Lambda's a at F's stride on t, and every other axis of F
    # keeps its stride.
    strides = [8 ** k for k in range(18, -1, -1)]
    f, lam = cc.Coo((8,) * 19, [], []), cc.Coo((8,) * 3, [], [])
    for t, (spec, _, _, sign) in enumerate(cc._derivative_terms([lam] * 19, f)):
        _, _, _, (_, lam_code), (_, f_code) = cc._einsum_plan(spec, lam.shape, f.shape)
        assert sign == -1 and lam_code == (8 ** 19, strides[t], 0)
        assert f_code == tuple(0 if axis == t else s for axis, s in enumerate(strides))
    for d, ndim in ((8, 20), (2, 61), (2 ** 31, 1)):
        with pytest.raises(cc.TensorShapeError, match="int64"):
            cc._check_codes((d,) * (ndim + 1))
    with pytest.raises(cc.TensorShapeError, match="int64"):
        cc._einsum_plan("zaq,q->za", (2 ** 31,) * 3, (2 ** 31,))
    # The guard runs before anything the size of F is allocated: this F is
    # a zero-strided view of 2^60 entries.
    su3 = cc.build_algebra("su", 3)
    huge = np.broadcast_to(np.int8(0), (8,) * 20)
    with pytest.raises(cc.TensorShapeError, match="int64"):
        cc.parallel_defect(su3, su3.bracket, huge)


def test_sparse_path_peak_memory_is_at_most_the_dense_one():
    alg = cc.build_algebra("u", 10)
    mu1 = cc.laquer_basis(alg)["mu1"]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sparse = cc.equivariance_defect(alg, mu1)
        sparse_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        dense = cc._max_dense_derivative(alg, cc._along(alg.bracket, 3), mu1, cc._max_slot_norm)
        dense_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sparse < 1e-12 and dense < 1e-12
    assert sparse_peak <= dense_peak


# ---------------------------------------------------------------------------
# The sparse einsum against np.einsum
# ---------------------------------------------------------------------------

SPEC = re.compile(r"[A-Za-z]+,[A-Za-z]+->[A-Za-z]+")


def _module_specs():
    """Every sparse einsum spec of the module: the spec literals of its
    `_einsum` and `_einsum_sum` calls, and the derivative terms of a 1-, 2-
    and 3-axis F."""
    tree = ast.parse(pathlib.Path(cc.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in ("_einsum", "_einsum_sum")]
    specs = {node.value for call in calls for node in ast.walk(call)
             if isinstance(node, ast.Constant) and isinstance(node.value, str) and SPEC.fullmatch(node.value)}
    lam = cc.Coo((2,) * 3, [], [])
    for m in (1, 2, 3):
        specs.update(spec for spec, *_ in cc._derivative_terms([lam] * m, cc.Coo((2,) * m, [], [])))
    return sorted(specs)


def _operands(spec, rng, density=0.4, complex_values=False):
    """Random sparse operands of a spec, each letter of its own size so that
    a mixed-up axis shows."""
    size = {c: 2 + "bcdefghijklmnoprstuvwxyzaq".index(c) % 3 for c in set(spec) - set(",->")}
    ops = []
    for letters in spec.split("->")[0].split(","):
        shape = tuple(size[c] for c in letters)
        x = rng.standard_normal(shape)
        if complex_values:
            x = x + 1j * rng.standard_normal(shape)
        ops.append(x * (rng.random(shape) < density))
    return ops


@pytest.mark.parametrize("block", [None, 1])
def test_einsum_equals_numpy_on_every_module_spec(monkeypatch, block):
    # block = 1 puts each row of the first output letter in its own block.
    if block is not None:
        monkeypatch.setattr(cc, "_BLOCK_PRODUCTS", block)
    specs = _module_specs()
    assert {"iab,jbc->ijac", "ipq,jqp->ij", "xpe,eyp->xy", "i,jk->ijk", "zaq,bqd->zbad"} <= set(specs)
    rng = np.random.default_rng(51)
    for spec in specs:
        for complex_values in (False, True):
            a, b = _operands(spec, rng, complex_values=complex_values)
            got = cc._einsum(spec, cc.Coo.from_dense(a), cc.Coo.from_dense(b))
            want = np.einsum(spec, a, b)
            assert isinstance(got, cc.Coo) and got.shape == want.shape, spec
            assert np.all(np.diff(got.codes) > 0) and np.all(got.vals != 0), spec
            assert _close(np.asarray(got), want), (spec, complex_values)


def test_einsum_signed_sums_and_small_blocks(monkeypatch):
    rng = np.random.default_rng(52)
    # A family of four complex 3 x 3 matrices: products, minus the reversed
    # products (the commutators), plus 2.5 times the products.
    x = (rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))) * (rng.random((4, 3, 3)) < 0.5)
    terms = [("iab,jbc->ijac", x, x, 1), ("ibc,jab->ijac", x, x, -1), ("iab,jbc->ijac", x, x, 2.5)]
    want = sum(sign * np.einsum(spec, x, y) for spec, x, y, sign in terms)
    coo_terms = [(spec, cc.Coo.from_dense(x), cc.Coo.from_dense(y), sign) for spec, x, y, sign in terms]
    expect = cc._einsum_sum(coo_terms)
    assert _close(np.asarray(expect), want)
    # A term minus itself leaves rounding noise at most.
    e = cc.Coo.from_dense(x)
    assert cc._einsum_sum([("iab,jbc->ijac", e, e, 1), ("iab,jbc->ijac", e, e, -1)]).max_abs() < 1e-14
    # Blocks of one product, and of a few: many blocks, the same sum.
    rows, _ = _rows_and_blocks(coo_terms)
    for block in (1, 7):
        monkeypatch.setattr(cc, "_BLOCK_PRODUCTS", block)
        assert len(list(_rows_and_blocks(coo_terms)[1])) > 1
        got = cc._einsum_sum(coo_terms)
        assert np.array_equal(got.codes, expect.codes) and _close(got.vals, expect.vals), block
    # Each product is one nonzero of the product with the contracted b kept.
    assert rows.sum() == sum(np.count_nonzero(np.einsum(spec + "b", x != 0, y != 0))
                             for spec, x, y, _ in terms)


def test_sorted_results_skip_the_sum(monkeypatch):
    # Negation, scalar products, real parts, transposes and the einsum's
    # blocks are sorted already: only a join's blocks are summed by code.
    c = cc.build_algebra("u", 3).bracket
    dense = np.asarray(c)
    calls = []
    real = _codes.sum_by_code
    monkeypatch.setattr(cc, "sum_by_code", lambda *args: calls.append(args[2]) or real(*args))
    for got, want in ((-c, -dense), (2.5 * c, 2.5 * dense), (c * 3, 3 * dense), (c / 4.0, dense / 4.0),
                      (c.real(), dense), (0 * c, 0 * dense), (c.transpose((1, 2, 0)), dense.transpose(1, 2, 0)),
                      (c.transpose((2, 1, 0)), dense.transpose(2, 1, 0))):
        assert np.array_equal(np.asarray(got), want)
        assert np.all(np.diff(got.codes) > 0) and np.all(got.vals != 0)
    assert calls == []
    # A result keeps c's pattern unless a zero was dropped; the bracket is
    # totally skew, so its transposes have c's codes too.
    assert all(t._pattern is c._pattern for t in (-c, 2.5 * c, c / 4.0, c.real(), c.transpose((1, 2, 0))))
    assert (0 * c)._pattern is not c._pattern
    m = cc.Coo.from_dense(dense * (np.random.default_rng(46).random(dense.shape) < 0.5))
    assert m.transpose((1, 0, 2))._pattern is not m._pattern
    assert (-m).transpose((1, 0, 2))._pattern is m.transpose((1, 0, 2))._pattern
    # One sum per block of the join, none for their concatenation.
    for block, nblocks in ((cc._BLOCK_PRODUCTS, 1), (0, 9)):
        monkeypatch.setattr(cc, "_BLOCK_PRODUCTS", block)
        calls.clear()
        got = cc._einsum("ipq,jqp->ij", c, c)
        assert len(calls) == nblocks and _close(got.toarray(), np.einsum("ipq,jqp->ij", dense, dense))


def test_multiples_of_the_bracket_share_its_join_preparation(monkeypatch):
    # mu = s c keeps the pattern of c, so the Ricci matrices of three
    # multiples prepare each join side on c once, in the first call.
    alg = cc.build_algebra("su", 4)
    c = alg.bracket
    builds = []
    for name in ("_left_side", "_right_side"):
        monkeypatch.setattr(cc, name, lambda t, *args, real=getattr(cc, name), name=name:
                            builds.append((name, t._pattern is c._pattern, args)) or real(t, *args))
    counts = []
    for s in (0.25, -1.5, 3.0):
        builds.clear()
        ricci = cc.ricci_matrix(alg, s * c)
        counts.append(sum(on_c for _, on_c, _ in builds))
        assert np.array_equal(ricci, cc.ricci_matrix(alg, np.asarray(s * c)))  # a new pattern, built anew
    assert counts[0] > 0 and counts[1:] == [0, 0]


def test_sums_of_overlapping_patterns_equal_the_dense_sums():
    # A sum of two patterns sums each shared code once; the entries that
    # cancel are dropped, and integers stay exact.
    rng = np.random.default_rng(45)
    shape = (5, 6)
    for scale, dtype in ((0.5, np.float64), (0.5 - 0.25j, np.complex128), (1, np.int64), (2 ** 70, object)):
        a, b = (rng.integers(-3, 4, shape) * (rng.random(shape) < 0.6) for _ in range(2))
        b[a != 0] = np.where(rng.random(shape) < 0.3, -a, b)[a != 0]  # some overlaps cancel
        a, b = (x.astype(object) * scale if dtype is object else x * scale for x in (a, b))
        ca, cb = cc.Coo.from_dense(a), cc.Coo.from_dense(b)
        assert np.intersect1d(ca.codes, cb.codes).size and ca.vals.dtype == dtype
        for got, want in ((ca + cb, a + b), (ca - cb, a - b), (cb + ca, a + b), (ca + ca, a + a), (ca - ca, 0 * a)):
            assert got.vals.dtype == dtype and np.array_equal(np.asarray(got), want), dtype
            assert np.all(np.diff(got.codes) > 0) and np.all(got.vals != 0)


def test_einsum_empty_operands_and_outer_products():
    rng = np.random.default_rng(53)
    t, m = rng.standard_normal(4), rng.standard_normal((3, 5)) * (rng.random((3, 5)) < 0.5)
    empty = cc.Coo((4,), [], [])
    for spec, a, b in (("i,jk->ijk", t, m), ("jk,i->jki", m, t), ("i,j->ij", t, t)):
        got = cc._einsum(spec, cc.Coo.from_dense(a), cc.Coo.from_dense(b))
        assert np.array_equal(np.asarray(got), np.einsum(spec, a, b)), spec
    for got in (cc._einsum("i,jk->ijk", empty, cc.Coo.from_dense(m)),
                cc._einsum("jk,i->jki", cc.Coo.from_dense(m), empty),
                cc._einsum("ij,j->i", cc.Coo((2, 4), [], []), empty)):
        assert len(got.codes) == 0 and np.asarray(got).shape in ((4, 3, 5), (3, 5, 4), (2,))


def test_integer_values_stay_exact(monkeypatch):
    # int64 on both branches of the join's sums, and Python ints beyond the
    # guard, where int64 would wrap: 4e9 squared is over 2^63.
    branches = []
    real = _codes._sorted_sums
    monkeypatch.setattr(_codes, "_sorted_sums", lambda c, v: branches.append(len(c)) or real(c, v))
    a = np.arange(-7, 9).reshape(4, 4)
    small = cc.Coo((50, 50), [0, 2499], [3, -5])
    big = cc.Coo((50, 50), [0, 2499], [4_000_000_000, 5])
    for x, want, dtype, sort in ((cc.Coo.from_dense(a), a @ a, np.int64, False),
                                 (small, np.asarray(small) @ np.asarray(small), np.int64, True),
                                 (big, None, object, True)):
        branches.clear()
        (codes, vals), = _rows_and_blocks([("ij,jk->ik", x, x, 1)])[1]
        assert vals.dtype == dtype and bool(branches) == sort
        got = cc._einsum("ij,jk->ik", x, x)
        assert got.vals.dtype == dtype and got.codes.tolist() == codes.tolist()
        if want is not None:
            assert np.array_equal(np.asarray(got), want)
    assert got.vals.tolist() == [16 * 10 ** 18, 25]
    # Without a product the result still has the dtype the guard picks.
    for value, dtype in ((3, np.int64), (2 ** 40, object)):
        x, y = cc.Coo((2, 2), [0], [value]), cc.Coo((2, 2), [3], [value])
        for a, b, nonzeros in ((x, y, 0), (y, y, 1)):
            got = cc._einsum("ij,jk->ik", a, b)
            assert got.vals.dtype == dtype and len(got.codes) == nonzeros, (value, nonzeros)
    # An integer scalar keeps the values integers, int64 under the guard.
    for scalar, dtype in ((3, np.int64), (np.int64(-2), np.int64), (2 ** 40, object)):
        got = big * scalar
        assert got.vals.dtype == dtype and got.vals.tolist() == [4_000_000_000 * scalar, 5 * scalar]
    assert (big * 0.5).vals.dtype == np.float64 and (2.0 * small).vals.tolist() == [6.0, -10.0]
    # Sums of entries: 2^62 + 2^62 is beyond int64.
    half = cc.Coo((2,), [1], [2 ** 62])
    assert (half + half).vals.tolist() == [2 ** 63] and (half - half).vals.tolist() == []
    assert cc.Coo((2,), [0, 0, 1], [7, -3, 0]).vals.dtype == np.int64


def test_einsum_refuses_ill_formed_specs():
    a, b = cc.Coo((2, 2), [0], [1.0]), cc.Coo((2, 2), [3], [1.0])
    for spec in ("ii,ij->j",      # a repeated letter inside one operand
                 "ij,jk->ijk",    # a contracted letter in the output
                 "ij,kl->ki",     # the first output letter is not one of a's
                 "ij,kl->iik",    # a repeated output letter
                 "ij,kl->ix",     # an output letter of neither operand
                 "i,jk->ijk"):    # a letter per axis
        with pytest.raises(cc.TensorShapeError):
            cc._einsum(spec, a, b)
    with pytest.raises(cc.TensorShapeError, match="sizes"):
        cc._einsum("ij,jk->ik", a, cc.Coo((3, 2), [0], [1.0]))
    with pytest.raises(cc.TensorShapeError, match="one output shape"):
        cc._einsum_sum([("ij,jk->ik", a, b, 1), ("ij,kl->ijkl", a, b, 1)])


def _sums_by_code(call: ast.Call) -> bool:
    """Whether a call sums values by code: `reduceat`, `np.add.at` or a
    weighted `bincount`."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return (name == "reduceat" or (name == "at" and getattr(func.value, "attr", None) == "add")
            or (name == "bincount" and (len(call.args) > 1 or any(k.arg == "weights" for k in call.keywords))))


def test_only_coo_and_the_einsum_compute_flat_codes():
    # Index <-> flat-code conversions stay inside `Coo` and the einsum of
    # `conncalc` and out of `chars`, whose codes all come from `_codes.Box`.
    # Only `_codes` sums by code.
    banned = {"unravel_index", "ravel_multi_index", "divmod"}
    allowed = {"_einsum_blocks"}
    found = []

    def visit(node, where, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if where is None else f"{where}.{child.name}", module)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if (module in ("chars", "conncalc") and name in banned
                        and not (where or "").startswith("Coo.") and where not in allowed):
                    found.append((module, where, name, child.lineno))
                if _sums_by_code(child):
                    found.append((module, where, "sum by code", child.lineno))
            visit(child, where, module)

    package = pathlib.Path(cc.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py"))
    assert {"chars", "conncalc", "_codes"} <= set(modules)
    for module in modules:
        visit(ast.parse((package / f"{module}.py").read_text()), None, module)
    assert {f for f in found if f[0] == "_codes"} and all(f[0] == "_codes" for f in found), found
    # The key count of the join is an unweighted bincount, which is allowed.
    assert not _sums_by_code(ast.parse("np.bincount(r_keys, minlength=nkeys)").body[0].value)


def test_the_battery_threshold_is_one_constant():
    # The float checks compare with `conncalc.DEFAULT_TOL` alone: no function
    # takes a `tol`, the value is written once, and `cli` reads the constant.
    package = pathlib.Path(cc.__file__).parent
    params, literals = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arg) and node.arg == "tol":
                params.append((path.stem, node.lineno))
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and node.value == cc.DEFAULT_TOL):
                literals.append(path.stem)
    assert params == [] and literals == ["conncalc"], (params, literals)
    cli_tree = ast.parse((package / "cli.py").read_text())
    assert any(isinstance(node, ast.Attribute) and node.attr == "DEFAULT_TOL"
               and getattr(node.value, "id", None) == "conncalc" for node in ast.walk(cli_tree))


def test_stable_order_is_the_stable_argsort(monkeypatch):
    rng = np.random.default_rng(71)
    real, calls = np.argsort, []
    monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    below, at = (1 << 60) - 2, (1 << 60) - 1  # four keys spanning 2^60 - 1 and 2^60
    cases = [  # keys, nkeys, whether the fallback runs
        (rng.integers(0, 40, 5000), 40, False),
        (rng.integers(0, 40, 5000), None, False),
        (rng.integers(-1000, 1000, 20000), None, False),
        (rng.integers(0, 3, 7), 3, False),
        (np.zeros(0, dtype=np.int64), None, False),
        (np.zeros(0, dtype=np.int64), 5, False),
        (np.array([below, 0, below, 5]), None, False),
        (np.array([below, 0, below, 5]) - (1 << 61), None, False),
        (np.array([below, 0, below, 5]), below + 1, False),
        (np.array([at, 0, at, 5]), None, True),
        (np.array([below, 0, below, 5]), below + 2, True),
        (np.array([-(1 << 62), 1 << 62, 0, 1 << 62]), None, True),
        (np.array([3 << 70, 1, 3 << 70, -(1 << 80), 1], dtype=object), None, True),
        (rng.integers(-3, 3, 50).astype(object), 7, True),
    ]
    for keys, nkeys, fallback in cases:
        calls.clear()
        order = _codes.stable_order(keys, nkeys)
        assert np.array_equal(order, real(keys, kind="stable")), (keys, nkeys)
        assert len(calls) == fallback, (keys, nkeys)


def test_argsort_is_only_the_fallback_of_stable_order():
    # The first call of numpy's argsort maps its sort kernels into the
    # process for good: about 320 KB of RSS for int64 alone.  Every order of
    # the package is `_codes.stable_order`, one `np.sort`, which calls
    # argsort only for object keys or keys whose range passes int64.
    package = pathlib.Path(cc.__file__).parent
    found = []

    def visit(node, where, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if where is None else f"{where}.{child.name}", module)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "argsort":
                found.append((module, where))
            visit(child, where, module)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.stem)
    assert found == [("_codes", "stable_order")], found


def test_only_codes_names_run_sums():
    # `sum_by_code` is the one kernel that sums by code: a sum of two Coos
    # goes through the constructor's, and no module but `_codes` reaches
    # its helper `run_sums`.
    package = pathlib.Path(cc.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if "run_sums" in (getattr(node, "id", None), getattr(node, "attr", None),
                              node.name if isinstance(node, ast.alias) else None):
                found.add(path.stem)
    assert found == {"_codes"}, found


def test_numpy_linalg_use_is_inv_and_norm():
    # The first call of a LAPACK routine maps its code and workspace into the
    # process for good: an SVD adds about 1.1 MB of peak RSS, an LU inverse
    # 0.5 MB, a Cholesky 0.08 MB after the LU.  The package reads
    # independence from the inverse it needs anyway and calls no other
    # routine; `norm` of an array is no LAPACK call.
    package = pathlib.Path(cc.__file__).parent
    used = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and getattr(node.value, "attr", None) == "linalg":
                used.add(node.attr)
            if isinstance(node, (ast.Import, ast.ImportFrom)):  # only as np.linalg.<name>
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                assert not any("linalg" in name for name in names), path.stem
    assert used == {"inv", "norm", "LinAlgError"}, used
