import functools
from fractions import Fraction

import numpy as np
import pytest

from invconn import conncalc as cc
from invconn import chars
from invconn.chars import Character
from invconn.rootsys import RootSystem, SimpleType, _scaled_lengths


# ---------------------------------------------------------------------------
# The dense d^4 calculus and the rest of the connection calculus that no
# command runs: the references that the battery paths are compared with.
# ---------------------------------------------------------------------------

def curvature(alg, mu):
    """R[x,y,z,k] with R(X,Y)Z = mu(X,mu(Y,Z)) - mu(Y,mu(X,Z)) - mu([X,Y],Z),
    as a dense d^4 array: the batteries use `ricci_matrix`, and
    `flatness_defect` never forms it."""
    mu, c = np.asarray(mu, dtype=np.float64), np.asarray(alg.bracket)
    return (np.einsum("yzp,xpk->xyzk", mu, mu)
            - np.einsum("xzp,ypk->xyzk", mu, mu)
            - np.einsum("xyp,pzk->xyzk", c, mu))


def covariant_derivative(alg, mu, f, vector_valued=True):
    """Derivative of an invariant tensor along the connection map mu, as a
    dense array.

    For an algebra-valued tensor F (last axis = output components):

        (D_Z F)(X_1..X_p) = Lambda(Z) F(X_1..X_p) - sum_i F(.., Lambda(Z) X_i, ..)

    and for a scalar-valued form only the slot terms appear.  The result
    gains a leading Z axis with one entry per row of mu: `_derivative` with
    mu on every slot and, for a vector-valued F, -mu^T on its last axis.
    """
    d = alg.dim
    mu, f = np.asarray(mu, dtype=np.float64), np.asarray(f, dtype=np.float64)
    if f.shape != (d,) * f.ndim or f.ndim < 1 + vector_valued or mu.shape[1:] != (d, d):
        raise cc.TensorShapeError("tensor shape does not match the algebra dimension")
    return cc._derivative(cc._along(mu, f.ndim) if vector_valued else [mu] * f.ndim, f)


def sparse_derivative(mu, f):
    """D_Z F of a vector-valued F along mu on the path of the batteries:
    the einsum terms of `_derivative_terms`, summed by one `_einsum_sum`,
    densified."""
    mu, f = cc._coo(mu), cc._coo(f)
    return np.asarray(cc._einsum_sum(cc._derivative_terms(cc._along(mu, f.ndim), f)))


def ricci_skew_path(alg, t_form):
    """Ricci of the metric connection with skew torsion T, via

        Ric = Ric_g - (1/4) sum_i <T(e_i,X), T(e_i,Y)> - (1/2) (delta T)(X,Y)

    with the co-differential (delta T)(X,Y) = -sum_i (D_{e_i} T)(e_i,X,Y) of
    the Levi-Civita derivative, contracted from mu = [.,.]/2 directly:

        (delta T)[x,y] = sum_{i,q} mu[i,i,q] T[q,x,y] + mu[i,x,q] T[i,q,y]
                         + mu[i,y,q] T[i,x,q]

    as einsums of the nonzeros of mu and T, without the d^4 derivative.
    """
    t_form = cc._coo(t_form, (alg.dim,) * 3)
    skew_defect = max((t_form + t_form.transpose((1, 0, 2))).max_abs(),
                      (t_form + t_form.transpose((0, 2, 1))).max_abs())
    if skew_defect > cc.DEFAULT_TOL:
        raise cc.TensorShapeError("T must be a totally skew 3-tensor")
    mu = cc.levi_civita_map(alg)
    ric_g = cc.ricci_matrix(alg, mu)
    eye = cc._identity(alg.dim)
    s = cc._einsum("ixq,iyq->xy", t_form, t_form).toarray()
    delta = (cc._einsum("qxy,q->xy", t_form, cc._einsum("ijq,ij->q", mu, eye)).toarray()
             + cc._einsum("ixq,iqy->xy", mu, t_form).toarray()
             + cc._einsum("ixq,iyq->xy", t_form, mu).toarray())
    return ric_g - 0.25 * s - 0.5 * delta


def a_from_torsion(t):
    """2A(X,Y,Z) = T(X,Y,Z) - T(Y,Z,X) + T(Z,X,Y)."""
    t = cc._cubic(t)
    if (t + t.transpose((1, 0, 2))).max_abs() > cc.DEFAULT_TOL:
        raise cc.TensorShapeError("torsion must be antisymmetric in its first two slots")
    # transpose(t, (2,0,1))[x,y,z] = t[y,z,x];  transpose(t, (1,2,0))[x,y,z] = t[z,x,y]
    return 0.5 * (t - t.transpose((2, 0, 1)) + t.transpose((1, 2, 0)))


def torsion_from_a(a):
    a = cc._cubic(a)
    return a - a.transpose((1, 0, 2))


def rescaled_algebra(alg, scales):
    """Same bracket, new inner product making the rescaled basis orthonormal.

    Used to probe non-bi-invariant metrics: the structure coefficients are
    read over e_i' = scales[i] * e_i, declared orthonormal.
    """
    scales = np.asarray(scales, dtype=float)
    return cc.MatrixAlgebra(alg.name + "-rescaled", alg.n, alg.basis * scales[:, None, None])


def is_equivariant(alg, mu):
    defect = cc.equivariance_defect(alg, mu)
    return defect < cc.DEFAULT_TOL, defect


def full_equivariance_defect(alg, mu):
    """`equivariance_defect` with W over every basis element, not only the
    generators: the full-basis reference of the battery's check."""
    return cc._max_derivative(alg, cc._along(alg.bracket, 3), cc._coo(mu, (alg.dim,) * 3), cc._max_slot_norm)


def bracket_family_map(alg, alpha):
    """mu_alpha = ((1 - alpha)/2) [.,.]; its torsion is alpha times the
    canonical torsion -[X,Y].  The Einstein battery reads every alpha from
    the bracket's coefficients and never forms mu_alpha; this is the
    per-member reference."""
    return ((1.0 - alpha) / 2.0) * alg.bracket


def flatness_defect(alg, mu):
    """Max |R[x,y,z,k]| without the d^4 array: R is the join on F = mu with
    the bracket on its first axis and mu, -mu^T on the other two."""
    mu = cc._coo(mu, (alg.dim,) * 3)
    return cc._max_derivative(alg, [alg.bracket, *cc._along(mu, 2)], mu, cc._max_abs)


def reassembled(dec):
    """a1 + a2 + a3 of a `TypeDecomposition`."""
    return dec.a1 + dec.a2 + dec.a3


# ---------------------------------------------------------------------------
# d^4 oracles and seeded random tensors for the connection calculus
# ---------------------------------------------------------------------------

def der_tensor(alg, mu):
    """der(X,Y;Z) = mu(Z,[X,Y]) - [mu(Z,X),Y] - [X,mu(Z,Y)], as der[x,y,z,k]:
    the derivative of the bracket along Lambda(Z)."""
    return np.moveaxis(covariant_derivative(alg, mu, alg.bracket), 0, 2)


def c_tensor(alg, mu):
    """C(X,Y;Z) = (D_Z mu)(X,Y) - (D_Z mu)(Y,X), as C[x,y,z,k]."""
    dmu = covariant_derivative(alg, mu, mu)  # dmu[z,x,y,k]
    return np.transpose(dmu, (1, 2, 0, 3)) - np.transpose(dmu, (2, 1, 0, 3))


def u_tensor(alg):
    """Symmetric map with 2<U(X,Y),Z> = <[Z,X],Y> + <X,[Z,Y]>; zero exactly
    when the declared inner product is naturally reductive for the bracket."""
    br = np.asarray(alg.bracket)
    return 0.5 * (np.transpose(br, (1, 2, 0)) + np.transpose(br, (2, 1, 0)))


def random_a_tensor(d, rng):
    raw = rng.standard_normal((d, d, d))
    return 0.5 * (raw - np.transpose(raw, (0, 2, 1)))


def random_torsion_tensor(d, rng):
    raw = rng.standard_normal((d, d, d))
    return 0.5 * (raw - np.transpose(raw, (1, 0, 2)))


def random_bilinear(d, rng, skew=False):
    raw = rng.standard_normal((d, d, d))
    if skew:
        return 0.5 * (raw - np.transpose(raw, (1, 0, 2)))
    return raw


# ---------------------------------------------------------------------------
# Dense oracles: the engine's formulas over full arrays, for the tests to
# compare with the nonzero engine.  Maps are dense (d, d, d) arrays.
# ---------------------------------------------------------------------------

def dense_bracket(basis):
    """Structure constants, closure residual and max |[e_i, e_j]| of a basis,
    from the (d, d, n, n) products e_i e_j and the dual basis of -Re tr."""
    dual = np.linalg.inv(-np.real(np.einsum("iab,jba->ij", basis, basis)))
    prod = np.matmul(basis[:, None], basis[None])
    comm = prod - np.transpose(prod, (1, 0, 2, 3))
    bracket = -np.real(np.tensordot(comm, basis, axes=([-2, -1], [2, 1]))) @ dual
    residual = comm - np.tensordot(bracket, basis, axes=1)
    return bracket, float(np.abs(residual).max()), float(np.abs(comm).max())


def dense_killing(bracket):
    return np.tensordot(bracket, bracket, axes=([1, 2], [2, 1]))


def dense_laquer_basis(alg):
    """mu1..mu6, nu and theta in closed form from the (d, d, n, n) products."""
    bracket, _, _ = dense_bracket(alg.basis)
    prod = np.matmul(alg.basis[:, None], alg.basis[None])
    half = alg.coeffs(1j * prod)
    t = np.real(1j * np.einsum("iaa->i", alg.basis))
    g = np.real(np.einsum("ijaa->ij", prod))
    xi = alg.coeffs(1j * np.eye(alg.n))
    eye = np.eye(alg.dim)
    maps = {
        "mu1": bracket,
        "mu2": half + np.transpose(half, (1, 0, 2)),
        "mu3": np.einsum("i,jk->ijk", t, eye),
        "mu4": np.einsum("j,ik->ijk", t, eye),
        "mu5": np.einsum("ij,k->ijk", g, xi),
        "mu6": -np.einsum("i,j,k->ijk", t, t, xi),
    }
    maps["nu"] = maps["mu3"] - maps["mu4"]
    maps["theta"] = maps["mu3"] + maps["mu4"]
    return maps


def dense_metric_defect(mu):
    return float(np.abs(mu + np.transpose(mu, (0, 2, 1))).max())


def dense_torsion(bracket, mu):
    return mu - np.transpose(mu, (1, 0, 2)) - bracket


def dense_classify_type(a):
    """(phi, a1, a2, a3) of a difference tensor."""
    d = a.shape[0]
    eye = np.eye(d)
    phi = np.einsum("iiz->z", a) / (d - 1)
    a1 = np.einsum("xy,z->xyz", eye, phi) - np.einsum("xz,y->xyz", eye, phi)
    a3 = (a + np.transpose(a, (1, 2, 0)) + np.transpose(a, (2, 0, 1))) / 3.0
    return phi, a1, a - a1 - a3, a3


def dense_torsion_type_conditions(bracket, mu, tol):
    """The report of `torsion_type_conditions` for a metric map."""
    cyc = mu + np.transpose(mu, (1, 2, 0)) + np.transpose(mu, (2, 0, 1))
    cyclic_defect = float(np.abs(cyc - 1.5 * bracket).max())
    trace = np.einsum("iik->k", mu)
    phi, a1, a2, a3 = dense_classify_type(mu - 0.5 * bracket)
    a1_norm, a2_norm, a3_norm = (float(np.linalg.norm(x)) for x in (a1, a2, a3))
    skew_defect = float(np.abs(mu + np.transpose(mu, (1, 0, 2))).max())
    return cc.TypeConditionReport(
        vectorial=a2_norm < tol and a3_norm < tol, traceless_cyclic=a1_norm < tol and a3_norm < tol,
        cyclic=cyclic_defect < tol, traceless=float(np.linalg.norm(trace)) < tol, skew=skew_defect < tol,
        trace_vector=trace, cyclic_defect=cyclic_defect, skew_defect=skew_defect,
        decomposition=cc.TypeDecomposition(phi, *map(cc.Coo.from_dense, (a1, a2, a3))))


def dense_ricci(bracket, mu):
    """Ric[x,y] = sum_p mu[x,y,p] tau[p] - sum mu[e,y,p] mu[x,p,e] - sum c[e,x,p] mu[p,y,e]."""
    tau = np.einsum("epe->p", mu)
    return (mu @ tau
            - np.tensordot(mu, mu, axes=([1, 2], [2, 0]))
            - np.tensordot(bracket, mu, axes=([0, 2], [2, 0])))


def _matrix_reference(alg, mu):
    """der[x,y,z,k] and eq[w,x,y,k] evaluated on every basis triple.

    der(X,Y;Z) = mu(Z,[X,Y]) - [mu(Z,X),Y] - [X,mu(Z,Y)] and
    eq(W;X,Y) = mu([W,X],Y) + mu(X,[W,Y]) - [W,mu(X,Y)], with every bracket
    a commutator of `alg.matrix(...)` projected by `alg.coeffs`.  Only mu is
    read as coefficients, never `alg.bracket`, so the reference shares no
    code with the covariant-derivative kernel.
    """
    d = alg.dim
    e = np.eye(d)

    def m(u, v):
        return np.einsum("i,j,ijk->k", u, v, mu)

    def br(u, v):
        a, b = alg.matrix(u), alg.matrix(v)
        return alg.coeffs(a @ b - b @ a)

    der = np.zeros((d,) * 4)
    eq = np.zeros((d,) * 4)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                x, y, z = e[i], e[j], e[k]
                der[i, j, k] = m(z, br(x, y)) - br(m(z, x), y) - br(x, m(z, y))
                eq[i, j, k] = m(br(x, y), z) + m(y, br(x, z)) - br(x, m(y, z))
    return der, eq


@pytest.fixture(scope="session")
def matrix_reference():
    return _matrix_reference


def _tensor_reference(a, b):
    """The product of two characters by the pure-Python double loop over
    weight pairs, with Python-int arithmetic throughout."""
    out = {}
    for w1, m1 in a.mult.items():
        for w2, m2 in b.mult.items():
            key = tuple(x + y for x, y in zip(w1, w2))
            out[key] = out.get(key, 0) + m1 * m2
    return Character(a.rs, out)


@pytest.fixture(scope="session")
def tensor_reference():
    return _tensor_reference


def _square_reference(chi, sign):
    """(chi^2 + sign psi2 chi)/2 by the Adams formula on dicts: chi^2 from
    `_tensor_reference`, psi2 chi by doubling every weight, and an exact
    division at every weight; alt2 for sign -1, sym2 for sign +1."""
    total = dict(_tensor_reference(chi, chi).mult)
    for w, m in chi.mult.items():
        w2 = tuple(2 * x for x in w)
        total[w2] = total.get(w2, 0) + sign * m
    assert all(m % 2 == 0 for m in total.values())
    return Character(chi.rs, {w: m // 2 for w, m in total.items()})


@pytest.fixture(scope="session")
def square_reference():
    return _square_reference


# ---------------------------------------------------------------------------
# Reference algorithms for the character build: the earlier searches, which
# the engine's layered orbit, root-subtraction search and table-reading
# Freudenthal recursion replaced.
# ---------------------------------------------------------------------------

# The rational root-system API, which no command calls: the commands pair,
# order and reflect weights in integers (`RootSystem._ip_int`,
# `_height_key`, `to_dominant`).

def root_lengths(st):
    """Half squared lengths (alpha, alpha)/2 of the simple roots of a
    `SimpleType`, long = 1."""
    scale, lengths = _scaled_lengths(st)
    return [Fraction(x, scale) for x in lengths]


def pairing(rs, v, w):
    """Invariant symmetric form, normalized so long roots have norm 2."""
    return Fraction(rs._ip_int(v, w), rs._gram_scale)


def dimension_rows_reference(rs):
    """`RootSystem._dimension_rows` as the dense product of `_gram_int` with
    the labels of every positive root: O(|Phi+| rank^2)."""
    rows = []
    for beta in rs.pos_roots:
        c = tuple(sum(g_ij * b for g_ij, b in zip(row, beta)) for row in rs._gram_int)
        rows.append((c, sum(c)))
    return tuple(rows)


def reflect(rs, i, w):
    """Simple reflection s_i applied to a weight."""
    c = w[i]
    if c == 0:
        return w
    v = list(w)
    for j, a in rs._rows[i]:
        v[j] -= c * a
    return tuple(v)


@functools.cache
def _coord_columns(factors):
    """Column i of det(A) A^-1 as its nonzero (j, entry) pairs: det(A) times
    the i-th root coordinate of w is sum(entry * w[j])."""
    scaled = RootSystem(factors)._scaled_inverse[1]
    return tuple(tuple((j, row[i]) for j, row in enumerate(scaled) if row[i])
                 for i in range(len(scaled)))


def root_coords(rs, w):
    """Coordinates of a weight in the simple-root basis (exact rationals).

    Dynkin labels are related to root coordinates c by labels = c A, so
    c = A^-T labels; each coordinate is an integer of det(A) A^-1 over
    det A.
    """
    det = rs._scaled_inverse[0]
    return tuple(Fraction(sum(t * w[j] for j, t in col), det) for col in _coord_columns(rs.factors))


def dominates(rs, lam, mu):
    """True when lam - mu is a non-negative integer combination of simple roots."""
    det = rs._scaled_inverse[0]
    for col in _coord_columns(rs.factors):
        c = sum(t * (lam[j] - mu[j]) for j, t in col)
        if c < 0 or c % det:
            return False
    return True


def height(rs, w):
    """The height of w, the sum of its root coordinates."""
    return Fraction(rs._height_key(w), rs._scaled_inverse[0])


SIMPLE_TYPES_TO_RANK_8 = (
    [SimpleType(series, n) for series, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
     for n in range(low, 9)]
    + [SimpleType("E", n) for n in (6, 7, 8)] + [SimpleType("F", 4), SimpleType("G", 2)])


def shrink_weight(lam, too_big):
    """lam with its last nonzero labels zeroed, one at a time, until
    too_big(lam) is false; the zero weight ends every such shrink."""
    lam = list(lam)
    while too_big(tuple(lam)):
        lam[max(i for i, x in enumerate(lam) if x)] = 0
    return tuple(lam)


def bfs_orbit(rs, w):
    """The Weyl orbit of w by breadth-first search from w itself: every point
    is reflected at every nonzero label, against one global `seen` dict.
    Each point carries (-1)^(its BFS depth), which is det of the Weyl element
    reaching it when w is regular."""
    out = {w: 1}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            sign = -out[v]
            for i in range(rs.rank):
                if v[i]:
                    u = reflect(rs, i, v)
                    if u not in out:
                        out[u] = sign
                        nxt.append(u)
        frontier = nxt
    return out


def dominant_weights_reference(rs, lam):
    """The dominant weights below lam by folding: subtract every positive
    root, fold the result with `to_dominant` and keep it when lam dominates
    it; by decreasing height, then lexicographically."""
    seen = {lam}
    queue = [lam]
    while queue:
        mu = queue.pop()
        for alpha in rs.pos_roots:
            nu = rs.to_dominant(tuple(x - a for x, a in zip(mu, alpha)))[0]
            if nu not in seen and dominates(rs, lam, nu):
                seen.add(nu)
                queue.append(nu)
    return tuple(sorted(seen, key=lambda w: (-height(rs, w), w)))


def irrep_reference(rs, lam):
    """The weight system of L(lam) on any system, products included, by
    Freudenthal's recursion over `dominant_weights_reference` with every
    lookup folded by `to_dominant` and every pairing from `pairing`
    (`Fraction`s), then the `bfs_orbit` of each dominant weight."""
    rho = rs.rho

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    top = pairing(rs, add(lam, rho), add(lam, rho))
    mult = {lam: 1}
    for mu in dominant_weights_reference(rs, lam)[1:]:
        total = 0
        for alpha in rs.pos_roots:
            nu = add(mu, alpha)
            while (m := mult.get(rs.to_dominant(nu)[0])) is not None:
                total += m * pairing(rs, nu, alpha)
                nu = add(nu, alpha)
        m = 2 * total / (top - pairing(rs, add(mu, rho), add(mu, rho)))
        assert m.denominator == 1, (rs, lam, mu)
        mult[mu] = int(m)
    return {w: m for mu, m in mult.items() for w in bfs_orbit(rs, mu)}


def _orbit_sum_reference(chi, lam, expr):
    """Multiplicity of L(lam) in expr(chi) by the per-point loop.

    The Weyl orbit of lam + rho is the BFS dict of `bfs_orbit`, and every
    point value is a Python loop over supp chi into dict tables built by
    pure-Python double loops, with Python-int arithmetic throughout.  `expr`
    is "chi" (chi itself), "alt2", "sym2", "alt3" or "chi_alt2".
    """
    rs = chi.rs
    items = list(chi.mult.items())

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    sq = {}
    for w1, m1 in items:
        for w2, m2 in items:
            key = add(w1, w2)
            sq[key] = sq.get(key, 0) + m1 * m2
    p2 = {tuple(2 * x for x in w): m for w, m in items}
    p3 = {tuple(3 * x for x in w): m for w, m in items}
    alt2 = {}
    for w in set(sq) | set(p2):
        twice = sq.get(w, 0) - p2.get(w, 0)
        assert twice % 2 == 0
        alt2[w] = twice // 2

    def convolve_at(table, nu):
        return sum(m * table.get(sub(nu, w), 0) for w, m in items)

    def alt3_at(nu):
        six = convolve_at(sq, nu) - 3 * convolve_at(p2, nu) + 2 * p3.get(nu, 0)
        assert six % 6 == 0
        return six // 6

    point = {"chi": lambda nu: chi.mult.get(nu, 0),
             "alt2": lambda nu: alt2.get(nu, 0),
             "sym2": lambda nu: sq.get(nu, 0) - alt2.get(nu, 0),
             "alt3": alt3_at,
             "chi_alt2": lambda nu: convolve_at(alt2, nu)}[expr]
    return sum(sign * point(sub(p, rs.rho)) for p, sign in bfs_orbit(rs, add(lam, rs.rho)).items())


@pytest.fixture(scope="session")
def orbit_sum_reference():
    return _orbit_sum_reference


def _decompose_reference(chi):
    """Racah-Speiser by the per-weight loop: the invariance check looks up
    every simple reflection of every weight in the dict, and every weight
    plus rho is folded by `to_dominant`, with Python-int arithmetic and
    `Fraction` heights throughout."""
    from invconn.chars import UsageError
    rs, mult = chi.rs, chi.mult
    for w, m in mult.items():
        for i in range(rs.rank):
            if w[i] and mult.get(reflect(rs, i, w)) != m:
                raise UsageError(f"character is not Weyl-invariant: weight {w} and its "
                                 f"reflection s_{i + 1} have different multiplicities")
    coeff = {}
    for w, m in mult.items():
        top, sign = rs.to_dominant(tuple(x + r for x, r in zip(w, rs.rho)))
        if sign:
            lam = tuple(x - r for x, r in zip(top, rs.rho))
            coeff[lam] = coeff.get(lam, 0) + sign * m
    terms = [(lam, m) for lam, m in coeff.items() if m]
    if any(m < 0 for _, m in terms):
        raise UsageError("not a genuine character: negative multiplicity of an irreducible")
    terms.sort(key=lambda t: (-sum(root_coords(rs, t[0])), t[0]))
    return terms


@pytest.fixture(scope="session")
def decompose_reference():
    return _decompose_reference


def plethysm21(chi):
    """Mixed-symmetry cube component, materialized: chi * alt2(chi) - alt3(chi)."""
    return chars.tensor(chi, chars.alt2(chi)) - chars.alt3(chi)


def materialize(name, chi, other=None):
    """The character of one of `chars.EXPRESSIONS` of chi, built weight by
    weight (`tensor`: chi times `other`, or chi squared)."""
    if name == "tensor":
        return chars.tensor(chi, chi if other is None else other)
    return {"alt2": chars.alt2, "sym2": chars.sym2, "alt3": chars.alt3, "sym3": chars.sym3,
            "plethysm21": plethysm21}[name](chi)
