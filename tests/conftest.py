import numpy as np
import pytest

from invconn import conncalc as cc
from invconn.chars import Character


# ---------------------------------------------------------------------------
# d^4 oracles and seeded random tensors for the connection calculus
# ---------------------------------------------------------------------------

def der_tensor(alg, mu):
    """der(X,Y;Z) = mu(Z,[X,Y]) - [mu(Z,X),Y] - [X,mu(Z,Y)], as der[x,y,z,k]:
    the derivative of the bracket along Lambda(Z)."""
    return np.moveaxis(cc.covariant_derivative(alg, mu, alg.bracket), 0, 2)


def c_tensor(alg, mu):
    """C(X,Y;Z) = (D_Z mu)(X,Y) - (D_Z mu)(Y,X), as C[x,y,z,k]."""
    dmu = cc.covariant_derivative(alg, mu, mu)  # dmu[z,x,y,k]
    return np.transpose(dmu, (1, 2, 0, 3)) - np.transpose(dmu, (2, 1, 0, 3))


def u_tensor(alg):
    """Symmetric map with 2<U(X,Y),Z> = <[Z,X],Y> + <X,[Z,Y]>; zero exactly
    when the declared inner product is naturally reductive for the bracket."""
    br = alg.bracket
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


def _orbit_sum_reference(chi, lam, expr):
    """Multiplicity of L(lam) in expr(chi) by the per-point loop.

    The Weyl orbit of lam + rho is the BFS dict of `rs._orbit`, and every
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
    return sum(sign * point(sub(p, rs.rho)) for p, sign in rs._orbit(add(lam, rs.rho)).items())


@pytest.fixture(scope="session")
def orbit_sum_reference():
    return _orbit_sum_reference
