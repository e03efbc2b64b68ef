import numpy as np
import pytest

from invconn.chars import Character


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
