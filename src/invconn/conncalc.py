"""Double-precision connection calculus on compact matrix Lie algebras.

A connection on the group is encoded by a bilinear map mu on the algebra
through its structure coefficients c[i,j,k] over an orthonormal basis,
with the left-invariant conventions

    T(X,Y)   = mu(X,Y) - mu(Y,X) - [X,Y]
    R(X,Y)Z  = mu(X, mu(Y,Z)) - mu(Y, mu(X,Z)) - mu([X,Y], Z)
    Ric(X,Y) = sum_i <R(e_i, X)Y, e_i>

so that mu = 0 is the flat minus-connection, mu(X,Y) = [X,Y] the flat
plus-connection, and mu(X,Y) = [X,Y]/2 the Levi-Civita connection of the
bi-invariant metric <X,Y> = -Re tr(XY), whose Ricci tensor is -B/4 for
the Killing form B (the sign calibration used throughout).

Every 3-tensor of the engine is a `Coo`, its nonzeros as sorted int64 flat
codes and float64 values: the structure constants and the Laquer maps of
the standard bases are over 99 % zeros (1680 of the 262,144 entries of the
bracket of u(8)).  A dense array passed to a public function is converted
once, on entry, and `np.asarray` densifies a Coo.  Products of nonzeros
are formed by one join, `_join_blocks`: entries of a left and a right list
that share a key multiply, their codes add, and products that reach the
same code are summed, a block of rows at a time.

`MatrixAlgebra` forms the products e_i e_j from the nonzeros of the basis
matrices, reads the bracket from them and checks that the span is closed
under the commutator.  Every derivative check is the join `_derivative`:
a 3-tensor Lambda_t is contracted into axis t of F,

    D[z, ..a at t..] = -sum_t sum_q Lambda_t[z,a,q] F[..q at t..],

and the checks differ only in the list of Lambda, one per axis of F (None
where an axis has no term; c is the bracket, mu^T is mu with its last two
axes swapped):

    D_Z F of a vector-valued F along mu     mu, .., mu, -mu^T  (covariant_derivative)
    D_Z g of the metric, scalar-valued      mu, mu             (parallel_metric_defect)
    equivariance of mu = D_W mu along ad    c, c, -c^T         (equivariance_defect)
    derivation defect = D_Z c along mu      mu, mu, -mu^T      (derivation_defect)
    curvature R[x,y,z,k] of mu, F = mu      c, mu, -mu^T       (flatness_defect)

The battery paths hold no dense d^3 array: the Laquer maps are built from
their nonzeros, `ricci_matrix` and `ricci_skew_path` join mu with itself
on the contracted pair of indices, and the defects share one reduction,
`_max_derivative`, with two paths.  The sparse path joins the nonzeros of
each Lambda and F on the contracted index and sums the products per entry;
it runs when its exact product count is below the derivative's entry count
and no Z row needs more than `_BLOCK_PRODUCTS` products.  A dense map
keeps the dense path, which densifies Lambda and F and reduces blocks of
the derivative over its leading Z axis, `_BLOCK_ENTRIES` entries at a
time.  `build_algebra` refuses a size whose largest array would exceed
`MAX_ARRAY_BYTES`.  The 4-index `curvature` remains for small algebras and
as a test oracle.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np


class AlgebraError(ValueError):
    pass


class TensorShapeError(ValueError):
    pass


DEFAULT_TOL = 1e-9

# Entries of one block of a derivative that a defect reduces without holding
# the whole d^4 tensor (8 MiB of float64); a block is at least one Z slice.
_BLOCK_ENTRIES = 1 << 20

# Largest single array `build_algebra` lets the engine allocate (128 MiB):
# u(14), su(14) and so(18) are the largest algebras it accepts.
MAX_ARRAY_BYTES = 1 << 27


# ---------------------------------------------------------------------------
# Sparse tensors
# ---------------------------------------------------------------------------

class Coo:
    """A real tensor held as its nonzeros.

    `codes` are the C-order flat indices of the nonzero entries, int64,
    sorted and distinct, and `vals` their float64 values; both are
    read-only.  The constructor takes entries in any order, sums the values
    that share a code in the order given and drops zeros.  A Coo supports
    negation, sums and differences of tensors of one shape, multiples by a
    real scalar, `transpose`, `max_abs` and `norm`.  `np.asarray` gives
    the dense array; numpy ufuncs and mixed arithmetic with arrays are
    refused rather than densifying silently.
    """

    __array_ufunc__ = None

    def __init__(self, shape, codes, vals):
        self.shape = tuple(int(s) for s in shape)
        if math.prod(self.shape) >= 1 << 62:
            raise TensorShapeError(f"a tensor of shape {self.shape} overflows int64 codes")
        codes = np.asarray(codes, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if len(codes) > 1 and not np.all(codes[1:] > codes[:-1]):
            order = np.argsort(codes, kind="stable")
            codes, vals = _sum_runs(codes[order], vals[order])
        keep = vals != 0
        if not keep.all():
            codes, vals = codes[keep], vals[keep]
        codes.flags.writeable = vals.flags.writeable = False
        self.codes, self.vals = codes, vals

    @classmethod
    def from_dense(cls, a) -> Coo:
        a = np.asarray(a, dtype=np.float64)
        if a.size >= 1 << 62:
            raise TensorShapeError(f"a tensor of shape {a.shape} overflows int64 codes")
        flat = a.reshape(-1)
        codes = np.flatnonzero(flat)
        return cls(a.shape, codes, flat[codes])

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(math.prod(self.shape), dtype=dtype or np.float64)
        out[self.codes] = self.vals
        return out.reshape(self.shape)

    def __repr__(self) -> str:
        return f"Coo(shape={self.shape}, nonzeros={len(self.codes)})"

    def __neg__(self) -> Coo:
        return Coo(self.shape, self.codes, -self.vals)

    def __add__(self, other) -> Coo:
        if not isinstance(other, Coo):
            return NotImplemented
        if other.shape != self.shape:
            raise TensorShapeError(f"shapes {self.shape} and {other.shape} differ")
        return Coo(self.shape, np.concatenate((self.codes, other.codes)),
                   np.concatenate((self.vals, other.vals)))

    def __sub__(self, other) -> Coo:
        if not isinstance(other, Coo):
            return NotImplemented
        return self + -other

    def __mul__(self, scalar) -> Coo:
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        return Coo(self.shape, self.codes, self.vals * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> Coo:
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        return Coo(self.shape, self.codes, self.vals / float(scalar))

    def transpose(self, axes) -> Coo:
        """The axes permuted as by `np.transpose(t, axes)`."""
        index = np.unravel_index(self.codes, self.shape)
        shape = tuple(self.shape[a] for a in axes)
        return Coo(shape, np.ravel_multi_index(tuple(index[a] for a in axes), shape), self.vals)

    def max_abs(self) -> float:
        return float(np.abs(self.vals).max()) if len(self.vals) else 0.0

    def norm(self) -> float:
        """The Euclidean (Frobenius) norm."""
        return float(np.linalg.norm(self.vals))


def _coo(t, shape=None) -> Coo:
    """t as a Coo: a dense array is converted here, once, on entry to a
    public function.  With `shape`, t must have that shape."""
    if not isinstance(t, Coo):
        t = np.asarray(t, dtype=np.float64)
    if shape is not None and tuple(t.shape) != tuple(shape):
        raise TensorShapeError("tensor shape does not match the algebra dimension")
    return t if isinstance(t, Coo) else Coo.from_dense(t)


def _sum_duplicates(codes: np.ndarray, vals: np.ndarray):
    """Sorted distinct codes and the sum of the values at each; codes is
    sorted in place."""
    if not len(codes):
        return codes, vals
    order = np.argsort(codes)
    codes.sort()
    vals = vals[order]
    del order
    return _sum_runs(codes, vals)


def _sum_runs(codes: np.ndarray, vals: np.ndarray):
    """Distinct codes and summed values of sorted, nonempty codes."""
    firsts = _run_starts(codes)
    return codes[firsts], np.add.reduceat(vals, firsts)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Indices where a run of equal entries of a sorted, nonempty array begins."""
    return np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))


# ---------------------------------------------------------------------------
# Joins of nonzeros
# ---------------------------------------------------------------------------

# Products of one block of a join.  Summing its duplicates holds four 8-byte
# arrays of products (codes, values, their sort order and one sorted copy),
# so a block takes the bytes of _BLOCK_ENTRIES float64 entries.
_BLOCK_PRODUCTS = _BLOCK_ENTRIES // 4


def _term(left, right, nkeys: int, nrows: int):
    """One join for `_join_blocks`.

    left is (rows, keys, codes, values) sorted by row, right is (keys, codes,
    values); keys lie in range(nkeys) and rows in range(nrows).  Every left
    entry meets the right entries of its key, giving code left + right code
    and value left * right value.  The right side is grouped by key."""
    rows, keys, codes, vals = left
    r_keys, r_codes, r_vals = right
    order = np.argsort(r_keys, kind="stable")
    starts = np.zeros(nkeys + 1, dtype=np.int64)
    np.cumsum(np.bincount(r_keys, minlength=nkeys), out=starts[1:])
    row_starts = np.searchsorted(rows, np.arange(nrows + 1))
    return (starts, r_codes[order], r_vals[order]), keys, codes, vals, row_starts


def _row_products(terms, nrows: int) -> np.ndarray:
    """Exact count of the products of each row over all terms."""
    total = np.zeros(nrows, dtype=np.int64)
    for (starts, _, _), keys, _, _, row_starts in terms:
        before = np.concatenate(([0], np.cumsum(starts[keys + 1] - starts[keys])))
        total += before[row_starts[1:]] - before[row_starts[:-1]]
    return total


def _join_blocks(terms, rows: np.ndarray):
    """The products of several joins (`_term`) as (codes, values) blocks over
    runs of rows: sorted distinct codes and the summed products at each.
    `rows` counts the products of each row; a block holds at most
    _BLOCK_PRODUCTS of them, or one row.  Blocks without products are left
    out.  When a row's codes are apart from every other row's, as when the
    row is the leading index of the result, blocks share no code."""
    dtype = np.result_type(*(t[3] for t in terms), *(t[0][2] for t in terms))
    bounds = np.concatenate(([0], np.cumsum(rows)))  # products before each row
    z0 = 0
    while z0 < len(rows):
        z1 = max(z0 + 1, int(np.searchsorted(bounds, bounds[z0] + _BLOCK_PRODUCTS, "right")) - 1)
        size = int(bounds[z1] - bounds[z0])
        if size:
            codes, vals = np.empty(size, dtype=np.int64), np.empty(size, dtype=dtype)
            at = 0
            for group, keys, l_codes, l_vals, row_starts in terms:
                e = slice(row_starts[z0], row_starts[z1])
                at = _join(group, keys[e], l_codes[e], l_vals[e], codes, vals, at)
            yield _sum_duplicates(codes, vals)
        z0 = z1


def _join(group, q: np.ndarray, codes: np.ndarray, vals: np.ndarray,
          out_codes: np.ndarray, out_vals: np.ndarray, at: int) -> int:
    """Every product of entry i (group q[i], code codes[i], value vals[i])
    with the right entries in its group, written from index `at` of the
    outputs as summed codes and products; returns the index after them."""
    starts, r_codes, r_vals = group
    sizes = starts[q + 1] - starts[q]
    firsts = np.cumsum(sizes) - sizes  # where each entry's products begin
    pick = np.repeat(starts[q] - firsts, sizes)
    pick += np.arange(len(pick))
    end = at + len(pick)
    np.take(r_codes, pick, out=out_codes[at:end])
    out_codes[at:end] += np.repeat(codes, sizes)
    np.take(r_vals, pick, out=out_vals[at:end])
    out_vals[at:end] *= np.repeat(vals, sizes)
    return end


def _collect(blocks):
    """The blocks of `_join_blocks`, whose codes are apart, as one sorted
    list of codes and values without zeros."""
    parts = list(blocks)
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    codes = np.concatenate([c for c, _ in parts])
    vals = np.concatenate([v for _, v in parts])
    keep = vals != 0
    return codes[keep], vals[keep]


def _contract(left, right, nkeys: int, nrows: int):
    """The summed products of one join (`_term`) as sorted codes and values."""
    terms = [_term(left, right, nkeys, nrows)]
    return _collect(_join_blocks(terms, _row_products(terms, nrows)))


def _contract_pairs(a: Coo, a_axes, b: Coo, b_axes) -> np.ndarray:
    """M[x, y] = sum of a[..] b[..] over the entries whose indices on a_axes
    equal b's on b_axes, pair by pair as in `np.tensordot`; x is a's
    remaining axis and y b's.  Both are cubic 3-tensors."""
    d = a.shape[0]
    ia, ib = np.unravel_index(a.codes, a.shape), np.unravel_index(b.codes, b.shape)
    (fa,), (fb,) = {0, 1, 2} - set(a_axes), {0, 1, 2} - set(b_axes)
    order = np.argsort(ia[fa], kind="stable")
    x = ia[fa][order]
    left = (x, (ia[a_axes[0]] * d + ia[a_axes[1]])[order], x * d, a.vals[order])
    codes, vals = _contract(left, (ib[b_axes[0]] * d + ib[b_axes[1]], ib[fb], b.vals), d * d, d)
    out = np.zeros(d * d)
    out[codes] = vals
    return out.reshape(d, d)


def _contract_axis(t: Coo, axis: int, v: np.ndarray) -> np.ndarray:
    """sum_q t[..q at axis..] v[q] over a cubic 3-tensor, as a d x d array."""
    d = t.shape[0]
    index = np.unravel_index(t.codes, t.shape)
    rest = [index[a] for a in range(3) if a != axis]
    return np.bincount(rest[0] * d + rest[1], t.vals * v[index[axis]], minlength=d * d).reshape(d, d)


def _diagonal(t: Coo, a: int, b: int) -> np.ndarray:
    """sum_i t[..i at a.., ..i at b..] over a cubic 3-tensor, a vector over
    the remaining axis."""
    index = np.unravel_index(t.codes, t.shape)
    (rest,) = {0, 1, 2} - {a, b}
    on = index[a] == index[b]
    return np.bincount(index[rest][on], t.vals[on], minlength=t.shape[0])


# ---------------------------------------------------------------------------
# Matrix algebras
# ---------------------------------------------------------------------------

class MatrixAlgebra:
    """A compact matrix Lie algebra with a declared orthonormal basis.

    `basis` is a list of linearly independent anti-Hermitian matrices whose
    real span is closed under the commutator; the inner product is the one
    for which it is orthonormal.  That is <X,Y> = -Re tr(XY) when the basis
    is orthonormal for -Re tr, as `build_algebra` checks; otherwise `coeffs`
    still reads coefficients through the dual basis of -Re tr.  `bracket`
    holds the structure coefficients c[i,j,k] of [e_i, e_j] = sum_k c[i,j,k] e_k
    as a Coo and `killing` the Killing form over the basis.

    The products e_i e_j are formed from the nonzeros of the basis matrices.
    The constructor checks closure: every commutator must equal its
    expansion up to 1e-11 * max(1, max|[e_i, e_j]|), and the largest entry
    of the difference is kept as `closure_residual`.  For a closed span the
    Jacobi identity then holds up to that residual.  Instances are immutable
    and safe to share.
    """

    def __init__(self, name: str, n: int, basis: list[np.ndarray]):
        self.name = name
        self.n = n
        self.basis = np.array(basis)
        self.dim = d = len(basis)

        gram = -np.real(np.einsum("iab,jba->ij", self.basis, self.basis))
        if np.linalg.matrix_rank(gram) < self.dim:
            raise AlgebraError(f"{name}: basis is not linearly independent")
        # Inverse Gram matrix of -Re tr: the dual basis that `coeffs` reads through.
        self._dual = np.linalg.inv(gram)
        flat = self.basis.reshape(-1)
        nz = np.flatnonzero(flat)
        # The nonzeros of the basis: matrix, row, column and value.
        self._entries = (*np.unravel_index(nz, self.basis.shape), flat[nz])

        comm_codes, comm = self._products(commutators=True)
        self.bracket = self._coefficients(comm_codes, comm)
        # A commutator outside the span has no coefficients, only the
        # projection that `coeffs` reads; closure is what the check tests.
        m, a, b, v = self._entries
        pair, k = np.divmod(self.bracket.codes, d)
        exp_codes, expansion = _contract((pair // d, k, pair * n * n, self.bracket.vals),
                                         (m, a * n + b, v), d, d)
        _, residual = _sum_duplicates(np.concatenate((comm_codes, exp_codes)),
                                      np.concatenate((comm, -expansion)))
        self.closure_residual = float(np.abs(residual).max(initial=0.0))
        if self.closure_residual > 1e-11 * max(1.0, float(np.abs(comm).max(initial=0.0))):
            raise AlgebraError(f"{name}: basis is not closed under the bracket "
                               f"({self.closure_residual:.2e})")

        # B(X, Y) = tr(ad X ad Y) from the structure coefficients.
        self.killing = _contract_pairs(self.bracket, (1, 2), self.bracket, (2, 1))

    def _products(self, commutators: bool = False):
        """The products e_i e_j of every basis pair, or with `commutators` the
        commutators e_i e_j - e_j e_i, at the codes of (i, j, a, c) in a
        (d, d, n, n) array: sorted codes and complex values without zeros.
        Only nonzeros of the basis meet, a block of rows i at a time."""
        d, n = self.dim, self.n
        m, a, b, v = self._entries
        # e_i[a,b] e_j[b,c]: the left entry is e_i's, keyed by its column.
        terms = [_term((m, b, m * (d * n * n) + a * n, v), (a, m * (n * n) + b, v), n, d)]
        if commutators:  # -e_j[a,b] e_i[b,c]: the left entry is e_i's, keyed by its row.
            terms.append(_term((m, a, m * (d * n * n) + b, -v), (b, m * (n * n) + a * n, v), n, d))
        return _collect(_join_blocks(terms, _row_products(terms, d)))

    def _coefficients(self, codes: np.ndarray, vals: np.ndarray) -> Coo:
        """`coeffs` of the matrices M[i, j] held at the codes of (i, j, a, c)
        in a (d, d, n, n) array, as a (d, d, d) Coo: -Re tr(M e_k) joined on
        the cell (a, c), then the dual basis joined on k."""
        d, n = self.dim, self.n
        m, a, b, v = self._entries
        pair, cell = np.divmod(codes, n * n)
        raw_codes, raw = _contract((pair // d, cell, pair * d, vals), (b * n + a, m, -v), n * n, d)
        raw_pair, k = np.divmod(raw_codes, d)
        rows, cols = np.nonzero(self._dual)
        return Coo((d, d, d), *_contract((raw_pair // d, k, raw_pair * d, np.real(raw)),
                                         (rows, cols, self._dual[rows, cols]), d, d))

    def matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """The algebra element with the given basis coefficients."""
        return np.einsum("i,iab->ab", coeffs, self.basis)

    def coeffs(self, m: np.ndarray) -> np.ndarray:
        """Basis coefficients of an algebra element, or of a stack of them
        (the leading axes are kept)."""
        return -np.real(np.tensordot(m, self.basis, axes=([-2, -1], [2, 1]))) @ self._dual

    def bilinear_coeffs(self, f) -> np.ndarray:
        """Structure coefficients c[i,j,k] of a matrix-valued bilinear map,
        as a dense array."""
        return self.coeffs(np.array([[f(x, y) for y in self.basis] for x in self.basis]))

    def __repr__(self) -> str:
        return f"MatrixAlgebra({self.name}, dim={self.dim})"


def build_algebra(name: str, n: int) -> MatrixAlgebra:
    """Standard orthonormal bases for u(n), su(n), so(n).

    Sizes whose largest array (`_largest_array_bytes`) exceeds
    `MAX_ARRAY_BYTES` are refused before anything is allocated.
    """
    if n < 2:
        raise AlgebraError("n >= 2 required")
    dims = {"u": n * n, "su": n * n - 1, "so": n * (n - 1) // 2}
    if name not in dims:
        raise AlgebraError(f"unsupported algebra {name!r}; expected u, su, or so")
    need = _largest_array_bytes(dims[name], n)
    if need > MAX_ARRAY_BYTES:
        raise AlgebraError(f"{name}({n}) needs a {need / 2**20:.0f} MiB array, over "
                           f"the {MAX_ARRAY_BYTES >> 20} MiB limit")
    s = 1.0 / np.sqrt(2.0)
    basis: list[np.ndarray] = []
    if name == "u":
        for k in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[k, k] = 1j
            basis.append(e)
        _offdiag(basis, n, s)
    elif name == "su":
        for j in range(1, n):
            e = np.zeros((n, n), dtype=complex)
            norm = 1.0 / np.sqrt(j * (j + 1))
            for k in range(j):
                e[k, k] = 1j * norm
            e[j, j] = -1j * j * norm
            basis.append(e)
        _offdiag(basis, n, s)
    elif name == "so":
        for k in range(n):
            for l in range(k + 1, n):
                e = np.zeros((n, n), dtype=complex)
                e[k, l] = s
                e[l, k] = -s
                basis.append(e)
    alg = MatrixAlgebra(f"{name}({n})", n, basis)
    # The declared metric is -Re tr, and so bi-invariant, only for a basis
    # orthonormal for -Re tr.
    if np.abs(alg._dual - np.eye(alg.dim)).max() > 1e-12:
        raise AlgebraError(f"{alg.name}: basis is not orthonormal")
    return alg


def _largest_array_bytes(d: int, n: int) -> int:
    """An upper bound on the bytes of any one array that building a
    d-dimensional algebra of n x n matrices and running its batteries
    allocate: the complex commutators of all basis pairs, (d, d, n, n) for a
    dense basis, or one block of a derivative: at least a d^3 slice of
    float64 on the dense path, and on the sparse path _BLOCK_PRODUCTS
    products or the d^3 nonzeros of a Lambda, 8 bytes each.  The standard
    bases have at most n nonzeros per matrix, and their arrays stay far
    below the bound."""
    return max(16 * d * d * n * n, 8 * max(_BLOCK_ENTRIES, d ** 3))


def _offdiag(basis: list[np.ndarray], n: int, s: float) -> None:
    for k in range(n):
        for l in range(k + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = s
            e[l, k] = -s
            basis.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = 1j * s
            e[l, k] = 1j * s
            basis.append(e)


def rescaled_algebra(alg: MatrixAlgebra, scales) -> MatrixAlgebra:
    """Same bracket, new inner product making the rescaled basis orthonormal.

    Used to probe non-bi-invariant metrics: the structure coefficients are
    read over e_i' = scales[i] * e_i, declared orthonormal.
    """
    scales = np.asarray(scales, dtype=float)
    return MatrixAlgebra(alg.name + "-rescaled", alg.n, alg.basis * scales[:, None, None])


# ---------------------------------------------------------------------------
# Laquer basis on u(n)
# ---------------------------------------------------------------------------

def laquer_basis(alg: MatrixAlgebra) -> dict[str, Coo]:
    """The six bi-invariant bilinear maps on u(n), plus nu and theta.

    mu1 = [X,Y]                  mu2 = i(XY + YX)
    mu3 = i tr(X) Y              mu4 = i tr(Y) X
    mu5 = i tr(XY) Id            mu6 = i tr(X) tr(Y) Id
    nu = mu3 - mu4 (skew)        theta = mu3 + mu4 (symmetric)

    In closed form over the basis: mu1 is the bracket, mu2 the symmetrised
    coefficients of the products i e_i e_j, and with the real numbers
    t_i = i tr e_i, g_ij = tr e_i e_j and xi = coeffs(i Id),

        mu3[i,j,k] = t_i delta_jk      mu5[i,j,k] = g_ij xi_k
        mu4[i,j,k] = t_j delta_ik      mu6[i,j,k] = -t_i t_j xi_k,

    each built from the nonzeros of t, g and xi.
    """
    if not alg.name.startswith("u("):
        raise AlgebraError("the Laquer basis lives on u(n)")
    d, n = alg.dim, alg.n
    codes, prod = alg._products()
    half = alg._coefficients(codes, 1j * prod)
    pair, cell = np.divmod(codes, n * n)
    on_diag = cell // n == cell % n
    g = np.bincount(pair[on_diag], np.real(prod[on_diag]), minlength=d * d)
    t = np.real(1j * np.einsum("iaa->i", alg.basis))
    xi = alg.coeffs(1j * np.eye(n))
    ij, i, k = np.flatnonzero(g), np.flatnonzero(t), np.flatnonzero(xi)
    every = np.arange(d)
    shape = (d, d, d)
    maps = {
        "mu1": alg.bracket,
        "mu2": half + half.transpose((1, 0, 2)),
        "mu3": Coo(shape, (i[:, None] * d * d + every * (d + 1)).ravel(), np.repeat(t[i], d)),
        "mu4": Coo(shape, (every[:, None] * (d * d + 1) + i * d).ravel(), np.tile(t[i], d)),
        "mu5": Coo(shape, (ij[:, None] * d + k).ravel(), np.outer(g[ij], xi[k]).ravel()),
        "mu6": Coo(shape, ((i[:, None] * d + i)[:, :, None] * d + k).ravel(),
                   -np.einsum("i,j,k->ijk", t[i], t[i], xi[k]).ravel()),
    }
    maps["nu"] = maps["mu3"] - maps["mu4"]
    maps["theta"] = maps["mu3"] + maps["mu4"]
    return maps


def levi_civita_map(alg: MatrixAlgebra) -> Coo:
    return 0.5 * alg.bracket


def bracket_family_map(alg: MatrixAlgebra, alpha: float) -> Coo:
    """mu_alpha = ((1 - alpha)/2) [.,.]; its torsion is alpha times the
    canonical torsion -[X,Y]."""
    return ((1.0 - alpha) / 2.0) * alg.bracket


def vectorial_metric_map(alg: MatrixAlgebra, maps: dict | None = None) -> Coo:
    """The u(n) metric map [.,.]/2 + mu4 - mu5.

    Its difference tensor relative to the Levi-Civita map is exactly the
    trace-built vectorial tensor <X,Y> phi(Z) - <X,Z> phi(Y) with
    phi(Z) = -i tr Z; this is the member of the bi-invariant metric family
    with purely vectorial type.  `maps` is the Laquer basis of alg, built
    here when not given.
    """
    if maps is None:
        maps = laquer_basis(alg)
    return 0.5 * maps["mu1"] + maps["mu4"] - maps["mu5"]


# ---------------------------------------------------------------------------
# Defect functionals
# ---------------------------------------------------------------------------

def equivariance_defect(alg: MatrixAlgebra, mu) -> float:
    """Max norm of mu([W,X],Y) + mu(X,[W,Y]) - [W, mu(X,Y)] over basis triples:
    the derivative of mu along ad W."""
    return _max_derivative(alg, _along(alg.bracket, 3), _coo(mu, (alg.dim,) * 3), _max_slot_norm)


def _max_slot_norm(t: np.ndarray) -> float:
    """Largest Euclidean norm of t over its last axis."""
    return float(np.sqrt(np.einsum("...k,...k->...", t, t).max()))


def _max_abs(t: np.ndarray) -> float:
    return float(np.abs(t).max())


def _max_derivative(alg: MatrixAlgebra, lams: list, f, reduce) -> float:
    """Max of reduce (`_max_abs` or `_max_slot_norm`) over the derivative
    `_derivative(lams, F)`, by one of two paths with the same result.

    lams are Coo or None, and F a Coo or an array, converted after the int64
    guard.  The sparse path (`_sparse_derivative`) sums the products of the
    nonzeros of a Lambda and F that meet on a contracted index per entry,
    and reduces the entries they reach; an empty derivative gives 0.0.  It
    runs when it forms fewer products than the derivative has entries and
    no Z row alone needs more than _BLOCK_PRODUCTS of them.  Both counts are
    exact (`_products_per_row`) and taken before any product is formed; the
    entry codes are int64, and d^(F.ndim + 1) < 2^62 is checked.  Structure
    constants and the Laquer maps take the sparse path, and a dense map
    keeps the dense one (`_max_dense_derivative`), which densifies.
    """
    d = alg.dim
    if tuple(f.shape) != (d,) * f.ndim or len(lams) != f.ndim or any(
            lam is not None and lam.shape != (d, d, d) for lam in lams):
        raise TensorShapeError("tensor shape does not match the algebra dimension")
    _code_strides(d, f.ndim)
    f = _coo(f)
    rows = _products_per_row(lams, f)
    if rows.sum() < d ** (f.ndim + 1) and rows.max() <= _BLOCK_PRODUCTS:
        return max((_reduce_sparse(*block, d, reduce) for block in _sparse_derivative(lams, f, rows)),
                   default=0.0)
    return _max_dense_derivative(alg, lams, f, reduce)


def _max_dense_derivative(alg: MatrixAlgebra, lams: list, f: Coo, reduce) -> float:
    """The dense path of `_max_derivative`: densify each Lambda and F once,
    then reduce blocks of rows of Z, _BLOCK_ENTRIES entries per block, or
    one row if more."""
    dense = {id(t): np.asarray(t) for t in (*lams, f) if t is not None}
    lams = [None if lam is None else dense[id(lam)] for lam in lams]
    f = dense[id(f)]
    step = max(1, _BLOCK_ENTRIES // f.size)
    return max(reduce(_derivative([None if lam is None else lam[z:z + step] for lam in lams], f))
               for z in range(0, alg.dim, step))


def _along(mu, ndim: int) -> list:
    """The Lambda of each axis for the derivative of a vector-valued F
    with ndim axes along mu: mu on every slot, -mu^T on the output axis."""
    return [mu] * (ndim - 1) + [-mu.transpose((0, 2, 1))]


def _derivative(lams: list, f: np.ndarray) -> np.ndarray:
    """D[z, ..a at t..] = -sum_t sum_q lams[t][z,a,q] F[..q at t..], dense: one
    tensordot per axis whose Lambda is not None, moved into the output's
    layout and subtracted in place, so at most two such arrays are alive."""
    out = np.zeros((len(next(lam for lam in lams if lam is not None)),) + f.shape)
    for t, lam in enumerate(lams):
        if lam is not None:
            out -= np.moveaxis(np.tensordot(lam, f, axes=([2], [t])), 1, t + 1)
    return out


def _code_strides(d: int, ndim: int) -> list[int]:
    """Strides of F's axes in flat codes of its derivative, whose leading Z
    axis has stride d^ndim.  The codes are int64, so d^(ndim + 1) < 2^62 is
    checked here."""
    if d ** (ndim + 1) >= 1 << 62:
        raise TensorShapeError(f"a derivative with {d}^{ndim + 1} entries overflows int64 codes")
    return [d ** (ndim - 1 - axis) for axis in range(ndim)]


def _products_per_row(lams: list, f: Coo) -> np.ndarray:
    """Exact count of the products the sparse path forms for each Z row.

    The term of axis t joins lams[t][z,:,q] with the nonzeros of F whose
    index on axis t is q, so counts of nonzeros per (z, q) and per q give
    every count."""
    d = f.shape[0]
    rows = np.zeros(d, dtype=np.int64)
    for lam, s in zip(lams, _code_strides(d, f.ndim)):
        if lam is not None:
            per_zq = np.bincount(lam.codes // (d * d) * d + lam.codes % d, minlength=d * d)
            rows += per_zq.reshape(d, d) @ np.bincount(f.codes // s % d, minlength=d)
    return rows


def _sparse_derivative(lams: list, f: Coo, rows: np.ndarray):
    """`_derivative(lams, F)` as (codes, values) blocks over runs of Z rows:
    the flat codes of its reachable entries, sorted and distinct, and their
    values; entries no code names are zero.  `rows` is `_products_per_row`,
    and a block holds at most _BLOCK_PRODUCTS products, or one row.  Blocks
    without products are left out.

    The term of F's axis t, with code stride s, groups the nonzeros of F by
    their index q on that axis; an entry lam[z,a,q] meets every nonzero in
    group q, giving -lam * F at code z d^m + (F's code - q s) + a s.
    Products that share a code are summed.
    """
    d, m = f.shape[0], f.ndim
    terms = []
    for lam, s in zip(lams, _code_strides(d, m)):
        if lam is not None:
            q = f.codes // s % d
            z, a, k = np.unravel_index(lam.codes, lam.shape)
            terms.append(_term((z, k, z * d ** m + a * s, -lam.vals), (q, f.codes - q * s, f.vals),
                               d, d))
    return _join_blocks(terms, rows)


def _reduce_sparse(codes: np.ndarray, vals: np.ndarray, d: int, reduce) -> float:
    """reduce over one block of `_sparse_derivative`: max |value|, or the
    largest norm of the values whose codes share code // d (one last-axis
    slot)."""
    if reduce is _max_abs:
        return _max_abs(vals)
    slots = _run_starts(codes // d)
    return float(np.sqrt(np.add.reduceat(vals * vals, slots).max()))


def is_equivariant(alg: MatrixAlgebra, mu, tol: float = DEFAULT_TOL):
    defect = equivariance_defect(alg, mu)
    return defect < tol, defect


def metric_defect(alg: MatrixAlgebra, mu) -> float:
    """Max of |<mu(X,Y),Z> + <mu(X,Z),Y>|: skewness of every Lambda(X)."""
    mu = _coo(mu, (alg.dim,) * 3)
    return (mu + mu.transpose((0, 2, 1))).max_abs()


def parallel_metric_defect(alg: MatrixAlgebra, mu) -> float:
    """Max |(D_Z g)(X,Y)| = |<Lambda(Z)X,Y> + <X,Lambda(Z)Y>| of the metric g = Id:
    the scalar-valued derivative, slot terms only."""
    mu, d = _coo(mu, (alg.dim,) * 3), alg.dim
    eye = Coo((d, d), np.arange(d) * (d + 1), np.ones(d))
    return _max_derivative(alg, [mu, mu], eye, _max_abs)


def is_metric(alg: MatrixAlgebra, mu, tol: float = DEFAULT_TOL):
    defect = metric_defect(alg, mu)
    return defect < tol, defect


# ---------------------------------------------------------------------------
# Torsion, difference tensor, type decomposition
# ---------------------------------------------------------------------------

def torsion(alg: MatrixAlgebra, mu) -> Coo:
    mu = _coo(mu, (alg.dim,) * 3)
    return mu - mu.transpose((1, 0, 2)) - alg.bracket


def a_tensor(alg: MatrixAlgebra, mu) -> Coo:
    """Difference tensor of the connection against Levi-Civita: mu - [.,.]/2."""
    return _coo(mu, (alg.dim,) * 3) - 0.5 * alg.bracket


def _cubic(t) -> Coo:
    """t as a Coo, checked to be a cubic 3-tensor."""
    if t.ndim != 3 or len(set(t.shape)) != 1:
        raise TensorShapeError("expected a cubic 3-tensor")
    return _coo(t)


def a_from_torsion(t, tol: float = DEFAULT_TOL) -> Coo:
    """2A(X,Y,Z) = T(X,Y,Z) - T(Y,Z,X) + T(Z,X,Y)."""
    t = _cubic(t)
    if (t + t.transpose((1, 0, 2))).max_abs() > tol:
        raise TensorShapeError("torsion must be antisymmetric in its first two slots")
    # transpose(t, (2,0,1))[x,y,z] = t[y,z,x];  transpose(t, (1,2,0))[x,y,z] = t[z,x,y]
    return 0.5 * (t - t.transpose((2, 0, 1)) + t.transpose((1, 2, 0)))


def torsion_from_a(a) -> Coo:
    a = _cubic(a)
    return a - a.transpose((1, 0, 2))


def trace_vector(mu) -> np.ndarray:
    """sum_i mu(e_i, e_i), as coefficients."""
    return _diagonal(_cubic(mu), 0, 1)


@dataclasses.dataclass
class TypeDecomposition:
    """Orthogonal split of a difference tensor into its three pieces.

    a1: trace part built from a covector phi; a2: traceless cyclic part;
    a3: totally skew part.
    """

    phi: np.ndarray
    a1: Coo
    a2: Coo
    a3: Coo

    @property
    def a1_norm(self) -> float:
        return self.a1.norm()

    @property
    def a2_norm(self) -> float:
        return self.a2.norm()

    @property
    def a3_norm(self) -> float:
        return self.a3.norm()

    def reassembled(self) -> Coo:
        return self.a1 + self.a2 + self.a3


def classify_type(a, tol: float = DEFAULT_TOL) -> TypeDecomposition:
    """Project a difference tensor onto its trace/cyclic/skew components."""
    a = _cubic(a)
    if (a + a.transpose((0, 2, 1))).max_abs() > tol:
        raise TensorShapeError("tensor is not antisymmetric in its last two slots")
    d = a.shape[0]
    phi = _diagonal(a, 0, 1) / (d - 1)
    # a1[x,y,z] = delta_xy phi_z - delta_xz phi_y, at the nonzeros k of phi
    k, x = np.flatnonzero(phi), np.arange(d)[:, None]
    a1 = Coo(a.shape, np.concatenate(((x * (d * d + d) + k).ravel(), (x * (d * d + 1) + k * d).ravel())),
             np.concatenate((np.tile(phi[k], d), np.tile(-phi[k], d))))
    a3 = (a + a.transpose((1, 2, 0)) + a.transpose((2, 0, 1))) / 3.0
    a2 = a - a1 - a3
    return TypeDecomposition(phi=phi, a1=a1, a2=a2, a3=a3)


@dataclasses.dataclass
class TypeConditionReport:
    vectorial: bool
    traceless_cyclic: bool
    cyclic: bool
    traceless: bool
    skew: bool
    trace_vector_norm: float
    cyclic_defect: float
    skew_defect: float


def torsion_type_conditions(alg: MatrixAlgebra, mu,
                            tol: float = DEFAULT_TOL) -> TypeConditionReport:
    """Characterize the torsion type of a metric connection map.

    - cyclic:  the cyclic sum of <mu(X,Y),Z> equals 3/2 <[X,Y],Z>
    - traceless: sum_i mu(e_i, e_i) = 0
    - vectorial / traceless cyclic: per the component norms of the
      difference tensor mu - [.,.]/2
    - skew: Lambda(Z)Z = 0, i.e. the difference tensor is a 3-form
    """
    mu = _coo(mu, (alg.dim,) * 3)
    ok, defect = is_metric(alg, mu, tol)
    if not ok:
        raise TensorShapeError(f"map is not metric (defect {defect:.2e})")
    cyc = mu + mu.transpose((1, 2, 0)) + mu.transpose((2, 0, 1))
    cyclic_defect = (cyc - 1.5 * alg.bracket).max_abs()
    trace_norm = float(np.linalg.norm(trace_vector(mu)))
    dec = classify_type(a_tensor(alg, mu), tol)
    skew_defect = (mu + mu.transpose((1, 0, 2))).max_abs()
    return TypeConditionReport(
        vectorial=dec.a2_norm < tol and dec.a3_norm < tol,
        traceless_cyclic=dec.a1_norm < tol and dec.a3_norm < tol,
        cyclic=cyclic_defect < tol,
        traceless=trace_norm < tol,
        skew=skew_defect < tol,
        trace_vector_norm=trace_norm,
        cyclic_defect=cyclic_defect,
        skew_defect=skew_defect,
    )


# ---------------------------------------------------------------------------
# Curvature and Ricci
# ---------------------------------------------------------------------------

def curvature(alg: MatrixAlgebra, mu) -> np.ndarray:
    """R[x,y,z,k] with R(X,Y)Z = mu(X,mu(Y,Z)) - mu(Y,mu(X,Z)) - mu([X,Y],Z).

    A dense d^4 array: the batteries use `ricci_matrix` and
    `flatness_defect`, which never form it."""
    mu, c = np.asarray(mu, dtype=np.float64), np.asarray(alg.bracket)
    return (np.einsum("yzp,xpk->xyzk", mu, mu)
            - np.einsum("xzp,ypk->xyzk", mu, mu)
            - np.einsum("xyp,pzk->xyzk", c, mu))


def ricci_matrix(alg: MatrixAlgebra, mu) -> np.ndarray:
    """Ric(X,Y) = sum_i <R(e_i,X)Y, e_i>, contracted from mu directly:

        Ric[x,y] = sum_p mu[x,y,p] tau[p] - sum_{e,p} mu[e,y,p] mu[x,p,e]
                   - sum_{e,p} c[e,x,p] mu[p,y,e],   tau[p] = sum_e mu[e,p,e]

    where each double sum joins the nonzeros of its two factors on the
    pair (e, p), without the curvature tensor.
    """
    mu = _coo(mu, (alg.dim,) * 3)
    return (_contract_axis(mu, 2, _diagonal(mu, 0, 2))
            - _contract_pairs(mu, (1, 2), mu, (2, 0))
            - _contract_pairs(alg.bracket, (0, 2), mu, (2, 0)))


def flatness_defect(alg: MatrixAlgebra, mu) -> float:
    """Max |R[x,y,z,k]| without the d^4 array: R is the join on F = mu with
    the bracket on its first axis and mu, -mu^T on the other two."""
    mu = _coo(mu, (alg.dim,) * 3)
    return _max_derivative(alg, [alg.bracket, *_along(mu, 2)], mu, _max_abs)


@dataclasses.dataclass
class EinsteinReport:
    ricci: np.ndarray
    ric_sym: np.ndarray
    ric_alt: np.ndarray
    scal: float
    einstein_constant: float
    residual: float
    is_einstein: bool
    tol: float


def einstein_report(alg: MatrixAlgebra, ric: np.ndarray, tol: float = DEFAULT_TOL) -> EinsteinReport:
    sym = 0.5 * (ric + ric.T)
    alt = 0.5 * (ric - ric.T)
    scal = float(np.trace(sym))
    const = scal / alg.dim
    residual = float(np.linalg.norm(sym - const * np.eye(alg.dim)))
    return EinsteinReport(ric, sym, alt, scal, const, residual, residual < tol, tol)


def ricci(alg: MatrixAlgebra, mu, tol: float = DEFAULT_TOL) -> EinsteinReport:
    return einstein_report(alg, ricci_matrix(alg, mu), tol)


def einstein_check(alg: MatrixAlgebra, mu, tol: float = DEFAULT_TOL) -> EinsteinReport:
    mu = _coo(mu, (alg.dim,) * 3)
    ok, defect = is_metric(alg, mu, tol)
    if not ok:
        raise TensorShapeError(f"einstein_check requires a metric map (defect {defect:.2e})")
    return ricci(alg, mu, tol)


def ricci_skew_path(alg: MatrixAlgebra, t_form, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ricci of the metric connection with skew torsion T, via

        Ric = Ric_g - (1/4) sum_i <T(e_i,X), T(e_i,Y)> - (1/2) (delta T)(X,Y)

    with the co-differential (delta T)(X,Y) = -sum_i (D_{e_i} T)(e_i,X,Y) of
    the Levi-Civita derivative, contracted from mu = [.,.]/2 directly:

        (delta T)[x,y] = sum_{i,q} mu[i,i,q] T[q,x,y] + mu[i,x,q] T[i,q,y]
                         + mu[i,y,q] T[i,x,q]

    where each double sum joins the nonzeros of mu and T on the pair (i, q),
    without the d^4 derivative.
    """
    t_form = _coo(t_form, (alg.dim,) * 3)
    skew_defect = max((t_form + t_form.transpose((1, 0, 2))).max_abs(),
                      (t_form + t_form.transpose((0, 2, 1))).max_abs())
    if skew_defect > tol:
        raise TensorShapeError("T must be a totally skew 3-tensor")
    mu = levi_civita_map(alg)
    ric_g = ricci_matrix(alg, mu)
    s = _contract_pairs(t_form, (0, 2), t_form, (0, 2))
    delta = (_contract_axis(t_form, 0, _diagonal(mu, 0, 1))
             + _contract_pairs(mu, (0, 2), t_form, (0, 1))
             + _contract_pairs(t_form, (0, 2), mu, (0, 2)))
    return ric_g - 0.25 * s - 0.5 * delta


def vectorial_ricci(alg: MatrixAlgebra, xi: np.ndarray) -> np.ndarray:
    """Ricci of the metric connection whose difference tensor is the trace
    tensor of the covector dual to xi:

        Ric_g + (d-2) <X,xi><Y,xi> + (2-d) |xi|^2 <X,Y> + ((2-d)/2) <[X,Y],xi>

    over the full algebra dimension d, with |xi|^2 computed, not assumed.
    """
    xi = np.asarray(xi, dtype=float)
    norm_sq = float(xi @ xi)
    if norm_sq == 0.0:
        raise TensorShapeError("degenerate vectorial type: xi = 0")
    d = alg.dim
    ric_g = ricci_matrix(alg, levi_civita_map(alg))
    bracket_term = _contract_axis(alg.bracket, 2, xi)
    return (ric_g + (d - 2) * np.outer(xi, xi)
            + (2 - d) * norm_sq * np.eye(d) + 0.5 * (2 - d) * bracket_term)


# ---------------------------------------------------------------------------
# Derivations and covariant derivatives
# ---------------------------------------------------------------------------

def derivation_defect(alg: MatrixAlgebra, mu) -> float:
    """Max norm of mu(Z,[X,Y]) - [mu(Z,X),Y] - [X,mu(Z,Y)] over basis triples."""
    mu = _coo(mu, (alg.dim,) * 3)
    return _max_derivative(alg, _along(mu, 3), alg.bracket, _max_slot_norm)


def parallel_defect(alg: MatrixAlgebra, mu, f) -> float:
    """Max |(D_Z F)| over every entry: zero exactly when F is parallel for mu."""
    return _max_derivative(alg, _along(_coo(mu, (alg.dim,) * 3), f.ndim), f, _max_abs)


def covariant_derivative(alg: MatrixAlgebra, mu, f, vector_valued: bool = True) -> np.ndarray:
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
        raise TensorShapeError("tensor shape does not match the algebra dimension")
    return _derivative(_along(mu, f.ndim) if vector_valued else [mu] * f.ndim, f)
