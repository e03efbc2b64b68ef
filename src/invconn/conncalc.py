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
codes and their values: the structure constants and the Laquer maps of the
standard bases are over 99 % zeros (1680 of the 262,144 entries of the
bracket of u(8)).  A dense array passed to a public function is converted
once, on entry.  Every contraction is one sparse einsum, `_einsum(spec, a,
b)` with the spec `np.einsum` takes: entries of a and b that agree on the
letters of both multiply, and products that reach the same output code are
summed, in one block or, past _BLOCK_PRODUCTS products, in blocks of rows
of the first output letter, which bound the memory of their sort.  Equal
codes sum in the order their products were formed (`_codes.stable_order`,
the one sort of the package), so the block size changes no sum that the
sort branch of `sum_by_code` makes.  A signed sum of specs is one join
(`_einsum_sum`).  Only `Coo` and the einsum turn indices into flat codes,
which `_codes.sum_by_code` sums by.  The codes are a Coo's pattern, which
results with the same codes share (-c, s * c, transposes of a skew c): it
caches the order of a transpose and, per einsum plan, each join side's
order, keys and output codes, so a join gathers only values.

`MatrixAlgebra` forms e_i e_j (`iab,jbc->ijac`) from the nonzeros of the
basis matrices, reads the bracket from the commutators and checks that the
span is closed under the commutator.  Every derivative check is a sum of
einsum terms: a 3-tensor Lambda_t is contracted into axis t of F,

    D[z, ..a at t..] = -sum_t sum_q Lambda_t[z,a,q] F[..q at t..],

one spec per axis (`zaq,xqy->zxay` for t = 1 of a 3-axis F), and the checks
differ only in the list of Lambda, one per axis of F (None where an axis has
no term; c is the bracket, mu^T is mu with its last two axes swapped):

    D_Z F of a vector-valued F along mu     mu, .., mu, -mu^T  (parallel_defect)
    D_Z g of the metric, scalar-valued      mu, mu             (parallel_metric_defect)
    equivariance of mu = D_W mu along ad    c, c, -c^T         (equivariance_defect)
    derivation defect = D_Z c along mu      mu, mu, -mu^T      (derivation_defect)
    curvature R[x,y,z,k] of mu, F = mu      c, mu, -mu^T       (flatness_defect)

The battery paths hold no dense d^3 array, and the defects share one
reduction, `_max_derivative`: its sparse path reduces the blocks of the
einsum terms while no Z row forms more than _MAX_ROW_PRODUCTS products (a
cap on memory, set apart from the block target), and a dense map keeps a
dense path that reduces blocks of the derivative over its leading Z axis,
`_BLOCK_ENTRIES` entries at a time.
`build_algebra` refuses a size whose largest array would exceed
`MAX_ARRAY_BYTES`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers

import numpy as np

from ._codes import INT64_SAFE, MAX_ARRAY_BYTES, Box, stable_order, sum_by_code, value_dtype


class AlgebraError(ValueError):
    pass


class TensorShapeError(ValueError):
    pass


# The threshold of the float checks: the predicates below and the battery
# lines of `cli` compare their defects, norms and residuals with it.  The
# Einstein battery scales it by max(1, alpha^2), the size of the bracket
# family's defects.
DEFAULT_TOL = 1e-9

# Entries of one block of a derivative that a defect reduces without holding
# the whole d^4 tensor (8 MiB of float64); a block is at least one Z slice.
_BLOCK_ENTRIES = 1 << 20


# ---------------------------------------------------------------------------
# Sparse tensors
# ---------------------------------------------------------------------------

class Coo:
    """A tensor held as its nonzeros.

    `codes` are the C-order flat indices of the nonzero entries, int64,
    sorted and distinct, and `vals` their values, of the dtype given
    (complex for the basis matrices and their products, float64 for every
    tensor a public function returns); both are read-only.  The constructor
    takes entries in any order, sums the values that share a code and drops
    zeros (`sum_by_code`, equal codes in the order given).
    Given `pattern`, the cache of sorted distinct codes (`_cached`), it only
    drops zeros, and the result keeps the pattern when none was dropped.
    `np.asarray` gives the dense array, and `toarray` the vector and matrix
    results of the public functions; numpy ufuncs and mixed arithmetic with
    arrays are refused rather than densifying silently.
    """

    __array_ufunc__ = None

    def __init__(self, shape, codes, vals, pattern: dict | None = None):
        if pattern is None:
            shape = tuple(int(s) for s in shape)
            codes, vals = np.asarray(codes, dtype=np.int64), _int_guard(np.asarray(vals))
            (codes, vals), pattern = sum_by_code([(codes, vals)], _check_codes(shape), len(codes)), {}
        elif not vals.all():
            keep = vals != 0
            codes, vals, pattern = codes[keep], vals[keep], {}
        codes.flags.writeable = vals.flags.writeable = False
        self.shape, self.codes, self.vals, self._pattern = shape, codes, vals, pattern

    def _cached(self, key, make, *args):
        """make(*args), once for all the Coos of this pattern."""
        if key not in self._pattern:
            self._pattern[key] = make(*args)
        return self._pattern[key]

    @classmethod
    def from_dense(cls, a) -> Coo:
        a = np.asarray(a)
        _check_codes(a.shape)
        flat = a.reshape(-1)
        codes = np.flatnonzero(flat)
        return cls(a.shape, codes, flat[codes])

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def index(self) -> tuple:
        """The indices of the nonzeros, one read-only array per axis."""
        if "index" not in self._pattern:
            self._pattern["index"] = index = np.unravel_index(self.codes, self.shape)
            for axis in index:
                axis.flags.writeable = False
        return self._pattern["index"]

    def toarray(self) -> np.ndarray:
        out = np.zeros(math.prod(self.shape), dtype=self.vals.dtype)
        out[self.codes] = self.vals
        return out.reshape(self.shape)

    def __array__(self, dtype=None, copy=None):
        out = self.toarray()
        return out if dtype is None else out.astype(dtype, copy=False)

    def __repr__(self) -> str:
        return f"Coo(shape={self.shape}, nonzeros={len(self.codes)})"

    def __neg__(self) -> Coo:
        return Coo(self.shape, self.codes, -self.vals, self._pattern)

    def __add__(self, other) -> Coo:
        if not isinstance(other, Coo):
            return NotImplemented
        if other.shape != self.shape:
            raise TensorShapeError(f"shapes {self.shape} and {other.shape} differ")
        n, vals = len(self.codes), _int_guard(np.concatenate((self.vals, other.vals)))
        if self._pattern is other._pattern:  # the same codes
            return Coo(self.shape, self.codes, vals[:n] + vals[n:], self._pattern)
        return Coo(self.shape, np.concatenate((self.codes, other.codes)), vals)

    def __sub__(self, other) -> Coo:
        if not isinstance(other, Coo):
            return NotImplemented
        return self + -other

    def __mul__(self, scalar) -> Coo:
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        if isinstance(scalar, numbers.Integral) and self.vals.dtype.kind in "iO":
            vals = self.vals.astype(value_dtype(abs(int(scalar)) * _abs_sum(self.vals))) * int(scalar)
        else:
            vals = self.vals * float(scalar)
        return Coo(self.shape, self.codes, vals, self._pattern)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> Coo:
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        return Coo(self.shape, self.codes, self.vals / float(scalar), self._pattern)

    def transpose(self, axes) -> Coo:
        """The axes permuted as by `np.transpose(t, axes)`."""
        shape, codes, order, pattern = self._cached(("transpose", *axes), self._transposed, axes)
        return Coo(shape, codes, self.vals[order], self._pattern if pattern is None else pattern)

    def _transposed(self, axes):
        """A transpose's shape, sorted codes, order of self's entries and
        pattern cache, None when its codes are self's."""
        shape = tuple(self.shape[a] for a in axes)
        codes = np.ravel_multi_index(tuple(self.index[a] for a in axes), shape)
        order = stable_order(codes)
        codes = codes[order]
        same = shape == self.shape and np.array_equal(codes, self.codes)
        return (shape, self.codes, order, None) if same else (shape, codes, order, {})

    def real(self) -> Coo:
        return Coo(self.shape, self.codes, self.vals.real, self._pattern)

    def max_abs(self) -> float:
        return float(np.abs(self.vals).max()) if len(self.vals) else 0.0

    def norm(self) -> float:
        """The Euclidean (Frobenius) norm."""
        return _norm(self.vals)


def _sum_sq(x) -> float:
    """sum |x|^2 over the entries of an array, as one einsum.  numpy's
    `norm` and `@` would map OpenBLAS code into the process for this alone."""
    x = np.ravel(x)
    if x.dtype.kind == "c":
        x = x.view(x.real.dtype)
    return float(np.einsum("i,i->", x, x))


def _norm(x) -> float:
    """The Euclidean (Frobenius) norm of an array (`_sum_sq`)."""
    return math.sqrt(_sum_sq(x))


def _check_codes(shape) -> int:
    """The number of flat codes of a shape; refuses a shape whose codes
    would overflow int64."""
    size = math.prod(shape)
    if size >= INT64_SAFE:
        raise TensorShapeError(f"a tensor of shape {tuple(shape)} overflows int64 codes")
    return size


def _coo(t, shape=None) -> Coo:
    """t as a Coo: a dense array is converted here, once, on entry to a
    public function.  With `shape`, t must have that shape."""
    if not isinstance(t, Coo):
        t = np.asarray(t, dtype=np.float64)
    if shape is not None and tuple(t.shape) != tuple(shape):
        raise TensorShapeError("tensor shape does not match the algebra dimension")
    return t if isinstance(t, Coo) else Coo.from_dense(t)


@functools.lru_cache(maxsize=None)
def _identity(d: int) -> Coo:
    return Coo.from_dense(np.eye(d))


def _int_guard(vals: np.ndarray) -> np.ndarray:
    """Integer values as int64 while sum |v|, a bound on their sums, is
    below 2^62, and as Python ints beyond."""
    return vals.astype(value_dtype(_abs_sum(vals)), copy=False) if vals.dtype.kind == "i" else vals


def _abs_sum(vals: np.ndarray) -> int:
    """sum |v| over integer values, as a Python int."""
    return sum(map(abs, vals.tolist()))


# ---------------------------------------------------------------------------
# The sparse einsum
# ---------------------------------------------------------------------------

# Summing the duplicates of a block of a join holds five 8-byte arrays of its
# products: codes, values, their stable order and the sorted copies of both.
# The block target is for memory: the sums do not depend on it, as equal
# codes sum in the order their products were formed, and the time of a
# battery does not either; 2^14 products hold 640 KiB, and the tracemalloc
# peak of `un_battery(8)` is 1.73 MiB against 2.29 MiB at 2^15.  The row cap
# is a second bound on memory: a block is at least one row, and
# `_max_derivative` takes the dense path past 2^18 products in one row, whose
# five arrays take 10 MiB, the bytes of 1.25 _BLOCK_ENTRIES float64 entries.
_BLOCK_PRODUCTS = 1 << 14
_MAX_ROW_PRODUCTS = _BLOCK_ENTRIES // 4


def _einsum(spec: str, a: Coo, b: Coo) -> Coo:
    """`np.einsum(spec, a, b)` over the nonzeros, as a Coo."""
    return _einsum_sum([(spec, a, b, 1)])


def _einsum_sum(terms) -> Coo:
    """The sum of signed einsum terms [(spec, a, b, sign), ...], one join."""
    shape, total, joins = _einsum_blocks(terms)
    parts = list(_join_blocks(joins, total, shape))
    return Coo(shape, *(parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))), {})


def _einsum_blocks(terms):
    """The sum of signed einsum terms [(spec, a, b, sign), ...] of one output
    shape, no product formed: that shape, the number of products and one
    join per term (`_join`).  Integer values are int64 while sum |sign|
    sum|a| sum|b| over the terms, a bound on every product and sum, is
    below 2^62."""
    joins, shapes, total, dtype = [], set(), 0, None
    if all(t.vals.dtype.kind in "iO" for _, a, b, _ in terms for t in (a, b)):
        dtype = value_dtype(sum(abs(sign) * _abs_sum(a.vals) * _abs_sum(b.vals) for _, a, b, sign in terms))
    for spec, a, b, sign in terms:
        shape, row_axis, nkeys, a_weights, b_weights = _einsum_plan(spec, a.shape, b.shape)
        a_order, keys, codes = a._cached(("left", row_axis, a_weights), _left_side, a, row_axis, a_weights)
        b_order, starts, b_codes = b._cached(("right", b_weights), _right_side, b, b_weights, nkeys)
        a_vals, b_vals = (t.vals if dtype is None else t.vals.astype(dtype, copy=False) for t in (a, b))
        a_vals = a_vals if sign == 1 else a_vals * sign
        a_vals = a_vals if a_order is None else a_vals[a_order]
        b_vals = b_vals if b_order is None else b_vals[b_order]
        # Left entry i meets the sizes[i] right entries from first[i] on, and
        # its products follow the before[i] products of the entries ahead.
        first = starts[keys]
        sizes = starts[keys + 1] - first
        before = np.zeros(len(keys) + 1, dtype=np.int64)
        sizes.cumsum(out=before[1:])
        joins.append((b_codes, b_vals, codes, a_vals, first - before[:-1], sizes, before))
        total += int(before[-1])
        shapes.add(shape)
    if len(shapes) != 1:
        raise TensorShapeError("einsum terms must share one output shape")
    return shapes.pop(), total, joins


def _left_side(a: Coo, row_axis: int, weights) -> tuple:
    """The left side of a join on a's pattern, for `_einsum_plan`'s row axis
    and weights: the stable order of a's entries by their index on the row
    axis (None for axis 0, which the codes sort already), and the join keys
    and the output codes in that order."""
    keys, codes = _weighted(a.index, weights[0]), _weighted(a.index, weights[1])
    order = stable_order(a.index[row_axis], a.shape[row_axis]) if row_axis else None
    return (order, keys, codes) if order is None else (order, keys[order], codes[order])


def _right_side(b: Coo, weights, nkeys: int) -> tuple:
    """The right side of a join on b's pattern: the stable order of b's
    entries by join key (None where the codes sort them), the start of each
    key's run and the end of the last, and the output codes in that order."""
    keys, codes = _weighted(b.index, weights[0]), _weighted(b.index, weights[1])
    order = stable_order(keys, nkeys) if (keys[1:] < keys[:-1]).any() else None
    starts = np.zeros(nkeys + 1, dtype=np.int64)
    np.bincount(keys, minlength=nkeys).cumsum(out=starts[1:])
    return order, starts, codes if order is None else codes[order]


@functools.lru_cache(maxsize=None)
def _einsum_plan(spec: str, a_shape: tuple, b_shape: tuple):
    """The letter analysis of an einsum term: the output shape, the axis of
    a that holds the first output letter (the rows of the join), the number
    of join keys, and for each operand the weight of each axis in the key
    and in the output code, 0 where the axis has no part in it.  The key is
    the C-order code of the contracted letters, in a's order."""
    inputs, out = spec.split("->")
    letters = inputs.split(",")
    sizes: dict[str, int] = {}
    for names, shape in zip(letters, (a_shape, b_shape)):
        if len(names) != len(shape) or len(set(names)) != len(names):
            raise TensorShapeError(f"{spec}: each operand needs one distinct letter per axis")
        for c, size in zip(names, shape):
            if sizes.setdefault(c, size) != size:
                raise TensorShapeError(f"{spec}: letter {c!r} has sizes {sizes[c]} and {size}")
    la, lb = letters
    keys = [c for c in la if c in lb]
    if set(keys) & set(out) or len(set(out)) != len(out) or not set(out) <= sizes.keys():
        raise TensorShapeError(f"{spec}: an output letter must occur in exactly one operand, once")
    if not out or out[0] not in la:
        raise TensorShapeError(f"{spec}: the first output letter must be one of the first operand's")
    shape = tuple(sizes[c] for c in out)
    _check_codes(shape)
    key_weight = dict(zip(keys, Box([0] * len(keys), [sizes[c] - 1 for c in keys]).strides))
    code_weight = dict(zip(out, Box([0] * len(out), [s - 1 for s in shape]).strides))
    weights = [(tuple(key_weight.get(c, 0) for c in names), tuple(code_weight.get(c, 0) for c in names))
               for names in letters]
    return shape, la.index(out[0]), math.prod(sizes[c] for c in keys), *weights


def _weighted(index, weights) -> np.ndarray:
    """sum over axes of index[axis] * weights[axis], as int64."""
    parts = [i if w == 1 else i * w for i, w in zip(index, weights) if w]
    return sum(parts[1:], parts[0]) if parts else np.zeros(len(index[0]), dtype=np.int64)


def _row_products(joins, shape) -> np.ndarray:
    """Exact count of the products of each row over all joins: the left
    codes of row z, in row order, are those from z * stride up to (z + 1) *
    stride, so a binary search finds each row's first entry."""
    cuts = np.arange(shape[0] + 1) * math.prod(shape[1:])
    return sum(np.diff(before[codes.searchsorted(cuts)]) for _, _, codes, _, _, _, before in joins)


def _join_blocks(joins, total: int, shape, rows=None):
    """The products of the joins of `_einsum_blocks` as (codes, values)
    blocks over runs of rows of the first output letter: sorted distinct
    codes and the summed products at each.  Up to _BLOCK_PRODUCTS products
    are one block, even none; more are split by their count per row
    (`rows`, `_row_products` when not given) into blocks of at most
    _BLOCK_PRODUCTS, or one row, without empty ones.  A block whose sums
    all cancel is empty (`sum_by_code`)."""
    nrows, stride = shape[0], math.prod(shape[1:])
    cuts, ends = [0, nrows], [(0, len(j[2])) for j in joins]
    if total > _BLOCK_PRODUCTS:
        rows = _row_products(joins, shape) if rows is None else rows
        bounds = np.concatenate(([0], rows.cumsum()))  # products before each row
        cuts = [0]
        while cuts[-1] < nrows:
            z1 = int(bounds.searchsorted(bounds[cuts[-1]] + _BLOCK_PRODUCTS, "right")) - 1
            cuts.append(max(cuts[-1] + 1, z1))
        ends = [j[2].searchsorted(np.multiply(cuts, stride)) for j in joins]
    dtype = np.result_type(*(j[1] for j in joins), *(j[3] for j in joins))
    for k, (z0, z1) in enumerate(zip(cuts, cuts[1:])):
        size = total if len(cuts) == 2 else sum(int(j[6][e[k + 1]] - j[6][e[k]]) for j, e in zip(joins, ends))
        if size or len(cuts) == 2:
            codes, vals = np.empty(size, dtype=np.int64), np.empty(size, dtype=dtype)
            at = 0
            for join, e in zip(joins, ends):
                at = _join(join, e[k], e[k + 1], codes, vals, at)
            yield sum_by_code([(codes, vals)], (z1 - z0) * stride, size, z0 * stride)


def _join(join, e0: int, e1: int, out_codes: np.ndarray, out_vals: np.ndarray, at: int) -> int:
    """Every product of the left entries e0..e1 - 1 of a join of
    `_einsum_blocks`, (right codes, right values, left codes, left values,
    shift, sizes, before), with the right entries of their keys, written
    from index `at` of the outputs as summed codes and products; returns the
    index after them."""
    r_codes, r_vals, codes, vals, shift, sizes, before = join
    sizes = sizes[e0:e1]
    # The product at position p of the join, of left entry i, takes the right
    # entry first[i] + p - before[i] = shift[i] + p.
    pick = shift[e0:e1].repeat(sizes)
    pick += np.arange(before[e0], before[e1])
    end = at + len(pick)
    r_codes.take(pick, out=out_codes[at:end], mode="clip")  # pick is in range: no bounds buffer
    out_codes[at:end] += codes[e0:e1].repeat(sizes)
    r_vals.take(pick, out=out_vals[at:end], mode="clip")
    out_vals[at:end] *= vals[e0:e1].repeat(sizes)
    return end


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
    as a Coo, `killing` the Killing form over the basis, `gram` the Gram
    matrix -Re tr e_i e_j and `traces` the real numbers i tr e_k.

    Independence: G, the Gram matrix of -Re tr, is symmetric and, for an
    anti-Hermitian basis, positive semidefinite; the dual basis is its
    inverse by Gauss-Jordan elimination without pivoting (`_spd_inverse`).
    A pivot that is not > 0 (NaN included) rejects the basis as dependent
    or not anti-Hermitian, and an inverse with ||G||_F ||G^-1||_F d eps >= 1
    rejects it as dependent.  As cond_F >= cond_2, this rejects without
    an SVD whatever numpy's `matrix_rank(G) < d`, cond_2 >= 1/(d eps), does.
    No basis, coefficient or norm computation calls BLAS or LAPACK.

    The products e_i e_j are einsums of the nonzeros of the basis matrices.
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
        self.dim = len(basis)

        self.gram = gram = -np.real(np.einsum("iab,jba->ij", self.basis, self.basis))
        self.traces = np.real(1j * np.einsum("iaa->i", self.basis))
        gram.flags.writeable = self.traces.flags.writeable = False
        # Inverse Gram matrix of -Re tr: the dual basis that `coeffs` reads through.
        self._dual = _spd_inverse(gram)
        if self._dual is None:
            raise AlgebraError(f"{name}: basis is not linearly independent, or not anti-Hermitian "
                               "(the Gram matrix of -Re tr is not positive definite)")
        if not _norm(gram) * _norm(self._dual) * self.dim * np.finfo(float).eps < 1.0:  # NaN rejects too
            raise AlgebraError(f"{name}: basis is not linearly independent")
        self._basis = e = Coo.from_dense(self.basis)

        comm = _einsum_sum([("iab,jbc->ijac", e, e, 1), ("ibc,jab->ijac", e, e, -1)])
        self.bracket = self._sparse_coeffs(comm)
        # A commutator outside the span has no coefficients, only the
        # projection that `coeffs` reads; closure is what the check tests.
        self.closure_residual = (comm - _einsum("ijk,kac->ijac", self.bracket, e)).max_abs()
        if self.closure_residual > 1e-11 * max(1.0, comm.max_abs()):
            raise AlgebraError(f"{name}: basis is not closed under the bracket "
                               f"({self.closure_residual:.2e})")

        # B(X, Y) = tr(ad X ad Y) from the structure coefficients.
        self.killing = _einsum("ipq,jqp->ij", self.bracket, self.bracket).toarray()

    def _sparse_coeffs(self, m: Coo) -> Coo:
        """`coeffs` of the matrices m[i, j], a (d, d, n, n) Coo, as a (d, d, d)
        Coo: -Re tr(m[i, j] e_k), then the dual basis."""
        raw = -_einsum("ijac,kca->ijk", m, self._basis).real()
        return _einsum("ijk,kl->ijl", raw, Coo.from_dense(self._dual))

    @functools.cached_property
    def center(self) -> np.ndarray:
        """coeffs(i Id), the center direction of u(n), formed once."""
        return self.coeffs(1j * np.eye(self.n))

    def matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """The algebra element with the given basis coefficients."""
        return np.einsum("i,iab->ab", coeffs, self.basis)

    def coeffs(self, m: np.ndarray) -> np.ndarray:
        """Basis coefficients of an algebra element, or of a stack of them
        (the leading axes are kept)."""
        raw = -np.real(np.einsum("...ab,kba->...k", m, self.basis))
        return np.einsum("...k,kl->...l", raw, self._dual)

    def bilinear_coeffs(self, f) -> np.ndarray:
        """Structure coefficients c[i,j,k] of a matrix-valued bilinear map,
        as a dense array."""
        return self.coeffs(np.array([[f(x, y) for y in self.basis] for x in self.basis]))

    def __repr__(self) -> str:
        return f"MatrixAlgebra({self.name}, dim={self.dim})"


def _spd_inverse(g: np.ndarray) -> np.ndarray | None:
    """The inverse of a symmetric positive definite matrix by Gauss-Jordan
    elimination on [G | I] without pivoting, or None at a pivot that is not
    > 0.  A row whose entry in the pivot column is exactly 0 is not
    updated: a Gram matrix of a standard basis is diagonal but for entries
    of about 1e-17, so most columns update no row."""
    d = len(g)
    a = np.concatenate([g, np.eye(d)], axis=1)
    for col in range(d):
        row = a[col]
        pivot = row[col]
        if not pivot > 0:
            return None
        row /= pivot
        rows = a[:, col].nonzero()[0]
        if len(rows) > 1:
            rows = rows[rows != col]
            a[rows] -= np.multiply.outer(a[rows, col], row)
    return a[:, d:]


def build_algebra(name: str, n: int) -> MatrixAlgebra:
    """Standard orthonormal bases for u(n), su(n), so(n).

    Sizes whose largest array (`_largest_array_bytes`) exceeds
    `MAX_ARRAY_BYTES` (128 MiB) are refused before anything is allocated:
    u(14), su(14) and so(18) are the largest algebras accepted.
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
    float64 on the dense path, and on the sparse path a block of at most
    _BLOCK_PRODUCTS products, or one row of at most _MAX_ROW_PRODUCTS (a
    quarter of _BLOCK_ENTRIES), or the d^3 nonzeros of a Lambda, 8 bytes
    each.  The standard bases have at most n nonzeros per matrix, and their
    arrays stay far below the bound."""
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
    t_i = i tr e_i (`alg.traces`), g_ij = tr e_i e_j (minus `alg.gram`) and
    xi = coeffs(i Id) (`alg.center`),

        mu3[i,j,k] = t_i delta_jk      mu5[i,j,k] = g_ij xi_k
        mu4[i,j,k] = t_j delta_ik      mu6[i,j,k] = -t_i t_j xi_k,

    each an outer product of the nonzeros of t, g, xi and the identity.
    """
    if not alg.name.startswith("u("):
        raise AlgebraError("the Laquer basis lives on u(n)")
    e = alg._basis
    prod = _einsum("iab,jbc->ijac", e, e)
    half = alg._sparse_coeffs(Coo(prod.shape, prod.codes, 1j * prod.vals))
    g = Coo.from_dense(-alg.gram)
    t = Coo.from_dense(alg.traces)
    xi = Coo.from_dense(alg.center)
    eye = _identity(alg.dim)
    maps = {
        "mu1": alg.bracket,
        "mu2": half + half.transpose((1, 0, 2)),
        "mu3": _einsum("i,jk->ijk", t, eye),
        "mu4": _einsum("ik,j->ijk", eye, t),
        "mu5": _einsum("ij,k->ijk", g, xi),
        "mu6": -_einsum("ij,k->ijk", _einsum("i,j->ij", t, t), xi),
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
    guard on the derivative's d^(F.ndim + 1) entries.  The sparse path
    reduces the blocks of the einsum terms (`_derivative_terms`); an empty
    derivative gives 0.0.  It runs when the terms form fewer products than
    the derivative has entries and no Z row needs more than
    _MAX_ROW_PRODUCTS of them, both counted exactly before any product is
    formed, the rows only past _BLOCK_PRODUCTS products in all, where the
    blocks need them too.  A dense map keeps the dense path
    (`_max_dense_derivative`), which densifies.
    """
    d = alg.dim
    if tuple(f.shape) != (d,) * f.ndim or len(lams) != f.ndim or any(
            lam is not None and lam.shape != (d, d, d) for lam in lams):
        raise TensorShapeError("tensor shape does not match the algebra dimension")
    _check_codes((d,) * (f.ndim + 1))
    f = _coo(f)
    shape, total, joins = _einsum_blocks(_derivative_terms(lams, f))
    rows = _row_products(joins, shape) if total > _BLOCK_PRODUCTS else None
    if total < d ** (f.ndim + 1) and (rows is None or rows.max() <= _MAX_ROW_PRODUCTS):
        blocks = _join_blocks(joins, total, shape, rows)
        return max((_reduce_sparse(*block, d, reduce) for block in blocks), default=0.0)
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


# Letters of F's axes in the derivative's einsum terms: all but z, a and q.
_AXIS_LETTERS = "bcdefghijklmnoprstuvwxyABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _derivative_terms(lams: list, f: Coo) -> list:
    """`_derivative(lams, F)` as signed einsum terms: for each axis t whose
    Lambda is not None, -Lambda_t[z,a,q] F[..q at t..] -> D[z, ..a at t..]."""
    axes = _AXIS_LETTERS[:f.ndim]
    return [(f"zaq,{axes[:t]}q{axes[t + 1:]}->z{axes[:t]}a{axes[t + 1:]}", lam, f, -1)
            for t, lam in enumerate(lams) if lam is not None]


def _reduce_sparse(codes: np.ndarray, vals: np.ndarray, d: int, reduce) -> float:
    """reduce over one block of the derivative: max |value|, or the
    largest norm of the values whose codes share code // d (one last-axis
    slot); 0.0 for a block whose sums all cancelled."""
    if not len(vals):
        return 0.0
    if reduce is _max_abs:
        return _max_abs(vals)
    slots = codes // d
    _, norms = sum_by_code([(slots, vals * vals)], int(slots[-1] - slots[0]) + 1, len(slots), int(slots[0]))
    return float(np.sqrt(norms.max(initial=0.0)))


def metric_defect(alg: MatrixAlgebra, mu) -> float:
    """Max of |<mu(X,Y),Z> + <mu(X,Z),Y>|: skewness of every Lambda(X)."""
    mu = _coo(mu, (alg.dim,) * 3)
    return (mu + mu.transpose((0, 2, 1))).max_abs()


def parallel_metric_defect(alg: MatrixAlgebra, mu) -> float:
    """Max |(D_Z g)(X,Y)| = |<Lambda(Z)X,Y> + <X,Lambda(Z)Y>| of the metric g = Id:
    the scalar-valued derivative, slot terms only."""
    mu = _coo(mu, (alg.dim,) * 3)
    return _max_derivative(alg, [mu, mu], _identity(alg.dim), _max_abs)


def is_metric(alg: MatrixAlgebra, mu):
    defect = metric_defect(alg, mu)
    return defect < DEFAULT_TOL, defect


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


def trace_vector(mu) -> np.ndarray:
    """sum_i mu(e_i, e_i), as coefficients."""
    mu = _cubic(mu)
    return _einsum("ijk,ij->k", mu, _identity(mu.shape[0])).toarray()


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


def classify_type(a) -> TypeDecomposition:
    """Project a difference tensor onto its trace/cyclic/skew components."""
    a = _cubic(a)
    if (a + a.transpose((0, 2, 1))).max_abs() > DEFAULT_TOL:
        raise TensorShapeError("tensor is not antisymmetric in its last two slots")
    d = a.shape[0]
    eye = _identity(d)
    phi = _einsum("xyz,xy->z", a, eye) / (d - 1)
    # a1[x,y,z] = delta_xy phi_z - delta_xz phi_y
    a1 = _einsum_sum([("xy,z->xyz", eye, phi, 1), ("xz,y->xyz", eye, phi, -1)])
    a3 = (a + a.transpose((1, 2, 0)) + a.transpose((2, 0, 1))) / 3.0
    a2 = a - a1 - a3
    return TypeDecomposition(phi=phi.toarray(), a1=a1, a2=a2, a3=a3)


@dataclasses.dataclass
class TypeConditionReport:
    """The torsion type conditions of a metric map, its trace vector
    sum_i mu(e_i, e_i), and `decomposition`, the type decomposition of its
    difference tensor mu - [.,.]/2."""

    vectorial: bool
    traceless_cyclic: bool
    cyclic: bool
    traceless: bool
    skew: bool
    trace_vector: np.ndarray
    cyclic_defect: float
    skew_defect: float
    decomposition: TypeDecomposition

    @property
    def trace_vector_norm(self) -> float:
        return _norm(self.trace_vector)


def torsion_type_conditions(alg: MatrixAlgebra, mu) -> TypeConditionReport:
    """Characterize the torsion type of a metric connection map.

    - cyclic:  the cyclic sum of <mu(X,Y),Z> equals 3/2 <[X,Y],Z>
    - traceless: sum_i mu(e_i, e_i) = 0
    - vectorial / traceless cyclic: per the component norms of the
      difference tensor mu - [.,.]/2
    - skew: Lambda(Z)Z = 0, i.e. the difference tensor is a 3-form
    """
    mu = _coo(mu, (alg.dim,) * 3)
    ok, defect = is_metric(alg, mu)
    if not ok:
        raise TensorShapeError(f"map is not metric (defect {defect:.2e})")
    cyc = mu + mu.transpose((1, 2, 0)) + mu.transpose((2, 0, 1))
    cyclic_defect = (cyc - 1.5 * alg.bracket).max_abs()
    trace = trace_vector(mu)
    dec = classify_type(a_tensor(alg, mu))
    skew_defect = (mu + mu.transpose((1, 0, 2))).max_abs()
    return TypeConditionReport(
        vectorial=dec.a2_norm < DEFAULT_TOL and dec.a3_norm < DEFAULT_TOL,
        traceless_cyclic=dec.a1_norm < DEFAULT_TOL and dec.a3_norm < DEFAULT_TOL,
        cyclic=cyclic_defect < DEFAULT_TOL,
        traceless=_norm(trace) < DEFAULT_TOL,
        skew=skew_defect < DEFAULT_TOL,
        trace_vector=trace,
        cyclic_defect=cyclic_defect,
        skew_defect=skew_defect,
        decomposition=dec,
    )


# ---------------------------------------------------------------------------
# Curvature and Ricci
# ---------------------------------------------------------------------------

def ricci_matrix(alg: MatrixAlgebra, mu) -> np.ndarray:
    """Ric(X,Y) = sum_i <R(e_i,X)Y, e_i>, contracted from mu directly:

        Ric[x,y] = sum_p mu[x,y,p] tau[p] - sum_{e,p} mu[e,y,p] mu[x,p,e]
                   - sum_{e,p} c[e,x,p] mu[p,y,e],   tau[p] = sum_e mu[e,p,e]

    as three einsums of the nonzeros, without the curvature tensor.
    """
    mu = _coo(mu, (alg.dim,) * 3)
    tau = _einsum("epq,eq->p", mu, _identity(alg.dim))
    return (_einsum("xyp,p->xy", mu, tau).toarray()
            - _einsum("xpe,eyp->xy", mu, mu).toarray()
            - _einsum("exp,pye->xy", alg.bracket, mu).toarray())


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


def ricci(alg: MatrixAlgebra, mu) -> EinsteinReport:
    ric = ricci_matrix(alg, mu)
    sym = 0.5 * (ric + ric.T)
    alt = 0.5 * (ric - ric.T)
    scal = float(np.trace(sym))
    const = scal / alg.dim
    residual = _norm(sym - const * np.eye(alg.dim))
    return EinsteinReport(ric, sym, alt, scal, const, residual, residual < DEFAULT_TOL)


def einstein_check(alg: MatrixAlgebra, mu) -> EinsteinReport:
    mu = _coo(mu, (alg.dim,) * 3)
    ok, defect = is_metric(alg, mu)
    if not ok:
        raise TensorShapeError(f"einstein_check requires a metric map (defect {defect:.2e})")
    return ricci(alg, mu)


def vectorial_ricci(alg: MatrixAlgebra, xi: np.ndarray, ric_g: np.ndarray) -> np.ndarray:
    """Ricci of the metric connection whose difference tensor is the trace
    tensor of the covector dual to xi:

        Ric_g + (d-2) <X,xi><Y,xi> + (2-d) |xi|^2 <X,Y> + ((2-d)/2) <[X,Y],xi>

    over the full algebra dimension d, with |xi|^2 computed, not assumed.
    `ric_g` is the Levi-Civita Ricci `ricci_matrix(alg, levi_civita_map(alg))`,
    which the caller has already computed.
    """
    xi = np.asarray(xi, dtype=float)
    norm_sq = _sum_sq(xi)
    if norm_sq == 0.0:
        raise TensorShapeError("degenerate vectorial type: xi = 0")
    d = alg.dim
    bracket_term = _einsum("xyp,p->xy", alg.bracket, Coo.from_dense(xi)).toarray()
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
