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

`MatrixAlgebra` reads the bracket from the matrices and checks that their
span is closed under the commutator.  Every derivative check is one join,
`_derivative`: a 3-tensor Lambda_t is contracted into axis t of F,

    D[z, ..a at t..] = -sum_t sum_q Lambda_t[z,a,q] F[..q at t..],

and the checks differ only in the list of Lambda, one per axis of F (None
where an axis has no term; c is the bracket, mu^T is mu with its last two
axes swapped):

    D_Z F of a vector-valued F along mu     mu, .., mu, -mu^T  (covariant_derivative)
    D_Z g of the metric, scalar-valued      mu, mu             (parallel_metric_defect)
    equivariance of mu = D_W mu along ad    c, c, -c^T         (equivariance_defect)
    derivation defect = D_Z c along mu      mu, mu, -mu^T      (derivation_defect)
    curvature R[x,y,z,k] of mu, F = mu      c, mu, -mu^T       (flatness_defect)

The battery paths hold no d^4 array: `ricci_matrix` and `ricci_skew_path`
contract mu directly, and the defects share one reduction,
`_max_derivative`, with two paths.  The dense path reduces blocks of the
derivative over its leading Z axis, `_BLOCK_ENTRIES` entries at a time.
The sparse path joins the exact nonzeros of each Lambda and F on the
contracted index into (entry code, product) pairs and sums the pairs per
entry, so structure constants and the Laquer maps, which are over 99 %
zeros, never meet the zeros.  The sparse path runs when its exact product
count is below the derivative's entry count and no Z row needs more than
`_BLOCK_PRODUCTS` products; a dense map keeps the dense path.
`build_algebra` refuses a size whose largest array would exceed
`MAX_ARRAY_BYTES`.  The 4-index `curvature` remains for small algebras and
as a test oracle.
"""

from __future__ import annotations

import dataclasses

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
    and `killing` the Killing form over the basis.

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

        gram = -np.real(np.einsum("iab,jba->ij", self.basis, self.basis))
        if np.linalg.matrix_rank(gram) < self.dim:
            raise AlgebraError(f"{name}: basis is not linearly independent")
        # Inverse Gram matrix of -Re tr: the dual basis that `coeffs` reads through.
        self._dual = np.linalg.inv(gram)

        prod = np.matmul(self.basis[:, None], self.basis[None])  # e_i e_j
        comm = prod - np.transpose(prod, (1, 0, 2, 3))
        self.bracket = self.coeffs(comm)
        # A commutator outside the span has no coefficients, only the
        # projection that `coeffs` reads; closure is what the check tests.
        residual = comm - np.tensordot(self.bracket, self.basis, axes=1)
        self.closure_residual = float(np.abs(residual).max())
        if self.closure_residual > 1e-11 * max(1.0, float(np.abs(comm).max())):
            raise AlgebraError(f"{name}: basis is not closed under the bracket "
                               f"({self.closure_residual:.2e})")

        # B(X, Y) = tr(ad X ad Y) from the structure coefficients.
        self.killing = np.tensordot(self.bracket, self.bracket, axes=([1, 2], [2, 1]))

    def matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """The algebra element with the given basis coefficients."""
        return np.einsum("i,iab->ab", coeffs, self.basis)

    def coeffs(self, m: np.ndarray) -> np.ndarray:
        """Basis coefficients of an algebra element, or of a stack of them
        (the leading axes are kept)."""
        return -np.real(np.tensordot(m, self.basis, axes=([-2, -1], [2, 1]))) @ self._dual

    def bilinear_coeffs(self, f) -> np.ndarray:
        """Structure coefficients c[i,j,k] of a matrix-valued bilinear map."""
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
    """Bytes of the largest array that building a d-dimensional algebra of
    n x n matrices and running its batteries allocate: the complex products
    of all basis pairs, (d, d, n, n), or one block of a derivative: at
    least a d^3 slice of float64 on the dense path, and on the sparse path
    _BLOCK_PRODUCTS products or the d^3 nonzeros of a Lambda, 8 bytes each."""
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

def laquer_basis(alg: MatrixAlgebra) -> dict[str, np.ndarray]:
    """The six bi-invariant bilinear maps on u(n), plus nu and theta.

    mu1 = [X,Y]                  mu2 = i(XY + YX)
    mu3 = i tr(X) Y              mu4 = i tr(Y) X
    mu5 = i tr(XY) Id            mu6 = i tr(X) tr(Y) Id
    nu = mu3 - mu4 (skew)        theta = mu3 + mu4 (symmetric)

    In closed form over the basis: mu1 is the bracket, mu2 the symmetrised
    coefficients of the stacked products i e_i e_j, and with the real
    numbers t_i = i tr e_i, g_ij = tr e_i e_j and xi = coeffs(i Id),

        mu3[i,j,k] = t_i delta_jk      mu5[i,j,k] = g_ij xi_k
        mu4[i,j,k] = t_j delta_ik      mu6[i,j,k] = -t_i t_j xi_k.
    """
    if not alg.name.startswith("u("):
        raise AlgebraError("the Laquer basis lives on u(n)")
    prod = np.matmul(alg.basis[:, None], alg.basis[None])  # e_i e_j
    half = alg.coeffs(1j * prod)
    t = np.real(1j * np.einsum("iaa->i", alg.basis))
    g = np.real(np.einsum("ijaa->ij", prod))
    xi = alg.coeffs(1j * np.eye(alg.n))
    eye = np.eye(alg.dim)
    maps = {
        "mu1": alg.bracket.copy(),
        "mu2": half + np.transpose(half, (1, 0, 2)),
        "mu3": np.einsum("i,jk->ijk", t, eye),
        "mu4": np.einsum("j,ik->ijk", t, eye),
        "mu5": np.einsum("ij,k->ijk", g, xi),
        "mu6": -np.einsum("i,j,k->ijk", t, t, xi),
    }
    maps["nu"] = maps["mu3"] - maps["mu4"]
    maps["theta"] = maps["mu3"] + maps["mu4"]
    return maps


def levi_civita_map(alg: MatrixAlgebra) -> np.ndarray:
    return 0.5 * alg.bracket


def bracket_family_map(alg: MatrixAlgebra, alpha: float) -> np.ndarray:
    """mu_alpha = ((1 - alpha)/2) [.,.]; its torsion is alpha times the
    canonical torsion -[X,Y]."""
    return ((1.0 - alpha) / 2.0) * alg.bracket


def vectorial_metric_map(alg: MatrixAlgebra, maps: dict | None = None) -> np.ndarray:
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

def equivariance_defect(alg: MatrixAlgebra, mu: np.ndarray) -> float:
    """Max norm of mu([W,X],Y) + mu(X,[W,Y]) - [W, mu(X,Y)] over basis triples:
    the derivative of mu along ad W."""
    return _max_derivative(alg, _along(alg.bracket, 3), mu, _max_slot_norm)


def _max_slot_norm(t: np.ndarray) -> float:
    """Largest Euclidean norm of t over its last axis."""
    return float(np.sqrt(np.einsum("...k,...k->...", t, t).max()))


def _max_abs(t: np.ndarray) -> float:
    return float(np.abs(t).max())


def _max_derivative(alg: MatrixAlgebra, lams: list, f: np.ndarray, reduce) -> float:
    """Max of reduce (`_max_abs` or `_max_slot_norm`) over the derivative
    `_derivative(lams, F)`, by one of two paths with the same result.

    The dense path reduces blocks of rows of Z, _BLOCK_ENTRIES entries at a
    time.  The sparse path (`_sparse_derivative`) sums the products of the
    exact nonzeros of a Lambda and F that meet on a contracted index per
    entry, and reduces the entries they reach; an empty derivative gives
    0.0.  It runs when it forms fewer products than the derivative has
    entries and no Z row alone needs more than _BLOCK_PRODUCTS of them.
    Both counts are exact (`_products_per_row`) and taken before any product
    is formed; the entry codes are int64, and d^(F.ndim + 1) < 2^62 is
    checked.  Structure constants and the Laquer maps take the sparse path,
    and a dense map keeps the dense one.
    """
    d = alg.dim
    if f.shape != (d,) * f.ndim or len(lams) != f.ndim or any(
            lam is not None and lam.shape != (d, d, d) for lam in lams):
        raise TensorShapeError("tensor shape does not match the algebra dimension")
    _code_strides(d, f.ndim)
    rows = _products_per_row(lams, f)
    if rows.sum() < d * f.size and rows.max() <= _BLOCK_PRODUCTS:
        return max((_reduce_sparse(*block, d, reduce) for block in _sparse_derivative(lams, f, rows)),
                   default=0.0)
    return _max_dense_derivative(alg, lams, f, reduce)


def _max_dense_derivative(alg: MatrixAlgebra, lams: list, f: np.ndarray, reduce) -> float:
    """The dense path of `_max_derivative`: reduce blocks of rows of Z,
    _BLOCK_ENTRIES entries per block, or one row if more."""
    step = max(1, _BLOCK_ENTRIES // f.size)
    return max(reduce(_derivative([None if lam is None else lam[z:z + step] for lam in lams], f))
               for z in range(0, alg.dim, step))


def _along(mu: np.ndarray, ndim: int) -> list:
    """The Lambda of each axis for the derivative of a vector-valued F
    with ndim axes along mu: mu on every slot, -mu^T on the output axis,
    laid out in C order, which the nonzero scans and tensordots read fastest."""
    return [mu] * (ndim - 1) + [np.negative(np.swapaxes(mu, 1, 2), order="C")]


def _derivative(lams: list, f: np.ndarray) -> np.ndarray:
    """D[z, ..a at t..] = -sum_t sum_q lams[t][z,a,q] F[..q at t..], dense: one
    tensordot per axis whose Lambda is not None, moved into the output's
    layout and subtracted in place, so at most two such arrays are alive."""
    out = np.zeros((len(next(lam for lam in lams if lam is not None)),) + f.shape)
    for t, lam in enumerate(lams):
        if lam is not None:
            out -= np.moveaxis(np.tensordot(lam, f, axes=([2], [t])), 1, t + 1)
    return out


# Products of one block of the sparse path.  Summing its duplicates holds
# four 8-byte arrays of products (codes, values, their sort order and one
# sorted copy), so a block takes the bytes of _BLOCK_ENTRIES float64 entries.
_BLOCK_PRODUCTS = _BLOCK_ENTRIES // 4


def _code_strides(d: int, ndim: int) -> list[int]:
    """Strides of F's axes in flat codes of its derivative, whose leading Z
    axis has stride d^ndim.  The codes are int64, so d^(ndim + 1) < 2^62 is
    checked here."""
    if d ** (ndim + 1) >= 1 << 62:
        raise TensorShapeError(f"a derivative with {d}^{ndim + 1} entries overflows int64 codes")
    return [d ** (ndim - 1 - axis) for axis in range(ndim)]


def _products_per_row(lams: list, f: np.ndarray) -> np.ndarray:
    """Exact count of the products the sparse path forms for each Z row.

    The term of axis t joins lams[t][z,:,q] with the nonzeros of F whose
    index on axis t is q, so counts of nonzeros per q give every count."""
    nz = f != 0
    return sum(np.count_nonzero(lam != 0, axis=1)
               @ np.count_nonzero(nz, axis=tuple(a for a in range(f.ndim) if a != t))
               for t, lam in enumerate(lams) if lam is not None)


def _sparse_derivative(lams: list, f: np.ndarray, rows: np.ndarray):
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
    flat = f.reshape(-1)
    f_codes = np.flatnonzero(flat != 0)
    f_vals = flat[f_codes]
    terms = []  # per axis with a Lambda: F's groups, and Lambda's q, codes, values, row starts
    for lam, s in zip(lams, _code_strides(d, m)):
        if lam is None:
            continue
        q = f_codes // s % d
        order = np.argsort(q, kind="stable")
        starts = np.zeros(d + 1, dtype=np.int64)
        np.cumsum(np.bincount(q, minlength=d), out=starts[1:])
        group = (starts, (f_codes - q * s)[order], f_vals[order])
        k = np.flatnonzero(lam != 0)  # far faster than np.nonzero(lam)
        z, a, q = k // (d * d), k // d % d, k % d
        terms.append((group, q, z * d ** m + a * s, -lam.reshape(-1)[k],
                      np.searchsorted(z, np.arange(len(rows) + 1))))
    del f_codes, f_vals
    bounds = np.concatenate(([0], np.cumsum(rows)))  # products before each row
    z0 = 0
    while z0 < len(rows):
        z1 = max(z0 + 1, int(np.searchsorted(bounds, bounds[z0] + _BLOCK_PRODUCTS, "right")) - 1)
        size = int(bounds[z1] - bounds[z0])
        if size:
            codes, vals = np.empty(size, dtype=np.int64), np.empty(size)
            at = 0
            for group, q, lam_codes, lam_vals, row_starts in terms:
                e = slice(row_starts[z0], row_starts[z1])
                at = _join(group, q[e], lam_codes[e], lam_vals[e], codes, vals, at)
            yield _sum_duplicates(codes, vals)
        z0 = z1


def _join(group, q: np.ndarray, codes: np.ndarray, vals: np.ndarray,
          out_codes: np.ndarray, out_vals: np.ndarray, at: int) -> int:
    """Every product of entry i (group q[i], code codes[i], value vals[i])
    with the nonzeros of F in its group, written from index `at` of the
    outputs as summed codes and products; returns the index after them."""
    starts, f_codes, f_vals = group
    sizes = starts[q + 1] - starts[q]
    firsts = np.cumsum(sizes) - sizes  # where each entry's products begin
    pick = np.repeat(starts[q] - firsts, sizes)
    pick += np.arange(len(pick))
    end = at + len(pick)
    np.take(f_codes, pick, out=out_codes[at:end])
    out_codes[at:end] += np.repeat(codes, sizes)
    np.take(f_vals, pick, out=out_vals[at:end])
    out_vals[at:end] *= np.repeat(vals, sizes)
    return end


def _sum_duplicates(codes: np.ndarray, vals: np.ndarray):
    """Sorted distinct codes and the sum of the values at each."""
    order = np.argsort(codes)
    codes.sort()
    vals = vals[order]
    del order
    firsts = _run_starts(codes)
    return codes[firsts], np.add.reduceat(vals, firsts)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Indices where a run of equal entries of a sorted, nonempty array begins."""
    return np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))


def _reduce_sparse(codes: np.ndarray, vals: np.ndarray, d: int, reduce) -> float:
    """reduce over one block of `_sparse_derivative`: max |value|, or the
    largest norm of the values whose codes share code // d (one last-axis
    slot)."""
    if reduce is _max_abs:
        return _max_abs(vals)
    slots = _run_starts(codes // d)
    return float(np.sqrt(np.add.reduceat(vals * vals, slots).max()))


def is_equivariant(alg: MatrixAlgebra, mu: np.ndarray, tol: float = DEFAULT_TOL):
    defect = equivariance_defect(alg, mu)
    return defect < tol, defect


def metric_defect(alg: MatrixAlgebra, mu: np.ndarray) -> float:
    """Max of |<mu(X,Y),Z> + <mu(X,Z),Y>|: skewness of every Lambda(X)."""
    return float(np.abs(mu + np.transpose(mu, (0, 2, 1))).max())


def parallel_metric_defect(alg: MatrixAlgebra, mu: np.ndarray) -> float:
    """Max |(D_Z g)(X,Y)| = |<Lambda(Z)X,Y> + <X,Lambda(Z)Y>| of the metric g = Id:
    the scalar-valued derivative, slot terms only."""
    return _max_derivative(alg, [mu, mu], np.eye(alg.dim), _max_abs)


def is_metric(alg: MatrixAlgebra, mu: np.ndarray, tol: float = DEFAULT_TOL):
    defect = metric_defect(alg, mu)
    return defect < tol, defect


# ---------------------------------------------------------------------------
# Torsion, difference tensor, type decomposition
# ---------------------------------------------------------------------------

def torsion(alg: MatrixAlgebra, mu: np.ndarray) -> np.ndarray:
    return mu - np.transpose(mu, (1, 0, 2)) - alg.bracket


def a_tensor(alg: MatrixAlgebra, mu: np.ndarray) -> np.ndarray:
    """Difference tensor of the connection against Levi-Civita: mu - [.,.]/2."""
    return mu - 0.5 * alg.bracket


def a_from_torsion(t: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """2A(X,Y,Z) = T(X,Y,Z) - T(Y,Z,X) + T(Z,X,Y)."""
    if np.abs(t + np.transpose(t, (1, 0, 2))).max() > tol:
        raise TensorShapeError("torsion must be antisymmetric in its first two slots")
    # transpose(t, (2,0,1))[x,y,z] = t[y,z,x];  transpose(t, (1,2,0))[x,y,z] = t[z,x,y]
    return 0.5 * (t - np.transpose(t, (2, 0, 1)) + np.transpose(t, (1, 2, 0)))


def torsion_from_a(a: np.ndarray) -> np.ndarray:
    return a - np.transpose(a, (1, 0, 2))


@dataclasses.dataclass
class TypeDecomposition:
    """Orthogonal split of a difference tensor into its three pieces.

    a1: trace part built from a covector phi; a2: traceless cyclic part;
    a3: totally skew part.
    """

    phi: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray

    @property
    def a1_norm(self) -> float:
        return float(np.linalg.norm(self.a1))

    @property
    def a2_norm(self) -> float:
        return float(np.linalg.norm(self.a2))

    @property
    def a3_norm(self) -> float:
        return float(np.linalg.norm(self.a3))

    def reassembled(self) -> np.ndarray:
        return self.a1 + self.a2 + self.a3


def classify_type(a: np.ndarray, tol: float = DEFAULT_TOL) -> TypeDecomposition:
    """Project a difference tensor onto its trace/cyclic/skew components."""
    if a.ndim != 3 or len(set(a.shape)) != 1:
        raise TensorShapeError("expected a cubic 3-tensor")
    if np.abs(a + np.transpose(a, (0, 2, 1))).max() > tol:
        raise TensorShapeError("tensor is not antisymmetric in its last two slots")
    d = a.shape[0]
    eye = np.eye(d)
    phi = np.einsum("iiz->z", a) / (d - 1)
    a1 = np.einsum("xy,z->xyz", eye, phi) - np.einsum("xz,y->xyz", eye, phi)
    a3 = (a + np.transpose(a, (1, 2, 0)) + np.transpose(a, (2, 0, 1))) / 3.0
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


def torsion_type_conditions(alg: MatrixAlgebra, mu: np.ndarray,
                            tol: float = DEFAULT_TOL) -> TypeConditionReport:
    """Characterize the torsion type of a metric connection map.

    - cyclic:  the cyclic sum of <mu(X,Y),Z> equals 3/2 <[X,Y],Z>
    - traceless: sum_i mu(e_i, e_i) = 0
    - vectorial / traceless cyclic: per the component norms of the
      difference tensor mu - [.,.]/2
    - skew: Lambda(Z)Z = 0, i.e. the difference tensor is a 3-form
    """
    ok, defect = is_metric(alg, mu, tol)
    if not ok:
        raise TensorShapeError(f"map is not metric (defect {defect:.2e})")
    cyc = mu + np.transpose(mu, (1, 2, 0)) + np.transpose(mu, (2, 0, 1))
    cyclic_defect = float(np.abs(cyc - 1.5 * alg.bracket).max())
    trace_vec = np.einsum("iik->k", mu)
    trace_norm = float(np.linalg.norm(trace_vec))
    dec = classify_type(a_tensor(alg, mu), tol)
    skew_defect = float(np.abs(mu + np.transpose(mu, (1, 0, 2))).max())
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

def curvature(alg: MatrixAlgebra, mu: np.ndarray) -> np.ndarray:
    """R[x,y,z,k] with R(X,Y)Z = mu(X,mu(Y,Z)) - mu(Y,mu(X,Z)) - mu([X,Y],Z).

    A d^4 array: the batteries use `ricci_matrix` and `flatness_defect`,
    which never form it."""
    return (np.einsum("yzp,xpk->xyzk", mu, mu)
            - np.einsum("xzp,ypk->xyzk", mu, mu)
            - np.einsum("xyp,pzk->xyzk", alg.bracket, mu))


def ricci_matrix(alg: MatrixAlgebra, mu: np.ndarray) -> np.ndarray:
    """Ric(X,Y) = sum_i <R(e_i,X)Y, e_i>, contracted from mu directly:

        Ric[x,y] = sum_p mu[x,y,p] tau[p] - sum_{e,p} mu[e,y,p] mu[x,p,e]
                   - sum_{e,p} c[e,x,p] mu[p,y,e],   tau[p] = sum_e mu[e,p,e]

    in O(d^4) flops and O(d^3) memory, without the curvature tensor.
    """
    tau = np.einsum("epe->p", mu)
    return (mu @ tau
            - np.tensordot(mu, mu, axes=([1, 2], [2, 0]))
            - np.tensordot(alg.bracket, mu, axes=([0, 2], [2, 0])))


def flatness_defect(alg: MatrixAlgebra, mu: np.ndarray) -> float:
    """Max |R[x,y,z,k]| without the d^4 array: R is the join on F = mu with
    the bracket on its first axis and mu, -mu^T on the other two."""
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


def ricci(alg: MatrixAlgebra, mu: np.ndarray, tol: float = DEFAULT_TOL) -> EinsteinReport:
    return einstein_report(alg, ricci_matrix(alg, mu), tol)


def einstein_check(alg: MatrixAlgebra, mu: np.ndarray, tol: float = DEFAULT_TOL) -> EinsteinReport:
    ok, defect = is_metric(alg, mu, tol)
    if not ok:
        raise TensorShapeError(f"einstein_check requires a metric map (defect {defect:.2e})")
    return ricci(alg, mu, tol)


def ricci_skew_path(alg: MatrixAlgebra, t_form: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ricci of the metric connection with skew torsion T, via

        Ric = Ric_g - (1/4) sum_i <T(e_i,X), T(e_i,Y)> - (1/2) (delta T)(X,Y)

    with the co-differential (delta T)(X,Y) = -sum_i (D_{e_i} T)(e_i,X,Y) of
    the Levi-Civita derivative, contracted from mu = [.,.]/2 directly:

        (delta T)[x,y] = sum_{i,q} mu[i,i,q] T[q,x,y] + mu[i,x,q] T[i,q,y]
                         + mu[i,y,q] T[i,x,q]

    in O(d^4) flops, without the d^4 derivative.
    """
    skew_defect = max(
        float(np.abs(t_form + np.transpose(t_form, (1, 0, 2))).max()),
        float(np.abs(t_form + np.transpose(t_form, (0, 2, 1))).max()),
    )
    if skew_defect > tol:
        raise TensorShapeError("T must be a totally skew 3-tensor")
    ric_g = ricci_matrix(alg, levi_civita_map(alg))
    s = np.einsum("ixk,iyk->xy", t_form, t_form)
    mu = levi_civita_map(alg)
    delta = (np.tensordot(np.einsum("iiq->q", mu), t_form, axes=1)
             + np.tensordot(mu, t_form, axes=([0, 2], [0, 1]))
             + np.tensordot(t_form, mu, axes=([0, 2], [0, 2])))
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
    bracket_term = np.einsum("xyk,k->xy", alg.bracket, xi)
    return (ric_g + (d - 2) * np.outer(xi, xi)
            + (2 - d) * norm_sq * np.eye(d) + 0.5 * (2 - d) * bracket_term)


# ---------------------------------------------------------------------------
# Derivations and covariant derivatives
# ---------------------------------------------------------------------------

def derivation_defect(alg: MatrixAlgebra, mu: np.ndarray) -> float:
    """Max norm of mu(Z,[X,Y]) - [mu(Z,X),Y] - [X,mu(Z,Y)] over basis triples."""
    return _max_derivative(alg, _along(mu, 3), alg.bracket, _max_slot_norm)


def parallel_defect(alg: MatrixAlgebra, mu: np.ndarray, f: np.ndarray) -> float:
    """Max |(D_Z F)| over every entry: zero exactly when F is parallel for mu."""
    return _max_derivative(alg, _along(mu, f.ndim), f, _max_abs)


def covariant_derivative(alg: MatrixAlgebra, mu: np.ndarray, f: np.ndarray,
                         vector_valued: bool = True) -> np.ndarray:
    """Derivative of an invariant tensor along the connection map mu.

    For an algebra-valued tensor F (last axis = output components):

        (D_Z F)(X_1..X_p) = Lambda(Z) F(X_1..X_p) - sum_i F(.., Lambda(Z) X_i, ..)

    and for a scalar-valued form only the slot terms appear.  The result
    gains a leading Z axis with one entry per row of mu: `_derivative` with
    mu on every slot and, for a vector-valued F, -mu^T on its last axis.
    """
    d = alg.dim
    if f.shape != (d,) * f.ndim or f.ndim < 1 + vector_valued or mu.shape[1:] != (d, d):
        raise TensorShapeError("tensor shape does not match the algebra dimension")
    return _derivative(_along(mu, f.ndim) if vector_valued else [mu] * f.ndim, f)
