"""Exact character arithmetic: weight multiplicities, tensor products, plethysms.

A `Character` is a finite map weight -> integer multiplicity over a fixed
`RootSystem`.  Everything in this module is integer-exact; virtual
characters (negative entries) are legal intermediates but are rejected by
`decompose`.

The degree-2 and degree-3 exterior/symmetric powers are computed through
the Adams operations, where psi_k rescales every weight by k:

    alt2 = (chi^2 - psi2)/2            sym2 = (chi^2 + psi2)/2 = chi^2 - alt2
    alt3 = (chi^3 - 3 chi*psi2 + 2 psi3)/6
    sym3 = (chi^3 + 3 chi*psi2 + 2 psi3)/6
    chi*alt2 = (chi^3 - chi*psi2)/2

`alt2`, `alt3` and the others materialize whole characters.  `PlethysmOps`
never materializes a cube: it evaluates the alt2, sym2, alt3 and chi*alt2
formulas point by point on a whole Weyl orbit from five base characters,
the tables chi^2, psi2 and psi3 and the convolutions chi^3 and chi*psi2.
That keeps trivial-multiplicity and highest-weight extraction affordable
for large modules.

Multiplicities of irreducibles come from two independent algorithms:
`multiplicity` sums over the Weyl orbit of lam + rho (Weyl's character
formula), and `decompose` folds every weight into the dominant chamber
(Racah-Speiser).  The fold is batched: each numpy step reflects every row
of the stack supp chi + rho that still has a negative label, at its first
negative label.  Its labels are int64 only while every label that a
reflection can reach is below 2^59 in size (a bound from the invariant
norm, `RootSystem._orbit_label_factor`); otherwise it runs on Python ints.

The numpy kernels share one weight coding: each weight becomes a
mixed-radix code over a box, chosen so that a sum or difference of weights
is a sum of codes.  `tensor`, behind every materialized square and cube,
sums the products m1 * m2 per code in blocks of about 16k weight pairs:
small boxes (at most 2^17 entries, or no more than the pairs) accumulate
with `np.add.at` into a dense int64 array, larger ones by sorting each
block's codes, `np.add.reduceat`, and one merge.  `_convolve_at`, behind
the orbit sums, evaluates sum_j m_j table(nu - w_j) at every point nu of
a Weyl orbit at once by looking the pair codes up among the table's sorted
codes with `np.searchsorted`, again in blocks of about 16k pairs.
`decompose` looks every simple reflection of the support up the same way
and sums the folded terms per dominant weight by code.  Nothing is computed
in floating point.  Codes are int64 only while the box has
fewer than 2^62 entries and every coordinate is below 2^61 in size, and
values only while a bound on every product and sum is below 2^62; beyond
either guard the same code runs on Python ints, so nothing wraps.
"""

from __future__ import annotations

import math

import numpy as np

from .rootsys import PreconditionError, RootSystem, Weight, _weight_array


class InternalError(RuntimeError):
    """An integrality invariant failed; indicates a bug, not bad input."""


class UsageError(ValueError):
    pass


def _wadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def _wsub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def _wscale(a: Weight, k: int) -> Weight:
    return tuple(k * x for x in a)


class Character:
    """Finite weight-multiplicity map over a root system."""

    __slots__ = ("rs", "mult")

    def __init__(self, rs: RootSystem, mult: dict[Weight, int]):
        self.rs = rs
        self.mult = {w: m for w, m in mult.items() if m != 0}

    def dim(self) -> int:
        return sum(self.mult.values())

    def support_size(self) -> int:
        return len(self.mult)

    def is_genuine(self) -> bool:
        return all(m > 0 for m in self.mult.values())

    def __getitem__(self, w: Weight) -> int:
        return self.mult.get(tuple(w), 0)

    def __add__(self, other: "Character") -> "Character":
        return self._plus(other, 1)

    def __sub__(self, other: "Character") -> "Character":
        return self._plus(other, -1)

    def _plus(self, other: "Character", sign: int) -> "Character":
        _check_same_rs(self, other)
        return Character(self.rs, _lincomb((1, self.mult), (sign, other.mult)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Character) and self.rs is other.rs and self.mult == other.mult

    def __repr__(self) -> str:
        return f"Character(dim={self.dim()}, support={self.support_size()})"


def _check_same_rs(a: Character, b: Character) -> None:
    if a.rs is not b.rs:
        raise UsageError("characters live over different root systems")


def trivial_character(rs: RootSystem) -> Character:
    return Character(rs, {(0,) * rs.rank: 1})


def _lincomb(*terms: tuple[int, dict[Weight, int]]) -> dict[Weight, int]:
    """sum(c * d for c, d in terms), as a weight map (zeros not yet dropped)."""
    out: dict[Weight, int] = {}
    get = out.get
    for c, d in terms:
        for w, m in d.items():
            out[w] = get(w, 0) + c * m
    return out


def _exact_div(m: int, k: int) -> int:
    q, r = divmod(m, k)
    if r:
        raise InternalError(f"plethysm coefficient {m} is not divisible by {k}")
    return q


def _divided(d: dict[Weight, int], k: int) -> dict[Weight, int]:
    return {w: _exact_div(m, k) for w, m in d.items() if m}


# ---------------------------------------------------------------------------
# Irreducible characters (Freudenthal recursion)
# ---------------------------------------------------------------------------

def dominant_weights_below(rs: RootSystem, lam: Weight) -> list[Weight]:
    """All dominant weights mu with lam - mu in the non-negative root lattice."""
    seen = {lam}
    queue = [lam]
    while queue:
        mu = queue.pop()
        for alpha in rs.pos_roots:
            nu = _wsub(mu, alpha)
            nud = rs.to_dominant(nu)[0]
            if nud not in seen and rs.dominates(lam, nud):
                seen.add(nud)
                queue.append(nud)
    out = list(seen)
    height = rs._height_key  # height(lam - w) increases as height(w) decreases
    out.sort(key=lambda w: (-height(w), w))
    return out


def freudenthal_multiplicities(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of the irreducible L(lam)."""
    if not rs.is_dominant(lam):
        raise PreconditionError(f"highest weight {lam} is not dominant")
    doms = dominant_weights_below(rs, lam)
    ip = rs._ip_int
    rho = rs.rho
    lam_rho = _wadd(lam, rho)
    norm_top = ip(lam_rho, lam_rho)
    mult: dict[Weight, int] = {lam: 1}
    for mu in doms:
        if mu == lam:
            continue
        total = 0
        for alpha in rs.pos_roots:
            nu = _wadd(mu, alpha)
            while True:
                m = mult.get(rs.to_dominant(nu)[0])
                if m is None:
                    break
                total += m * ip(nu, alpha)
                nu = _wadd(nu, alpha)
        denom = norm_top - ip(_wadd(mu, rho), _wadd(mu, rho))
        num = 2 * total
        if denom <= 0 or num % denom:
            raise InternalError(f"Freudenthal recursion failed at {mu}")
        mult[mu] = num // denom
    return mult


def irrep_character(rs: RootSystem, lam: Weight) -> Character:
    """Full weight system of the irreducible with highest weight lam (cached)."""
    lam = tuple(lam)
    cached = rs._irrep_cache.get(lam)
    if cached is not None:
        return Character(rs, cached)
    if len(lam) != rs.rank:
        raise PreconditionError(f"highest weight {lam} has {len(lam)} labels, "
                                f"but {rs} has rank {rs.rank}")
    if not rs.is_dominant(lam):
        raise PreconditionError(f"highest weight {lam} is not dominant")

    if len(rs.factors) > 1:
        parts = rs.split(lam)
        full: dict[Weight, int] = {(): 1}
        for sub, part in zip(rs.factor_systems(), parts):
            sub_char = irrep_character(sub, part).mult
            full = {w1 + w2: m1 * m2 for w1, m1 in full.items() for w2, m2 in sub_char.items()}
        rs._irrep_cache[lam] = full
        return Character(rs, full)

    dom = freudenthal_multiplicities(rs, lam)
    full = {}
    for mu, m in dom.items():
        for w in rs.weyl_orbit(mu):
            full[w] = m
    rs._irrep_cache[lam] = full
    chi = Character(rs, full)
    if chi.dim() != rs.weyl_dimension(lam):
        raise InternalError(f"weight system of {lam} has wrong dimension")
    return chi


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------

_INT64_SAFE = 1 << 62  # int64 holds every code, product and sum below this
_DENSE_BOX = 1 << 17  # a box this small is always accumulated densely (1 MiB of int64)
_BLOCK_PAIRS = 1 << 14  # weight pairs formed at once


def tensor(a: Character, b: Character) -> Character:
    """Pointwise convolution of weight systems; dimensions multiply."""
    _check_same_rs(a, b)
    if not a.mult or not b.mult:
        return Character(a.rs, {})
    return Character(a.rs, _convolve(a.mult, b.mult))


def _value_dtype(bound: int):
    """int64 when `bound`, which bounds every value, product and partial sum
    of a computation, is below 2^62; object (Python ints) otherwise."""
    return np.int64 if bound < _INT64_SAFE else object


def _box(lo: list[int], hi: list[int], coords: list[int]) -> tuple[list[int], list[int], int, object]:
    """Spans and mixed-radix strides of the box lo..hi (the first coordinate
    is the most significant digit), its number of entries, and the dtype of
    its codes: int64 only when the box has fewer than 2^62 entries and every
    coordinate in `coords` is below 2^61 in size, object otherwise."""
    spans = [h - l + 1 for l, h in zip(lo, hi)]
    strides = [math.prod(spans[i + 1:]) for i in range(len(spans))]
    box = math.prod(spans)
    fits = box < _INT64_SAFE and all(abs(x) < _INT64_SAFE // 2 for x in coords)
    return spans, strides, box, (np.int64 if fits else object)


def _convolve(da: dict[Weight, int], db: dict[Weight, int]) -> dict[Weight, int]:
    """The weight map of the product of two non-empty weight maps, exactly.

    Each weight gets a mixed-radix code over the box of supp a + supp b, with
    offsets chosen so that code(w1) + code(w2) = code(w1 + w2); the first
    coordinate is the most significant digit.  Pair codes and products
    m1 * m2 are formed for blocks of rows of a and summed per code: with
    `np.add.at` into a dense array when the box has at most 2^17 entries or
    no more entries than there are pairs, otherwise by a sort and
    `np.add.reduceat` per block and one merge.  The dense array then never
    outgrows the sort branch's arrays, which hold up to one entry per pair.

    Two guards keep int64 from wrapping (`_box`, `_value_dtype`).  Codes are
    int64 only when the box has fewer than 2^62 entries and every coordinate
    is below 2^61 in size; multiplicities only when sum|m_a| * sum|m_b| <
    2^62, which bounds every product and every sum.  Otherwise the same code
    runs on Python ints (dtype object).
    """
    rank = len(next(iter(da)))
    wa, wb = _weight_array(list(da), rank), _weight_array(list(db), rank)
    lo_a, lo_b = wa.min(0).tolist(), wb.min(0).tolist()
    hi_a, hi_b = wa.max(0).tolist(), wb.max(0).tolist()
    lo = [x + y for x, y in zip(lo_a, lo_b)]
    hi = [x + y for x, y in zip(hi_a, hi_b)]
    spans, strides, box, cdt = _box(lo, hi, lo_a + lo_b + hi_a + hi_b)
    mdt = _value_dtype(sum(map(abs, da.values())) * sum(map(abs, db.values())))
    stride_arr = np.array(strides, dtype=cdt)
    ca = (wa.astype(cdt) - np.array(lo_a, dtype=cdt)) @ stride_arr
    cb = (wb.astype(cdt) - np.array(lo_b, dtype=cdt)) @ stride_arr
    ma, mb = np.array(list(da.values()), dtype=mdt), np.array(list(db.values()), dtype=mdt)

    rows = max(1, _BLOCK_PAIRS // len(cb))
    blocks = (((ca[i:i + rows, None] + cb).ravel(), (ma[i:i + rows, None] * mb).ravel())
              for i in range(0, len(ca), rows))
    if box <= max(_DENSE_BOX, len(ca) * len(cb)):
        acc = np.zeros(box, dtype=mdt)
        for codes, prods in blocks:
            np.add.at(acc, codes.astype(np.intp, copy=False), prods)
        nonzero = np.flatnonzero(acc)
        codes, vals = nonzero.astype(cdt), acc[nonzero]
    else:
        parts = [_sum_by_code(codes, prods) for codes, prods in blocks]
        codes, vals = _sum_by_code(np.concatenate([c for c, _ in parts]),
                                   np.concatenate([v for _, v in parts]))
        nonzero = np.flatnonzero(vals != 0)
        codes, vals = codes[nonzero], vals[nonzero]
    digits = (codes[:, None] // stride_arr) % np.array(spans, dtype=cdt) + np.array(lo, dtype=cdt)
    return dict(zip(zip(*digits.T.tolist()), vals.tolist()))


def _sum_by_code(codes: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct codes in increasing order, each with the sum of its values."""
    order = np.argsort(codes)
    codes, vals = codes[order], vals[order]
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    return codes[starts], np.add.reduceat(vals, starts)


def adams(chi: Character, k: int) -> Character:
    """Adams operation psi_k: every weight is scaled by k."""
    if k <= 0:
        raise UsageError("Adams operations are defined for positive k here")
    if k == 1:
        return chi
    return Character(chi.rs, {_wscale(w, k): m for w, m in chi.mult.items()})


def _square_power(chi: Character, sign: int) -> dict[Weight, int]:
    """(chi^2 + sign psi2)/2: alt2 for sign -1, sym2 for sign +1."""
    return _divided(_lincomb((1, tensor(chi, chi).mult), (sign, adams(chi, 2).mult)), 2)


def alt2(chi: Character) -> Character:
    """Exterior square of a genuine character."""
    return Character(chi.rs, _square_power(chi, -1))


def sym2(chi: Character) -> Character:
    return Character(chi.rs, _square_power(chi, 1))


def _cube_power(chi: Character, sign: int) -> dict[Weight, int]:
    """(chi^3 + 3 sign chi*psi2 + 2 psi3)/6: alt3 for sign -1, sym3 for sign +1."""
    cube = tensor(tensor(chi, chi), chi).mult
    mixed = tensor(chi, adams(chi, 2)).mult
    return _divided(_lincomb((1, cube), (3 * sign, mixed), (2, adams(chi, 3).mult)), 6)


def alt3(chi: Character) -> Character:
    return Character(chi.rs, _cube_power(chi, -1))


def sym3(chi: Character) -> Character:
    return Character(chi.rs, _cube_power(chi, 1))


def plethysm21(chi: Character) -> Character:
    """Mixed-symmetry cube component: chi * alt2(chi) - alt3(chi)."""
    return tensor(chi, alt2(chi)) - alt3(chi)


# ---------------------------------------------------------------------------
# Multiplicity extraction and decomposition
# ---------------------------------------------------------------------------

class _WeightTable:
    """A weight map as arrays: the weights, (n, rank), in lexicographic order,
    their values, (n,), and the per-coordinate extremes of the weights.

    Lexicographic order is code order over any mixed-radix box that holds the
    weights, so their codes never need a sort.  `len()` is the support size.
    """

    __slots__ = ("weights", "values", "lo", "hi")

    def __init__(self, mult: dict[Weight, int], rank: int, dtype):
        items = sorted(mult.items())
        self.weights = _weight_array([w for w, _ in items], rank)
        self.values = np.array([m for _, m in items], dtype=dtype)
        self.lo = self.weights.min(0).tolist() if items else None
        self.hi = self.weights.max(0).tolist() if items else None

    def __len__(self) -> int:
        return len(self.values)


def _convolve_at(table: _WeightTable, nus: np.ndarray, kernel: _WeightTable) -> np.ndarray:
    """sum_j m_j * table(nu - w_j) over the weights w_j and values m_j of
    `kernel`, for every row nu of the (n, rank) stack `nus`, exactly.

    One mixed-radix box holds every nu - w_j and every table weight, with
    offsets chosen so that code(nu - w_j) = code(nu) + code(-w_j) and both
    terms lie in [0, box): no pair needs an in-box test.  Pair codes are
    formed for blocks of rows of `nus` (about 2^14 pairs at once) and looked
    up among the table's codes, which come out sorted, with
    `np.searchsorted`.  Codes follow the guard of `_box`; values are int64
    only when the table and the kernel are, and the caller chose that dtype
    so that sum|kernel| * sum|table| < 2^62, which bounds every value and its
    sum over distinct points nu.
    """
    if not len(table) or not len(kernel) or not len(nus):
        return np.zeros(len(nus), dtype=np.result_type(table.values.dtype, kernel.values.dtype))
    lo_nu, hi_nu = nus.min(0).tolist(), nus.max(0).tolist()
    lo = [min(a - w, t) for a, w, t in zip(lo_nu, kernel.hi, table.lo)]
    hi = [max(b - w, t) for b, w, t in zip(hi_nu, kernel.lo, table.hi)]
    _, strides, _, cdt = _box(lo, hi, lo_nu + hi_nu + kernel.lo + kernel.hi + table.lo + table.hi)
    stride_arr = np.array(strides, dtype=cdt)
    codes_t = (table.weights.astype(cdt) - np.array(lo, dtype=cdt)) @ stride_arr
    offset = np.array([a - l for a, l in zip(lo_nu, lo)], dtype=cdt)
    codes_w = (offset - kernel.weights.astype(cdt)) @ stride_arr
    lo_nu = np.array(lo_nu, dtype=cdt)
    last = len(codes_t) - 1
    rows = max(1, _BLOCK_PAIRS // len(codes_w))
    out = []
    for i in range(0, len(nus), rows):
        codes = ((nus[i:i + rows].astype(cdt, copy=False) - lo_nu) @ stride_arr)[:, None] + codes_w
        idx = np.minimum(np.searchsorted(codes_t, codes), last)
        out.append(np.where(codes_t[idx] == codes, table.values[idx], 0) @ kernel.values)
    return np.concatenate(out)


def _lookup(table: _WeightTable, nus: np.ndarray) -> np.ndarray:
    """table(nu) for every row nu of nus: `_convolve_at` with the unit at 0."""
    rank = nus.shape[1]
    return _convolve_at(table, nus, _WeightTable({(0,) * rank: 1}, rank, table.values.dtype))


def _alternating_sum(rs: RootSystem, lam: Weight, values_at) -> tuple[int, ...]:
    """Sums of det(w) * v(w(lam+rho) - rho) over the Weyl group, one for each
    value array v that `values_at` returns, all over one orbit.

    `values_at` maps an (n, rank) stack of weights to a sequence of arrays
    of their n integer values, so the orbit is built and queried once and
    each sum is one signed dot product.  The orbit's points are distinct, so
    a bound on the values' sum over distinct weights (the guards of
    `_convolve_at`) also bounds the dot product.
    """
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise PreconditionError(f"weight {lam} is not dominant")
    orbit = rs.signed_orbit(_wadd(lam, rs.rho))
    nus = orbit.points
    nus -= np.array(rs.rho, dtype=nus.dtype)  # in place: the orbit is this call's own
    return tuple(int(orbit.signs @ values) for values in values_at(nus))


def multiplicity(chi: Character, lam: Weight) -> int:
    """Multiplicity of the irreducible L(lam) inside a Weyl-invariant character."""
    table = _WeightTable(chi.mult, chi.rs.rank, _value_dtype(sum(map(abs, chi.mult.values()))))
    return _alternating_sum(chi.rs, lam, lambda nus: [_lookup(table, nus)])[0]


def _fold_to_dominant(rs: RootSystem, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`to_dominant` for every row of an (n, rank) stack at once: the signs,
    0 on a chamber wall, and the stack with every row off the walls folded
    in place to its dominant representative.

    Each step reflects every row that still has a negative label at its
    first negative label, so a row that is done after k steps has sign
    (-1)^k.  A row with a zero label is on a wall at every step, so it
    leaves the fold at once with sign 0.  The dtype of the stack must hold
    every label of every step (`_fold_dtype`).
    """
    cartan = np.array(rs.cartan, dtype=weights.dtype)
    signs = (weights != 0).all(1).astype(np.int64)
    idx = np.flatnonzero(signs & (weights < 0).any(1))
    rows, step = weights[idx], 0
    while len(rows):
        step += 1
        first = (rows < 0).argmax(1)
        rows -= rows[np.arange(len(rows)), first][:, None] * cartan[first]
        neg = (rows < 0).any(1)
        wall = (rows == 0).any(1)
        done = ~neg & ~wall
        weights[idx[done]] = rows[done]
        signs[idx[done]] = -1 if step % 2 else 1
        signs[idx[wall]] = 0
        live = neg & ~wall
        idx, rows = idx[live], rows[live]
    return weights, signs


def _fold_dtype(rs: RootSystem, weights: np.ndarray):
    """int64 when every label of every Weyl-orbit point of the rows and of the
    rows plus rho, and so every label that a reflection or a fold step
    reaches, is below 2^59 in size (`RootSystem._orbit_label_factor`); a
    reflection's product and difference then stay below 2^61.  object
    (Python ints) otherwise."""
    if weights.dtype == object:
        return object
    top = int(np.abs(weights).max()) + 1
    return np.int64 if top * rs._orbit_label_factor < _INT64_SAFE // 8 else object


def _invariance_failures(rs: RootSystem, table: _WeightTable,
                         weights: np.ndarray) -> dict[Weight, int]:
    """{w: i} for every weight w of `table` whose value differs from the
    value at s_i(w), with s_i its first such simple reflection; empty for a
    Weyl-invariant weight map.  `weights` are the table's weights, in its
    order and in a dtype that holds their reflections; the values are
    nonzero, so a reflection that leaves the support reads 0 and fails.

    The reflections s_i(w) = w - w_i alpha_i of every weight under every
    s_i are one stack and one `_lookup`.
    """
    n, rank = weights.shape
    cartan = np.array(rs.cartan, dtype=weights.dtype)
    reflected = weights[None] - weights.T[:, :, None] * cartan[:, None, :]  # (rank, n, rank)
    bad = _lookup(table, reflected.reshape(-1, rank)).reshape(rank, n) != table.values
    rows = np.flatnonzero(bad.any(0))
    return dict(zip(map(tuple, weights[rows].tolist()), bad[:, rows].argmax(0).tolist()))


def decompose(chi: Character) -> list[tuple[Weight, int]]:
    """Exact decomposition of a Weyl-invariant character into irreducibles.

    Racah-Speiser (Humphreys, section 24): each weight nu contributes
    sgn * chi(nu) to L(dom(nu + rho) - rho), where dom(nu + rho) and its
    sign are those of `to_dominant` and weights on a chamber wall (sign 0)
    contribute nothing.  The support runs as one batch:

    - Weyl invariance is one lookup of every simple reflection of the whole
      support in the character's own table (`_invariance_failures`);
    - `_fold_to_dominant` folds the stack supp chi + rho into the dominant
      chamber;
    - the terms sgn * chi(nu) are summed per dominant weight by integer codes
      and sorted by decreasing height, then lexicographically, with the
      integer height keys of `RootSystem._height_key`.

    Labels are int64 only while every label that a reflection or a fold step
    can reach stays below 2^59 in size (`_fold_dtype`), and multiplicities
    and their sums only while sum |chi| < 2^62; beyond either guard the same
    code runs on Python ints, so nothing wraps.  Raises `UsageError` for a
    character that is not Weyl-invariant, naming the first such weight in
    the character's order and its first reflection, or not genuine.
    """
    rs, mult = chi.rs, chi.mult
    if not mult:
        return []
    table = _WeightTable(mult, rs.rank, _value_dtype(sum(map(abs, mult.values()))))
    weights = table.weights.astype(_fold_dtype(rs, table.weights), copy=False)
    failures = _invariance_failures(rs, table, weights)
    if failures:
        w = next(w for w in mult if w in failures)
        raise UsageError(f"character is not Weyl-invariant: weight {w} and its "
                         f"reflection s_{failures[w] + 1} have different multiplicities")

    tops, signs = _fold_to_dominant(rs, weights + 1)  # supp chi + rho
    keep = signs != 0
    lams, values = tops[keep] - 1, signs[keep] * table.values[keep]
    if not len(lams):
        return []
    lo, hi = lams.min(0).tolist(), lams.max(0).tolist()
    spans, strides, _, cdt = _box(lo, hi, lo + hi)
    stride_arr, lo_arr = np.array(strides, dtype=cdt), np.array(lo, dtype=cdt)
    codes, values = _sum_by_code((lams.astype(cdt) - lo_arr) @ stride_arr, values)
    nonzero = np.flatnonzero(values != 0)
    codes, values = codes[nonzero], values[nonzero]
    if (values < 0).any():
        raise UsageError("not a genuine character: negative multiplicity of an irreducible")
    lams = ((codes[:, None] // stride_arr) % np.array(spans, dtype=cdt) + lo_arr).tolist()
    # Codes, and so lams, are in lexicographic order: a stable sort by
    # decreasing height keeps that order among equal heights.
    height = rs._height_key
    return sorted(zip(map(tuple, lams), values.tolist()), key=lambda t: -height(t[0]))


def expand(rs: RootSystem, terms) -> Character:
    """Inverse of `decompose`: rebuild the character of a sum of irreducibles."""
    return Character(rs, _lincomb(*((m, irrep_character(rs, lam).mult) for lam, m in terms)))


def _divided_at(values: np.ndarray, k: int) -> np.ndarray:
    """values / k for an array of point values, each of which k must divide."""
    rem = values % k
    if rem.any():
        raise InternalError(f"plethysm coefficient {values[rem != 0][0]} is not divisible by {k}")
    return values // k


class PlethysmOps:
    """Multiplicities in the squares and cubes of a fixed genuine character chi.

    Every multiplicity is an exact combination of the values of five base
    characters on one Weyl orbit.  Three are tables built once: chi^2
    (`_sq`), psi2 (`_p2`) and psi3 (`_p3`).  Two are batched point queries
    that convolve chi with a table, so the cube is never materialized:
    `cube_at` (chi^2 * chi) and `chi_psi2_at` (psi2 * chi).  At each orbit
    point

        alt2 = (chi^2 - psi2)/2            sym2 = chi^2 - alt2
        alt3 = (chi^3 - 3 chi*psi2 + 2 psi3)/6
        chi*alt2 = (chi^3 - chi*psi2)/2

    and every division is checked to be exact (`InternalError` otherwise).
    Each multiplicity method runs one alternating Weyl-orbit sum for the
    two numbers it returns.

    Values are int64 while 6 dim(chi)^3 < 2^62: that bounds every point
    value of the cube formulas and its sum over distinct weights.  Larger
    characters run on Python ints.
    """

    def __init__(self, chi: Character):
        if not chi.is_genuine():
            raise UsageError("plethysm point queries require a genuine character")
        self.rs = chi.rs
        rank, dtype = chi.rs.rank, _value_dtype(6 * chi.dim() ** 3)
        self._items = _WeightTable(chi.mult, rank, dtype)
        self._sq = _WeightTable(tensor(chi, chi).mult, rank, dtype)
        self._p2 = _WeightTable(adams(chi, 2).mult, rank, dtype)
        self._p3 = _WeightTable(adams(chi, 3).mult, rank, dtype)

    def cube_at(self, nus: np.ndarray) -> np.ndarray:
        """chi^3 at every row of the (n, rank) stack `nus`."""
        return _convolve_at(self._sq, nus, self._items)

    def chi_psi2_at(self, nus: np.ndarray) -> np.ndarray:
        """chi * psi2 at every row of the (n, rank) stack `nus`."""
        return _convolve_at(self._p2, nus, self._items)

    def mult_in_alt2_sym2(self, lam: Weight) -> tuple[int, int]:
        """The multiplicities of L(lam) in alt2 and in sym2, over one Weyl orbit."""
        def values_at(nus):
            square = _lookup(self._sq, nus)
            alt = _divided_at(square - _lookup(self._p2, nus), 2)
            return alt, square - alt
        return _alternating_sum(self.rs, lam, values_at)

    def mult_in_alt3_chi_alt2(self, lam: Weight) -> tuple[int, int]:
        """The multiplicities of L(lam) in alt3 and in chi * alt2, over one
        Weyl orbit with one `cube_at` and one `chi_psi2_at` query."""
        def values_at(nus):
            cube, mixed = self.cube_at(nus), self.chi_psi2_at(nus)
            return (_divided_at(cube - 3 * mixed + 2 * _lookup(self._p3, nus), 6),
                    _divided_at(cube - mixed, 2))
        return _alternating_sum(self.rs, lam, values_at)


EXPRESSIONS = ("tensor", "alt2", "sym2", "alt3", "sym3", "plethysm21")


def expression_character(name: str, chi: Character, other: Character | None = None) -> Character:
    """Materialize one of the supported plethysm expressions (small characters)."""
    if name == "tensor":
        if other is None:
            other = chi
        return tensor(chi, other)
    if name == "alt2":
        return alt2(chi)
    if name == "sym2":
        return sym2(chi)
    if name == "alt3":
        return alt3(chi)
    if name == "sym3":
        return sym3(chi)
    if name == "plethysm21":
        return plethysm21(chi)
    raise UsageError(f"unknown expression {name!r}; expected one of {EXPRESSIONS}")
