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
    chi*alt2 = (chi^3 - chi*psi2)/2    plethysm21 = (chi^3 - psi3)/3

`alt2`, `alt3` and the others materialize whole characters, and
`squares_and_cubes` all five from four tensor products.  Three paths never
materialize a cube.  `plethysm_counts`, the engine of the classification,
reads the multiplicities of the constituents of chi in alt2 and sym2 and
the trivial ones in alt3 and chi*alt2 off three Brauer-Klimyk sums (below),
chi^2, psi2 chi and psi3 chi, made by one fold with no Weyl group.
`decompose_expression` returns every constituent of one expression of an
irreducible chi = L(lam) by the same folds.  `PlethysmOps`, the
classification's independent check on small Weyl groups, evaluates the
alt2, sym2, alt3 and chi*alt2 formulas point by point on a whole Weyl orbit
from five base characters, the tables chi^2, psi2 and psi3, built as
arrays, and the convolutions chi^3 and chi*psi2.

An irreducible character comes from Freudenthal's recursion over the
dominant weights below its highest weight, which a search that subtracts
positive roots finds without folding (`dominant_weights_below`, cached per
system).  The recursion reads the character it is filling: each dominant
weight enters with its whole Weyl orbit as soon as its multiplicity is
known, so every lookup is one dict hit.

Multiplicities of irreducibles come from two independent algorithms:
`multiplicity` sums over the Weyl orbit of lam + rho (Weyl's character
formula), and `decompose` folds every weight into the dominant chamber
(Racah-Speiser).  `decompose(chi, lam)` decomposes chi * L(lam) the same
way by Brauer-Klimyk, folding supp chi + lam + rho instead of supp chi +
rho.  The fold is batched: each numpy step reflects every row of the stack
that still has a negative label, at its first negative label.  Its labels
are int64 only while every label that a reflection can reach is below 2^59
in size (a bound from the invariant norm, `RootSystem._orbit_label_factor`);
otherwise it runs on Python ints.  `decompose` takes a character from
outside, so it alone checks Weyl invariance before it folds.
`decompose_expression` folds the arrays of the irreducible it has just
built: chi^2, the stack supp chi + lam, together with psi2 chi =
2 supp chi, then a cube's chi^3 = sum over the constituents kappa of chi^2
of supp chi + kappa and psi3 chi = 3 supp chi (`_fold_shifted`), and
refuses a chi or a stack over `MAX_ARRAY_BYTES` before building it.
`plethysm_counts` folds chi^2 of chi = sum_j L(lam_j), the union of the
stacks supp chi + lam_j, together with 2 supp chi and 3 supp chi as one
stack whose rows carry the index of their sum.  Every Racah-Speiser sum,
`decompose`'s included, enters through `_fold_shifted`.

The numpy kernels code weights over a box (`_codes.Box`) so that a sum or
difference of weights is a sum of codes.  `_convolve`, behind every
materialized square and cube and `PlethysmOps`'s chi^2, sums the products
m1 * m2 per code (`_codes.sum_by_code`), for sym2 with psi2 chi and for
alt2 with minus it, and `_fold` the folded terms per dominant weight.
`_convolve_at`, behind the orbit sums, evaluates sum_j m_j table(nu - w_j)
at every point nu of a Weyl orbit at once by looking the pair codes up
among the table's sorted codes with `np.searchsorted`, and `decompose`
looks every simple reflection of the support up the same way.  Nothing is
computed in floating point.
"""
from __future__ import annotations

import itertools
import operator

import numpy as np

from ._codes import INT64_SAFE, MAX_ARRAY_BYTES, Box, sum_by_code, value_dtype
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


def _nonzero_character(rs: RootSystem, mult: dict[Weight, int]) -> Character:
    """A character whose map, which has no zero value, is taken as it is."""
    chi = Character.__new__(Character)
    chi.rs, chi.mult = rs, mult
    return chi


def _weight_map(weights: np.ndarray, values: np.ndarray) -> dict[Weight, int]:
    """{row of `weights`: value}, the tuples built column by column."""
    return dict(zip(zip(*weights.T.tolist()), values.tolist()))


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
    if m % k:
        raise InternalError(f"plethysm coefficient {m} is not divisible by {k}")
    return m // k


def _divided(d: dict[Weight, int], k: int) -> dict[Weight, int]:
    return {w: _exact_div(m, k) for w, m in d.items() if m}


# ---------------------------------------------------------------------------
# Irreducible characters (Freudenthal recursion)
# ---------------------------------------------------------------------------

def dominant_weights_below(rs: RootSystem, lam: Weight) -> tuple[Weight, ...]:
    """All dominant weights mu with lam - mu in the non-negative root lattice,
    by decreasing height, then lexicographically; lam comes first.  Built
    once per lam and system (`_dominant_search`) and cached on the system,
    where `irrep_character` and `siiclass.support_estimate` share it."""
    lam = tuple(lam)
    doms = rs._dominant_cache.get(lam)
    if doms is None:
        doms = rs._dominant_cache[lam] = _dominant_search(rs, lam)
    return doms


def _dominant_search(rs: RootSystem, lam: Weight) -> tuple[Weight, ...]:
    """The search behind `dominant_weights_below`: from lam, subtract every
    positive root from every weight found and keep the dominant results.

    That reaches every dominant mu below lam, because two dominant weights
    next to each other in the dominance order differ by a positive root
    (Stembridge, "The partial order of dominant weights", Adv. Math. 136,
    1998).  So no weight is folded and no dominance is tested.
    """
    if not rs.is_dominant(lam):
        raise PreconditionError(f"highest weight {lam} is not dominant")
    seen = {lam}
    queue = [lam]
    roots = rs.pos_roots
    while queue:
        mu = queue.pop()
        for alpha in roots:
            nu = _wsub(mu, alpha)
            if min(nu) >= 0 and nu not in seen:
                seen.add(nu)
                queue.append(nu)
    height = rs._height_key
    return tuple(sorted(seen, key=lambda w: (-height(w), w)))


def freudenthal_multiplicities(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Every weight of the irreducible L(lam) with its multiplicity.

    Freudenthal's recursion

        (|lam + rho|^2 - |mu + rho|^2) m(mu)
            = 2 sum_{alpha > 0} sum_{k >= 1} m(mu + k alpha) <mu + k alpha, alpha>

    runs over the dominant weights mu by decreasing height
    (`dominant_weights_below`).  As soon as m(mu) is known, mu's whole Weyl
    orbit enters the table that the recursion reads.  Every mu + k alpha is
    higher than mu, and so is its dominant representative, so its
    multiplicity is already there and each lookup is one dict hit.  The
    weights of L(lam) on an alpha-string have no gaps, so a string ends at
    its first weight outside the table.  <mu + k alpha, alpha> grows by
    <alpha, alpha> per step.  Every quotient is checked to be exact
    (`InternalError` otherwise).
    """
    doms = dominant_weights_below(rs, lam)  # refuses a lam that is not dominant
    ip = rs._ip_int
    # (alpha, c, <alpha, alpha>) with sum(c * w) = <w, alpha>, all in the scale of `ip`.
    roots = [(alpha, c, sum(map(operator.mul, c, alpha)))
             for alpha, (c, _) in zip(rs.pos_roots, rs._dimension_rows)]
    lam_rho = _wadd(lam, rs.rho)
    norm_top = ip(lam_rho, lam_rho)
    full: dict[Weight, int] = {}
    for mu in doms:
        m = 1
        if mu != lam:
            total = 0
            for alpha, c, norm in roots:
                nu = _wadd(mu, alpha)
                m_nu = full.get(nu)
                if m_nu is None:
                    continue
                pair = sum(map(operator.mul, c, nu))
                while m_nu is not None:
                    total += m_nu * pair
                    pair += norm
                    nu = _wadd(nu, alpha)
                    m_nu = full.get(nu)
            mu_rho = _wadd(mu, rs.rho)
            denom = norm_top - ip(mu_rho, mu_rho)
            if denom <= 0 or 2 * total % denom:
                raise InternalError(f"Freudenthal recursion failed at {mu}")
            m = 2 * total // denom
        for w in rs.weyl_orbit(mu):
            full[w] = m
    return full


def _check_highest_weight(rs: RootSystem, lam: Weight) -> None:
    if len(lam) != rs.rank:
        raise PreconditionError(f"highest weight {lam} has {len(lam)} labels, "
                                f"but {rs} has rank {rs.rank}")
    if not rs.is_dominant(lam):
        raise PreconditionError(f"highest weight {lam} is not dominant")


def irrep_character(rs: RootSystem, lam: Weight) -> Character:
    """Full weight system of the irreducible with highest weight lam:
    `freudenthal_multiplicities` on a simple system, the product of the
    factors' characters on a product."""
    lam = tuple(lam)
    _check_highest_weight(rs, lam)
    if len(rs.factors) > 1:
        full = {(): 1}
        for sub, part in zip(rs.factor_systems(), rs.split(lam)):
            sub_char = irrep_character(sub, part).mult
            full = {w1 + w2: m1 * m2 for w1, m1 in full.items() for w2, m2 in sub_char.items()}
    else:
        full = freudenthal_multiplicities(rs, lam)
        if sum(full.values()) != rs.weyl_dimension(lam):
            raise InternalError(f"weight system of {lam} has wrong dimension")
    return _nonzero_character(rs, full)


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------

_BLOCK_PAIRS = 1 << 14  # weight pairs formed at once


def _arrays(chi: Character) -> tuple[np.ndarray, list[int]]:
    """The weights of chi as an (n, rank) array and their multiplicities."""
    return _weight_array(list(chi.mult), chi.rs.rank), list(chi.mult.values())


def tensor(a: Character, b: Character) -> Character:
    """Pointwise convolution of weight systems; dimensions multiply."""
    _check_same_rs(a, b)
    return _nonzero_character(a.rs, _weight_map(*_convolve(*_arrays(a), *_arrays(b))))


def _convolve(wa: np.ndarray, ma: list[int], wb: np.ndarray, mb: list[int],
              psi2: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The product of two weight maps, exactly: the (n, rank) weights, given
    as the rows of `wa` and `wb`, and the multiplicities, given as lists of
    Python ints.  Returns the weights of the product in lexicographic order
    and their nonzero values.  With `psi2` = c and b the same map as a, the
    result is a^2 + c psi2 a.

    Pair codes over the box of supp a + supp b, each weight measured from
    the least corner of its own support so that codes add as weights do
    (so 2w has twice the code of w), and products m1 * m2 are formed for
    blocks of rows of a and summed per code (`sum_by_code`).  Values are
    int64 only while sum|m_a| * (sum|m_b| + |c|) < 2^62, which bounds every
    product and every sum.
    """
    mdt = value_dtype(sum(map(abs, ma)) * (sum(map(abs, mb)) + abs(psi2)))
    if not ma or not mb:
        return wa[:0], np.zeros(0, dtype=mdt)
    lo_a, lo_b = wa.min(0).tolist(), wb.min(0).tolist()
    hi_a, hi_b = wa.max(0).tolist(), wb.max(0).tolist()
    box = Box(_wadd(lo_a, lo_b), _wadd(hi_a, hi_b), lo_a + lo_b + hi_a + hi_b)
    ca, cb = box.encode(wa, lo_a), box.encode(wb, lo_b)
    ma, mb = np.array(ma, dtype=mdt), np.array(mb, dtype=mdt)
    rows = max(1, _BLOCK_PAIRS // len(cb))
    blocks = (((ca[i:i + rows, None] + cb).ravel(), (ma[i:i + rows, None] * mb).ravel())
              for i in range(0, len(ca), rows))
    if psi2:
        blocks = itertools.chain(blocks, [(2 * ca, psi2 * ma)])
    codes, vals = sum_by_code(blocks, box.size, len(ca) * (len(cb) + bool(psi2)))
    return box.decode(codes), vals


def adams(chi: Character, k: int) -> Character:
    """Adams operation psi_k: every weight is scaled by k."""
    if k <= 0:
        raise UsageError("Adams operations are defined for positive k here")
    if k == 1:
        return chi
    return Character(chi.rs, {_wscale(w, k): m for w, m in chi.mult.items()})


def _square(chi: Character, sign: int) -> Character:
    """(chi^2 + sign psi2 chi)/2 from one `_convolve` pass, the division
    checked on the array: alt2 for sign -1, sym2 for sign +1."""
    w, m = _arrays(chi)
    weights, values = _convolve(w, m, w, m, sign)
    return _nonzero_character(chi.rs, _weight_map(weights, _divided_at(values, 2)))


def alt2(chi: Character) -> Character:
    """Exterior square of a genuine character."""
    return _square(chi, -1)


def sym2(chi: Character) -> Character:
    return _square(chi, 1)


def _cube_products(chi: Character, square: Character) -> tuple[dict[Weight, int], ...]:
    """The maps of chi^3 = chi^2 * chi and chi * psi2, from `square` = chi^2."""
    return tensor(square, chi).mult, tensor(chi, adams(chi, 2)).mult


def _cube_power(chi: Character, cube: dict[Weight, int], mixed: dict[Weight, int],
                sign: int) -> dict[Weight, int]:
    """(chi^3 + 3 sign chi*psi2 + 2 psi3)/6 from the maps `cube` of chi^3 and
    `mixed` of chi*psi2 (`_cube_products`): alt3 for sign -1, sym3 for sign +1."""
    return _divided(_lincomb((1, cube), (3 * sign, mixed), (2, adams(chi, 3).mult)), 6)


def alt3(chi: Character) -> Character:
    return Character(chi.rs, _cube_power(chi, *_cube_products(chi, tensor(chi, chi)), -1))


def sym3(chi: Character) -> Character:
    return Character(chi.rs, _cube_power(chi, *_cube_products(chi, tensor(chi, chi)), 1))


def squares_and_cubes(chi: Character) -> tuple[Character, ...]:
    """alt2, sym2, alt3, sym3 and chi * alt2 of chi, materialized from four
    tensor products: chi^2, chi^3 = chi^2 * chi, chi * psi2 and chi * alt2;
    alt2 = (chi^2 - psi2)/2 from the map of chi^2, with no second square."""
    square = tensor(chi, chi)
    a2 = Character(chi.rs, _divided(_lincomb((1, square.mult), (-1, adams(chi, 2).mult)), 2))
    products = _cube_products(chi, square)
    a3, s3 = (Character(chi.rs, _cube_power(chi, *products, sign)) for sign in (-1, 1))
    return a2, square - a2, a3, s3, tensor(chi, a2)


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

    def __init__(self, weights: np.ndarray, values: np.ndarray):
        """A table of weights already in lexicographic order."""
        self.weights, self.values = weights, values
        self.lo = weights.min(0).tolist() if len(values) else None
        self.hi = weights.max(0).tolist() if len(values) else None

    @classmethod
    def of(cls, mult: dict[Weight, int], rank: int, dtype) -> "_WeightTable":
        """The table of a weight map, with its values in `dtype`."""
        items = sorted(mult.items())
        return cls(_weight_array([w for w, _ in items], rank),
                   np.array([m for _, m in items], dtype=dtype))

    def scaled(self, k: int) -> "_WeightTable":
        """psi_k of the table for k > 0: every weight times k, which keeps the
        lexicographic order, with the same values (labels follow the guard
        of `_shifted_stack`)."""
        if not len(self):
            return self
        return _WeightTable(_shifted_stack(self.weights, [(k, (0,) * self.weights.shape[1])]),
                            self.values)

    def __len__(self) -> int:
        return len(self.values)


def _convolve_at(table: _WeightTable, nus: np.ndarray, kernel: _WeightTable) -> np.ndarray:
    """sum_j m_j * table(nu - w_j) over the weights w_j and values m_j of
    `kernel`, for every row nu of the (n, rank) stack `nus`, exactly.

    One `Box` holds every nu - w_j and every table weight.  The code of
    nu - w_j is the offset of nu from the least nu plus the code of that
    least nu - w_j, both in [0, box): no pair needs an in-box test.  Pair
    codes are formed for blocks of rows of `nus` (about 2^14 pairs at once)
    and looked up among the table's codes, which come out sorted, with
    `np.searchsorted`.  Values are int64 only when the table and the kernel
    are, and the caller chose that dtype so that sum|kernel| * sum|table| <
    2^62, which bounds every value and its sum over distinct points nu.
    """
    if not len(table) or not len(kernel) or not len(nus):
        return np.zeros(len(nus), dtype=np.result_type(table.values.dtype, kernel.values.dtype))
    lo_nu, hi_nu = nus.min(0).tolist(), nus.max(0).tolist()
    lo = [min(a - w, t) for a, w, t in zip(lo_nu, kernel.hi, table.lo)]
    hi = [max(b - w, t) for b, w, t in zip(hi_nu, kernel.lo, table.hi)]
    box = Box(lo, hi, lo_nu + hi_nu + kernel.lo + kernel.hi + table.lo + table.hi)
    codes_t = box.encode(table.weights)
    codes_w = -box.encode(kernel.weights, _wsub(lo_nu, lo))
    last = len(codes_t) - 1
    rows = max(1, _BLOCK_PAIRS // len(codes_w))
    out = []
    for i in range(0, len(nus), rows):
        codes = box.encode(nus[i:i + rows], lo_nu)[:, None] + codes_w
        idx = np.minimum(np.searchsorted(codes_t, codes), last)
        out.append(np.where(codes_t[idx] == codes, table.values[idx], 0) @ kernel.values)
    return np.concatenate(out)


def _lookup(table: _WeightTable, nus: np.ndarray) -> np.ndarray:
    """table(nu) for every row nu of nus: `_convolve_at` with the unit at 0."""
    rank = nus.shape[1]
    return _convolve_at(table, nus, _WeightTable.of({(0,) * rank: 1}, rank, table.values.dtype))


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
    table = _WeightTable.of(chi.mult, chi.rs.rank, value_dtype(sum(map(abs, chi.mult.values()))))
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
    top = max(int(weights.max()), -int(weights.min())) + 1  # np.abs wraps at -2^63
    return np.int64 if top * rs._orbit_label_factor < INT64_SAFE // 8 else object


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


def _shifted_stack(weights: np.ndarray, blocks) -> np.ndarray:
    """The rows k * w + s for every (k, s) in `blocks` and every row w of
    `weights`, block after block.  int64 only when `weights` is and every
    label is below 2^61 in size, Python ints otherwise; the fold takes its
    own dtype from the result (`_fold_dtype`)."""
    top = max(int(weights.max()), -int(weights.min()))
    bound = max(k * top + max(map(abs, s)) for k, s in blocks)
    dtype = np.int64 if weights.dtype != object and bound < INT64_SAFE // 2 else object
    weights = weights.astype(dtype, copy=False)
    return np.concatenate([k * weights + np.array(s, dtype=dtype) for k, s in blocks])


def _fold(rs: RootSystem, stack: np.ndarray, values: np.ndarray,
          groups: np.ndarray) -> list[tuple[Weight, int]]:
    """The signed Racah-Speiser sums of virtual characters given as rows:
    row i, a weight plus rho, adds sgn_i * values[i] to L(dom_i - rho) of
    the character groups[i], where dom_i and sgn_i are its dominant
    representative and sign (`to_dominant`; rows on a chamber wall add
    nothing).  Returns the nonzero totals (groups[i], *(dom_i - rho)) in
    lexicographic order, summed by integer codes, so the characters of one
    stack fold together and their totals stay apart.

    `stack` is folded in place and must be in a dtype that holds every label
    of the fold (`_fold_dtype`); `values` in one that holds the sum of
    |values| over each group.
    """
    tops, signs = _fold_to_dominant(rs, stack)
    keep = signs != 0
    lams, values = tops[keep] - 1, signs[keep] * values[keep]
    lams = np.column_stack([groups[keep].astype(lams.dtype), lams])
    if not len(lams):
        return []
    lo, hi = lams.min(0).tolist(), lams.max(0).tolist()
    box = Box(lo, hi, lo + hi)
    codes, values = sum_by_code([(box.encode(lams), values)], box.size, len(lams))
    return list(_weight_map(box.decode(codes), values).items())


def _check_size(rows: int, width: int, what: str) -> None:
    """`UsageError` when an int64 array of rows x width would exceed
    `MAX_ARRAY_BYTES`."""
    if rows * width * 8 > MAX_ARRAY_BYTES:
        raise UsageError(f"{what} would take more than {MAX_ARRAY_BYTES >> 20} MiB")


def _fold_shifted(rs: RootSystem, weights: np.ndarray, mults: list[int],
                  *stacks) -> list[dict[Weight, int]]:
    """RS(sum_j coeffs[j] chi_j) as {dominant weight: total}, one map for each
    stack (blocks, coeffs) of `stacks`, where chi is the character with the
    rows of `weights` and the multiplicities `mults` and chi_j moves every
    weight nu of chi to k_j nu + s_j for the j-th block (k_j, s_j) of
    `blocks`.  By Brauer-Klimyk, the block (1, kappa) stands for
    chi * L(kappa), and (k, 0) for psi_k chi.

    All stacks are one fold (`_fold`, with one group per stack).  Labels
    follow `_fold_dtype` on the whole shifted stack; values are int64 while
    sum |coeffs| * sum |mults| < 2^62 for every stack, which bounds every
    value and every sum.  A stack of rows that would take more than
    `MAX_ARRAY_BYTES` as int64 is refused before it is built (`UsageError`).
    """
    size = len(weights) * sum(len(blocks) for blocks, _ in stacks)
    _check_size(size, rs.rank + 1, f"a Racah-Speiser fold of {size} weights")
    rows = _shifted_stack(weights, [(k, _wadd(s, rs.rho))
                                     for blocks, _ in stacks for k, s in blocks])
    rows = rows.astype(_fold_dtype(rs, rows), copy=False)
    dtype = value_dtype(max(sum(map(abs, cs)) for _, cs in stacks) * sum(map(abs, mults)))
    coeffs = np.array([c for _, cs in stacks for c in cs], dtype=dtype)
    values = np.outer(coeffs, np.array(mults, dtype=dtype)).ravel()
    sizes = [len(blocks) * len(weights) for blocks, _ in stacks]
    groups = np.repeat(np.arange(len(stacks)), sizes)
    out: list[dict[Weight, int]] = [{} for _ in stacks]
    for key, m in _fold(rs, rows, values, groups):
        out[key[0]][key[1:]] = m
    return out


def _by_height(rs: RootSystem, terms) -> list[tuple[Weight, int]]:
    """Terms by decreasing height, then lexicographically, with the integer
    height keys of `RootSystem._height_key`."""
    height = rs._height_key
    return sorted(terms, key=lambda t: (-height(t[0]), t[0]))


def decompose(chi: Character, lam: Weight | None = None) -> list[tuple[Weight, int]]:
    """Exact decomposition of chi, or of chi * L(lam), into irreducibles.

    Racah-Speiser (Humphreys, section 24): each weight nu contributes
    sgn * chi(nu) to L(dom(nu + rho) - rho), where dom(nu + rho) and its
    sign are those of `to_dominant` and weights on a chamber wall (sign 0)
    contribute nothing.  With `lam`, Brauer-Klimyk (Klimyk 1968): nu
    contributes sgn * chi(nu) to L(dom(nu + lam + rho) - rho), which
    decomposes chi * L(lam) without building it.  The support runs as one
    batch:

    - Weyl invariance is one lookup of every simple reflection of the whole
      support in the character's own table (`_invariance_failures`);
    - `_fold_shifted` folds the stack supp chi + lam + rho into the dominant
      chamber and sums the terms sgn * chi(nu) per dominant weight by
      integer codes;
    - the terms are sorted by decreasing height, then lexicographically
      (`_by_height`).

    Labels are int64 only while every label that a reflection or a fold step
    can reach stays below 2^59 in size (`_fold_dtype`, on the support and on
    the shifted stack), and multiplicities and their sums only while
    sum |chi| < 2^62; beyond either guard the same code runs on Python ints,
    so nothing wraps.  Raises `UsageError` for a character that is not
    Weyl-invariant, naming the first such weight in the character's order
    and its first reflection, or not genuine, and `PreconditionError` for a
    `lam` that is not a dominant weight of the right length.
    """
    rs = chi.rs
    shift = (0,) * rs.rank
    if lam is not None:
        shift = tuple(lam)
        _check_highest_weight(rs, shift)
    if not chi.mult:
        return []
    table = _WeightTable.of(chi.mult, rs.rank, value_dtype(sum(map(abs, chi.mult.values()))))
    weights = table.weights.astype(_fold_dtype(rs, table.weights), copy=False)
    failures = _invariance_failures(rs, table, weights)
    if failures:
        w = next(w for w in chi.mult if w in failures)
        raise UsageError(f"character is not Weyl-invariant: weight {w} and its "
                         f"reflection s_{failures[w] + 1} have different multiplicities")
    (terms,) = _fold_shifted(rs, weights, table.values.tolist(), ([(1, shift)], [1]))
    if any(m < 0 for m in terms.values()):
        raise UsageError("not a genuine character: negative multiplicity of an irreducible")
    return _by_height(rs, terms.items())


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
    characters on one Weyl orbit.  Three are tables built once, as arrays:
    chi^2 (`_sq`) straight from the sorted output of `_convolve`, and psi2
    (`_p2`) and psi3 (`_p3`) by scaling the weights of chi's table.  Two are
    batched point queries that convolve chi with a table, so the cube is
    never materialized:
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
        rank, dtype = chi.rs.rank, value_dtype(6 * chi.dim() ** 3)
        items = self._items = _WeightTable.of(chi.mult, rank, dtype)
        values = items.values.tolist()
        weights, square = _convolve(items.weights, values, items.weights, values)
        self._sq = _WeightTable(weights, square.astype(dtype, copy=False))
        self._p2, self._p3 = items.scaled(2), items.scaled(3)

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


def decompose_expression(rs: RootSystem, name: str, lam: Weight,
                         mu: Weight | None = None) -> list[tuple[Weight, int]]:
    """The constituents of one of `EXPRESSIONS` of chi = L(lam), as `decompose`
    would return them for the materialized character, without building it.

    `tensor` is `decompose(chi, lam)`, or `decompose(chi, mu)` with `mu`.
    Every other expression folds the arrays of chi itself, which the
    Freudenthal recursion fills orbit by orbit, so no Weyl-invariance check
    runs: one fold gives q_kappa = [chi^2 : kappa] and p_kappa =
    [psi2 chi : kappa], and a cube takes a second fold of shifted copies of
    supp chi:

        alt2, sym2 = (q -+ RS(2 supp chi)) / 2
        alt3, sym3 = RS(sum_kappa (q_kappa -+ 3 p_kappa) (supp chi + kappa)
                        + 2 (3 supp chi)) / 6
        plethysm21 = (chi^3 - psi3 chi) / 3
                   = RS(sum_kappa q_kappa (supp chi + kappa) - (3 supp chi)) / 3

    where RS is the Racah-Speiser fold and supp chi + kappa carries the
    multiplicities of chi times the coefficient, so that it stands for
    chi * L(kappa) by Brauer-Klimyk.  Every division is checked to be exact
    and every result to be genuine (`InternalError` otherwise).  Values are
    int64 while sum |c| * dim chi < 2^62 over the fold's coefficients c.

    Raises `UsageError` for an unknown name, for `mu` with any expression
    but `tensor`, or, before building it, for a chi or a fold stack over
    `MAX_ARRAY_BYTES` as int64.
    """
    if name not in EXPRESSIONS:
        raise UsageError(f"unknown expression {name!r}; expected one of {EXPRESSIONS}")
    if mu is not None and name != "tensor":
        raise UsageError(f"only the tensor expression takes a second highest weight, "
                         f"not {name}")
    lam = tuple(lam)
    _check_highest_weight(rs, lam)
    _check_size(rs.weyl_dimension(lam), rs.rank, f"the weights of L{lam}")
    chi = irrep_character(rs, lam)
    if name == "tensor":
        return decompose(chi, lam if mu is None else mu)

    zero = (0,) * rs.rank
    sign = 1 if name.startswith("sym") else -1
    weights, mults = _arrays(chi)
    square, psi2 = ([(1, lam)], [1]), ([(2, zero)], [1])
    if name in ("alt2", "sym2"):
        q, p = _fold_shifted(rs, weights, mults, square, psi2)
        out = _divided(_lincomb((1, q), (sign, p)), 2)
    else:
        # A cube: the second fold, sum_kappa c_kappa (supp chi + kappa) + psi3 (3 supp chi).
        if name == "plethysm21":
            (c,) = _fold_shifted(rs, weights, mults, square)
            psi3, k = -1, 3
        else:
            q, p = _fold_shifted(rs, weights, mults, square, psi2)
            c = {kappa: m for kappa, m in _lincomb((1, q), (3 * sign, p)).items() if m}
            psi3, k = 2, 6
        (chi3,) = _fold_shifted(rs, weights, mults,
                                ([(1, kappa) for kappa in c] + [(3, zero)], [*c.values(), psi3]))
        out = _divided(chi3, k)
    if any(m < 0 for m in out.values()):
        raise InternalError(f"{name} of {lam} has a negative multiplicity of an irreducible")
    return _by_height(rs, out.items())


def plethysm_counts(chi: Character, hws) -> tuple[int, int, int, int]:
    """For chi = sum_j L(hws[j]), multiplicity-free: sum_j [alt2 : lam_j],
    sum_j [sym2 : lam_j], [alt3 : 0] and [chi * alt2 : 0], from three
    Brauer-Klimyk sums made by one signed fold (`_fold_shifted`), without a
    Weyl group or a materialized square:

        q = chi^2 = RS(union_j supp chi + lam_j)
        p = psi2 chi = RS(2 supp chi)          psi3 chi = RS(3 supp chi)

    With lam* the dual of lam, the squares give [alt2 : lam] = (q_lam - p_lam)/2
    and [sym2 : lam] = q_lam - [alt2 : lam], and the cubes at 0 are
    [chi^3 : 0] = sum_j q_{lam_j*} and [chi psi2 : 0] = sum_j p_{lam_j*}, so

        [alt3 : 0] = (sum_j q_{lam_j*} - 3 sum_j p_{lam_j*} + 2 [psi3 chi : 0]) / 6
        [chi * alt2 : 0] = sum_j [alt2 : lam_j*].

    Every division is checked to be exact (`InternalError` otherwise).
    """
    rs = chi.rs
    hws = [tuple(lam) for lam in hws]
    zero = (0,) * rs.rank
    q, p, p3 = _fold_shifted(rs, *_arrays(chi), ([(1, lam) for lam in hws], [1] * len(hws)),
                             ([(2, zero)], [1]), ([(3, zero)], [1]))

    def alt(lam):
        return _exact_div(q.get(lam, 0) - p.get(lam, 0), 2)

    duals = [rs.dual_weight(lam) for lam in hws]
    a = sum(map(alt, hws))
    s = sum(q.get(lam, 0) for lam in hws) - a
    cube = sum(q.get(mu, 0) for mu in duals) - 3 * sum(p.get(mu, 0) for mu in duals)
    return a, s, _exact_div(cube + 2 * p3.get(zero, 0), 6), sum(map(alt, duals))
