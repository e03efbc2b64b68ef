"""Catalog and classification of invariant-connection multiplicities.

For a quotient G/K with irreducible isotropy module m, the quantities
computed here are dimensions of spaces of K-intertwining maps:

    a        copies of m inside the exterior square of m
    s        copies of m inside the symmetric square of m
    N = a+s  all invariant affine connections
    l        invariant 3-forms (trivial part of the exterior cube)
    epsilon  a - l, the trivial part of the mixed-symmetry cube component

All counts are complex multiplicities of the full complexified module, so
modules of complex type (two mutually dual summands) automatically come
out with the doubled real counts.

The bundled catalog stores one record per known quotient together with the
published multiplicities; `classify` recomputes them from scratch and
reports matches, mismatches, and rows skipped under the cost budget.

The counts come from three Brauer-Klimyk folds over |supp chi| weights each
(`chars.plethysm_counts`): chi^2, psi2 chi and psi3 chi, where chi is the
character of m.  On a Weyl group of at most `ORBIT_CHECK_MAX_WEYL` elements
the alternating Weyl-orbit sums of `chars.PlethysmOps` recount them, and a
difference is an `AssertionError`.  `external_cross_check` recounts two-block
external products from materialized squares and cubes of each block.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import math
import time
from dataclasses import dataclass, replace
from importlib import resources

from .chars import (Character, PlethysmOps, UsageError, alt2, decompose, dominant_weights_below,
                    expand, irrep_character, multiplicity, plethysm_counts, squares_and_cubes,
                    sym2, tensor, trivial_character)
from .rootsys import RootSystem, SimpleType, Weight, adjoint_weight

Summand = tuple[Weight, ...]  # one external-tensor summand: one weight per factor


class CatalogError(ValueError):
    """Malformed or inconsistent catalog data."""


class RangeError(ValueError):
    """Family parameter outside the stated range."""


@dataclass(frozen=True)
class Ambient:
    series: str  # SU | SO | Sp | G | F | E
    n: int

    def __post_init__(self):
        if self.series not in ("SU", "SO", "Sp", "G", "F", "E"):
            raise CatalogError(f"unknown ambient group {self}")
        self.dim  # SimpleType refuses an exceptional series of another rank

    @property
    def dim(self) -> int:
        if self.series == "SU":
            return self.n * self.n - 1
        if self.series == "SO":
            return self.n * (self.n - 1) // 2
        if self.series == "Sp":
            return self.n * (2 * self.n + 1)
        return SimpleType(self.series, self.n).dim

    def __str__(self) -> str:
        return f"{self.series}{self.n}"


@dataclass(frozen=True)
class Expected:
    a: int
    s: int
    N: int
    l: int
    rep_type: str  # "r" | "c"


@dataclass(frozen=True)
class IsotropyDatum:
    """One catalog row: an ambient group, a subgroup, and the module m."""

    id: str
    ambient: Ambient
    factors: tuple[SimpleType, ...]
    constituents: tuple[Summand, ...]
    expected: Expected | None = None
    source: str = ""
    family: str | None = None
    params: tuple[tuple[str, int], ...] = ()
    alt_constituents: tuple[Summand, ...] | None = None
    note: str = ""

    def root_system(self) -> RootSystem:
        return RootSystem(self.factors)

    def subgroup_dim(self) -> int:
        return sum(f.dim for f in self.factors)

    def expected_dim_m(self) -> int:
        return self.ambient.dim - self.subgroup_dim()


@dataclass
class SIIReport:
    id: str
    dim_m: int
    a: int | None = None
    s: int | None = None
    N: int | None = None
    l: int | None = None
    epsilon: int | None = None
    rep_type: str | None = None
    status: str = "ok"  # ok | skipped: ...
    matched_expected: bool | None = None
    expected: Expected | None = None
    elapsed: float = 0.0
    note: str = ""

    def values(self) -> tuple:
        return (self.a, self.s, self.N, self.l)


@dataclass(frozen=True)
class Budget:
    """Cost gate for a classification attempt: caps on the Weyl order of K
    and on the weight support of m.  The folds cost O(support) and build no
    Weyl group, so the default caps are far above what the engine needs;
    they are kept so that a sweep under given caps reports the same rows
    as skipped.
    """

    max_weyl_order: int = 10**6
    max_support: int = 50_000

    @staticmethod
    def unlimited() -> "Budget":
        return Budget(max_weyl_order=1 << 62, max_support=1 << 62)


# ---------------------------------------------------------------------------
# Catalog data
# ---------------------------------------------------------------------------

def _integer(x, key: str) -> int:
    """A JSON integer of the catalog, named `key` in the error: floats and
    booleans are refused, not truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise CatalogError(f"{key} is {x!r}, not an integer")
    return x


def _string(x, key: str) -> str:
    if not isinstance(x, str):
        raise CatalogError(f"{key} is {x!r}, not a string")
    return x


def _summands(factors: tuple[SimpleType, ...], seq) -> tuple[Summand, ...]:
    """Parse summands, each one dominant weight per factor of the matching rank."""
    out = []
    for summand in seq:
        weights = tuple(tuple(_integer(x, "weight label") for x in w) for w in summand)
        if len(weights) != len(factors):
            raise CatalogError(f"summand {summand} has {len(weights)} weights "
                               f"for {len(factors)} factors")
        for f, w in zip(factors, weights):
            if len(w) != f.rank:
                raise CatalogError(f"weight {w} has {len(w)} labels; factor {f} has rank {f.rank}")
            if any(x < 0 for x in w):
                raise CatalogError(f"weight {w} has a negative label")
        out.append(weights)
    return tuple(out)


def _row_from_json(rec: dict) -> IsotropyDatum:
    try:
        ambient = Ambient(rec["ambient"]["series"], _integer(rec["ambient"]["n"], "ambient n"))
        factors = tuple(SimpleType(s, _integer(r, "factor rank")) for s, r in rec["factors"])
        constituents = _summands(factors, rec["constituents"])
        expected = None
        if rec.get("expected"):
            e = rec["expected"]
            expected = Expected(*(_integer(e[k], f"expected {k}") for k in "asNl"), e["type"])
            if expected.rep_type not in ("r", "c"):
                raise CatalogError(f"expected type {expected.rep_type!r} is neither 'r' nor 'c'")
        alt = rec.get("alt_constituents")
        altc = _summands(factors, alt) if alt else None
        rs = RootSystem(factors)
        for module in (constituents, altc) if altc else (constituents,):
            duality_type(rs, module)
        fam = rec.get("family") or {}
        if not isinstance(fam, dict) or not isinstance(fam.get("params") or {}, dict):
            raise CatalogError("'family' must be an object whose 'params' is an object")
        return IsotropyDatum(
            id=rec["id"], ambient=ambient, factors=factors, constituents=constituents,
            expected=expected, source=_string(rec.get("source", ""), "source"),
            family=fam.get("key"), params=tuple(sorted((fam.get("params") or {}).items())),
            alt_constituents=altc, note=_string(rec.get("note", ""), "note"))
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"bad catalog record {rec['id']!r}: {exc}") from exc


def load_catalog(path: str | None = None) -> list[IsotropyDatum]:
    """Load the bundled catalog, or an external file with the same schema.

    The bundled catalog is parsed once per process, an external file on
    every call; either way the caller gets a list of its own.
    """
    if path is None:
        return list(_bundled_catalog())
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_catalog(fh.read())


@functools.cache
def _bundled_catalog() -> tuple[IsotropyDatum, ...]:
    return tuple(_parse_catalog(resources.files("invconn.data").joinpath("catalog.json").read_text()))


def _parse_catalog(text: str) -> list[IsotropyDatum]:
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise CatalogError("catalog file must be an object with a 'rows' list")
    if "version" in doc and _integer(doc["version"], "version") != 1:
        raise CatalogError(f"catalog version {doc['version']} is not 1, the one this program reads")
    for i, rec in enumerate(doc["rows"]):
        if not isinstance(rec, dict) or not isinstance(rec.get("id"), str):
            raise CatalogError(f"bad catalog record rows[{i}]: not an object with a string 'id'")
    rows = [_row_from_json(rec) for rec in doc["rows"]]
    seen: dict[str, str] = {}
    for r in rows:
        key = _row_key(r.id)
        if key in seen:
            raise CatalogError(f"duplicate row ids in catalog: {seen[key]!r} and {r.id!r}")
        seen[key] = r.id
    return rows


def catalog_document(entries: list[IsotropyDatum]) -> dict:
    """The catalog `entries` in the bundled schema, which `load_catalog`
    reads back to the same rows."""
    rows = []
    for e in entries:
        rec = {"id": e.id, "ambient": {"series": e.ambient.series, "n": e.ambient.n},
               "factors": [[f.series, f.rank] for f in e.factors],
               "constituents": [[list(w) for w in sm] for sm in e.constituents],
               "source": e.source}
        if e.expected is not None:
            x = e.expected
            rec["expected"] = {"a": x.a, "s": x.s, "N": x.N, "l": x.l, "type": x.rep_type}
        if e.family is not None:
            rec["family"] = {"key": e.family, "params": dict(e.params)}
        if e.alt_constituents is not None:
            rec["alt_constituents"] = [[list(w) for w in sm] for sm in e.alt_constituents]
        if e.note:
            rec["note"] = e.note
        rows.append(rec)
    return {"version": 1, "rows": rows}


def _row_key(row_id: str) -> str:
    """The form in which a selector and a row id are compared."""
    return row_id.replace(" ", "").lower()


def get_row(row_id: str, path: str | None = None) -> IsotropyDatum:
    key = _row_key(row_id)
    for row in load_catalog(path):
        if _row_key(row.id) == key:
            return row
    raise KeyError(f"no catalog row with id {row_id!r}")


# -- parameterized families ---------------------------------------------------

def _su(n: int) -> SimpleType:
    return SimpleType("A", n - 1)


def _so(n: int) -> SimpleType:
    if n % 2:
        return SimpleType("B", n // 2)
    return SimpleType("D", n // 2)


def _e(rank: int, *ones: int) -> Weight:
    w = [0] * rank
    for i in ones:
        w[i - 1] += 1
    return tuple(w)


def family(key: str, **params: int) -> IsotropyDatum:
    """Instantiate a parameterized catalog family at the given parameters."""
    builders = {
        "SU_alt2": _fam_su_alt2,
        "SU_sym2": _fam_su_sym2,
        "SU_pq": _fam_su_pq,
        "SU_2q": _fam_su_2q,
        "SO_ad": _fam_so_ad,
        "SO_alt2": _fam_so_alt2,
        "SO_sym2": _fam_so_sym2,
        "SO_spalt": _fam_so_spalt,
        "SO_spsym": _fam_so_spsym,
        "SO_4n": _fam_so_4n,
        "Sp_n": _fam_sp_n,
    }
    if key not in builders:
        raise KeyError(f"unknown family {key!r}; known: {sorted(builders)}")
    names = tuple(inspect.signature(builders[key]).parameters)
    if sorted(params) != sorted(names):
        raise UsageError(f"family {key} takes the parameters {', '.join(names)}; "
                         f"got {', '.join(sorted(params)) or 'none'}")
    return replace(builders[key](**params), source="table4", family=key,
                   params=tuple(sorted(params.items())))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise RangeError(msg)


def _fam_su_alt2(n: int) -> IsotropyDatum:
    _require(n >= 6, "SU_alt2 requires n >= 6")
    r = n - 1
    w = _e(r, 2, n - 2)
    return IsotropyDatum(f"SU{n*(n-1)//2}/SU{n}", Ambient("SU", n * (n - 1) // 2),
                         (_su(n),), ((w,),), Expected(1, 2, 3, 1, "r"))


def _fam_su_sym2(n: int) -> IsotropyDatum:
    _require(n >= 3, "SU_sym2 requires n >= 3")
    r = n - 1
    w = tuple(2 if i in (0, r - 1) else 0 for i in range(r)) if r > 1 else (4,)
    return IsotropyDatum(f"SU{n*(n+1)//2}/SU{n}", Ambient("SU", n * (n + 1) // 2),
                         (_su(n),), ((w,),), Expected(1, 2, 3, 1, "r"))


def _fam_su_pq(p: int, q: int) -> IsotropyDatum:
    _require(p >= 3 and q >= 3, "SU_pq requires p, q >= 3")
    return IsotropyDatum(f"SU{p*q}/SU{p}xSU{q}", Ambient("SU", p * q),
                         (_su(p), _su(q)),
                         ((adjoint_weight(_su(p)), adjoint_weight(_su(q))),),
                         Expected(2, 2, 4, 2, "r"))


def _fam_su_2q(q: int) -> IsotropyDatum:
    _require(q >= 3, "SU_2q requires q >= 3")
    return IsotropyDatum(f"SU{2*q}/SU2xSU{q}", Ambient("SU", 2 * q),
                         (_su(2), _su(q)), (((2,), adjoint_weight(_su(q))),),
                         Expected(1, 1, 2, 1, "r"))


def _fam_so_ad(n: int) -> IsotropyDatum:
    _require(n >= 4, "SO_ad requires n >= 4")
    r = n - 1
    return IsotropyDatum(f"SO{n*n-1}/SU{n}", Ambient("SO", n * n - 1),
                         (_su(n),), ((_e(r, 1, 1, n - 2),), (_e(r, 2, r, r),)),
                         Expected(6, 2, 8, 4, "c"))


def _fam_so_alt2(n: int) -> IsotropyDatum:
    _require(n >= 9, "SO_alt2 requires n >= 9")
    st = _so(n)
    return IsotropyDatum(f"SO{n*(n-1)//2}/SO{n}", Ambient("SO", n * (n - 1) // 2),
                         (st,), ((_e(st.rank, 1, 3),),), Expected(3, 1, 4, 2, "r"))


def _fam_so_sym2(n: int) -> IsotropyDatum:
    _require(n >= 7, "SO_sym2 requires n >= 7")
    st = _so(n)
    return IsotropyDatum(f"SO{(n-1)*(n+2)//2}/SO{n}", Ambient("SO", (n - 1) * (n + 2) // 2),
                         (st,), ((_e(st.rank, 1, 1, 2),),), Expected(3, 1, 4, 2, "r"))


def _fam_so_spalt(n: int) -> IsotropyDatum:
    _require(n >= 4, "SO_spalt requires n >= 4")
    return IsotropyDatum(f"SO{(n-1)*(2*n+1)}/Sp{n}", Ambient("SO", (n - 1) * (2 * n + 1)),
                         (SimpleType("C", n),), ((_e(n, 1, 3),),), Expected(3, 1, 4, 2, "r"))


def _fam_so_spsym(n: int) -> IsotropyDatum:
    _require(n >= 3, "SO_spsym requires n >= 3")
    return IsotropyDatum(f"SO{n*(2*n+1)}/Sp{n}", Ambient("SO", n * (2 * n + 1)),
                         (SimpleType("C", n),), ((_e(n, 1, 1, 2),),), Expected(3, 1, 4, 2, "r"))


def _fam_so_4n(n: int) -> IsotropyDatum:
    _require(n >= 2, "SO_4n requires n >= 2")
    return IsotropyDatum(f"SO{4*n}/Sp{n}xSp1", Ambient("SO", 4 * n),
                         (SimpleType("C", n), SimpleType("A", 1)),
                         ((_e(n, 2), (2,)),), Expected(1, 0, 1, 1, "r"))


def _fam_sp_n(n: int) -> IsotropyDatum:
    _require(n >= 5, "Sp_n requires n >= 5")
    st = _so(n)
    return IsotropyDatum(f"Sp{n}/SO{n}xSp1", Ambient("Sp", n),
                         (st, SimpleType("A", 1)), ((_e(st.rank, 1, 1), (2,)),),
                         Expected(1, 0, 1, 1, "r"))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def module_character(rs: RootSystem, constituents) -> Character:
    return expand(rs, [(rs.join(summand), 1) for summand in constituents])


def duality_type(rs: RootSystem, constituents) -> str:
    """'real' for a single self-dual constituent, 'complex' for a dual pair."""
    hws = [rs.join(summand) for summand in constituents]
    if len(hws) == 1:
        lam = hws[0]
        if rs.dual_weight(lam) != lam:
            raise CatalogError(f"single constituent {lam} is not self-dual")
        return "real"
    if len(hws) == 2:
        lam, mu = hws
        if lam == mu:
            raise CatalogError("repeated constituent: module is not multiplicity-free")
        if rs.dual_weight(lam) != mu:
            raise CatalogError(f"constituents {lam}, {mu} are not dual to each other")
        return "complex"
    raise CatalogError(f"unsupported module shape with {len(hws)} constituents")


def support_estimate(rs: RootSystem, constituents) -> int:
    """Number of distinct weights, computed without materializing any of them.

    Exact per summand (orbit sizes of the dominant weights); summands of a
    dual pair can overlap, so the total over-counts at most by the pair
    intersection, which is fine for a budget gate.
    """
    total = 0
    for summand in constituents:
        size = 1
        for sub, w in zip(rs.factor_systems(), summand):
            doms = dominant_weights_below(sub, w)
            size *= sum(sub.orbit_size(d) for d in doms)
        total += size
    return total


# Rows whose Weyl group has at most this many elements are also counted by
# the Weyl-orbit alternating sum, which must agree with the folds.
ORBIT_CHECK_MAX_WEYL = 100


def _orbit_counts(chi: Character, hws) -> tuple[int, int, int, int]:
    """`plethysm_counts` by alternating sums over the Weyl orbits of
    lam + rho (`PlethysmOps`): a second path that shares only the character
    with the folds."""
    ops = PlethysmOps(chi)
    zero = (0,) * chi.rs.rank
    pairs = [ops.mult_in_alt2_sym2(lam) for lam in hws]
    return (sum(a for a, _ in pairs), sum(s for _, s in pairs),
            *ops.mult_in_alt3_chi_alt2(zero))


def _counts(chi: Character, hws) -> tuple[int, int, int, int]:
    """(a, s, l, epsilon) of a multiplicity-free module with highest weights
    hws, by Brauer-Klimyk folds (`plethysm_counts`).  On a Weyl group of at
    most `ORBIT_CHECK_MAX_WEYL` elements the orbit sums must agree."""
    values = plethysm_counts(chi, hws)
    if chi.rs.weyl_order <= ORBIT_CHECK_MAX_WEYL:
        orbit = _orbit_counts(chi, hws)
        if orbit != values:
            raise AssertionError(f"Brauer-Klimyk counts {values} != Weyl-orbit counts "
                                 f"{orbit}; engine bug")
    a, s, l, chi_alt2 = values
    return a, s, l, chi_alt2 - l


def _classify_values(rs: RootSystem, constituents) -> tuple[int, int, int, int]:
    return _counts(module_character(rs, constituents), [rs.join(sm) for sm in constituents])


# A Weyl order below 10 to this power, at most this many digits, is formed
# exactly and printed in full; a larger one is compared and printed as a
# power of ten from its logarithm, so the gate forms no factorial of a
# large rank.
_EXACT_ORDER_DIGITS = 4300
_DECIMAL_CHUNK = 10 ** 600


def _decimal(n: int) -> str:
    """n >= 0 in decimal, 600 digits at a time: below every limit that the
    interpreter may set on the digits of one int-to-str conversion."""
    chunks = []
    while n >= _DECIMAL_CHUNK:
        n, r = divmod(n, _DECIMAL_CHUNK)
        chunks.append(f"{r:0600d}")
    return str(n) + "".join(reversed(chunks))


def _weyl_gate(factors, cap: int) -> str | None:
    """Why a row whose Weyl group has more than `cap` elements is skipped,
    or None, from the closed-form orders of its factors."""
    digits = sum(f.weyl_order_log10 for f in factors)
    if digits < _EXACT_ORDER_DIGITS:
        order = math.prod(f.weyl_order for f in factors)
        return f"Weyl order {_decimal(order)} > {_decimal(cap)}" if order > cap else None
    if digits > math.log10(max(cap, 1)):
        return f"Weyl order ~10^{digits:.1f} > {_decimal(cap)}"
    return None


def classify(entry: IsotropyDatum, budget: Budget | None = None) -> SIIReport:
    """Compute (a, s, N, l, epsilon) for one catalog row.

    Rows whose Weyl order or weight support exceeds the budget are reported
    as skipped rather than attempted.
    """
    budget = budget or Budget()
    t0 = time.perf_counter()

    def skipped(dim_m: int, reason: str) -> SIIReport:
        return SIIReport(entry.id, dim_m, expected=entry.expected,
                         status=f"skipped: infeasible ({reason})", elapsed=time.perf_counter() - t0)

    # The closed-form order gates before any work per root or per label.
    reason = _weyl_gate(entry.factors, budget.max_weyl_order)
    if reason:
        return skipped(entry.expected_dim_m(), reason)
    rs = entry.root_system()

    dim_m = sum(rs.weyl_dimension(rs.join(sm)) for sm in entry.constituents)
    if dim_m != entry.expected_dim_m():
        raise CatalogError(
            f"{entry.id}: module dimension {dim_m} != "
            f"dim {entry.ambient} - dim K = {entry.expected_dim_m()}")

    support = support_estimate(rs, entry.constituents)
    if support > budget.max_support:
        return skipped(dim_m, f"support {support} > {budget.max_support}")

    rep_type = duality_type(rs, entry.constituents)
    a, s, l, eps = _classify_values(rs, entry.constituents)
    note = entry.note
    if entry.alt_constituents is not None:
        alt_vals = _classify_values(rs, entry.alt_constituents)
        if alt_vals != (a, s, l, eps):
            raise AssertionError(f"{entry.id}: candidate constituent lists disagree")
        note = (note + "; " if note else "") + "both candidate modules agree"

    report = SIIReport(entry.id, dim_m, a=a, s=s, N=a + s, l=l, epsilon=eps,
                       rep_type=rep_type, expected=entry.expected,
                       elapsed=time.perf_counter() - t0, note=note)
    if entry.expected is not None:
        exp = entry.expected
        report.matched_expected = (
            (a, s, a + s, l) == (exp.a, exp.s, exp.N, exp.l)
            and {"r": "real", "c": "complex"}[exp.rep_type] == rep_type)
    return report


def classify_reducible(chi: Character) -> SIIReport:
    """Multiplicity counts for a possibly reducible, multiplicity-free module."""
    terms = decompose(chi)
    if any(m != 1 for _, m in terms):
        raise UsageError("module is not multiplicity-free; counts would need "
                         "endomorphism-algebra bookkeeping")
    a, s, l, eps = _counts(chi, [lam for lam, _ in terms])
    return SIIReport("reducible", chi.dim(), a=a, s=s, N=a + s, l=l, epsilon=eps)


def unitary_group_module(n: int) -> Character:
    """u(n) as a module over itself: trivial line plus the su(n) adjoint."""
    if n < 2:
        raise RangeError("u(n) module requires n >= 2")
    rs = RootSystem([SimpleType("A", n - 1)])
    return trivial_character(rs) + irrep_character(rs, adjoint_weight(SimpleType("A", n - 1)))


# ---------------------------------------------------------------------------
# Isotropy modules from embeddings
# ---------------------------------------------------------------------------

def subgroup_adjoint_character(rs: RootSystem) -> Character:
    """Adjoint module of the (product) subgroup, as a character over rs."""
    out = Character(rs, {})
    zero_parts = [(0,) * f.rank for f in rs.factors]
    for i, f in enumerate(rs.factors):
        parts = list(zero_parts)
        parts[i] = adjoint_weight(f)
        out = out + irrep_character(rs, rs.join(parts))
    return out


def isotropy_from_embedding(host: str, pi: Character) -> Character:
    """Isotropy module cut out of a faithful representation of the subgroup.

    host 'orthogonal':  alt2(pi) = adjoint + m
    host 'unitary':     pi (x) dual(pi) = 1 + adjoint + m
    host 'symplectic':  sym2(pi) = adjoint + m
    """
    rs = pi.rs
    adk = subgroup_adjoint_character(rs)
    if host == "orthogonal":
        out = alt2(pi) - adk
    elif host == "symplectic":
        out = sym2(pi) - adk
    elif host == "unitary":
        dual = Character(rs, {tuple(-x for x in w): m for w, m in pi.mult.items()})
        out = tensor(pi, dual) - adk - trivial_character(rs)
    else:
        raise UsageError("host must be one of orthogonal, unitary, symplectic")
    if not out.is_genuine():
        raise CatalogError(f"embedding data inconsistent for {host} host: "
                           "virtual multiplicities in the complement")
    return out


# ---------------------------------------------------------------------------
# Factorized cross-check for two-block external products
# ---------------------------------------------------------------------------

def external_cross_check(entry: IsotropyDatum) -> dict:
    """Compare direct (a, s, l) with the factorized two-block computation.

    The module must be a single external product V (x) W, with W on the last
    factor and V on everything before it.
    """
    if len(entry.constituents) != 1 or len(entry.factors) < 2:
        raise UsageError("cross-check needs a single external-product constituent")
    rs = entry.root_system()
    cut = len(entry.factors) - 1
    summand = entry.constituents[0]

    rs_v = RootSystem(entry.factors[:cut])
    rs_w = RootSystem(entry.factors[cut:])
    lam_v, lam_w = rs_v.join(summand[:cut]), rs_w.join(summand[cut:])
    v = irrep_character(rs_v, lam_v)
    w = irrep_character(rs_w, lam_w)

    def counts(rsx, chi, lam):
        a2, s2, a3, s3, chi_a2 = squares_and_cubes(chi)
        p21 = chi_a2 - a3
        zero = (0,) * rsx.rank
        return {
            "in_alt2": multiplicity(a2, lam), "in_sym2": multiplicity(s2, lam),
            "triv_alt3": multiplicity(a3, zero), "triv_sym3": multiplicity(s3, zero),
            "triv_p21": multiplicity(p21, zero),
        }

    cv = counts(rs_v, v, lam_v)
    cw = counts(rs_w, w, lam_w)
    a_fact = cv["in_alt2"] * cw["in_sym2"] + cv["in_sym2"] * cw["in_alt2"]
    s_fact = cv["in_sym2"] * cw["in_sym2"] + cv["in_alt2"] * cw["in_alt2"]
    l_fact = (cv["triv_alt3"] * cw["triv_sym3"]
              + cv["triv_p21"] * cw["triv_p21"]
              + cv["triv_sym3"] * cw["triv_alt3"])

    a, s, l, _ = _classify_values(rs, entry.constituents)
    result = {"direct": (a, s, l), "factorized": (a_fact, s_fact, l_fact),
              "match": (a, s, l) == (a_fact, s_fact, l_fact)}
    if not result["match"]:
        raise AssertionError(f"{entry.id}: factorized path {result['factorized']} "
                             f"!= direct path {result['direct']}")
    return result


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------

def format_constituents(entry: IsotropyDatum) -> str:
    def fmt_weight(w: Weight) -> str:
        terms = []
        for i, c in enumerate(w, start=1):
            if c == 1:
                terms.append(f"pi{i}")
            elif c:
                terms.append(f"{c}pi{i}")
        return "R(" + ("+".join(terms) or "0") + ")"

    parts = []
    for summand in entry.constituents:
        parts.append("(x)".join(fmt_weight(w) for w in summand))
    return " + ".join(parts)


def _row_dict(entry: IsotropyDatum, rep: SIIReport) -> dict:
    status = rep.status
    if rep.status == "ok" and rep.matched_expected is True:
        status = "match"
    elif rep.status == "ok" and rep.matched_expected is False:
        status = "mismatch"
    elif rep.status == "ok":
        status = "computed"
    exp = rep.expected
    return {
        "id": rep.id,
        "module": format_constituents(entry),
        "dims": {"m": rep.dim_m},
        "computed": None if rep.a is None else {
            "a": rep.a, "s": rep.s, "N": rep.N, "l": rep.l,
            "epsilon": rep.epsilon, "type": rep.rep_type},
        "expected": None if exp is None else {
            "a": exp.a, "s": exp.s, "N": exp.N, "l": exp.l, "type": exp.rep_type},
        "status": status,
        "elapsed_ms": round(rep.elapsed * 1000.0, 3),
        "note": rep.note,
    }


def emit_tables(pairs, fmt: str = "markdown") -> str:
    """Render (entry, report) pairs in markdown, CSV, or JSON.

    Output order follows the input (catalog) order and is deterministic.
    """
    rows = [_row_dict(entry, rep) for entry, rep in pairs]
    matched = sum(r["status"] == "match" for r in rows)
    skipped = sum(r["status"].startswith("skipped") for r in rows)
    mismatched = sum(r["status"] == "mismatch" for r in rows)
    summary = f"matched {matched} / skipped {skipped} / mismatched {mismatched}"

    if fmt == "json":
        return json.dumps({"rows": rows, "summary": {
            "matched": matched, "skipped": skipped, "mismatched": mismatched}},
            indent=2, sort_keys=True)

    def cells(r):
        c = r["computed"]
        e = r["expected"]
        comp = "-" if c is None else f"{c['a']} {c['s']} {c['N']} {c['l']}"
        expc = "-" if e is None else f"{e['a']} {e['s']} {e['N']} {e['l']}"
        typ = "-" if c is None else c["type"][0]
        return [r["id"], r["module"], str(r["dims"]["m"]), comp, expc, typ, r["status"]]

    header = ["space", "m^C", "dim m", "a s N l (computed)", "a s N l (expected)", "type", "status"]
    if fmt == "csv":
        import csv  # only this format loads it
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells(r) for r in rows)
        return buf.getvalue() + f"# {summary}\n"
    if fmt in ("markdown", "md"):
        body = [cells(r) for r in rows]
        widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
                  for i, h in enumerate(header)]
        def line(vals):
            return "| " + " | ".join(v.ljust(w) for v, w in zip(vals, widths)) + " |"
        out = [line(header), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        out.extend(line(b) for b in body)
        out.append("")
        out.append(summary)
        return "\n".join(out) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


def classify_catalog(entries, budget: Budget | None = None):
    """Classify a list of rows, in order."""
    return [(entry, classify(entry, budget=budget)) for entry in entries]
