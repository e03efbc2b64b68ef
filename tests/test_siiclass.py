import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invconn import chars, siiclass
from invconn.chars import InternalError, UsageError, irrep_character, multiplicity, tensor
from invconn.rootsys import RootSystem, SimpleType
from invconn.siiclass import (Budget, CatalogError, RangeError, classify,
                              classify_catalog, classify_reducible, duality_type,
                              emit_tables, external_cross_check, family,
                              format_constituents, get_row, isotropy_from_embedding,
                              load_catalog, module_character, support_estimate,
                              unitary_group_module)

# The published value set for the n=2 member of the SO_4n family is
# inconsistent: its module does not occur in its own tensor square (the
# pair is symmetric), so the computed counts are zero.  See the acceptance
# suite and notes; it is excluded from the generic invariants below.
KNOWN_BAD_ROWS = {"SO8/Sp2xSp1"}

# Cheap rows used for sweep-style tests (all classify in well under a second).
FAST_ROWS = ["SU10/SU5", "SU6/SU3", "SU9/SU3xSU3", "SU6/SU2xSU3", "SO8/SU3",
             "SO21/SO7", "SO14/SO5", "SO14/Sp3", "SO10/Sp2", "Sp3/SO3xSp1",
             "Sp4/SO4xSp1", "SO7/G2", "SO14/G2", "SO16/Spin9", "Sp2/SU2",
             "G2/SU3", "G2/SO3", "F4/G2xSU2", "E7/SU3", "E6/G2"]


def test_catalog_loads_and_is_consistent():
    rows = load_catalog()
    assert len(rows) >= 50
    ids = {r.id for r in rows}
    assert "SO248/E8" in ids and "G2/SU3" in ids
    for row in rows:
        rs = row.root_system()
        dim = sum(rs.weyl_dimension(rs.join(sm)) for sm in row.constituents)
        assert dim == row.expected_dim_m(), row.id
        if row.expected is not None:
            assert row.expected.N == row.expected.a + row.expected.s, row.id


def test_catalog_examples():
    g2su3 = get_row("G2/SU3")
    assert [list(map(list, sm)) for sm in g2su3.constituents] == [[[1, 0]], [[0, 1]]]
    assert (g2su3.expected.a, g2su3.expected.s, g2su3.expected.N, g2su3.expected.l) == (2, 0, 2, 2)
    assert g2su3.expected.rep_type == "c"

    so10 = get_row("SO10/Sp2")
    assert so10.factors == (SimpleType("C", 2),)
    assert so10.constituents == (((2, 1),),)
    assert (so10.expected.a, so10.expected.s, so10.expected.N, so10.expected.l) == (2, 1, 3, 1)

    su6 = family("SU_2q", q=3)
    assert su6.id == "SU6/SU2xSU3"
    assert (su6.expected.a, su6.expected.s, su6.expected.N, su6.expected.l) == (1, 1, 2, 1)


def test_family_range_errors():
    with pytest.raises(RangeError):
        family("SU_pq", p=2, q=3)
    with pytest.raises(RangeError):
        family("SO_alt2", n=8)
    with pytest.raises(KeyError):
        family("nope", n=3)


@pytest.mark.parametrize("row_id", FAST_ROWS)
def test_classify_matches_published(row_id):
    rep = classify(get_row(row_id))
    assert rep.status == "ok"
    assert rep.matched_expected is True, (row_id, rep.values())


def test_classify_invariants_on_fast_rows():
    for row_id in FAST_ROWS:
        rep = classify(get_row(row_id))
        assert rep.N == rep.a + rep.s
        assert rep.epsilon == rep.a - rep.l >= 0
        assert 1 <= rep.l <= rep.a <= rep.N


def test_complex_rows_split_evenly():
    # Both halves of a dual pair carry the same multiplicities, so the
    # total counts of complex-type rows are even.
    for row_id in ["G2/SU3", "SO8/SU3"]:
        row = get_row(row_id)
        rs = row.root_system()
        rep = classify(row)
        assert rep.rep_type == "complex"
        assert rep.a % 2 == 0 and rep.s % 2 == 0 and rep.l % 2 == 0
        from invconn.chars import PlethysmOps
        from invconn.siiclass import module_character
        ops = PlethysmOps(module_character(rs, row.constituents))
        per = [ops.mult_in_alt2_sym2(rs.join(sm)) for sm in row.constituents]
        assert per[0] == per[1]


def test_classify_rejects_bad_dimension():
    row = get_row("SO7/G2")
    bad = type(row)(id="bad", ambient=row.ambient, factors=row.factors,
                    constituents=(((0, 1),),), expected=None, source="test")
    with pytest.raises(CatalogError):
        classify(bad)


def test_budget_skips():
    rep = classify(get_row("SO248/E8"))
    assert rep.status.startswith("skipped: infeasible")
    rep = classify(get_row("SO128/Spin16"))
    assert rep.status.startswith("skipped: infeasible")
    # A tiny support budget forces a skip on an otherwise feasible row.
    rep = classify(get_row("SO14/G2"), budget=Budget(max_weyl_order=10**6, max_support=10))
    assert rep.status.startswith("skipped: infeasible (support")


def test_weyl_gate_runs_before_any_per_root_work(monkeypatch):
    # The gate multiplies the closed-form orders of the factors, so no root
    # system is built for a skipped row, whatever its rank.
    def refuse(self):
        raise AssertionError("root system built before the Weyl-order gate")
    monkeypatch.setattr(siiclass.IsotropyDatum, "root_system", refuse)
    small = family("Sp_n", n=301)
    rep = classify(small, budget=Budget(max_weyl_order=1, max_support=1))
    order = 2 ** 150 * math.factorial(150) * 2  # B150 x A1
    assert rep.status == f"skipped: infeasible (Weyl order {order} > 1)"
    assert rep.dim_m == small.expected_dim_m()
    huge = family("Sp_n", n=99999)  # an order too long for str()
    for budget in (None, Budget.unlimited()):
        rep = classify(huge, budget=budget)
        assert rep.status.startswith("skipped: infeasible (Weyl order ~10^228283.3 > ")
        assert rep.dim_m == huge.expected_dim_m()


def test_gate_reports_the_computed_module_dimension():
    for row in load_catalog():
        rs = row.root_system()
        rep = classify(row, budget=Budget(max_weyl_order=0, max_support=0))
        assert rep.status.startswith("skipped: infeasible (Weyl order"), row.id
        assert rep.dim_m == sum(rs.weyl_dimension(rs.join(sm)) for sm in row.constituents), row.id


def test_support_estimate_is_exact():
    for row_id in ["SO14/G2", "SU9/SU3xSU3", "SO10/Sp2", "G2/SU3"]:
        row = get_row(row_id)
        rs = row.root_system()
        from invconn.siiclass import module_character
        chi = module_character(rs, row.constituents)
        assert support_estimate(rs, row.constituents) == chi.support_size()


def test_duality_type():
    g2 = RootSystem([SimpleType("G", 2)])
    assert duality_type(g2, (((1, 0),),)) == "real"
    a2 = RootSystem([SimpleType("A", 2)])
    assert duality_type(a2, (((3, 0),), ((0, 3),))) == "complex"
    a8 = RootSystem([SimpleType("A", 8)])
    pi3 = (0, 0, 1, 0, 0, 0, 0, 0)
    pi6 = (0, 0, 0, 0, 0, 1, 0, 0)
    assert duality_type(a8, ((pi3,), (pi6,))) == "complex"
    with pytest.raises(CatalogError):
        duality_type(a2, (((1, 0),),))  # not self-dual
    with pytest.raises(CatalogError):
        duality_type(a2, (((1, 0),), ((1, 0),)))  # repeated


def test_classify_reducible_un():
    for n in (3, 4, 5):
        rep = classify_reducible(unitary_group_module(n))
        assert (rep.N, rep.a, rep.l, rep.epsilon) == (6, 2, 1, 1), n
        assert rep.s == 4


def test_classify_reducible_simple_and_trivial():
    a2 = RootSystem([SimpleType("A", 2)])
    rep = classify_reducible(irrep_character(a2, (1, 1)))
    assert (rep.N, rep.a, rep.l, rep.epsilon) == (2, 1, 1, 0)
    a1 = RootSystem([SimpleType("A", 1)])
    from invconn.chars import trivial_character
    rep = classify_reducible(trivial_character(a1))
    assert (rep.N, rep.a, rep.l) == (1, 0, 0)
    with pytest.raises(UsageError):
        classify_reducible(irrep_character(a2, (1, 1)) + irrep_character(a2, (1, 1)))


def test_isotropy_from_embedding_orthogonal():
    g2 = RootSystem([SimpleType("G", 2)])
    chi = isotropy_from_embedding("orthogonal", irrep_character(g2, (1, 0)))
    assert chi.dim() == 7
    assert multiplicity(chi, (1, 0)) == 1


def test_isotropy_from_embedding_symplectic():
    a1a1 = RootSystem([SimpleType("A", 1), SimpleType("A", 1)])
    chi = isotropy_from_embedding("symplectic", irrep_character(a1a1, (2, 1)))
    assert chi.dim() == 15
    assert multiplicity(chi, (4, 2)) == 1


def test_isotropy_from_embedding_unitary():
    # The 16-dimensional half-spin embedding: the complement of the trivial
    # and adjoint modules inside pi (x) pi* is the published module.
    d5 = RootSystem([SimpleType("D", 5)])
    pi = irrep_character(d5, (0, 0, 0, 0, 1))
    chi = isotropy_from_embedding("unitary", pi)
    assert chi.dim() == 210
    assert multiplicity(chi, (0, 0, 0, 1, 1)) == 1
    # Sanity on the rule itself: pi (x) pi* of the standard su(3) module is
    # exactly trivial + adjoint, leaving an empty complement.
    a2 = RootSystem([SimpleType("A", 2)])
    std = irrep_character(a2, (1, 0))
    assert isotropy_from_embedding("unitary", std).dim() == 0
    dual = irrep_character(a2, (0, 1))
    assert sorted((tensor(std, dual) - irrep_character(a2, (1, 1))).mult.items()) == [((0, 0), 1)]


def test_isotropy_from_embedding_rejects_inconsistent():
    a2 = RootSystem([SimpleType("A", 2)])
    with pytest.raises(CatalogError):
        isotropy_from_embedding("orthogonal", irrep_character(a2, (1, 0)))
    with pytest.raises(UsageError):
        isotropy_from_embedding("hyperbolic", irrep_character(a2, (1, 0)))


@pytest.mark.parametrize("row_id", ["SU6/SU2xSU3", "SU9/SU3xSU3", "Sp3/SO3xSp1", "Sp4/SO4xSp1"])
def test_external_cross_check(row_id):
    result = external_cross_check(get_row(row_id))
    assert result["match"] is True


def test_external_cross_check_values():
    assert external_cross_check(get_row("SU6/SU2xSU3"))["direct"] == (1, 1, 1)
    assert external_cross_check(get_row("SU9/SU3xSU3"))["direct"] == (2, 2, 2)
    assert external_cross_check(get_row("Sp3/SO3xSp1"))["direct"] == (1, 0, 1)


def test_external_cross_check_builds_each_product_once(monkeypatch):
    # Per factor: chi^2, chi^3, chi * psi2 and chi * alt2, and nothing else.
    # The direct side materializes only the orbit-sum check's chi^2, which
    # calls the convolution kernel without `tensor`; the ranks tell the
    # systems apart (G2: 2, SU2: 1, G2xSU2: 3).
    ranks = []
    real = chars._convolve
    monkeypatch.setattr(chars, "_convolve",
                        lambda wa, ma, wb, mb: ranks.append(wa.shape[1]) or real(wa, ma, wb, mb))
    row = get_row("F4/G2xSU2")
    result = external_cross_check(row)
    assert result == {"direct": (1, 0, 1), "factorized": (1, 0, 1), "match": True}
    assert len(ranks) == 9 and sorted(ranks.count(r) for r in set(ranks)) == [1, 4, 4]
    assert ranks.count(3) == 1


def test_a_row_builds_each_dominant_weight_list_once_and_folds_once(monkeypatch):
    # support_estimate and the character build share the dominant weights of
    # each (factor system, lam); a simple system is its own factor, so a
    # single-factor row shares them too.  plethysm_counts folds once.
    builds, folds = [], []
    real_search, real_fold = chars._dominant_search, chars._fold
    monkeypatch.setattr(chars, "_dominant_search",
                        lambda rs, lam: builds.append((rs, lam)) or real_search(rs, lam))
    monkeypatch.setattr(chars, "_fold", lambda *args: folds.append(args) or real_fold(*args))
    for row_id, values, expected in (("F4/G2xSU2", (1, 0, 1, 1), [("A1", (4,)), ("G2", (1, 0))]),
                                     ("G2/SU3", (2, 0, 2, 2), [("A2", (0, 1)), ("A2", (1, 0))])):
        builds.clear()
        folds.clear()
        assert classify(get_row(row_id)).values() == values
        assert sorted((str(rs.factors[0]), lam) for rs, lam in builds) == expected, row_id
        assert len({id(rs) for rs, _ in builds}) == len(get_row(row_id).factors)
        assert len(folds) == 1, row_id


def test_external_cross_check_precondition():
    with pytest.raises(UsageError):
        external_cross_check(get_row("G2/SU3"))


def test_emit_tables_statuses(tmp_path):
    rows = [get_row(r) for r in ["G2/SU3", "SO7/G2", "SO248/E8"]]
    pairs = classify_catalog(rows)
    md = emit_tables(pairs, "markdown")
    assert "matched 2 / skipped 1 / mismatched 0" in md
    out = json.loads(emit_tables(pairs, "json"))
    assert [r["status"] for r in out["rows"]] == ["match", "match",
                                                  out["rows"][2]["status"]]
    assert out["rows"][2]["status"].startswith("skipped")
    assert out["rows"][0]["computed"] == {"a": 2, "s": 0, "N": 2, "l": 2,
                                          "epsilon": 0, "type": "complex"}
    csv = emit_tables(pairs, "csv")
    assert csv.splitlines()[0].startswith("space,")


def test_csv_cells_with_commas_and_quotes_round_trip():
    import csv
    import dataclasses
    row = dataclasses.replace(get_row("G2/SU3"), id='G2/SU3,"x"')
    text = emit_tables(classify_catalog([row]), "csv")
    header, cells, summary = text.splitlines()
    assert next(csv.reader([cells]))[:2] == ['G2/SU3,"x"', format_constituents(row)]
    assert summary == "# matched 1 / skipped 0 / mismatched 0"


def test_emit_tables_flags_corrupted_expected():
    import dataclasses
    row = get_row("SO7/G2")
    corrupted = dataclasses.replace(row, expected=dataclasses.replace(row.expected, a=9))
    pairs = classify_catalog([row, corrupted])
    out = json.loads(emit_tables(pairs, "json"))
    assert [r["status"] for r in out["rows"]] == ["match", "mismatch"]


def test_external_catalog_file(tmp_path):
    doc = {"version": 1, "rows": [{
        "id": "G2/SU3", "ambient": {"series": "G", "n": 2}, "factors": [["A", 2]],
        "constituents": [[[1, 0]], [[0, 1]]],
        "expected": {"a": 2, "s": 0, "N": 2, "l": 2, "type": "c"},
        "source": "table5"}]}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    rows = load_catalog(str(path))
    assert len(rows) == 1
    assert classify(rows[0]).matched_expected is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rows": [{"id": "x"}]}))
    with pytest.raises(CatalogError):
        load_catalog(str(bad))


def test_bundled_catalog_is_parsed_once(tmp_path, monkeypatch):
    parsed = []
    real = siiclass._row_from_json
    monkeypatch.setattr(siiclass, "_row_from_json", lambda rec: parsed.append(rec["id"]) or real(rec))
    siiclass._bundled_catalog.cache_clear()
    assert get_row("G2/SU3").id == "G2/SU3" and get_row("so7/g2").id == "SO7/G2"
    rows = load_catalog()
    assert sorted(parsed) == sorted(r.id for r in rows)
    rows.clear()  # each caller gets a list of its own
    assert len(load_catalog()) == len(parsed)
    # An external file is read again on every call.
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"version": 1, "rows": [
        {"id": "G2/SU3", "ambient": {"series": "G", "n": 2}, "factors": [["A", 2]],
         "constituents": [[[1, 0]], [[0, 1]]]}]}))
    parsed.clear()
    load_catalog(str(path))
    get_row("G2/SU3", str(path))
    assert parsed == ["G2/SU3", "G2/SU3"]


@pytest.mark.parametrize("constituents, message", [
    ([[[1, 0], [1]]], "2 weights for 1 factors"),
    ([[[1, 0, 0]]], "factor G2 has rank 2"),
    ([[[1, -1]]], "negative label"),
])
def test_catalog_rejects_malformed_weights(tmp_path, constituents, message):
    doc = {"version": 1, "rows": [{
        "id": "SO7/G2", "ambient": {"series": "SO", "n": 7}, "factors": [["G", 2]],
        "constituents": constituents, "source": "table5"}]}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match=f"'SO7/G2'.*{message}"):
        load_catalog(str(path))


@pytest.mark.parametrize("modules, message", [
    ({"constituents": [[[1, 0]]]}, "single constituent .* is not self-dual"),
    ({"constituents": [[[1, 1]], [[1, 1]]]}, "repeated constituent"),
    ({"constituents": [[[1, 0]], [[1, 1]]]}, "not dual to each other"),
    ({"constituents": [[[1, 0]], [[0, 1]], [[1, 1]]]}, "3 constituents"),
    ({"constituents": [[[3, 0]], [[0, 3]]], "alt_constituents": [[[3, 0]]]}, "not self-dual"),
])
def test_catalog_checks_the_module_shape(tmp_path, modules, message):
    doc = {"version": 1, "rows": [{
        "id": "SO8/SU3", "ambient": {"series": "SO", "n": 8}, "factors": [["A", 2]],
        "source": "table5", **modules}]}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match=f"'SO8/SU3'.*{message}"):
        load_catalog(str(path))


BUNDLED_ROWS = json.loads(resources.files("invconn.data").joinpath("catalog.json").read_text())["rows"]

# Small JSON values: labels and ranks stay below 13, so no mutated row asks
# for a large root system.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.sampled_from(["", "r", "c", "A", "G", "SU", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(
        ["id", "series", "n", "type", "key", "params", "a"]), inner, max_size=3),
    max_leaves=6)


def _mutate(data, node, depth=0):
    """A copy of node with one value at a random path below it replaced by
    a small JSON value, or deleted."""
    if isinstance(node, (dict, list)) and node and depth < 6 and data.draw(st.booleans()):
        out = dict(node) if isinstance(node, dict) else list(node)
        key = data.draw(st.sampled_from(sorted(out) if isinstance(out, dict) else range(len(out))))
        if data.draw(st.integers(0, 5)) == 0:
            del out[key]
        else:
            out[key] = _mutate(data, out[key], depth + 1)
        return out
    return data.draw(JSON_VALUES)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_catalog_fuzz_fails_only_with_catalog_errors(data):
    rows = data.draw(st.lists(st.sampled_from(BUNDLED_ROWS), min_size=1, max_size=2))
    doc = _mutate(data, {"version": 1, "rows": rows})
    try:
        parsed = siiclass._parse_catalog(json.dumps(doc))
    except CatalogError as exc:
        assert str(exc)
    else:
        assert all(isinstance(r.id, str) and (r.expected is None or r.expected.rep_type in ("r", "c"))
                   for r in parsed)


def test_catalog_sweep_under_the_benchmark_cap():
    # Every bundled row within |W| <= 20000 reproduces its published
    # (a, s, N, l, type); SO8/Sp2xSp1 gives the derived (0, 0, 0, 0) instead.
    budget = Budget(max_weyl_order=20_000, max_support=50_000)
    swept = 0
    for row in load_catalog():
        report = classify(row, budget)
        if row.root_system().weyl_order > budget.max_weyl_order:
            assert report.status.startswith("skipped: infeasible (Weyl order"), row.id
            continue
        exp = row.expected
        expected = ((0, 0, 0, 0, "r") if row.id in KNOWN_BAD_ROWS
                    else (exp.a, exp.s, exp.N, exp.l, exp.rep_type))
        assert (*report.values(), report.rep_type[0]) == expected, row.id
        assert report.matched_expected is (row.id not in KNOWN_BAD_ROWS), row.id
        swept += 1
    assert swept == 44


def test_format_constituents():
    assert format_constituents(get_row("G2/SU3")) == "R(pi1) + R(pi2)"
    assert format_constituents(get_row("Sp3/SO3xSp1")) == "R(4pi1)(x)R(2pi1)"


def test_sp16_spin12_candidates_agree():
    row = get_row("Sp16/Spin12")
    assert row.alt_constituents is not None
    # The full classification is exercised in the slow catalog sweep; here
    # check the two candidate modules have equal dimension and are both
    # self-dual, which is what the diagram symmetry requires.
    rs = row.root_system()
    d1 = sum(rs.weyl_dimension(rs.join(sm)) for sm in row.constituents)
    d2 = sum(rs.weyl_dimension(rs.join(sm)) for sm in row.alt_constituents)
    assert d1 == d2 == 462
    assert duality_type(rs, row.constituents) == duality_type(rs, row.alt_constituents) == "real"


# -- the Brauer-Klimyk engine against paths that do not share its folds -------

FORMERLY_SKIPPED = ("SO248/E8", "SO128/Spin16", "SO133/E7", "Sp28/E7")


def test_catalog_sweep_without_a_budget():
    # Every bundled row, the four that the default budget skips included,
    # reproduces its published values; SO8/Sp2xSp1 gives (0, 0, 0, 0).
    reports = {row.id: (row, classify(row, Budget.unlimited())) for row in load_catalog()}
    assert len(reports) == 54
    for row_id, (row, rep) in reports.items():
        exp = row.expected
        assert rep.status == "ok", row_id
        if row_id in KNOWN_BAD_ROWS:
            assert rep.values() == (0, 0, 0, 0) and rep.matched_expected is False
        else:
            assert rep.values() == (exp.a, exp.s, exp.N, exp.l), row_id
            assert rep.matched_expected is True, row_id
    for row_id in FORMERLY_SKIPPED:
        assert classify(get_row(row_id)).status.startswith("skipped: infeasible")
        exp = reports[row_id][0].expected
        assert (*reports[row_id][1].values(), reports[row_id][1].rep_type[0]) == (
            exp.a, exp.s, exp.N, exp.l, exp.rep_type)


def _both_engines(rs, constituents):
    chi = module_character(rs, constituents)
    hws = [rs.join(sm) for sm in constituents]
    return chars.plethysm_counts(chi, hws), siiclass._orbit_counts(chi, hws)


def test_folds_equal_the_orbit_sums_under_the_benchmark_cap():
    checked = 0
    for row in load_catalog():
        rs = row.root_system()
        if rs.weyl_order > 20_000:
            continue
        for module in filter(None, (row.constituents, row.alt_constituents)):
            folds, orbit = _both_engines(rs, module)
            assert folds == orbit, row.id
            checked += 1
    assert checked >= 44


SMALL_SYSTEMS = [RootSystem([SimpleType(*f) for f in fs]) for fs in (
    [("A", 1)], [("A", 2)], [("A", 3)], [("B", 2)], [("B", 3)], [("C", 3)], [("G", 2)],
    [("A", 1), ("A", 1)], [("A", 1), ("A", 2)], [("A", 1), ("B", 2)],
    [("A", 1), ("A", 1), ("A", 1)])]


@st.composite
def _small_module(draw):
    """One self-dual irreducible or a dual pair lam + lam*, of rank <= 3."""
    rs = draw(st.sampled_from(SMALL_SYSTEMS))
    lam = draw(st.tuples(*[st.integers(0, 2)] * rs.rank).filter(lambda w: sum(w) <= 3))
    dual = rs.dual_weight(lam)
    return rs, [lam] if dual == lam else [lam, dual]


@settings(max_examples=100, deadline=None)
@given(_small_module())
def test_folds_equal_the_orbit_sums_on_random_modules(module):
    rs, hws = module
    chi = chars.expand(rs, [(lam, 1) for lam in hws])
    folds = chars.plethysm_counts(chi, hws)
    assert folds == siiclass._orbit_counts(chi, hws), (rs, hws)
    assert min(folds) >= 0


def test_folds_equal_the_orbit_sums_on_modules_that_are_not_self_dual():
    # The cube's trivial part pairs each lam_j with its dual; on a module
    # closed under duality the two sums coincide, here they do not.
    a2, a3 = SMALL_SYSTEMS[1], SMALL_SYSTEMS[2]
    for rs, hws in ((a2, [(1, 0)]), (a2, [(0, 0), (3, 0)]), (a2, [(1, 0), (1, 1)]),
                    (a3, [(1, 0, 0), (0, 1, 0)]), (a3, [(2, 0, 0), (0, 1, 1)])):
        chi = chars.expand(rs, [(lam, 1) for lam in hws])
        assert chars.plethysm_counts(chi, hws) == siiclass._orbit_counts(chi, hws), hws


def test_folds_on_python_ints_give_the_same_counts(monkeypatch):
    rows = [get_row(r) for r in ("G2/SU3", "SO8/SU3", "SU9/SU3xSU3", "F4/G2xSU2", "SO21/SO7")]
    modules = [(row.root_system(), row.constituents) for row in rows]
    expected = [_both_engines(rs, module)[0] for rs, module in modules]
    dtypes = set()
    real = chars._fold

    def recording(rs, stack, values, *groups):
        dtypes.add((stack.dtype, values.dtype))
        return real(rs, stack, values, *groups)

    monkeypatch.setattr(chars, "_fold", recording)
    monkeypatch.setattr(chars, "_fold_dtype", lambda rs, weights: object)
    monkeypatch.setattr(chars, "value_dtype", lambda bound: object)
    got = [chars.plethysm_counts(module_character(rs, module), [rs.join(sm) for sm in module])
           for rs, module in modules]
    assert got == expected and dtypes == {(np.dtype(object), np.dtype(object))}


def test_a_perturbed_fold_fails_classify(monkeypatch):
    # The square's stack is the one with a block (1, lam).  A change that
    # keeps every division exact is caught by the orbit-sum check, one that
    # does not by the division.
    real = chars._fold_shifted

    def perturbed(shift):
        def fold(rs, weights, mults, *stacks):
            out = real(rs, weights, mults, *stacks)
            return [{lam: m + shift for lam, m in sums.items()} if blocks[0][0] == 1 else sums
                    for sums, (blocks, _) in zip(out, stacks)]
        return fold

    row = get_row("G2/SU3")
    assert classify(row).values() == (2, 0, 2, 2)
    monkeypatch.setattr(chars, "_fold_shifted", perturbed(6))
    with pytest.raises(AssertionError, match="Weyl-orbit counts"):
        classify(row)
    monkeypatch.setattr(chars, "_fold_shifted", perturbed(1))
    with pytest.raises(InternalError, match="not divisible by 2"):
        classify(row)


def test_orbit_sums_run_only_on_small_weyl_groups(monkeypatch):
    def refuse(chi, hws):
        raise AssertionError("orbit sum on a large Weyl group")
    monkeypatch.setattr(siiclass, "_orbit_counts", refuse)
    big = get_row("SO36/SO9")  # |W(B4)| = 384
    assert big.root_system().weyl_order > siiclass.ORBIT_CHECK_MAX_WEYL
    assert classify(big).matched_expected is True
    with pytest.raises(AssertionError, match="orbit sum"):
        classify(get_row("G2/SU3"))  # |W(A2)| = 6


# Upper parameters of the family sweep.  Every member from each family's
# lowest parameter up to these matches its published values, except SO_4n
# at n = 2 (SO8/Sp2xSp1).
FAMILY_SWEEP = {"SU_alt2": 14, "SU_sym2": 13, "SO_ad": 12, "SO_alt2": 20, "SO_sym2": 19,
                "SO_spalt": 10, "SO_spsym": 10, "Sp_n": 24, "SO_4n": 10, "SU_2q": 12}


def _members(key, top):
    """Every member of a one-parameter family up to `top`."""
    out = []
    for n in range(2, top + 1):
        try:
            out.append(family(key, **{"q" if key == "SU_2q" else "n": n}))
        except RangeError:
            pass
    return out


def test_family_sweep_beyond_the_benchmark_pool():
    members = [m for key, top in FAMILY_SWEEP.items() for m in _members(key, top)]
    members += [family("SU_pq", p=p, q=q) for p in range(3, 7) for q in range(p, 7)]
    assert len({m.family for m in members}) == 11
    for member in members:
        rep = classify(member, Budget.unlimited())
        exp = member.expected
        if (member.family, member.params) == ("SO_4n", (("n", 2),)):
            assert rep.values() == (0, 0, 0, 0), member.id
            continue
        assert (*rep.values(), rep.rep_type[0]) == (exp.a, exp.s, exp.N, exp.l, exp.rep_type), \
            member.id
