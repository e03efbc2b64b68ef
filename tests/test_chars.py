import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invconn import chars
from invconn.chars import (Character, PlethysmOps, UsageError, adams, alt2, alt3,
                           decompose, expand, expression_character, irrep_character,
                           multiplicity, plethysm21, sym2, sym3, tensor,
                           trivial_character)
from invconn.rootsys import PreconditionError, RootSystem, SimpleType


@pytest.fixture(scope="module")
def a1():
    return RootSystem([SimpleType("A", 1)])


@pytest.fixture(scope="module")
def a2():
    return RootSystem([SimpleType("A", 2)])


def test_irrep_character_examples(a1, a2):
    assert irrep_character(a1, (2,)).mult == {(2,): 1, (0,): 1, (-2,): 1}
    ad = irrep_character(a2, (1, 1))
    assert ad.dim() == 8 and ad[(0, 0)] == 2
    g2 = RootSystem([SimpleType("G", 2)])
    chi = irrep_character(g2, (0, 1))
    assert chi.dim() == g2.weyl_dimension((0, 1)) == 14
    assert chi[(0, 0)] == 2
    with pytest.raises(PreconditionError):
        irrep_character(a2, (1, -1))


def test_sl3_adjoint_against_explicit_root_system(a2):
    # Brute-force construction: the adjoint weights are the six roots plus a
    # double zero weight.
    roots = set(a2.pos_roots) | {tuple(-x for x in r) for r in a2.pos_roots}
    expected = {r: 1 for r in roots}
    expected[(0, 0)] = 2
    assert irrep_character(a2, (1, 1)).mult == expected


def test_weyl_invariance_spot_checks(a2):
    chi = irrep_character(a2, (2, 1))
    rnd = random.Random(0)
    weights = list(chi.mult)
    for _ in range(25):
        w = rnd.choice(weights)
        dom = a2.to_dominant(w)[0]
        assert chi[w] == chi[dom]


def test_tensor_examples(a1, a2):
    v = irrep_character(a1, (1,))
    assert decompose(tensor(v, v)) == [((2,), 1), ((0,), 1)]
    ad = irrep_character(a2, (1, 1))
    sq = tensor(ad, ad)
    assert sq.dim() == 64
    assert multiplicity(sq, (1, 1)) == 2
    w = irrep_character(a1, (2,))
    assert decompose(tensor(w, w)) == [((4,), 1), ((2,), 1), ((0,), 1)]
    b2 = RootSystem([SimpleType("B", 2)])
    with pytest.raises(UsageError):
        tensor(v, irrep_character(b2, (1, 0)))


def test_adams_examples(a1, a2):
    v = irrep_character(a1, (1,))
    assert adams(v, 2).mult == {(2,): 1, (-2,): 1}
    assert adams(v, 1) is v
    ad = irrep_character(a2, (1, 1))
    tripled = adams(ad, 3)
    assert tripled.dim() == 8
    assert all(tripled[tuple(3 * x for x in w)] == m for w, m in ad.mult.items())


def test_alt2_sym2_examples(a1, a2):
    ad = irrep_character(a2, (1, 1))
    assert sorted(decompose(alt2(ad))) == sorted([((3, 0), 1), ((0, 3), 1), ((1, 1), 1)])
    assert sorted(decompose(sym2(ad))) == sorted([((2, 2), 1), ((1, 1), 1), ((0, 0), 1)])
    v = irrep_character(a1, (1,))
    assert decompose(alt2(v)) == [((0,), 1)]
    assert decompose(sym2(v)) == [((2,), 1)]


def test_square_dimensions_random():
    rnd = random.Random(1)
    systems = [RootSystem([SimpleType("A", 2)]), RootSystem([SimpleType("B", 2)]),
               RootSystem([SimpleType("A", 1), SimpleType("A", 1)])]
    for rs in systems:
        for _ in range(5):
            lam = tuple(rnd.randint(0, 2) for _ in range(rs.rank))
            chi = irrep_character(rs, lam)
            d = chi.dim()
            assert alt2(chi).dim() == d * (d - 1) // 2
            assert sym2(chi).dim() == d * (d + 1) // 2
            assert alt3(chi).dim() == d * (d - 1) * (d - 2) // 6
            assert sym3(chi).dim() == d * (d + 1) * (d + 2) // 6


def test_alt3_sym3_examples(a1, a2):
    w = irrep_character(a1, (2,))
    assert decompose(alt3(w)) == [((0,), 1)]
    ad = irrep_character(a2, (1, 1))
    assert multiplicity(alt3(ad), (0, 0)) == 1
    v = irrep_character(a1, (1,))
    assert decompose(sym3(v)) == [((3,), 1)]


def test_sym3_brute_force_oracle(a1):
    # Unordered triples of weights of the 2-dimensional module.
    import itertools
    v = irrep_character(a1, (1,))
    weights = [w for w, m in v.mult.items() for _ in range(m)]
    counts = {}
    for combo in itertools.combinations_with_replacement(range(len(weights)), 3):
        tot = tuple(sum(weights[i][k] for i in combo) for k in range(1))
        counts[tot] = counts.get(tot, 0) + 1
    assert sym3(v).mult == counts


def test_multiplicity_examples(a1, a2):
    assert multiplicity(alt2(irrep_character(a1, (2,))), (2,)) == 1
    assert multiplicity(sym2(irrep_character(a1, (1,))), (0,)) == 0
    a4 = RootSystem([SimpleType("A", 4)])
    al = alt2(irrep_character(a4, (1, 0, 0, 1)))
    assert multiplicity(al, (2, 0, 1, 0)) == 1


def test_decompose_round_trip_examples(a1, a2):
    v = irrep_character(a1, (1,))
    assert decompose(tensor(v, v)) == [((2,), 1), ((0,), 1)]
    terms = [((2, 0), 2), ((0, 1), 1), ((1, 1), 3)]
    chi = expand(a2, terms)
    assert sorted(decompose(chi)) == sorted(terms)
    bad = chi - irrep_character(a2, (3, 3))
    with pytest.raises(UsageError):
        decompose(bad)


def test_mult_point_matches_materialized(a2):
    ad = irrep_character(a2, (1, 1))
    ops = PlethysmOps(ad)
    a2_ad, s2_ad, a3_ad = alt2(ad), sym2(ad), alt3(ad)
    chi_a2 = tensor(ad, a2_ad)
    probe = {lam for chi in (a2_ad, s2_ad, a3_ad, chi_a2) for lam in chi.mult
             if a2.is_dominant(lam)}
    probe.add((7, 7))  # off-support
    for lam in probe:
        assert ops.mult_in_alt2_sym2(lam) == (multiplicity(a2_ad, lam),
                                              multiplicity(s2_ad, lam)), lam
        assert ops.mult_in_alt3_chi_alt2(lam) == (multiplicity(a3_ad, lam),
                                                  multiplicity(chi_a2, lam)), lam


def test_mult_point_examples(a1, a2):
    v = irrep_character(a1, (1,))
    assert PlethysmOps(v).mult_in_alt2_sym2((0,)) == (1, 0)
    ad = irrep_character(a2, (1, 1))
    ops = PlethysmOps(ad)
    assert ops.mult_in_alt2_sym2((2, 2)) == (0, 1)
    assert ops.mult_in_alt2_sym2((1, 1)) == (multiplicity(alt2(ad), (1, 1)), 1) == (1, 1)
    assert ops.mult_in_alt3_chi_alt2((0, 0)) == (1, 1)
    for extract in (lambda lam: multiplicity(ad, lam), ops.mult_in_alt2_sym2,
                    ops.mult_in_alt3_chi_alt2):
        with pytest.raises(PreconditionError, match=r"weight \(-1, 2\) is not dominant"):
            extract((-1, 2))


def test_cube_queries_equal_the_materialized_products(a2):
    ad = irrep_character(a2, (1, 1)) + irrep_character(a2, (1, 0))
    ops = PlethysmOps(ad)
    cube, mixed = tensor(tensor(ad, ad), ad), tensor(ad, adams(ad, 2))
    probe = sorted(set(cube.mult) | set(mixed.mult) | {(7, 7), (-9, 2)})  # two off-support
    stack = np.array(probe)
    assert ops.cube_at(stack).tolist() == [cube[nu] for nu in probe]
    assert ops.chi_psi2_at(stack).tolist() == [mixed[nu] for nu in probe]


@pytest.mark.parametrize("table,method,divisor", [("_p2", "mult_in_alt2_sym2", 2),
                                                  ("_p3", "mult_in_alt3_chi_alt2", 6)])
def test_corrupted_tables_fail_the_integrality_checks(a2, table, method, divisor):
    ops = PlethysmOps(irrep_character(a2, (1, 1)))
    corrupted = getattr(ops, table)
    zero = np.flatnonzero((corrupted.weights == 0).all(1))[0]  # on every orbit of rho
    corrupted.values[zero] += 1
    with pytest.raises(chars.InternalError, match=f"not divisible by {divisor}"):
        getattr(ops, method)((0, 0))


def test_each_cube_multiplicity_makes_two_point_queries(a2, monkeypatch):
    calls = []
    for name in ("cube_at", "chi_psi2_at"):
        def counted(self, nus, _name=name, _method=getattr(PlethysmOps, name)):
            calls.append(_name)
            return _method(self, nus)
        monkeypatch.setattr(PlethysmOps, name, counted)
    ops = PlethysmOps(irrep_character(a2, (1, 1)))
    for lam in [(0, 0), (1, 1), (3, 0)]:
        ops.mult_in_alt2_sym2(lam)
    assert calls == []
    ops.mult_in_alt3_chi_alt2((0, 0))
    assert sorted(calls) == ["chi_psi2_at", "cube_at"]


def test_virtual_characters_allowed_in_arithmetic(a2):
    ad = irrep_character(a2, (1, 1))
    virt = ad - irrep_character(a2, (2, 2))
    assert not virt.is_genuine()
    with pytest.raises(UsageError):
        PlethysmOps(virt)


def _random_genuine_character(rs, rnd, max_terms=3, max_label=2):
    terms = []
    for _ in range(rnd.randint(1, max_terms)):
        lam = tuple(rnd.randint(0, max_label) for _ in range(rs.rank))
        terms.append((lam, rnd.randint(1, 2)))
    merged = {}
    for lam, m in terms:
        merged[lam] = merged.get(lam, 0) + m
    return expand(rs, merged.items()), merged


SMALL_SYSTEMS = [
    [("A", 1)], [("A", 2)], [("A", 3)], [("B", 2)], [("C", 3)], [("G", 2)],
    [("A", 1), ("A", 2)], [("A", 1), ("A", 1), ("A", 1)], [("B", 2), ("A", 1)],
    [("D", 4)],
]


def test_decompose_and_klimyk_agree_on_random_characters():
    rnd = random.Random(42)
    count = 0
    while count < 50:
        rs = RootSystem([SimpleType(*f) for f in SMALL_SYSTEMS[count % len(SMALL_SYSTEMS)]])
        chi, merged = _random_genuine_character(rs, rnd)
        got = dict(decompose(chi))
        assert got == merged
        for lam in merged:
            assert multiplicity(chi, lam) == merged[lam]
        assert multiplicity(chi, (3,) * rs.rank) == got.get((3,) * rs.rank, 0)
        count += 1


def test_binomial_identity_on_sums():
    # alt2(x + y) = alt2 x + x*y + alt2 y, and the symmetric analogue.
    rnd = random.Random(9)
    for _ in range(10):
        rs = RootSystem([SimpleType(*f) for f in SMALL_SYSTEMS[rnd.randrange(len(SMALL_SYSTEMS))]])
        x = irrep_character(rs, tuple(rnd.randint(0, 2) for _ in range(rs.rank)))
        y = irrep_character(rs, tuple(rnd.randint(0, 2) for _ in range(rs.rank)))
        s = x + y
        assert alt2(s) == alt2(x) + tensor(x, y) + alt2(y)
        assert sym2(s) == sym2(x) + tensor(x, y) + sym2(y)


def test_expression_character_dispatch(a1):
    v = irrep_character(a1, (1,))
    assert expression_character("tensor", v).mult == tensor(v, v).mult
    assert expression_character("plethysm21", v).mult == plethysm21(v).mult
    with pytest.raises(UsageError):
        expression_character("nope", v)


def test_trivial_character(a2):
    one = trivial_character(a2)
    assert one.dim() == 1
    ad = irrep_character(a2, (1, 1))
    assert tensor(one, ad) == ad


HYPOTHESIS_SYSTEMS = [RootSystem([SimpleType(*f) for f in fs]) for fs in SMALL_SYSTEMS]


@st.composite
def _systems_and_terms(draw):
    rs = draw(st.sampled_from(HYPOTHESIS_SYSTEMS))
    label = st.integers(min_value=0, max_value=2 if rs.rank <= 3 else 1)
    lam = st.tuples(*[label] * rs.rank)
    terms = draw(st.dictionaries(lam, st.integers(min_value=1, max_value=3),
                                 min_size=1, max_size=3))
    return rs, terms


@settings(max_examples=100, deadline=None)
@given(_systems_and_terms())
def test_racah_speiser_inverts_expand_and_matches_orbit_sum(case):
    rs, terms = case
    chi = expand(rs, terms.items())
    expected = sorted(terms.items(), key=lambda t: (-rs.height(t[0]), t[0]))
    assert decompose(chi) == expected
    for lam in list(terms) + [(1,) * rs.rank]:
        assert multiplicity(chi, lam) == terms.get(lam, 0)


def test_decompose_rejects_non_invariant_characters(a2):
    with pytest.raises(UsageError, match="not Weyl-invariant"):
        decompose(Character(a2, {(1, 0): 1}))
    chi = irrep_character(a2, (1, 1))
    with pytest.raises(UsageError, match="not Weyl-invariant"):
        decompose(chi + Character(a2, {(-1, 2): 1}))


def test_irrep_character_rejects_wrong_length(a2):
    with pytest.raises(PreconditionError, match="rank 2"):
        irrep_character(a2, (1, 0, 0))


# -- the convolution kernel behind `tensor`, against the pure-Python loop ------

KERNEL_SYSTEMS = [RootSystem([SimpleType(*f) for f in fs])
                  for fs in ([("A", 1)], [("A", 2)], [("B", 2)], [("G", 2)], [("A", 1), ("A", 2)])]


@st.composite
def _kernel_character(draw, rs):
    """A genuine character (a sum of irreducibles) or a virtual weight map."""
    if draw(st.booleans()):
        lam = st.tuples(*[st.integers(min_value=0, max_value=2)] * rs.rank)
        terms = draw(st.dictionaries(lam, st.integers(min_value=1, max_value=3),
                                     min_size=1, max_size=2))
        return expand(rs, terms.items())
    weight = st.tuples(*[st.integers(min_value=-6, max_value=6)] * rs.rank)
    return Character(rs, draw(st.dictionaries(weight, st.integers(min_value=-5, max_value=5),
                                              max_size=12)))


@st.composite
def _kernel_pairs(draw):
    rs = draw(st.sampled_from(KERNEL_SYSTEMS))
    return draw(_kernel_character(rs)), draw(_kernel_character(rs))


@settings(max_examples=150, deadline=None)
@given(_kernel_pairs())
def test_tensor_matches_reference_loop(tensor_reference, pair):
    a, b = pair
    assert tensor(a, b).mult == tensor_reference(a, b).mult


def test_tensor_edge_cases(a2):
    empty = Character(a2, {})
    ad = irrep_character(a2, (1, 1))
    assert tensor(empty, ad) == tensor(ad, empty) == tensor(empty, empty) == empty
    cancelling = Character(a2, {(1, 0): 1, (0, 1): 1})
    # (1, 0) + (0, 0) and (0, 1) + (1, -1) cancel: no zero entry is kept.
    assert tensor(cancelling, Character(a2, {(0, 0): 1, (1, -1): -1})).mult == {
        (2, -1): -1, (0, 1): 1}
    with pytest.raises(UsageError, match="different root systems"):
        tensor(ad, irrep_character(RootSystem([SimpleType("A", 2)]), (1, 1)))


def _spread_character(rs, rnd, size, radius, mult):
    return Character(rs, {tuple(rnd.randint(-radius, radius) for _ in range(rs.rank)):
                          rnd.choice([-1, 1]) * rnd.randint(1, mult) for _ in range(size)})


def test_tensor_sort_branch(tensor_reference, monkeypatch):
    # Weights spread over a box of 161^3 > 2^17 entries, so the sums are
    # accumulated by sorting codes, not in a dense array.
    calls = []
    real = chars._sum_by_code
    monkeypatch.setattr(chars, "_sum_by_code", lambda c, v: calls.append(len(c)) or real(c, v))
    rs = KERNEL_SYSTEMS[-1]
    rnd = random.Random(5)
    for _ in range(5):
        a, b = (_spread_character(rs, rnd, 150, 40, 9) for _ in range(2))
        assert tensor(a, b).mult == tensor_reference(a, b).mult
    assert calls
    chi = irrep_character(rs, (2, 1, 1))
    assert tensor(chi, chi + chi) == tensor_reference(chi, chi + chi)


def test_tensor_dense_branch_above_the_fixed_cap(tensor_reference, monkeypatch):
    # More weight pairs than box entries, in a box over 2^17: the sums go into
    # a dense array, which is then smaller than the sort branch's arrays.
    monkeypatch.setattr(chars, "_sum_by_code", lambda c, v: pytest.fail("sort branch used"))
    a1 = KERNEL_SYSTEMS[0]
    rnd = random.Random(6)
    a, b = (_spread_character(a1, rnd, 500, 40_000, 9) for _ in range(2))
    xa, xb = ([x for (x,) in c.mult] for c in (a, b))
    box = max(xa) - min(xa) + max(xb) - min(xb) + 1
    assert 2 ** 17 < box < len(a.mult) * len(b.mult)
    assert tensor(a, b) == tensor_reference(a, b)


def test_tensor_int64_guards(tensor_reference, a2):
    rnd = random.Random(8)
    # Multiplicities near 2^40: products and sums are far beyond int64.
    a, b = (_spread_character(a2, rnd, 6, 3, 2 ** 40) for _ in range(2))
    assert sum(map(abs, a.mult.values())) * sum(map(abs, b.mult.values())) >= 2 ** 62
    assert tensor(a, b) == tensor_reference(a, b)
    # Weights spread so that the radix product is over 2^63.
    spread = _spread_character(a2, rnd, 8, 2 ** 33, 3)
    assert tensor(spread, spread) == tensor_reference(spread, spread)
    # Both at once, and coordinates that do not fit into int64 at all.
    huge = Character(a2, {(2 ** 70, 0): 2 ** 41, (0, -2 ** 65): -(2 ** 41), (1, 1): 3})
    assert tensor(huge, huge) == tensor_reference(huge, huge)
    assert tensor(huge, a) == tensor_reference(huge, a)
    far = Character(a2, {(2 ** 70, -2 ** 70): 3, (2 ** 70 + 1, -2 ** 70): -1})
    assert tensor(far, far) == tensor_reference(far, far)  # a dense box of huge weights


# -- the batched Weyl-orbit sum, against the per-point loop ----------------------

ORBIT_SYSTEMS = [RootSystem([SimpleType(*f) for f in fs])
                 for fs in ([("A", 1)], [("A", 2)], [("B", 2)], [("G", 2)],
                            [("A", 1), ("A", 2)], [("A", 1), ("G", 2)])]


@st.composite
def _orbit_cases(draw):
    """A random genuine character and dominant weights to extract, 0 first."""
    rs = draw(st.sampled_from(ORBIT_SYSTEMS))
    label = st.integers(min_value=0, max_value=2)
    terms = draw(st.dictionaries(st.tuples(*[label] * rs.rank), st.integers(min_value=1, max_value=3),
                                 min_size=1, max_size=2))
    lams = draw(st.lists(st.tuples(*[st.integers(min_value=0, max_value=4)] * rs.rank),
                         min_size=1, max_size=3))
    return expand(rs, terms.items()), [(0,) * rs.rank] + lams


def _assert_orbit_sums(reference, chi, lams):
    ops = PlethysmOps(chi)
    for lam in lams:
        assert multiplicity(chi, lam) == reference(chi, lam, "chi"), lam
        assert ops.mult_in_alt2_sym2(lam) == (reference(chi, lam, "alt2"),
                                              reference(chi, lam, "sym2")), lam
        assert ops.mult_in_alt3_chi_alt2(lam) == (reference(chi, lam, "alt3"),
                                                  reference(chi, lam, "chi_alt2")), lam


@settings(max_examples=60, deadline=None)
@given(_orbit_cases())
def test_orbit_sums_match_reference_loop(orbit_sum_reference, case):
    _assert_orbit_sums(orbit_sum_reference, *case)


def test_orbit_sum_int64_guards(orbit_sum_reference, a2):
    # Multiplicities near 2^40: 6 dim^3 is far beyond 2^62, so point values
    # and their orbit sums run on Python ints.
    big = expand(a2, [((1, 1), 2 ** 40 + 1), ((3, 0), 2 ** 40 - 3), ((0, 0), 5)])
    assert 6 * big.dim() ** 3 >= 2 ** 62
    _assert_orbit_sums(orbit_sum_reference, big, [(0, 0), (1, 1), (3, 0), (2, 2)])
    beyond = Character(a2, {w: 2 ** 70 * m for w, m in big.mult.items()})
    assert multiplicity(beyond, (1, 1)) == orbit_sum_reference(beyond, (1, 1), "chi")

    # Weights spread so that the coding box has over 2^62 entries: a genuine
    # character on the orbit of lam + rho, plus the adjoint.
    ad = irrep_character(a2, (1, 1))
    for lam in [(2 ** 33, 2 ** 34), (2 ** 70, 2 ** 70 + 1)]:  # the second beyond int64
        orbit = a2.signed_orbit((lam[0] + 1, lam[1] + 1))
        assert (orbit.points.dtype == object) == (lam[0] >= 2 ** 63)
        far = Character(a2, {(x - 1, y - 1): 3 for x, y in orbit.points.tolist()}) + ad
        _assert_orbit_sums(orbit_sum_reference, far, [(0, 0), (1, 1), lam])


# -- the batched Racah-Speiser fold, against the orbit sum and the per-weight loop --

DECOMPOSE_SYSTEMS = KERNEL_SYSTEMS  # A1, A2, B2, G2 and A1xA2


@st.composite
def _genuine_characters(draw):
    """A sum of irreducibles, or its product with an irreducible, or its
    exterior or symmetric square."""
    rs = draw(st.sampled_from(DECOMPOSE_SYSTEMS))
    lam = st.tuples(*[st.integers(min_value=0, max_value=2)] * rs.rank)
    terms = draw(st.dictionaries(lam, st.integers(min_value=1, max_value=3),
                                 min_size=1, max_size=2))
    chi = expand(rs, terms.items())
    how = draw(st.sampled_from(["sum", "tensor", "alt2", "sym2"]))
    if how == "tensor":
        return tensor(chi, irrep_character(rs, draw(lam)))
    return {"sum": chi, "alt2": alt2(chi), "sym2": sym2(chi)}[how]


@settings(max_examples=80, deadline=None)
@given(_genuine_characters())
def test_decompose_matches_orbit_sum_and_reference_loop(decompose_reference, chi):
    terms = decompose(chi)
    assert terms == decompose_reference(chi)
    found = dict(terms)
    # The orbit sum is a different algorithm: it agrees on every term and
    # finds nothing at the other dominant weights of the support.
    for lam in set(found) | {w for w in chi.mult if chi.rs.is_dominant(w)}:
        assert multiplicity(chi, lam) == found.get(lam, 0), lam


def _outcome(fn, chi):
    try:
        return fn(chi)
    except UsageError as exc:
        return f"UsageError: {exc}"


@st.composite
def _weight_maps(draw):
    """Weyl-invariant maps with coefficients of both signs, genuine
    characters with a few entries changed, and arbitrary weight maps."""
    rs = draw(st.sampled_from(DECOMPOSE_SYSTEMS))
    weight = st.tuples(*[st.integers(min_value=-3, max_value=3)] * rs.rank)
    coeff = st.integers(min_value=-3, max_value=3)
    kind = draw(st.sampled_from(["orbits", "perturbed", "any"]))
    if kind == "orbits":
        mult = {}
        for w, c in draw(st.dictionaries(weight, coeff, max_size=3)).items():
            for v in rs.weyl_orbit(rs.to_dominant(w)[0]):
                mult[v] = mult.get(v, 0) + c
        return Character(rs, mult)
    noise = Character(rs, draw(st.dictionaries(weight, coeff, max_size=4)))
    if kind == "perturbed":
        return irrep_character(rs, (1,) * rs.rank) + noise
    return noise


@settings(max_examples=150, deadline=None)
@given(_weight_maps())
def test_decompose_results_and_errors_match_reference_loop(decompose_reference, chi):
    assert _outcome(decompose, chi) == _outcome(decompose_reference, chi)


def test_decompose_error_messages(a2):
    # (-1, 1) is the first weight, in the character's order, whose
    # reflection s_2 = (0, -1) carries another multiplicity.
    chi = Character(a2, {(0, 0): 1, (1, 0): 2, (-1, 1): 2, (0, -1): 1})
    with pytest.raises(UsageError) as exc:
        decompose(chi)
    assert str(exc.value) == ("character is not Weyl-invariant: weight (-1, 1) and its "
                              "reflection s_2 have different multiplicities")
    virtual = irrep_character(a2, (1, 1)) - Character(a2, {(0, 0): 3})
    with pytest.raises(UsageError) as exc:
        decompose(virtual)
    assert str(exc.value) == "not a genuine character: negative multiplicity of an irreducible"
    assert decompose(Character(a2, {})) == []
    assert decompose(irrep_character(a2, (1, 0)) - irrep_character(a2, (1, 0))) == []


def test_decompose_sorts_equal_heights_lexicographically(a2):
    # In A2 the height of (a, b) is a + b.
    chi = expand(a2, [((2, 0), 1), ((1, 1), 2), ((0, 2), 3), ((0, 0), 1), ((3, 0), 1)])
    assert decompose(chi) == [((3, 0), 1), ((0, 2), 3), ((1, 1), 2), ((2, 0), 1), ((0, 0), 1)]
    a1a2 = KERNEL_SYSTEMS[-1]
    chi = expand(a1a2, [((0, 1, 1), 1), ((2, 0, 0), 1), ((1, 1, 0), 1), ((0, 0, 0), 1)])
    # Heights 2, 1, 1.5 and 0: the A1 label counts 1/2.
    assert [lam for lam, _ in decompose(chi)] == [(0, 1, 1), (1, 1, 0), (2, 0, 0), (0, 0, 0)]


def test_fold_matches_to_dominant_on_either_dtype():
    rnd = random.Random(12)
    for rs in DECOMPOSE_SYSTEMS + [RootSystem([SimpleType("F", 4)])]:
        for scale in (5, 2 ** 59, 2 ** 70):
            rows = [tuple(rnd.randint(-scale, scale) for _ in range(rs.rank)) for _ in range(60)]
            rows += [(0,) * rs.rank, (-1,) * rs.rank, (-scale,) + (1,) * (rs.rank - 1)]
            weights = chars._weight_array(rows, rs.rank)
            dtype = chars._fold_dtype(rs, weights)
            assert (dtype == object) == (scale > 5)
            tops, signs = chars._fold_to_dominant(rs, weights.astype(dtype))
            for row, top, sign in zip(rows, tops.tolist(), signs.tolist()):
                expected_top, expected_sign = rs.to_dominant(row)
                assert sign == expected_sign, (rs, row)
                if sign:
                    assert tuple(top) == expected_top, (rs, row)


def test_orbit_label_factor_bounds_every_orbit():
    rnd = random.Random(13)
    for rs in DECOMPOSE_SYSTEMS + [RootSystem([SimpleType(*f)]) for f in
                                   (("B", 3), ("C", 3), ("F", 4), ("D", 4))]:
        for _ in range(10):
            w = tuple(rnd.randint(-4, 4) for _ in range(rs.rank))
            top = max(map(abs, w))
            assert all(abs(x) <= rs._orbit_label_factor * top
                       for v in rs.weyl_orbit(w) for x in v), (rs, w)


def test_decompose_int64_guards(decompose_reference, a2, monkeypatch):
    # Multiplicities whose sum is beyond 2^62 are summed as Python ints.
    big = expand(a2, [((1, 1), 2 ** 70 + 1), ((3, 0), 2 ** 63), ((0, 0), 5)])
    assert decompose(big) == decompose_reference(big) == [
        ((3, 0), 2 ** 63), ((1, 1), 2 ** 70 + 1), ((0, 0), 5)]
    # Labels beyond 2^61, and beyond int64: Weyl-invariant maps whose orbits
    # of huge weights leave negative terms, plus a broken copy of one.
    ad = irrep_character(a2, (1, 1))
    for lam in [(2 ** 61, 3), (2 ** 70, 2 ** 65)]:
        orbit = Character(a2, {w: 2 for w in a2.weyl_orbit(lam)})
        for chi in (orbit + ad, orbit + orbit + ad,
                    orbit + Character(a2, {(lam[0], lam[1]): 1})):
            assert _outcome(decompose, chi) == _outcome(decompose_reference, chi)
    # The Python-int path on ordinary characters: the same terms.
    monkeypatch.setattr(chars, "_fold_dtype", lambda rs, weights: object)
    monkeypatch.setattr(chars, "_value_dtype", lambda bound: object)
    for rs in DECOMPOSE_SYSTEMS:
        chi = sym2(irrep_character(rs, (1,) * rs.rank))
        assert decompose(chi) == decompose_reference(chi)
        assert _outcome(decompose, chi + Character(rs, {(1,) * rs.rank: 1})) == _outcome(
            decompose_reference, chi + Character(rs, {(1,) * rs.rank: 1}))
