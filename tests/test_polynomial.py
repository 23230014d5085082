import json
import random

import numpy as np
import pytest

from matchcover import (
    CapExceededError,
    Family,
    Graph,
    InputError,
    MultilinearPolynomial,
    WeightFunction,
    bipartite_ground,
    complete_ground,
    contains_min_weight_pm,
    enumerate_min_weight_pms,
    enumerate_perfect_matchings,
    has_perfect_matching,
    membership_oracle,
    membership_polynomial_general,
    min_weight_pm_polynomial,
    pm_polynomial,
    truth_table_transform,
)
from matchcover.polynomial import _pm_family_polynomial, _sign_rule_polynomial
from matchcover.subsets import _subset_transform
from oracles import (
    pattern_weights,
    random_int_weights,
    reference_json_dict,
    reference_text,
)


def test_membership_oracle():
    g = bipartite_ground(2)
    fam = enumerate_perfect_matchings(g.full_graph())
    assert membership_oracle(fam, g.full_graph()) == 1
    assert membership_oracle(fam, g.graph_from_edges([(1, 1)])) == 0
    w = WeightFunction(g, [1, 2, 2, 1])
    wfam = enumerate_min_weight_pms(w)
    assert membership_oracle(wfam, g.graph_from_edges([(1, 2), (2, 1)])) == 0
    with pytest.raises(InputError):
        membership_oracle(fam, bipartite_ground(3).full_graph())


def test_transform_constant_one():
    g = bipartite_ground(1)
    poly = truth_table_transform(lambda G: 1, g)
    assert poly.terms == {0: 1}


def test_transform_or_of_two_bits():
    g = bipartite_ground(2)
    e_a = g.edge_index(1, 1)
    e_b = g.edge_index(2, 2)
    bits = (1 << e_a) | (1 << e_b)

    poly = truth_table_transform(lambda G: int(bool(G.edges & bits)), g)
    assert poly.terms == {1 << e_a: 1, 1 << e_b: 1, bits: -1}


def test_transform_cap():
    with pytest.raises(CapExceededError):
        truth_table_transform(lambda G: 0, bipartite_ground(5))
    # explicit override raises the cap
    poly = truth_table_transform(lambda G: 1, bipartite_ground(2), max_bits=4)
    assert poly.terms == {0: 1}


def test_pm_polynomial_small():
    g1 = bipartite_ground(1)
    assert pm_polynomial(1).terms == {1: 1}

    g = bipartite_ground(2)
    poly = pm_polynomial(2)
    m1 = g.graph_from_edges([(1, 1), (2, 2)]).edges
    m2 = g.graph_from_edges([(1, 2), (2, 1)]).edges
    assert poly.terms == {m1: 1, m2: 1, g.full_graph().edges: -1}

    assert pm_polynomial(3).coefficient(bipartite_ground(3).full_graph()) == 1


def test_construction_triangle():
    for n in (2, 3):
        g = bipartite_ground(n)
        fam = enumerate_perfect_matchings(g.full_graph())
        direct = pm_polynomial(n)
        via_mobius = membership_polynomial_general(fam)
        via_table = truth_table_transform(lambda G: membership_oracle(fam, G), g)
        assert direct == via_mobius == via_table


def test_min_weight_pm_polynomial():
    g = bipartite_ground(2)
    w = WeightFunction(g, [1, 2, 2, 1])
    poly = min_weight_pm_polynomial(w)
    assert poly.terms == {g.graph_from_edges([(1, 1), (2, 2)]).edges: 1}

    for n in (1, 2, 3):
        unit = WeightFunction.unit(bipartite_ground(n))
        assert min_weight_pm_polynomial(unit) == pm_polynomial(n)

    fives = WeightFunction(g, [5, 5, 5, 5])
    assert min_weight_pm_polynomial(fives) == pm_polynomial(2)


def test_single_member_families():
    g = bipartite_ground(2)
    edge = g.graph_from_edges([(1, 2)])
    assert membership_polynomial_general(Family(g, [edge])).terms == {edge.edges: 1}


def test_k6_witness_family_top_monomial_vanishes():
    k6 = complete_ground(6)
    witness = k6.graph_from_edges(
        [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (4, 5), (2, 6), (3, 6), (5, 6)]
    )
    fam = enumerate_perfect_matchings(witness)
    assert len(fam) == 4
    poly = membership_polynomial_general(fam)
    assert poly.coefficient(witness) == 0
    assert witness.edges not in poly.terms
    # the exhaustive transform over all 2^15 assignments agrees term for term
    table = truth_table_transform(lambda G: membership_oracle(fam, G), k6)
    assert table == poly


def test_evaluate_examples():
    g = bipartite_ground(2)
    poly = pm_polynomial(2)
    only_first = g.graph_from_edges([(1, 1)])
    assert poly.evaluate(g.full_graph()) == 1
    assert poly.evaluate(only_first) == 0
    single = MultilinearPolynomial(g, {only_first.edges: 1})
    assert single.evaluate(only_first) == 1
    with pytest.raises(InputError):
        poly.evaluate(bipartite_ground(3).full_graph())
    with pytest.raises(InputError):
        poly.evaluate(1 << 10)


def test_membership_values_are_boolean():
    for n in (1, 2, 3):
        g = bipartite_ground(n)
        poly = pm_polynomial(n)
        fam = enumerate_perfect_matchings(g.full_graph())
        for mask in range(1 << g.edge_count):
            value = poly.evaluate(mask)
            assert value in (0, 1)
            assert value == membership_oracle(fam, Graph(g, mask))


def test_transform_monomials_are_covered_graphs():
    # the exhaustive transform of a membership oracle never produces a
    # monomial outside the family's union closure
    from matchcover import covered_closure

    rng = random.Random(83)
    for n in (2, 3):
        g = bipartite_ground(n)
        families = [enumerate_perfect_matchings(g.full_graph())]
        for _ in range(3):
            families.append(enumerate_min_weight_pms(random_int_weights(rng, g)))
        for fam in families:
            cov = covered_closure(fam)
            table = truth_table_transform(lambda G: membership_oracle(fam, G), g)
            for mask in table.terms:
                assert cov.contains_mask(mask)


def test_coefficients_unit_and_term_count_odd():
    rng = random.Random(71)
    polys = [pm_polynomial(n) for n in (1, 2, 3)]
    for n in (2, 3):
        w = random_int_weights(rng, bipartite_ground(n))
        polys.append(min_weight_pm_polynomial(w))
    for poly in polys:
        assert len(poly) % 2 == 1
        assert set(poly.terms.values()) <= {1, -1}


def test_pointwise_weighted_n4_sampled():
    rng = random.Random(73)
    g = bipartite_ground(4)
    w = random_int_weights(rng, g)
    poly = min_weight_pm_polynomial(w)
    members = [m.edges for m in enumerate_min_weight_pms(w)]
    for _ in range(100_000):
        mask = rng.getrandbits(g.edge_count)
        want = int(any(mask & m == m for m in members))
        assert poly.evaluate(mask) == want
        assert int(contains_min_weight_pm(Graph(g, mask), w)) == want


def test_zero_coefficients_rejected():
    g = bipartite_ground(1)
    with pytest.raises(InputError):
        MultilinearPolynomial(g, {1: 0})
    with pytest.raises(InputError):
        MultilinearPolynomial(g, {4: 1})


def test_text_format():
    assert pm_polynomial(2).to_text() == (
        "+1 x[1,1] x[2,2]\n"
        "+1 x[1,2] x[2,1]\n"
        "-1 x[1,1] x[1,2] x[2,1] x[2,2]\n"
    )
    g = bipartite_ground(1)
    assert MultilinearPolynomial(g, {0: 1, 1: -2}).to_text() == "+1\n-2 x[1,1]\n"


def test_json_round_trip():
    poly = pm_polynomial(3)
    g3 = bipartite_ground(3)
    again = MultilinearPolynomial.from_json(poly.to_json(), g3)
    assert again == poly
    data = poly.to_json_dict()
    assert data["ground"] == {"mode": "bipartite", "size": 3}
    assert data["terms"][0]["coeff"] in (1, -1)

    with pytest.raises(InputError):
        MultilinearPolynomial.from_json("{not json", g3)
    with pytest.raises(InputError):
        MultilinearPolynomial.from_json('{"ground": {"mode": "bipartite"}}', g3)
    with pytest.raises(InputError):
        MultilinearPolynomial.from_json(
            '{"ground": {"mode": "bipartite", "size": 1},'
            ' "terms": [{"coeff": 1.5, "edges": []}]}',
            bipartite_ground(1),
        )
    with pytest.raises(InputError, match="bipartite 3 does not match bipartite 2"):
        MultilinearPolynomial.from_json(poly.to_json(), bipartite_ground(2))


def test_has_perfect_matching_agrees_with_polynomial_membership():
    g = bipartite_ground(3)
    poly = pm_polynomial(3)
    rng = random.Random(79)
    for _ in range(500):
        mask = rng.getrandbits(g.edge_count)
        assert poly.evaluate(mask) == int(has_perfect_matching(Graph(g, mask)))


def test_subset_transform_matches_subset_sums():
    rng = np.random.default_rng(101)
    table = rng.integers(-50, 50, size=1 << 6, dtype=np.int64)
    masks = rng.integers(0, 1 << 20, size=1 << 6, dtype=np.uint32)
    zeta = _subset_transform(table.copy(), "+")
    union = _subset_transform(masks.copy(), "|")
    for s in range(1 << 6):
        inside = [t for t in range(1 << 6) if t & ~s == 0]
        assert zeta[s] == sum(table[t] for t in inside)
        assert union[s] == np.bitwise_or.reduce(masks[inside])


def test_subset_transform_minus_inverts_plus():
    rng = np.random.default_rng(103)
    table = rng.integers(-1000, 1000, size=1 << 12, dtype=np.int64)
    there = _subset_transform(table.copy(), "+")
    assert not np.array_equal(there, table)
    assert np.array_equal(_subset_transform(there, "+", inverse=True), table)


def test_dense_coefficients_match_sign_rule_and_lattice():
    rng = random.Random(107)
    families = []
    for n in (1, 2, 3):
        g = bipartite_ground(n)
        families.append(enumerate_perfect_matchings(g.full_graph()))
        families.extend(
            enumerate_min_weight_pms(random_int_weights(rng, g, 1, 3)) for _ in range(3)
        )
    g4 = bipartite_ground(4)
    for pattern in ("0000000001000001", "1000000000001000", "0110100101101001"):
        families.append(enumerate_min_weight_pms(pattern_weights(g4, pattern)))
    families.append(enumerate_min_weight_pms(random_int_weights(rng, g4, 1, 2)))
    for fam in families:
        dense = _pm_family_polynomial(fam)
        assert dense == _sign_rule_polynomial(fam) == membership_polynomial_general(fam)


def test_value_table_matches_evaluate():
    rng = random.Random(109)
    g = bipartite_ground(3)
    polys = [pm_polynomial(3), min_weight_pm_polynomial(random_int_weights(rng, g))]
    polys.append(MultilinearPolynomial(g, {0: 5, 0b11: -(2**20), 0b101: 3}))
    for poly in polys:
        values = poly.value_table()
        assert values.dtype == np.int32
        assert [int(v) for v in values] == [poly.evaluate(m) for m in range(1 << 9)]


def test_value_table_refuses_what_int32_cannot_hold():
    g = bipartite_ground(2)
    assert MultilinearPolynomial(g, {1: 2**31 - 1}).value_table() is not None
    assert MultilinearPolynomial(g, {1: 2**30, 2: -(2**30)}).value_table() is None
    assert MultilinearPolynomial(g, {1: 2**70}).value_table() is None
    wide = bipartite_ground(5)  # 25 edges, above the dense cap
    assert MultilinearPolynomial(wide, {1: 1}).value_table() is None


def test_writers_match_reference_writers():
    polys = [pm_polynomial(n) for n in (1, 2, 3, 4)]
    g1 = bipartite_ground(1)
    polys += [MultilinearPolynomial(g1, {}), MultilinearPolynomial(g1, {0: 3, 1: -2})]
    polys.append(
        min_weight_pm_polynomial(
            pattern_weights(bipartite_ground(5), "0110100110000101000000011")
        )
    )
    # K_{20,20}: zero 2x2 blocks on rows/columns 1-2 and 3-4, zero diagonal
    # elsewhere; 24 support edges, so the closure is breadth-first
    g20 = bipartite_ground(20)
    zero = {(i, j) for i in (1, 2) for j in (1, 2)}
    zero |= {(i, j) for i in (3, 4) for j in (3, 4)}
    zero |= {(i, i) for i in range(5, 21)}
    polys.append(
        min_weight_pm_polynomial(
            WeightFunction(g20, [0 if p in zero else 1 for p in g20.edge_pairs()])
        )
    )
    assert [len(p) for p in polys[-2:]] == [909, 9]
    for poly in polys:
        assert poly.to_text() == reference_text(poly)
        assert poly.to_json() == json.dumps(reference_json_dict(poly), indent=2) + "\n"
        assert poly.to_json_dict() == reference_json_dict(poly)
