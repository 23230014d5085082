import hashlib
import io
import json
import random
import time
import tracemalloc
from itertools import combinations, product
from math import prod

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
    covered_closure,
    enumerate_min_weight_pms,
    enumerate_perfect_matchings,
    has_perfect_matching,
    membership_oracle,
    membership_polynomial_general,
    min_weight_pm_polynomial,
    pm_polynomial,
    support_union,
    truth_table_transform,
)
from matchcover import polynomial
from matchcover.matching import _has_perfect_matchings
from matchcover.polynomial import _SCAN_CELLS, _pm_family_polynomial, _sign_rule_polynomial
from matchcover.subsets import (
    _BLOCK_BYTES,
    _STRIDED_BITS,
    SupportBits,
    _canonical_entries,
    _packed_or_transform,
    _row_keys,
    _subset_transform,
    _table_index,
    canonical_order,
)
from oracles import (
    graph_oracle,
    ground_pairs,
    loaded_outcome,
    outcome,
    padded_block_families,
    pattern_weights,
    random_int_weights,
    reference_evaluate,
    reference_json_dict,
    reference_rows,
    reference_sorted_terms,
    reference_subset_transform,
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
    poly = truth_table_transform(lambda masks: np.ones(len(masks), dtype=bool), g)
    assert poly.terms == {0: 1}


def test_transform_or_of_two_bits():
    g = bipartite_ground(2)
    e_a = g.edge_index(1, 1)
    e_b = g.edge_index(2, 2)
    bits = (1 << e_a) | (1 << e_b)

    poly = truth_table_transform(lambda masks: (masks & bits) != 0, g)
    assert poly.terms == {1 << e_a: 1, 1 << e_b: 1, bits: -1}


def test_transform_cap():
    # the 36 edges of K_{6,6} are past the cap of 25: refused before any
    # table exists or the oracle is asked. The 25 edges of K_{5,5} pass
    # (test_truth_table_of_k55_is_pm_polynomial_5).
    def refuse(masks):
        raise AssertionError("the oracle was asked")

    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="36 edge bits, transform cap is 25"):
            truth_table_transform(refuse, bipartite_ground(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.1
    assert peak < 1 << 20, peak


def test_transform_refuses_an_answer_of_the_wrong_length():
    g = bipartite_ground(2)
    for answer in (lambda masks: np.ones(len(masks) - 1, dtype=bool), lambda masks: 1):
        with pytest.raises(InputError, match="0 or 1 for each of 16 masks"):
            truth_table_transform(answer, g)


def test_transform_refuses_an_answer_that_is_not_0_or_1():
    g = bipartite_ground(2)
    for bad in (2, -1, 0.5, np.nan):
        def answer(masks):
            values = (masks & 1).astype(object)
            values[5] = bad
            return values

        with pytest.raises(InputError, match="0 or 1 for each of 16 masks"):
            truth_table_transform(answer, g)
    # bools and 0/1 of any dtype pass
    for dtype in (bool, np.int8, np.float64, object):
        poly = truth_table_transform(lambda masks: (masks & 1).astype(dtype), g)
        assert poly.terms == {1: 1}


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
        via_table = truth_table_transform(graph_oracle(g, lambda G: membership_oracle(fam, G)), g)
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
    table = truth_table_transform(graph_oracle(k6, lambda G: membership_oracle(fam, G)), k6)
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
            table = truth_table_transform(graph_oracle(g, lambda G: membership_oracle(fam, G)), g)
            for mask in table.terms:
                assert Graph(g, mask) in cov


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
    data = json.loads(poly.to_json())
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


def test_layout_reader_takes_every_writer_output():
    # the writer's outputs for n <= 4, unweighted and weighted (a tie-heavy
    # K_{4,4} and random weights), and on complete grounds, as written and
    # re-dumped at several indents and separators: the array reader takes
    # each and gives the polynomial of the json.loads path
    rng = random.Random(29)
    polys = [pm_polynomial(n) for n in range(1, 5)]
    polys += [min_weight_pm_polynomial(random_int_weights(rng, bipartite_ground(n), 1, 2))
              for n in (1, 2, 3, 3, 4, 4)]
    polys.append(min_weight_pm_polynomial(pattern_weights(bipartite_ground(4), "0000000001000001")))
    for m in (4, 6):
        family = enumerate_perfect_matchings(complete_ground(m).full_graph())
        polys.append(membership_polynomial_general(family))
    layouts = [{}, {"indent": 0}, {"indent": 1}, {"indent": "\t"}, {"indent": " \r\n"},
               {"separators": (",", ":")}, {"indent": 3, "separators": ("\t,", " :\n")}]
    for poly in polys:
        text = poly.to_json()
        data = json.loads(text)
        for variant in [text, *(json.dumps(data, **layout) for layout in layouts)]:
            read = polynomial._layout_polynomial(variant, poly.ground)
            assert read is not None
            assert read == poly == loaded_outcome(variant, poly.ground)


def test_layout_reader_declines_all_else():
    # each text leaves the writer's layout in one way: the array reader
    # declines it, and from_json gives the polynomial or the refusal of its
    # json.loads path
    def swap(text, old, new):
        assert old in text
        return text.replace(old, new, 1)

    k2 = json.dumps(json.loads(pm_polynomial(2).to_json()))
    k4 = json.dumps(json.loads(membership_polynomial_general(
        enumerate_perfect_matchings(complete_ground(4).full_graph())).to_json()))
    first = '{"coeff": 1, "edges": [[1, 1], [2, 2]]}'
    cases = [(k4, bipartite_ground(2)), (k4, complete_ground(5))] + [
        (swap(k4, "[[1, 2], [3, 4]]", "[[1, 2], [4, 4]]"), complete_ground(4)),  # a loop
        (swap(k4, "[[1, 2], [3, 4]]", "[[1, 2], [3, 5]]"), complete_ground(4)),
    ] + [(text, bipartite_ground(2)) for text in [
        swap(k2, '"coeff"', '"co eff"'),  # JSON whitespace inside a token
        swap(k2, "[1, 1]", "[1 1, 1]"),
        swap(k2, '"bipartite"', '"bipartite "'),
        swap(k2, "[1, 1]", "[1\f, 1]"),  # whitespace that JSON has not
        swap(k2, "[1, 1]", "[1\u00a0, 1]"),
        "\ufeff" + k2,
        swap(k2, '"coeff": 1', '"coeff": 01'),
        swap(k2, '"coeff": 1', '"coeff": -0'),
        swap(k2, '"coeff": 1', '"coeff": 0'),
        swap(k2, '"coeff": 1', '"coeff": 1.0'),
        swap(k2, '"coeff": 1', '"coeff": true'),
        swap(k2, '"coeff": 1', '"coeff": 1111111111111111111'),  # 19 digits, in int64
        swap(k2, '"coeff": 1', '"coeff": 99999999999999999999'),
        swap(k2, "[1, 1]", "[1, 1111111111111111111]"),
        swap(k2, '"coeff"', '"\\u0063oeff"'),
        swap(k2, first, '{"edges": [[1, 1], [2, 2]], "coeff": 1}'),
        swap(k2, first, '{"coeff": 1, "edges": [[1, 1], [2, 2]], "x": 0}'),
        swap(k2, '"size": 2', '"size": 2, "x": [[[]]]'),
        swap(k2, "[[1, 1], [2, 2]]", "[[1, 1], [2, 3]]"),
        swap(k2, "[[1, 1], [2, 2]]", "[[0, 1], [2, 2]]"),
        swap(k2, "[[1, 1], [2, 2]]", "[[1, 2], [2, 1]]"),  # a duplicate monomial
        swap(k2, "[[1, 1], [2, 2]]", "[[1, 1, 1], [2, 2]]"),
        swap(k2, '"size": 2', '"size": 02'),
        k2 + "x",
        k2 + "]",
        k2 + "\f",
    ]]
    for text, ground in cases:
        assert polynomial._layout_polynomial(text, ground) is None, text
        got = loaded_outcome(text, ground)
        assert outcome(lambda: MultilinearPolynomial.from_json(text, ground)) == got
    # JSON whitespace between tokens, and a duplicate edge, which leaves the
    # monomial as it is
    for text in (swap(k2, "[1, 1]", "\t[ 1\n,\r1 ]"), swap(k2, "[[1, 1], [2, 2]]", "[[1, 1], [2, 2], [1, 1]]")):
        assert polynomial._layout_polynomial(text, bipartite_ground(2)) == pm_polynomial(2)


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


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.int32, np.int64])
def test_subset_transform_matches_reference_butterfly(dtype):
    # sizes from one entry up past the strided steps (runs of 16 entries)
    # and past one cache block (2^20 bytes), on contents over the whole
    # range, so sums and differences wrap
    rng = np.random.default_rng(113)
    info = np.iinfo(dtype)
    block_bits = (_BLOCK_BYTES // info.dtype.itemsize).bit_length() - 1
    for m in [*range(_STRIDED_BITS + 3), block_bits - 1, block_bits, block_bits + 1]:
        table = rng.integers(info.min, info.max, size=1 << m, dtype=dtype, endpoint=True)
        for op, inverse in (("|", False), ("+", False), ("+", True)):
            got = _subset_transform(table.copy(), op, inverse)
            assert got.dtype == dtype
            assert np.array_equal(got, reference_subset_transform(table.copy(), op, inverse))


def test_packed_or_transform_matches_byte_table():
    # widths from one entry, through tables of less than one 64-entry word
    # and of exactly one, up to 2^20 entries; sparse and dense 0/1 tables
    rng = np.random.default_rng(127)
    for width in range(21):
        for density in (4 / (1 << width), 0.01, 0.5):
            table = (rng.random(1 << width) < density).astype(np.uint8)
            ones = np.flatnonzero(table).astype(np.uint32)
            got = _packed_or_transform(ones, width)
            assert got.dtype == np.uint8
            assert np.array_equal(got, _subset_transform(table, "|"))


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32])
def test_canonical_entries_match_canonical_order(dtype):
    # the Mobius route's int8 table, the closure's uint8 marks and the truth
    # table's int32 one, of widths 1 to 25 (rows of 1 to 4 bytes, most
    # widths no multiple of 8): entries few and spread over the table, or
    # dense in a small one
    rng = np.random.default_rng(131)
    info = np.iinfo(dtype)
    for width in range(1, 26):
        size = 1 << width
        table = np.zeros(size, dtype=dtype)
        count = size // 2 if width <= 10 else rng.integers(1, 2000)
        index = rng.integers(0, size, count)
        table[index] = rng.integers(info.min, info.max, count, dtype=dtype, endpoint=True)
        index = np.flatnonzero(table)
        want = SupportBits([size - 1]).rows(_table_index(index, width).tolist())
        order = canonical_order(want)
        want_values = table[index][order]
        rows, values = _canonical_entries(lambda: table)
        assert rows.dtype == np.uint8
        assert np.array_equal(rows, want[order])
        assert values.dtype == dtype and np.array_equal(values, want_values)


def test_table_index_reverses_the_bits():
    rng = random.Random(137)
    for width in (0, 1, 7, 8, 9, 16, 25, 32):
        masks = [rng.getrandbits(width) for _ in range(50)]
        got = _table_index(np.array(masks, dtype=np.uint64), width)
        assert got.dtype == np.uint32
        assert got.tolist() == [int(f"{m:0{width}b}"[::-1] or "0", 2) for m in masks]
        assert _table_index(got, width).tolist() == masks


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


def test_dense_bytes_match_sign_rule_on_k55_patterns():
    # the zero patterns (row-major, "0" is weight 0) of the K_{5,5} build
    # benchmark: supports of 14 to 20 edges, 159 to 23,685 terms, whose
    # Mobius passes run mod 2^8
    g = bipartite_ground(5)
    for pattern in (
        "0010000100100100011100110",
        "0110100110000101000000011",
        "0101001000100001001010000",
        "0000001000010000010100011",
        "0010100001000000000001001",
    ):
        fam = enumerate_min_weight_pms(pattern_weights(g, pattern))
        dense = _pm_family_polynomial(fam)
        assert dense == _sign_rule_polynomial(fam)
        assert set(dense.terms.values()) == {-1, 1}


def test_dense_route_refuses_a_coefficient_that_is_no_sign():
    # {ab, ac, bc} has coefficient -2 on abc, residue 254 mod 2^8: not a
    # family of perfect matchings, whose residues are all the route can
    # vouch for
    g = bipartite_ground(2)
    fam = Family(g, [Graph(g, 0b011), Graph(g, 0b101), Graph(g, 0b110)])
    assert membership_polynomial_general(fam).terms[0b111] == -2
    with pytest.raises(RuntimeError, match="residue 254"):
        _pm_family_polynomial(fam)


@pytest.mark.parametrize("atoms, pairs, coefficient", [(5, 9, 5), (5, 10, 6), (6, 14, 9)])
def test_packed_route_keeps_the_full_residue_check(atoms, pairs, coefficient):
    # Members U - B_i, where each pair i, j of the first `pairs` pairs of
    # atoms has an edge in B_i and B_j alone: the pairs' unions are
    # distinct coatoms, every other union is U, and U's coefficient is
    # 1 + pairs - atoms, the only one that is no sign. 5 and 9 are 1 mod 4
    # (9 is 1 mod 8): a check of the residue mod 2, 4 or 8 would pass them.
    # Supports of 9 to 14 edges take the packed OR pass.
    g = bipartite_ground(4)
    chosen = list(combinations(range(atoms), 2))[:pairs]
    full = (1 << pairs) - 1
    members = [full & ~sum(1 << k for k, p in enumerate(chosen) if i in p) for i in range(atoms)]
    fam = Family(g, [Graph(g, m) for m in members])
    terms = membership_polynomial_general(fam).terms
    assert terms[full] == coefficient
    assert sorted(c for m, c in terms.items() if m != full) == [-1] * pairs + [1] * atoms
    with pytest.raises(RuntimeError, match=f"residue {coefficient} mod 2\\^8"):
        _pm_family_polynomial(fam)


def test_value_table_matches_evaluate():
    rng = random.Random(109)
    g = bipartite_ground(3)
    polys = [pm_polynomial(3), min_weight_pm_polynomial(random_int_weights(rng, g))]
    polys.append(MultilinearPolynomial(g, {0: 5, 0b11: -(2**20), 0b101: 3}))
    polys.append(MultilinearPolynomial(g, {}))
    points = np.arange(1 << 9, dtype=np.int64)
    for poly in polys:
        values = poly.value_table()
        assert values.dtype == np.int32
        assert len(values) == 1 << len(poly._bits)
        index = poly._bits.words(points)[:, 0]
        assert index.tolist() == _row_keys(reference_rows(poly._bits.ids, points.tolist())).tolist()
        assert [int(v) for v in values[index]] == [poly.evaluate(m) for m in range(1 << 9)]
    assert len(polys[1].value_table()) < 1 << 9  # a support narrower than the ground


def test_support_index_on_wide_grounds():
    # support bits spread over the bytes of a 36-edge ground, up to bit 35,
    # and of an 81-edge one, whose masks are Python ints, up to bit 80
    rng = random.Random(157)
    for n, dtype in ((6, np.int64), (9, object)):
        top = n * n - 1
        poly = MultilinearPolynomial(bipartite_ground(n), {1 << 3 | 1 << 20: 2, 1 << top: -1, 1 << 9: 4})
        points = [rng.getrandbits(n * n) for _ in range(500)]
        values = poly.value_table()
        assert len(values) == 1 << 4
        got = values[poly._bits.words(np.array(points, dtype=dtype))[:, 0]]
        assert got.tolist() == [poly.evaluate(m) for m in points]


@pytest.mark.parametrize("width", [16, 36, 64, 81, 400, 2000])
def test_support_rows_match_the_reference(width):
    """SupportBits.rows, by one lookup table per (ground byte, word) pair,
    against the unpack-and-pack reference: lists, int64 arrays below 64
    edges and object arrays, with bits off the support set."""
    rng = random.Random(width)
    for s in (0, 1, 7, 63, 64, 65, 200):
        if s > width:
            continue
        ids = sorted(rng.sample(range(width), s))
        bits = SupportBits([sum(1 << k for k in ids)])
        assert bits.ids == ids
        masks = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(100)]
        want = reference_rows(ids, masks)
        assert want.shape == (len(masks), -(-s // 8))
        inputs = [masks, np.array(masks, dtype=object)]
        if width < 64:
            inputs.append(np.array(masks, dtype=np.int64))
        for points in inputs:
            assert np.array_equal(bits.rows(points), want), (width, s)
        assert bits.rows([]).shape == (0, want.shape[1])
        # the words hold the same bits: support bit b at bit b % 64 of word b // 64
        words = bits.words(masks)
        assert words.shape == (len(masks), max(1, -(-s // 64)))
        assert [sum(int(w) << 64 * j for j, w in enumerate(row)) for row in words.tolist()] == [
            sum(1 << b for b, k in enumerate(ids) if m >> k & 1) for m in masks
        ]


def test_support_rows_where_a_ground_byte_straddles_two_words():
    # ground byte 8 (edges 64..71) holds support bits 62, 63 and 64: its
    # values feed words 0 and 1
    ids = list(range(62)) + [65, 67, 69, 300]
    bits = SupportBits([sum(1 << k for k in ids)])
    assert [b for b, k in enumerate(ids) if k >> 3 == 8] == [62, 63, 64]
    assert [pair for pair, _ in bits._lookups if pair[0] == 8] == [(8, 0), (8, 1)]
    rng = random.Random(163)
    masks = [rng.getrandbits(301) for _ in range(200)] + [sum(1 << k for k in ids), 1 << 67]
    assert np.array_equal(bits.rows(masks), reference_rows(ids, masks))
    assert np.array_equal(bits.rows(np.array(masks, dtype=object)), reference_rows(ids, masks))
    assert bits.words([1 << 67]).tolist() == [[1 << 63, 0]]


def test_scan_matches_reference_evaluate():
    rng = random.Random(167)
    g2, g4, g8, g9 = (bipartite_ground(n) for n in (2, 4, 8, 9))
    polys = [pm_polynomial(n) for n in (1, 2, 3, 4)]
    polys += [
        MultilinearPolynomial(g4, {1: 2**31 - 1, 0b110: 2**31 - 1, 1 << 15: -5}),  # past int32
        MultilinearPolynomial(g2, {1: 2**62, 2: 2**62, 4: -1}),  # int64 terms, sums past it
        MultilinearPolynomial(g2, {1: 2**61 - 1, 2: 1 - 2**61}),  # int64 sums, just inside
        MultilinearPolynomial(g2, {0b101: 2**70, 1: -3}),  # an object coefficient
        MultilinearPolynomial(g2, {0: 1}),
        MultilinearPolynomial(g2, {}),
        MultilinearPolynomial(g8, _random_terms(rng, rng.sample(range(64), 20), 50)),
        MultilinearPolynomial(g9, _random_terms(rng, rng.sample(range(81), 30), 80)),
    ]
    assert polys[5]._coeffs.dtype == np.int64 and polys[7]._coeffs.dtype == object
    # int64 sums while the largest |coefficient| times the terms is below 2^62
    kinds = [p._scanner()(np.zeros(1, dtype=np.int64)).dtype for p in polys[4:8]]
    assert kinds == [np.int64, object, np.int64, object]
    for poly in polys:
        width = poly.ground.edge_count
        terms = poly.terms
        # random points, most with edges off a narrow support, and terms
        # with random edges added
        points = [0, (1 << width) - 1, *(rng.getrandbits(width) for _ in range(200))]
        points += [m | rng.getrandbits(width) for m in list(terms)[:100]]
        want = [reference_evaluate(terms, m) for m in points]
        assert poly._scanner()(np.array(points, dtype=object)).tolist() == want
        if width < 64:
            assert poly._scanner()(np.array(points, dtype=np.int64)).tolist() == want
        assert [poly.evaluate(m) for m in points[:20]] == want[:20]
    # the 302 points of n = 4 run in blocks of 2^18 // 7443 = 35
    assert _SCAN_CELLS // len(polys[3]) == 35


def test_value_table_refuses_what_int32_cannot_hold():
    g = bipartite_ground(2)
    assert MultilinearPolynomial(g, {1: 2**31 - 1}).value_table() is not None
    assert MultilinearPolynomial(g, {1: 2**30, 2: -(2**30)}).value_table() is None
    assert MultilinearPolynomial(g, {1: 2**70}).value_table() is None
    # a support of 26 edges, above the dense cap of 25, on a 36-edge ground
    wide = bipartite_ground(6)
    assert MultilinearPolynomial(wide, {(1 << 26) - 1: 1}).value_table() is None
    assert MultilinearPolynomial(wide, {(1 << 25) - 1 << 11 | 1: 1}).value_table() is None


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
            WeightFunction(g20, [0 if p in zero else 1 for p in ground_pairs(g20)])
        )
    )
    assert [len(p) for p in polys[-2:]] == [909, 9]
    for poly in polys:
        assert poly.to_text() == reference_text(poly)
        assert poly.to_json() == json.dumps(reference_json_dict(poly), indent=2) + "\n"
        assert list(poly.terms.items()) == reference_sorted_terms(poly)


def _random_terms(rng, ids, count):
    """count distinct nonzero masks over the edge ids, together touching all
    of them, with coefficients in -3..3 but 0."""
    masks = {sum(1 << k for k in ids)}
    while len(masks) < count:
        masks.add(sum(1 << k for k in ids if rng.random() < 0.5) or 1 << ids[0])
    return {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in masks}


def _check_writers(poly, terms):
    """Both writers against the bit-scanning reference writers and the json
    encoder, returned and streamed; the lazy terms against the dict the
    polynomial was built from, in the bit-scanning canonical order."""
    assert poly.terms == terms
    assert list(poly.terms.items()) == reference_sorted_terms(poly)
    text, data = poly.to_text(), poly.to_json()
    assert text == reference_text(poly)
    assert data == json.dumps(reference_json_dict(poly), indent=2) + "\n"
    for writer, want in ((poly.to_text, text), (poly.to_json, data)):
        out = io.StringIO()
        assert len(writer(out)) == len(want)
        assert out.getvalue() == want


def test_writers_at_every_support_width():
    rng = random.Random(113)
    g1, g3, g5, g20 = (bipartite_ground(n) for n in (1, 3, 5, 20))
    cases = [
        (g1, {1: -2}),
        (g3, _random_terms(rng, list(range(8)), 40)),  # one full byte
        (g3, _random_terms(rng, list(range(9)), 60)),  # a byte and one bit
        (g5, _random_terms(rng, list(range(25)), 300)),
        (g20, _random_terms(rng, rng.sample(range(400), 90), 200)),
    ]
    for ground, terms in cases:
        poly = MultilinearPolynomial(ground, terms)
        assert poly._rows.shape[1] * 8 >= len(poly._bits) > poly._rows.shape[1] * 8 - 8
        _check_writers(poly, terms)
    # lattice inclusion-exclusion over four disjoint perfect matchings of
    # K_{20,20}: 80 support edges, every union of members a term
    family = Family(
        g20,
        [
            g20.graph_from_edges([(i, (i + k) % 20 + 1) for i in range(1, 21)])
            for k in range(4)
        ],
    )
    poly = membership_polynomial_general(family)
    assert len(poly) == 15 and len(poly._bits) == 80
    _check_writers(poly, dict(poly.terms))


def test_wide_ground_rows_unpack_only_the_support_bytes():
    # 40,000 edges, 12 support edges spread over them: one byte per edge of
    # the ground and mask would be 8 MB, the masks' own bytes are 1 MB
    ground = bipartite_ground(200)
    rng = random.Random(131)
    ids = sorted(rng.sample(range(ground.edge_count), 11) + [ground.edge_count - 1])
    terms = _random_terms(rng, ids, 200)
    tracemalloc.start()
    try:
        poly = MultilinearPolynomial(ground, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert poly._bits.ids == ids and poly.terms == terms
    # the canonical key, scanning only the support's bits of the wide masks
    key = lambda t: (t[0].bit_count(), [k for k in ids if t[0] >> k & 1])
    assert list(poly.terms.items()) == sorted(terms.items(), key=key)


def test_writers_at_chunk_boundaries(monkeypatch):
    g1, g4 = bipartite_ground(1), bipartite_ground(4)
    _check_writers(MultilinearPolynomial(g1, {}), {})
    rng = random.Random(127)
    step = polynomial._CHUNK_SLOTS // 16  # terms per chunk on all 16 edges
    for count in (step, step + 1):
        terms = {m: rng.choice([-1, 1, 2**70]) for m in rng.sample(range(1, 1 << 16), count)}
        poly = MultilinearPolynomial(g4, terms)
        assert len(poly._bits) == 16
        assert poly.to_text() == reference_text(poly)
        assert json.loads(poly.to_json()) == reference_json_dict(poly)
        out = io.StringIO()
        poly.to_json(out)
        assert out.getvalue() == poly.to_json()
    # the same boundaries, byte for byte, with chunks of four terms
    for count in (1, 4, 5, 9):
        terms = {m: rng.choice([-1, 1, 2**70]) for m in rng.sample(range(1, 1 << 16), count)}
        poly = MultilinearPolynomial(g4, terms)
        monkeypatch.setattr(polynomial, "_CHUNK_SLOTS", 4 * len(poly._bits))
        assert poly._chunk_terms() == 4
        _check_writers(poly, terms)


def test_writers_by_support_width_match_one_chunk(monkeypatch):
    # several chunks at 16 and at 34 support edges (1,024 and 481 terms a
    # chunk), and a chunk budget below one term's width, against one chunk
    rng = random.Random(163)
    wide = rng.sample(range(400), 34)
    polys = [
        MultilinearPolynomial(bipartite_ground(4), _random_terms(rng, list(range(16)), 2500)),
        MultilinearPolynomial(bipartite_ground(20), _random_terms(rng, wide, 1200)),
    ]
    written = []
    for slots in (polynomial._CHUNK_SLOTS, 7, 1 << 40):
        monkeypatch.setattr(polynomial, "_CHUNK_SLOTS", slots)
        for poly in polys:
            chunks = [list(poly._text_chunks()), list(poly._json_chunks())]
            assert len(chunks[0]) == -(-len(poly) // poly._chunk_terms())
            written.append(["".join(c) for c in chunks])
    assert [len(p._bits) for p in polys] == [16, 34]
    assert written[:2] == written[2:4] == written[4:]
    assert [w[0] for w in written[4:]] == [p.to_text() for p in polys]


@pytest.fixture(scope="module")
def pm5():
    """pm_polynomial(5), built once for the tests that read it."""
    return pm_polynomial(5)


def test_pm_polynomial_5_text(pm5):
    # the dense route at its widest, 25 edges: the text hashed as it streams
    class Sink:
        def __init__(self):
            self.md5, self.lines, self.signs = hashlib.md5(), 0, 0

        def write(self, chunk):
            self.md5.update(chunk.encode())
            self.lines += chunk.count("\n")
            self.signs += chunk.count("+") - chunk.count("-")

    sink = Sink()
    poly = pm5
    poly.to_text(sink)
    assert sink.md5.hexdigest() == "1ec0e1931b414f4c36a80002f2862d58"
    # one term per face of the Birkhoff polytope B_5, signed (-1)^dim, every
    # coefficient +-1 (the hash pins them): Euler's relation makes them sum to 1
    assert (sink.lines, sink.signs) == (6092721, 1)
    # coefficients are searched in the rows, without the 6 M-entry terms dict
    g = poly.ground
    queries = [g.full_graph(), Graph(g, 0b1000001), 0b11, 0, 1 << 24 | 1 << 18 | 1 << 12 | 1 << 6 | 1]
    tracemalloc.start()
    try:
        found = [poly.coefficient(x) for x in queries]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # chi(K_{5,5}) = 25 - 10 + 1 = 16; a matching is a vertex, chi = 0
    assert found == [1, 0, 0, 0, 1]
    assert peak < 1 << 20, peak


def test_truth_table_of_k55_is_pm_polynomial_5(pm5):
    # the exhaustive route at the cap, 25 edges: the Mobius transform of the
    # row DP's answers at all 2^25 subgraphs of K_{5,5}, which lists no
    # matching and runs no OR pass, against the dense route of B_5
    table = truth_table_transform(lambda masks: _has_perfect_matchings(masks, 5), bipartite_ground(5))
    assert table == pm5


def test_coefficient_searches_the_rows(refuse_terms):
    rng = random.Random(137)
    g1, g3, g20 = (bipartite_ground(n) for n in (1, 3, 20))
    cases = [
        (g1, {}),
        (g1, {0: 2**70}),
        (g3, _random_terms(rng, list(range(9)), 60)),
        (g3, pm_polynomial(3).terms),
        (g20, _random_terms(rng, rng.sample(range(400), 90), 200)),  # 12-byte rows
    ]
    refuse_terms()
    for ground, terms in cases:
        poly = MultilinearPolynomial(ground, terms)
        width = ground.edge_count
        probes = [0, *terms, *(rng.getrandbits(width) for _ in range(100))]
        probes += [m | 1 << rng.randrange(width) for m in terms]  # often off the support
        for mask in probes:
            assert poly.coefficient(mask) == terms.get(mask, 0)
            assert poly.coefficient(Graph(ground, mask)) == terms.get(mask, 0)
    with pytest.raises(InputError):
        poly.coefficient(1 << 400)
    with pytest.raises(InputError):
        poly.coefficient(bipartite_ground(2).full_graph())


def test_refusals_read_the_arrays():
    g = bipartite_ground(2)
    with pytest.raises(InputError, match="monomial mask 0x10 out of range"):
        MultilinearPolynomial(g, {1: 1, 16: 1})
    with pytest.raises(InputError, match="out of range"):
        MultilinearPolynomial(g, {-1: 1})
    with pytest.raises(InputError, match="zero coefficients"):
        MultilinearPolynomial(g, {1: 1, 2: 0})
    with pytest.raises(InputError, match="zero coefficients"):
        MultilinearPolynomial(g, {1: 2**70, 2: 0})
    # one canonical form: equal however the terms were ordered or stored
    a = MultilinearPolynomial(g, {1: 1, 6: -1, 9: 2**70})
    assert a == MultilinearPolynomial(g, {9: 2**70, 6: -1, 1: 1})
    assert a != MultilinearPolynomial(g, {9: 2**70, 6: -1, 1: 2})
    assert a != MultilinearPolynomial(g, {9: 2**70, 6: -1})


def _planted_block_weights(rng, n):
    """Weights whose optimal matchings are the unions of 1 to 3 random
    perfect matchings of each of a few diagonal blocks (so G_w has one
    block or many), plus dual potentials."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, n - sum(sizes)))
    order = rng.sample(range(n), n)
    zero, start = set(), 0
    for s in sizes:
        block = order[start : start + s]
        for _ in range(rng.randint(1, 3)):
            zero.update(zip(block, rng.sample(block, s)))
        start += s
    u = [rng.randint(0, 3) for _ in range(n)]
    v = [rng.randint(0, 3) for _ in range(n)]
    return WeightFunction(bipartite_ground(n), [
        (0 if (i, j) in zero else rng.randint(1, 3)) + u[i] + v[j]
        for i in range(n) for j in range(n)
    ])


def _assert_factoring_holds(w):
    support = support_union(w)
    _, blocks, families = polynomial._split(support)
    assert list(families) == padded_block_families(support, blocks)
    # the whole family, through routes that never split it into blocks
    family = enumerate_min_weight_pms(w)
    poly = min_weight_pm_polynomial(w)
    whole = _sign_rule_polynomial(family)
    assert poly == whole
    assert poly.to_text() == whole.to_text() and poly.to_json() == whole.to_json()
    if w.ground.size <= 4:
        assert poly == membership_polynomial_general(family)
    return poly


def test_factored_polynomial_matches_the_whole_family():
    rng = random.Random(113)
    for trial in range(150):
        n = 1 + trial % 6
        if trial % 3:
            w = _planted_block_weights(rng, n)
        else:
            w = random_int_weights(rng, bipartite_ground(n), 0, 1)
        _assert_factoring_holds(w)


def test_split_matches_the_padded_listing_on_wide_layouts():
    # the block sizes of the `large` benchmark workload's wide supports, on
    # shuffled rows and columns: weight 0 inside a block, 1 elsewhere
    rng = random.Random(19)
    for n, sizes in ((16, [3, 2, 2, 2, 2, 2, 1, 1, 1]), (20, [2] * 7 + [1] * 6)):
        labels = [b for b, size in enumerate(sizes) for _ in range(size)]
        row_block, col_block = rng.sample(labels, n), rng.sample(labels, n)
        w = WeightFunction(bipartite_ground(n), [
            int(row_block[i] != col_block[j]) for i in range(n) for j in range(n)
        ])
        support = support_union(w)
        forced, blocks, families = polynomial._split(support)
        assert forced.bit_count() == sizes.count(1)
        assert sorted(size for size, _ in blocks) == sorted(s for s in sizes if s > 1)
        assert list(families) == padded_block_families(support, blocks)


def test_split_lists_blocks_on_a_ground_deeper_than_the_recursion_limit():
    # the diagonal of K_{1000,1000} and 300 disjoint swaps of two rows: 300
    # blocks K_{2,2} of three covered graphs each, and 400 forced edges. The
    # support's own polynomial would have 3^300 terms, so only blocks are built
    n = 1000
    swaps = [e for i in range(1, 600, 2) for e in ((i, i + 1), (i + 1, i))]
    support = bipartite_ground(n).graph_from_edges([(i, i) for i in range(1, n + 1)] + swaps)
    forced, blocks, families = polynomial._split(support)
    assert forced.bit_count() == 400 and len(blocks) == 300
    assert prod(len(covered_closure(f)) for f in families) == 3**300


def test_factoring_on_one_block_takes_the_whole_route(monkeypatch):
    # K_{n,n} is a support of one block, whose polynomial the product returns
    # untouched: its rows are canonical already, so nothing is sorted.
    # K_{1,1}, one forced edge, is the product of no blocks
    def refuse(*args):
        raise AssertionError("a lone block was sorted")

    for n in (1, 2, 3, 4):
        poly = _assert_factoring_holds(WeightFunction.unit(bipartite_ground(n)))
        with monkeypatch.context() as patch:
            if n > 1:
                patch.setattr(polynomial, "canonical_order", refuse)
            assert poly == pm_polynomial(n)
    poly = pm_polynomial(2)
    block = (poly._bits, poly._rows, poly._coeffs)
    assert polynomial._multiply_blocks(bipartite_ground(2).full_graph(), 0, [block]) is block


def test_factoring_with_every_edge_forced():
    # a unique optimum: G_w is five one-edge blocks, and the polynomial is
    # that one matching
    g = bipartite_ground(5)
    w = WeightFunction(g, [0 if k % 6 == 0 else 1 for k in range(25)])
    diagonal = g.graph_from_edges([(i, i) for i in range(1, 6)])
    assert _assert_factoring_holds(w).terms == {diagonal.edges: 1}


def test_factoring_a_block_wider_than_the_dense_cap():
    # a Hamilton cycle on rows and columns 1..13 of K_{15,15} (26 edges, two
    # matchings) and the forced edges (14, 14), (15, 15)
    g = bipartite_ground(15)
    zero = {(i, i % 13 + 1) for i in range(1, 14)} | {(i, i) for i in range(1, 16)}
    w = WeightFunction(g, [int(p not in zero) for p in ground_pairs(g)])
    assert len(zero) == 28 and 26 > polynomial.DENSE_BIT_CAP
    poly = _assert_factoring_holds(w)
    cycle = g.graph_from_edges(zero)
    assert len(poly) == 3 and poly.coefficient(cycle) == -1


def test_block_rows_are_placed_on_the_support():
    # random disjoint blocks of a random support, forced edges beside them,
    # on grounds of 16, 81 and 144 edges: each block's rows land where the
    # mask round trip (expand to full masks, compress onto the support) puts
    # them, and the product rows are the unions of one row from every block
    rng = random.Random(23)
    for n in (4, 9, 12):
        ground = bipartite_ground(n)
        edges = rng.sample(range(ground.edge_count), rng.randint(6, ground.edge_count))
        cuts = sorted(rng.sample(range(1, len(edges)), 3))
        parts = [edges[a:b] for a, b in zip([0] + cuts, cuts + [len(edges)])]
        forced = sum(1 << k for k in parts[0])
        blocks = []
        for part in parts[1:]:
            count = rng.randint(1, 5)
            masks = [sum(1 << k for k in part if rng.random() < 0.5) for _ in range(count)]
            block_bits = SupportBits([sum(1 << k for k in part)])
            blocks.append((block_bits, block_bits.rows(masks), np.arange(1, count + 1)))
        support = Graph(ground, sum(1 << k for k in edges))
        bits, rows, coeffs = polynomial._multiply_blocks(support, forced, blocks)
        for block in blocks:
            placed = polynomial._multiply_blocks(support, forced, [block])[1]
            want = bits.rows([forced | m for m in block[0].expand(block[1]).tolist()])
            assert np.array_equal(placed, want[canonical_order(want)])
        block_masks = [block_bits.expand(block_rows) for block_bits, block_rows, _ in blocks]
        want = bits.rows([forced | sum(p) for p in product(*block_masks)])
        order = canonical_order(want)
        assert np.array_equal(rows, want[order])
        block_coeffs = [block_coeffs.tolist() for _, _, block_coeffs in blocks]
        assert coeffs.tolist() == np.array([prod(p) for p in product(*block_coeffs)])[order].tolist()
