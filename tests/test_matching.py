import random
from fractions import Fraction

import pytest

from matchcover import (
    Graph,
    InputError,
    WeightFunction,
    bipartite_ground,
    coefficient_query,
    complete_ground,
    contains_min_weight_pm,
    enumerate_min_weight_pms,
    enumerate_perfect_matchings,
    has_perfect_matching,
    hungarian,
    parse_rational,
    parse_weight_function,
    pm_support,
    support_union,
)
from oracles import (
    brute_min_weight,
    brute_min_weight_forced,
    brute_pm_masks_bipartite,
    brute_pm_masks_complete,
    canonical_key,
    min_weight_family,
    random_graph,
    random_int_weights,
    random_rational_weights,
)


def union_mask(graphs):
    mask = 0
    for g in graphs:
        mask |= g.edges
    return mask


def k6_witness_graph():
    # 6 vertices, 9 edges: a 4-cycle 1-2-3-4 with an inner path 1-5-4, 2-6-3
    # and the rung 5-6; it has exactly four perfect matchings
    return complete_ground(6).graph_from_edges(
        [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (4, 5), (2, 6), (3, 6), (5, 6)]
    )


def test_has_perfect_matching():
    g = bipartite_ground(3)
    assert has_perfect_matching(g.full_graph())
    assert not has_perfect_matching(g.empty_graph())
    assert has_perfect_matching(k6_witness_graph())
    # a near-miss: left vertices 1 and 2 both only see right vertex 1
    pinched = g.graph_from_edges([(1, 1), (2, 1), (3, 1), (3, 2), (3, 3)])
    assert not has_perfect_matching(pinched)


def test_perfect_matching_needs_even_complete_ground():
    g = complete_ground(5)
    with pytest.raises(InputError):
        has_perfect_matching(g.full_graph())
    with pytest.raises(InputError):
        enumerate_perfect_matchings(g.full_graph())


def test_enumerate_perfect_matchings():
    fam = enumerate_perfect_matchings(bipartite_ground(2).full_graph())
    assert len(fam) == 2
    assert len(enumerate_perfect_matchings(complete_ground(6).full_graph())) == 15
    assert len(enumerate_perfect_matchings(k6_witness_graph())) == 4


def test_enumeration_is_canonical_and_matches_brute_force():
    rng = random.Random(3)
    for n in (2, 3, 4):
        g = bipartite_ground(n)
        for _ in range(30):
            graph = random_graph(rng, g)
            fam = enumerate_perfect_matchings(graph)
            masks = [m.edges for m in fam]
            assert len(set(masks)) == len(masks)
            assert sorted(masks) == sorted(brute_pm_masks_bipartite(graph))
            keys = [canonical_key(m) for m in fam]
            assert keys == sorted(keys)


def test_complete_enumeration_and_existence_match_pairing_scan():
    rng = random.Random(5)
    for m in (4, 6, 8):
        g = complete_ground(m)
        for k in range(60):
            # alternate half-dense and three-quarter-dense subgraphs, so that
            # both answers of the existence test come up at every m
            mask = rng.getrandbits(g.edge_count)
            if k % 2:
                mask |= rng.getrandbits(g.edge_count)
            graph = Graph(g, mask)
            brute = brute_pm_masks_complete(graph)
            want = sorted((Graph(g, b) for b in brute), key=canonical_key)
            assert list(enumerate_perfect_matchings(graph)) == want
            assert has_perfect_matching(graph) == bool(brute)
    assert len(brute_pm_masks_complete(complete_ground(8).full_graph())) == 105


def w22():
    return WeightFunction(bipartite_ground(2), [1, 2, 2, 1])


def test_min_weight_examples():
    g = bipartite_ground(2)
    assert w22().optimum() == 2
    assert WeightFunction.unit(g).optimum() == 2

    g3 = bipartite_ground(3)
    products = WeightFunction(g3, [i * j for i in (1, 2, 3) for j in (1, 2, 3)])
    got = products.optimum()
    assert got == brute_min_weight(g3.full_graph(), products)
    assert got == 10


def test_min_weight_infeasible():
    # no perfect matching inside the graph, so none of minimum weight either
    g = bipartite_ground(2)
    pinched = g.graph_from_edges([(1, 1), (2, 1)])
    assert brute_min_weight(pinched, w22()) is None
    assert not contains_min_weight_pm(pinched, w22())
    assert coefficient_query(pinched, w22()) == 0


def test_min_weight_forced_examples():
    # the forced-edge oracle the support characterizations below rely on
    g = bipartite_ground(2)
    full = g.full_graph()
    assert brute_min_weight_forced(full, w22(), g.edge_index(1, 2)) == 4
    assert brute_min_weight_forced(full, w22(), g.edge_index(1, 1)) == 2
    lonely = g.graph_from_edges([(1, 1), (2, 1)])
    assert brute_min_weight_forced(lonely, w22(), g.edge_index(2, 1)) is None

    g3 = bipartite_ground(3)
    products = WeightFunction(g3, [i * j for i in (1, 2, 3) for j in (1, 2, 3)])
    e33 = g3.edge_index(3, 3)
    assert brute_min_weight_forced(g3.full_graph(), products, e33) == 13


def test_min_weight_matches_brute_force_on_random_weights():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.choice((1, 2, 3))
        g = bipartite_ground(n)
        w = random_int_weights(rng, g, lo=0, hi=9)
        assert w.optimum() == brute_min_weight(g.full_graph(), w)


def test_hungarian_dual_certificate():
    # u_i + v_j <= c_ij everywhere, with equality on the returned assignment,
    # whose cost is the optimum of the permutation scan
    rng = random.Random(131)
    for trial in range(150):
        n = trial % 5 + 1
        g = bipartite_ground(n)
        w = (random_int_weights, random_rational_weights)[trial % 2](rng, g)
        cost = [[w.weights[i * n + j] for j in range(n)] for i in range(n)]
        best, row_to_col, u, v = hungarian(cost)
        assert sorted(row_to_col) == list(range(n))
        for i in range(n):
            for j in range(n):
                assert u[i] + v[j] <= cost[i][j]
            assert u[i] + v[row_to_col[i]] == cost[i][row_to_col[i]]
        assert best == sum(cost[i][row_to_col[i]] for i in range(n))
        assert best == brute_min_weight(g.full_graph(), w) == w.optimum()


def test_forced_at_least_min_with_equality_somewhere():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.choice((2, 3))
        g = bipartite_ground(n)
        full = g.full_graph()
        w = random_int_weights(rng, g, lo=1, hi=9)
        best = w.optimum()
        forced = {e: brute_min_weight_forced(full, w, e) for e in full.edge_ids()}
        assert all(v >= best for v in forced.values())
        for i in range(1, n + 1):
            row = [forced[g.edge_index(i, j)] for j in range(1, n + 1)]
            col = [forced[g.edge_index(j, i)] for j in range(1, n + 1)]
            assert best in row and best in col


def test_support_union_examples():
    g = bipartite_ground(2)
    assert support_union(w22()) == g.graph_from_edges([(1, 1), (2, 2)])
    assert support_union(WeightFunction.unit(g)) == g.full_graph()
    g3 = bipartite_ground(3)
    assert support_union(WeightFunction.unit(g3)) == g3.full_graph()
    sevens = WeightFunction(g, [7, 7, 7, 7])
    assert support_union(sevens) == g.full_graph()


def test_support_union_characterizations():
    # the support is both the set of edges whose forced minimum hits the
    # optimum, and the union of the enumerated minimum-weight matchings
    rng = random.Random(23)
    for _ in range(25):
        n = rng.choice((2, 3))
        g = bipartite_ground(n)
        full = g.full_graph()
        w = random_int_weights(rng, g)
        gw = support_union(w)
        best = brute_min_weight(full, w)
        by_forced = [
            e for e in full.edge_ids() if brute_min_weight_forced(full, w, e) == best
        ]
        assert gw.edge_ids() == by_forced
        fam = enumerate_min_weight_pms(w)
        assert union_mask(fam) == gw.edges


def test_support_union_forced_characterization_at_n5():
    # past exhaustive scale: the dual-based support still matches the
    # definition by forced minima, and brute force confirms the optimum
    rng = random.Random(89)
    g = bipartite_ground(5)
    full = g.full_graph()
    for _ in range(10):
        w = random_int_weights(rng, g, lo=1, hi=6)
        best = w.optimum()
        assert best == brute_min_weight(full, w)
        gw = support_union(w)
        for e in full.edge_ids():
            assert (brute_min_weight_forced(full, w, e) == best) == bool(
                gw.edges >> e & 1
            )


def test_every_matching_inside_support_is_minimum():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.choice((2, 3))
        g = bipartite_ground(n)
        w = random_int_weights(rng, g)
        gw = support_union(w)
        best = w.optimum()
        for m in enumerate_perfect_matchings(gw):
            assert w.weight_of(m) == best


def test_enumerate_min_weight_pms():
    g = bipartite_ground(2)
    fam = enumerate_min_weight_pms(w22())
    assert [m.edge_pairs() for m in fam] == [[(1, 1), (2, 2)]]

    g3 = bipartite_ground(3)
    assert len(enumerate_min_weight_pms(WeightFunction.unit(g3))) == 6

    g1 = bipartite_ground(1)
    fam1 = enumerate_min_weight_pms(WeightFunction.unit(g1))
    assert [m.edge_pairs() for m in fam1] == [[(1, 1)]]

    rng = random.Random(31)
    for _ in range(20):
        w = random_int_weights(rng, g3)
        fam = enumerate_min_weight_pms(w)
        masks = [m.edges for m in fam]
        assert masks and len(set(masks)) == len(masks)
        assert union_mask(fam) == support_union(w).edges


def test_min_weight_family_equals_permutation_scan():
    # same Family, same order, with no weight filter behind the enumeration
    rng = random.Random(43)
    for n in (1, 2, 3, 4):
        g = bipartite_ground(n)
        weightings = [WeightFunction.unit(g)]
        for _ in range(6):
            weightings.append(random_int_weights(rng, g))
            weightings.append(random_rational_weights(rng, g))
            weightings.append(random_int_weights(rng, g, lo=0, hi=1))  # ties
        for w in weightings:
            assert enumerate_min_weight_pms(w) == min_weight_family(g, w)


def test_contains_min_weight_pm_matches_enumeration():
    rng = random.Random(37)
    for n in (2, 3):
        g = bipartite_ground(n)
        for _ in range(5):
            w = random_int_weights(rng, g)
            fam = enumerate_min_weight_pms(w)
            for mask in range(1 << g.edge_count):
                graph = Graph(g, mask)
                want = any(m.edges & ~graph.edges == 0 for m in fam)
                assert contains_min_weight_pm(graph, w) == want


def test_pm_support_equals_union_of_matchings():
    rng = random.Random(41)
    for n in (2, 3):
        g = bipartite_ground(n)
        for _ in range(60):
            graph = random_graph(rng, g)
            fam = enumerate_perfect_matchings(graph)
            want = 0
            for m in fam:
                want |= m.edges
            assert pm_support(graph).edges == want


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("3/6") == Fraction(1, 2)
    for bad in ("-1", "1.5", "a", "1/-2", "3/0", ""):
        with pytest.raises(InputError):
            parse_rational(bad)


def test_weight_function_validation():
    g = bipartite_ground(2)
    with pytest.raises(InputError):
        WeightFunction(g, [1, 2, 3])
    with pytest.raises(InputError):
        WeightFunction(g, [1, 2, 3, -1])
    with pytest.raises(InputError):
        WeightFunction(complete_ground(4), [1] * 6)
    # inexact weights are refused, not expanded to binary fractions
    for bad in (0.1, float("nan"), float("inf"), True, "nan", None):
        with pytest.raises(InputError):
            WeightFunction(g, [1, 2, 3, bad])
    assert WeightFunction(g, [1, "1/10", Fraction(3, 2), 0]).weights[1] == Fraction(1, 10)


def test_weight_file_round_trip():
    g = bipartite_ground(2)
    w = WeightFunction(g, [1, Fraction(1, 2), 2, 1])
    text = "".join(
        f"{i} {j} {w.weights[k]}\n" for k, (i, j) in enumerate(g.edge_pairs())
    )
    assert parse_weight_function("bipartite 2\n" + text) == w


def test_weight_file_errors():
    ok = "bipartite 2\n1 1 1\n1 2 2\n2 1 2\n2 2 1\n"
    assert parse_weight_function(ok).weights == (1, 2, 2, 1)
    dup = "bipartite 2\n1 1 1\n1 1 2\n2 1 2\n2 2 1\n"
    with pytest.raises(InputError):
        parse_weight_function(dup)
    missing = "bipartite 2\n1 1 1\n1 2 2\n2 1 2\n"
    with pytest.raises(InputError):
        parse_weight_function(missing)
    with pytest.raises(InputError):
        parse_weight_function("complete 4\n" + ok.split("\n", 1)[1])
    with pytest.raises(InputError):
        parse_weight_function("bipartite 2\n1 1 -3\n1 2 2\n2 1 2\n2 2 1\n")
    with pytest.raises(InputError):
        parse_weight_function("")


def test_tight_mask_is_cached(monkeypatch):
    rng = random.Random(113)
    g = bipartite_ground(5)
    w = random_int_weights(rng, g, 1, 3)
    first = w.tight_mask()
    assert first == WeightFunction(g, w.weights).tight_mask()

    def no_solve(self):
        raise AssertionError("the tight mask was computed again")

    monkeypatch.setattr(WeightFunction, "_solve", no_solve)
    assert w.tight_mask() == first
    assert contains_min_weight_pm(g.full_graph(), w)
    with pytest.raises(AssertionError):
        WeightFunction(g, w.weights).tight_mask()
