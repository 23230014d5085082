import random
import sys
from fractions import Fraction
from math import lcm

import numpy as np
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
from matchcover.graphs import _iter_bits
from matchcover.matching import _has_perfect_matchings, _kuhn_matching
from oracles import (
    brute_min_weight,
    brute_min_weight_forced,
    brute_pm_masks_bipartite,
    brute_pm_masks_complete,
    brute_pm_support,
    canonical_key,
    ground_pairs,
    min_weight_family,
    random_graph,
    random_int_weights,
    random_rational_weights,
    weight_of,
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


def test_bipartite_existence_matches_permutation_scan():
    g = bipartite_ground(3)
    for mask in range(1 << g.edge_count):
        graph = Graph(g, mask)
        assert has_perfect_matching(graph) == bool(brute_pm_masks_bipartite(graph))
    rng = random.Random(59)
    for n in range(1, 7):
        g = bipartite_ground(n)
        for _ in range(40):
            graph = random_graph(rng, g)
            assert has_perfect_matching(graph) == bool(brute_pm_masks_bipartite(graph))


def test_row_dp_matches_has_perfect_matching():
    # every subgraph up to K_{4,4}; above it seeded masks of densities 1/2
    # and 1/4, so both answers occur
    rng = random.Random(61)
    for n in range(1, 7):
        g = bipartite_ground(n)
        if n <= 4:
            masks = list(range(1 << g.edge_count))
        else:
            masks = [rng.getrandbits(g.edge_count) for _ in range(300)]
            masks += [rng.getrandbits(g.edge_count) & m for m in masks]
        got = _has_perfect_matchings(np.array(masks, dtype=np.int64), n)
        want = [has_perfect_matching(Graph(g, m)) for m in masks]
        assert got.tolist() == want
        if n > 4:
            assert 0 < sum(want) < len(want)
    # on the tight edges of a tie-heavy weighting (a band of zeros, with
    # five minimum-weight matchings), it is the minimum-weight oracle
    g = bipartite_ground(4)
    w = WeightFunction(g, [0 if abs(i - j) <= 1 else 1 for i in range(4) for j in range(4)])
    assert len(enumerate_min_weight_pms(w)) == 5
    masks = np.arange(1 << g.edge_count, dtype=np.int64)
    got = _has_perfect_matchings(masks & w.tight_mask(), 4)
    assert got.tolist() == [contains_min_weight_pm(Graph(g, m), w) for m in range(len(masks))]


def test_kuhn_follows_an_augmenting_path_through_every_row():
    # row i sees columns i and i + 1, the last row only column 0: the greedy
    # pass leaves the last row to one augmenting path through all the others
    n = 3000
    rows = [0b11 << i for i in range(n - 1)] + [1]
    size, match_right = _kuhn_matching(rows)
    assert size == n
    assert sorted(match_right) == list(range(n))
    assert all(rows[i] >> j & 1 for j, i in enumerate(match_right))


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


def _induced_pm_masks(G, vertices):
    """Perfect matchings of G's subgraph induced on a vertex bitmask, by the
    brute scans on a ground of just those vertices, mapped back to G."""
    ground = G.ground
    n = ground.size
    kept = [v for v in range(1, n + 1) if vertices >> v - 1 & 1]
    if ground.mode == "bipartite":
        right = [v for v in range(1, n + 1) if vertices >> n + v - 1 & 1]
        even, make, brute = len(kept) == len(right), bipartite_ground, brute_pm_masks_bipartite
    else:
        right = kept
        even, make, brute = len(kept) % 2 == 0, complete_ground, brute_pm_masks_complete
    if not even:
        return []
    if not kept:
        return [0]
    small = make(len(kept))
    ids = [ground.edge_index(kept[a - 1], right[b - 1]) for a, b in ground_pairs(small)]
    induced = sum(1 << k for k, e in enumerate(ids) if G.edges >> e & 1)
    return [sum(1 << ids[k] for k in _iter_bits(m)) for m in brute(Graph(small, induced))]


def test_enumeration_on_a_vertex_set_matches_the_induced_subgraph():
    rng = random.Random(23)
    grounds = [bipartite_ground(n) for n in range(1, 6)] + [complete_ground(m) for m in (2, 4, 6, 8)]
    for g in grounds:
        for _ in range(40):
            graph = Graph(g, rng.getrandbits(g.edge_count) | rng.getrandbits(g.edge_count))
            vertices = rng.getrandbits(g.vertex_count)
            want = sorted((Graph(g, m) for m in _induced_pm_masks(graph, vertices)), key=canonical_key)
            assert list(enumerate_perfect_matchings(graph, vertices)) == want
        whole = (1 << g.vertex_count) - 1
        assert enumerate_perfect_matchings(graph, whole) == enumerate_perfect_matchings(graph)


def test_enumeration_runs_deeper_than_the_recursion_limit():
    # a Hamilton cycle of K_{400,400} has two perfect matchings, and the
    # search fixes one row per level, 400 levels deep
    n = 400
    cycle = bipartite_ground(n).graph_from_edges(
        [(i, i) for i in range(1, n + 1)] + [(i, i % n + 1) for i in range(1, n + 1)]
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        family = enumerate_perfect_matchings(cycle)
    finally:
        sys.setrecursionlimit(limit)
    assert len(family) == 2


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


def _tied_rational_weights(rng, ground):
    """A few small fractions plus rational potentials u_i + v_j, so that
    many perfect matchings tie at the optimum."""
    n = ground.size
    u = [Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(n)]
    v = [Fraction(rng.randint(0, 6), rng.choice((1, 4, 5))) for _ in range(n)]
    base = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(7, 6)]
    return WeightFunction(
        ground, [rng.choice(base) + u[i] + v[j] for i in range(n) for j in range(n)]
    )


def test_hungarian_on_fractions_agrees_with_the_scaled_integers():
    # the same assignment, and optimum and potentials scaled by L, the lcm of
    # the denominators: a positive factor keeps every comparison, ties too
    rng = random.Random(137)
    for trial in range(200):
        n = trial % 6 + 1
        g = bipartite_ground(n)
        w = (_tied_rational_weights, random_rational_weights)[trial % 2](rng, g)
        cost = [[w.weights[i * n + j] for j in range(n)] for i in range(n)]
        scale = lcm(*(c.denominator for row in cost for c in row))
        best, row_to_col, u, v = hungarian(cost)
        ibest, irow_to_col, iu, iv = hungarian([[int(c * scale) for c in row] for row in cost])
        assert irow_to_col == row_to_col
        assert Fraction(ibest, scale) == best == w.optimum()
        assert [Fraction(x, scale) for x in iu + iv] == u + v


def test_tight_mask_and_support_union_match_the_rational_certificate():
    rng = random.Random(139)
    for trial in range(150):
        n = trial % 6 + 1
        g = bipartite_ground(n)
        w = (_tied_rational_weights, random_rational_weights)[trial % 2](rng, g)
        cost = [[w.weights[i * n + j] for j in range(n)] for i in range(n)]
        _, _, u, v = hungarian(cost)
        tight = sum(
            1 << (i * n + j) for i in range(n) for j in range(n) if cost[i][j] == u[i] + v[j]
        )
        assert w.tight_mask() == tight
        union = 0
        for m in min_weight_family(g, w):
            union |= m.edges
        assert support_union(w) == pm_support(Graph(g, tight)) == Graph(g, union)


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
            assert weight_of(w, m) == best


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


def _matching(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return sum(1 << (i * n + j) for i, j in enumerate(perm))


def _planted(rng, n):
    """Union of 1 to 4 random perfect matchings of K_{n,n}."""
    mask = 0
    for _ in range(rng.randint(1, 4)):
        mask |= _matching(rng, n)
    return mask


def _block_union(rng, n):
    """Random blocks along a shuffled diagonal, with random edges from each
    block's rows to the columns of later blocks; no perfect matching uses
    those, since the later blocks need all their columns for their rows."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, n - sum(sizes)))
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    cols = list(range(n))
    rng.shuffle(cols)
    mask = 0
    for start, size in zip(starts, sizes):
        for i in range(start, start + size):
            mask |= 1 << (i * n + cols[i])  # each block keeps a perfect matching
            for jj in range(start, n):
                if rng.random() < (0.6 if jj < start + size else 0.2):
                    mask |= 1 << (i * n + cols[jj])
    return mask


def _pm_support_cases(rng, n, count):
    """Random graphs, unions of planted matchings, a matching minus an edge,
    block unions and graphs without a perfect matching on K_{n,n}."""
    g = bipartite_ground(n)
    full_row = (1 << n) - 1
    for _ in range(count):
        yield random_graph(rng, g)
        yield Graph(g, _planted(rng, n))
        yield Graph(g, _block_union(rng, n))
        # no perfect matching: a matching less its edge in row r1, a random
        # graph with row r1 empty, then with rows r1 and r2 on one column
        r1, r2 = rng.sample(range(n), 2)
        c = rng.randrange(n)
        yield Graph(g, _matching(rng, n) & ~(full_row << (r1 * n)))
        mask = rng.getrandbits(g.edge_count) & ~(full_row << (r1 * n))
        yield Graph(g, mask)
        mask &= ~(full_row << (r2 * n))
        yield Graph(g, mask | 1 << (r1 * n + c) | 1 << (r2 * n + c))


def test_pm_support_equals_union_of_matchings():
    rng = random.Random(41)
    for n in range(2, 7):
        for graph in _pm_support_cases(rng, n, 12 if n < 6 else 4):
            want = 0
            for m in brute_pm_masks_bipartite(graph):
                want |= m
            assert pm_support(graph).edges == want == brute_pm_support(graph)


def test_pm_support_on_planted_matchings_in_k20():
    rng = random.Random(47)
    g = bipartite_ground(20)
    for _ in range(30):
        planted = _planted(rng, 20)
        extra = 0
        for _ in range(rng.randint(0, 6)):
            extra |= 1 << rng.randrange(g.edge_count)
        for mask in (planted, planted | extra, planted & ~extra):
            graph = Graph(g, mask)
            assert pm_support(graph).edges == brute_pm_support(graph)


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
        f"{i} {j} {w.weights[k]}\n" for k, (i, j) in enumerate(ground_pairs(g))
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
