import random

import pytest

from matchcover import (
    Family,
    Graph,
    InfeasibleError,
    InputError,
    WeightFunction,
    bipartite_ground,
    canonical_key,
    coefficient_query,
    complete_ground,
    covered_closure,
    cyclomatic_number,
    enumerate_min_weight_pms,
    enumerate_perfect_matchings,
    format_covered_set,
    has_perfect_matching,
    is_covered,
    is_subgraph,
    min_weight,
    min_weight_forced,
    support_union,
    truth_table_transform,
)
from matchcover.covered import _bfs_closure_masks, _dense_closure_masks
from matchcover.subsets import DENSE_BIT_CAP, SupportBits
from oracles import brute_covered_masks, random_int_weights


def canonical_key_of(ground):
    return lambda mask: canonical_key(Graph(ground, mask))


def test_closure_of_k22_matchings():
    g = bipartite_ground(2)
    fam = enumerate_perfect_matchings(g.full_graph())
    cov = covered_closure(fam)
    assert len(cov) == 3
    assert [c.edge_pairs() for c in cov] == [
        [(1, 1), (2, 2)],
        [(1, 2), (2, 1)],
        [(1, 1), (1, 2), (2, 1), (2, 2)],
    ]


def test_closure_of_single_matching():
    g = bipartite_ground(3)
    m = g.graph_from_edges([(1, 1), (2, 2), (3, 3)])
    cov = covered_closure(Family(g, [m]))
    assert list(cov) == [m]


def test_closure_of_k33_matchings_is_odd():
    fam = enumerate_perfect_matchings(bipartite_ground(3).full_graph())
    cov = covered_closure(fam)
    assert len(cov) % 2 == 1
    assert set(c.edges for c in cov) == brute_covered_masks(fam)


def test_closure_is_union_closed():
    fam = enumerate_perfect_matchings(bipartite_ground(3).full_graph())
    cov = covered_closure(fam)
    masks = [c.edges for c in cov]
    for a in masks[:10]:
        for b in masks[::5]:
            assert cov.contains_mask(a | b)


def _random_family(rng, ground, support, size):
    masks = {rng.getrandbits(ground.edge_count) & support for _ in range(size)}
    return Family(ground, [Graph(ground, m) for m in sorted(masks - {0})])


def test_closure_dense_matches_bfs():
    rng = random.Random(61)
    cases = [
        (bipartite_ground(3), None),
        (bipartite_ground(4), None),
        (complete_ground(6), None),
        # an 18-edge support on the 400 edges of K_{20,20}
        (bipartite_ground(20), sum(1 << k for k in rng.sample(range(400), 18))),
    ]
    for ground, support in cases:
        support = ground.full_graph().edges if support is None else support
        for size in (1, 3, 7, 12):
            fam = _random_family(rng, ground, support, size)
            members = [m.edges for m in fam]
            bits = SupportBits(members)
            assert len(bits) <= DENSE_BIT_CAP
            dense = _dense_closure_masks(members, bits)
            bfs = sorted(_bfs_closure_masks(members), key=canonical_key_of(ground))
            assert dense == bfs
            assert set(dense) == brute_covered_masks(fam)
            assert [g.edges for g in covered_closure(fam)] == dense


def test_closure_rejects_bad_families():
    g = bipartite_ground(2)
    with pytest.raises(InputError):
        covered_closure(Family(g, []))
    with pytest.raises(InputError):
        covered_closure(Family(g, [g.empty_graph()]))


def test_is_covered():
    g = bipartite_ground(2)
    fam = enumerate_perfect_matchings(g.full_graph())
    assert is_covered(g.full_graph(), fam)
    extra = g.graph_from_edges([(1, 1), (2, 2), (1, 2)])
    assert not is_covered(extra, fam)
    assert not is_covered(g.empty_graph(), fam)
    with pytest.raises(InputError):
        is_covered(bipartite_ground(3).empty_graph(), fam)


def test_is_covered_matches_powerset_scan():
    rng = random.Random(43)
    g = bipartite_ground(3)
    fam = enumerate_perfect_matchings(g.full_graph())
    want = brute_covered_masks(fam)
    for _ in range(300):
        mask = rng.getrandbits(g.edge_count)
        assert is_covered(Graph(g, mask), fam) == (mask in want)


def test_coefficient_query_examples():
    g = bipartite_ground(2)
    w = WeightFunction(g, [1, 2, 2, 1])
    assert coefficient_query(g.graph_from_edges([(1, 1), (2, 2)]), w) == 1
    assert coefficient_query(g.graph_from_edges([(1, 2), (2, 1)]), w) == 0
    assert coefficient_query(g.empty_graph(), w) == 0

    full = g.full_graph()
    assert coefficient_query(full) == -1
    oracle_poly = truth_table_transform(
        lambda G: int(
            any(is_subgraph(m, G) for m in enumerate_perfect_matchings(full))
        ),
        g,
    )
    assert oracle_poly.coefficient(full) == -1


def test_coefficient_query_rejects_complete_mode():
    from matchcover import complete_ground

    with pytest.raises(InputError):
        coefficient_query(complete_ground(4).full_graph())


def _closure_coefficient(cov, graph):
    if graph in cov:
        return -1 if cyclomatic_number(graph) % 2 else 1
    return 0


def test_coefficient_query_agrees_with_closure_everywhere():
    rng = random.Random(47)
    for n in (2, 3):
        g = bipartite_ground(n)
        weight_choices = [None, random_int_weights(rng, g), random_int_weights(rng, g)]
        for w in weight_choices:
            if w is None:
                fam = enumerate_perfect_matchings(g.full_graph())
            else:
                fam = enumerate_min_weight_pms(w)
            cov = covered_closure(fam)
            for mask in range(1 << g.edge_count):
                graph = Graph(g, mask)
                assert coefficient_query(graph, w) == _closure_coefficient(cov, graph)


def test_coefficient_query_agrees_with_forced_edge_rule():
    # covered iff the graph has a matching and every edge's forced minimum
    # (within the graph) equals the global optimum
    rng = random.Random(53)
    g = bipartite_ground(3)
    w = random_int_weights(rng, g)
    best = min_weight(g.full_graph(), w)
    for mask in range(1 << g.edge_count):
        graph = Graph(g, mask)
        covered = bool(mask) and has_perfect_matching(graph)
        if covered:
            for e in graph.edge_ids():
                try:
                    if min_weight_forced(graph, w, e) != best:
                        covered = False
                        break
                except InfeasibleError:
                    covered = False
                    break
        want = (-1 if cyclomatic_number(graph) % 2 else 1) if covered else 0
        assert coefficient_query(graph, w) == want


def test_downward_hull():
    rng = random.Random(59)
    for n in (2, 3):
        g = bipartite_ground(n)
        unweighted = covered_closure(enumerate_perfect_matchings(g.full_graph()))
        for _ in range(20):
            w = random_int_weights(rng, g)
            gw = support_union(w)
            weighted = covered_closure(enumerate_min_weight_pms(w))
            hull = {c.edges for c in unweighted if is_subgraph(c, gw)}
            assert {c.edges for c in weighted} == hull
            assert len(weighted) % 2 == 1


def test_format_covered_set():
    g = bipartite_ground(2)
    cov = covered_closure(enumerate_perfect_matchings(g.full_graph()))
    assert format_covered_set(cov) == (
        "bipartite 2 3\n"
        "1,1 2,2\n"
        "1,2 2,1\n"
        "1,1 1,2 2,1 2,2\n"
    )
