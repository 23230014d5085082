import random

import pytest

from matchcover import (
    Family,
    Graph,
    GroundGraph,
    InputError,
    bipartite_ground,
    complete_ground,
    component_count,
    cyclomatic_number,
    edge_list_str,
    parse_graph,
)
from matchcover.subsets import canonical_sorted
from oracles import bfs_component_count, canonical_key, ground_pairs, random_graph


def test_edge_index_bipartite():
    g = bipartite_ground(3)
    assert g.edge_index(1, 1) == 0
    assert g.edge_index(2, 3) == 5
    assert g.edge_index(3, 3) == 8
    assert g.edge_pair(5) == (2, 3)


def test_edge_index_complete():
    g = complete_ground(4)
    assert g.edge_index(1, 2) == 0
    assert g.edge_index(2, 1) == 0
    assert g.edge_index(3, 4) == 5
    assert g.edge_count == 6
    assert [g.edge_pair(k) for k in range(6)] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]


def test_edge_pair_inverts_edge_index():
    grounds = [bipartite_ground(n) for n in range(1, 6)]
    grounds += [complete_ground(m) for m in range(1, 8)]
    for ground in grounds:
        pairs = ground_pairs(ground)
        assert ground.edge_count == len(pairs)
        for k, (u, v) in enumerate(pairs):
            assert ground.edge_index(u, v) == k
            assert ground.edge_pair(k) == (u, v)
            if ground.mode == "complete":
                assert ground.edge_index(v, u) == k
        for k in (-1, len(pairs)):
            with pytest.raises(InputError):
                ground.edge_pair(k)


def test_a_huge_ground_holds_no_edge_table():
    # 10^12 edges: a table of them could not be built at all
    g = bipartite_ground(10**6)
    assert g.edge_count == 10**12
    assert g.edge_index(10**6, 10**6) == 10**12 - 1
    assert g.edge_pair(10**12 - 1) == (10**6, 10**6)
    assert g.edge_pair(g.edge_index(12345, 678901)) == (12345, 678901)
    with pytest.raises(InputError):
        g.edge_index(10**6 + 1, 1)
    k = complete_ground(10**6)
    assert k.edge_pair(k.edge_index(999999, 3)) == (3, 999999)


def test_edge_index_rejects_bad_pairs():
    with pytest.raises(InputError):
        bipartite_ground(3).edge_index(0, 1)
    with pytest.raises(InputError):
        bipartite_ground(3).edge_index(1, 4)
    with pytest.raises(InputError):
        complete_ground(4).edge_index(2, 2)
    for bad in (1.0, True, "1"):  # vertices are ints, not their look-alikes
        with pytest.raises(InputError, match=rf"\({bad!r}, 1\) is not an edge"):
            bipartite_ground(3).edge_index(bad, 1)
        with pytest.raises(InputError):
            complete_ground(4).edge_index(2, bad)
    with pytest.raises(InputError):
        GroundGraph("bipartite", 0)
    with pytest.raises(InputError):
        GroundGraph("triangular", 3)


def test_component_count():
    g22 = bipartite_ground(2)
    assert component_count(g22.empty_graph()) == 4
    g33 = bipartite_ground(3)
    pm = g33.graph_from_edges([(1, 1), (2, 2), (3, 3)])
    assert component_count(pm) == 3
    assert component_count(g22.full_graph()) == 1


def test_cyclomatic_number():
    g33 = bipartite_ground(3)
    pm = g33.graph_from_edges([(1, 1), (2, 2), (3, 3)])
    assert cyclomatic_number(pm) == 0
    assert cyclomatic_number(bipartite_ground(2).full_graph()) == 1
    assert cyclomatic_number(g33.full_graph()) == 4


def test_component_count_matches_bfs():
    rng = random.Random(11)
    grounds = [bipartite_ground(3), bipartite_ground(4), complete_ground(6)]
    for trial in range(1000):
        g = random_graph(rng, grounds[trial % len(grounds)])
        assert component_count(g) == bfs_component_count(g)
    # K_{40,40} at densities from a few components to hundreds
    k40 = bipartite_ground(40)
    for trial in range(200):
        density = (0.005, 0.02, 0.05, 0.2)[trial % 4]
        edges = sum(1 << k for k in range(1600) if rng.random() < density)
        g = Graph(k40, edges)
        assert component_count(g) == bfs_component_count(g)


def test_cyclomatic_vs_spanning_forest():
    # chi = |E| - (spanning forest size) and is never negative
    rng = random.Random(13)
    for _ in range(300):
        g = random_graph(rng, complete_ground(6))
        forest = g.ground.vertex_count - bfs_component_count(g)
        assert cyclomatic_number(g) == g.edge_count - forest
        assert cyclomatic_number(g) >= 0


def test_graph_value_semantics():
    g = bipartite_ground(2)
    a = g.graph_from_edges([(1, 1)])
    b = g.graph_from_edges([(1, 1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # the range check takes exactly the masks below 2^E, booleans included
    assert Graph(g, (1 << 4) - 1) == g.full_graph()
    assert Graph(g, True).edges == 1 and Graph(g, False).is_empty
    for bad in (1 << 4, -1, -(1 << 4)):
        with pytest.raises(InputError):
            Graph(g, bad)


def test_family_validation():
    g = bipartite_ground(2)
    m = g.graph_from_edges([(1, 1)])
    with pytest.raises(InputError):
        Family(g, [m, m])
    with pytest.raises(InputError):
        Family(g, [bipartite_ground(3).empty_graph()])
    fam = Family(g, [m, g.full_graph()])
    assert len(fam) == 2 and m in fam


def test_text_format_round_trip():
    g = complete_ground(6)
    graph = g.graph_from_edges([(1, 2), (3, 4), (5, 6)])
    assert parse_graph("complete 6\n1 2\n3 4\n5 6\n", g) == graph

    text = """
    # a comment line
    bipartite 2

    1 1   # trailing comment
    2 2
    """
    parsed = parse_graph(text, bipartite_ground(2))
    assert parsed == bipartite_ground(2).graph_from_edges([(1, 1), (2, 2)])
    assert edge_list_str(parsed) == "1,1 2,2"
    assert edge_list_str(bipartite_ground(2).empty_graph()) == "{}"


def test_parse_graph_errors():
    g2 = bipartite_ground(2)
    with pytest.raises(InputError):
        parse_graph("", g2)
    with pytest.raises(InputError):
        parse_graph("bipartite 2\n1\n", g2)
    with pytest.raises(InputError):
        parse_graph("bipartite 2\n1 3\n", g2)
    with pytest.raises(InputError):
        parse_graph("bipartite 2\na b\n", g2)
    with pytest.raises(InputError):
        parse_graph("bipartite 2\n1 1\n", ground=bipartite_ground(3))
    with pytest.raises(TypeError):
        parse_graph("bipartite 2\n1 1\n")  # the expected ground is required


def test_canonical_sorted_orders_like_canonical_key():
    rng = random.Random(127)
    for ground, pool_size in (
        (bipartite_ground(3), 7),
        (complete_ground(6), 7),
        (bipartite_ground(20), 7),
        (bipartite_ground(20), 90),  # a support wider than 64 bits
    ):
        # few edges from a small pool, so that edge counts tie often
        pool = rng.sample(range(ground.edge_count), pool_size)
        masks = {sum(1 << k for k in rng.sample(pool, rng.randint(1, 4))) for _ in range(300)}
        masks = [0, *masks]  # the empty mask too
        rng.shuffle(masks)
        want = sorted(masks, key=lambda m: canonical_key(Graph(ground, m)))
        assert canonical_sorted(masks) == want
    assert canonical_sorted([]) == [] and canonical_sorted([0]) == [0]
