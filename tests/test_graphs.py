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
from matchcover.graphs import mask_key
from oracles import bfs_component_count, canonical_key, random_graph


def test_edge_index_bipartite():
    g = bipartite_ground(3)
    assert g.edge_index(1, 1) == 0
    assert g.edge_index(2, 3) == 5
    assert g.edge_index(3, 3) == 8
    assert g.edge_endpoints(5) == (2, 3)


def test_edge_index_complete():
    g = complete_ground(4)
    assert g.edge_index(1, 2) == 0
    assert g.edge_index(2, 1) == 0
    assert g.edge_index(3, 4) == 5
    assert g.edge_count == 6
    assert [g.edge_endpoints(k) for k in range(6)] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]


def test_edge_index_rejects_bad_pairs():
    with pytest.raises(InputError):
        bipartite_ground(3).edge_index(0, 1)
    with pytest.raises(InputError):
        bipartite_ground(3).edge_index(1, 4)
    with pytest.raises(InputError):
        complete_ground(4).edge_index(2, 2)
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
    with pytest.raises(InputError):
        Graph(g, 1 << 4)


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


def test_mask_key_orders_like_canonical_key():
    rng = random.Random(127)
    for ground in (bipartite_ground(3), complete_ground(6), bipartite_ground(20)):
        # few edges from a small pool, so that edge counts tie often
        pool = rng.sample(range(ground.edge_count), 7)
        graphs = [
            Graph(ground, sum(1 << k for k in rng.sample(pool, rng.randint(0, 4))))
            for _ in range(300)
        ]
        by_mask = sorted(graphs, key=lambda g: mask_key(g.edges, ground.edge_count))
        assert by_mask == sorted(graphs, key=canonical_key)
