import math
import random

import pytest

from matchcover import (
    Family,
    Graph,
    InputError,
    Lattice,
    StructureViolationError,
    WeightFunction,
    bipartite_ground,
    build_lattice,
    complete_ground,
    covered_closure,
    cyclomatic_number,
    enumerate_min_weight_pms,
    enumerate_perfect_matchings,
)
from matchcover import lattice as lattice_module
from oracles import (
    eulerian_mobius_check,
    pairwise_is_lattice,
    pairwise_order_masks,
    pattern_weights,
    random_int_weights,
)


def pm_lattice(n):
    fam = enumerate_perfect_matchings(bipartite_ground(n).full_graph())
    return build_lattice(covered_closure(fam))


def k6_lattice():
    fam = enumerate_perfect_matchings(complete_ground(6).full_graph())
    return build_lattice(covered_closure(fam))


def test_diamond_structure():
    lat = pm_lattice(2)
    g = bipartite_ground(2)
    m1 = g.graph_from_edges([(1, 1), (2, 2)])
    m2 = g.graph_from_edges([(1, 2), (2, 1)])
    assert len(lat) == 4
    assert lat.bottom == g.empty_graph()
    assert lat.top == g.full_graph()
    assert set(lat.covers()) == {
        (g.empty_graph(), m1),
        (g.empty_graph(), m2),
        (m1, g.full_graph()),
        (m2, g.full_graph()),
    }


def test_two_element_chain():
    lat = pm_lattice(1)
    assert len(lat) == 2
    assert lat.level_counts() == (1, 1)


def test_meet_join_examples():
    lat = pm_lattice(2)
    g = bipartite_ground(2)
    m1 = g.graph_from_edges([(1, 1), (2, 2)])
    m2 = g.graph_from_edges([(1, 2), (2, 1)])
    assert lat.join(m1, m2) == g.full_graph()
    assert lat.meet(m1, m2) == g.empty_graph()
    assert lat.join(m1, g.empty_graph()) == m1
    assert lat.meet(m1, g.full_graph()) == m1
    with pytest.raises(InputError):
        lat.meet(m1, g.graph_from_edges([(1, 1)]))


def test_verify_lattice_true_cases():
    assert pm_lattice(2).is_lattice()
    assert pm_lattice(3).is_lattice()
    assert k6_lattice().is_lattice()


def test_verify_lattice_detects_violation():
    # two maximal common lower bounds for the 7-edge elements: not a lattice
    g = bipartite_ground(2)
    a = Graph(g, 0b0001)
    b = Graph(g, 0b0010)
    c = Graph(g, 0b0111)
    d = Graph(g, 0b1011)
    poset = Lattice([g.empty_graph(), a, b, c, d, g.full_graph()])
    assert not poset.is_lattice()
    with pytest.raises(StructureViolationError):
        poset.meet(c, d)
    with pytest.raises(StructureViolationError):
        poset.join(a, b)


def shift_lattice(n, shifts):
    """Unions of the cyclic-shift matchings i -> i + s of K_{n,n}."""
    g = bipartite_ground(n)
    family = [
        g.graph_from_edges([(i, (i + s - 1) % n + 1) for i in range(1, n + 1)])
        for s in shifts
    ]
    return build_lattice(covered_closure(Family(g, family)))


def blocks_lattice(n, rows):
    """Zero weight on the diagonal and on the 2x2 blocks at rows (r, r + 1),
    weight 1 elsewhere: 2^len(rows) minimum-weight matchings."""
    weights = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            zero = i == j or any({i, j} <= {r, r + 1} for r in rows)
            weights.append(0 if zero else 1)
    w = WeightFunction(bipartite_ground(n), weights)
    return build_lattice(covered_closure(enumerate_min_weight_pms(w)))


def test_is_lattice_matches_pairwise_check():
    lattices = [pm_lattice(n) for n in (1, 2, 3)] + [k6_lattice()]
    g4 = bipartite_ground(4)
    for pattern in ("0000000001000001", "1000000000001000", "0110100101101001"):
        w = pattern_weights(g4, pattern)
        lattices.append(build_lattice(covered_closure(enumerate_min_weight_pms(w))))
    lattices.append(shift_lattice(8, range(3)))
    for lat in lattices:
        assert lat.is_lattice() is pairwise_is_lattice(lat) is True


def test_is_lattice_on_hand_built_posets():
    g = bipartite_ground(2)
    # a lattice that is not union-closed: {1} | {2} is missing, so the
    # certificate fails and the pairwise join check answers
    poset = Lattice([g.empty_graph(), Graph(g, 0b001), Graph(g, 0b010), Graph(g, 0b111)])
    assert poset.is_lattice() and pairwise_is_lattice(poset)
    rng = random.Random(71)
    seen = set()
    for ground in (bipartite_ground(2), bipartite_ground(3)):
        full = ground.full_graph().edges
        for _ in range(150):
            masks = {0, full} | {
                rng.getrandbits(ground.edge_count) for _ in range(rng.randint(1, 8))
            }
            poset = Lattice([Graph(ground, m) for m in masks])
            answer = poset.is_lattice()
            assert answer == pairwise_is_lattice(poset)
            union_closed = all(a | b in masks for a in masks for b in masks)
            seen.add((answer, union_closed))
    assert seen == {(True, True), (True, False), (False, False)}


def test_order_masks_match_pairwise_scan(monkeypatch):
    cases = [
        shift_lattice(8, range(3)),  # 64 edges: one full 64-bit word
        shift_lattice(9, range(3)),  # 81 edges: two words
        blocks_lattice(20, (1, 7, 19)),  # 400 edges: seven words
    ]
    assert [len(lat) for lat in cases] == [8, 8, 28]
    for lat in cases:
        assert (lat._down, lat._up) == pairwise_order_masks(lat)
    # blocks of a few rows each
    monkeypatch.setattr(lattice_module, "_BLOCK_WORDS", 100)
    lat = pm_lattice(3)
    assert (lat._down, lat._up) == pairwise_order_masks(lat)


def test_order_masks_of_the_n4_lattice():
    # 7,444 elements take about 210 blocks; scan every 41st row pairwise
    lat = pm_lattice(4)
    assert len(lat) ** 2 > lattice_module._BLOCK_WORDS
    masks = [g.edges for g in lat.elements]
    for i in range(0, len(masks), 41):
        up = sum(1 << j for j, m in enumerate(masks) if masks[i] & ~m == 0)
        down = sum(1 << j for j, m in enumerate(masks) if m & ~masks[i] == 0)
        assert (lat._down[i], lat._up[i]) == (down, up)


def test_birkhoff_f_vector():
    # the covered graphs of K_{n,n} are the faces of the Birkhoff polytope B_n,
    # and the rank of a face is its dimension plus one
    expected = {
        2: (1, 2, 1),
        3: (1, 6, 15, 18, 9, 1),
        4: (1, 24, 240, 978, 1968, 2176, 1392, 528, 120, 16, 1),
    }
    for n, counts in expected.items():
        assert pm_lattice(n).level_counts() == counts
        f = counts[1:]
        assert sum((-1) ** d * fd for d, fd in enumerate(f)) == 1  # Euler
        assert f[0] == math.factorial(n)  # vertices: the permutation matrices
        edges = math.factorial(n) // 2 * sum(
            math.comb(n, k) * math.factorial(k - 1) for k in range(2, n + 1)
        )
        assert f[1] == edges
        if n >= 3:
            assert f[-2] == n * n  # facets: x_ij >= 0


def test_lattice_requires_unique_extremes():
    g = bipartite_ground(2)
    with pytest.raises(StructureViolationError):
        Lattice([Graph(g, 0b0001), Graph(g, 0b0010)])


def test_mobius_examples():
    lat = pm_lattice(2)
    g = bipartite_ground(2)
    assert lat.mobius(g.empty_graph()) == 1
    assert lat.mobius(g.graph_from_edges([(1, 1), (2, 2)])) == -1
    assert lat.mobius(g.full_graph()) == 1


def test_mobius_row_sums_vanish():
    lat = pm_lattice(3)
    table = lat.mobius_table()
    down = {x: [z for z in lat.elements if lat.leq(z, x)] for x in lat.elements}
    for x in lat.elements:
        if x == lat.bottom:
            continue
        assert sum(table[z] for z in down[x]) == 0


def test_rank_equals_cyclomatic_plus_one_and_sign_rule():
    for n in (1, 2, 3):
        lat = pm_lattice(n)
        labels = lat.rank_labels()
        assert labels.graded
        table = lat.mobius_table()
        for g in lat.elements:
            rho = labels.ranks[g]
            if g == lat.bottom:
                assert rho == 0
            else:
                assert rho == cyclomatic_number(g) + 1
            assert table[g] == (-1) ** rho


def test_weighted_lattice_mobius_matches_unweighted():
    rng = random.Random(61)
    for n in (2, 3):
        g = bipartite_ground(n)
        big = pm_lattice(n)
        big_table = big.mobius_table()
        for _ in range(10):
            w = random_int_weights(rng, g)
            small = build_lattice(covered_closure(enumerate_min_weight_pms(w)))
            small_table = small.mobius_table()
            for element, value in small_table.items():
                assert value == big_table[element]


def test_covers_regenerate_order():
    for lat in (pm_lattice(2), pm_lattice(3)):
        children = {g: [] for g in lat.elements}
        for lo, hi in lat.covers():
            children[lo].append(hi)
        reach = {g: {g} for g in lat.elements}
        for g in reversed(lat.elements):  # canonical order is a linear extension
            for h in children[g]:
                reach[g] |= reach[h]
        for x in lat.elements:
            for y in lat.elements:
                assert (y in reach[x]) == lat.leq(x, y)


def test_order_is_a_partial_order():
    lat = pm_lattice(3)
    rng = random.Random(67)
    els = lat.elements
    for _ in range(300):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert lat.leq(x, x)
        if lat.leq(x, y) and lat.leq(y, x):
            assert x == y
        if lat.leq(x, y) and lat.leq(y, z):
            assert lat.leq(x, z)


def test_rank_labels_examples():
    lat = pm_lattice(2)
    assert lat.level_counts() == (1, 2, 1)
    lat3 = pm_lattice(3)
    labels = lat3.rank_labels()
    assert labels.ranks[bipartite_ground(3).full_graph()] == 5
    assert lat3.height() == 5


def test_k6_lattice_is_not_graded():
    lat = k6_lattice()
    labels = lat.rank_labels()
    assert not labels.graded
    lo, hi = labels.violation
    assert (lo, hi) in lat.covers()
    assert labels.ranks[hi] != labels.ranks[lo] + 1


def test_eulerian_checks():
    assert pm_lattice(2).is_eulerian()
    assert pm_lattice(3).is_eulerian()
    assert eulerian_mobius_check(pm_lattice(2))
    assert eulerian_mobius_check(pm_lattice(3))
    check = k6_lattice().eulerian_check()
    assert not check.eulerian
    assert check.reason == "not graded"


def test_interval():
    lat = pm_lattice(3)
    g = bipartite_ground(3)
    assert len(lat.interval(lat.bottom, lat.bottom)) == 1
    whole = lat.interval(lat.bottom, lat.top)
    assert len(whole) == len(lat)
    m = g.graph_from_edges([(1, 1), (2, 2), (3, 3)])
    other = g.graph_from_edges([(1, 2), (2, 1), (3, 3)])
    with pytest.raises(InputError):
        lat.interval(m, other)


def test_find_pentagon():
    assert pm_lattice(2).find_pentagon() is None
    assert pm_lattice(1).find_pentagon() is None
    lat = k6_lattice()
    found = lat.find_pentagon()
    assert found is not None
    b, a, c1, c2, t = found
    for lo, hi in ((b, a), (a, t), (b, c1), (c1, c2), (c2, t)):
        assert lat.leq(lo, hi) and lo != hi
    for x in (c1, c2):
        assert not lat.leq(a, x) and not lat.leq(x, a)
    assert lat.join(a, c1) == t
    assert lat.meet(a, c2) == b
    assert lat.join(a, c2) == t
    assert lat.meet(a, c1) == b


def test_wide_ground_uses_the_plain_subset_path():
    # K_{8,8} has 64 edge bits, so its masks fill a whole 64-bit word
    g = bipartite_ground(8)
    shifts = []
    for s in range(3):
        shifts.append(
            g.graph_from_edges([(i, (i + s - 1) % 8 + 1) for i in range(1, 9)])
        )
    from matchcover import Family, covered_closure

    lat = build_lattice(covered_closure(Family(g, shifts)))
    assert len(lat) == 8  # 3 matchings, 3 pair unions, 1 triple union, bottom
    assert lat.is_lattice()
    m0, m1, m2 = shifts
    assert lat.meet(m0, m1) == g.empty_graph()
    assert lat.join(m0, m1).edges == m0.edges | m1.edges
    assert lat.mobius(lat.top) == -1  # Boolean lattice on three disjoint atoms
    assert lat.level_counts() == (1, 3, 3, 1)


def test_dot_export():
    lat = pm_lattice(2)
    dot = lat.to_dot()
    assert dot.startswith("digraph lattice {")
    assert 'n0 [label="{}"];' in dot
    assert "n1 -> n3;" in dot
    assert "rank=same" in dot


def test_json_export():
    import json

    lat = pm_lattice(2)
    data = json.loads(lat.to_json())
    assert data["ground"] == {"mode": "bipartite", "size": 2}
    assert len(data["elements"]) == 4
    assert data["graded"] is True
    assert data["mobius"] == [1, -1, -1, 1]
    assert data["ranks"] == [0, 1, 1, 2]
    assert sorted(data["covers"]) == [[0, 1], [0, 2], [1, 3], [2, 3]]
