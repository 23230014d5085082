import itertools
import json
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
    min_weight_pm_polynomial,
    pm_polynomial,
)
from matchcover import lattice as lattice_module
from oracles import (
    eulerian_mobius_check,
    memo_mobius,
    pairwise_eulerian_check,
    pairwise_is_lattice,
    pairwise_order_masks,
    pattern_weights,
    random_int_weights,
)

# 0/1 weightings of K_{4,4}, row-major, whose minimum-weight lattices the
# tests share
WEIGHTED_N4_PATTERNS = ("0000000001000001", "1000000000001000", "0110100101101001")


def pm_lattice(n):
    fam = enumerate_perfect_matchings(bipartite_ground(n).full_graph())
    return build_lattice(covered_closure(fam))


def k6_lattice():
    fam = enumerate_perfect_matchings(complete_ground(6).full_graph())
    return build_lattice(covered_closure(fam))


def k6_witness():
    return complete_ground(6).graph_from_edges(
        [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (4, 5), (2, 6), (3, 6), (5, 6)]
    )


def weighted_n4_lattice(pattern):
    w = pattern_weights(bipartite_ground(4), pattern)
    return build_lattice(covered_closure(enumerate_min_weight_pms(w)))


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
    lattices += [weighted_n4_lattice(p) for p in WEIGHTED_N4_PATTERNS]
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
    # the n = 3 lattice, with the Mobius rows packed a few at a time
    monkeypatch.setattr(lattice_module, "_BLOCK_WORDS", 100)
    lat = pm_lattice(3)
    assert (lat._down, lat._up) == pairwise_order_masks(lat)
    assert lat._mobius_numbers() == memo_mobius(lat)


def test_order_masks_of_the_n4_lattice():
    # 7,444 elements, more than one block of packed rows; scan every 41st
    # row pairwise
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
    lat = pm_lattice(2)
    data = json.loads(lat.to_json())
    assert data["ground"] == {"mode": "bipartite", "size": 2}
    assert len(data["elements"]) == 4
    assert data["graded"] is True
    assert data["mobius"] == [1, -1, -1, 1]
    assert data["ranks"] == [0, 1, 1, 2]
    assert sorted(data["covers"]) == [[0, 1], [0, 2], [1, 3], [2, 3]]


def subset_poset(ground, masks):
    return Lattice([Graph(ground, m) for m in masks])


def fin_sphere(m):
    """Faces (as vertex sets, one edge bit per vertex) of the bipyramid over
    an m-gon with one more triangle, the fin, on an equator edge, plus a
    bottom and a top. It is graded and every interval from the bottom is
    balanced, but upper intervals at the fin are not. The first failing
    pair, (m + 3, top), runs from the fin vertex and has odd length; the
    failing pairs of even length, from the fin's edges, come after it."""
    north, south, fin = m, m + 1, m + 2
    triangles = [(k, (k + 1) % m, apex) for k in range(m) for apex in (north, south)]
    triangles.append((0, 1, fin))
    masks = {0, (1 << (m + 3)) - 1}
    for t in triangles:
        for r in (1, 2, 3):
            masks.update(sum(1 << v for v in face) for face in itertools.combinations(t, r))
    return subset_poset(bipartite_ground(9), masks)


def order_test_posets():
    """Lattices and posets of every kind the tests build: covered-set
    lattices, an interval, weighted n = 4 shapes, hand-built posets, a
    non-graded one and a graded non-Eulerian one."""
    g2 = bipartite_ground(2)
    k6 = k6_lattice()
    posets = [pm_lattice(n) for n in (1, 2, 3)]
    posets += [k6, k6.interval(k6.bottom, k6_witness())]
    posets += [weighted_n4_lattice(p) for p in WEIGHTED_N4_PATTERNS]
    posets.append(subset_poset(g2, [0, 0b0001, 0b0010, 0b0111, 0b1011, 0b1111]))
    posets.append(subset_poset(g2, [0, 0b001, 0b010, 0b111]))
    posets.append(subset_poset(g2, [0, 0b0001, 0b0011, 0b1111]))  # a chain: graded
    posets.append(subset_poset(g2, [0, 0b0001, 0b0011, 0b0100, 0b1111]))  # not graded
    posets.append(subset_poset(g2, [0]))
    posets.append(fin_sphere(62))
    rng = random.Random(73)
    for ground in (bipartite_ground(2), bipartite_ground(3)):
        full = ground.full_graph().edges
        for _ in range(60):
            masks = {0, full} | {
                rng.getrandbits(ground.edge_count) for _ in range(rng.randint(1, 12))
            }
            posets.append(subset_poset(ground, masks))
    return posets


def eulerian_indices(lat):
    check = lat.eulerian_check()
    witness = check.witness and tuple(lat.index_of(g) for g in check.witness)
    return check.eulerian, check.reason, witness


def test_mobius_and_eulerian_match_the_oracles(monkeypatch):
    seen = set()
    for lat in order_test_posets():
        assert lat._mobius_numbers() == memo_mobius(lat)
        assert [lat.mobius(g) for g in lat.elements] == memo_mobius(lat)
        assert eulerian_indices(lat) == pairwise_eulerian_check(lat)
        seen.add(lat.eulerian_check().reason)
    assert seen == {None, "not graded", "interval"}
    # batches of one or two pairs, chunks of one row block each
    monkeypatch.setattr(lattice_module, "_BATCH_WORDS", 8)
    for lat in (fin_sphere(62), pm_lattice(3), weighted_n4_lattice(WEIGHTED_N4_PATTERNS[0])):
        assert eulerian_indices(lat) == pairwise_eulerian_check(lat)
    assert eulerian_indices(fin_sphere(62))[1:] == ("interval", (65, 379))


def test_mobius_is_exact_past_int64():
    # 66 levels of 3 incomparable elements on K_{15,15}: element (r, i) holds
    # every edge of the levels below r plus edge i of level r. Then
    # |mu| = 2^(r - 1) on level r, past 2^63 at the top levels.
    ground = bipartite_ground(15)
    masks = [0]
    for r in range(66):
        below = (1 << 3 * r) - 1
        masks += [below | 1 << (3 * r + i) for i in range(3)]
    masks.append((1 << 198) - 1)
    lat = subset_poset(ground, masks)
    mu = lat._mobius_numbers()
    for r in range(1, 67):
        assert mu[3 * r - 2 : 3 * r + 1] == [(-1) ** r * 2 ** (r - 1)] * 3
    assert mu[-1] == -(2**66)
    assert abs(mu[-2]) > 2**63
    assert mu == memo_mobius(lat)


def test_mobius_is_minus_the_coefficient():
    # Rota's crosscut theorem with the matchings as crosscut: the coefficient
    # of a covered graph x is -mu(bottom, x). The polynomials come from the
    # dense Mobius transform of the membership table, not from the lattice.
    cases = [(pm_lattice(n), pm_polynomial(n)) for n in (1, 2, 3, 4)]
    for pattern in WEIGHTED_N4_PATTERNS:
        w = pattern_weights(bipartite_ground(4), pattern)
        cases.append((weighted_n4_lattice(pattern), min_weight_pm_polynomial(w)))
    for lat, poly in cases:
        table = lat.mobius_table()
        assert len(poly) == len(lat) - 1
        for g in lat.elements:
            if g != lat.bottom:
                assert table[g] == -poly.coefficient(g)


def test_json_writer_matches_json_dumps():
    lattices = [pm_lattice(n) for n in (1, 2, 3)] + [k6_lattice()]
    lattices.append(weighted_n4_lattice(WEIGHTED_N4_PATTERNS[2]))
    lattices.append(subset_poset(bipartite_ground(2), [0]))  # no covers at all
    for lat in lattices:
        want = json.dumps(lat.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert lat.to_json() == want
    assert json.loads(lattices[-1].to_json())["covers"] == []
