import random
from fractions import Fraction
from math import factorial

import pytest

from matchcover import (
    Family,
    Graph,
    InputError,
    WeightFunction,
    bipartite_ground,
    coefficient_query,
    complete_ground,
    component_count,
    covered_closure,
    cyclomatic_number,
    enumerate_min_weight_pms,
    enumerate_perfect_matchings,
    has_perfect_matching,
    support_union,
    truth_table_transform,
)
from matchcover.covered import _bfs_closure_masks, _dense_closure_masks
from matchcover.subsets import DENSE_BIT_CAP, SupportBits
from oracles import (
    brute_covered_masks,
    brute_min_weight,
    brute_min_weight_forced,
    canonical_key,
    is_covered,
    random_int_weights,
)


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
            assert Graph(cov.ground, a | b) in cov


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
    cov = covered_closure(fam)
    for _ in range(300):
        graph = Graph(g, rng.getrandbits(g.edge_count))
        assert is_covered(graph, fam) == (graph.edges in want) == (graph in cov)


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
            any(m.edges & ~G.edges == 0 for m in enumerate_perfect_matchings(full))
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
    # (within the graph, by the permutation scan) equals the global optimum
    rng = random.Random(53)
    g = bipartite_ground(3)
    w = random_int_weights(rng, g)
    best = brute_min_weight(g.full_graph(), w)
    for mask in range(1 << g.edge_count):
        graph = Graph(g, mask)
        covered = bool(mask) and has_perfect_matching(graph)
        if covered:
            covered = all(
                brute_min_weight_forced(graph, w, e) == best for e in graph.edge_ids()
            )
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
            hull = {c.edges for c in unweighted if c.edges & ~gw.edges == 0}
            assert {c.edges for c in weighted} == hull
            assert len(weighted) % 2 == 1




def _series_mul(a, b, top):
    """Product of two series in x and t, held as {(x power, t power): coeff},
    truncated past x^top."""
    out = {}
    for (i, s), u in a.items():
        for (j, t), v in b.items():
            if i + j <= top:
                out[i + j, s + t] = out.get((i + j, s + t), 0) + u * v
    return out


def test_birkhoff_faces_by_blocks():
    # The covered graphs of K_{n,n} are the faces of the Birkhoff polytope
    # B_n, of dimension chi. Each splits into its connected blocks, and chi
    # adds over them, so with f_n(t) counting the covered graphs by chi and
    # e_k(t) the connected ones, sum f_n(t) x^n/(n!)^2 = exp(sum e_k(t)
    # x^k/(k!)^2) (Paffenholz, "Faces of Birkhoff polytopes", 2015).
    top = 4
    f = {(0, 0): 1}  # (n, chi) -> count; the empty graph on no vertices
    e = {}
    for n in range(1, top + 1):
        for g in covered_closure(enumerate_perfect_matchings(bipartite_ground(n).full_graph())):
            key = (n, cyclomatic_number(g))
            f[key] = f.get(key, 0) + 1
            if component_count(g) == 1:
                e[key] = e.get(key, 0) + 1

    def total(counts, n):
        return sum(c for (k, _), c in counts.items() if k == n)

    assert [total(e, n) for n in range(1, top + 1)] == [1, 1, 34, 6785]
    assert [total(f, n) for n in range(1, top + 1)] == [1, 3, 49, 7443]
    assert [f[4, chi] for chi in range(10)] == [24, 240, 978, 1968, 2176, 1392, 528, 120, 16, 1]

    blocks = {(k, chi): Fraction(c, factorial(k) ** 2) for (k, chi), c in e.items()}
    power = {(0, 0): Fraction(1)}
    exp = dict(power)
    for m in range(1, top + 1):
        power = _series_mul(power, blocks, top)
        for key, c in power.items():
            exp[key] = exp.get(key, 0) + c / factorial(m)
    want = {(n, chi): Fraction(c, factorial(n) ** 2) for (n, chi), c in f.items()}
    assert {key: c for key, c in exp.items() if c} == want
