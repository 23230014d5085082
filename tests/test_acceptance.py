"""Acceptance suite: one test per exit criterion, each timed against its
budget and printed as a single PASS/FAIL line (run with -s to see them).

The comparison side of every check is independent of the construction side:
membership oracles come from permutation scans, minimum weights from brute
force, covered sets from powerset unions where feasible.
"""

import random
import time
from contextlib import contextmanager

from matchcover import (
    Graph,
    bipartite_ground,
    build_lattice,
    coefficient_query,
    complete_ground,
    covered_closure,
    cyclomatic_number,
    enumerate_min_weight_pms,
    enumerate_perfect_matchings,
    min_weight_pm_polynomial,
    membership_oracle,
    membership_polynomial_general,
    pm_polynomial,
    truth_table_transform,
)
from oracles import (
    brute_pm_masks_bipartite,
    min_weight_family,
    random_int_weights,
    random_rational_weights,
)


@contextmanager
def criterion(num: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL (over budget)"
    print(f"ACCEPTANCE {num} {name}: {verdict} ({elapsed:.2f}s / {budget:.0f}s)")
    assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.2f}s"


def seeded_weights(seed: int, n: int, count: int = 20):
    rng = random.Random(seed)
    return [random_int_weights(rng, bipartite_ground(n), 1, 5) for _ in range(count)]


def test_criterion_1_unweighted_correctness():
    with criterion(1, "unweighted pointwise n<=3", 5.0):
        for n in (1, 2, 3):
            g = bipartite_ground(n)
            poly = pm_polynomial(n)
            pm_masks = brute_pm_masks_bipartite(g.full_graph())
            for mask in range(1 << g.edge_count):
                want = int(any(mask & pm == pm for pm in pm_masks))
                assert poly.evaluate(mask) == want

    with criterion(1, "unweighted transform n=4", 60.0):
        g = bipartite_ground(4)
        pm_masks = brute_pm_masks_bipartite(g.full_graph())
        table = truth_table_transform(
            lambda G: int(any(G.edges & pm == pm for pm in pm_masks)), g
        )
        assert table == pm_polynomial(4)


def test_criterion_2_weighted_correctness():
    with criterion(2, "weighted pointwise n=2,3", 30.0):
        for n in (2, 3):
            g = bipartite_ground(n)
            for w in seeded_weights(2000 + n, n):
                poly = min_weight_pm_polynomial(w)
                members = [m.edges for m in min_weight_family(g, w)]
                for mask in range(1 << g.edge_count):
                    want = int(any(mask & m == m for m in members))
                    assert poly.evaluate(mask) == want


def test_criterion_3_unit_weights_generalize():
    with criterion(3, "unit weights reduce to unweighted", 10.0):
        from matchcover import WeightFunction

        for n in (1, 2, 3):
            unit = WeightFunction.unit(bipartite_ground(n))
            assert min_weight_pm_polynomial(unit) == pm_polynomial(n)


def test_criterion_4_downward_hull():
    with criterion(4, "weighted covered set is the hull below the support", 30.0):
        for n in (2, 3):
            g = bipartite_ground(n)
            unweighted = covered_closure(
                enumerate_perfect_matchings(g.full_graph())
            )
            for w in seeded_weights(4000 + n, n):
                support = 0
                for m in min_weight_family(g, w):
                    support |= m.edges
                weighted = covered_closure(enumerate_min_weight_pms(w))
                hull = {
                    c.edges for c in unweighted if c.edges & ~support == 0
                }
                assert {c.edges for c in weighted} == hull


def test_criterion_5_parity():
    with criterion(5, "covered-set parity", 30.0):
        sizes = {}
        for n in (1, 2, 3):
            fam = enumerate_perfect_matchings(bipartite_ground(n).full_graph())
            sizes[n] = len(covered_closure(fam))
            assert sizes[n] % 2 == 1
        assert sizes[2] == 3
        for n in (2, 3):
            for w in seeded_weights(5000 + n, n):
                count = len(covered_closure(enumerate_min_weight_pms(w)))
                assert count % 2 == 1


def test_criterion_6_mobius_and_rank_facts():
    with criterion(6, "mobius sign and rank vs cyclomatic number", 30.0):
        for n in (1, 2, 3, 4):
            fam = enumerate_perfect_matchings(bipartite_ground(n).full_graph())
            lat = build_lattice(covered_closure(fam))
            labels = lat.rank_labels()
            assert labels.graded
            table = lat.mobius_table()
            assert labels.ranks[lat.bottom] == 0
            for g in lat.elements:
                rho = labels.ranks[g]
                assert table[g] == (-1) ** rho
                if g != lat.bottom:
                    assert rho == cyclomatic_number(g) + 1


def test_criterion_7_bipartite_lattice_structure():
    with criterion(7, "bipartite lattices: lattice, graded, Eulerian", 60.0):
        for n in (1, 2, 3, 4):
            fam = enumerate_perfect_matchings(bipartite_ground(n).full_graph())
            lat = build_lattice(covered_closure(fam))
            assert lat.is_lattice()
            assert lat.rank_labels().graded
            assert lat.is_eulerian()


def test_criterion_8_k6_pathology():
    with criterion(8, "complete-graph K6 pathology", 120.0):
        k6 = complete_ground(6)
        pms = enumerate_perfect_matchings(k6.full_graph())
        assert len(pms) == 15

        witness = k6.graph_from_edges(
            [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (4, 5), (2, 6), (3, 6), (5, 6)]
        )
        assert len(enumerate_perfect_matchings(witness)) == 4

        lat = build_lattice(covered_closure(pms))
        sub = lat.interval(lat.bottom, witness)
        assert len(sub) == 15
        assert sub.level_counts() == (1, 4, 6, 3, 1)

        assert lat.mobius(witness) == 0

        check = sub.eulerian_check()
        assert check.eulerian is False
        assert check.reason == "interval"

        labels = lat.rank_labels()
        assert not labels.graded
        lo, hi = labels.violation
        assert (lo, hi) in lat.covers()
        assert labels.ranks[hi] != labels.ranks[lo] + 1

        pentagon = lat.find_pentagon()
        assert pentagon is not None
        b, a, c1, c2, t = pentagon
        for x, y in ((b, a), (a, t), (b, c1), (c1, c2), (c2, t)):
            assert lat.leq(x, y) and x != y
        for x in (c1, c2):
            assert not lat.leq(a, x) and not lat.leq(x, a)
        assert lat.join(a, c1) == t
        assert lat.meet(a, c2) == b


def test_criterion_9_efficient_coefficients():
    with criterion(9, "coefficient queries at n=20 under 1s each", 120.0):
        n = 20
        g = bipartite_ground(n)
        rng = random.Random(900)
        from matchcover import support_union

        # generic rational weights (optimum usually unique) and small integer
        # weights (heavily tied, large support) both stay under the budget
        worst = 0.0
        nonzero_seen = 0
        for w in (
            random_rational_weights(rng, g),
            random_int_weights(rng, g, 1, 5),
        ):
            support = support_union(w)
            queries = [support.edges]
            for q in range(50):
                if q % 2:
                    queries.append(rng.getrandbits(g.edge_count) & support.edges)
                else:
                    queries.append(rng.getrandbits(g.edge_count))
            for mask in queries:
                start = time.perf_counter()
                value = coefficient_query(Graph(g, mask), w)
                worst = max(worst, time.perf_counter() - start)
                assert value in (-1, 0, 1)
                nonzero_seen += value != 0
        assert worst < 1.0, f"slowest query took {worst:.3f}s"
        assert nonzero_seen >= 2  # the support graph itself is always covered

    with criterion(9, "coefficient queries agree with enumeration at n=3", 60.0):
        n = 3
        g = bipartite_ground(n)
        rng = random.Random(901)
        w = random_rational_weights(rng, g, num_hi=9, den_hi=4)
        cov = covered_closure(enumerate_min_weight_pms(w))
        for mask in range(1 << g.edge_count):
            graph = Graph(g, mask)
            if graph in cov:
                want = -1 if cyclomatic_number(graph) % 2 else 1
            else:
                want = 0
            assert coefficient_query(graph, w) == want


def test_criterion_10_oracle_triangle():
    with criterion(10, "three construction routes coincide", 60.0):
        for n in (2, 3):
            g = bipartite_ground(n)
            fam = enumerate_perfect_matchings(g.full_graph())
            direct = pm_polynomial(n)
            via_mobius = membership_polynomial_general(fam)
            via_table = truth_table_transform(
                lambda G: membership_oracle(fam, G), g
            )
            assert direct == via_mobius
            assert via_mobius == via_table
            # narrow supports take the dense Mobius route, so pin the sign rule too
            for mask, coeff in direct.terms.items():
                assert coeff == (-1) ** cyclomatic_number(Graph(g, mask))
