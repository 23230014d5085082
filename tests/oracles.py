"""Brute-force oracles shared by the tests.

Everything here is deliberately independent of the library's algorithms:
permutation scans instead of the assignment solver, breadth-first search
instead of union-find, powerset unions instead of the closure, and writers
that scan every edge bit instead of the set bits.
"""

from fractions import Fraction
from itertools import combinations, permutations

from matchcover import Family, Graph, WeightFunction


def brute_min_weight(G, w):
    """Minimum matching weight by scanning all n! permutations; None if none."""
    n = G.ground.size
    best = None
    for perm in permutations(range(n)):
        mask = 0
        ok = True
        for i, j in enumerate(perm):
            k = i * n + j
            if not G.edges >> k & 1:
                ok = False
                break
            mask |= 1 << k
        if ok:
            total = w.weight_of(mask)
            if best is None or total < best:
                best = total
    return best


def brute_min_weight_forced(G, w, edge_id):
    n = G.ground.size
    i0, j0 = divmod(edge_id, n)
    best = None
    for perm in permutations(range(n)):
        if perm[i0] != j0:
            continue
        mask = 0
        ok = True
        for i, j in enumerate(perm):
            k = i * n + j
            if not G.edges >> k & 1:
                ok = False
                break
            mask |= 1 << k
        if ok:
            total = w.weight_of(mask)
            if best is None or total < best:
                best = total
    return best


def brute_pm_masks_bipartite(G):
    n = G.ground.size
    out = []
    for perm in permutations(range(n)):
        mask = 0
        ok = True
        for i, j in enumerate(perm):
            k = i * n + j
            if not G.edges >> k & 1:
                ok = False
                break
            mask |= 1 << k
        if ok:
            out.append(mask)
    return out


def brute_covered_masks(F):
    """All distinct unions of nonempty subfamilies, by powerset scan."""
    members = [g.edges for g in F]
    out = set()
    for r in range(1, len(members) + 1):
        for combo in combinations(members, r):
            acc = 0
            for m in combo:
                acc |= m
            out.add(acc)
    return out


def bfs_component_count(G):
    ground = G.ground
    adj = [[] for _ in range(ground.vertex_count)]
    for k in G.edge_ids():
        a, b = ground._ends[k]
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * ground.vertex_count
    count = 0
    for s in range(ground.vertex_count):
        if seen[s]:
            continue
        count += 1
        queue = [s]
        seen[s] = True
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return count


def random_graph(rng, ground):
    return Graph(ground, rng.getrandbits(ground.edge_count))


def random_int_weights(rng, ground, lo=1, hi=5):
    return WeightFunction(
        ground, [rng.randint(lo, hi) for _ in range(ground.edge_count)]
    )


def random_rational_weights(rng, ground, num_hi=100, den_hi=20):
    return WeightFunction(
        ground,
        [
            Fraction(rng.randint(1, num_hi), rng.randint(1, den_hi))
            for _ in range(ground.edge_count)
        ],
    )


def min_weight_family(ground, w):
    """Minimum-weight perfect matchings straight from the permutation scan."""
    full = ground.full_graph()
    masks = brute_pm_masks_bipartite(full)
    best = min(w.weight_of(m) for m in masks)
    graphs = sorted(
        (Graph(ground, m) for m in masks if w.weight_of(m) == best),
        key=lambda g: (g.edge_count, tuple(g.edge_ids())),
    )
    return Family(ground, graphs)


def reference_sorted_terms(poly):
    """Terms in canonical order, by scanning every edge bit of every term."""
    def key(item):
        ids = tuple(k for k in range(poly.ground.edge_count) if item[0] >> k & 1)
        return (len(ids), ids)

    return sorted(poly.terms.items(), key=key)


def reference_text(poly):
    """The polynomial text format, written term by term and bit by bit."""
    pairs = poly.ground.edge_pairs()
    lines = []
    for mask, coeff in reference_sorted_terms(poly):
        factors = [
            f"x[{pairs[k][0]},{pairs[k][1]}]"
            for k in range(poly.ground.edge_count)
            if mask >> k & 1
        ]
        lines.append(" ".join([f"{coeff:+d}"] + factors))
    return "\n".join(lines) + "\n"


def reference_json_dict(poly):
    """The data of the polynomial JSON format, written bit by bit."""
    return {
        "ground": {"mode": poly.ground.mode, "size": poly.ground.size},
        "terms": [
            {
                "coeff": coeff,
                "edges": [
                    list(poly.ground.edge_endpoints(k))
                    for k in range(poly.ground.edge_count)
                    if mask >> k & 1
                ],
            }
            for mask, coeff in reference_sorted_terms(poly)
        ],
    }


def pattern_weights(ground, pattern):
    """0/1 weights from a row-major string of '0' and '1'."""
    return WeightFunction(ground, [int(ch) for ch in pattern])
