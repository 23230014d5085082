"""Brute-force oracles shared by the tests.

Everything here is deliberately independent of the library's algorithms:
permutation and pairing scans instead of the backtracking matcher and the
assignment solver, breadth-first search instead of union-find, powerset
unions instead of the closure, and writers that scan every edge bit instead
of the set bits. The lattice checks are the
generic O(N^2) pair scans and the per-element loops that the library's
certificate, blocked masks, level-wise Mobius numbers and blocked Eulerian
check replace.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from matchcover import Family, Graph, WeightFunction
from matchcover.graphs import _iter_bits


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


@lru_cache(maxsize=None)
def _pairings(m):
    """Every perfect pairing of the vertices 1..m, read off the permutations
    (consecutive entries form a pair) and deduplicated."""
    out = set()
    for perm in permutations(range(1, m + 1)):
        out.add(frozenset(tuple(sorted(perm[k : k + 2])) for k in range(0, m, 2)))
    return tuple(out)


def brute_pm_masks_complete(G):
    """Perfect matchings of a graph on a complete ground, by scanning every
    pairing of its vertices."""
    out = []
    for pairing in _pairings(G.ground.size):
        mask = 0
        for u, v in pairing:
            mask |= 1 << G.ground.edge_index(u, v)
        if mask & ~G.edges == 0:
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


def pairwise_is_lattice(lat):
    """Unique meet and join for every incomparable pair, by the O(N^2) scan
    over the lattice's down-set and up-set bitmasks."""
    down, up = lat._down, lat._up
    for i in range(len(lat.elements)):
        di, ui = down[i], up[i]
        for j in range(i + 1, len(lat.elements)):
            if (down[j] >> i | di >> j) & 1:
                continue
            common = di & down[j]
            h = common.bit_length() - 1
            if down[h] != common:
                return False
            common = ui & up[j]
            low = (common & -common).bit_length() - 1
            if up[low] != common:
                return False
    return True


def pairwise_order_masks(lat):
    """Down-set and up-set bitmasks by testing every pair of edge masks."""
    masks = [g.edges for g in lat.elements]
    down = [0] * len(masks)
    up = [0] * len(masks)
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            if mi & ~mj == 0:
                down[j] |= 1 << i
                up[i] |= 1 << j
    return down, up


def mobius_pair(lat, ix, iy):
    """mu(x, y) inside the interval [x, y], recomputed without memo."""
    interval = lat._up[ix] & lat._down[iy]
    memo = {}
    for k in _iter_bits(interval):
        if k == ix:
            memo[k] = 1
            continue
        memo[k] = -sum(memo[z] for z in _iter_bits(lat._down[k] & interval & ~(1 << k)))
    return memo[iy]


def eulerian_mobius_check(lat):
    """mu(x, y) == (-1)^(rank difference) on every interval; desk scale only."""
    if not lat.is_graded:
        return False
    ranks = lat._rank_data()[0]
    for i in range(len(lat.elements)):
        for j in _iter_bits(lat._up[i]):
            if mobius_pair(lat, i, j) != (-1) ** (ranks[j] - ranks[i]):
                return False
    return True


def memo_mobius(lat):
    """mu(bottom, x) for every element index, by the memoised sum over each
    strict down-set in the linear extension."""
    memo = {}
    for k in range(len(lat.elements)):
        if k == lat._bottom:
            memo[k] = 1
            continue
        total = 0
        for z in _iter_bits(lat._down[k] & ~(1 << k)):
            total += memo[z]
        memo[k] = -total
    return [memo[k] for k in range(len(lat.elements))]


def pairwise_eulerian_check(lat):
    """(eulerian, reason, witness index pair) by counting the even- and
    odd-ranked elements of every interval [i, j], i < j, in (i, j) order."""
    ranks, violation = lat._rank_data()
    if violation is not None:
        return False, "not graded", violation
    even = 0
    for k, r in enumerate(ranks):
        if r % 2 == 0:
            even |= 1 << k
    odd = ~even & ((1 << len(lat.elements)) - 1)
    for i in range(len(lat.elements)):
        ui = lat._up[i]
        for j in _iter_bits(ui & ~(1 << i)):
            interval = ui & lat._down[j]
            if (interval & even).bit_count() != (interval & odd).bit_count():
                return False, "interval", (i, j)
    return True, None, None
