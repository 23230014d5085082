"""Brute-force oracles shared by the tests.

Everything here is deliberately independent of the library's algorithms:
permutation and pairing scans instead of the backtracking matcher and the
dual certificate (minimum weights, also with one edge forced, are None when
no perfect matching qualifies), one existence test per edge instead of the
reachability closure behind pm_support, breadth-first search instead of
union-find, powerset unions and the definitional coverage test instead of
the closure, writers and sort keys that scan every edge bit instead of
the set bits, an enumeration of a ground's edges instead of the id
formulas, a subset butterfly of one whole-table step per bit instead of
the library's strided, cache-blocked kernel, and a block's perfect
matchings listed over the whole ground, the other rows padded with one
fixed perfect matching, instead of on the block's own vertices, and a
polynomial's values summed over its terms dict instead of scanned from its
byte rows, and masks compressed onto a support by unpacking and packing
their bits instead of through per-byte lookup tables. A test of one Graph
at a time becomes an oracle over arrays of edge masks, as
truth_table_transform takes, through graph_oracle.
The lattice checks are order, meet and join read off edge-subset relations
between elements, and the generic O(N^2) pair scans and per-element loops
that the library's join-irreducible test, blocked masks, level-wise Mobius
numbers and blocked Eulerian check replace.
The polynomial JSON reader is checked against from_json's json.loads path,
with the array reader made to decline (loaded_outcome).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from unittest import mock

import numpy as np

from matchcover import (
    Family,
    Graph,
    InputError,
    MultilinearPolynomial,
    WeightFunction,
    enumerate_perfect_matchings,
    has_perfect_matching,
    polynomial,
)
from matchcover.graphs import _iter_bits, _row_masks
from matchcover.matching import _kuhn_matching


def ground_pairs(ground):
    """The edges of a ground in id order, enumerated: (i, j) row by row on
    K_{n,n}, and the pairs u < v in lexicographic order on K_m."""
    vertices = range(1, ground.size + 1)
    if ground.mode == "bipartite":
        return [(i, j) for i in vertices for j in vertices]
    return list(combinations(vertices, 2))


def canonical_key(G):
    """The reference canonical order: ascending edge count, then edge ids."""
    ids = tuple(k for k in range(G.ground.edge_count) if G.edges >> k & 1)
    return (len(ids), ids)


def weight_of(w, x):
    """Total weight of a graph or raw edge mask under w, edge by edge."""
    mask = x.edges if isinstance(x, Graph) else x
    return sum((w.weights[k] for k in _iter_bits(mask)), Fraction(0))


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
            total = weight_of(w, mask)
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
            total = weight_of(w, mask)
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


def brute_pm_support(G):
    """Edges (i, j) of a bipartite G that some perfect matching uses: G keeps
    a perfect matching once the other edges of row i and column j are gone.
    One existence test per edge, so it reaches grounds where the scans above
    cannot."""
    n = G.ground.size
    row, col = (1 << n) - 1, 0
    for i in range(n):
        col |= 1 << (i * n)
    keep = 0
    for k in _iter_bits(G.edges):
        i, j = divmod(k, n)
        others = (row << (i * n) | col << j) & ~(1 << k)
        if has_perfect_matching(Graph(G.ground, G.edges & ~others)):
            keep |= 1 << k
    return keep


def padded_block_families(support, blocks):
    """The perfect matchings of each block, given as a (row count, edge
    mask) pair, of a bipartite support that is the union of its perfect
    matchings. The rows outside a block keep the edges of one fixed perfect
    matching of the support, so the perfect matchings of that padded graph,
    listed over the whole ground and cut back to the block's edges, are the
    block's."""
    ground, n = support.ground, support.ground.size
    _, match_right = _kuhn_matching(_row_masks(support))
    fixed = sum(1 << (i * n + j) for j, i in enumerate(match_right))
    families = []
    for _, edges in blocks:
        padded = enumerate_perfect_matchings(Graph(ground, edges | fixed & ~edges))
        families.append(Family(ground, [Graph(ground, g.edges & edges) for g in padded]))
    return families


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


def is_covered(G, F):
    """True iff G equals the union of the family members it contains.

    Equivalent to the existential definition (some subfamily unions to G)
    because adding further contained members never shrinks the union.
    """
    if len(F) == 0 or any(m.is_empty for m in F):
        raise InputError("covering needs a nonempty family of nonempty graphs")
    if G.ground != F.ground:
        raise InputError("graph and family grounds differ")
    acc = 0
    found = False
    for m in F:
        if m.edges & ~G.edges == 0:
            acc |= m.edges
            found = True
    return found and acc == G.edges


def bfs_component_count(G):
    ground = G.ground
    pairs = ground_pairs(ground)
    offset = ground.size if ground.mode == "bipartite" else 0  # right j is n + j
    adj = [[] for _ in range(ground.vertex_count)]
    for k in G.edge_ids():
        a, b = pairs[k][0] - 1, offset + pairs[k][1] - 1
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
    best = min(weight_of(w, m) for m in masks)
    graphs = sorted(
        (Graph(ground, m) for m in masks if weight_of(w, m) == best),
        key=lambda g: (g.edge_count, tuple(g.edge_ids())),
    )
    return Family(ground, graphs)


def graph_oracle(ground, test):
    """The array oracle of a test of one Graph: test(Graph(ground, m)) at
    each mask m of an int64 array, as an array."""
    return lambda masks: np.array([test(Graph(ground, m)) for m in masks.tolist()])


def reference_rows(ids, masks):
    """Masks (Python ints) compressed onto the support edges ids, ascending,
    as byte rows: the ground bytes that hold support bits unpacked, the
    support's columns picked and packed again."""
    cols = np.array(sorted({k >> 3 for k in ids}), dtype=np.intp)
    ids = np.array(ids, dtype=np.intp)
    picked = np.searchsorted(cols, ids >> 3) * 8 + (ids & 7)
    size = (int(ids[-1]) >> 3) + 1 if len(ids) else 0
    low = (1 << 8 * size) - 1
    data = b"".join((m & low).to_bytes(size, "little") for m in masks)
    full = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), size)
    edges = np.unpackbits(full[:, cols], axis=1, bitorder="little")
    return np.packbits(edges[:, picked], axis=1, bitorder="little")


def reference_evaluate(terms, mask):
    """Value at a 0/1 assignment by a loop over a terms dict: the sum of
    the coefficients of the monomials inside the mask."""
    return sum(coeff for term, coeff in terms.items() if term & ~mask == 0)


def reference_sorted_terms(poly):
    """Terms in canonical order, by scanning every edge bit of every term."""
    def key(item):
        ids = tuple(k for k in range(poly.ground.edge_count) if item[0] >> k & 1)
        return (len(ids), ids)

    return sorted(poly.terms.items(), key=key)


def reference_text(poly):
    """The polynomial text format, written term by term and bit by bit."""
    pairs = ground_pairs(poly.ground)
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
    pairs = ground_pairs(poly.ground)
    return {
        "ground": {"mode": poly.ground.mode, "size": poly.ground.size},
        "terms": [
            {
                "coeff": coeff,
                "edges": [
                    list(pairs[k])
                    for k in range(poly.ground.edge_count)
                    if mask >> k & 1
                ],
            }
            for mask, coeff in reference_sorted_terms(poly)
        ],
    }


def reference_lattice_json_dict(lat):
    """The data of the lattice JSON format, from the public queries, with
    the edges of each element found bit by bit."""
    ground = lat.ground
    pairs = ground_pairs(ground)
    index = {g: k for k, g in enumerate(lat.elements)}
    labels = lat.rank_labels()
    return {
        "ground": {"mode": ground.mode, "size": ground.size},
        "elements": [
            [list(pairs[k]) for k in range(ground.edge_count) if g.edges >> k & 1]
            for g in lat.elements
        ],
        "covers": [[index[a], index[b]] for a, b in lat.covers()],
        "mobius": [lat.mobius(g) for g in lat.elements],
        "ranks": [labels.ranks[g] for g in lat.elements],
        "graded": labels.graded,
    }


def outcome(call):
    """What call returns, or the text of the InputError it raises."""
    try:
        return call()
    except InputError as exc:
        return str(exc)


def loaded_outcome(text, ground):
    """The outcome of MultilinearPolynomial.from_json on its json.loads
    path alone: the array reader declines every text."""
    with mock.patch.object(polynomial, "_layout_polynomial", return_value=None):
        return outcome(lambda: MultilinearPolynomial.from_json(text, ground))


def pattern_weights(ground, pattern):
    """0/1 weights from a row-major string of '0' and '1'."""
    return WeightFunction(ground, [int(ch) for ch in pattern])


def _require_elements(lat, x, y):
    """Raise InputError unless x and y are elements of the lattice."""
    if x not in lat or y not in lat:
        raise InputError("both graphs must be lattice elements")


def _inside(a, b):
    """Edge mask a lies inside edge mask b."""
    return a & ~b == 0


def leq(lat, x, y):
    """x <= y among the lattice's elements: the edges of x lie inside y's."""
    _require_elements(lat, x, y)
    return _inside(x.edges, y.edges)


def meet(lat, x, y):
    """The greatest common lower bound of x and y, by scanning every element
    for edge-subset relations; None if there is no unique one. Membership is
    checked once, then the scan compares edge masks."""
    _require_elements(lat, x, y)
    lower = [z for z in lat.elements if _inside(z.edges, x.edges & y.edges)]
    greatest = [z for z in lower if all(_inside(v.edges, z.edges) for v in lower)]
    return greatest[0] if greatest else None


def join(lat, x, y):
    """The least common upper bound of x and y, by the same scan; None if
    there is no unique one."""
    _require_elements(lat, x, y)
    upper = [z for z in lat.elements if _inside(x.edges | y.edges, z.edges)]
    least = [z for z in upper if all(_inside(z.edges, v.edges) for v in upper)]
    return least[0] if least else None


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
    if not lat.rank_labels().graded:
        return False
    ranks = lat._rank_data[0]
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
    ranks, violation = lat._rank_data
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


def pairwise_covers(lat):
    """The cover index pairs (x, y), sorted: x < y with no element strictly
    between, found pair by pair as the intervals of exactly two elements."""
    down, up = lat._down, lat._up
    return sorted(
        (x, y)
        for y in range(len(lat.elements))
        for x in _iter_bits(down[y] & ~(1 << y))
        if (up[x] & down[y]).bit_count() == 2
    )


def longest_chain_ranks(lat):
    """(ranks, violation): each element's rank is the length of the longest
    chain down to it, taken over its whole strict down-set; the violation is
    the first cover of pairwise_covers whose rank step is not 1, or None."""
    ranks = {}
    for y in range(len(lat.elements)):
        below = [ranks[x] for x in _iter_bits(lat._down[y] & ~(1 << y))]
        ranks[y] = max(below) + 1 if below else 0
    violation = next(
        ((x, y) for x, y in pairwise_covers(lat) if ranks[y] != ranks[x] + 1), None
    )
    return [ranks[k] for k in range(len(lat.elements))], violation


def reference_subset_transform(table, op, inverse=False):
    """The subset butterfly in place, one step per bit over the whole table:
    each entry whose mask has the bit takes op of itself and its partner
    without it ("+", its inverse "-", or "|"), wrapping as numpy does."""
    ufunc = {("+", False): np.add, ("+", True): np.subtract, ("|", False): np.bitwise_or}[op, inverse]
    for bit in range(table.size.bit_length() - 1):
        halves = table.reshape(-1, 2, 1 << bit)
        ufunc(halves[:, 1], halves[:, 0], out=halves[:, 1])
    return table
