"""Perfect matchings and exact minimum-weight assignment.

One backtracking search, on an explicit stack, enumerates the perfect
matchings of either ground or of a set of its vertices, such as one block of
a bipartite support, and decides their existence on complete grounds at desk
scale. Bipartite grounds get polynomial-time algorithms for everything else,
all on the graph's row bitmasks: augmenting paths for existence, and for the
set of edges that lie in some perfect matching, the transitive closure of
the alternating digraph that one perfect matching defines on the columns (an
edge is used iff it lies on an alternating cycle). Minimum weights rest on
one dual certificate: an O(n^3) potential-based assignment solver solves the
full K_{n,n} once, and a perfect matching is minimum-weight exactly when all
its edges are tight for its potentials. So the minimum-weight matchings are
the perfect matchings of the tight subgraph, and every minimum-weight
question is a plain matching question there. All weights are
fractions.Fraction, so weight equality is decided exactly; the solver runs
on the integers that the weights become when scaled by the lcm of their
denominators, which keeps every comparison and so every result.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf, lcm
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError
from .graphs import (
    BIPARTITE,
    Family,
    Graph,
    GroundGraph,
    _content_lines,
    _iter_bits,
    _mask_of_rows,
    _parse_header,
    _row_masks,
)
from .subsets import canonical_sorted


def _require_bipartite(ground: GroundGraph, what: str) -> None:
    if ground.mode != BIPARTITE:
        raise InputError(f"{what} requires a bipartite ground, got {ground.header()}")


def _kuhn_matching(rows: list[int]) -> tuple[int, list[int]]:
    """Maximum bipartite matching; returns (size, match_right).

    match_right[j] is the left partner of right j, or -1. A greedy pass gives
    each row its lowest free column; the rows left over then search for
    augmenting paths depth first, on an explicit stack, so path length is
    not bounded by the recursion limit.
    """
    n = len(rows)
    match_right = [-1] * n
    free = (1 << n) - 1
    unmatched = []
    for i, cols in enumerate(rows):
        cols &= free
        if cols:
            low = cols & -cols
            free ^= low
            match_right[low.bit_length() - 1] = i
        else:
            unmatched.append(i)
    size = n - len(unmatched)
    for i in unmatched:
        path = [i]  # rows of the alternating path
        via: list[int] = []  # via[k]: the column from path[k] to path[k + 1]
        seen = 0
        while path:
            cols = rows[path[-1]] & ~seen
            if not cols:
                path.pop()
                if via:
                    via.pop()
                continue
            low = cols & -cols
            seen |= low
            j = low.bit_length() - 1
            via.append(j)
            if match_right[j] < 0:
                for r, c in zip(path, via):
                    match_right[c] = r
                size += 1
                break
            path.append(match_right[j])
    return size, match_right


def _require_even(ground: GroundGraph) -> None:
    if ground.vertex_count % 2:
        raise InputError(
            f"perfect matchings on {ground.header()} need an even vertex count"
        )


def _pm_masks(G: Graph, vertices: int | None = None) -> Iterator[int]:
    """Edge masks of the perfect matchings of G on a bitmask of its vertex
    ids (the whole ground by default), on either ground.

    Backtracking matches the lowest free vertex with each free neighbour in
    turn, on an explicit stack of (free vertices, edges) entries, so no
    recursion limit bounds its depth. On a bipartite ground that vertex is
    always a left one, so each level fixes the partner of one row.
    """
    ground = G.ground
    # vertex ids: left i -> i-1 and right j -> n+j-1, or complete u -> u-1
    offset = ground.size if ground.mode == BIPARTITE else 0
    # up[a]: (vertex bit, edge bit) of each edge {a, b} of G with a < b; the
    # lowest free vertex has only higher partners, so the lower end suffices
    up: list[list[tuple[int, int]]] = [[] for _ in range(ground.vertex_count)]
    for k in _iter_bits(G.edges):
        u, v = ground.edge_pair(k)
        up[u - 1].append((1 << offset + v - 1, 1 << k))
    if vertices is None:
        vertices = (1 << ground.vertex_count) - 1
    stack = [(vertices, 0)]
    while stack:
        free, acc = stack.pop()
        if not free:
            yield acc
            continue
        low = free & -free
        rest = free ^ low
        for vbit, ebit in up[low.bit_length() - 1]:
            if rest & vbit:
                stack.append((rest ^ vbit, acc | ebit))


def has_perfect_matching(G: Graph) -> bool:
    """True iff G contains a perfect matching of its ground's vertex set."""
    if G.ground.mode == BIPARTITE:
        size, _ = _kuhn_matching(_row_masks(G))
        return size == G.ground.size
    _require_even(G.ground)
    return next(_pm_masks(G), None) is not None


def _has_perfect_matchings(masks: np.ndarray, n: int) -> np.ndarray:
    """has_perfect_matching of each K_{n,n} edge mask in an int64 array, for
    n <= 6, as a bool array: a DP over the rows, vectorized over the masks.

    Each mask has a state word of 2^n bits, bit S set when the rows seen so
    far can be matched onto exactly the column set S. Row i moves S to
    S + {j} for each column j not in S where edge (i, j) is present, so the
    last row reaches the full set iff the graph has a perfect matching. No
    matching is enumerated and no subset transform is run, so this oracle
    shares nothing with the polynomial's construction.
    """
    dtype = np.uint16 if n <= 4 else np.uint32 if n == 5 else np.uint64
    # keep[j]: the bits of the column sets that lack j
    keep = [dtype(sum(1 << s for s in range(1 << n) if not s >> j & 1)) for j in range(n)]
    one = dtype(1)
    state = np.ones(len(masks), dtype)
    for i in range(n):
        row = ((masks >> (i * n)) & ((1 << n) - 1)).astype(dtype)
        reached = np.zeros_like(state)
        for j in range(n):
            reached |= ((state & keep[j]) << dtype(1 << j)) * (row >> dtype(j) & one)
        state = reached
    return (state >> dtype((1 << n) - 1)).astype(bool)


def enumerate_perfect_matchings(G: Graph, vertices: int | None = None) -> Family:
    """All perfect matchings of G, in canonical (edge-count, edge-id) order;
    with vertices, a bitmask (bit i-1 for left i and n+j-1 for right j of
    K_{n,n}, bit u-1 for u of K_m), those of G's subgraph induced on it."""
    _require_even(G.ground)
    masks = canonical_sorted(list(_pm_masks(G, vertices)))
    return Family(G.ground, [Graph(G.ground, m) for m in masks])


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^\d+(/\d+)?$")


def parse_rational(token: str) -> Fraction:
    """Non-negative integer or p/q fraction, exactly as weight files allow."""
    if not _RATIONAL_RE.match(token):
        raise InputError(f"bad weight {token!r}: expected integer or p/q")
    try:  # Fraction(int) skips the string parse that Fraction(str) makes
        return Fraction(token) if "/" in token else Fraction(int(token))
    except ZeroDivisionError:
        raise InputError(f"bad weight {token!r}: zero denominator") from None
    except ValueError as exc:  # more digits than int() converts
        raise InputError(f"bad weight: {exc}") from None


def _exact_weight(w) -> Fraction:
    """A weight as an exact Fraction. Floats are refused rather than
    expanded (0.1 is not 1/10), and so are bools."""
    if isinstance(w, Fraction):
        return w
    if isinstance(w, (bool, float)):
        raise InputError(f"weight {w!r} is not exact: give an int, a Fraction or 'p/q'")
    try:
        return Fraction(w)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError(f"bad weight {w!r}") from None


class WeightFunction:
    """Exact non-negative rational weight per edge of a bipartite ground.

    The solution of the full-ground assignment problem (optimal value, one
    optimal matching, dual potentials) and the tight subgraph it defines are
    computed once on demand and cached; everything downstream of them (the
    support graph, coefficient queries, the minimum-weight oracle) reuses
    them.
    """

    __slots__ = ("ground", "weights", "_solution", "_tight")

    def __init__(self, ground: GroundGraph, weights: Iterable[Fraction | int | str]):
        _require_bipartite(ground, "a weight function")
        ws = tuple(_exact_weight(w) for w in weights)
        if len(ws) != ground.edge_count:
            raise InputError(
                f"need {ground.edge_count} weights for {ground.header()}, got {len(ws)}"
            )
        if any(w < 0 for w in ws):
            raise InputError("weights must be non-negative")
        self.ground = ground
        self.weights = ws
        self._solution = None
        self._tight = None

    @classmethod
    def unit(cls, ground: GroundGraph) -> "WeightFunction":
        return cls(ground, [1] * ground.edge_count)

    def _solve(self):
        """The assignment solution of the weights scaled to integers, by L,
        the lcm of their denominators: (scaled weights, L, optimum, row_to_col,
        u, v), the optimum and the potentials scaled by L too. A positive
        factor keeps every comparison of the solver, so its ties, matching
        and potentials are those of the rational weights."""
        if self._solution is None:
            n = self.ground.size
            scale = lcm(*(w.denominator for w in self.weights))
            ints = [w.numerator * (scale // w.denominator) for w in self.weights]
            total, row_to_col, u, v = hungarian([ints[i * n : i * n + n] for i in range(n)])
            self._solution = ints, scale, total, row_to_col, u, v
        return self._solution

    def optimum(self) -> Fraction:
        """Minimum weight of a perfect matching of the full ground."""
        _, scale, total, *_ = self._solve()
        return total / scale

    def tight_mask(self) -> int:
        """Edges whose weight meets its dual bound u_i + v_j.

        Every minimum-weight perfect matching lives inside this subgraph, and
        every perfect matching inside it is minimum-weight.
        """
        if self._tight is None:
            ints, _, _, _, u, v = self._solve()
            n = self.ground.size
            mask = 0
            for i in range(n):
                wrow = i * n
                for j in range(n):
                    if ints[wrow + j] == u[i] + v[j]:
                        mask |= 1 << (wrow + j)
            self._tight = mask
        return self._tight

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightFunction)
            and self.ground == other.ground
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        return f"WeightFunction({self.ground.header()!r})"


def parse_weight_function(text: str) -> WeightFunction:
    """Weight file: header line, then n^2 lines "i j w", each edge exactly once."""
    lines = _content_lines(text)
    if not lines:
        raise InputError("empty weight file")
    mode, n = _parse_header(lines[0][1])
    if mode != BIPARTITE:
        raise InputError(f"a weight file requires a bipartite ground, got {mode} {n}")
    if len(lines) - 1 != n * n:
        raise InputError(
            f"weight file has {len(lines) - 1} edge lines, {mode} {n} needs {n * n}"
        )
    ground = GroundGraph(mode, n)
    weights: dict[int, Fraction] = {}
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"line {lineno}: expected 'i j w', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer vertex in {line!r}") from None
        k = ground.edge_index(i, j)
        if k in weights:
            raise InputError(f"line {lineno}: duplicate weight for edge ({i}, {j})")
        weights[k] = parse_rational(parts[2])
    # n^2 lines, no duplicate: every edge has its weight
    return WeightFunction(ground, [weights[k] for k in range(ground.edge_count)])


# ---------------------------------------------------------------------------
# Exact assignment
# ---------------------------------------------------------------------------

def hungarian(cost: list[list]) -> tuple[Fraction, list[int], list, list]:
    """Minimum-cost perfect assignment on a full n x n matrix of exact values.

    Returns (optimum, row_to_col, u, v) with u, v dual potentials satisfying
    u[i] + v[j] <= cost[i][j], with equality on matched pairs. Ties resolve
    toward the smallest column index, so results are deterministic in
    edge-id order.
    """
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j (1-based), 0 = free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = [0] * n
    for j in range(1, n + 1):
        row_to_col[p[j] - 1] = j - 1
    total = sum((cost[i][row_to_col[i]] for i in range(n)), Fraction(0))
    return total, row_to_col, u[1:], v[1:]


# ---------------------------------------------------------------------------
# Support graphs
# ---------------------------------------------------------------------------

def pm_support(G: Graph) -> Graph:
    """Edges of G lying in at least one perfect matching of G.

    Empty if G has no perfect matching. Otherwise fix one, M, and read G's
    rows as a digraph on the columns: column j leads to every column of its
    M-partner row, rows[match_right[j]]. An edge (i, j) lies in a perfect
    matching iff it is in M or closes an M-alternating cycle, that is iff j
    reaches back to c, the partner column of row i; since c leads to j, that
    says j and c share a strongly connected component. Warshall's closure of
    the n column bitmasks (n^2 steps on n-bit ints) gives every column its
    reach set, and two columns share a component iff their reach sets are
    equal. So row i keeps the columns whose reach set equals c's.
    """
    _require_bipartite(G.ground, "pm_support")
    n = G.ground.size
    rows = _row_masks(G)
    size, match_right = _kuhn_matching(rows)
    if size < n:
        return Graph(G.ground, 0)
    reach = [rows[i] for i in match_right]  # column j reaches itself via M
    for k in range(n):
        bit, via = 1 << k, reach[k]
        reach = [r | via if r & bit else r for r in reach]
    blocks: dict[int, int] = {}
    partner = [0] * n
    for j, (i, r) in enumerate(zip(match_right, reach)):
        blocks[r] = blocks.get(r, 0) | 1 << j
        partner[i] = j
    kept = [rows[i] & blocks[reach[partner[i]]] for i in range(n)]
    return Graph(G.ground, _mask_of_rows(kept))


def support_union(w: WeightFunction) -> Graph:
    """Union of all minimum-weight perfect matchings of the full ground.

    Equivalently: the edges e whose forced minimum equals the global optimum.
    Computed as the perfect-matching support of the dual-tight subgraph.
    """
    tight = Graph(w.ground, w.tight_mask())
    return pm_support(tight)


def enumerate_min_weight_pms(w: WeightFunction) -> Family:
    """All minimum-weight perfect matchings: the perfect matchings of their
    union, each of which is dual-tight and so of minimum weight."""
    return enumerate_perfect_matchings(support_union(w))


def contains_min_weight_pm(G: Graph, w: WeightFunction) -> bool:
    """True iff G contains a perfect matching of globally minimum weight.

    A matching is minimum-weight iff all its edges are dual-tight, so this is
    a plain matching test on G restricted to tight edges.
    """
    if G.ground != w.ground:
        raise InputError("graph and weight function grounds differ")
    return has_perfect_matching(Graph(G.ground, G.edges & w.tight_mask()))
