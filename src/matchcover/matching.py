"""Perfect matchings and exact minimum-weight assignment.

One backtracking search enumerates the perfect matchings of either ground,
and decides their existence on complete grounds at desk scale. Bipartite
grounds get polynomial-time algorithms for everything else: augmenting paths
for existence, and alternating-reachability for the set of edges that lie in
some perfect matching. Minimum weights rest on one dual certificate: an
O(n^3) potential-based assignment solver over exact rationals solves the
full K_{n,n} once, and a perfect matching is minimum-weight exactly when all
its edges are tight for its potentials. So the minimum-weight matchings are
the perfect matchings of the tight subgraph, and every minimum-weight
question is a plain matching question there. All weights are
fractions.Fraction, so weight equality is decided exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf
from typing import Iterable, Iterator

from .errors import InputError
from .graphs import (
    BIPARTITE,
    Family,
    Graph,
    GroundGraph,
    _content_lines,
    _iter_bits,
    _parse_header,
    mask_key,
)


def _require_bipartite(ground: GroundGraph, what: str) -> None:
    if ground.mode != BIPARTITE:
        raise InputError(f"{what} requires a bipartite ground, got {ground.header()}")


def _row_masks(G: Graph) -> list[int]:
    """rows[i] = bitmask of right vertices j (0-based) adjacent to left i."""
    n = G.ground.size
    full_row = (1 << n) - 1
    return [(G.edges >> (i * n)) & full_row for i in range(n)]


def _kuhn_matching(rows: list[int]) -> tuple[int, list[int]]:
    """Maximum bipartite matching; returns (size, match_right).

    match_right[j] is the left partner of right j, or -1.
    """
    n = len(rows)
    match_right = [-1] * n

    def augment(i: int, visited: list[bool]) -> bool:
        cols = rows[i]
        while cols:
            j = (cols & -cols).bit_length() - 1
            cols &= cols - 1
            if not visited[j]:
                visited[j] = True
                if match_right[j] < 0 or augment(match_right[j], visited):
                    match_right[j] = i
                    return True
        return False

    size = 0
    for i in range(n):
        if augment(i, [False] * n):
            size += 1
    return size, match_right


def _require_even(ground: GroundGraph) -> None:
    if ground.vertex_count % 2:
        raise InputError(
            f"perfect matchings on {ground.header()} need an even vertex count"
        )


def _pm_masks(G: Graph) -> Iterator[int]:
    """Edge masks of the perfect matchings of G, on either ground.

    Backtracking matches the lowest free vertex with each free neighbour in
    turn. On a bipartite ground that vertex is always a left one, so each
    level of the search fixes the partner of one row.
    """
    ground = G.ground
    ends = ground._ends
    # up[a]: (vertex bit, edge bit) of each edge {a, b} of G with a < b; the
    # lowest free vertex has only higher partners, so the lower end suffices
    up: list[list[tuple[int, int]]] = [[] for _ in range(ground.vertex_count)]
    for k in _iter_bits(G.edges):
        a, b = ends[k]
        up[a].append((1 << b, 1 << k))

    def rec(free: int, acc: int) -> Iterator[int]:
        if not free:
            yield acc
            return
        low = free & -free
        rest = free ^ low
        for vbit, ebit in up[low.bit_length() - 1]:
            if rest & vbit:
                yield from rec(rest ^ vbit, acc | ebit)

    return rec((1 << ground.vertex_count) - 1, 0)


def has_perfect_matching(G: Graph) -> bool:
    """True iff G contains a perfect matching of its ground's vertex set."""
    if G.ground.mode == BIPARTITE:
        size, _ = _kuhn_matching(_row_masks(G))
        return size == G.ground.size
    _require_even(G.ground)
    return next(_pm_masks(G), None) is not None


def enumerate_perfect_matchings(G: Graph) -> Family:
    """All perfect matchings of G, in canonical (edge-count, edge-id) order."""
    _require_even(G.ground)
    width = G.ground.edge_count
    masks = sorted(_pm_masks(G), key=lambda m: mask_key(m, width))
    return Family(G.ground, [Graph(G.ground, m) for m in masks])


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^\d+(/\d+)?$")


def parse_rational(token: str) -> Fraction:
    """Non-negative integer or p/q fraction, exactly as weight files allow."""
    if not _RATIONAL_RE.match(token):
        raise InputError(f"bad weight {token!r}: expected integer or p/q")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise InputError(f"bad weight {token!r}: zero denominator") from None
    except ValueError as exc:  # more digits than int() converts
        raise InputError(f"bad weight: {exc}") from None


def _exact_weight(w) -> Fraction:
    """A weight as an exact Fraction. Floats are refused rather than
    expanded (0.1 is not 1/10), and so are bools."""
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

    def weight_of(self, x: Graph | int) -> Fraction:
        """Total weight of a graph or raw edge mask."""
        mask = x.edges if isinstance(x, Graph) else x
        total = Fraction(0)
        while mask:
            k = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            total += self.weights[k]
        return total

    def _solve(self):
        if self._solution is None:
            n = self.ground.size
            cost = [
                [self.weights[i * n + j] for j in range(n)] for i in range(n)
            ]
            self._solution = hungarian(cost)
        return self._solution

    def optimum(self) -> Fraction:
        """Minimum weight of a perfect matching of the full ground."""
        return self._solve()[0]

    def tight_mask(self) -> int:
        """Edges whose weight meets its dual bound u_i + v_j.

        Every minimum-weight perfect matching lives inside this subgraph, and
        every perfect matching inside it is minimum-weight.
        """
        if self._tight is None:
            _, _, u, v = self._solve()
            n = self.ground.size
            mask = 0
            for i in range(n):
                wrow = i * n
                for j in range(n):
                    if self.weights[wrow + j] == u[i] + v[j]:
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

def _scc_ids(nvert: int, arcs: list[list[int]]) -> list[int]:
    """Kosaraju strongly connected components; returns component id per vertex."""
    order: list[int] = []
    seen = [False] * nvert
    for s in range(nvert):
        if seen[s]:
            continue
        stack = [(s, 0)]
        seen[s] = True
        while stack:
            x, k = stack[-1]
            if k < len(arcs[x]):
                stack[-1] = (x, k + 1)
                y = arcs[x][k]
                if not seen[y]:
                    seen[y] = True
                    stack.append((y, 0))
            else:
                order.append(x)
                stack.pop()
    rev: list[list[int]] = [[] for _ in range(nvert)]
    for x in range(nvert):
        for y in arcs[x]:
            rev[y].append(x)
    comp = [-1] * nvert
    cid = 0
    for s in reversed(order):
        if comp[s] >= 0:
            continue
        stack = [s]
        comp[s] = cid
        while stack:
            x = stack.pop()
            for y in rev[x]:
                if comp[y] < 0:
                    comp[y] = cid
                    stack.append(y)
        cid += 1
    return comp


def pm_support(G: Graph) -> Graph:
    """Edges of G lying in at least one perfect matching of G.

    Empty if G has no perfect matching. An edge outside a fixed perfect
    matching M is usable iff it closes an M-alternating cycle, i.e. iff its
    endpoints share a strongly connected component of the orientation that
    sends unmatched edges left-to-right and matched edges right-to-left.
    """
    _require_bipartite(G.ground, "pm_support")
    n = G.ground.size
    size, match_right = _kuhn_matching(_row_masks(G))
    if size < n:
        return Graph(G.ground, 0)
    arcs: list[list[int]] = [[] for _ in range(2 * n)]
    for k in range(G.ground.edge_count):
        if not G.edges >> k & 1:
            continue
        i, j = divmod(k, n)
        if match_right[j] == i:
            arcs[n + j].append(i)
        else:
            arcs[i].append(n + j)
    comp = _scc_ids(2 * n, arcs)
    mask = 0
    for k in range(G.ground.edge_count):
        if not G.edges >> k & 1:
            continue
        i, j = divmod(k, n)
        if match_right[j] == i or comp[i] == comp[n + j]:
            mask |= 1 << k
    return Graph(G.ground, mask)


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
