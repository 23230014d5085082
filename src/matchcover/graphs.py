"""Ground graphs, spanning subgraphs, and elementary graph quantities.

A ground graph fixes the host: the complete bipartite graph K_{n,n} or the
complete graph K_m. Every Graph is a spanning subgraph of its ground (full
vertex set, arbitrary edge subset) stored as an edge bitmask, so equality,
hashing, union, and subset tests are single integer operations. Vertices are
1-based in all external formats; bipartite edges are (left i, right j).
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InputError

BIPARTITE = "bipartite"
COMPLETE = "complete"


def _check_ground(mode: str, size: int) -> None:
    if mode not in (BIPARTITE, COMPLETE):
        raise InputError(f"unknown ground mode {mode!r}")
    if type(size) is not int or size < 1:  # not bool, float or str
        raise InputError(f"ground size must be a positive integer, got {size!r}")


class GroundGraph:
    """Host graph K_{n,n} (mode "bipartite") or K_m (mode "complete").

    Edge ids are arithmetic, so a ground of any size holds no per-edge table:
    bipartite edge (i, j) has id (i-1)*n + (j-1); complete edge {u, v} with
    u < v has its lexicographic rank among all unordered pairs of 1..m.
    """

    __slots__ = ("mode", "size", "edge_count")

    def __init__(self, mode: str, size: int):
        _check_ground(mode, size)
        self.mode = mode
        self.size = size
        self.edge_count = size * size if mode == BIPARTITE else size * (size - 1) // 2

    @property
    def vertex_count(self) -> int:
        return 2 * self.size if self.mode == BIPARTITE else self.size

    def edge_index(self, u: int, v: int) -> int:
        """Edge id of bipartite (left u, right v) or complete {u, v}."""
        n = self.size
        if type(u) is int and type(v) is int:  # not bool, float or str
            if self.mode == BIPARTITE:
                if 0 < u <= n and 0 < v <= n:
                    return (u - 1) * n + v - 1
            else:
                u, v = min(u, v), max(u, v)
                if 0 < u < v <= n:  # (u-1)(2n-u)/2 pairs start below u
                    return (u - 1) * (2 * n - u) // 2 + v - u - 1
        raise InputError(f"({u!r}, {v!r}) is not an edge of {self.header()}")

    def edge_pair(self, k: int) -> tuple[int, int]:
        """The edge with id k: (left, right), or {u, v} as (u, v) with u < v."""
        if not 0 <= k < self.edge_count:
            raise InputError(f"edge id {k} out of range for {self.header()}")
        n = self.size
        if self.mode == BIPARTITE:
            i, j = divmod(k, n)
            return i + 1, j + 1
        # counted from the last pair, the row of u = n - d holds ranks
        # d(d-1)/2 up to d(d+1)/2 - 1, its pairs in descending v
        t = self.edge_count - 1 - k
        d = (isqrt(8 * t + 1) + 1) // 2
        return n - d, n - t + d * (d - 1) // 2

    def empty_graph(self) -> "Graph":
        return Graph(self, 0)

    def full_graph(self) -> "Graph":
        return Graph(self, (1 << self.edge_count) - 1)

    def graph_from_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        ids = [self.edge_index(u, v) for (u, v) in pairs]
        return Graph(self, _mask_of_ids(ids, self.edge_count))

    def header(self) -> str:
        return f"{self.mode} {self.size}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroundGraph)
            and self.mode == other.mode
            and self.size == other.size
        )

    def __hash__(self) -> int:
        return hash((self.mode, self.size))

    def __repr__(self) -> str:
        return f"GroundGraph({self.mode!r}, {self.size})"


def bipartite_ground(n: int) -> GroundGraph:
    return GroundGraph(BIPARTITE, n)


def complete_ground(m: int) -> GroundGraph:
    return GroundGraph(COMPLETE, m)


class Graph:
    """Immutable spanning subgraph of a ground graph, held as an edge bitmask."""

    __slots__ = ("ground", "edges")

    def __init__(self, ground: GroundGraph, edges: int):
        if edges < 0 or edges.bit_length() > ground.edge_count:
            raise InputError(f"edge mask {edges:#x} out of range for {ground.header()}")
        self.ground = ground
        self.edges = edges

    @property
    def edge_count(self) -> int:
        return self.edges.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.edges == 0

    def edge_ids(self) -> list[int]:
        return list(_iter_bits(self.edges))

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [self.ground.edge_pair(k) for k in _iter_bits(self.edges)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.ground == other.ground
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.ground.mode, self.ground.size, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.ground.header()!r}, {{{edge_list_str(self)}}})"


def _iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of_ids(ids: list[int], width: int) -> int:
    """The mask of a list of edge ids below width, set in one bytearray
    rather than by one width-bit OR an id."""
    buf = bytearray((width + 7) >> 3)
    for k in ids:
        buf[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")


# Rows per piece that _row_masks and _mask_of_rows shift row by row. Longer
# runs of rows are halved first, so no shift spans more than this many rows
# plus the halving's O(log n) passes over the whole mask: O(n^2 log n) bit
# work for n rows, where shifting the whole mask once a row is O(n^3).
_ROW_RUN = 32


def _row_masks(G: Graph) -> list[int]:
    """rows[i] = bitmask of right vertices j (0-based) adjacent to left i."""
    n = G.ground.size
    full_row = (1 << n) - 1
    rows: list[int] = []

    def split(mask: int, count: int) -> None:
        if count <= _ROW_RUN:
            rows.extend([mask >> (i * n) & full_row for i in range(count)])
            return
        half = count // 2
        split(mask & (1 << half * n) - 1, half)
        split(mask >> half * n, count - half)

    split(G.edges, n)
    return rows


def _mask_of_rows(rows: list[int]) -> int:
    """The edge mask whose row i is rows[i], each below 2^n for n rows: the
    inverse of _row_masks, joined by halves the same way."""
    n = len(rows)

    def join(lo: int, hi: int) -> int:
        if hi - lo <= _ROW_RUN:
            mask = 0
            for i in reversed(range(lo, hi)):
                mask = mask << n | rows[i]
            return mask
        mid = (lo + hi) // 2
        return join(mid, hi) << (mid - lo) * n | join(lo, mid)

    return join(0, n)


def _components(rows: list[int]) -> list[tuple[int, int]]:
    """Connected components of the bipartite graph whose row i meets the
    columns in the bitmask rows[i], as (row set, column set) bitmask pairs.
    Columns that no row meets are left out.

    Each row in turn is merged with every component that already holds one
    of its columns; a column's component is found through a union-find over
    the components. Each merge removes a component and each column is
    labelled once, so the number of steps is linear in the rows and
    columns, not in the edges, and each step is one operation on n-bit ints.
    """
    parent: list[int] = []
    members: list[int] = []
    cols: list[int] = []
    label = [0] * len(rows)  # a component that holds the column
    seen = 0
    for i, row in enumerate(rows):
        k = len(parent)
        parent.append(k)
        members.append(1 << i)
        cols.append(row)
        old = row & seen
        while old:
            r = label[(old & -old).bit_length() - 1]
            while parent[r] != r:  # find, halving the path
                parent[r] = parent[parent[r]]
                r = parent[r]
            old &= ~cols[r]
            parent[r] = k
            members[k] |= members[r]
            cols[k] |= cols[r]
        new = row & ~seen
        seen |= row
        while new:
            low = new & -new
            label[low.bit_length() - 1] = k
            new ^= low
    return [(members[k], cols[k]) for k in range(len(parent)) if parent[k] == k]


def component_count(G: Graph) -> int:
    """Connected components of the spanning subgraph; isolated vertices count."""
    n = G.ground.size
    if G.ground.mode == BIPARTITE:
        comps = _components(_row_masks(G))
        return len(comps) + n - sum(cols.bit_count() for _, cols in comps)
    # row u meets column u and the columns of its neighbours above u, whose
    # edges {u, v} hold the n - u - 1 ids from u(2n - u - 1)/2 (0-based)
    rows = [
        1 << u | (G.edges >> u * (2 * n - u - 1) // 2 & (1 << n - u - 1) - 1) << u + 1
        for u in range(n)
    ]
    return len(_components(rows))


def cyclomatic_number(G: Graph) -> int:
    """Number of independent cycles: |E| - |V| + number of components."""
    return G.edge_count - G.ground.vertex_count + component_count(G)


class Family:
    """Ordered list of pairwise distinct spanning subgraphs of one ground."""

    __slots__ = ("ground", "members")

    def __init__(self, ground: GroundGraph, members: Iterable[Graph]):
        members = tuple(members)
        seen = set()
        for g in members:
            if g.ground != ground:
                raise InputError(
                    f"family member ground {g.ground.header()} != {ground.header()}"
                )
            if g.edges in seen:
                raise InputError("family members must be pairwise distinct")
            seen.add(g.edges)
        self.ground = ground
        self.members = members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.members)

    def __getitem__(self, k: int) -> Graph:
        return self.members[k]

    def __contains__(self, g: Graph) -> bool:
        return any(g == m for m in self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Family)
            and self.ground == other.ground
            and self.members == other.members
        )

    def __repr__(self) -> str:
        return f"Family({self.ground.header()!r}, {len(self.members)} members)"


# ---------------------------------------------------------------------------
# Text format
#
# First line "bipartite <n>" or "complete <m>", then one edge per line as
# "u v" (1-based). Blank lines and "#" comments are ignored.
# ---------------------------------------------------------------------------

def _parse_header(header: str) -> tuple[str, int]:
    """Mode and size of a ground header, checked."""
    parts = header.split()
    if len(parts) != 2:
        raise InputError(f"bad ground header {header!r}")
    mode, size = parts[0], parts[1]
    try:
        n = int(size)
    except ValueError:
        raise InputError(f"bad ground size {size!r}") from None
    _check_ground(mode, n)
    return mode, n


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_graph(text: str, ground: GroundGraph) -> Graph:
    """Parse the text format of a graph on the expected ground, which the
    header must name."""
    lines = _content_lines(text)
    if not lines:
        raise InputError("empty graph file")
    mode, size = _parse_header(lines[0][1])
    if (mode, size) != (ground.mode, ground.size):
        raise InputError(f"graph ground {mode} {size} does not match {ground.header()}")
    ids = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer vertex in {line!r}") from None
        ids.append(ground.edge_index(u, v))
    return Graph(ground, _mask_of_ids(ids, ground.edge_count))


class _Written(int):
    """How many characters a writer put into a file. len() of it is that
    count too, as len() of the str the writer returns without a file."""

    __slots__ = ()

    def __len__(self) -> int:
        return int(self)


def _write_chunks(chunks: Iterable[str], file=None) -> str | int:
    """The chunks joined into one str; or, given a text file, each chunk
    written to it as it comes, and the number of characters written."""
    if file is None:
        return "".join(chunks)
    total = 0
    for chunk in chunks:
        file.write(chunk)
        total += len(chunk)
        del chunk  # not held while the next one is made
    return _Written(total)


def _joined(
    count: int, items: Callable[[int, int], list], step: int,
    sep: str, first: str, last: str, empty: str,
) -> Iterator[str]:
    """count items joined by sep, one string per chunk of step items: the
    first chunk opened by first, each later one by sep, the final one closed
    by last; empty alone when count is 0. items(lo, hi) gives the pieces of
    items lo to hi - 1 as columns, each an object array of strings with one
    entry per item or one str for all of them. A chunk is one 2-D object
    array, a separator column and then those columns, read row by row by a
    single join: no string is built per item."""
    if not count:
        yield empty
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        columns = items(lo, hi)
        pieces = np.empty((hi - lo, 1 + len(columns)), dtype=object)
        pieces[:, 0] = sep
        pieces[0, 0] = sep if lo else first
        for j, column in enumerate(columns, 1):
            pieces[:, j] = column
        yield "".join(pieces.ravel().tolist()) + (last if hi == count else "")


def edge_list_str(G: Graph) -> str:
    """One-line form used in reports and exports: 'u,v' pairs, '{}' if empty."""
    if G.is_empty:
        return "{}"
    return " ".join(f"{u},{v}" for (u, v) in G.edge_pairs())
