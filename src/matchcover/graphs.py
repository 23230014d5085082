"""Ground graphs, spanning subgraphs, and elementary graph quantities.

A ground graph fixes the host: the complete bipartite graph K_{n,n} or the
complete graph K_m. Every Graph is a spanning subgraph of its ground (full
vertex set, arbitrary edge subset) stored as an edge bitmask, so equality,
hashing, union, and subset tests are single integer operations. Vertices are
1-based in all external formats; bipartite edges are (left i, right j).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InputError

BIPARTITE = "bipartite"
COMPLETE = "complete"


def _check_ground(mode: str, size: int) -> None:
    if mode not in (BIPARTITE, COMPLETE):
        raise InputError(f"unknown ground mode {mode!r}")
    if not isinstance(size, int) or size < 1:
        raise InputError(f"ground size must be a positive integer, got {size!r}")


class GroundGraph:
    """Host graph K_{n,n} (mode "bipartite") or K_m (mode "complete").

    Edge ids are fixed at construction: bipartite edge (i, j) has id
    (i-1)*n + (j-1); complete edge {u, v} with u < v has its lexicographic
    rank among all unordered pairs of 1..m.
    """

    __slots__ = ("mode", "size", "_pairs", "_index", "_ends")

    def __init__(self, mode: str, size: int):
        _check_ground(mode, size)
        self.mode = mode
        self.size = size
        if mode == BIPARTITE:
            self._pairs = tuple(
                (i, j) for i in range(1, size + 1) for j in range(1, size + 1)
            )
            # internal vertex ids: left i -> i-1, right j -> size + j - 1
            self._ends = tuple((i - 1, size + j - 1) for (i, j) in self._pairs)
        else:
            self._pairs = tuple(
                (u, v) for u in range(1, size + 1) for v in range(u + 1, size + 1)
            )
            self._ends = tuple((u - 1, v - 1) for (u, v) in self._pairs)
        self._index = {p: k for k, p in enumerate(self._pairs)}

    @property
    def edge_count(self) -> int:
        return len(self._pairs)

    @property
    def vertex_count(self) -> int:
        return 2 * self.size if self.mode == BIPARTITE else self.size

    def edge_index(self, u: int, v: int) -> int:
        """Edge id of bipartite (left u, right v) or complete {u, v}."""
        if self.mode == COMPLETE and u > v:
            u, v = v, u
        k = self._index.get((u, v))
        if k is None:
            raise InputError(f"({u}, {v}) is not an edge of {self.header()}")
        return k

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        if not 0 <= edge_id < len(self._pairs):
            raise InputError(f"edge id {edge_id} out of range for {self.header()}")
        return self._pairs[edge_id]

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def empty_graph(self) -> "Graph":
        return Graph(self, 0)

    def full_graph(self) -> "Graph":
        return Graph(self, (1 << len(self._pairs)) - 1)

    def graph_from_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        mask = 0
        for (u, v) in pairs:
            mask |= 1 << self.edge_index(u, v)
        return Graph(self, mask)

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
        if not 0 <= edges < (1 << ground.edge_count):
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
        pairs = self.ground.edge_pairs()
        return [pairs[k] for k in self.edge_ids()]

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


def mask_key(mask: int, width: int) -> tuple[int, int]:
    """Sort key on raw edge masks of a width-edge ground for the canonical
    order used everywhere: ascending edge count, then the sorted edge ids.

    Among masks of one edge count, the one holding the smallest edge id of
    their difference comes first, so it has the larger bit-reversed mask.
    """
    return (mask.bit_count(), -int(f"{mask:0{width}b}"[::-1], 2))


def component_count(G: Graph) -> int:
    """Connected components of the spanning subgraph; isolated vertices count."""
    parent = list(range(G.ground.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ends = G.ground._ends
    mask = G.edges
    while mask:
        k = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        a, b = ends[k]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return sum(1 for x in range(len(parent)) if find(x) == x)


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
    """Mode and size of a ground header, checked without building the ground,
    so that a file can be compared with what it should hold first."""
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
    """Parse the text format of a graph on the expected ground. The header
    must name that ground; it is compared before anything is built, so a
    header naming a huge ground costs nothing."""
    lines = _content_lines(text)
    if not lines:
        raise InputError("empty graph file")
    mode, size = _parse_header(lines[0][1])
    if (mode, size) != (ground.mode, ground.size):
        raise InputError(f"graph ground {mode} {size} does not match {ground.header()}")
    mask = 0
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer vertex in {line!r}") from None
        mask |= 1 << ground.edge_index(u, v)
    return Graph(ground, mask)


def edge_list_str(G: Graph) -> str:
    """One-line form used in reports and exports: 'u,v' pairs, '{}' if empty."""
    if G.is_empty:
        return "{}"
    return " ".join(f"{u},{v}" for (u, v) in G.edge_pairs())
