"""The poset of covered graphs plus a bottom, and its order-theoretic tools.

Elements are held in a fixed linear extension (canonical graph order, bottom
first). Per-element down-sets and up-sets are bitmasks over element indices,
which makes order queries, meets, joins, Mobius numbers, rank labels, and
Eulerian interval counts cheap integer work even for a few thousand elements.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

import numpy as np

from .errors import InputError, StructureViolationError
from .covered import CoveredSet
from .graphs import Graph, GroundGraph, _iter_bits, canonical_key, edge_list_str


class RankLabels(NamedTuple):
    """Longest-chain ranks, plus the first cover that breaks gradedness."""

    ranks: dict[Graph, int]
    violation: Optional[tuple[Graph, Graph]]

    @property
    def graded(self) -> bool:
        return self.violation is None


class EulerianCheck(NamedTuple):
    eulerian: bool
    reason: Optional[str]
    witness: Optional[tuple[Graph, Graph]]


class Lattice:
    """Finite poset of distinct spanning subgraphs ordered by edge inclusion.

    Construction requires a unique minimum and a unique maximum; whether every
    pair has a unique meet and join is a separate question answered honestly
    by verify_lattice / meet / join, never assumed.
    """

    def __init__(self, elements: list[Graph]):
        if not elements:
            raise InputError("a lattice needs at least one element")
        ground = elements[0].ground
        for g in elements:
            if g.ground != ground:
                raise InputError("lattice elements must share one ground")
        elements = sorted(set(elements), key=canonical_key)
        self.ground: GroundGraph = ground
        self.elements: tuple[Graph, ...] = tuple(elements)
        self._index = {g.edges: k for k, g in enumerate(self.elements)}
        n = len(self.elements)
        self._down, self._up = self._order_masks()
        bottoms = [k for k in range(n) if self._down[k] == 1 << k]
        tops = [k for k in range(n) if self._up[k] == 1 << k]
        if len(bottoms) != 1 or len(tops) != 1:
            raise StructureViolationError(
                f"poset has {len(bottoms)} minimal and {len(tops)} maximal elements"
            )
        self._bottom = bottoms[0]
        self._top = tops[0]
        self._covers = self._cover_pairs()
        self._mobius: dict[int, int] = {}
        self._ranklabels: Optional[tuple[list[int], Optional[tuple[int, int]]]] = None

    # -- construction helpers ------------------------------------------------

    def _order_masks(self) -> tuple[list[int], list[int]]:
        """Down-set and up-set bitmasks from pairwise subset tests.

        The canonical element order is a linear extension (strict subgraphs
        have strictly fewer edges), which later code relies on.
        """
        n = len(self.elements)
        masks = [g.edges for g in self.elements]
        if self.ground.edge_count <= 62:
            arr = np.array(masks, dtype=np.int64)
            comp = (arr[:, None] & arr[None, :]) == arr[:, None]  # comp[i,j]: i <= j
            down = [
                int.from_bytes(
                    np.packbits(comp[:, j], bitorder="little").tobytes(), "little"
                )
                for j in range(n)
            ]
            up = [
                int.from_bytes(
                    np.packbits(comp[i, :], bitorder="little").tobytes(), "little"
                )
                for i in range(n)
            ]
            return down, up
        down = [0] * n
        up = [0] * n
        for i, mi in enumerate(masks):
            for j, mj in enumerate(masks):
                if mi & ~mj == 0:
                    down[j] |= 1 << i
                    up[i] |= 1 << j
        return down, up

    def _cover_pairs(self) -> list[tuple[int, int]]:
        """Transitive reduction: maximal strict predecessors of each element."""
        covers: list[tuple[int, int]] = []
        for j in range(len(self.elements)):
            candidates = self._down[j] & ~(1 << j)
            dominated = 0
            while candidates:
                x = candidates.bit_length() - 1  # highest index = maximal first
                covers.append((x, j))
                dominated |= self._down[x]
                candidates &= ~dominated & ~(1 << x)
        covers.sort()
        return covers

    # -- basic queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Graph) -> bool:
        return g.ground == self.ground and g.edges in self._index

    def index_of(self, g: Graph) -> int:
        k = self._index.get(g.edges) if g.ground == self.ground else None
        if k is None:
            raise InputError(f"graph {edge_list_str(g)} is not a lattice element")
        return k

    @property
    def bottom(self) -> Graph:
        return self.elements[self._bottom]

    @property
    def top(self) -> Graph:
        return self.elements[self._top]

    def leq(self, x: Graph, y: Graph) -> bool:
        ix, iy = self.index_of(x), self.index_of(y)
        return self._down[iy] >> ix & 1 == 1

    def covers(self) -> list[tuple[Graph, Graph]]:
        return [(self.elements[a], self.elements[b]) for (a, b) in self._covers]

    # -- meet / join -----------------------------------------------------------

    def _meet_index(self, ix: int, iy: int) -> Optional[int]:
        common = self._down[ix] & self._down[iy]  # nonempty: bottom is in both
        h = common.bit_length() - 1
        return h if self._down[h] == common else None

    def _join_index(self, ix: int, iy: int) -> Optional[int]:
        common = self._up[ix] & self._up[iy]
        low = (common & -common).bit_length() - 1
        return low if self._up[low] == common else None

    def meet(self, x: Graph, y: Graph) -> Graph:
        k = self._meet_index(self.index_of(x), self.index_of(y))
        if k is None:
            raise StructureViolationError(
                f"no unique meet of {edge_list_str(x)} and {edge_list_str(y)}"
            )
        return self.elements[k]

    def join(self, x: Graph, y: Graph) -> Graph:
        k = self._join_index(self.index_of(x), self.index_of(y))
        if k is None:
            raise StructureViolationError(
                f"no unique join of {edge_list_str(x)} and {edge_list_str(y)}"
            )
        return self.elements[k]

    def is_lattice(self) -> bool:
        """Every pair has a unique meet and join.

        Comparable pairs trivially meet at the lower and join at the upper
        element, so only incomparable pairs need the generic check.
        """
        down, up = self._down, self._up
        for i in range(len(self.elements)):
            di, ui = down[i], up[i]
            for j in range(i + 1, len(self.elements)):
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

    # -- Mobius numbers ----------------------------------------------------------

    def mobius(self, x: Graph) -> int:
        """Mobius number mu(bottom, x), memoized over the down-set of x."""
        ix = self.index_of(x)
        memo = self._mobius
        if ix not in memo:
            for k in _iter_bits(self._down[ix]):  # ascending = linear extension
                if k in memo:
                    continue
                if k == self._bottom:
                    memo[k] = 1
                    continue
                total = 0
                for z in _iter_bits(self._down[k] & ~(1 << k)):
                    total += memo[z]
                memo[k] = -total
        return memo[ix]

    def mobius_table(self) -> dict[Graph, int]:
        self.mobius(self.top)
        return {g: self._mobius[k] for k, g in enumerate(self.elements)}

    def _mobius_pair(self, ix: int, iy: int) -> int:
        """mu(x, y) inside the interval [x, y]; used by the secondary
        Eulerian cross-check only, so it recomputes without memo."""
        interval = self._up[ix] & self._down[iy]
        memo: dict[int, int] = {}
        for k in _iter_bits(interval):
            if k == ix:
                memo[k] = 1
                continue
            memo[k] = -sum(memo[z] for z in _iter_bits(self._down[k] & interval & ~(1 << k)))
        return memo[iy]

    # -- ranks, gradedness, Eulerian property ------------------------------------

    def _rank_data(self) -> tuple[list[int], Optional[tuple[int, int]]]:
        if self._ranklabels is None:
            ranks = [0] * len(self.elements)
            for (a, b) in self._covers:  # sorted, and index order is topological
                if ranks[a] + 1 > ranks[b]:
                    ranks[b] = ranks[a] + 1
            violation = None
            for (a, b) in self._covers:
                if ranks[b] != ranks[a] + 1:
                    violation = (a, b)
                    break
            self._ranklabels = (ranks, violation)
        return self._ranklabels

    def rank_labels(self) -> RankLabels:
        """Longest-chain-from-bottom ranks; a labeling is graded iff every
        cover step raises the rank by exactly one, otherwise the first
        offending cover pair is the witness."""
        ranks, violation = self._rank_data()
        witness = None
        if violation is not None:
            witness = (self.elements[violation[0]], self.elements[violation[1]])
        return RankLabels(
            {g: ranks[k] for k, g in enumerate(self.elements)}, witness
        )

    @property
    def is_graded(self) -> bool:
        return self._rank_data()[1] is None

    def level_counts(self) -> tuple[int, ...]:
        """Number of elements per rank, bottom upward."""
        ranks, _ = self._rank_data()
        out = [0] * (max(ranks) + 1)
        for r in ranks:
            out[r] += 1
        return tuple(out)

    def height(self) -> int:
        return self._rank_data()[0][self._top]

    def eulerian_check(self) -> EulerianCheck:
        """Equal counts of even- and odd-ranked elements in every interval
        [x, y] with x < y. Requires gradedness; a non-graded poset fails with
        the offending cover as witness."""
        ranks, violation = self._rank_data()
        if violation is not None:
            return EulerianCheck(
                False,
                "not graded",
                (self.elements[violation[0]], self.elements[violation[1]]),
            )
        even = 0
        for k, r in enumerate(ranks):
            if r % 2 == 0:
                even |= 1 << k
        odd = ~even & ((1 << len(self.elements)) - 1)
        for i in range(len(self.elements)):
            ui = self._up[i]
            for j in _iter_bits(ui & ~(1 << i)):
                interval = ui & self._down[j]
                if (interval & even).bit_count() != (interval & odd).bit_count():
                    return EulerianCheck(
                        False, "interval", (self.elements[i], self.elements[j])
                    )
        return EulerianCheck(True, None, None)

    def is_eulerian(self) -> bool:
        return self.eulerian_check().eulerian

    def eulerian_mobius_check(self) -> bool:
        """Secondary cross-check: mu(x, y) == (-1)^(rank difference) on every
        interval. Quadratic with interval-sized recursions; desk scale only."""
        ranks, violation = self._rank_data()
        if violation is not None:
            return False
        for i in range(len(self.elements)):
            for j in _iter_bits(self._up[i]):
                if self._mobius_pair(i, j) != (-1) ** (ranks[j] - ranks[i]):
                    return False
        return True

    # -- intervals and sublattices -------------------------------------------------

    def interval(self, x: Graph, y: Graph) -> "Lattice":
        """The closed interval [x, y] as its own lattice (copied, not aliased)."""
        ix, iy = self.index_of(x), self.index_of(y)
        if not self._down[iy] >> ix & 1:
            raise InputError("interval endpoints must satisfy x <= y")
        members = [self.elements[k] for k in _iter_bits(self._up[ix] & self._down[iy])]
        return Lattice(members)

    def find_pentagon(self) -> Optional[tuple[Graph, Graph, Graph, Graph, Graph]]:
        """Search for an N5 sublattice (b, a, c1, c2, t).

        Requirements: b < a < t, b < c1 < c2 < t, a incomparable to c1 and c2,
        join(a, c1) = t, meet(a, c2) = b. Scans incomparable pairs (a, c1) in
        index order and returns the first witness, or None.
        """
        down, up = self._down, self._up
        n = len(self.elements)
        for a in range(n):
            da, ua = down[a], up[a]
            for c1 in range(n):
                if (da >> c1 | down[c1] >> a) & 1 or a == c1:
                    continue
                t = self._join_index(a, c1)
                b = self._meet_index(a, c1)
                if t is None or b is None:
                    continue
                candidates = up[c1] & down[t] & ~(1 << c1) & ~(1 << t)
                for c2 in _iter_bits(candidates):
                    if (da >> c2 | down[c2] >> a) & 1:
                        continue
                    if self._meet_index(a, c2) == b:
                        E = self.elements
                        return (E[b], E[a], E[c1], E[c2], E[t])
        return None

    # -- export ----------------------------------------------------------------------

    def to_dot(self) -> str:
        """Hasse diagram in DOT, layered by rank (edges point upward)."""
        ranks, _ = self._rank_data()
        lines = [
            "digraph lattice {",
            "  rankdir=BT;",
            "  node [shape=box, fontsize=10];",
        ]
        for k, g in enumerate(self.elements):
            lines.append(f'  n{k} [label="{edge_list_str(g)}"];')
        for (a, b) in self._covers:
            lines.append(f"  n{a} -> n{b};")
        by_rank: dict[int, list[int]] = {}
        for k, r in enumerate(ranks):
            by_rank.setdefault(r, []).append(k)
        for r in sorted(by_rank):
            row = "; ".join(f"n{k}" for k in by_rank[r])
            lines.append(f"  {{ rank=same; {row}; }}")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        ranks, violation = self._rank_data()
        table = self.mobius_table()
        return {
            "ground": {"mode": self.ground.mode, "size": self.ground.size},
            "elements": [g.edge_pairs() for g in self.elements],
            "covers": [[a, b] for (a, b) in self._covers],
            "mobius": [table[g] for g in self.elements],
            "ranks": ranks,
            "graded": violation is None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def build_lattice(C: CoveredSet) -> Lattice:
    """Covered graphs plus the empty graph as bottom, ordered by inclusion."""
    if len(C) == 0:
        raise InputError("cannot build a lattice from an empty covered set")
    return Lattice([C.ground.empty_graph(), *C.graphs])


def verify_lattice(L: Lattice) -> bool:
    """True iff every pair of elements has a unique meet and a unique join."""
    return L.is_lattice()
