"""The poset of covered graphs plus a bottom, and its order-theoretic tools.

Elements are held in a fixed linear extension (canonical graph order, bottom
first). Per-element down-sets and up-sets are bitmasks over element indices,
built as ANDs of one element bitmask per edge, which makes order queries,
meets, joins and rank labels cheap integer work even for a few thousand
elements. The three whole-lattice passes work on those masks packed into
uint64 rows:

- Mobius numbers mu(bottom, x) are computed one edge-count level at a time,
  as popcounts of packed down-set rows against bit planes of the numbers
  already known (exact at any magnitude);
- the Eulerian check counts the even- and odd-ranked elements of the
  intervals of even length in batches of packed up-row / down-row pairs;
- the JSON export writes its bytes directly instead of through the json
  encoder.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import NamedTuple, Optional

import numpy as np

from .errors import InputError, StructureViolationError
from .covered import CoveredSet
from .graphs import Graph, GroundGraph, _iter_bits, edge_list_str, mask_key

# Words per block of packed down-set rows in the Mobius pass: 2^18 uint64
# are 2 MB.
_BLOCK_WORDS = 1 << 18
# Words per batch of interval tests, and per chunk of packed up-rows, in the
# Eulerian check: small enough for the cache.
_BATCH_WORDS = 1 << 16


def _pack_ints(masks: list[int], words: int) -> np.ndarray:
    """Bitmasks below 2^(64 * words) as rows of little-endian uint64 words."""
    data = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(data, dtype=np.uint64).reshape(len(masks), words)


def _json_array(items: list[str]) -> str:
    """A list of encoded items as json.dumps writes it at indent 2, one level
    below the top object."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _set_bits(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of every set bit of packed uint64 rows, in no set order:
    the lowest bit of every nonzero word is peeled off, round by round."""
    r, w = np.nonzero(rows)
    words = rows[r, w]
    found_rows, found_columns = [r[:0]], [w[:0]]
    while len(words):
        low = words & (~words + np.uint64(1))
        found_rows.append(r)
        exponent = np.frexp(low.astype(np.float64))[1]  # exact: low is a power of two
        found_columns.append(w * 64 + exponent - 1)
        words ^= low
        left = words != 0
        r, w, words = r[left], w[left], words[left]
    return np.concatenate(found_rows), np.concatenate(found_columns)


def _first_unbalanced(
    up: np.ndarray,
    first_row: int,
    down: np.ndarray,
    even: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> Optional[tuple[int, int]]:
    """The first pair (x[k], y[k]) in index order whose interval, the common
    bits of up-row x (row x - first_row of up) and down-row y, does not hold
    as many elements of the even mask as outside it; or None.

    Pairs are sorted by the 64-row block of x and then by y, and tested in
    batches of about _BATCH_WORDS words. The interval of (x, y) lies
    between indices x and y, so a batch in one row block needs only the
    words from that block to its largest y. Over those words, the popcount
    of interval ^ even exceeds that of even by the interval's odd elements
    minus its even ones, so one popcount per pair decides.
    """
    if not len(x):
        return None
    order = np.argsort((x // 64) * down.shape[0] + y)
    x, y = x[order], y[order]
    block = x // 64
    start = 0
    for end in [*np.flatnonzero(np.diff(block)) + 1, len(x)]:
        w0 = int(block[start])
        failed = []
        while start < end:
            stop = min(end, start + max(1, _BATCH_WORDS // (down.shape[1] - w0)))
            w1 = int(y[stop - 1]) // 64 + 1
            interval = up[x[start:stop] - first_row, w0:w1]
            interval &= down[y[start:stop], w0:w1]
            interval ^= even[w0:w1]  # its odd elements, and the even ones it lacks
            flipped = np.bitwise_count(interval).sum(axis=1, dtype=np.int32)
            bad = np.flatnonzero(flipped != np.bitwise_count(even[w0:w1]).sum()) + start
            failed.extend(zip(x[bad].tolist(), y[bad].tolist()))
            start = stop
        if failed:
            return min(failed)
    return None


def _pack_rows(rows: np.ndarray) -> list[int]:
    """Each boolean row as an int whose bit k is column k."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


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
    by is_lattice / meet / join, never assumed.
    """

    def __init__(self, elements: list[Graph]):
        if not elements:
            raise InputError("a lattice needs at least one element")
        ground = elements[0].ground
        for g in elements:
            if g.ground != ground:
                raise InputError("lattice elements must share one ground")
        width = ground.edge_count
        elements = sorted(set(elements), key=lambda g: mask_key(g.edges, width))
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
        self._mobius: Optional[list[int]] = None
        self._ranklabels: Optional[tuple[list[int], Optional[tuple[int, int]]]] = None

    # -- construction helpers ------------------------------------------------

    def _order_masks(self) -> tuple[list[int], list[int]]:
        """Down-set and up-set bitmasks, built from one bitmask per edge.

        For each edge e of the support (the union of the elements), has[e]
        holds the elements that contain e. The down-set of y is the
        intersection of the complements of has[e] over the support edges y
        lacks, and the up-set of x the intersection of has[e] over the
        edges of x: N * s ANDs of N-bit integers for s support edges, where
        pairwise subset tests take N^2 comparisons of edge masks. The
        canonical element order is a linear extension (strict subgraphs
        have strictly fewer edges), which later code relies on.
        """
        masks = [g.edges for g in self.elements]
        support = 0
        for m in masks:
            support |= m
        edges = list(_iter_bits(support))
        bits = [[m >> e & 1 for m in masks] for e in edges]
        has = _pack_rows(np.array(bits, dtype=bool).reshape(len(edges), len(masks)))
        full = (1 << len(masks)) - 1
        lacks = [full ^ h for h in has]
        down: list[int] = []
        up: list[int] = []
        for m in masks:
            below = above = full
            for e, h, lack in zip(edges, has, lacks):
                if m >> e & 1:
                    above &= h
                else:
                    below &= lack
            down.append(below)
            up.append(above)
        return down, up

    def _cover_pairs(self) -> list[tuple[int, int]]:
        """Transitive reduction: maximal strict predecessors of each element."""
        covers: list[tuple[int, int]] = []
        down = self._down
        for j in range(len(self.elements)):
            candidates = down[j] ^ 1 << j
            while candidates:
                x = candidates.bit_length() - 1  # highest index = maximal first
                covers.append((x, j))
                candidates &= ~down[x]  # x and all below it
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

        Certificate first. Let J be the join-irreducibles: the elements with
        exactly one lower cover (for a covered set, the matchings). If
        x | j is an element for every element x and every j in J, then by
        induction along the linear extension every element y is the bottom
        united with the J-elements below it: y is the bottom or in J, or it
        has two lower covers a and b, whose union is an element (add the
        J-elements below b to a one at a time) strictly above a and inside
        y, hence y itself. So the union of any two elements is reached from
        one of them by adding J-elements one at a time, and the set is
        closed under union. The union is then the join, and with the unique
        bottom every pair also has a meet (the join of its common lower
        bounds). That costs O(N * |J|) lookups.

        Otherwise fall back to the generic check, of joins only: a finite
        poset with a least element in which every pair has a join is a
        lattice. Comparable pairs trivially join at the upper element, so
        only incomparable pairs are tested.
        """
        index = self._index
        lower_covers = [0] * len(self.elements)
        for (_, b) in self._covers:
            lower_covers[b] += 1
        irreducible = [
            self.elements[k].edges for k, c in enumerate(lower_covers) if c == 1
        ]
        if all((g.edges | j) in index for g in self.elements for j in irreducible):
            return True
        down, up = self._down, self._up
        for i in range(len(self.elements)):
            di, ui = down[i], up[i]
            for j in range(i + 1, len(self.elements)):
                if (down[j] >> i | di >> j) & 1:
                    continue
                common = ui & up[j]
                low = (common & -common).bit_length() - 1
                if up[low] != common:
                    return False
        return True

    # -- Mobius numbers ----------------------------------------------------------

    def _mobius_numbers(self) -> list[int]:
        """mu(bottom, x) of every element, computed one edge-count level at a
        time and cached.

        A strict subgraph has strictly fewer edges, so each level of the
        canonical order is a contiguous index range whose strict down-sets
        lie wholly in the earlier levels (the bottom, alone in the first
        level, has mu = 1). mu of a row is minus the sum of the known mu over
        its down-set. The known values are split by sign and binary digit
        into bit planes, and the sum is the signed, weighted popcount of the
        packed row against each plane: exact at any magnitude.
        """
        if self._mobius is None:
            n = len(self.elements)
            edges = [g.edge_count for g in self.elements]
            mu = [1]
            planes = {(0, 0): 1}  # (sign, binary digit) -> bits of the elements with it
            lo = 1
            while lo < n:
                hi = bisect_right(edges, edges[lo], lo)
                keys = sorted(planes)
                words = -(-lo // 64)
                packed = _pack_ints([planes[key] for key in keys], words)
                weights = np.array(
                    [(1 - 2 * sign) << digit for sign, digit in keys], dtype=object
                )
                below = (1 << lo) - 1  # the strict down-set of a row of this level
                step = max(1, _BLOCK_WORDS // words)
                for start in range(lo, hi, step):
                    end = min(hi, start + step)
                    rows = _pack_ints([self._down[k] & below for k in range(start, end)], words)
                    hits = [np.bitwise_count(rows & plane).sum(axis=1) for plane in packed]
                    mu.extend((-(np.stack(hits, axis=1).astype(object) @ weights)).tolist())
                for k in range(lo, hi):
                    sign, size = int(mu[k] < 0), abs(mu[k])
                    for digit in range(size.bit_length()):
                        if size >> digit & 1:
                            planes[sign, digit] = planes.get((sign, digit), 0) | 1 << k
                lo = hi
            self._mobius = mu
        return self._mobius

    def mobius(self, x: Graph) -> int:
        """Mobius number mu(bottom, x)."""
        return self._mobius_numbers()[self.index_of(x)]

    def mobius_table(self) -> dict[Graph, int]:
        return dict(zip(self.elements, self._mobius_numbers()))

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
        [x, y] with x < y; the witness is the first failing pair in index
        order. Requires gradedness; a non-graded poset fails with the
        offending cover as witness.

        Intervals of even length decide the answer. A cover is balanced, and
        if every proper subinterval of an interval [x, y] of odd length l is
        balanced, then mu(u, v) = (-1)^(rank v - rank u) on all of them, and
        the two Mobius recursions give mu(x, y) = (-1)^l - A and
        mu(x, y) = (-1)^l - (-1)^l A, A being the alternating count of
        [x, y]; so A = 0. By induction on length, all intervals are balanced
        once the even ones are. An odd interval may still fail before the
        first failing even one in index order, so after a failure the pairs
        of every row up to it are checked again, all lengths included.
        """
        ranks, violation = self._rank_data()
        if violation is not None:
            return EulerianCheck(
                False,
                "not graded",
                (self.elements[violation[0]], self.elements[violation[1]]),
            )
        pair = self._scan_intervals(ranks, len(self.elements), even_only=True)
        if pair is None:
            return EulerianCheck(True, None, None)
        i, j = self._scan_intervals(ranks, pair[0] + 1, even_only=False)
        return EulerianCheck(False, "interval", (self.elements[i], self.elements[j]))

    def _scan_intervals(
        self, ranks: list[int], rows: int, even_only: bool
    ) -> Optional[tuple[int, int]]:
        """The first unbalanced pair (i, j), i < j and i < rows, in index
        order, checked over packed up-rows in chunks of about _BATCH_WORDS
        words; with even_only, only pairs of equal rank parity."""
        n = len(self.elements)
        words = -(-n // 64)
        down = _pack_ints(self._down, words)
        even_bits = sum(1 << k for k, r in enumerate(ranks) if r % 2 == 0)
        even = _pack_ints([even_bits], words)[0]
        odd_rank = np.array(ranks) % 2 == 1
        chunk = max(64, _BATCH_WORDS // words // 64 * 64)
        for lo in range(0, rows, chunk):
            k = np.arange(lo, min(rows, lo + chunk))
            up = _pack_ints(self._up[lo : lo + len(k)], words)
            if even_only:  # same parity as the row
                later = up & np.where(odd_rank[k, None], ~even, even)
            else:
                later = up.copy()
            later[k - lo, k // 64] &= ~(np.uint64(1) << (k % 64).astype(np.uint64))
            i, j = _set_bits(later)
            first = _first_unbalanced(up, lo, down, even, i + lo, j)
            if first is not None:
                return first
        return None

    def is_eulerian(self) -> bool:
        return self.eulerian_check().eulerian

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
        return {
            "ground": {"mode": self.ground.mode, "size": self.ground.size},
            "elements": [g.edge_pairs() for g in self.elements],
            "covers": [[a, b] for (a, b) in self._covers],
            "mobius": list(self.mobius_table().values()),
            "ranks": ranks,
            "graded": violation is None,
        }

    def to_json(self) -> str:
        """The bytes of json.dumps(self.to_json_dict(), indent=2,
        sort_keys=True) plus a newline, written directly rather than by the
        pure-Python encoder that indent selects."""
        ranks, violation = self._rank_data()
        pairs = [
            f"\n      [\n        {u},\n        {v}\n      ]"
            for (u, v) in self.ground.edge_pairs()
        ]
        elements = [
            f"[{','.join(pairs[k] for k in _iter_bits(g.edges))}\n    ]" if g.edges else "[]"
            for g in self.elements
        ]
        covers = [f"[\n      {a},\n      {b}\n    ]" for (a, b) in self._covers]
        mobius = [str(m) for m in self.mobius_table().values()]
        return (
            f'{{\n  "covers": {_json_array(covers)},\n  "elements": {_json_array(elements)},'
            f'\n  "graded": {"true" if violation is None else "false"},'
            f'\n  "ground": {{\n    "mode": {json.dumps(self.ground.mode)},'
            f'\n    "size": {self.ground.size}\n  }},'
            f'\n  "mobius": {_json_array(mobius)},'
            f'\n  "ranks": {_json_array([str(r) for r in ranks])}\n}}\n'
        )


def build_lattice(C: CoveredSet) -> Lattice:
    """Covered graphs plus the empty graph as bottom, ordered by inclusion."""
    if len(C) == 0:
        raise InputError("cannot build a lattice from an empty covered set")
    return Lattice([C.ground.empty_graph(), *C.graphs])
