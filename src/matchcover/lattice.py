"""The poset of covered graphs plus a bottom, and its order-theoretic tools.

Elements are held as a covered set holds its graphs: byte rows of their edge
masks on the support (SupportBits), in canonical order with the bottom first
(a fixed linear extension). build_lattice takes the covered set's rows as
they are; Graph objects are built from the rows only when asked for.
Per-element down-sets and up-sets are bitmasks over element indices. For
each byte of the support, a 256-entry table holds the AND of the element
bitmasks of the edges that a byte value has (up-sets) or lacks (down-sets),
so each element's masks are one AND per support byte. That makes intervals
and the pentagon search cheap integer work even for a few thousand
elements. The covers are two sorted index arrays. The order itself
is not exported: it is edge inclusion, which callers test on the graphs
directly. The whole-lattice passes work on arrays:

- is_lattice joins every element with each element that has a single
  lower cover, by ORing that element's byte row into all rows and looking
  the unions up among the row keys; a missing union gets a join search
  over the up-sets;
- ranks are longest chains over the cover arrays, one edge-count level at
  a time;
- Mobius numbers mu(bottom, x) are computed one edge-count level at a time,
  as popcounts of the down-set bitmasks against bit planes of the numbers
  already known (exact at any magnitude);
- the Eulerian check counts the even- and odd-ranked elements of the
  intervals of even length in batches of packed up-row / down-row pairs;
- the JSON and DOT exports write their text directly, their lists laid out
  a chunk of items at a time by graphs._joined: an item's pieces, index
  strings from one table and its edges' names from SupportBits.namer's
  per-byte tables, are columns of one object array, which a single join
  turns into the chunk's text, written to a file as each chunk is made.
  The polynomial writers take the same steps.
"""

from __future__ import annotations

import json
from array import array
from functools import cached_property
from operator import and_
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import InputError, StructureViolationError
from .covered import CoveredSet
from .graphs import (
    Graph,
    GroundGraph,
    _iter_bits,
    _joined,
    _write_chunks,
    edge_list_str,
)
from .subsets import SupportBits, _row_keys, canonical_order

# Words per batch of interval tests, and per chunk of packed up-rows, in the
# Eulerian check: small enough for the cache.
_BATCH_WORDS = 1 << 16
# Items per chunk of the JSON and DOT exports: element lists of a few
# hundred characters each.
_CHUNK_ITEMS = 1 << 10


def _pack_ints(masks: list[int], words: int) -> np.ndarray:
    """Bitmasks below 2^(64 * words) as rows of little-endian uint64 words."""
    data = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(data, dtype=np.uint64).reshape(len(masks), words)


def _and_table(masks: list[int], full: int) -> list[int]:
    """For each v below 2^len(masks), the AND of masks[i] over the set bits
    i of v (full for v = 0): one AND an entry."""
    table = [full]
    for m in masks:
        table += [t & m for t in table]
    return table


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

    Pairs are sorted by y and tested in batches of about _BATCH_WORDS
    words. The interval of (x, y) lies between indices x and y, and every x
    is a row of up, so a batch needs only the words from up's first row to
    its largest y. Over those words, the popcount of interval ^ even
    exceeds that of even by the interval's odd elements minus its even
    ones, so one popcount per pair decides.
    """
    order = np.argsort(y)
    x, y = x[order], y[order]
    w0 = first_row // 64
    step = max(1, _BATCH_WORDS // (down.shape[1] - w0))
    failed = []
    for start in range(0, len(x), step):
        w1 = int(y[min(len(y), start + step) - 1]) // 64 + 1
        interval = up[x[start : start + step] - first_row, w0:w1]
        interval &= down[y[start : start + step], w0:w1]
        interval ^= even[w0:w1]  # its odd elements, and the even ones it lacks
        flipped = np.bitwise_count(interval).sum(axis=1, dtype=np.int32)
        bad = np.flatnonzero(flipped != np.bitwise_count(even[w0:w1]).sum()) + start
        failed.extend(zip(x[bad].tolist(), y[bad].tolist()))
    return min(failed, default=None)


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
    by is_lattice, never assumed. Its Graphs (elements) are built on first
    access.
    """

    def __init__(self, elements: list[Graph]):
        if not elements:
            raise InputError("a lattice needs at least one element")
        ground = elements[0].ground
        for g in elements:
            if g.ground != ground:
                raise InputError("lattice elements must share one ground")
        masks = list(dict.fromkeys(g.edges for g in elements))
        bits = SupportBits(masks)
        rows = bits.rows(masks)
        self._hold(ground, bits, np.take(rows, canonical_order(rows), axis=0))

    @classmethod
    def _from_rows(cls, ground: GroundGraph, bits: SupportBits, rows: np.ndarray) -> "Lattice":
        """The poset of distinct byte rows on bits, in canonical order."""
        lat = cls.__new__(cls)
        lat._hold(ground, bits, rows)
        return lat

    def _hold(self, ground: GroundGraph, bits: SupportBits, rows: np.ndarray) -> None:
        """Keep the elements' byte rows, in canonical order, and order them."""
        self.ground, self._bits, self._rows = ground, bits, rows
        n = len(rows)
        self._down = self._order_masks(up=False)
        self._covers = self._cover_pairs()
        lower, upper = self._covers
        bottoms = np.flatnonzero(np.bincount(upper, minlength=n) == 0)  # no lower cover
        tops = np.flatnonzero(np.bincount(lower, minlength=n) == 0)
        if len(bottoms) != 1 or len(tops) != 1:
            raise StructureViolationError(
                f"poset has {len(bottoms)} minimal and {len(tops)} maximal elements"
            )
        self._bottom = int(bottoms[0])
        self._top = int(tops[0])

    # -- construction helpers ------------------------------------------------

    def _order_masks(self, up: bool) -> list[int]:
        """Up-set (up) or down-set bitmasks of all elements, built from one
        bitmask per edge.

        For each edge e of the support (the union of the elements), has[e]
        holds the elements that contain e, read off the byte rows. The
        up-set of x is the intersection of has[e] over the edges of x, and
        the down-set of y the intersection of the complements of has[e]
        over the support edges y lacks. For each support byte, a table of
        256 entries holds that intersection for every value of the byte,
        one AND an entry, so an element's mask takes one AND per support
        byte: N * s/8 ANDs of N-bit integers for s support edges, where
        pairwise subset tests take N^2 comparisons of edge masks. The
        canonical element order is a linear extension (strict subgraphs
        have strictly fewer edges), which later code relies on.
        """
        rows = self._rows
        s = len(self._bits)
        has = _pack_rows(np.unpackbits(rows, axis=1, count=s, bitorder="little").T)
        full = (1 << len(rows)) - 1
        masks = None
        for b in range(rows.shape[1]):
            group = has[8 * b : 8 * b + 8]
            if up:
                table = _and_table(group, full)
            else:  # a byte value lacks the edges of its complement, the mirrored entry
                table = _and_table([full ^ h for h in group], full)[::-1]
            picked = map(table.__getitem__, rows[:, b].tolist())
            masks = list(picked) if masks is None else list(map(and_, masks, picked))
        return [full] * len(rows) if masks is None else masks

    @cached_property
    def _up(self) -> list[int]:
        """Up-set bitmasks, built on first use: covers, ranks, Mobius
        numbers and the exports need only the down-sets."""
        return self._order_masks(up=True)

    def _cover_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Transitive reduction: the maximal strict predecessors of each
        element, as (lower, upper) index arrays sorted by lower, then upper.

        Each element's strict down-set is peeled greedily from its highest
        index, a maximal candidate in the linear extension, removing the
        candidate's own down-set each time. That needs no union closure, so
        any poset of subgraphs gets its covers."""
        down = self._down
        lower = array("q")
        push = lower.append
        ends = array("q")
        for j in range(len(down)):
            candidates = down[j] ^ 1 << j
            while candidates:
                x = candidates.bit_length() - 1
                push(x)
                candidates ^= candidates & down[x]  # x and all below it
            ends.append(len(lower))
        lower = np.array(lower, dtype=np.intp)
        upper = np.repeat(np.arange(len(down), dtype=np.intp), np.diff(ends, prepend=0))
        order = np.lexsort((upper, lower))
        return lower[order], upper[order]

    # -- basic queries ---------------------------------------------------------

    @cached_property
    def elements(self) -> tuple[Graph, ...]:
        """The elements in index order, built on first access."""
        return tuple(self._graphs(slice(None)))

    def _graphs(self, indices) -> list[Graph]:
        """The elements at indices (a list or a slice), built from their rows."""
        masks = self._bits.expand(self._rows[indices]).tolist()
        return [Graph(self.ground, m) for m in masks]

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, g: Graph) -> bool:
        return g.ground == self.ground and self._bits.find(self._rows, g.edges) is not None

    def index_of(self, g: Graph) -> int:
        k = self._bits.find(self._rows, g.edges) if g.ground == self.ground else None
        if k is None:
            raise InputError(f"graph {edge_list_str(g)} is not a lattice element")
        return k

    @property
    def bottom(self) -> Graph:
        return self._graphs([self._bottom])[0]

    @property
    def top(self) -> Graph:
        return self._graphs([self._top])[0]

    def covers(self) -> list[tuple[Graph, Graph]]:
        E = self.elements
        return [(E[a], E[b]) for a, b in zip(*(c.tolist() for c in self._covers))]

    def _level_starts(self) -> np.ndarray:
        """Where each edge-count level starts in index order, and the
        element count: a strict subgraph has fewer edges, so each level is a
        contiguous range whose strict down-sets lie in the earlier levels."""
        counts = np.bitwise_count(self._rows).sum(axis=1)
        return np.concatenate(([0], np.flatnonzero(np.diff(counts)) + 1, [len(counts)]))

    # -- meet / join -----------------------------------------------------------

    def _meet_index(self, ix: int, iy: int) -> Optional[int]:
        common = self._down[ix] & self._down[iy]  # nonempty: bottom is in both
        h = common.bit_length() - 1
        return h if self._down[h] == common else None

    def _join_index(self, ix: int, iy: int) -> Optional[int]:
        common = self._up[ix] & self._up[iy]
        low = (common & -common).bit_length() - 1
        return low if self._up[low] == common else None

    def is_lattice(self) -> bool:
        """Every pair has a unique meet and join.

        Let J be the elements with exactly one lower cover (for a covered
        set, the matchings). A finite poset with a least element is a
        lattice iff x v j exists for every element x and every j in J.
        Every y above the bottom is the join of the J-elements below it, by
        induction along the linear extension: y is in J, or it has two
        lower covers a and b, and a v j1 v ... v jk, over the J-elements
        below b, lies in [a, y] above b, so it is y. Then x v y is reached
        from x by joining the J-elements below y one at a time, and with the
        bottom every pair also has a meet (the join of its common lower
        bounds).

        The union x | j, when it is an element, is that join. Each j's byte
        row is ORed into all the rows at once and the unions are looked up
        among the rows' keys, N * |J| row ORs in all; only an x whose union
        with j is missing pays a join search. A covered set is closed under
        union, so its lattice never searches.
        """
        rows = self._rows
        keys = _row_keys(rows)
        lower_covers = np.bincount(self._covers[1], minlength=len(rows))
        for j in np.flatnonzero(lower_covers == 1).tolist():
            missing = np.flatnonzero(~np.isin(_row_keys(rows | rows[j]), keys))
            if any(self._join_index(x, j) is None for x in missing.tolist()):
                return False
        return True

    # -- Mobius numbers ----------------------------------------------------------

    @cached_property
    def _mobius_numbers(self) -> list[int]:
        """mu(bottom, x) of every element, computed one edge-count level at a
        time on first use.

        A strict subgraph has strictly fewer edges, so each level of the
        canonical order is a contiguous index range whose strict down-sets
        lie wholly in the earlier levels (the bottom, alone in the first
        level, has mu = 1). mu of an element is minus the sum of the known mu
        over its down-set. The known values are split by sign and binary
        digit into bit planes over element indices, and the sum is the
        signed, weighted popcount of the down-set bitmask against each
        plane: exact at any magnitude.
        """
        mu = [1]
        planes = {(0, 0): 1}  # (sign, binary digit) -> bits of the elements with it
        starts = self._level_starts().tolist()
        for lo, hi in zip(starts[1:-1], starts[2:]):
            weighted = [((1 - 2 * sign) << digit, plane) for (sign, digit), plane in planes.items()]
            for down in self._down[lo:hi]:
                mu.append(-sum(weight * (down & plane).bit_count() for weight, plane in weighted))
            for k in range(lo, hi):
                sign, size = int(mu[k] < 0), abs(mu[k])
                for digit in range(size.bit_length()):
                    if size >> digit & 1:
                        planes[sign, digit] = planes.get((sign, digit), 0) | 1 << k
        return mu

    def mobius(self, x: Graph) -> int:
        """Mobius number mu(bottom, x)."""
        return self._mobius_numbers[self.index_of(x)]

    def mobius_table(self) -> dict[Graph, int]:
        return dict(zip(self.elements, self._mobius_numbers))

    # -- ranks, gradedness, Eulerian property ------------------------------------

    @cached_property
    def _rank_data(self) -> tuple[list[int], Optional[tuple[int, int]]]:
        """Longest-chain ranks, and the first cover in (lower, upper) order
        whose rank step is not 1, computed on first use.

        The covers are sorted by their lower ends, so the covers out of one
        edge-count level are a contiguous range. Levels are taken bottom up:
        every cover into a level comes out of an earlier one, so the ranks
        of a level are final before its own covers are read.
        """
        lower, upper = self._covers
        ranks = np.zeros(len(self), dtype=np.intp)
        cuts = np.searchsorted(lower, self._level_starts()).tolist()
        for lo, hi in zip(cuts, cuts[1:]):
            np.maximum.at(ranks, upper[lo:hi], ranks[lower[lo:hi]] + 1)
        bad = np.flatnonzero(ranks[upper] != ranks[lower] + 1)
        violation = (int(lower[bad[0]]), int(upper[bad[0]])) if len(bad) else None
        return ranks.tolist(), violation

    def rank_labels(self) -> RankLabels:
        """Longest-chain-from-bottom ranks; a labeling is graded iff every
        cover step raises the rank by exactly one, otherwise the first
        offending cover pair is the witness."""
        ranks, violation = self._rank_data
        witness = None if violation is None else tuple(self._graphs(list(violation)))
        return RankLabels(dict(zip(self.elements, ranks)), witness)

    def level_counts(self) -> tuple[int, ...]:
        """Number of elements per rank, bottom upward."""
        ranks, _ = self._rank_data
        return tuple(np.bincount(ranks).tolist())

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
        ranks, violation = self._rank_data
        if violation is not None:
            return EulerianCheck(False, "not graded", tuple(self._graphs(list(violation))))
        pair = self._scan_intervals(ranks, len(self), even_only=True)
        if pair is None:
            return EulerianCheck(True, None, None)
        pair = self._scan_intervals(ranks, pair[0] + 1, even_only=False)
        return EulerianCheck(False, "interval", tuple(self._graphs(list(pair))))

    def _scan_intervals(
        self, ranks: list[int], rows: int, even_only: bool
    ) -> Optional[tuple[int, int]]:
        """The first unbalanced pair (i, j), i < j and i < rows, in index
        order, checked over packed up-rows in chunks of about _BATCH_WORDS
        words; with even_only, only pairs of equal rank parity."""
        n = len(self)
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
        """The closed interval [x, y] as its own lattice (copied, not aliased),
        on the same support bits: a subset of canonical rows is canonical."""
        ix, iy = self.index_of(x), self.index_of(y)
        if not self._down[iy] >> ix & 1:
            raise InputError("interval endpoints must satisfy x <= y")
        members = list(_iter_bits(self._up[ix] & self._down[iy]))
        return Lattice._from_rows(self.ground, self._bits, np.take(self._rows, members, axis=0))

    def find_pentagon(self) -> Optional[tuple[Graph, Graph, Graph, Graph, Graph]]:
        """Search for an N5 sublattice (b, a, c1, c2, t).

        Requirements: b < a < t, b < c1 < c2 < t, a incomparable to c1 and c2,
        join(a, c1) = t, meet(a, c2) = b. Scans incomparable pairs (a, c1) in
        index order and returns the first witness, or None.
        """
        down, up = self._down, self._up
        n = len(self)
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
                        return tuple(self._graphs([b, a, c1, c2, t]))
        return None

    # -- export ----------------------------------------------------------------------

    def to_dot(self, file=None) -> str | int:
        """Hasse diagram in DOT, layered by rank (edges point upward).
        Returns the text, or writes it to file chunk by chunk and returns
        the number of characters written."""
        return _write_chunks(self._dot_chunks(), file)

    def _dot_chunks(self) -> Iterator[str]:
        ranks, _ = self._rank_data
        nodes = np.array([f"n{k}" for k in range(len(self))], dtype=object)
        name = self._bits.namer(" {},{}", self.ground.edge_pair, ('"];', '{}"];'))
        lower, upper = self._covers

        def labels(lo: int, hi: int) -> list:
            return [nodes[lo:hi], ' [label="', *name(self._rows[lo:hi])]

        def covers(lo: int, hi: int) -> list:
            return [nodes[lower[lo:hi]], " -> ", nodes[upper[lo:hi]], ";"]

        yield "digraph lattice {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n"
        yield from _joined(len(self), labels, _CHUNK_ITEMS, "\n  ", "  ", "\n", "")
        yield from _joined(len(lower), covers, _CHUNK_ITEMS, "\n  ", "  ", "\n", "")
        by_rank = np.argsort(ranks, kind="stable")
        levels = np.split(nodes[by_rank], np.flatnonzero(np.diff(np.take(ranks, by_rank))) + 1)
        yield "".join(f"  {{ rank=same; {'; '.join(level)}; }}\n" for level in levels) + "}\n"

    def to_json(self, file=None) -> str | int:
        """json.dumps(..., indent=2, sort_keys=True) of "covers" (index
        pairs), "elements" ([u, v] edge lists), "graded", "ground", "mobius"
        and "ranks" (per element), plus a newline, written directly. Returns
        the text, or writes it to file chunk by chunk and returns the number
        of characters written."""
        return _write_chunks(self._json_chunks(), file)

    def _json_chunks(self) -> Iterator[str]:
        ranks, violation = self._rank_data
        mobius = self._mobius_numbers  # computed before anything is written
        n = len(self)
        lower, upper = self._covers
        numbers = np.array(list(map(str, range(n))), dtype=object)
        name = self._bits.namer(
            ",\n      [\n        {},\n        {}\n      ]", self.ground.edge_pair, ("\n    ]", "]")
        )

        def array(count: int, items: Callable[[int, int], list]) -> Iterator[str]:
            """A list as json.dumps writes it at indent 2, one level below
            the top object."""
            return _joined(count, items, _CHUNK_ITEMS, ",\n    ", "[\n    ", "\n  ]", "[]")

        def covers(lo: int, hi: int) -> list:
            return ["[\n      ", numbers[lower[lo:hi]], ",\n      ", numbers[upper[lo:hi]], "\n    ]"]

        def elements(lo: int, hi: int) -> list:
            return ["[", *name(self._rows[lo:hi])]

        yield '{\n  "covers": '
        yield from array(len(lower), covers)
        yield ',\n  "elements": '
        yield from array(n, elements)
        yield (
            f',\n  "graded": {"true" if violation is None else "false"},'
            f'\n  "ground": {{\n    "mode": {json.dumps(self.ground.mode)},'
            f'\n    "size": {self.ground.size}\n  }},\n  "mobius": '
        )
        yield from array(n, lambda lo, hi: [np.array(list(map(str, mobius[lo:hi])), dtype=object)])
        yield ',\n  "ranks": '
        yield from array(n, lambda lo, hi: [numbers[ranks[lo:hi]]])
        yield "\n}\n"


def build_lattice(C: CoveredSet) -> Lattice:
    """Covered graphs plus the empty graph as bottom, ordered by inclusion:
    the covered set's byte rows, canonical already, after an all-zero row."""
    if len(C) == 0:
        raise InputError("cannot build a lattice from an empty covered set")
    rows = np.zeros((len(C) + 1, C.rows.shape[1]), dtype=np.uint8)
    rows[1:] = C.rows
    return Lattice._from_rows(C.ground, C.bits, rows)
