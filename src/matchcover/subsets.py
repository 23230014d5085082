"""Dense tables over the subsets of a family's support, and the subset
butterfly that transforms them.

A family whose members together touch s edges lives in a cube of 2^s
subgraphs. When s is small, one table indexed by those subsets answers a
question for every subgraph at once: one pass of Yates' butterfly (the fast
zeta and Mobius transforms; Bjorklund, Husfeldt, Kaski and Koivisto,
"Fourier meets Mobius", STOC 2007) gives the union of the members inside
each subgraph, the value of a polynomial at each assignment, or the
coefficients of a truth table. Masks of any ground width are compressed
onto a support by SupportBits.words, one 256-entry lookup for each ground
byte that holds support bits and each 64-bit word of the row it feeds, and
travel as rows of bytes, which byte lookup tables sort, expand and name.

The butterfly's steps commute. It runs those of the low bits one
cache-sized block of the table at a time, the shortest of them (partners 1
to 8 entries apart) as strided slices, and the rest over the whole table.
Fixed-width entries wrap, so every transform is exact modulo 2^width: a
byte table gives each sum mod 2^8. An OR pass over a 0/1 table runs on its
bits, 64 entries to a word.

The tables whose nonzero entries become rows (the closure's and the Mobius
routes') number their bits in reverse, support bit k as table bit s-1-k
(_table_index). Within one bit count, canonical order is then descending
index, so _canonical_entries reads such a table backwards and needs only a
stable sort by bit count, never canonical_order's lexsort.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable

import numpy as np

from .graphs import _iter_bits

# Widest support that gets a dense table, and the one cap on exhaustive
# work (the CLI's caps and truth_table_transform): 2^25 entries of 4 bytes
# are 128 MB, the 25 edges of K_{5,5}. At this width, on a 2-core x86-64,
# `count-covered --n 5` peaks at 191 MB of RSS, `verify --n 5 --exhaustive`
# at 243 MB and the truth table of K_{5,5} at 210 MB.
DENSE_BIT_CAP = 25
# k members have at most 2^k - 1 unions. A closure graph costs the
# breadth-first route microseconds and a table entry costs nanoseconds a
# pass, so on random worst-case families (2-core x86-64) the table wins
# from about 2^s <= 2^(k + 8), and loses by up to 100x on a few members
# spread over 22 edges.
DENSE_SLACK_BITS = 8

# Each byte value with its bits in reverse order.
_REVERSED = np.array([int(f"{v:08b}"[::-1], 2) for v in range(256)], dtype=np.uint8)
# The same, complemented, as a bytes.translate table for _order_key.
_KEY_BYTES = (~_REVERSED).tobytes()
# Row k, column v: bit k of the byte value v, as a uint64 for SupportBits.
_BYTE_BITS = np.arange(256, dtype=np.uint64) >> np.arange(8, dtype=np.uint64)[:, None] & 1

_BUTTERFLY = {
    ("+", False): np.add,
    ("+", True): np.subtract,
    ("|", False): np.bitwise_or,
}
# Steps on bits below this one pair entries 1, 2, 4 or 8 apart: numpy's
# inner loop over a (-1, 2, 2^bit) view would run only that long, so they go
# as 2^bit strided 1-D slices instead, each over the whole block.
_STRIDED_BITS = 4
# For each of the six in-word steps of _packed_or_transform, the lanes of a
# 64-entry word whose index has that bit clear.
_LOW_LANES = [np.uint64(sum(1 << k for k in range(64) if not k >> bit & 1)) for bit in range(6)]
# The steps on the low bits run a block of this many bytes at a time, while
# it sits in cache: 1 MiB, half the 2 MiB L2 cache per core of the 2-core
# x86-64 machine the README's timings come from.
_BLOCK_BYTES = 1 << 20


def _subset_transform(table: np.ndarray, op: str, inverse: bool = False) -> np.ndarray:
    """Subset butterfly, in place, over a table of 2^m entries indexed by mask.

    op "+" gives the zeta transform, table[S] = sum of table[T] over T ⊆ S;
    inverse=True undoes it (the Mobius transform, each step subtracts).
    op "|" ORs over the subsets instead. Fixed-width entries wrap silently,
    so the result is exact modulo 2^width: callers either bound the partial
    sums or, like the perfect-matching route, read residues they know to be
    small. Returns the table. The steps run in the module docstring's
    order, which gives the same result: they commute.
    """
    ufunc = _BUTTERFLY[op, inverse]
    m = table.size.bit_length() - 1
    low = min(m, (_BLOCK_BYTES // table.itemsize).bit_length() - 1)
    for block in table.reshape(-1, 1 << low):
        _butterfly_steps(block, ufunc, range(low))
    _butterfly_steps(table, ufunc, range(low, m))
    return table


def _butterfly_steps(table: np.ndarray, ufunc: np.ufunc, bits: range) -> None:
    """The butterfly's steps on the given bits, in place: each entry whose
    mask has the bit set takes ufunc of itself and its partner without it."""
    for bit in bits:
        half = 1 << bit
        if bit < _STRIDED_BITS:
            for r in range(half):
                high = table[half + r :: 2 * half]
                ufunc(high, table[r :: 2 * half], out=high)
        else:
            halves = table.reshape(-1, 2, half)
            ufunc(halves[:, 1], halves[:, 0], out=halves[:, 1])


def _packed_or_transform(ones: np.ndarray, width: int) -> np.ndarray:
    """The OR pass over the 0/1 table of 2^width entries that holds 1 at the
    indices ones, as a uint8 table. It runs on the bits: six shift-and-mask
    steps inside each uint64 word of 64 entries, then the butterfly over the
    words, an eighth of the bytes a byte table would take."""
    words = np.zeros(max(1, (1 << width) >> 6), dtype="<u8")
    np.bitwise_or.at(words, ones >> 6, np.uint64(1) << (ones & 63).astype(np.uint64))
    for bit in range(min(width, 6)):
        words |= (words & _LOW_LANES[bit]) << np.uint64(1 << bit)
    _subset_transform(words, "|")
    return np.unpackbits(words.view(np.uint8), count=1 << width, bitorder="little")


def dense_fits(width: int, members: int) -> bool:
    """Whether a family of that many members on a support of width edges
    gets a dense table rather than the breadth-first closure."""
    return width <= min(DENSE_BIT_CAP, members + DENSE_SLACK_BITS)


class SupportBits:
    """The edges that a set of masks touches, renumbered 0..s-1 by edge id.

    Compressed masks are held as rows of little-endian bytes, one row per
    mask; the renumbering keeps the order of edge ids, so canonical_order
    sorts them as the graphs they stand for. One method, words, compresses
    masks of any ground width onto the support, for every reader: each
    (ground byte, word of the row) pair that holds support bits has a
    256-entry table, built once here, of the word bits that each value of
    that ground byte sets.
    """

    __slots__ = ("ids", "_lookups")

    def __init__(self, masks: Iterable[int]):
        union = 0
        for mask in masks:
            union |= mask
        self.ids = list(_iter_bits(union))
        # support bit b goes to bit b % 64 of word b // 64: for each (ground
        # byte, word) pair that holds support bits, the word bit that each
        # bit of the byte sets
        place = {}
        for b, k in enumerate(self.ids):
            place.setdefault((k >> 3, b >> 6), [0] * 8)[k & 7] = 1 << (b & 63)
        # the bits of a row are distinct, so the product with _BYTE_BITS ORs
        tables = np.array(list(place.values()), dtype=np.uint64).reshape(-1, 8) @ _BYTE_BITS
        self._lookups = list(zip(place, tables))

    def __len__(self) -> int:
        return len(self.ids)

    def words(self, masks: list[int] | np.ndarray) -> np.ndarray:
        """Masks compressed onto the support, their edges off it dropped, as
        rows of little-endian uint64 words (at least one), support bit b at
        bit b % 64 of word b // 64. The ground bytes are an int64 array's
        own bytes, or one to_bytes join of Python ints (a list or an object
        array); each table lookup is ORed into its word."""
        words = np.zeros((len(masks), max(1, -(-len(self) // 64))), dtype="<u8")
        if isinstance(masks, np.ndarray) and masks.dtype != object:
            full = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8).reshape(len(masks), 8)
        else:
            size = (self.ids[-1] >> 3) + 1 if self.ids else 0
            low = (1 << 8 * size) - 1
            data = b"".join([(m & low).to_bytes(size, "little") for m in masks])
            full = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), size)
        for (c, j), table in self._lookups:
            np.bitwise_or(words[:, j], table.take(full[:, c]), out=words[:, j])
        return words

    def rows(self, masks: list[int] | np.ndarray) -> np.ndarray:
        """Masks compressed onto the support as byte rows: a byte view of
        their words, cut to the support's bytes."""
        return self.words(masks).view(np.uint8)[:, : -(-len(self) // 8)]

    def find(self, rows: np.ndarray, mask: int) -> int | None:
        """Index of mask's row among byte rows in canonical order, by binary
        search; None when it is not there or has edges off the support."""
        key = _order_key(self.rows([mask])[0])  # its bit count first
        if key[0] != mask.bit_count():
            return None
        k = bisect_left(rows, key, key=_order_key)
        return k if k < len(rows) and _order_key(rows[k]) == key else None

    def expand(self, rows: np.ndarray) -> np.ndarray:
        """Full edge masks of byte rows, as Python ints in an object array,
        one lookup table per byte."""
        full = np.zeros(len(rows), dtype=object)
        for b, table in enumerate(self.byte_tables({k: 1 << k for k in self.ids}, 0)):
            full |= np.array(table, dtype=object)[rows[:, b]]
        return full

    def namer(self, template: str, edge_pair: Callable, ends=None) -> Callable:
        """A function from byte rows to the pieces of their names, as a list
        of columns (object arrays, one entry per row): the names
        template.format(*edge_pair(k)) of each row's edges k, ascending,
        one column per support byte, each entry one lookup in that byte's
        table. Read across, a row's pieces spell its names; no string is
        built per row. With ends, a (nonempty, empty) pair, the names are
        joined: the first of a row drops its leading separator character,
        and a last column closes the row by the end for whether it has
        edges. Each per-byte table, built once, holds every value's names
        twice, the second time cut so."""
        names = {k: template.format(*edge_pair(k)) for k in self.ids}
        tables = [
            np.array(t + [s[1:] for s in t] if ends else t, dtype=object)
            for t in self.byte_tables(names, "")
        ]

        def pieces(rows: np.ndarray) -> list[np.ndarray]:
            if not ends:
                return [table[rows[:, b]] for b, table in enumerate(tables)]
            columns = []
            empty = np.ones(len(rows), dtype=np.intp)
            for b, table in enumerate(tables):
                columns.append(table[rows[:, b] + len(table) // 2 * empty])
                empty &= rows[:, b] == 0
            columns.append(np.array(ends, dtype=object)[empty])
            return columns

        return pieces

    def byte_tables(self, names, empty) -> list[list]:
        """For each byte of the support, a table over the values of that
        byte: empty plus the names of its set bits, in ascending order.
        names maps edge ids to strings (or to ints, whose sum is then a mask)."""
        tables = []
        for lo in range(0, len(self.ids), 8):
            ids = self.ids[lo : lo + 8]
            table = [empty] * (1 << len(ids))
            for v in range(1, len(table)):
                top = v.bit_length() - 1
                table[v] = table[v ^ 1 << top] + names[ids[top]]
            tables.append(table)
        return tables


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Keys that are equal exactly when the byte rows are: each row's
    little-endian value as uint64 when it fits, else its raw bytes."""
    if rows.shape[1] > 8:
        return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    padded = np.zeros((len(rows), 8), dtype=np.uint8)
    padded[:, : rows.shape[1]] = rows
    return padded.view("<u8").ravel()


def canonical_order(rows: np.ndarray) -> np.ndarray:
    """The permutation that puts masks given as byte rows in canonical order:
    by bit count, then by their sorted bit positions, so of two masks of one
    count the one holding the lowest bit of their difference goes first.
    That is descending bit-reversed bytes, low byte first, with one lookup
    per byte for the reversal."""
    # 8- and 16-bit keys take numpy's radix sort; counts past 2^16 need int64
    count_type = np.uint16 if rows.shape[1] * 8 < 1 << 16 else np.int64
    count = np.bitwise_count(rows).sum(axis=1, dtype=count_type)
    keys = [~_REVERSED[rows[:, b]] for b in reversed(range(rows.shape[1]))]
    return np.lexsort([*keys, count])


def _table_index(masks: np.ndarray, width: int) -> np.ndarray:
    """The indices, as uint32, of masks below 2^width (width <= 32) in a
    table of bits numbered in reverse: bit k of a mask is bit width-1-k of
    its index. Its own inverse."""
    # with its bytes swapped and each reversed, a 32-bit value is reversed
    data = masks.astype("<u4").byteswap(inplace=True).tobytes().translate(_REVERSED.tobytes())
    return np.frombuffer(data, dtype="<u4") >> np.uint32(32 - width)


def _canonical_entries(make_table: Callable[[], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of the table that make_table() returns, indexed
    as _table_index numbers them: their masks as byte rows in canonical
    order, and their values in the same order.

    The table is read backwards a block at a time, so the entries of each
    bit count come in canonical order and a stable sort by bit count merges
    them. It is held here alone and freed before the sort, which needs the
    room.
    """
    table = make_table()
    width = table.size.bit_length() - 1
    # 2^19 entries a block: at 2^16, poly --n 5 peaked 24 MB higher, its
    # many small arrays left in malloc's heap
    step = min(table.size, 1 << 19)
    found, values = [], []
    for lo in range(table.size - step, -1, -step):
        block = table[lo : lo + step]
        k = np.flatnonzero(block != 0)[::-1]  # numpy's fast path reads bools
        found.append((k + lo).astype(np.uint32))
        values.append(block[k])
    del table, block
    index, values = np.concatenate(found), np.concatenate(values)
    del found
    order = np.argsort(np.bitwise_count(index), kind="stable")
    index, values = index[order], values[order]
    del order
    masks = _table_index(index, width).astype("<u4", copy=False)
    return masks.view(np.uint8).reshape(-1, 4)[:, : -(-width // 8)], values


def _order_key(row: np.ndarray) -> tuple[int, bytes]:
    """The key of one byte row in canonical order, as canonical_order sorts."""
    data = row.tobytes()
    return int.from_bytes(data, "little").bit_count(), data.translate(_KEY_BYTES)


def canonical_sorted(masks: list[int]) -> list[int]:
    """Distinct int masks in canonical order."""
    order = canonical_order(SupportBits(masks).rows(masks))
    return [masks[k] for k in order.tolist()]
