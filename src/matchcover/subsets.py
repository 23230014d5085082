"""Dense tables over the subsets of a family's support, and the subset
butterfly that transforms them.

A family whose members together touch s edges lives in a cube of 2^s
subgraphs. When s is small, one table indexed by those subsets answers a
question for every subgraph at once: one pass of Yates' butterfly (the fast
zeta and Mobius transforms; Bjorklund, Husfeldt, Kaski and Koivisto,
"Fourier meets Mobius", STOC 2007) gives the union of the members inside
each subgraph, the value of a polynomial at each assignment, or the
coefficients of a truth table.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .graphs import _iter_bits

# Widest support that gets a dense table: 2^22 uint32 entries are 16 MB.
DENSE_BIT_CAP = 22
# k members have at most 2^k - 1 unions. A closure graph costs the
# breadth-first route microseconds and a table entry costs nanoseconds a
# pass, so on random worst-case families (2-core x86-64) the table wins
# from about 2^s <= 2^(k + 8), and loses by up to 100x on a few members
# spread over 22 edges.
DENSE_SLACK_BITS = 8

_BUTTERFLY = {
    ("+", False): np.add,
    ("+", True): np.subtract,
    ("|", False): np.bitwise_or,
}


def _subset_transform(table: np.ndarray, op: str, inverse: bool = False) -> np.ndarray:
    """Subset butterfly, in place, over a table of 2^m entries indexed by mask.

    op "+" gives the zeta transform, table[S] = sum of table[T] over T ⊆ S;
    inverse=True undoes it (the Mobius transform, each step subtracts).
    op "|" ORs over the subsets instead. Fixed-width entries wrap silently,
    so callers bound the partial sums. Returns the table.
    """
    ufunc = _BUTTERFLY[op, inverse]
    for bit in range(table.size.bit_length() - 1):
        halves = table.reshape(-1, 2, 1 << bit)
        ufunc(halves[:, 1], halves[:, 0], out=halves[:, 1])
    return table


def dense_fits(width: int, members: int) -> bool:
    """Whether a family of that many members on a support of width edges
    gets a dense table rather than the breadth-first closure."""
    return width <= min(DENSE_BIT_CAP, members + DENSE_SLACK_BITS)


class SupportBits:
    """The edges that a set of masks touches, renumbered 0..s-1 by edge id.

    The renumbering keeps the order of edge ids, so compressed masks sort in
    the canonical order of the graphs they stand for.
    """

    __slots__ = ("ids",)

    def __init__(self, masks: Iterable[int]):
        union = 0
        for mask in masks:
            union |= mask
        self.ids = list(_iter_bits(union))

    def __len__(self) -> int:
        return len(self.ids)

    def compress(self, mask: int) -> int:
        return sum(1 << b for b, k in enumerate(self.ids) if mask >> k & 1)

    def expand(self, cmasks: np.ndarray) -> list[int]:
        """Full edge masks of compressed masks, one lookup table per byte."""
        full = np.zeros(len(cmasks), dtype=object)
        for lo in range(0, len(self.ids), 8):
            ids = self.ids[lo : lo + 8]
            lut = [0] * (1 << len(ids))
            for c in range(1, len(lut)):
                low = c & -c
                lut[c] = lut[c ^ low] | 1 << ids[low.bit_length() - 1]
            full |= np.array(lut, dtype=object)[(cmasks >> lo) & 0xFF]
        return full.tolist()


def canonical_order(cmasks: np.ndarray, width: int) -> np.ndarray:
    """Masks of width bits in canonical order, as graphs.mask_key sorts
    them: by bit count, then by descending bit-reversed mask."""
    count = np.zeros_like(cmasks)
    reversed_ = np.zeros_like(cmasks)
    for b in range(width):
        bit = (cmasks >> b) & 1
        count += bit
        reversed_ |= bit << (width - 1 - b)
    return cmasks[np.lexsort((~reversed_, count))]
