"""Union closure of a family of subgraphs and coverage queries.

A graph is covered by a family when its edge set is the union of a nonempty
subset of the family. On a narrow support the closure comes from one dense
OR transform over all subsets of the support; on a wide one it is built
breadth-first with deduplication, so its cost follows the size of the
closure rather than 2^|family|. The empty graph is never covered; the
lattice module adds it as the bottom element.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import InputError
from .graphs import Family, Graph, GroundGraph, cyclomatic_number
from .matching import WeightFunction, pm_support
from .subsets import (
    SupportBits,
    _canonical_entries,
    _subset_transform,
    _table_index,
    canonical_order,
    dense_fits,
)


class CoveredSet:
    """All graphs covered by a family, in canonical order.

    Held as a polynomial holds its monomials: the support's edge ids (bits)
    and one byte row per graph, its edge mask compressed onto the support
    (rows). The Graph objects are built on first access.
    """

    __slots__ = ("ground", "bits", "rows", "_graphs")

    def __init__(self, ground: GroundGraph, bits: SupportBits, rows: np.ndarray):
        self.ground = ground
        self.bits = bits
        self.rows = rows
        self._graphs: tuple[Graph, ...] | None = None

    @property
    def graphs(self) -> tuple[Graph, ...]:
        if self._graphs is None:
            masks = self.bits.expand(self.rows).tolist()
            self._graphs = tuple(Graph(self.ground, m) for m in masks)
        return self._graphs

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)

    def __contains__(self, g: Graph) -> bool:
        return g.ground == self.ground and self.bits.find(self.rows, g.edges) is not None

    def __repr__(self) -> str:
        return f"CoveredSet({self.ground.header()!r}, {len(self)} graphs)"


def _check_family(F: Family) -> None:
    if len(F) == 0:
        raise InputError("covering needs a nonempty family")
    if any(m.is_empty for m in F):
        raise InputError("family members must have at least one edge")


def covered_closure(F: Family) -> CoveredSet:
    """The set of all distinct unions of nonempty subfamilies of F.

    A narrow support (see dense_fits) gets the dense table of
    _dense_closure_rows; a wide one the breadth-first search, whose cost
    follows the size of the closure rather than of the support.
    """
    _check_family(F)
    members = [g.edges for g in F]
    bits = SupportBits(members)
    if dense_fits(len(bits), len(members)):
        return CoveredSet(F.ground, bits, _dense_closure_rows(members, bits))
    rows = bits.rows(list(_bfs_closure_masks(members)))
    return CoveredSet(F.ground, bits, np.take(rows, canonical_order(rows), axis=0))


def _dense_closure_rows(members: list[int], bits: SupportBits) -> np.ndarray:
    """Byte rows of the covered masks, in canonical order, by one OR pass
    over the support.

    After the pass, table[S] is the union of the members inside S, and S is
    covered exactly when that union is S itself: a byte table marks each
    covered S by a 1, which _canonical_entries reads.
    """

    def covered_table() -> np.ndarray:
        cmembers = _table_index(bits.words(members)[:, 0], len(bits))
        table = np.zeros(1 << len(bits), dtype=np.uint32)
        table[cmembers] = cmembers
        _subset_transform(table, "|")
        marks = np.empty(table.size, dtype=np.uint8)
        index = np.arange(min(table.size, 1 << 16), dtype=np.uint32)  # 256 KB a block
        for block, out in zip(table.reshape(-1, index.size), marks.reshape(-1, index.size)):
            np.equal(block, index, out=out)
            index += index.size
        return marks

    # index 0 always matches, but the empty graph, first in canonical order,
    # is not covered
    return _canonical_entries(covered_table)[0][1:]


def _bfs_closure_masks(members: list[int]) -> set[int]:
    """Covered masks, unordered: each frontier graph is merged with every
    member and the unseen results form the next frontier."""
    seen = set(members)
    frontier = list(seen)
    while frontier:
        produced = []
        for g in frontier:
            for m in members:
                u = g | m
                if u not in seen:
                    seen.add(u)
                    produced.append(u)
        frontier = produced
    return seen


def coefficient_query(G: Graph, w: WeightFunction | None = None) -> int:
    """Coefficient of G's monomial in the membership polynomial, in {-1, 0, +1}.

    For the family of minimum-weight perfect matchings (unit weights when w is
    None): the coefficient is (-1)^cyclomatic(G) when G is covered and 0
    otherwise. Coverage is decided without enumerating anything exponential:
    G is covered iff every edge of G is dual-tight and every edge of G lies
    in some perfect matching of G (so a nonempty G has one). Each query is
    polynomial in n.
    """
    ground = G.ground
    if ground.mode != "bipartite":
        raise InputError("coefficient queries require a bipartite ground")
    if w is not None and w.ground != ground:
        raise InputError("graph and weight function grounds differ")
    if G.is_empty:
        return 0
    if w is not None and G.edges & ~w.tight_mask():
        return 0
    if pm_support(G).edges != G.edges:
        return 0
    return -1 if cyclomatic_number(G) % 2 else 1

