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
from .graphs import (
    Family,
    Graph,
    GroundGraph,
    cyclomatic_number,
    mask_key,
)
from .matching import WeightFunction, pm_support
from .subsets import (
    SupportBits,
    _subset_transform,
    byte_rows,
    canonical_order,
    dense_fits,
)


class CoveredSet:
    """All graphs covered by a family, in canonical order."""

    __slots__ = ("ground", "family", "graphs", "_masks")

    def __init__(self, ground: GroundGraph, family: Family, graphs: tuple[Graph, ...]):
        self.ground = ground
        self.family = family
        self.graphs = graphs
        self._masks = frozenset(g.edges for g in graphs)

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)

    def __contains__(self, g: Graph) -> bool:
        return g.ground == self.ground and g.edges in self._masks

    def __repr__(self) -> str:
        return f"CoveredSet({self.ground.header()!r}, {len(self.graphs)} graphs)"


def _check_family(F: Family) -> None:
    if len(F) == 0:
        raise InputError("covering needs a nonempty family")
    if any(m.is_empty for m in F):
        raise InputError("family members must have at least one edge")


def covered_closure(F: Family) -> CoveredSet:
    """The set of all distinct unions of nonempty subfamilies of F.

    A narrow support (see dense_fits) gets the dense table of
    _dense_closure_masks; a wide one the breadth-first search, whose cost
    follows the size of the closure rather than of the support.
    """
    _check_family(F)
    members = [g.edges for g in F]
    bits = SupportBits(members)
    if dense_fits(len(bits), len(members)):
        masks = _dense_closure_masks(members, bits)
    else:
        width = F.ground.edge_count
        masks = sorted(_bfs_closure_masks(members), key=lambda m: mask_key(m, width))
    return CoveredSet(F.ground, F, tuple(Graph(F.ground, m) for m in masks))


def _dense_closure_masks(members: list[int], bits: SupportBits) -> list[int]:
    """Covered masks in canonical order, by one OR pass over the support.

    After the pass, table[S] is the union of the members inside S, and S is
    covered exactly when that union is S itself.
    """
    cmembers = np.array([bits.compress(m) for m in members], dtype=np.uint32)
    table = np.zeros(1 << len(bits), dtype=np.uint32)
    table[cmembers] = cmembers
    _subset_transform(table, "|")
    covered = np.flatnonzero(table == np.arange(table.size, dtype=np.uint32))
    # index 0 always matches, but the empty graph is not covered
    rows = byte_rows(covered[1:], len(bits))
    return bits.expand(np.take(rows, canonical_order(rows), axis=0)).tolist()


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

