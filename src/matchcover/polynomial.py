"""Multilinear membership polynomials and their independent verification.

A 0/1 assignment to the edge variables of a ground graph is the same bit
vector as a spanning subgraph, so assignments are passed around as Graphs (or
raw masks). Membership polynomials are built three ways: from the
inclusion-exclusion coefficients of the covered-set lattice (general
families), from the cyclomatic-number sign rule (perfect-matching families,
weighted or not, whose narrow supports take the Mobius transform of their
membership table instead), and from an exhaustive truth-table transform that
serves as the independent oracle at small sizes.
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from .errors import CapExceededError, InputError
from .covered import _check_family, covered_closure
from .graphs import (
    Family,
    Graph,
    GroundGraph,
    _check_ground,
    _iter_bits,
    bipartite_ground,
    cyclomatic_number,
    mask_key,
)
from .lattice import build_lattice
from .matching import (
    WeightFunction,
    enumerate_min_weight_pms,
    enumerate_perfect_matchings,
)
from .subsets import DENSE_BIT_CAP, SupportBits, _subset_transform, dense_fits

# Widest edge set that exhaustive work (2^E assignments, or the covered
# graphs of a support of E edges) takes unless told otherwise: the 16 edges
# of K_{4,4}. truth_table_transform and every CLI cap but the lattice's use it.
EDGE_CAP = 16


class MultilinearPolynomial:
    """Integer multilinear polynomial over the edge variables of one ground.

    Terms map a monomial (edge bitmask) to a nonzero integer coefficient.
    """

    __slots__ = ("ground", "terms")

    def __init__(self, ground: GroundGraph, terms: dict[int, int]):
        for mask, coeff in terms.items():
            if not 0 <= mask < (1 << ground.edge_count):
                raise InputError(f"monomial mask {mask:#x} out of range")
            if coeff == 0:
                raise InputError("zero coefficients must be dropped")
        self.ground = ground
        self.terms = dict(terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearPolynomial)
            and self.ground == other.ground
            and self.terms == other.terms
        )

    def coefficient(self, x: Graph | int) -> int:
        mask = self._mask_of(x)
        return self.terms.get(mask, 0)

    def _mask_of(self, x: Graph | int) -> int:
        if isinstance(x, Graph):
            if x.ground != self.ground:
                raise InputError("assignment ground does not match the polynomial")
            return x.edges
        if not 0 <= x < (1 << self.ground.edge_count):
            raise InputError(f"assignment mask {x:#x} out of range")
        return x

    def evaluate(self, x: Graph | int) -> int:
        """Value at a 0/1 assignment: sum of coefficients of submonomials."""
        mask = self._mask_of(x)
        total = 0
        for term, coeff in self.terms.items():
            if term & ~mask == 0:
                total += coeff
        return total

    def value_table(self) -> np.ndarray | None:
        """Values at all 2^m assignments, indexed by mask, by one zeta pass.

        The int32 table holds partial sums of coefficients, so it is refused
        (None) when the absolute coefficients sum past int32, as well as
        when the ground has more than DENSE_BIT_CAP edges.
        """
        if (
            self.ground.edge_count > DENSE_BIT_CAP
            or sum(abs(c) for c in self.terms.values()) > np.iinfo(np.int32).max
        ):
            return None
        table = np.zeros(1 << self.ground.edge_count, dtype=np.int32)
        count = len(self.terms)
        table[np.fromiter(self.terms, dtype=np.int64, count=count)] = np.fromiter(
            self.terms.values(), dtype=np.int64, count=count
        )
        return _subset_transform(table, "+")

    def sorted_terms(self) -> list[tuple[int, int]]:
        """(mask, coeff) pairs in canonical (degree, edge-id) order."""
        width = self.ground.edge_count
        return sorted(self.terms.items(), key=lambda item: mask_key(item[0], width))

    def to_text(self) -> str:
        """One term per line: signed coefficient, then sorted x[u,v] factors."""
        names = [f"x[{i},{j}]" for (i, j) in self.ground.edge_pairs()]
        lines = [
            " ".join([f"{coeff:+d}", *(names[k] for k in _iter_bits(mask))])
            for mask, coeff in self.sorted_terms()
        ]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        pairs = self.ground.edge_pairs()
        return {
            "ground": {"mode": self.ground.mode, "size": self.ground.size},
            "terms": [
                {"coeff": coeff, "edges": [list(pairs[k]) for k in _iter_bits(mask)]}
                for mask, coeff in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        """The bytes of json.dumps(self.to_json_dict(), indent=2) plus a
        newline, written directly rather than by the pure-Python encoder
        that indent selects."""
        pairs = [
            f"\n        [\n          {i},\n          {j}\n        ]"
            for (i, j) in self.ground.edge_pairs()
        ]
        terms = []
        for mask, coeff in self.sorted_terms():
            edges = ",".join(pairs[k] for k in _iter_bits(mask))
            edges = f"[{edges}\n      ]" if mask else "[]"
            terms.append(
                f'\n    {{\n      "coeff": {coeff},\n      "edges": {edges}\n    }}'
            )
        body = f"[{','.join(terms)}\n  ]" if terms else "[]"
        return (
            f'{{\n  "ground": {{\n    "mode": {json.dumps(self.ground.mode)},'
            f'\n    "size": {self.ground.size}\n  }},\n  "terms": {body}\n}}\n'
        )

    @classmethod
    def from_json_dict(cls, data: dict, ground: GroundGraph) -> "MultilinearPolynomial":
        """The polynomial of decoded JSON on the expected ground. The header
        must name that ground; it is compared before anything is built."""
        mode, size = _json_ground(data)
        if (mode, size) != (ground.mode, ground.size):
            raise InputError(
                f"polynomial ground {mode} {size} does not match {ground.header()}"
            )
        try:
            terms: dict[int, int] = {}
            for item in data["terms"]:
                coeff = item["coeff"]
                if not isinstance(coeff, int):
                    raise InputError(f"coefficient {coeff!r} is not an integer")
                mask = 0
                for (u, v) in item["edges"]:
                    mask |= 1 << ground.edge_index(u, v)
                if mask in terms:
                    raise InputError("duplicate monomial in polynomial file")
                terms[mask] = int(coeff)  # JSON true is an int, written back as 1
        except InputError:  # a ValueError already worded for the user
            raise
        except (KeyError, TypeError, ValueError) as exc:  # ValueError: an edge not a pair
            raise InputError(f"malformed polynomial JSON: {exc}") from None
        return cls(ground, terms)

    @classmethod
    def from_json(cls, text: str, ground: GroundGraph) -> "MultilinearPolynomial":
        return cls.from_json_dict(_json_data(text), ground)

    def __repr__(self) -> str:
        return f"MultilinearPolynomial({self.ground.header()!r}, {len(self.terms)} terms)"


def _json_data(text: str):
    """Decoded polynomial JSON, malformed text refused as InputError."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or more digits than int() converts
        raise InputError(f"malformed polynomial JSON: {exc}") from None


def _json_ground(data) -> tuple[str, int]:
    """Mode and size of the ground that decoded polynomial JSON names,
    checked without building the ground, so that they can be compared with
    what the data should hold first."""
    try:
        mode, size = data["ground"]["mode"], data["ground"]["size"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed polynomial JSON: {exc}") from None
    _check_ground(mode, size)
    return mode, size


def membership_oracle(F: Family, G: Graph) -> int:
    """1 iff some family member is a subgraph of G."""
    if G.ground != F.ground:
        raise InputError("graph and family grounds differ")
    return int(any(m.edges & ~G.edges == 0 for m in F))


def membership_polynomial_general(F: Family) -> MultilinearPolynomial:
    """Membership polynomial of an arbitrary family via lattice
    inclusion-exclusion: each covered graph contributes minus its Mobius
    number."""
    lat = build_lattice(covered_closure(F))
    table = lat.mobius_table()
    terms = {g.edges: -mu for g, mu in table.items() if mu and g != lat.bottom}
    return MultilinearPolynomial(F.ground, terms)


def _sign_rule_polynomial(F: Family) -> MultilinearPolynomial:
    """One term per covered graph, signed by its cyclomatic number."""
    terms = {
        g.edges: (-1 if cyclomatic_number(g) % 2 else 1) for g in covered_closure(F)
    }
    return MultilinearPolynomial(F.ground, terms)


def _pm_family_polynomial(F: Family) -> MultilinearPolynomial:
    """Membership polynomial of a family of perfect matchings.

    On a narrow support (see dense_fits) the coefficients are the Mobius
    transform of the membership table, which one OR pass builds; on a wide
    one they come from the sign rule over the closure.
    """
    _check_family(F)
    members = [g.edges for g in F]
    bits = SupportBits(members)
    if not dense_fits(len(bits), len(members)):
        return _sign_rule_polynomial(F)
    # int32 holds every partial sum: a Mobius step at most doubles |entry|
    table = np.zeros(1 << len(bits), dtype=np.int32)
    table[[bits.compress(m) for m in members]] = 1
    _subset_transform(table, "|")
    _subset_transform(table, "+", inverse=True)
    masks = np.flatnonzero(table)
    return MultilinearPolynomial(
        F.ground, dict(zip(bits.expand(masks), table[masks].tolist()))
    )


def pm_polynomial(n: int) -> MultilinearPolynomial:
    """Membership polynomial of the perfect matchings of K_{n,n}: one term
    per matching-covered subgraph, signed by its cyclomatic number."""
    ground = bipartite_ground(n)
    family = enumerate_perfect_matchings(ground.full_graph())
    return _pm_family_polynomial(family)


def min_weight_pm_polynomial(w: WeightFunction) -> MultilinearPolynomial:
    """Membership polynomial of the minimum-weight perfect matchings under w.

    Same sign rule as the unweighted case; every monomial lies inside the
    union of the minimum-weight matchings.
    """
    family = enumerate_min_weight_pms(w)
    return _pm_family_polynomial(family)


def truth_table_transform(
    oracle: Callable[[Graph], int], ground: GroundGraph
) -> MultilinearPolynomial:
    """The unique multilinear polynomial agreeing with the oracle on all 0/1
    assignments, by the in-place subset Mobius transform over all 2^m points.

    Exhaustive by construction; refuses grounds wider than EDGE_CAP.
    """
    m = ground.edge_count
    if m > EDGE_CAP:
        raise CapExceededError(
            f"{ground.header()} has {m} edge bits, transform cap is {EDGE_CAP}"
        )
    size = 1 << m
    table = np.fromiter(
        (oracle(Graph(ground, mask)) for mask in range(size)),
        dtype=np.int64,
        count=size,
    )
    _subset_transform(table, "+", inverse=True)
    terms = {
        int(mask): int(table[mask]) for mask in np.nonzero(table)[0]
    }
    return MultilinearPolynomial(ground, terms)
