"""Multilinear membership polynomials and their independent verification.

A 0/1 assignment to the edge variables of a ground graph is the same bit
vector as a spanning subgraph, so assignments are passed around as Graphs (or
raw masks). Membership polynomials are built three ways: from the
inclusion-exclusion coefficients of the covered-set lattice (general
families), from the cyclomatic-number sign rule (perfect-matching families,
weighted or not, whose narrow supports take the Mobius transform of their
membership table instead; a support is split into its blocks and the
blocks' polynomials multiplied), and from the Mobius transform of a truth
table that an oracle fills, an array of edge masks at a time: the
independent check on grounds of up to DENSE_BIT_CAP edges, K_{5,5} among
them. Every route ends in the same arrays (support edges, compressed
monomials in canonical order, coefficients), which the text and JSON
writers format a chunk at a time; both Mobius routes reach them through
one helper, which reads the nonzero entries of the table in canonical
order (the table numbers its bits in reverse; see subsets), so neither
sorts rows by a lexsort. JSON in the writer's layout is read back into the
same arrays without json.loads (_layout_polynomial).
"""

from __future__ import annotations

import functools
import json
import re
from typing import Callable, Iterator

import numpy as np

from .errors import CapExceededError, InputError
from .covered import _check_family, covered_closure
from .graphs import (
    BIPARTITE,
    Family,
    Graph,
    GroundGraph,
    _check_ground,
    _components,
    _iter_bits,
    _joined,
    _mask_of_ids,
    _mask_of_rows,
    _row_masks,
    _write_chunks,
    bipartite_ground,
    cyclomatic_number,
)
from .lattice import build_lattice
from .matching import (
    WeightFunction,
    enumerate_min_weight_pms,  # unused here; perfbench/spans.py wraps this name
    enumerate_perfect_matchings,
    support_union,
)
from .subsets import (
    DENSE_BIT_CAP,
    SupportBits,
    _canonical_entries,
    _packed_or_transform,
    _row_keys,
    _subset_transform,
    _table_index,
    canonical_order,
    dense_fits,
)

# A support with its _split: forced edges, blocks and their families.
_Split = tuple[Graph, int, list[tuple[int, int]], Iterator[Family]]
# Assignments per call of a truth-table oracle: 2^16 int64 masks, 512 KB.
_ORACLE_CHUNK = 1 << 16
# Support-edge slots formatted per chunk of the writers: a chunk takes
# 2^14 // s terms of a polynomial on s support edges, so it formats at most
# about 2^14 edge names, however wide the monomials are.
_CHUNK_SLOTS = 1 << 14
# (point, term) pairs per block of a scan of the rows: a 256 KB bool block.
_SCAN_CELLS = 1 << 18
# Terms per match of _layout_polynomial's runs of terms.
_LAYOUT_TERMS = 16
# A bytes.translate table that keeps the bytes of integers ("-" and the
# digits) and makes every other byte a space.
_INTEGER_BYTES = bytes(c if c in b"-0123456789" else 32 for c in range(256))
# A bytes.translate table that makes each byte 1 when it is neither JSON
# whitespace nor one of {}[],:, else 0.
_TOKEN_BYTES = bytes(c not in b" \t\n\r{}[],:" for c in range(256))


class MultilinearPolynomial:
    """Integer multilinear polynomial over the edge variables of one ground.

    Held as arrays in one canonical form: the support (the edges that the
    monomials touch), each monomial as a byte row of its edge mask
    compressed onto the support, rows in canonical order, and the nonzero
    coefficients in the same order. Values at 0/1 assignments are read
    from the rows (evaluate), or from a table of all values over the
    support when that costs less; terms, the mapping from monomial (edge
    bitmask) to coefficient, is built anew on each access and read by no
    evaluation.
    """

    __slots__ = ("ground", "_bits", "_rows", "_coeffs")

    def __init__(self, ground: GroundGraph, terms: dict[int, int]):
        """terms maps monomials (edge bitmasks of the ground) to nonzero
        integer coefficients."""
        masks = list(terms)
        if masks and (min(masks) < 0 or max(masks) >> ground.edge_count):
            bad = next(m for m in masks if m < 0 or m >> ground.edge_count)
            raise InputError(f"monomial mask {bad:#x} out of range")
        coeffs = _int_array(list(terms.values()))
        if (coeffs == 0).any():
            raise InputError("zero coefficients must be dropped")
        bits = SupportBits(masks)
        rows = bits.rows(masks)
        order = canonical_order(rows)
        self._hold(ground, bits, np.take(rows, order, axis=0), coeffs[order])

    def _hold(
        self, ground: GroundGraph, bits: SupportBits, rows: np.ndarray, coeffs: np.ndarray
    ) -> None:
        """Keep the monomials' byte rows on the support bits, in canonical
        order, and their coefficients in the same order."""
        self.ground = ground
        self._bits = bits
        self._rows = rows
        self._coeffs = coeffs

    @classmethod
    def _from_rows(
        cls, ground: GroundGraph, bits: SupportBits, rows: np.ndarray, coeffs: np.ndarray
    ) -> "MultilinearPolynomial":
        """The polynomial of nonzero coefficients on distinct byte rows whose
        union is the whole support, in canonical order."""
        poly = cls.__new__(cls)
        poly._hold(ground, bits, rows, coeffs)
        return poly

    @property
    def terms(self) -> dict[int, int]:
        """Monomial (edge bitmask) to coefficient, built on each access."""
        return dict(zip(self._bits.expand(self._rows).tolist(), self._coeffs.tolist()))

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearPolynomial)
            and self.ground == other.ground
            and self._bits.ids == other._bits.ids
            and np.array_equal(self._rows, other._rows)
            and np.array_equal(self._coeffs, other._coeffs)
        )

    def coefficient(self, x: Graph | int) -> int:
        """Coefficient of x's monomial, searched in the rows, not in terms."""
        k = self._bits.find(self._rows, self._mask_of(x))
        return 0 if k is None else int(self._coeffs[k])

    def _mask_of(self, x: Graph | int) -> int:
        if isinstance(x, Graph):
            if x.ground != self.ground:
                raise InputError("assignment ground does not match the polynomial")
            return x.edges
        if x < 0 or x.bit_length() > self.ground.edge_count:
            raise InputError(f"assignment mask {x:#x} out of range")
        return x

    def evaluate(self, x: Graph | int) -> int:
        """Value at a 0/1 assignment: sum of coefficients of submonomials."""
        return int(self._scanner()([self._mask_of(x)])[0])

    def _scanner(self) -> Callable[[np.ndarray], np.ndarray]:
        """A function from an array of assignment masks (int64 or Python
        ints) to their values, read from the rows: a term counts at a point
        when each of its support bytes is inside the point's byte there
        (term & ~point == 0).
        Blocks of points take about _SCAN_CELLS (point, term) pairs each.
        The coefficients are cast once, here: the sums are int64 (the
        coefficients themselves, not a copy) while the largest absolute
        coefficient times the number of terms, a bound on every partial
        sum, is below 2^62, else Python ints."""
        top = max(-int(self._coeffs.min(initial=0)), int(self._coeffs.max(initial=0)))
        coeffs = self._coeffs.astype(object if top * len(self) >= 1 << 62 else np.int64, copy=False)
        step = max(1, _SCAN_CELLS // max(1, len(self)))

        def scan(points: list[int] | np.ndarray) -> np.ndarray:
            rows = self._bits.rows(points)
            out = np.zeros(len(points), dtype=coeffs.dtype)
            for lo in range(0, len(points), step):
                inside = np.ones((len(rows[lo : lo + step]), len(self)), dtype=bool)
                for point, term in zip(rows[lo : lo + step].T, self._rows.T):
                    inside &= (term & ~point[:, None]) == 0
                out[lo : lo + step] = inside @ coeffs
            return out

        return scan

    def _value_reader(self, points: int) -> Callable[[np.ndarray], np.ndarray]:
        """A function from an array of assignment masks (int64, or Python
        ints) to their values, for a run of that many points: a lookup in
        value_table when it pays, else _scanner's function. Both compress
        the points through SupportBits.words, so the rule prices what
        differs. Measured on a 2-core x86-64, a table entry costs up to
        25 ns (its s passes included, at s = 25), and the scan about 40 ns a
        point more than a table read, for int64 and object points alike,
        plus 3 ns a (point, term) pair."""
        pays = 25 * (1 << len(self._bits)) <= points * (40 + 3 * len(self))
        # None on wide supports and huge coefficients
        table = self.value_table() if pays else None
        return self._scanner() if table is None else lambda x: table[self._bits.words(x)[:, 0]]

    def value_table(self) -> np.ndarray | None:
        """Values at all 2^s assignments of the s support edges, by one zeta
        pass, indexed by the assignment compressed onto the support, the
        first word of SupportBits.words; edges off the support do not change
        a value.

        The int32 table holds partial sums of coefficients, so it is refused
        (None) when the absolute coefficients sum past int32, as well as
        when the support has more than DENSE_BIT_CAP edges.
        """
        # object coefficients hold a value past int64; the float64 sum is
        # exact below 2^53 and cannot fall back under 2^31 above it
        if (
            len(self._bits) > DENSE_BIT_CAP
            or self._coeffs.dtype == object
            or np.abs(self._coeffs, dtype=np.float64).sum() > np.iinfo(np.int32).max
        ):
            return None
        # each byte row, read as a little-endian integer, is its own index
        table = np.zeros(1 << len(self._bits), dtype=np.int32)
        table[_row_keys(self._rows)] = self._coeffs
        return _subset_transform(table, "+")

    def _chunk_terms(self) -> int:
        """Terms per chunk of the writers."""
        return max(1, _CHUNK_SLOTS // max(1, len(self._bits)))

    def to_text(self, file=None) -> str | int:
        """One term per line: signed coefficient, then sorted x[u,v] factors.
        Returns the text, or writes it to file chunk by chunk and returns
        the number of characters written."""
        return _write_chunks(self._text_chunks(), file)

    def _text_chunks(self) -> Iterator[str]:
        return self._term_chunks("{:+d}", " x[{},{}]", None, "\n", "", "\n", "\n")

    def to_json(self, file=None) -> str | int:
        """json.dumps(..., indent=2) of "ground" and "terms" (each with its
        "coeff" and "edges" as [u, v] pairs, in canonical order), plus a
        newline, written directly. Returns the text, or writes it to file
        chunk by chunk and returns the number of characters written."""
        return _write_chunks(self._json_chunks(), file)

    def _json_chunks(self) -> Iterator[str]:
        head = (
            f'{{\n  "ground": {{\n    "mode": {json.dumps(self.ground.mode)},'
            f'\n    "size": {self.ground.size}\n  }},\n  "terms": '
        )
        return self._term_chunks(
            '\n    {{\n      "coeff": {},\n      "edges": [',
            ",\n        [\n          {},\n          {}\n        ]",  # the first without its comma
            ("\n      ]\n    }", "]\n    }"),
            ",", head + "[", "\n  ]\n}\n", head + "[]\n}\n",
        )

    def _term_chunks(self, coefficient: str, template: str, ends, *layout: str) -> Iterator[str]:
        """The terms, each its coefficient in that format and its edges named
        by template (see SupportBits.namer), joined with _joined's layout
        (sep, first, last, empty), a chunk of _chunk_terms() at a time."""
        name = self._bits.namer(template, self.ground.edge_pair, ends)
        coefficients = _coefficient_strings(self._coeffs, coefficient)

        def terms(lo: int, hi: int) -> list[np.ndarray]:
            return [coefficients(self._coeffs[lo:hi]), *name(self._rows[lo:hi])]

        return _joined(len(self), terms, self._chunk_terms(), *layout)

    @classmethod
    def from_json(cls, text: str, ground: GroundGraph) -> "MultilinearPolynomial":
        """The polynomial of JSON text on the expected ground, which its
        header must name.

        Text in the writer's layout (its key order, any JSON whitespace
        between tokens; see _layout_patterns) is read as arrays by
        _layout_polynomial. Any other text, and any that reader declines,
        is read by json.loads, which gives every refusal its message."""
        poly = _layout_polynomial(text, ground)
        if poly is not None:
            return poly
        try:
            data = json.loads(text)
            mode, size = data["ground"]["mode"], data["ground"]["size"]
            _check_ground(mode, size)
            if (mode, size) != (ground.mode, ground.size):
                raise InputError(
                    f"polynomial ground {mode} {size} does not match {ground.header()}"
                )
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
        # ValueError: text that is no JSON, a number past int()'s digit
        # limit, or an edge that is not a pair; RecursionError: arrays or
        # objects nested past the interpreter's recursion limit
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise InputError(f"malformed polynomial JSON: {exc}") from None
        return cls(ground, terms)

    def __repr__(self) -> str:
        return f"MultilinearPolynomial({self.ground.header()!r}, {len(self)} terms)"


@functools.cache
def _layout_patterns() -> tuple[re.Pattern, re.Pattern]:
    """The writer's layout of polynomial JSON without its whitespace, as
    two patterns of bytes: the head, up to the "[" of the terms, whose
    groups 1 and 2 are the ground's mode and size, and a run of terms
    {"coeff":c,"edges":[[u,v],...]} separated by commas. Integers are
    RFC 8259 ones of at most 18 digits, so each fits int64; coefficients
    are nonzero and vertices positive."""
    positive = rb"[1-9][0-9]{0,17}"
    edge = rb"\[" + positive + b"," + positive + rb"\]"
    term = rb'\{"coeff":-?' + positive + rb',"edges":\[(?:' + edge + b"(?:," + edge + rb")*)?\]\}"
    head = rb'\{"ground":\{"mode":"([a-z]*)","size":(' + positive + rb')\},"terms":\['
    return re.compile(head), re.compile(term + b"(?:," + term + b")*")


def _token_pairs(data: bytes) -> int:
    """The adjacent pairs of bytes that are neither JSON whitespace nor one
    of {}[],: (parts of strings, numbers or literals)."""
    inside = np.frombuffer(data.translate(_TOKEN_BYTES), dtype=bool)
    return np.count_nonzero(inside[1:] & inside[:-1])


def _layout_polynomial(text: str, ground: GroundGraph) -> MultilinearPolynomial | None:
    """The polynomial of JSON text in the writer's layout (its keys in its
    order, any JSON whitespace between tokens) on the expected ground, read
    as arrays; None for any other text, and for text that from_json's
    json.loads path refuses (another ground, a vertex off the ground, a
    loop of K_m, duplicate monomials) or reads past int64.

    The whitespace is deleted and the rest matched to _layout_patterns;
    whitespace between two token bytes would join two tokens when deleted,
    which adds a pair to _token_pairs, so such text is declined. The terms
    are matched _LAYOUT_TERMS at a time, cut at the commas between terms:
    the re module keeps its backtracking state, about 250 bytes an edge,
    until a match returns (2.2 MB for one match of all 8,868 edges of a
    909-term file). One np.fromstring reads every integer (the ground's
    size, then each term's coefficient and vertices), every other byte
    read as a space; a term's "[" are its list's and one for each edge,
    so the positions of "{" and "[" give its edge count.
    """
    if not text.isascii() or ground.size >> 31:  # below, edge ids fit int64
        return None
    raw = text.encode()
    data = raw.translate(None, b" \t\n\r")
    if _token_pairs(data) != _token_pairs(raw):
        return None
    head_pattern, run_pattern = _layout_patterns()
    head, close = head_pattern.match(data), len(data) - 2
    if (
        head is None
        or (head[1].decode(), int(head[2])) != (ground.mode, ground.size)
        or not data.endswith(b"]}")
    ):
        return None
    chars = np.frombuffer(data, dtype=np.uint8)
    opens = np.flatnonzero(chars == ord("{"))[2:]  # past the file's and the ground's
    brackets = np.flatnonzero(chars == ord("["))
    edges = np.diff(np.searchsorted(brackets, opens), append=len(brackets)) - 1
    if len(opens):
        # runs of _LAYOUT_TERMS terms, each after a comma (the first after the head)
        cuts = [data.rfind(b",", 0, k) for k in opens[_LAYOUT_TERMS::_LAYOUT_TERMS].tolist()]
        runs = zip([head.end() - 1, *cuts], [*cuts, close])
        if not all(run_pattern.fullmatch(data, lo + 1, hi) for lo, hi in runs):
            return None
    elif head.end() != close:
        return None

    numbers = np.fromstring(data.translate(_INTEGER_BYTES), dtype=np.int64, sep=" ")
    coefficient_at = np.arange(1, len(opens) + 1) + 2 * (np.cumsum(edges) - edges)
    u, v = np.delete(numbers, np.r_[0, coefficient_at]).reshape(-1, 2).T
    n = ground.size
    if ground.mode == BIPARTITE:
        if max(u.max(initial=0), v.max(initial=0)) > n:
            return None
        ids = (u - 1) * n + v - 1
    else:  # as edge_index numbers {u, v}
        u, v = np.minimum(u, v), np.maximum(u, v)
        if v.max(initial=0) > n or (u == v).any():
            return None
        ids = (u - 1) * (2 * n - u) // 2 + v - u - 1
    support, place = np.unique(ids, return_inverse=True)
    width = -(-len(support) // 8)
    rows = np.zeros((len(opens), width), dtype=np.uint8)
    at = np.repeat(np.arange(len(opens)) * width, edges) + (place >> 3)
    np.bitwise_or.at(rows.reshape(-1), at, np.left_shift(1, place & 7).astype(np.uint8))
    union = _mask_of_ids(support.tolist(), int(support.max(initial=-1)) + 1)
    order = canonical_order(rows)
    rows, coeffs = np.take(rows, order, axis=0), numbers[coefficient_at][order]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        return None
    return MultilinearPolynomial._from_rows(ground, SupportBits([union]), rows, coeffs)


def _int_array(values: list) -> np.ndarray:
    """Integers as int64, or as Python ints in an object array when one of
    them does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _coefficient_strings(coeffs: np.ndarray, template: str) -> Callable[[np.ndarray], np.ndarray]:
    """A function from a run of coeffs to template.format(c) of each, as an
    object array; each distinct value of coeffs is formatted once, here."""
    # with counts np.unique sorts: its hash path costs 15 ms on a first call
    values = np.unique(coeffs, return_counts=True)[0]
    texts = np.array([template.format(v) for v in values.tolist()], dtype=object)
    return lambda run: texts[np.searchsorted(values, run)]


def membership_oracle(F: Family, G: Graph) -> int:
    """1 iff some family member is a subgraph of G."""
    if G.ground != F.ground:
        raise InputError("graph and family grounds differ")
    return int(any(m.edges & ~G.edges == 0 for m in F))


def membership_polynomial_general(F: Family) -> MultilinearPolynomial:
    """Membership polynomial of an arbitrary family via lattice
    inclusion-exclusion: each covered graph contributes minus its Mobius
    number."""
    cov = covered_closure(F)
    mobius = build_lattice(cov)._mobius_numbers[1:]  # the bottom is first
    terms = {m: -mu for m, mu in zip(cov.bits.expand(cov.rows).tolist(), mobius) if mu}
    return MultilinearPolynomial(F.ground, terms)


def _sign_rule_polynomial(F: Family) -> MultilinearPolynomial:
    """One term per covered graph, signed by its cyclomatic number."""
    cov = covered_closure(F)
    signs = np.array([-1 if cyclomatic_number(g) % 2 else 1 for g in cov], dtype=np.int64)
    return MultilinearPolynomial._from_rows(F.ground, cov.bits, cov.rows, signs)


def _pm_family_polynomial(F: Family) -> MultilinearPolynomial:
    """Membership polynomial of a family of perfect matchings.

    On a narrow support (see dense_fits) the coefficients are the Mobius
    transform of the membership table, which one OR pass over its bits
    builds; on a wide one they come from the sign rule over the closure.
    """
    _check_family(F)
    members = [g.edges for g in F]
    bits = SupportBits(members)
    if not dense_fits(len(bits), len(members)):
        return _sign_rule_polynomial(F)

    def mobius_residues() -> np.ndarray:
        # the membership table is 0/1, so the OR pass runs on its bits and
        # the Mobius pass on its bytes, which wrap: each byte ends as its
        # coefficient mod 2^8
        ones = _table_index(bits.words(members)[:, 0], len(bits))
        table = _packed_or_transform(ones, len(bits))
        return _subset_transform(table, "+", inverse=True).view(np.int8)

    # by the sign rule every coefficient is -1, 0 or 1, so the residues read
    # as int8 are the coefficients themselves
    poly = _table_polynomial(F.ground, bits, mobius_residues)
    bad = poly._coeffs.view(np.uint8)[(poly._coeffs < -1) | (poly._coeffs > 1)]
    if len(bad):
        raise RuntimeError(
            f"Mobius residue {bad[0]} mod 2^8 is no sign: the family is not one of perfect matchings"
        )
    return poly


def _table_polynomial(
    ground: GroundGraph, bits: SupportBits, mobius_table: Callable[[], np.ndarray]
) -> MultilinearPolynomial:
    """The polynomial whose coefficients are the nonzero entries of the
    table that mobius_table() returns, indexed by masks on the support bits
    as _table_index numbers them, read by _canonical_entries; a support bit
    that no monomial touches is dropped, which keeps the order."""
    rows, coeffs = _canonical_entries(mobius_table)
    union = np.array([np.bitwise_or.reduce(column) for column in rows.T], dtype=np.uint8)
    used = np.flatnonzero(np.unpackbits(union, count=len(bits), bitorder="little"))
    if len(used) < len(bits):
        edges = np.unpackbits(rows, axis=1, count=len(bits), bitorder="little")
        rows = np.packbits(edges[:, used], axis=1, bitorder="little")
        bits = SupportBits([sum(1 << bits.ids[k] for k in used.tolist())])
    return MultilinearPolynomial._from_rows(ground, bits, rows, coeffs)


def pm_polynomial(n: int, split: _Split | None = None) -> MultilinearPolynomial:
    """Membership polynomial of the perfect matchings of K_{n,n}: one term
    per matching-covered subgraph, signed by its cyclomatic number. split,
    if given, is K_{n,n} with its _split, made already."""
    return _support_polynomial(*(split or _with_split(bipartite_ground(n).full_graph())))


def min_weight_pm_polynomial(
    w: WeightFunction, split: _Split | None = None
) -> MultilinearPolynomial:
    """Membership polynomial of the minimum-weight perfect matchings under w,
    those of their union G_w. split, if given, is G_w with its _split, made
    already."""
    return _support_polynomial(*(split or _with_split(support_union(w))))


def _with_split(support: Graph) -> _Split:
    return (support, *_split(support))


def _support_polynomial(
    support: Graph, forced: int, blocks: list[tuple[int, int]], families: Iterator[Family]
) -> MultilinearPolynomial:
    """Membership polynomial of the perfect matchings of a bipartite graph
    that is their union, from _split's forced edges, blocks and families of
    it: a graph is covered exactly when its part in every block is covered
    there, and cyclomatic numbers add over blocks, so it is the product of
    the blocks' polynomials, each forced edge in every term. A support of
    one block, such as K_{n,n}, is that block's polynomial.
    """
    polys = [(p._bits, p._rows, p._coeffs) for p in map(_pm_family_polynomial, families)]
    bits, rows, coeffs = _multiply_blocks(support, forced, polys)
    return MultilinearPolynomial._from_rows(support.ground, bits, rows, coeffs)


def _split(support: Graph) -> tuple[int, list[tuple[int, int]], Iterator[Family]]:
    """The blocks (connected components, each elementary) of a bipartite
    graph that is the union of its perfect matchings: the mask of the blocks
    of one row, a forced edge each; the others as (row count, edge mask)
    pairs; and, as they are asked for, the perfect matchings of each of
    those, listed on the block's own rows and columns."""
    ground = support.ground
    n = ground.size
    rows = _row_masks(support)
    # masks are joined by halves from rows, other blocks' rows at 0: shifting
    # each row into place costs O(n^3) bit work on one wide block
    forced_rows, blocks, vertex_sets = [0] * n, [], []
    for members, cols in _components(rows):
        if members.bit_count() == 1:
            i = members.bit_length() - 1
            forced_rows[i] = rows[i]
        else:
            block_rows = [0] * n
            for i in _iter_bits(members):
                block_rows[i] = rows[i]
            blocks.append((members.bit_count(), _mask_of_rows(block_rows)))
            vertex_sets.append(members | cols << n)
    families = (
        enumerate_perfect_matchings(Graph(ground, edges), vertices)
        for (_, edges), vertices in zip(blocks, vertex_sets)
    )
    return _mask_of_rows(forced_rows), blocks, families


def _multiply_blocks(
    support: Graph, forced: int, blocks: list[tuple[SupportBits, np.ndarray, np.ndarray | None]]
) -> tuple[SupportBits, np.ndarray, np.ndarray | None]:
    """The support's bits; the byte rows on them, in canonical order, of
    each union of the forced edges and one row of every block; and the
    products of the blocks' coefficients in the same order, or None for
    blocks without them. Each block is a (bits, rows, coefficients or None)
    triple, its rows in canonical order. A lone block with no forced edge
    spans the whole support, so it is returned as it is."""
    if not forced and len(blocks) == 1:
        return blocks[0]
    bits = SupportBits([support.edges])
    rows = bits.rows([forced])
    coeffs = np.ones(1, dtype=np.int64)
    for block_bits, block_rows, block_coeffs in blocks:
        # the block's edge columns scattered to their places on the support
        edges = np.zeros((len(block_rows), len(bits)), dtype=np.uint8)
        edges[:, np.searchsorted(bits.ids, block_bits.ids)] = np.unpackbits(
            block_rows, axis=1, count=len(block_bits), bitorder="little"
        )
        block_rows = np.packbits(edges, axis=1, bitorder="little")
        rows = (rows[:, None] | block_rows[None]).reshape(-1, rows.shape[1])
        coeffs = None if block_coeffs is None else np.multiply.outer(coeffs, block_coeffs).ravel()
    order = canonical_order(rows)
    # np.take beats rows[order]
    return bits, np.take(rows, order, axis=0), None if coeffs is None else coeffs[order]


def truth_table_transform(
    oracle: Callable[[np.ndarray], np.ndarray], ground: GroundGraph
) -> MultilinearPolynomial:
    """The unique multilinear polynomial agreeing with a Boolean function on
    all 0/1 assignments, by the subset Mobius transform of its truth table.

    oracle maps an int64 array of edge masks of the ground to an array of
    their values, each 0 or 1 (bools too); it is called once on each mask,
    _ORACLE_CHUNK at a time, and any other answer is refused. A chunk's
    masks are those of a run of table indices, which number the bits in
    reverse (_table_index), so its answers are written in place, in the
    order that _canonical_entries reads.
    Exhaustive by construction, so grounds wider than DENSE_BIT_CAP are
    refused before any table exists. Every coefficient of a Boolean function
    on m edges is at most 2^m in absolute value, so the int32 table holds
    each one exactly.
    """
    m = ground.edge_count
    if m > DENSE_BIT_CAP:
        raise CapExceededError(
            f"{ground.header()} has {m} edge bits, transform cap is {DENSE_BIT_CAP}"
        )

    def mobius_table() -> np.ndarray:
        table = np.empty(1 << m, dtype=np.int32)
        for lo in range(0, len(table), _ORACLE_CHUNK):
            index = np.arange(lo, min(lo + _ORACLE_CHUNK, len(table)))
            masks = _table_index(index, m).astype(np.int64)
            values = np.asarray(oracle(masks))
            if values.shape != masks.shape or not ((values == 0) | (values == 1)).all():
                raise InputError(f"the oracle must answer 0 or 1 for each of {len(masks)} masks")
            table[lo : lo + len(masks)] = values
        return _subset_transform(table, "+", inverse=True)

    return _table_polynomial(ground, SupportBits([(1 << m) - 1]), mobius_table)
