"""Reference checkers for the benchmark, written apart from matchcover.

Nothing here imports the library. Each checker recomputes what the program
claims from first principles, by a different route where one exists:

- optimal matchings by scanning every permutation;
- the cyclomatic number chi from the benchmark's own component count;
- the covered set by a numpy OR subset transform over the support bits
  (G is covered iff the union of the family members inside G is G);
- membership by brute force over the family;
- readers for the documented polynomial text and JSON formats, and for the
  lattice reports.

Edge ids follow the documented grounds: bipartite (i, j) on K_{n,n} is bit
(i-1)*n + (j-1); complete {u, v} with u < v on K_m is its rank among the
pairs of 1..m in lexicographic order.
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np

TRANSFORM_BITS = 24


# -- grounds -----------------------------------------------------------------

def bipartite_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def complete_pairs(m: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]


def ground_pairs(mode: str, size: int) -> list[tuple[int, int]]:
    return bipartite_pairs(size) if mode == "bipartite" else complete_pairs(size)


def vertex_count(mode: str, size: int) -> int:
    return 2 * size if mode == "bipartite" else size


def mask_of(pairs, index: dict) -> int:
    mask = 0
    for p in pairs:
        mask |= 1 << index[tuple(p)]
    return mask


def edges_of(mask: int, pairs) -> tuple:
    return tuple(pairs[k] for k in range(len(pairs)) if mask >> k & 1)


# -- cyclomatic number ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _ends(mode: str, size: int) -> tuple[tuple[int, int], ...]:
    """0-based vertex pair of every edge id; right vertex j of K_{n,n} is n + j - 1."""
    off = size if mode == "bipartite" else 0
    return tuple((a - 1, off + b - 1) for a, b in ground_pairs(mode, size))


def chi(mask: int, mode: str, size: int) -> int:
    """|E| - |V| + components, by depth-first search over adjacency lists."""
    nv = vertex_count(mode, size)
    ends = _ends(mode, size)
    adj: list[list[int]] = [[] for _ in range(nv)]
    edges = 0
    while mask:
        low = mask & -mask
        mask ^= low
        x, y = ends[low.bit_length() - 1]
        adj[x].append(y)
        adj[y].append(x)
        edges += 1
    seen = [False] * nv
    components = 0
    for s in range(nv):
        if seen[s]:
            continue
        components += 1
        seen[s] = True
        todo = [s]
        while todo:
            x = todo.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    todo.append(y)
    return edges - nv + components


def sign(mask: int, mode: str, size: int) -> int:
    return -1 if chi(mask, mode, size) % 2 else 1


# -- matchings -------------------------------------------------------------------

def perm_scan(weights, n: int):
    """Minimum weight and every minimum-weight perfect matching of K_{n,n}.

    `weights` is a row-major list of n*n exact numbers; each permutation is
    a matching, scanned in full. Returns (optimum, sorted list of masks).
    """
    best = None
    found: list[int] = []
    for perm in itertools.permutations(range(n)):
        total = sum(weights[i * n + perm[i]] for i in range(n))
        mask = 0
        for i in range(n):
            mask |= 1 << (i * n + perm[i])
        if best is None or total < best:
            best, found = total, [mask]
        elif total == best:
            found.append(mask)
    return best, sorted(found)


def complete_matchings(mask: int, m: int) -> list[int]:
    """Perfect matchings of K_m inside `mask`, by scanning all pairings."""
    index = {p: k for k, p in enumerate(complete_pairs(m))}
    out: list[int] = []

    def pairings(free: tuple[int, ...], acc: int) -> None:
        if not free:
            out.append(acc)
            return
        u = free[0]
        for v in free[1:]:
            bit = 1 << index[(u, v)]
            if mask & bit:
                rest = tuple(x for x in free[1:] if x != v)
                pairings(rest, acc | bit)

    pairings(tuple(range(1, m + 1)), 0)
    return sorted(out)


def oracle(family: list[int], point: int) -> int:
    """Brute-force membership: 1 iff some family member lies inside point."""
    return int(any(f & ~point == 0 for f in family))


def evaluate(terms: dict[int, int], point: int) -> int:
    return sum(c for t, c in terms.items() if t & ~point == 0)


# -- covered set by subset transform -------------------------------------------

def covered_set(family: list[int]) -> set[int]:
    """Every nonempty union of family members, by an OR subset transform.

    Works on the bits of the family's support only: table[G] starts as G for
    members and 0 elsewhere, and after the transform holds the union of the
    members inside G. G is covered exactly when that union is G itself.
    """
    support = 0
    for f in family:
        support |= f
    bits = [k for k in range(support.bit_length()) if support >> k & 1]
    k = len(bits)
    if k > TRANSFORM_BITS:
        raise ValueError(f"support of {k} bits is too wide for the transform")
    pos = {b: t for t, b in enumerate(bits)}

    def compress(mask: int) -> int:
        return sum(1 << pos[b] for b in bits if mask >> b & 1)

    table = np.zeros(1 << k, dtype=np.int64)
    for f in family:
        c = compress(f)
        table[c] = c
    for t in range(k):
        view = table.reshape(-1, 2, 1 << t)
        view[:, 1, :] |= view[:, 0, :]
    idx = np.nonzero(table == np.arange(1 << k, dtype=np.int64))[0]
    idx = idx[idx != 0]
    full = np.zeros(len(idx), dtype=np.int64)
    for t, b in enumerate(bits):
        full |= ((idx >> t) & 1) << b
    return {int(x) for x in full}


def unions(family: list[int]) -> set[int]:
    """Every nonempty union of family members, by brute force over subsets
    (a block K_{s,s} gives 3 for s = 2 and 49 for s = 3)."""
    out = {0}
    for f in family:
        out |= {u | f for u in out}
    out.discard(0)
    return out


# -- readers -----------------------------------------------------------------------

def read_poly_text(text: str) -> list[tuple[int, tuple]]:
    """Text format: signed coefficient, then x[u,v] factors, one term a line."""
    terms = []
    for line in text.splitlines():
        head, *factors = line.split(" ")
        if head[:1] not in ("+", "-"):
            raise ValueError(f"bad term line {line!r}")
        edges = []
        for factor in factors:
            if not (factor.startswith("x[") and factor.endswith("]")):
                raise ValueError(f"bad factor {factor!r}")
            u, v = factor[2:-1].split(",")
            edges.append((int(u), int(v)))
        terms.append((int(head), tuple(edges)))
    return terms


def read_poly_json(text: str) -> tuple[tuple[str, int], list[tuple[int, tuple]]]:
    data = json.loads(text)
    ground = (data["ground"]["mode"], data["ground"]["size"])
    terms = [
        (item["coeff"], tuple((u, v) for u, v in item["edges"]))
        for item in data["terms"]
    ]
    return ground, terms


def read_edge_list(text: str) -> tuple:
    """The one-line 'u,v u,v' form of reports; '{}' is the empty graph."""
    text = text.strip()
    if text == "{}":
        return ()
    return tuple(tuple(int(x) for x in tok.split(",")) for tok in text.split())


def read_report(text: str) -> dict[str, str]:
    """Lattice text report: 'key: value' lines (indented pentagon lines too)."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.strip().partition(": ")
        out[key] = value
    return out


# -- checks --------------------------------------------------------------------

def check_polynomial(terms, mode: str, size: int, expected: set[int] | None,
                     count: int | None = None) -> list[str]:
    """Errors in a polynomial read back by one of the readers.

    The terms must be exactly `expected` (or `count` distinct terms when the
    set is too large to list), each with coefficient (-1)^chi, summing to 1,
    in the documented degree-then-edge order with sorted factors.
    """
    pairs = ground_pairs(mode, size)
    index = {p: k for k, p in enumerate(pairs)}
    errors = []
    masks = []
    total = 0
    prev = None
    for coeff, edges in terms:
        if list(edges) != sorted(set(edges)):
            errors.append(f"factors out of order in {edges}")
        key = (len(edges), tuple(edges))
        if prev is not None and key <= prev:
            errors.append(f"term {edges} out of degree-then-edge order")
        prev = key
        try:
            mask = mask_of(edges, index)
        except KeyError:
            errors.append(f"term {edges} leaves the ground")
            continue
        masks.append(mask)
        total += coeff
        if coeff != sign(mask, mode, size):
            errors.append(f"coefficient {coeff} of {edges} is not (-1)^chi")
    if total != 1:
        errors.append(f"coefficients sum to {total}, not 1")
    if len(set(masks)) != len(masks):
        errors.append("repeated monomial")
    if expected is not None and set(masks) != expected:
        errors.append(
            f"terms differ from the covered set: {len(set(masks) - expected)} extra,"
            f" {len(expected - set(masks))} missing"
        )
    if count is not None and len(masks) != count:
        errors.append(f"{len(masks)} terms, expected {count}")
    return errors[:5]
