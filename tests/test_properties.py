"""Hypothesis properties: the parsers return a result or raise InputError on
any input, refuse a header naming a huge ground without allocating for it,
and Euler's relation holds for every weighting.

Parser inputs are well-formed files on grounds of size at most 6 with a few
parts garbled, mostly parsed against the ground their header names, so that
most draws get past the first checks and reach the later ones; a share of
them is unstructured text.
"""

import json
import tracemalloc

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from matchcover import (
    Graph,
    InputError,
    MultilinearPolynomial,
    WeightFunction,
    bipartite_ground,
    complete_ground,
    min_weight_pm_polynomial,
    parse_graph,
    parse_weight_function,
)

PARSER_EXAMPLES = settings(max_examples=300)
# what the formats are made of, and characters that str.split() or int()
# treat unlike ASCII (a no-break space, an Arabic-Indic digit)
ALPHABET = "0123456789 \t\n/#-.:,[]{}\"bipartitecomplex\u00a0\u0663"


def texts(most):
    return st.text(alphabet=ALPHABET, max_size=most)


TOKENS = st.one_of(
    st.integers(-1, 7).map(str),
    st.sampled_from(["1/2", "3/0", "x", "1.5", "2/3/4", "#", "nan", "", "bipartite"]),
    st.integers(4301, 4400).map(lambda k: "9" * k),  # past what int() converts
    texts(6),
)
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 8), st.floats(), texts(4),
        st.lists(st.integers(-1, 7), max_size=3),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(texts(4), inner, max_size=3)),
    max_leaves=8,
)


def returns_or_refuses(call, kind):
    try:
        result = call()
    except InputError:
        return
    assert isinstance(result, kind)


@st.composite
def garbled_lines(draw, header, rows):
    """header and rows (lists of fields) as file text, after a few fields
    are replaced by tokens and a few lines dropped, duplicated or inserted."""
    rows = [list(r) for r in rows]
    for r, f, token in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 3), TOKENS),
                                     max_size=2)):
        if rows:
            row = rows[r % len(rows)]
            row[f % len(row)] = token
    lines = [" ".join(r) for r in rows]
    for op, k in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 99)), max_size=2)):
        if op == 0 and lines:
            lines.pop(k % len(lines))
        elif op == 1 and lines:
            lines.append(lines[k % len(lines)])
        else:
            lines.insert(k % (len(lines) + 1), " ".join(draw(st.lists(TOKENS, max_size=4))))
    return "\n".join([header] + lines)


def edge_lists(ground, most):
    pairs = ground.edge_pairs()  # complete 1 has none
    return st.lists(st.sampled_from(pairs), max_size=most) if pairs else st.just([])


GROUNDS = st.one_of(
    st.integers(1, 6).map(bipartite_ground),
    st.integers(1, 6).map(complete_ground),
)


@st.composite
def expected_ground(draw, ground):
    """The ground a file names in three draws of four, another one else."""
    return draw(st.one_of(st.just(ground), st.just(ground), st.just(ground), GROUNDS))


@st.composite
def graph_inputs(draw):
    ground = draw(GROUNDS)
    pairs = draw(edge_lists(ground, 8))
    text = draw(garbled_lines(ground.header(), [(str(u), str(v)) for u, v in pairs]))
    return text, draw(expected_ground(ground))


@PARSER_EXAMPLES
@given(args=st.one_of(graph_inputs(), st.tuples(texts(60), GROUNDS)))
def test_parse_graph_returns_or_refuses(args):
    text, ground = args
    returns_or_refuses(lambda: parse_graph(text, ground), Graph)


@st.composite
def weight_texts(draw):
    n = draw(st.integers(1, 3))
    weight = st.one_of(*[st.integers(0, 9).map(str)] * 3, TOKENS)  # a token in one draw of four
    rows = [(str(i), str(j), draw(weight)) for i in range(1, n + 1) for j in range(1, n + 1)]
    return draw(garbled_lines(f"bipartite {n}", draw(st.permutations(rows))))


@PARSER_EXAMPLES
@given(text=st.one_of(weight_texts(), texts(60)))
def test_parse_weight_function_returns_or_refuses(text):
    returns_or_refuses(lambda: parse_weight_function(text), WeightFunction)


def _slots(node):
    """Every (container, key) of a decoded JSON tree."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def polynomial_inputs(draw):
    ground = draw(GROUNDS)
    terms = [
        {"coeff": draw(st.integers(-2, 2)),
         "edges": [list(p) for p in draw(edge_lists(ground, 4))]}
        for _ in range(draw(st.integers(0, 4)))
    ]
    data = {"ground": {"mode": ground.mode, "size": ground.size}, "terms": terms}
    for _ in range(draw(st.integers(0, 2))):
        slots = list(_slots(data))
        node, key = slots[draw(st.integers(0, len(slots) - 1))]
        node[key] = draw(JSON_VALUES)
    return json.dumps(data), draw(expected_ground(ground))


@PARSER_EXAMPLES
@given(args=st.one_of(
    polynomial_inputs(),
    st.tuples(
        st.integers(4301, 4400).map(lambda k: '{"ground": {"mode": "bipartite", "size": 1},'
                                              ' "terms": [{"coeff": ' + "1" * k
                                              + ', "edges": [[1, 1]]}]}'),
        st.just(bipartite_ground(1)),
    ),
    st.tuples(texts(40), GROUNDS),
))
def test_polynomial_from_json_returns_or_refuses(args):
    text, ground = args
    returns_or_refuses(
        lambda: MultilinearPolynomial.from_json(text, ground), MultilinearPolynomial
    )


@settings(max_examples=60)
@given(
    mode=st.sampled_from(["bipartite", "complete"]),
    size=st.integers(600, 10**12),
    ground=GROUNDS,
)
def test_huge_headers_are_refused_before_allocating(mode, size, ground):
    # building K_{600,600} alone takes about 142 MB; a refusal builds nothing
    graph = f"{mode} {size}\n1 2\n"
    poly = json.dumps({"ground": {"mode": mode, "size": size}, "terms": []})
    for call in (
        lambda: parse_graph(graph, ground),
        lambda: MultilinearPolynomial.from_json(poly, ground),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(InputError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@given(data=st.data())
def test_euler_relation_for_every_weighting(data):
    # The minimum-weight covered graphs are the faces of the optimal face of
    # the Birkhoff polytope, signed (-1)^dim: the alternating face count is 1,
    # which is p(K_{n,n}) = 1, and it makes the term count odd.
    n = data.draw(st.integers(1, 4))
    weights = data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    poly = min_weight_pm_polynomial(WeightFunction(bipartite_ground(n), weights))
    assert sum(poly.terms.values()) == 1
    assert len(poly) % 2 == 1
