"""Self-tests of the reference checkers: each accepts a correct output and
rejects a corrupted one (a flipped sign, a dropped term, a wrong count).

Usage: python3 perfbench/selftest.py    (exits 1 on the first failure)

Runs without matchcover; the correct outputs are written here by hand or by
the reference itself.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

POLY2_TEXT = "+1 x[1,1] x[2,2]\n+1 x[1,2] x[2,1]\n-1 x[1,1] x[1,2] x[2,1] x[2,2]\n"
CASES = 0


def expect(condition: bool, what: str) -> None:
    global CASES
    CASES += 1
    if not condition:
        raise SystemExit(f"selftest failed: {what}")


def poly2_json(terms_text: str) -> str:
    terms = ref.read_poly_text(terms_text)
    return json.dumps({
        "ground": {"mode": "bipartite", "size": 2},
        "terms": [{"coeff": c, "edges": [list(e) for e in edges]} for c, edges in terms],
    })


def test_primitives() -> None:
    expect(ref.chi(0b1111, "bipartite", 2) == 1, "chi of K_{2,2} is 1")
    expect(ref.chi(0b1001, "bipartite", 2) == 0, "chi of a matching is 0")
    expect(len(ref.perm_scan([0] * 9, 3)[1]) == 6, "K_{3,3} has 6 perfect matchings")
    expect(ref.perm_scan([1, 2, 2, 1], 2) == (2, [0b1001]), "weighted K_{2,2} optimum")
    k6 = ref.complete_matchings((1 << 15) - 1, 6)
    expect(len(k6) == 15, "K6 has 15 perfect matchings")
    _, family3 = ref.perm_scan([0] * 9, 3)
    expect(ref.covered_set(family3) == ref.unions(family3), "transform matches brute force")
    expect(len(ref.covered_set(family3)) == 49, "K_{3,3} has 49 covered graphs")
    expect(len(ref.unions(ref.perm_scan([0] * 4, 2)[1])) == 3, "K_{2,2} has 3 covered graphs")
    expect(len(ref.covered_set(k6)) == 3263, "K6 has 3263 covered graphs")
    expect(ref.oracle([0b1001], 0b1011) == 1 and ref.oracle([0b1001], 0b0011) == 0, "oracle")
    expect(ref.read_edge_list("1,2 3,4") == ((1, 2), (3, 4)), "edge list reader")


def test_polynomial_checks() -> None:
    _, family = ref.perm_scan([0] * 4, 2)
    covered = ref.covered_set(family)
    check = wl.check_poly_outputs("t", "j", 2, covered)

    def outputs(text, json_text=None):
        n = len(text.splitlines())
        err = f"terms: {n} ({'odd' if n % 2 else 'even'})\n"
        return {"t": {"out": text, "err": err},
                "j": {"out": json_text or poly2_json(text), "err": err}}

    expect(check(outputs(POLY2_TEXT)) == [], "correct K_{2,2} polynomial passes")
    flipped = POLY2_TEXT.replace("-1 x[1,1]", "+1 x[1,1]")
    expect(check(outputs(flipped)) != [], "flipped sign is rejected")
    dropped = "".join(POLY2_TEXT.splitlines(keepends=True)[:2])
    expect(check(outputs(dropped)) != [], "dropped term is rejected")
    swapped = "".join(POLY2_TEXT.splitlines(keepends=True)[i] for i in (1, 0, 2))
    expect(check(outputs(swapped)) != [], "terms out of order are rejected")
    expect(check(outputs(POLY2_TEXT, poly2_json(flipped))) != [], "text/JSON disagreement")
    wrong_err = outputs(POLY2_TEXT)
    wrong_err["t"]["err"] = "terms: 5 (odd)\n"
    expect(check(wrong_err) != [], "wrong reported term count is rejected")


def test_wide_check() -> None:
    # Two 1x1 blocks and one 2x2 block on K_{4,4}: 3 terms.
    n = 4
    blocks = []
    for rows, cols in (([0], [0]), ([1], [1]), ([2, 3], [2, 3])):
        local = ref.perm_scan([0] * (len(rows) ** 2), len(rows))[1]
        s = len(rows)
        family = [sum(1 << (rows[a] * n + cols[b]) for a in range(s) for b in range(s)
                      if f >> (a * s + b) & 1) for f in local]
        blocks.append((max(ref.unions(family)), ref.unions(family)))
    family = []
    for f in ref.perm_scan([0] * 4, 2)[1]:
        rows, cols = [2, 3], [2, 3]
        family.append(1 | 1 << 5 | sum(1 << (rows[a] * n + cols[b]) for a in range(2)
                                        for b in range(2) if f >> (a * 2 + b) & 1))
    pairs = ref.bipartite_pairs(n)
    terms = sorted(ref.covered_set(family), key=lambda m: (bin(m).count("1"), ref.edges_of(m, pairs)))
    text = "".join(
        f"{ref.sign(m, 'bipartite', n):+d} "
        + " ".join(f"x[{i},{j}]" for i, j in ref.edges_of(m, pairs)) + "\n"
        for m in terms
    )
    check = wl.check_wide("w", n, blocks, "text")
    expect(check({"w": {"out": text}}) == [], "correct block polynomial passes")
    expect(check({"w": {"out": "".join(text.splitlines(keepends=True)[:2])}}) != [],
           "a wrong term count is rejected")
    expect(check({"w": {"out": text.replace("+1", "-1", 1)}}) != [], "a flipped sign is rejected")


def test_verify_checks() -> None:
    ok = json.dumps({"ok": True, "checked": 16})
    expect(wl.check_verified("v", 16)({"v": {"out": ok}}) == [], "honest report passes")
    expect(wl.check_verified("v", 512)({"v": {"out": ok}}) != [], "wrong checked count")
    family = [0b1001, 0b0110]
    corrupted = {0b1001: -1, 0b0110: 1, 0b1111: -1}
    check = wl.check_negated("x", 2, family, corrupted)
    good = {"ok": False, "assignment": "1,1 2,2", "polynomial": -1, "oracle": 1}
    expect(check({"x": {"out": json.dumps(good)}}) == [], "a true witness passes")
    bad = {"ok": False, "assignment": "1,2 2,1", "polynomial": 0, "oracle": 1}
    expect(check({"x": {"out": json.dumps(bad)}}) != [], "a witness where both agree")


def test_lattice_checks() -> None:
    _, family = ref.perm_scan([0] * 4, 2)
    covered = ref.covered_set(family)
    data = {
        "elements": [[], [[1, 1], [2, 2]], [[1, 2], [2, 1]], [[1, 1], [1, 2], [2, 1], [2, 2]]],
        "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
        "mobius": [1, -1, -1, 1], "ranks": [0, 1, 1, 2], "graded": True,
    }
    check = wl.check_lattice_json("l", 2, covered)
    expect(check({"l": {"out": json.dumps(data)}}) == [], "correct lattice JSON passes")
    expect(check({"l": {"out": json.dumps(dict(data, mobius=[1, -1, 1, 1]))}}) != [],
           "a flipped Mobius number is rejected")
    expect(check({"l": {"out": json.dumps(dict(data, covers=[[0, 3]]))}}) != [],
           "a cover that skips a rank is rejected")
    dropped = dict(data, elements=data["elements"][:3], mobius=data["mobius"][:3],
                   ranks=data["ranks"][:3], covers=data["covers"][:2])
    expect(check({"l": {"out": json.dumps(dropped)}}) != [], "a dropped element is rejected")
    report = wl.check_report("r", {"elements": "4", "graded": "true"})
    expect(report({"r": {"out": "elements: 4\ngraded: true\n"}}) == [], "report passes")
    expect(report({"r": {"out": "elements: 5\ngraded: true\n"}}) != [], "a wrong element count")
    dot = "\n".join(f'  n{k} [label="x"];' for k in range(3))
    expect(wl.check_dot("d", covered)({"d": {"out": dot}}) != [], "a dot file missing a node")


def test_pentagon_check() -> None:
    k6 = ref.complete_matchings((1 << 15) - 1, 6)
    covered = ref.covered_set(k6)
    report = (
        "pentagon: found\n  b: {}\n  a: 1,2 3,4 5,6\n  c1: 1,3 1,4 2,5 2,6 3,5 4,6\n"
        "  c2: 1,2 1,3 1,4 2,5 2,6 3,5 4,6\n  t: 1,2 1,3 1,4 2,5 2,6 3,4 3,5 4,6 5,6\n"
    )
    check = wl.check_pentagon("p", k6, covered)
    expect(check({"p": {"out": report}}) == [], "the K6 pentagon passes")
    expect(check({"p": {"out": report.replace("  t: 1,2 ", "  t: ")}}) != [],
           "a wrong top is rejected")


def test_stream_check() -> None:
    check = wl.check_stream("q", [1, -1, 0])
    expect(check({"q": {"results": [1, -1, 0]}}) == [], "right coefficients pass")
    expect(check({"q": {"results": [1, 1, 0]}}) != [], "a flipped coefficient is rejected")
    expect(check({"q": {"results": [1, -1]}}) != [], "a dropped query is rejected")


def test_metric_names() -> None:
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as fh:
            bench = json.load(fh)
        names = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        expect(names == list(spans.LAYER_METRICS), "BENCHMARK.json per_layer matches spans")
        expect(sorted(w["name"] for w in bench["workloads"]) == sorted(wl.WORKLOADS),
               "BENCHMARK.json workloads match")


def main() -> int:
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
    print(f"selftest: {CASES} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
