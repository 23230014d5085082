"""The four workloads: seeded inputs, the fixed list of operations of one
pass, and the checks of every output against the reference checkers.

Each `make_<workload>` function writes its input files into the run
directory and returns a Job. A Job holds CLI operations (argv for
`matchcover.cli.main`, the expected exit code and output file) and library
query streams (a list of `coefficient_query` calls under one weighting).
Its `check` takes the outputs of one pass and returns a list of errors.

Inputs that set the amount of work (support shapes, block layouts, query
counts) are fixed; the seed relabels rows and columns, adds dual potentials
and draws the random parts. So every seed asks for the same amount of work
on different inputs.
"""

from __future__ import annotations

import json
import random

import reference as ref

# K_{5,5} zero patterns for `build` (row-major, "0" is weight 0, "1" weight 1):
# (pattern, edges of the optimal support G_w, covered graphs).
BUILD_SHAPES = [
    ("0010000100100100011100110", 14, 159),
    ("0110100110000101000000011", 16, 909),
    ("0101001000100001001010000", 18, 5101),
    ("0000001000010000010100011", 19, 17215),
    ("0010100001000000000001001", 20, 23685),
]
# K_{4,4} zero patterns: the tie-heavy `verify` polynomial and the weighted
# `lattice` reports.
VERIFY_TIE_SHAPE = ("0000000001000001", 14, 909)
LATTICE_SHAPE = ("1000000000001000", 14, 621)
GENERIC_WEIGHTINGS = 1
NEGATE_FROM = 1 << 13  # the negated term is the first with a mask >= this

K6_WITNESS = [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (4, 5), (2, 6), (3, 6), (5, 6)]

# `large`: zero blocks (block sizes) on K_{16,16} and K_{20,20}.
WIDE_LAYOUTS = [
    (16, [3, 2, 2, 2, 2, 2, 1, 1, 1], "text"),  # 32 edges, 49 * 3^5 = 11,907 terms
    (20, [2] * 7 + [1] * 6, "json"),  # 34 edges, 3^7 = 2,187 terms
]
K20_WEIGHTINGS = 3
K20_PLANTED = 4  # planted optimal matchings per K_{20,20} weighting
K20_QUERIES = 400  # queries per K_{20,20} stream (unit weights and each weighting)
K20_COEFF_RUNS = 2  # `coeff` CLI runs per K_{20,20} weighting
K6_WEIGHTINGS = 2
K6_QUERIES = 150
K6_SAMPLES = 2000


class Job:
    def __init__(self, rundir: str):
        self.rundir = rundir
        self.ops: list[dict] = []
        self.checks: list = []

    def write(self, fname: str, text: str) -> str:
        with open(f"{self.rundir}/{fname}", "w") as fh:
            fh.write(text)
        return fname

    def cli(self, name: str, argv: list[str], code: int = 0, fmt: str = "text") -> None:
        out = f"out/{name}.{fmt}"
        self.ops.append(
            {"kind": "cli", "name": name, "argv": argv + ["-o", out], "code": code, "out": out}
        )

    def stream(self, name: str, n: int, weights, queries: list[int]) -> None:
        self.ops.append(
            {"kind": "query", "name": name, "n": n, "weights": weights, "queries": queries}
        )

    def check(self, outputs: dict) -> list[str]:
        errors: list[str] = []
        for check in self.checks:
            errors.extend(check(outputs))
        return errors


# -- input helpers --------------------------------------------------------------

def shuffled_weights(rng: random.Random, pattern: str, potentials: bool) -> list[int]:
    """The pattern with rows and columns permuted, plus u_i + v_j if asked."""
    n = int(len(pattern) ** 0.5)
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    u = [rng.randint(0, 9) if potentials else 0 for _ in range(n)]
    v = [rng.randint(0, 9) if potentials else 0 for _ in range(n)]
    return [
        int(pattern[rows[i] * n + cols[j]]) + u[i] + v[j]
        for i in range(n)
        for j in range(n)
    ]


def weight_file(weights: list[int], n: int) -> str:
    lines = [f"bipartite {n}"]
    lines += [f"{i + 1} {j + 1} {weights[i * n + j]}" for i in range(n) for j in range(n)]
    return "\n".join(lines) + "\n"


def graph_file(mode: str, size: int, mask: int) -> str:
    pairs = ref.ground_pairs(mode, size)
    lines = [f"{mode} {size}"] + [f"{u} {v}" for (u, v) in ref.edges_of(mask, pairs)]
    return "\n".join(lines) + "\n"


def random_pm(rng: random.Random, n: int) -> int:
    perm = rng.sample(range(n), n)
    return sum(1 << (i * n + perm[i]) for i in range(n))


def poly_json(mode: str, size: int, terms: list[tuple[int, int]]) -> str:
    """Polynomial JSON in the documented format, in canonical term order."""
    pairs = ref.ground_pairs(mode, size)
    items = []
    for mask, coeff in sorted(terms, key=lambda t: (bin(t[0]).count("1"), ref.edges_of(t[0], pairs))):
        items.append({"coeff": coeff, "edges": [list(p) for p in ref.edges_of(mask, pairs)]})
    return json.dumps({"ground": {"mode": mode, "size": size}, "terms": items}) + "\n"


def _code(name: str, want: int):
    def check(outputs):
        got = outputs[name]["code"]
        return [] if got == want else [f"{name}: exit code {got}, expected {want}"]
    return check


# -- build ------------------------------------------------------------------------

def check_poly_outputs(name_text: str, name_json: str, n: int, expected: set[int]):
    """Both outputs of one polynomial read back, agreeing, and correct."""
    def check(outputs):
        text_terms = ref.read_poly_text(outputs[name_text]["out"])
        ground, json_terms = ref.read_poly_json(outputs[name_json]["out"])
        errors = []
        if ground != ("bipartite", n):
            errors.append(f"{name_json}: ground {ground}")
        if text_terms != json_terms:
            errors.append(f"{name_text}: text and JSON terms differ")
        errors += [f"{name_text}: {e}" for e in ref.check_polynomial(text_terms, "bipartite", n, expected)]
        for name in (name_text, name_json):
            want = len(text_terms)
            if f"terms: {want} ({'odd' if want % 2 else 'even'})" not in outputs[name]["err"]:
                errors.append(f"{name}: stderr {outputs[name]['err']!r} does not report {want} terms")
        return errors
    return check


def make_build(seed: int, rundir: str) -> Job:
    job = Job(rundir)
    rng = random.Random(f"build-{seed}")
    _, family4 = ref.perm_scan([0] * 16, 4)
    jobs = [("n4", 4, None, ref.covered_set(family4))]
    for k, (pattern, _, _) in enumerate(BUILD_SHAPES):
        weights = shuffled_weights(rng, pattern, potentials=False)
        _, family = ref.perm_scan(weights, 5)
        jobs.append((f"k5w{k}", 5, weights, ref.covered_set(family)))
    for name, n, weights, expected in jobs:
        argv = ["poly", "--n", str(n)]
        if weights is not None:
            argv += ["--weights", job.write(f"{name}.w", weight_file(weights, n))]
        job.cli(f"{name}-text", argv)
        job.cli(f"{name}-json", argv + ["-f", "json"], fmt="json")
        job.checks += [_code(f"{name}-text", 0), _code(f"{name}-json", 0)]
        job.checks.append(check_poly_outputs(f"{name}-text", f"{name}-json", n, expected))
    return job


# -- verify -------------------------------------------------------------------------

def check_verified(name: str, points: int):
    def check(outputs):
        report = json.loads(outputs[name]["out"])
        if report != {"ok": True, "checked": points}:
            return [f"{name}: report {report}, expected ok with {points} checked"]
        return []
    return check


def check_negated(name: str, n: int, family: list[int], corrupted: dict[int, int]):
    """The corrupted polynomial is caught at a point where the brute-force
    oracle and the corrupted polynomial truly disagree."""
    def check(outputs):
        report = json.loads(outputs[name]["out"])
        if report.get("ok") is not False:
            return [f"{name}: report {report}, expected a mismatch"]
        pairs = ref.bipartite_pairs(n)
        index = {p: k for k, p in enumerate(pairs)}
        point = ref.mask_of(ref.read_edge_list(report["assignment"]), index)
        want = ref.oracle(family, point)
        got = ref.evaluate(corrupted, point)
        errors = []
        if want == got:
            errors.append(f"{name}: oracle and corrupted polynomial agree at the witness")
        if (report["oracle"], report["polynomial"]) != (want, got):
            errors.append(f"{name}: reported values {report} differ from {want}, {got}")
        return errors
    return check


def make_verify(seed: int, rundir: str) -> Job:
    job = Job(rundir)
    rng = random.Random(f"verify-{seed}")
    n = 4
    points = 1 << (n * n)

    weights = shuffled_weights(rng, VERIFY_TIE_SHAPE[0], potentials=True)
    _, family = ref.perm_scan(weights, n)
    terms = [(g, ref.sign(g, "bipartite", n)) for g in ref.covered_set(family)]
    wfile = job.write("tie.w", weight_file(weights, n))
    job.write("tie.json", poly_json("bipartite", n, terms))
    base = ["verify", "--n", str(n), "--weights", wfile, "--exhaustive", "-f", "json"]
    job.cli("tie-check-file", base + ["--check-file", "tie.json"], fmt="json")
    job.checks += [_code("tie-check-file", 0), check_verified("tie-check-file", points)]

    for k in range(GENERIC_WEIGHTINGS):
        generic = [rng.randint(1, 99) for _ in range(n * n)]
        gfile = job.write(f"generic{k}.w", weight_file(generic, n))
        name = f"generic{k}"
        job.cli(name, ["verify", "--n", str(n), "--weights", gfile, "--exhaustive", "-f", "json"], fmt="json")
        job.checks += [_code(name, 0), check_verified(name, points)]

    corrupted = dict(terms)
    victim = min(g for g in corrupted if g >= NEGATE_FROM)
    corrupted[victim] = -corrupted[victim]
    job.write("negated.json", poly_json("bipartite", n, list(corrupted.items())))
    job.cli("negated-check-file", base + ["--check-file", "negated.json"], code=1, fmt="json")
    job.checks += [
        _code("negated-check-file", 1),
        check_negated("negated-check-file", n, family, corrupted),
    ]
    return job


# -- lattice ------------------------------------------------------------------------

def check_report(name: str, expect: dict[str, str]):
    def check(outputs):
        report = ref.read_report(outputs[name]["out"])
        return [
            f"{name}: {key} is {report.get(key)!r}, expected {value!r}"
            for key, value in expect.items()
            if report.get(key) != value
        ]
    return check


def check_pentagon(name: str, family: list[int], covered: set[int]):
    """b < a < t, b < c1 < c2 < t, a incomparable to c1 and c2, the join of
    a and c1 is t (union) and the meet of a and c2 is b (the union of the
    family members inside both), all by subset tests."""
    pairs = ref.complete_pairs(6)
    index = {p: k for k, p in enumerate(pairs)}

    def below(x, y):
        return x & ~y == 0 and x != y

    def check(outputs):
        lines = outputs[name]["out"].splitlines()
        start = lines.index("pentagon: found") + 1
        found = {}
        for line in lines[start:start + 5]:
            key, _, value = line.strip().partition(": ")
            found[key] = ref.mask_of(ref.read_edge_list(value), index)
        b, a, c1, c2, t = (found.get(k, -1) for k in ("b", "a", "c1", "c2", "t"))
        meet = 0
        for f in family:
            if f & ~(a & c2) == 0:
                meet |= f
        errors = []
        if not all(x == 0 or x in covered for x in (b, a, c1, c2, t)):
            errors.append(f"{name}: a pentagon graph is not a lattice element")
        if not (below(b, a) and below(a, t) and below(b, c1) and below(c1, c2) and below(c2, t)):
            errors.append(f"{name}: pentagon chains fail")
        if a & ~c1 == 0 or c1 & ~a == 0 or a & ~c2 == 0 or c2 & ~a == 0:
            errors.append(f"{name}: a is comparable to c1 or c2")
        if a | c1 != t or meet != b:
            errors.append(f"{name}: join(a, c1) != t or meet(a, c2) != b")
        return errors
    return check


def check_lattice_json(name: str, n: int, covered: set[int]):
    def check(outputs):
        data = json.loads(outputs[name]["out"])
        pairs = ref.bipartite_pairs(n)
        index = {p: k for k, p in enumerate(pairs)}
        masks = [ref.mask_of(e, index) for e in data["elements"]]
        ranks, mobius = data["ranks"], data["mobius"]
        errors = []
        if len(masks) != len(covered) + 1 or set(masks) != covered | {0}:
            errors.append(f"{name}: {len(masks)} elements, expected {len(covered) + 1}")
        for k, g in enumerate(masks):
            if mobius[k] != (-1) ** ranks[k]:
                errors.append(f"{name}: mobius {mobius[k]} at rank {ranks[k]}")
            want = 0 if g == 0 else ref.chi(g, "bipartite", n) + 1
            if ranks[k] != want:
                errors.append(f"{name}: rank {ranks[k]} of element {k}, expected {want}")
        for a, b in data["covers"]:
            if not (masks[a] & ~masks[b] == 0 and masks[a] != masks[b]):
                errors.append(f"{name}: cover {a} -> {b} is not a strict subset")
            if ranks[b] != ranks[a] + 1:
                errors.append(f"{name}: cover {a} -> {b} skips a rank")
        if data["graded"] is not True:
            errors.append(f"{name}: not graded")
        return errors[:5]
    return check


def check_dot(name: str, covered: set[int]):
    def check(outputs):
        labels = [
            line.split('label="', 1)[1].split('"', 1)[0]
            for line in outputs[name]["out"].splitlines()
            if "[label=" in line
        ]
        if len(labels) != len(covered) + 1:
            return [f"{name}: {len(labels)} nodes, expected {len(covered) + 1}"]
        return []
    return check


def make_lattice(seed: int, rundir: str) -> Job:
    job = Job(rundir)
    rng = random.Random(f"lattice-{seed}")

    k6 = ref.complete_pairs(6)
    k6_family = ref.complete_matchings((1 << len(k6)) - 1, 6)
    k6_covered = ref.covered_set(k6_family)
    witness = job.write("k6-witness.g", graph_file("complete", 6, ref.mask_of(K6_WITNESS, {p: k for k, p in enumerate(k6)})))
    job.cli("k6-report", ["lattice", "--mode", "complete", "--n", "6", "--graph", witness,
                          "--mobius", "--interval", witness, "--find-pentagon"])
    job.checks += [
        _code("k6-report", 0),
        lambda outputs: [] if len(k6_family) == 15 else [f"own scan found {len(k6_family)} K6 matchings"],
        check_report("k6-report", {
            "elements": str(len(k6_covered) + 1), "is-lattice": "true", "graded": "false",
            "eulerian": "false", "mobius": "0", "interval-levels": "1,4,6,3,1",
            "interval-eulerian": "false", "pentagon": "found",
        }),
        check_pentagon("k6-report", k6_family, k6_covered),
    ]

    _, family4 = ref.perm_scan([0] * 16, 4)
    job.cli("n4-json", ["lattice", "--n", "4", "-f", "json"], fmt="json")
    job.checks += [_code("n4-json", 0), check_lattice_json("n4-json", 4, ref.covered_set(family4))]

    weights = shuffled_weights(rng, LATTICE_SHAPE[0], potentials=True)
    wfile = job.write("w4.w", weight_file(weights, 4))
    _, family3 = ref.perm_scan([0] * 9, 3)
    for name, n, extra, family in (("n3", 3, [], family3),
                                   ("w4", 4, ["--weights", wfile], ref.perm_scan(weights, 4)[1])):
        covered = ref.covered_set(family)
        job.cli(f"{name}-text", ["lattice", "--n", str(n)] + extra)
        job.cli(f"{name}-dot", ["lattice", "--n", str(n), "-f", "dot"] + extra, fmt="dot")
        job.checks += [
            _code(f"{name}-text", 0), _code(f"{name}-dot", 0),
            check_report(f"{name}-text", {
                "elements": str(len(covered) + 1), "is-lattice": "true",
                "graded": "true", "eulerian": "true",
            }),
            check_dot(f"{name}-dot", covered),
        ]
    return job


# -- large ----------------------------------------------------------------------------

def planted_weights(rng: random.Random, n: int, zero: int) -> list[int]:
    """Weight 0 on the edges of `zero`, 1..9 elsewhere, plus u_i + v_j."""
    u = [rng.randint(0, 9) for _ in range(n)]
    v = [rng.randint(0, 9) for _ in range(n)]
    return [
        (0 if zero >> (i * n + j) & 1 else rng.randint(1, 9)) + u[i] + v[j]
        for i in range(n)
        for j in range(n)
    ]


def check_stream(name: str, expected: list[int]):
    def check(outputs):
        got = outputs[name]["results"]
        bad = sum(1 for g, w in zip(got, expected) if g != w)
        if bad or len(got) != len(expected):
            return [f"{name}: {bad} of {len(expected)} coefficients wrong"]
        return []
    return check


def check_coeff(name: str, want: int):
    def check(outputs):
        text = outputs[name]["out"].strip()
        wanted = f"{want:+d}" if want else "0"
        return [] if text == wanted else [f"{name}: printed {text!r}, expected {wanted!r}"]
    return check


def check_wide(name: str, n: int, blocks: list[tuple[int, set[int]]], fmt: str):
    """Term count equals the product of the blocks' covered counts, each
    term restricted to a block is covered there, signs are (-1)^chi, and the
    order is canonical."""
    count = 1
    for _, unions in blocks:
        count *= len(unions)

    def check(outputs):
        text = outputs[name]["out"]
        if fmt == "json":
            ground, terms = ref.read_poly_json(text)
            if ground != ("bipartite", n):
                return [f"{name}: ground {ground}"]
        else:
            terms = ref.read_poly_text(text)
        errors = [f"{name}: {e}" for e in ref.check_polynomial(terms, "bipartite", n, None, count)]
        index = {p: k for k, p in enumerate(ref.bipartite_pairs(n))}
        masks = [ref.mask_of(e, index) for _, e in terms]
        for block_mask, unions in blocks:
            if any((m & block_mask) not in unions for m in masks):
                errors.append(f"{name}: a term is not covered inside a block")
                break
        return errors
    return check


def make_large(seed: int, rundir: str) -> Job:
    job = Job(rundir)
    rng = random.Random(f"large-{seed}")
    n = 20

    # Unit weights: unions of random perfect matchings are covered; one
    # perfect matching minus an edge has no perfect matching.
    queries, expected = [], []
    for q in range(K20_QUERIES):
        if q % 4 == 3:
            pm = random_pm(rng, n)
            g = pm & ~(1 << rng.choice([k for k in range(n * n) if pm >> k & 1]))
            queries.append(g)
            expected.append(0)
        else:
            g = 0
            for _ in range(1 << q % 4):  # unions of 1, 2 or 4 matchings
                g |= random_pm(rng, n)
            queries.append(g)
            expected.append(ref.sign(g, "bipartite", n))
    job.stream("k20-unit", n, None, queries)
    job.checks.append(check_stream("k20-unit", expected))

    # Planted weightings: every union of planted matchings is covered; adding
    # an edge of positive reduced weight gives 0.
    for w in range(K20_WEIGHTINGS):
        planted = [random_pm(rng, n) for _ in range(K20_PLANTED)]
        zero = 0
        for pm in planted:
            zero |= pm
        weights = planted_weights(rng, n, zero)
        outside = [k for k in range(n * n) if not zero >> k & 1]
        queries, expected = [], []
        for q in range(K20_QUERIES):
            chosen = [pm for pm in planted if rng.random() < 0.5] or [planted[q % K20_PLANTED]]
            g = 0
            for pm in chosen:
                g |= pm
            if q % 2:
                queries.append(g | 1 << rng.choice(outside))
                expected.append(0)
            else:
                queries.append(g)
                expected.append(ref.sign(g, "bipartite", n))
        name = f"k20-w{w}"
        job.stream(name, n, weights, queries)
        job.checks.append(check_stream(name, expected))
        wfile = job.write(f"{name}.w", weight_file(weights, n))
        for c in range(K20_COEFF_RUNS):
            gfile = job.write(f"{name}-q{c}.g", graph_file("bipartite", n, queries[c]))
            cname = f"{name}-coeff{c}"
            job.cli(cname, ["coeff", "--n", str(n), "--weights", wfile, "--graph", gfile])
            job.checks += [_code(cname, 0), check_coeff(cname, expected[c])]

    # K_{6,6}: queries checked against the permutation scan; sampled verify.
    n6 = 6
    for w in range(K6_WEIGHTINGS):
        zero = random_pm(rng, n6) | random_pm(rng, n6) | random_pm(rng, n6)
        weights = planted_weights(rng, n6, zero)
        _, family = ref.perm_scan(weights, n6)
        covered = ref.covered_set(family)
        queries = []
        for q in range(K6_QUERIES):
            if q % 3 == 0:
                g = 0
                for f in family:
                    if rng.random() < 0.5:
                        g |= f
            elif q % 3 == 1:
                g = zero & rng.getrandbits(n6 * n6)
            else:
                g = rng.getrandbits(n6 * n6)
            queries.append(g)
        expected = [ref.sign(g, "bipartite", n6) if g in covered else 0 for g in queries]
        name = f"k6-w{w}"
        job.stream(name, n6, weights, queries)
        job.checks.append(check_stream(name, expected))
        wfile = job.write(f"{name}.w", weight_file(weights, n6))
        vname = f"{name}-sampled"
        job.cli(vname, ["verify", "--n", str(n6), "--weights", wfile, "--samples",
                        str(K6_SAMPLES), "--seed", str(rng.randint(0, 10**6)), "-f", "json"], fmt="json")
        job.checks += [_code(vname, 0), check_verified(vname, K6_SAMPLES)]

    # Wide supports: zero blocks, shuffled, with potentials.
    for k, (size, sizes, fmt) in enumerate(WIDE_LAYOUTS):
        rows = rng.sample(range(size), size)
        cols = rng.sample(range(size), size)
        zero, blocks, r = 0, [], 0
        for s in sizes:
            _, local = ref.perm_scan([0] * (s * s), s)
            family = [
                sum(1 << (rows[r + a] * size + cols[r + b])
                    for a in range(s) for b in range(s) if f >> (a * s + b) & 1)
                for f in local
            ]
            unions = ref.unions(family)
            block_mask = max(unions)
            zero |= block_mask
            blocks.append((block_mask, unions))
            r += s
        weights = planted_weights(rng, size, zero)
        wfile = job.write(f"wide{k}.w", weight_file(weights, size))
        name = f"wide{k}-{fmt}"
        argv = ["poly", "--n", str(size), "--weights", wfile]
        job.cli(name, argv + (["-f", "json"] if fmt == "json" else []), fmt=fmt)
        job.checks += [_code(name, 0), check_wide(name, size, blocks, fmt)]
    return job


WORKLOADS = {
    "build": make_build,
    "verify": make_verify,
    "lattice": make_lattice,
    "large": make_large,
}
