"""Command-line front end.

Subcommands map onto the library one-to-one and write deterministic output:
identical arguments (and seed) produce byte-identical files. Exit codes:
0 success, 1 a verification found a mismatch, 2 bad input, 3 an internal
error (any other exception, such as running out of memory). Output is built
in memory and written once, so error paths never leave partial files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .errors import CapExceededError, InfeasibleError, InputError
from .covered import coefficient_query, covered_closure
from .graphs import (
    BIPARTITE,
    Family,
    Graph,
    GroundGraph,
    _content_lines,
    _parse_header,
    bipartite_ground,
    complete_ground,
    edge_list_str,
    parse_graph,
)
from .lattice import build_lattice
from .matching import (
    WeightFunction,
    contains_min_weight_pm,
    enumerate_min_weight_pms,
    enumerate_perfect_matchings,
    has_perfect_matching,
    parse_weight_function,
    support_union,
)
from .polynomial import (
    EDGE_CAP,
    MultilinearPolynomial,
    _json_data,
    _json_ground,
    min_weight_pm_polynomial,
    pm_polynomial,
)

# The lattice of K_{4,4}, the largest one built: its down- and up-masks take
# N^2 bits each (7 MB apiece at this N), and the Eulerian check counts an
# interval for every comparable pair of equal rank parity (255,000 at this N).
LATTICE_ELEMENT_CAP = 7444


def _write_output(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(args, msg: str) -> None:
    if args.verbose:
        print(msg, file=sys.stderr)


def _cap(args, width: int, what: str) -> None:
    """Refuse exhaustive work over more than EDGE_CAP edges: the ground's
    edges for exhaustive verification and unweighted runs, the support G_w
    of the minimum-weight matchings for weighted ones. Callers compute the
    width before building anything of that size."""
    if width > EDGE_CAP and not args.unsafe_caps:
        raise CapExceededError(
            f"{what} is capped at {EDGE_CAP} support edges, this one has {width}"
            " (override with --unsafe-caps)"
        )


# Input files are compared with --n from their headers, before a ground of
# either size is built.

def _load_weights(args) -> WeightFunction | None:
    if not getattr(args, "weights", None):
        return None
    with open(args.weights) as fh:
        weights = parse_weight_function(fh.read())  # builds only its own ground
    if weights.ground.size != args.n:
        raise InputError(
            f"weight file ground {weights.ground.header()} does not match --n {args.n}"
        )
    return weights


def _load_query_graph(args, weights: WeightFunction | None) -> Graph:
    with open(args.graph) as fh:
        text = fh.read()
    lines = _content_lines(text)
    if lines:  # parse_graph refuses an empty file
        mode, size = _parse_header(lines[0][1])
        if (mode, size) != (BIPARTITE, args.n):
            raise InputError(
                f"graph ground {mode} {size} does not match {BIPARTITE} {args.n}"
            )
    ground = bipartite_ground(args.n) if weights is None else weights.ground
    return parse_graph(text, ground)


def _load_polynomial(args) -> MultilinearPolynomial:
    with open(args.check_file) as fh:
        data = _json_data(fh.read())
    mode, size = _json_ground(data)
    if (mode, size) != (BIPARTITE, args.n):
        raise InputError(f"polynomial ground {mode} {size} does not match --n {args.n}")
    return MultilinearPolynomial.from_json_dict(data, bipartite_ground(args.n))


def _load_graph(path: str, ground: GroundGraph) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read(), ground)


def _matchings(args, weights: WeightFunction | None, what: str) -> Family:
    """All perfect matchings of K_{n,n}, or the minimum-weight ones when
    weights are given, refused past EDGE_CAP edges."""
    if weights is None:
        _cap(args, args.n * args.n, what)
        return enumerate_perfect_matchings(bipartite_ground(args.n).full_graph())
    _cap(args, support_union(weights).edge_count, what)
    return enumerate_min_weight_pms(weights)


def _parity(count: int) -> str:
    return "even" if count % 2 == 0 else "odd"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_poly(args) -> int:
    weights = _load_weights(args)
    if weights is None:
        poly = pm_polynomial(args.n)
    else:
        poly = min_weight_pm_polynomial(weights)
    text = poly.to_json() if args.format == "json" else poly.to_text()
    _write_output(args, text)
    print(f"terms: {len(poly)} ({_parity(len(poly))})", file=sys.stderr)
    return 0


def cmd_coeff(args) -> int:
    weights = _load_weights(args)
    graph = _load_query_graph(args, weights)
    coeff = coefficient_query(graph, weights)
    if args.format == "json":
        _write_output(args, json.dumps({"coefficient": coeff}) + "\n")
    else:
        _write_output(args, (f"{coeff:+d}" if coeff else "0") + "\n")
    return 0


def cmd_verify(args) -> int:
    weights = _load_weights(args)
    if args.samples < 1:
        raise InputError("--samples must be >= 1")
    if args.exhaustive:
        _cap(args, args.n * args.n, "exhaustive verification")
    elif weights is None:
        _cap(args, args.n * args.n, "unweighted verification")

    if args.check_file:
        poly = _load_polynomial(args)
    elif weights is None:
        poly = pm_polynomial(args.n)
    else:
        poly = min_weight_pm_polynomial(weights)
    ground = poly.ground
    _note(args, f"polynomial has {len(poly)} terms")

    if weights is None:
        def oracle(mask: int) -> int:
            return int(has_perfect_matching(Graph(ground, mask)))
    else:
        def oracle(mask: int) -> int:
            return int(contains_min_weight_pm(Graph(ground, mask), weights))

    if args.exhaustive:
        points = range(1 << ground.edge_count)
    else:
        rng = random.Random(args.seed)
        points = [rng.getrandbits(ground.edge_count) for _ in range(args.samples)]

    values = poly.value_table()  # None on wide grounds and huge coefficients
    checked = 0
    for mask in points:
        got = poly.evaluate(mask) if values is None else int(values[mask])
        want = oracle(mask)
        if got != want:
            witness = edge_list_str(Graph(ground, mask))
            if args.format == "json":
                report = {
                    "ok": False,
                    "assignment": witness,
                    "polynomial": got,
                    "oracle": want,
                }
                _write_output(args, json.dumps(report) + "\n")
            else:
                _write_output(
                    args,
                    f"MISMATCH at assignment {witness}:"
                    f" polynomial {got}, oracle {want}\n",
                )
            return 1
        checked += 1
    if args.format == "json":
        _write_output(args, json.dumps({"ok": True, "checked": checked}) + "\n")
    else:
        _write_output(args, f"verified {checked} assignments: OK\n")
    return 0


def cmd_lattice(args) -> int:
    if args.mode == "complete":
        if args.n % 2:
            raise InputError("complete mode needs an even vertex count")
        _cap(args, args.n * (args.n - 1) // 2, "complete mode")
        if args.weights:
            raise InputError("--weights applies to bipartite mode only")
        family = enumerate_perfect_matchings(complete_ground(args.n).full_graph())
    else:
        family = _matchings(args, _load_weights(args), "a bipartite lattice")
    ground = family.ground

    _note(args, f"family has {len(family)} matchings")
    cov = covered_closure(family)
    _note(args, f"covered set has {len(cov)} graphs")
    if len(cov) + 1 > LATTICE_ELEMENT_CAP and not args.unsafe_caps:
        raise CapExceededError(
            f"lattices are capped at {LATTICE_ELEMENT_CAP} elements, this one has"
            f" {len(cov) + 1} (override with --unsafe-caps)"
        )
    lat = build_lattice(cov)

    if args.format == "dot":
        _write_output(args, lat.to_dot())
        return 0
    if args.format == "json":
        _write_output(args, lat.to_json())
        return 0

    lines = [f"elements: {len(lat)}"]
    lines.append(f"is-lattice: {str(lat.is_lattice()).lower()}")
    labels = lat.rank_labels()
    lines.append(f"graded: {str(labels.graded).lower()}")
    if not labels.graded:
        lo, hi = labels.violation
        lines.append(
            f"not-graded-witness: {edge_list_str(lo)} -> {edge_list_str(hi)}"
        )
    check = lat.eulerian_check()
    lines.append(f"eulerian: {str(check.eulerian).lower()}")
    if not check.eulerian:
        lines.append(f"eulerian-reason: {check.reason}")

    if args.graph:
        element = _load_graph(args.graph, ground)
        if element not in lat:
            raise InputError(
                f"graph {edge_list_str(element)} is not an element of this lattice"
            )
        if args.mobius:
            lines.append(f"mobius: {lat.mobius(element)}")
        lines.append(f"rank: {labels.ranks[element]}")
    if args.interval:
        upper = _load_graph(args.interval, ground)
        sub = lat.interval(lat.bottom, upper)
        lines.append(f"interval-elements: {len(sub)}")
        lines.append(
            "interval-levels: " + ",".join(str(c) for c in sub.level_counts())
        )
        sub_check = sub.eulerian_check()
        lines.append(f"interval-eulerian: {str(sub_check.eulerian).lower()}")
    if args.find_pentagon:
        pentagon = lat.find_pentagon()
        if pentagon is None:
            lines.append("pentagon: none")
        else:
            names = ("b", "a", "c1", "c2", "t")
            lines.append("pentagon: found")
            for name, g in zip(names, pentagon):
                lines.append(f"  {name}: {edge_list_str(g)}")

    _write_output(args, "\n".join(lines) + "\n")
    return 0


def cmd_count_covered(args) -> int:
    family = _matchings(args, _load_weights(args), "count-covered")
    cov = covered_closure(family)
    count = len(cov)
    if args.format == "json":
        _write_output(
            args, json.dumps({"count": count, "parity": _parity(count)}) + "\n"
        )
    else:
        _write_output(args, f"count: {count}\nparity: {_parity(count)}\n")
    return 0 if count % 2 else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub, formats=("text", "json")) -> None:
    sub.add_argument("--output", "-o", help="write to a file instead of stdout")
    sub.add_argument(
        "--format", "-f", choices=formats, default="text", help="output format"
    )
    sub.add_argument("--verbose", "-v", action="store_true", help="progress to stderr")
    sub.add_argument(
        "--unsafe-caps",
        action="store_true",
        help="lift the safety caps on exponential-size computations",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcover",
        description=(
            "Membership polynomials for (minimum-weight) perfect matchings and"
            " the lattice of covered subgraphs."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("poly", help="emit a membership polynomial")
    p.add_argument("--n", type=int, required=True, help="bipartite ground size")
    p.add_argument("--weights", help="weight file (min-weight matchings)")
    _add_common(p)
    p.set_defaults(func=cmd_poly)

    p = subs.add_parser("coeff", help="coefficient of one monomial, no enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", help="weight file (unit weights if omitted)")
    p.add_argument("--graph", required=True, help="graph file naming the monomial")
    _add_common(p)
    p.set_defaults(func=cmd_coeff)

    p = subs.add_parser("verify", help="compare a polynomial against the oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights")
    p.add_argument("--exhaustive", action="store_true", help="all 2^(n^2) assignments")
    p.add_argument("--samples", type=int, default=1000, help="sampled assignments")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--check-file", help="verify this polynomial JSON instead")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("lattice", help="build and report on a covered-graph lattice")
    p.add_argument(
        "--mode", choices=("bipartite", "complete"), default="bipartite"
    )
    p.add_argument("--n", type=int, required=True, help="n for K_{n,n}, m for K_m")
    p.add_argument("--weights", help="weight file (bipartite only)")
    p.add_argument("--graph", help="graph file naming a lattice element")
    p.add_argument("--mobius", action="store_true", help="print mu(bottom, --graph)")
    p.add_argument("--interval", help="graph file: report on [bottom, graph]")
    p.add_argument("--find-pentagon", action="store_true")
    _add_common(p, formats=("text", "json", "dot"))
    p.set_defaults(func=cmd_lattice)

    p = subs.add_parser("count-covered", help="count covered subgraphs, check parity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights")
    _add_common(p)
    p.set_defaults(func=cmd_count_covered)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.n < 1:  # every subcommand takes --n
            raise InputError(f"--n must be >= 1, got {args.n}")
        return args.func(args)
    except (InputError, CapExceededError, InfeasibleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 must keep meaning "verification failed"
        detail = f": {exc}" if str(exc) else ""
        print(f"error: internal {type(exc).__name__}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
