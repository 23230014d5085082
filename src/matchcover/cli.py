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
    Family,
    Graph,
    GroundGraph,
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
    MultilinearPolynomial,
    min_weight_pm_polynomial,
    pm_polynomial,
)

COMPLETE_M_CAP = 6
BIPARTITE_LATTICE_CAP = 4
EXHAUSTIVE_VERIFY_CAP = 4
COUNT_COVERED_CAP = 4
# Weighted closures are capped on the width of the optimal support G_w
# instead of on n: 16 edges is what K_{4,4} has, the widest unweighted
# ground the n caps admit.
SUPPORT_EDGE_CAP = 16
# The lattice of K_{4,4}, the largest one built: its down- and up-masks take
# N^2 bits each (7 MB apiece at this N), and the Eulerian check visits every
# comparable pair.
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


def _load_weights(path: str) -> WeightFunction:
    with open(path) as fh:
        return parse_weight_function(fh.read())


def _load_graph(path: str, ground: GroundGraph | None) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read(), ground)


def _check_n(n: int) -> None:
    if n < 1:
        raise InputError(f"--n must be >= 1, got {n}")


def _bipartite_setup(args) -> tuple[GroundGraph, WeightFunction | None]:
    _check_n(args.n)
    ground = bipartite_ground(args.n)
    weights = None
    if getattr(args, "weights", None):
        weights = _load_weights(args.weights)
        if weights.ground != ground:
            raise InputError(
                f"weight file ground {weights.ground.header()} does not match --n {args.n}"
            )
    return ground, weights


def _matchings(
    args, ground: GroundGraph, weights: WeightFunction | None, what: str
) -> Family:
    """All perfect matchings, or the minimum-weight ones when weights are
    given, refused when those span more than SUPPORT_EDGE_CAP edges."""
    if weights is None:
        return enumerate_perfect_matchings(ground.full_graph())
    width = support_union(weights).edge_count
    if width > SUPPORT_EDGE_CAP and not args.unsafe_caps:
        raise CapExceededError(
            f"{what} is capped at {SUPPORT_EDGE_CAP} support edges, the minimum-weight"
            f" matchings span {width} (override with --unsafe-caps)"
        )
    return enumerate_min_weight_pms(weights)


def _parity(count: int) -> str:
    return "even" if count % 2 == 0 else "odd"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_poly(args) -> int:
    ground, weights = _bipartite_setup(args)
    if weights is None:
        poly = pm_polynomial(args.n)
    else:
        poly = min_weight_pm_polynomial(weights)
    text = poly.to_json() if args.format == "json" else poly.to_text()
    _write_output(args, text)
    print(f"terms: {len(poly)} ({_parity(len(poly))})", file=sys.stderr)
    return 0


def cmd_coeff(args) -> int:
    ground, weights = _bipartite_setup(args)
    graph = _load_graph(args.graph, ground)
    coeff = coefficient_query(graph, weights)
    if args.format == "json":
        _write_output(args, json.dumps({"coefficient": coeff}) + "\n")
    else:
        _write_output(args, (f"{coeff:+d}" if coeff else "0") + "\n")
    return 0


def cmd_verify(args) -> int:
    ground, weights = _bipartite_setup(args)
    if args.samples < 1:
        raise InputError("--samples must be >= 1")
    if args.exhaustive and args.n > EXHAUSTIVE_VERIFY_CAP and not args.unsafe_caps:
        raise CapExceededError(
            f"exhaustive verification is capped at n <= {EXHAUSTIVE_VERIFY_CAP}"
            " (override with --unsafe-caps)"
        )
    if weights is None and args.n > EXHAUSTIVE_VERIFY_CAP and not args.unsafe_caps:
        raise CapExceededError(
            f"building the unweighted polynomial is capped at n <= {EXHAUSTIVE_VERIFY_CAP}"
            " (override with --unsafe-caps)"
        )

    if args.check_file:
        with open(args.check_file) as fh:
            poly = MultilinearPolynomial.from_json(fh.read())
        if poly.ground != ground:
            raise InputError(
                f"polynomial ground {poly.ground.header()} does not match --n {args.n}"
            )
    elif weights is None:
        poly = pm_polynomial(args.n)
    else:
        poly = min_weight_pm_polynomial(weights)
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
    _check_n(args.n)
    if args.mode == "complete":
        if args.n % 2:
            raise InputError("complete mode needs an even vertex count")
        if args.n > COMPLETE_M_CAP and not args.unsafe_caps:
            raise CapExceededError(
                f"complete mode is capped at m <= {COMPLETE_M_CAP}"
                " (override with --unsafe-caps)"
            )
        ground = complete_ground(args.n)
        if args.weights:
            raise InputError("--weights applies to bipartite mode only")
        family = enumerate_perfect_matchings(ground.full_graph())
    else:
        if not args.weights and args.n > BIPARTITE_LATTICE_CAP and not args.unsafe_caps:
            raise CapExceededError(
                f"bipartite lattices are capped at n <= {BIPARTITE_LATTICE_CAP}"
                " (override with --unsafe-caps)"
            )
        ground, weights = _bipartite_setup(args)
        family = _matchings(args, ground, weights, "a bipartite lattice")

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
    if not args.weights and args.n > COUNT_COVERED_CAP and not args.unsafe_caps:
        raise CapExceededError(
            f"count-covered is capped at n <= {COUNT_COVERED_CAP}"
            " (override with --unsafe-caps)"
        )
    ground, weights = _bipartite_setup(args)
    family = _matchings(args, ground, weights, "count-covered")
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
