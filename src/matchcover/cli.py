"""Command-line front end.

Subcommands map onto the library one-to-one and write deterministic output:
identical arguments (and seed) produce byte-identical files. Exit codes:
0 success, 1 a verification found a mismatch, 2 bad input, 3 an internal
error (any other exception, such as running out of memory). Input is
checked and results are computed before any output is written; an output
file is written under a temporary name next to it and renamed over it once
it is complete, so no error leaves a partial file. stdout gets long outputs
(polynomials, lattice JSON and DOT) chunk by chunk as they are formatted.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import os
import random
import stat
import sys
from math import prod
from typing import Callable, Iterator

import numpy as np

from .errors import CapExceededError, InputError
from .covered import CoveredSet, coefficient_query, covered_closure
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
    _has_perfect_matchings,
    contains_min_weight_pm,
    enumerate_min_weight_pms,  # unused here; perfbench/spans.py wraps this name
    enumerate_perfect_matchings,
    has_perfect_matching,
    parse_weight_function,
    support_union,
)
from .polynomial import (
    MultilinearPolynomial,
    _multiply_blocks,
    _pm_family_polynomial,
    _split,
    min_weight_pm_polynomial,
    pm_polynomial,
)
from .subsets import DENSE_BIT_CAP

# The lattice of K_{4,4}, the largest one built: its down- and up-masks take
# N^2 bits each (7 MB apiece at this N), and the Eulerian check counts an
# interval for every comparable pair of equal rank parity (255,000 at this N).
LATTICE_ELEMENT_CAP = 7444

# Points per step of `verify`. Its int64 arrays then take 64 KB, below the
# 128 KB from which glibc's malloc maps each block on its own; 2^14 points
# measured 0.5 MB more peak RSS on a weighted `verify --n 4 --exhaustive`.
_VERIFY_CHUNK = 1 << 13


def _write_output(args, text: str) -> None:
    _stream_output(args, lambda fh: fh.write(text))


def _stream_output(args, write) -> None:
    """Output of a writer, which writes its text into the file passed to it
    (and returns the text when called without one). stdout gets the text as
    it is formatted, and so does an --output that names the file stdout
    already is (/dev/stdout, or the file stdout is redirected to). An
    --output that exists but is no regular file (a pipe, a FIFO, a device)
    is written in place. Any other --output gets the text through a new
    temporary file in the same directory (the first free name of
    target.PID.tmp, target.PID.1.tmp, ...), renamed over the target at the
    end (keeping an old target's permission bits) and removed on error."""
    st = None
    if args.output:
        try:
            st = os.stat(args.output)  # through symlinks and /dev/fd links
        except FileNotFoundError:
            pass
    if not args.output or (st is not None and _is_stdout(st)):
        write(sys.stdout)
        return
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(args.output, "w") as fh:
            write(fh)
        return
    if st is not None and not os.access(args.output, os.W_OK):  # as open() would
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), args.output)
    target = os.path.realpath(args.output)  # replace the file a symlink names
    stem = f"{target}.{os.getpid()}"
    for attempt in itertools.count():
        # a name left by an earlier run of this pid is passed over, not
        # reused; open(..., "x") creates with 0o666 & ~umask, as open(..., "w")
        temp = f"{stem}.{attempt}.tmp" if attempt else f"{stem}.tmp"
        try:
            fh = open(temp, "x")
            break
        except FileExistsError:
            continue
        except OSError as exc:  # name the output, not the temporary file
            raise OSError(exc.errno, exc.strerror, args.output) from None
    try:
        with fh:
            if st is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            write(fh)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _is_stdout(st: os.stat_result) -> bool:
    try:
        return os.path.samestat(st, os.fstat(1))
    except OSError:  # no descriptor 1
        return False


def _report(args, data: dict, text: str, code: int = 0) -> int:
    """Write a short result, as the JSON of data or as text, and return the
    exit code."""
    _write_output(args, (json.dumps(data) if args.format == "json" else text) + "\n")
    return code


def _note(args, msg: str) -> None:
    if args.verbose:
        print(msg, file=sys.stderr)


def _cap(args, width: int, what: str) -> None:
    """Refuse exhaustive work over more than DENSE_BIT_CAP edges, the widest
    table of all subsets that a run builds: the ground's edges for
    exhaustive verification and in complete mode, or the widest block of a
    support (K_{n,n} is one) for work done block by block. Callers compute
    the width before building anything of that size."""
    if width > DENSE_BIT_CAP and not args.unsafe_caps:
        raise CapExceededError(
            f"{what} is capped at {DENSE_BIT_CAP} support edges, this one has {width}"
            " (override with --unsafe-caps)"
        )


# Each input file must name the ground of --n. A graph or polynomial file is
# compared by its header, before its edges are read; a weight file, which
# holds all n^2 edges of its own ground, once it is read.

def _load_weights(args) -> WeightFunction | None:
    if not getattr(args, "weights", None):
        return None
    weights = parse_weight_function(_read_input(args.weights))
    if weights.ground.size != args.n:
        raise InputError(
            f"weight file ground {weights.ground.header()} does not match --n {args.n}"
        )
    return weights


def _load_graph(path: str, ground: GroundGraph) -> Graph:
    return parse_graph(_read_input(path), ground)


def _read_input(path: str) -> str:
    """The text of an input file; one that does not decode is bad input."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not {exc.encoding} text: {exc.reason}") from None


def _support(
    args, weights, what, note=False
) -> tuple[Graph, int, list[tuple[int, int]], Iterator[Family]]:
    """The support of a bipartite run, K_{n,n} or G_w under weights, and
    _split's forced edges, blocks and families of it. With note, -v names
    its width and its blocks' row counts. The widest block is capped before
    any matching is listed:
    K_{n,n}, one block, as what, from --n before its n^2-bit mask is built;
    a block of G_w as a block of the subcommand."""
    if weights is None:
        width, sizes = args.n * args.n, [args.n]
    else:
        support = support_union(weights)
        forced, blocks, families = _split(support)
        width = support.edge_count
        sizes = sorted([size for size, _ in blocks] + [1] * forced.bit_count(), reverse=True)
    if note:
        plural = "s" if len(sizes) > 1 else ""
        _note(args, f"support: {width} edges in {len(sizes)} block{plural}"
                    f" ({','.join(map(str, sizes))})")
    if weights is None:
        _cap(args, width, what)
        support = bipartite_ground(args.n).full_graph()
        forced, blocks, families = _split(support)
    else:
        widest = max((edges.bit_count() for _, edges in blocks), default=1)
        _cap(args, widest, f"a {args.command} block")
    return support, forced, blocks, families


def _element_bound(blocks: list[tuple[int, int]]) -> int:
    """A lower bound on the elements of the lattice of a support with these
    (row count, edge mask) blocks, besides its forced edges: a block of r
    rows and e edges is a face of B_r of dimension d = e - 2r + 1, whose
    covered graphs are its nonempty faces, and a d-polytope has at least as
    many of those as the d-simplex, 2^(d+1) - 1 (Grunbaum, Convex Polytopes,
    ch. 10). The covered graphs multiply over blocks; the bottom adds one."""
    return prod((1 << edges.bit_count() - 2 * rows + 2) - 1 for rows, edges in blocks) + 1


def _cap_elements(args, count: int, least: str = "") -> None:
    """Refuse a lattice of count elements, or of at least count, past
    LATTICE_ELEMENT_CAP."""
    if count > LATTICE_ELEMENT_CAP and not args.unsafe_caps:
        raise CapExceededError(
            f"lattices are capped at {LATTICE_ELEMENT_CAP} elements, this one has"
            f" {least}{count} (override with --unsafe-caps)"
        )


def _parity(count: int) -> str:
    return "even" if count % 2 == 0 else "odd"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_poly(args) -> int:
    weights = _load_weights(args)
    split = _support(args, weights, "poly", note=True)
    poly = (pm_polynomial(args.n, split) if weights is None
            else min_weight_pm_polynomial(weights, split))
    _stream_output(args, poly.to_json if args.format == "json" else poly.to_text)
    print(f"terms: {len(poly)} ({_parity(len(poly))})", file=sys.stderr)
    return 0


def cmd_coeff(args) -> int:
    weights = _load_weights(args)
    ground = bipartite_ground(args.n) if weights is None else weights.ground
    graph = _load_graph(args.graph, ground)
    coeff = coefficient_query(graph, weights)
    return _report(args, {"coefficient": coeff}, f"{coeff:+d}" if coeff else "0")


def cmd_verify(args) -> int:
    """The polynomial is read as factors, never multiplied out: a check
    file is one factor; else each block of the support is one, and its
    forced edges stand apart (see _product_values)."""
    weights = _load_weights(args)
    if args.samples < 1:
        raise InputError("--samples must be >= 1")
    if args.exhaustive:
        _cap(args, args.n * args.n, "exhaustive verification")

    ground = bipartite_ground(args.n)
    if args.check_file:
        forced, factors = 0, [MultilinearPolynomial.from_json(_read_input(args.check_file), ground)]
    else:
        _, forced, _, families = _support(args, weights, "unweighted verification")
        factors = list(map(_pm_family_polynomial, families))
    _note(args, f"polynomial has {prod(map(len, factors))} terms")

    width, n = ground.edge_count, ground.size
    total = 1 << width if args.exhaustive else args.samples
    rng = random.Random(args.seed)
    values = _product_values(forced, factors, total)
    tight = None if weights is None else weights.tight_mask()

    def oracle(points: np.ndarray) -> np.ndarray:
        """The oracle's answer at each point: the row DP on grounds it
        covers, a matching test point by point above them."""
        if n <= 6:
            return _has_perfect_matchings(points if tight is None else points & tight, n)
        if weights is None:
            want = [has_perfect_matching(Graph(ground, m)) for m in points.tolist()]
        else:
            want = [contains_min_weight_pm(Graph(ground, m), weights) for m in points.tolist()]
        return np.array(want)

    # Chunk by chunk in assignment order, so the first mismatch found is the
    # first point where the two sides differ.
    for lo in range(0, total, _VERIFY_CHUNK):
        size = min(_VERIFY_CHUNK, total - lo)
        if args.exhaustive:
            points = np.arange(lo, lo + size, dtype=np.int64)
        else:  # a mask of 64 edges or more can exceed int64
            points = np.array([rng.getrandbits(width) for _ in range(size)],
                              dtype=np.int64 if width < 64 else object)
        want, got = oracle(points), values(points)
        bad = np.flatnonzero(got != want)
        if len(bad):
            k = bad[0]
            mask, got, want = int(points[k]), int(got[k]), int(want[k])
            witness = edge_list_str(Graph(ground, mask))
            return _report(
                args,
                {"ok": False, "assignment": witness, "polynomial": got, "oracle": want},
                f"MISMATCH at assignment {witness}: polynomial {got}, oracle {want}",
                1,
            )
    return _report(args, {"ok": True, "checked": total}, f"verified {total} assignments: OK")


def _product_values(forced: int, factors: list[MultilinearPolynomial], points: int) -> Callable:
    """A function from an array of assignment masks to the values there of
    the product of the factors, whose supports are disjoint, with every
    forced edge in every term, for a run of that many points: 0 where a
    forced edge is missing, else the product of the factors' values, each
    read by its own _value_reader."""
    readers = [factor._value_reader(points) for factor in factors]
    return lambda masks: prod((read(masks) for read in readers), start=(masks & forced) == forced)


def cmd_lattice(args) -> int:
    report = [f for f in ("graph", "mobius", "interval", "find_pentagon") if getattr(args, f)]
    if report and args.format != "text":
        names = ", ".join("--" + f.replace("_", "-") for f in report)
        raise InputError(f"--format {args.format} takes no report options, got {names}")
    if args.mobius and not args.graph:
        raise InputError("--mobius needs --graph to name the element")
    if args.mode == "complete":
        if args.n % 2:
            raise InputError("complete mode needs an even vertex count")
        _cap(args, args.n * (args.n - 1) // 2, "complete mode")
        if args.weights:
            raise InputError("--weights applies to bipartite mode only")
        support = complete_ground(args.n).full_graph()
        forced, families = 0, [enumerate_perfect_matchings(support)]
    else:
        support, forced, blocks, families = _support(args, _load_weights(args), "a bipartite lattice")
        if not args.unsafe_caps:  # refused from a bound before any matching is listed
            _cap_elements(args, _element_bound(blocks), "at least ")
        families = list(families)
    ground = support.ground

    # the product of the blocks' covered sets, refused by its count
    _note(args, f"family has {prod(map(len, families))} matchings")
    covers = [covered_closure(family) for family in families]
    count = prod(map(len, covers))
    _note(args, f"covered set has {count} graphs")
    _cap_elements(args, count + 1)
    bits, rows, _ = _multiply_blocks(support, forced, [(c.bits, c.rows, None) for c in covers])
    lat = build_lattice(CoveredSet(ground, bits, rows))

    if args.format != "text":
        _stream_output(args, lat.to_json if args.format == "json" else lat.to_dot)
        return 0

    lines = [f"elements: {len(lat)}"]
    lines.append(f"is-lattice: {str(lat.is_lattice()).lower()}")
    check = lat.eulerian_check()
    ranks, violation = lat._rank_data
    lines.append(f"graded: {str(violation is None).lower()}")
    if violation is not None:  # the Eulerian witness is then the offending cover
        lo, hi = check.witness
        lines.append(f"not-graded-witness: {edge_list_str(lo)} -> {edge_list_str(hi)}")
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
        lines.append(f"rank: {ranks[lat.index_of(element)]}")
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
    """The covered count is the product of the blocks' counts."""
    _, _, _, families = _support(args, _load_weights(args), "count-covered", note=True)
    count = prod(len(covered_closure(family)) for family in families)
    parity = _parity(count)
    return _report(args, {"count": count, "parity": parity},
                   f"count: {count}\nparity: {parity}", 0 if count % 2 else 1)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub, formats=("text", "json"), verbose=True, caps=True) -> None:
    sub.add_argument("--output", "-o", help="write to a file instead of stdout")
    sub.add_argument(
        "--format", "-f", choices=formats, default="text", help="output format"
    )
    if verbose:
        sub.add_argument("--verbose", "-v", action="store_true", help="progress to stderr")
    if caps:
        sub.add_argument("--unsafe-caps", action="store_true",
                         help="lift the safety caps on exponential-size computations")


@functools.cache  # built once a process; parse_args leaves it unchanged
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
    _add_common(p, verbose=False, caps=False)
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
    except (InputError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 must keep meaning "verification failed"
        detail = f": {exc}" if str(exc) else ""
        print(f"error: internal {type(exc).__name__}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
