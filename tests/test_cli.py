import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import matchcover
from matchcover import (
    WeightFunction,
    bipartite_ground,
    covered_closure,
    enumerate_min_weight_pms,
    enumerate_perfect_matchings,
    min_weight_pm_polynomial,
    parse_weight_function,
    support_union,
)
from matchcover.cli import main
from oracles import reference_json_dict, reference_text

W22 = "bipartite 2\n1 1 1\n1 2 2\n2 1 2\n2 2 1\n"
C4 = "bipartite 2\n1 1\n1 2\n2 1\n2 2\n"
ANTI = "bipartite 2\n1 2\n2 1\n"
IDENT = "bipartite 2\n1 1\n2 2\n"
K6_WITNESS = "complete 6\n1 2\n2 3\n3 4\n1 4\n1 5\n4 5\n2 6\n3 6\n5 6\n"

POLY2_TEXT = (
    "+1 x[1,1] x[2,2]\n"
    "+1 x[1,2] x[2,1]\n"
    "-1 x[1,1] x[1,2] x[2,1] x[2,2]\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_text(capsys):
    code, out, err = run(capsys, "poly", "--n", "2")
    assert code == 0
    assert out == POLY2_TEXT
    assert "terms: 3 (odd)" in err


def test_poly_weighted(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text(W22)
    code, out, err = run(capsys, "poly", "--n", "2", "--weights", str(wfile))
    assert code == 0
    assert out == "+1 x[1,1] x[2,2]\n"
    assert "terms: 1 (odd)" in err


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 3


def test_poly_rejects_bad_n(capsys):
    code, out, err = run(capsys, "poly", "--n", "0")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_poly_output_file(tmp_path, capsys):
    target = tmp_path / "poly.txt"
    code, out, _ = run(capsys, "poly", "--n", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == POLY2_TEXT


def test_streamed_output_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    from matchcover import MultilinearPolynomial

    def fail_after_first_chunk(self, file=None):
        file.write("+1 x[1,1]\n")
        raise RuntimeError("boom")

    monkeypatch.setattr(MultilinearPolynomial, "to_text", fail_after_first_chunk)
    target = tmp_path / "poly.txt"
    code, out, err = run(capsys, "poly", "--n", "2", "-o", str(target))
    assert (code, out, err) == (3, "", "error: internal RuntimeError: boom\n")
    assert list(tmp_path.iterdir()) == []
    target.write_text("old bytes\n")
    assert run(capsys, "poly", "--n", "2", "-o", str(target))[0] == 3
    assert target.read_text() == "old bytes\n"
    assert list(tmp_path.iterdir()) == [target]
    monkeypatch.undo()
    assert run(capsys, "poly", "--n", "2", "-f", "json", "-o", str(target))[0] == 0
    assert target.read_text() == run(capsys, "poly", "--n", "2", "-f", "json")[1]
    assert list(tmp_path.iterdir()) == [target]
    code, _, err = run(capsys, "poly", "--n", "2", "-o", str(tmp_path / "no" / "p.txt"))
    assert code == 2 and str(tmp_path / "no" / "p.txt") in err and ".tmp" not in err


def test_output_refusals_keep_the_old_target(tmp_path, monkeypatch, capsys):
    import matchcover.cli as cli

    target = tmp_path / "poly.txt"
    target.write_text("old bytes\n")

    def no_temporary(name, mode="r", *rest):  # as in a read-only directory
        if mode == "x":
            raise PermissionError(13, "Permission denied", name)
        return open(name, mode, *rest)

    monkeypatch.setattr(cli, "open", no_temporary, raising=False)
    code, out, err = run(capsys, "poly", "--n", "2", "-o", str(target))
    assert (code, out) == (2, "") and str(target) in err and ".tmp" not in err
    monkeypatch.undo()
    monkeypatch.setattr(cli.os, "access", lambda name, mode: False)  # a read-only file
    code, out, err = run(capsys, "poly", "--n", "2", "-o", str(target))
    assert (code, out) == (2, "") and str(target) in err
    assert target.read_text() == "old bytes\n"
    assert list(tmp_path.iterdir()) == [target]


def test_output_passes_over_a_stale_temporary_file(tmp_path, capsys):
    # a temporary file left by an earlier run with this pid (one killed
    # mid-write): the run takes the next free name and leaves it alone
    target = tmp_path / "poly.txt"
    stale = tmp_path / f"poly.txt.{os.getpid()}.tmp"
    stale.write_text("stale\n")
    umask = os.umask(0o022)
    os.umask(umask)
    assert run(capsys, "poly", "--n", "2", "-o", str(target)) == (0, "", "terms: 3 (odd)\n")
    assert target.read_text() == POLY2_TEXT
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask
    assert stale.read_text() == "stale\n"
    # the next name is taken too, and the old target keeps its bits
    (tmp_path / f"poly.txt.{os.getpid()}.1.tmp").write_text("stale\n")
    target.chmod(0o640)
    assert run(capsys, "poly", "--n", "2", "-f", "json", "-o", str(target))[0] == 0
    assert target.read_text() == run(capsys, "poly", "--n", "2", "-f", "json")[1]
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["poly.txt", stale.name, f"poly.txt.{os.getpid()}.1.tmp"]
    )


def _cli(*argv, **kwargs):
    src = str(Path(matchcover.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "matchcover.cli", *argv],
        env={**os.environ, "PYTHONPATH": path}, timeout=60, **kwargs,
    )


def test_output_to_dev_stdout(tmp_path):
    result = _cli("poly", "--n", "2", "-o", "/dev/stdout", capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, POLY2_TEXT)
    # stdout appending to a file: the run continues the stream in that file
    log = tmp_path / "log.txt"
    log.write_text("head\n")
    inode = log.stat().st_ino
    with open(log, "a") as fh:
        assert _cli("poly", "--n", "2", "-o", "/dev/stdout", stdout=fh).returncode == 0
    assert log.read_text() == "head\n" + POLY2_TEXT
    assert log.stat().st_ino == inode
    assert list(tmp_path.iterdir()) == [log]


def test_output_to_a_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE, text=True)
    try:
        assert _cli("poly", "--n", "2", "-o", str(fifo)).returncode == 0
        assert reader.communicate(timeout=30)[0] == POLY2_TEXT
    finally:
        reader.kill()
        reader.wait()
    assert list(tmp_path.iterdir()) == [fifo]


def test_output_through_a_symlink(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old bytes\n")
    real.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    assert _cli("poly", "--n", "2", "-o", str(link)).returncode == 0
    assert link.is_symlink() and real.read_text() == POLY2_TEXT
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(tmp_path.iterdir()) == [link, real]


def test_lattice_json_streamed_to_a_file(tmp_path, capsys):
    target = tmp_path / "lattice.json"
    code, out, _ = run(capsys, "lattice", "--n", "3", "-f", "json", "-o", str(target))
    assert (code, out) == (0, "")
    assert target.read_text() == run(capsys, "lattice", "--n", "3", "-f", "json")[1]
    assert list(tmp_path.iterdir()) == [target]


def _zero_weight_file(path, n, zero) -> str:
    """A weight file of K_{n,n}: 0 on the edges (i, j) where zero(i, j), else 1."""
    path.write_text(f"bipartite {n}\n" + "".join(
        f"{i} {j} {0 if zero(i, j) else 1}\n" for i in range(1, n + 1) for j in range(1, n + 1)
    ))
    return str(path)


def test_verify_takes_the_value_table_by_cost(tmp_path, monkeypatch, capsys):
    from matchcover import MultilinearPolynomial

    calls = []
    real = MultilinearPolynomial.value_table

    def counted(self):
        calls.append(len(self))
        return real(self)

    monkeypatch.setattr(MultilinearPolynomial, "value_table", counted)

    def verify(n, zero, *argv):
        wfile = _zero_weight_file(tmp_path / f"w{n}.txt", n, zero)
        calls.clear()
        return run(capsys, "verify", "--n", str(n), "--weights", wfile, *argv)

    # the table of s support edges costs 25 x 2^s, the scan points x (40 +
    # 3 x terms). One factor, the 49 terms of K_{3,3} on 9 edges: 12,800
    # against 68 x 187 = 12,716 or 69 x 187 = 12,903
    for samples, want in ((68, []), (69, [49])):
        calls.clear()
        assert run(capsys, "verify", "--n", "3", "--samples", str(samples)) == (
            0, f"verified {samples} assignments: OK\n", ""
        )
        assert calls == want
    # each block picks its own reader: three zero K_{2,2} blocks of K_{6,6},
    # 3 terms on 4 edges each, 400 against 8 x 49 or 9 x 49
    blocks = lambda i, j: (i - 1) // 2 == (j - 1) // 2
    for samples, want in ((8, []), (9, [3, 3, 3])):
        assert verify(6, blocks, "--samples", str(samples)) == (
            0, f"verified {samples} assignments: OK\n", ""
        )
        assert calls == want
    # a check file of one term on the diagonal: the 32 entries of its 5
    # edges, not the 2^25 of the ground, against 18 x 43 or 19 x 43
    g = bipartite_ground(5)
    check = tmp_path / "diagonal.json"
    check.write_text(MultilinearPolynomial(g, {sum(1 << 6 * i for i in range(5)): 1}).to_json())
    for samples, want in ((18, []), (19, [1])):
        assert verify(5, lambda i, j: i == j, "--samples", str(samples), "--check-file",
                      str(check)) == (0, f"verified {samples} assignments: OK\n", "")
        assert calls == want
    # exhaustive runs take the table: a zero K_{2,2} block and a forced edge
    assert verify(3, lambda i, j: i < 3 and j < 3 or i == j, "--exhaustive")[:2] == (
        0, "verified 512 assignments: OK\n"
    )
    assert calls == [3]
    # and so do wide grounds, whose masks are Python ints: a zero K_{2,2}
    # block of K_{8,8}, 400 against 50 x 49
    assert verify(8, lambda i, j: i < 3 and j < 3 or i == j, "--samples", "50")[:2] == (
        0, "verified 50 assignments: OK\n"
    )
    assert calls == [3]


def test_verify_takes_five_tables_on_a_400_edge_ground(tmp_path, monkeypatch, capsys):
    """Five zero K_{4,4} blocks of K_{20,20}: each factor, 7,443 terms on 16
    edges, takes its value table at 1,000 samples, though the ground's
    masks are Python ints."""
    from matchcover import MultilinearPolynomial

    tables = []
    real = MultilinearPolynomial.value_table
    monkeypatch.setattr(MultilinearPolynomial, "value_table",
                        lambda self: tables.append(real(self)) or tables[-1])
    wfile = _zero_weight_file(tmp_path / "w20.txt", 20, lambda i, j: (i - 1) // 4 == (j - 1) // 4)
    assert run(capsys, "verify", "--n", "20", "--weights", wfile)[:2] == (
        0, "verified 1000 assignments: OK\n"
    )
    assert len(tables) == 5 and all(t is not None and len(t) == 1 << 16 for t in tables)


def test_no_run_reads_the_terms_dict(tmp_path, monkeypatch, capsys, refuse_terms):
    from matchcover import MultilinearPolynomial, bipartite_ground, pm_polynomial

    terms = dict(pm_polynomial(2).terms)
    terms[0b0110] = 2**70  # past int64: the scan sums Python ints
    check = tmp_path / "huge.json"
    check.write_text(MultilinearPolynomial(bipartite_ground(2), terms).to_json())
    refuse_terms()
    tables = []
    real = MultilinearPolynomial.value_table
    monkeypatch.setattr(MultilinearPolynomial, "value_table",
                        lambda self: tables.append(real(self)) or tables[-1])
    assert run(capsys, "poly", "--n", "3")[0] == 0
    # through the value table
    assert run(capsys, "verify", "--n", "3", "--exhaustive")[:2] == (
        0, "verified 512 assignments: OK\n"
    )
    assert len(tables) == 1 and tables[0] is not None
    # through the scan of 64-edge masks, Python ints: 6 samples pay for no
    # factor's table, 400 against 6 x 49 for each K_{2,2} block (see
    # test_verify_takes_the_value_table_by_cost)
    b = [0, 0, 0, 1, 1, 2, 2, 3]
    wfile = _zero_weight_file(tmp_path / "w8.txt", 8, lambda i, j: b[i - 1] == b[j - 1])
    assert run(capsys, "verify", "--n", "8", "--weights", wfile, "--samples", "6")[:2] == (
        0, "verified 6 assignments: OK\n"
    )
    assert len(tables) == 1
    # through the scan: the int32 table cannot hold the coefficient
    code, out, _ = run(capsys, "verify", "--n", "2", "--exhaustive", "--check-file", str(check))
    assert code == 1 and out.startswith("MISMATCH at assignment ")
    assert len(tables) == 2 and tables[1] is None
    assert run(capsys, "count-covered", "--n", "3")[:2] == (0, "count: 49\nparity: odd\n")
    assert run(capsys, "lattice", "--n", "3")[0] == 0


def test_verify_through_the_support_table_equals_pointwise(tmp_path, monkeypatch, capsys):
    """Each run gives the same exit code and bytes through the value table as
    by evaluate at each point, whether it verifies or reports a mismatch."""
    import random

    from matchcover import Graph, MultilinearPolynomial, WeightFunction, bipartite_ground
    from matchcover import edge_list_str, min_weight_pm_polynomial
    from matchcover.cli import _VERIFY_CHUNK, _split

    real = MultilinearPolynomial.value_table
    reader = MultilinearPolynomial._value_reader
    tables = []

    def counted(self):
        tables.append(real(self))
        return tables[-1]

    def both(*argv, factors=1):
        """The run through the value table of each of its factors, however
        few the points, checked to have taken them, and again point by
        point. A support of forced edges alone has no factor and no table."""
        monkeypatch.setattr(MultilinearPolynomial, "value_table", counted)
        monkeypatch.setattr(MultilinearPolynomial, "_value_reader",
                            lambda self, points: reader(self, 1 << 40))
        tables.clear()
        table_run = run(capsys, *argv)
        assert len(tables) == factors and all(t is not None for t in tables)
        monkeypatch.setattr(MultilinearPolynomial, "value_table", lambda self: None)
        assert run(capsys, *argv) == table_run
        return table_run

    rng = random.Random(151)
    codes, forced_only = [], []
    for trial in range(10):
        n = trial % 5 + 2  # 2..6
        weights = [rng.randint(0, 2) for _ in range(n * n)]
        wfile = tmp_path / f"w{trial}.txt"
        wfile.write_text(f"bipartite {n}\n" + "".join(
            f"{k // n + 1} {k % n + 1} {w}\n" for k, w in enumerate(weights)
        ))
        poly = min_weight_pm_polynomial(WeightFunction(bipartite_ground(n), weights))
        check = tmp_path / f"p{trial}.json"
        check.write_text(poly.to_json())
        sampled = ["--samples", "300", "--seed", str(trial)]
        blocks = len(_split(support_union(WeightFunction(bipartite_ground(n), weights)))[1])
        forced_only.append(blocks == 0)
        both("verify", "--n", str(n), "--weights", str(wfile), *sampled, factors=blocks)
        # the polynomial of G_w, narrower than the ground, against the
        # unweighted oracle, which it fails unless G_w is the whole ground
        unweighted = ["verify", "--n", str(n), "--check-file", str(check), "--unsafe-caps"]
        for mode in (sampled, ["--exhaustive"] if n <= 3 else sampled + ["-f", "json"]):
            codes.append(both(*unweighted, *mode)[0])
        both("verify", "--n", str(n), "--weights", str(wfile), "--check-file", str(check), *sampled)
    assert set(codes) == {0, 1} and set(forced_only) == {False, True}
    # the identity is the one minimum-weight matching of these weights; a
    # term for 14 of the 16 edges of K_{4,4} makes the check file wrong at the
    # points that hold them, the first at sample 11,958, in the second chunk
    g = bipartite_ground(4)
    wfile = _zero_weight_file(tmp_path / "diagonal.txt", 4, lambda i, j: i == j)
    extra = (1 << 16) - 1 & ~0b110
    terms = {0b1000010000100001: 1, extra: 1}
    check = tmp_path / "wrong.json"
    check.write_text(MultilinearPolynomial(g, terms).to_json())
    sampler = random.Random(4)
    points = [sampler.getrandbits(16) for _ in range(20000)]
    first = next(k for k, x in enumerate(points) if x & extra == extra)
    assert first == 11958 and first >= _VERIFY_CHUNK
    witness = edge_list_str(Graph(g, points[first]))  # holds the identity too
    argv = ["verify", "--n", "4", "--weights", wfile, "--check-file", str(check),
            "--samples", "20000", "--seed", "4"]
    assert both(*argv) == (
        1, f"MISMATCH at assignment {witness}: polynomial 2, oracle 1\n", ""
    )
    code, out, _ = both(*argv, "-f", "json")
    assert code == 1
    assert json.loads(out) == {"ok": False, "assignment": witness, "polynomial": 2, "oracle": 1}


def _small_block_weights(rng, n):
    """Weights of K_{n,n} that are 0 on a random part of each of some
    diagonal blocks of 1 to 3 rows, on shuffled rows and columns, the part
    holding a perfect matching of its block, and 1 or 2 elsewhere: each
    block of G_w then has at most 3 rows."""
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    weights = [rng.randint(1, 2) for _ in range(n * n)]
    lo = 0
    while lo < n:
        size = min(n - lo, rng.randint(1, 3))
        block = range(lo, lo + size)
        perm = rng.sample(block, size)
        for a in block:
            for b in block:
                if perm[a - lo] == b or rng.random() < 0.5:
                    weights[rows[a] * n + cols[b]] = 0
        lo += size
    return weights


def test_block_values_equal_the_flat_product():
    # the values verify reads block by block, by each block's table and by
    # its scan, against the scan of the product polynomial, at random points
    # and at points that hold every forced edge
    import matchcover.cli as cli
    from matchcover import min_weight_pm_polynomial
    from matchcover.polynomial import _pm_family_polynomial

    rng = random.Random(241)
    held = forced_seen = 0
    for trial in range(60):
        n = trial % 7 + 2  # 2..8; 64 ground edges take object masks
        w = WeightFunction(bipartite_ground(n), _small_block_weights(rng, n))
        forced, blocks, families = cli._split(support_union(w))
        assert all(rows <= 3 for rows, _ in blocks)
        factors = [_pm_family_polynomial(family) for family in families]
        dtype = np.int64 if n * n < 64 else object
        masks = [rng.getrandbits(n * n) for _ in range(200)]
        points = np.array(masks + [m | forced for m in masks], dtype=dtype)
        want = min_weight_pm_polynomial(w)._scanner()(points)
        for total in (1, 1 << 40):  # priced for the scan, and for the table
            got = cli._product_values(forced, factors, total)(points)
            assert np.array_equal(got, want), (trial, total)
        held += int(want[200:].any())
        forced_seen += forced != 0
    assert held >= 30 and forced_seen >= 30


def test_verify_by_blocks_equals_the_product_check_file(tmp_path, capsys):
    # verify reads the blocks of G_w; given poly's JSON it reads the product
    # as one factor: the same exit code and bytes, sampled and exhaustive.
    # A check file with one coefficient negated fails where the negated
    # product and the oracle truly differ.
    from matchcover import Graph, MultilinearPolynomial, contains_min_weight_pm

    rng = random.Random(243)
    failed = 0
    for trial in range(24):
        n = trial % 7 + 2  # 2..8
        weights = _small_block_weights(rng, n)
        wfile = _weight_file(tmp_path / f"w{trial}.txt", n, lambda i, j: weights[(i - 1) * n + j - 1])
        code, out, _ = run(capsys, "poly", "--n", str(n), "--weights", wfile, "-f", "json")
        assert code == 0
        check = tmp_path / f"p{trial}.json"
        check.write_text(out)
        data = json.loads(out)
        data["terms"][rng.randrange(len(data["terms"]))]["coeff"] *= -1
        bad = tmp_path / f"bad{trial}.json"
        bad.write_text(json.dumps(data))
        mode = ["--exhaustive"] if n <= 4 else ["--samples", "3000", "--seed", str(trial)]
        for fmt in ("text", "json"):
            argv = ["verify", "--n", str(n), "--weights", wfile, *mode, "-f", fmt]
            blocks = run(capsys, *argv)
            assert blocks[0] == 0
            assert run(capsys, *argv, "--check-file", str(check)) == blocks
        code, out, err = run(capsys, "verify", "--n", str(n), "--weights", wfile, *mode,
                             "--check-file", str(bad), "-f", "json")
        assert err == "" and code in ((1,) if n <= 4 else (0, 1))
        if code == 1:
            failed += 1
            report = json.loads(out)
            g = bipartite_ground(n)
            point = Graph(g, sum(1 << g.edge_index(int(u), int(v)) for u, v in
                                 (e.split(",") for e in report["assignment"].split())))
            negated = MultilinearPolynomial.from_json(bad.read_text(), g)
            w = WeightFunction(g, weights)
            assert report["polynomial"] == negated.evaluate(point) != report["oracle"]
            assert report["oracle"] == int(contains_min_weight_pm(point, w))
    assert failed >= 12


def test_one_cap_rule_for_verify(tmp_path, capsys):
    # a check file builds no table over the ground, so sampled runs check it
    # on K_{6,6}, with or without --weights; --exhaustive runs and verify of
    # K_{6,6} with no file are refused as before
    from matchcover import MultilinearPolynomial

    g = bipartite_ground(6)
    identity = sum(1 << g.edge_index(i, i) for i in range(1, 7))
    files = {}
    for name, terms in (("one", {identity: 1}), ("empty", {}),
                        ("wide", {identity: 1, (1 << 36) - 1: -1})):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(MultilinearPolynomial(g, terms).to_json())
    diagonal = _weight_file(tmp_path / "diag.txt", 6, lambda i, j: int(i != j))
    codes = set()
    for name, path in files.items():
        for weights in ([], ["--weights", diagonal]):
            code, out, err = run(capsys, "verify", "--n", "6", *weights, "--samples", "300",
                                 "--check-file", str(path))
            assert code in (0, 1) and err == "", (name, weights)
            codes.add(code)
            code, out, err = run(capsys, "verify", "--n", "6", *weights, "--exhaustive",
                                 "--check-file", str(path))
            assert (code, out) == (2, "")
            assert err == ("error: exhaustive verification is capped at 25 support edges,"
                           " this one has 36 (override with --unsafe-caps)\n")
    assert codes == {0, 1}
    assert run(capsys, "verify", "--n", "6", "--weights", diagonal, "--check-file",
               str(files["one"]), "--samples", "300")[:2] == (0, "verified 300 assignments: OK\n")
    assert run(capsys, "verify", "--n", "6") == (
        2, "", "error: unweighted verification is capped at 25 support edges, this one has 36"
        " (override with --unsafe-caps)\n")
    # five zero K_{4,4} blocks on K_{20,20}: each block read alone, the
    # product of 7443^5 terms never built
    wfile = _zero_blocks(tmp_path / "w20.txt", 4, 4, 4, 4, 4)
    start = time.perf_counter()
    assert run(capsys, "verify", "--n", "20", "--weights", wfile, "--samples", "1000", "-v") == (
        0, "verified 1000 assignments: OK\n", "polynomial has 22842313880435845443 terms\n")
    assert time.perf_counter() - start < 5.0


def test_poly_deterministic(capsys):
    _, first, _ = run(capsys, "poly", "--n", "3")
    _, second, _ = run(capsys, "poly", "--n", "3")
    assert first == second


def test_coeff(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    wfile = tmp_path / "w.txt"
    wfile.write_text(W22)

    gfile.write_text(C4)
    assert run(capsys, "coeff", "--n", "2", "--graph", str(gfile)) == (0, "-1\n", "")

    gfile.write_text(ANTI)
    code, out, _ = run(
        capsys, "coeff", "--n", "2", "--weights", str(wfile), "--graph", str(gfile)
    )
    assert (code, out) == (0, "0\n")

    gfile.write_text(IDENT)
    code, out, _ = run(
        capsys, "coeff", "--n", "2", "--weights", str(wfile), "--graph", str(gfile)
    )
    assert (code, out) == (0, "+1\n")


def test_coeff_json_format(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text(C4)
    code, out, _ = run(
        capsys, "coeff", "--n", "2", "--graph", str(gfile), "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"coefficient": -1}


def test_count_covered_json(capsys):
    code, out, _ = run(capsys, "count-covered", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"count": 3, "parity": "odd"}


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--exhaustive", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"ok": True, "checked": 16}


def test_coeff_bad_graph_file(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("bipartite 2\n1 9\n")
    code, out, err = run(capsys, "coeff", "--n", "2", "--graph", str(gfile))
    assert code == 2
    assert out == ""
    code, out, err = run(capsys, "coeff", "--n", "2", "--graph", str(tmp_path / "no"))
    assert code == 2
    assert out == ""


def test_verify_exhaustive(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--n", "3", "--exhaustive")
    assert code == 0
    assert out == "verified 512 assignments: OK\n"

    wfile = tmp_path / "w.txt"
    wfile.write_text(W22)
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--weights", str(wfile), "--exhaustive"
    )
    assert code == 0
    assert out == "verified 16 assignments: OK\n"


def test_verify_sampled_deterministic(capsys):
    code, first, _ = run(capsys, "verify", "--n", "3", "--samples", "200", "--seed", "5")
    assert code == 0
    _, second, _ = run(capsys, "verify", "--n", "3", "--samples", "200", "--seed", "5")
    assert first == second


def test_verify_rejects_bad_samples(capsys):
    code, _, err = run(capsys, "verify", "--n", "2", "--samples", "0")
    assert code == 2 and "error:" in err


def test_verify_caps(capsys):
    code, _, err = run(capsys, "verify", "--n", "6", "--exhaustive")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "verify", "--n", "6")
    assert code == 2 and "capped" in err


def test_verify_tampered_polynomial(tmp_path, capsys):
    from matchcover import pm_polynomial

    data = reference_json_dict(pm_polynomial(2))
    data["terms"][0]["coeff"] = -1  # flip one sign
    check = tmp_path / "poly.json"
    check.write_text(json.dumps(data))
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--exhaustive", "--check-file", str(check)
    )
    assert code == 1
    assert out.startswith("MISMATCH at assignment")

    # the untampered file passes
    check.write_text(pm_polynomial(2).to_json())
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--exhaustive", "--check-file", str(check)
    )
    assert code == 0


def test_lattice_bipartite_report(capsys):
    code, out, _ = run(capsys, "lattice", "--mode", "bipartite", "--n", "3")
    assert code == 0
    assert "elements: 50" in out
    assert "is-lattice: true" in out
    assert "graded: true" in out
    assert "eulerian: true" in out


def test_lattice_complete_4(capsys):
    # the smallest interesting complete ground is still graded and Eulerian;
    # the pathologies only appear at six vertices
    code, out, _ = run(capsys, "lattice", "--mode", "complete", "--n", "4")
    assert code == 0
    assert "elements: 8" in out
    assert "is-lattice: true" in out
    assert "graded: true" in out
    assert "eulerian: true" in out


def test_lattice_complete_6_report(tmp_path, capsys):
    gfile = tmp_path / "witness.txt"
    gfile.write_text(K6_WITNESS)
    code, out, _ = run(
        capsys,
        "lattice",
        "--mode",
        "complete",
        "--n",
        "6",
        "--graph",
        str(gfile),
        "--mobius",
        "--interval",
        str(gfile),
        "--find-pentagon",
    )
    assert code == 0
    assert "elements: 3264" in out
    assert "is-lattice: true" in out
    assert "graded: false" in out
    assert "not-graded-witness:" in out
    assert "eulerian: false" in out
    assert "mobius: 0" in out
    assert "interval-elements: 15" in out
    assert "interval-levels: 1,4,6,3,1" in out
    assert "interval-eulerian: false" in out
    assert "pentagon: found" in out
    # the witness cover and the rank read by index, against rank_labels
    ground = matchcover.complete_ground(6)
    lat = matchcover.build_lattice(covered_closure(enumerate_perfect_matchings(ground.full_graph())))
    labels = lat.rank_labels()
    lo, hi = (matchcover.edge_list_str(g) for g in labels.violation)
    assert f"not-graded-witness: {lo} -> {hi}\n" in out
    assert f"rank: {labels.ranks[matchcover.parse_graph(K6_WITNESS, ground)]}\n" in out


def test_lattice_formats(capsys):
    code, out, _ = run(capsys, "lattice", "--n", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph lattice {")
    code, out, _ = run(capsys, "lattice", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["graded"] is True


# Zero diagonal blocks whose polynomials have supports of 32 and 34 edges:
# monomials of 4 and 5 row bytes, 11,907 and 2,187 terms.
WIDE_BLOCKS = {"W16": (3, 2, 2, 2, 2, 2, 1, 1, 1), "W20": (2,) * 7 + (1,) * 6}


# Outputs that the CI workflow pins and no other test does, as the sha256 of
# stdout or a line it must hold. W8 is the workflow's weight file: zero
# blocks 3, 2, 2, 1 on K_{8,8}; BAD8 its polynomial's JSON with the first
# coefficient negated. W16 and W20 are its wide-support files (WIDE_BLOCKS).
CI_PINS = [
    (["poly", "--n", "4"], 0, "0e4c80f9e8e2209077b4164f98537bc809e4cefd4f154b65289e5f9a8fab2b50"),
    (["poly", "--n", "4", "-f", "json"], 0,
     "e2cad4a0c99d65706f62c916503a79612765bcc706ba08c4a3802e3453003721"),
    (["lattice", "--n", "4"], 0,
     "27e83b4af48cf83b3945ad37d6e00b1760b3a38158625611cb9c11cb20d682d8"),
    (["poly", "--n", "8", "--weights", "W8"], 0,
     "835832f2853b4527fc09563e162f213052b222f2133bac5239b575dbce66fbc1"),
    (["poly", "--n", "8", "--weights", "W8", "-f", "json"], 0,
     "a91c4dc6791153f3456c94cf2b623862a2c89a0fc3722e34ad2e6266b454fcff"),
    (["lattice", "--n", "8", "--weights", "W8", "-f", "json"], 0,
     "c41f3ec8f33d52822014b704c249d7d21c81549cb4faa53bb0b663982b69cc93"),
    (["lattice", "--n", "8", "--weights", "W8", "-f", "dot"], 0,
     "e5e9e1169c449ec38dcb30125cef039c7cdae8d96b3e5a752e5b4306c8037878"),
    (["poly", "--n", "16", "--weights", "W16"], 0,
     "d8359759223b1c5b2ea2c1989296bf48cfbd34596d751e4beebded4c18b478d2"),
    (["poly", "--n", "16", "--weights", "W16", "-f", "json"], 0,
     "08f3d8b1a3c6d9dfd449cd61e136e4f0c4b8a785ae766f43ca7941fe298e674f"),
    (["poly", "--n", "20", "--weights", "W20"], 0,
     "f305a9dd2cf9ae8078b7828353c192578d33bf8cc41cc33a1b7ac26cb9c0bf18"),
    (["poly", "--n", "20", "--weights", "W20", "-f", "json"], 0,
     "ef3b419670d11b547f597d0e24960bc3b001e992d60e27236fb78bfab222de9c"),
    (["count-covered", "--n", "8", "--weights", "W8"], 0, "count: 441"),
    (["verify", "--n", "8", "--weights", "W8", "--check-file", "BAD8"], 1,
     "6f6c1bb8ac56bb7bf27e2e96fd54a7e64a508f3dd64e214eac59b5170d33f3d0"),
]


@pytest.mark.parametrize("argv, code, pin", CI_PINS, ids=[" ".join(c[0]) for c in CI_PINS])
def test_ci_pinned_outputs(argv, code, pin, tmp_path, capsys):
    b = [0, 0, 0, 1, 1, 2, 2, 3]
    files = {"W8": _zero_weight_file(tmp_path / "w8.txt", 8, lambda i, j: b[i - 1] == b[j - 1])}
    for name, sizes in WIDE_BLOCKS.items():
        files[name] = _zero_blocks(tmp_path / f"{name}.txt", *sizes)
    if "BAD8" in argv:
        poly = json.loads(run(capsys, "poly", "--n", "8", "--weights", files["W8"], "-f", "json")[1])
        poly["terms"][0]["coeff"] *= -1
        files["BAD8"] = str(tmp_path / "bad8.json")
        Path(files["BAD8"]).write_text(json.dumps(poly))
    got, out, _ = run(capsys, *(files.get(a, a) for a in argv))
    assert got == code
    if len(pin) == 64:
        assert hashlib.sha256(out.encode()).hexdigest() == pin
    else:
        assert pin in out.splitlines()


def test_writers_on_wide_rows(tmp_path, capsys):
    # poly's text and JSON against the formats written term by term and bit
    # by bit, where each row spans several per-byte name tables
    for name, sizes in WIDE_BLOCKS.items():
        wfile = _zero_blocks(tmp_path / f"{name}.txt", *sizes)
        poly = min_weight_pm_polynomial(parse_weight_function(Path(wfile).read_text()))
        assert len(poly._bits) == {"W16": 32, "W20": 34}[name]
        code, text, _ = run(capsys, "poly", "--n", str(sum(sizes)), "--weights", wfile)
        assert code == 0 and text == reference_text(poly)
        code, data, _ = run(capsys, "poly", "--n", str(sum(sizes)), "--weights", wfile, "-f", "json")
        assert code == 0 and data == json.dumps(reference_json_dict(poly), indent=2) + "\n"


def test_lattice_caps_and_validation(capsys):
    code, _, err = run(capsys, "lattice", "--mode", "complete", "--n", "5")
    assert code == 2 and "even" in err
    code, _, err = run(capsys, "lattice", "--mode", "complete", "--n", "8")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "lattice", "--mode", "bipartite", "--n", "6")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "lattice", "--mode", "complete", "--n", "4", "--weights", "x")
    assert code == 2


def test_lattice_report_flags_are_refused_where_ignored(monkeypatch, tmp_path, capsys):
    import matchcover.cli as cli

    def no_enumeration(*args):
        raise AssertionError("enumerated before refusing")

    monkeypatch.setattr(cli, "enumerate_perfect_matchings", no_enumeration)
    missing = str(tmp_path / "missing.txt")  # never opened
    runs = [
        (["--n", "2", "-f", "json", "--graph", missing],
         "error: --format json takes no report options, got --graph\n"),
        (["--n", "2", "-f", "dot", "--mobius", "--graph", missing],
         "error: --format dot takes no report options, got --graph, --mobius\n"),
        (["--n", "2", "-f", "json", "--interval", missing, "--find-pentagon"],
         "error: --format json takes no report options, got --interval, --find-pentagon\n"),
        (["--mode", "complete", "--n", "6", "-f", "dot", "--find-pentagon"],
         "error: --format dot takes no report options, got --find-pentagon\n"),
        (["--n", "2", "--mobius"], "error: --mobius needs --graph to name the element\n"),
        (["--mode", "complete", "--n", "6", "--mobius", "--find-pentagon"],
         "error: --mobius needs --graph to name the element\n"),
    ]
    for argv, message in runs:
        assert run(capsys, "lattice", *argv) == (2, "", message)


def test_count_covered(capsys, tmp_path):
    code, out, _ = run(capsys, "count-covered", "--n", "2")
    assert code == 0
    assert out == "count: 3\nparity: odd\n"
    code, out, _ = run(capsys, "count-covered", "--n", "3")
    assert code == 0
    assert out.endswith("parity: odd\n")
    wfile = tmp_path / "w.txt"
    wfile.write_text(W22)
    code, out, _ = run(capsys, "count-covered", "--n", "2", "--weights", str(wfile))
    assert code == 0
    assert out == "count: 1\nparity: odd\n"
    code, _, err = run(capsys, "count-covered", "--n", "6")
    assert code == 2 and "capped" in err


def test_count_covered_n5(capsys):
    # the dense closure over all 25 edges of K_{5,5}, the cap: the faces of B_5
    out = "count: 6092721\nparity: odd\n"
    assert run(capsys, "count-covered", "--n", "5") == (0, out, "")


def _weight_file(path, n, weight):
    lines = [f"bipartite {n}"]
    lines += [f"{i} {j} {weight(i, j)}" for i in range(1, n + 1) for j in range(1, n + 1)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_weighted_caps_follow_the_support(tmp_path, capsys):
    # one optimal matching: its support has 5 edges, well under the cap
    diag = _weight_file(tmp_path / "diag.txt", 5, lambda i, j: 0 if i == j else 1)
    code, out, _ = run(capsys, "count-covered", "--n", "5", "--weights", diag)
    assert code == 0 and out == "count: 1\nparity: odd\n"
    code, out, _ = run(capsys, "lattice", "--n", "5", "--weights", diag)
    assert code == 0 and out.startswith("elements: 2\nis-lattice: true\n")
    # all 36 edges are optimal: refused before anything is enumerated
    flat = _weight_file(tmp_path / "flat.txt", 6, lambda i, j: 7)
    for cmd in ("count-covered", "lattice"):
        code, out, err = run(capsys, cmd, "--n", "6", "--weights", flat)
        assert code == 2 and out == "" and "capped at 25 support edges" in err


def _zero_blocks(path, *sizes):
    """Zero diagonal blocks of these sizes; every other edge weighs 1."""
    start = [sum(sizes[:k]) for k in range(len(sizes))]
    block = [b for b, s in zip(start, sizes) for _ in range(s)]
    return _weight_file(path, sum(sizes), lambda i, j: 0 if block[i - 1] == block[j - 1] else 1)


def test_one_edge_cap_at_its_boundary(tmp_path, capsys):
    # weighted count-covered and lattice cap each block of G_w, not its
    # support: zero blocks 4, 4 leave a 32-edge support whose widest block
    # has 16 edges, seven blocks of 2 a 28-edge one of 4-edge blocks
    code, out, _ = run(capsys, "count-covered", "--n", "8", "--weights",
                       _zero_blocks(tmp_path / "8.txt", 4, 4))
    assert code == 0 and out == "count: 55398249\nparity: odd\n"
    wide = _zero_blocks(tmp_path / "14.txt", *[2] * 7)
    assert run(capsys, "count-covered", "--n", "14", "--weights", wide) == (
        0, "count: 2187\nparity: odd\n", "")
    code, out, _ = run(capsys, "lattice", "--n", "14", "--weights", wide)
    assert code == 0 and out.startswith("elements: 2188\n")
    # one block: the 25 edges of a zero K_{5,5} pass, a Hamilton cycle on
    # rows and columns 1..13 of K_{13,13} (26 edges, two matchings) does not
    code, out, _ = run(capsys, "count-covered", "--n", "5", "--weights",
                       _zero_blocks(tmp_path / "5.txt", 5))
    assert code == 0 and out == "count: 6092721\nparity: odd\n"
    cycle = {(i, i) for i in range(1, 14)} | {(i, i % 13 + 1) for i in range(1, 14)}
    block = _weight_file(tmp_path / "13.txt", 13, lambda i, j: int((i, j) not in cycle))
    for cmd in ("count-covered", "lattice", "poly"):
        message = (f"error: a {cmd} block is capped at 25 support edges, this one"
                   " has 26 (override with --unsafe-caps)\n")
        assert run(capsys, cmd, "--n", "13", "--weights", block) == (2, "", message)
    assert run(capsys, "count-covered", "--n", "13", "--weights", block, "--unsafe-caps") == (
        0, "count: 3\nparity: odd\n", "")
    code, out, err = run(capsys, "poly", "--n", "13", "--weights", block, "--unsafe-caps")
    assert code == 0 and len(out.splitlines()) == 3 and err == "terms: 3 (odd)\n"
    # unweighted runs: K_{6,6} has 36 edges, K_8 28; each is refused from
    # --n, before anything is built
    for argv, what, width in [
        (["poly", "--n", "6"], "poly", 36),
        (["count-covered", "--n", "6"], "count-covered", 36),
        (["lattice", "--n", "6"], "a bipartite lattice", 36),
        (["verify", "--n", "6"], "unweighted verification", 36),
        (["verify", "--n", "6", "--exhaustive"], "exhaustive verification", 36),
        (["lattice", "--mode", "complete", "--n", "8"], "complete mode", 28),
    ]:
        start = time.perf_counter()
        assert run(capsys, *argv) == (
            2, "", f"error: {what} is capped at 25 support edges, this one has {width}"
            " (override with --unsafe-caps)\n"
        )
        assert time.perf_counter() - start < 1.0
    # K_{5,5} passes the width cap, and its lattice is refused by the element
    # cap from the face-count bound, 2^17, before a matching is listed
    assert run(capsys, "lattice", "--n", "5") == (
        2, "", "error: lattices are capped at 7444 elements, this one has at least 131072"
        " (override with --unsafe-caps)\n")


def test_weighted_verify_caps_the_widest_block(tmp_path, capsys):
    # all 36 edges of K_{6,6} optimal: refused before the polynomial is built
    zero = _weight_file(tmp_path / "zero.txt", 6, lambda i, j: 0)
    start = time.perf_counter()
    assert run(capsys, "verify", "--n", "6", "--weights", zero, "--samples", "10") == (
        2, "", "error: a verify block is capped at 25 support edges, this one has 36"
        " (override with --unsafe-caps)\n")
    assert time.perf_counter() - start < 1.0
    # a check file is not capped: the empty polynomial is checked, and fails
    empty = tmp_path / "empty.json"
    empty.write_text('{"ground": {"mode": "bipartite", "size": 6}, "terms": []}')
    code, out, _ = run(capsys, "verify", "--n", "6", "--weights", zero, "--samples", "10",
                       "--check-file", str(empty))
    assert code == 1 and out.startswith("MISMATCH at assignment ")
    # a Hamilton cycle on rows and columns 1..13 of K_{13,13}: one block of
    # 26 edges, refused, and verified with --unsafe-caps
    cycle = {(i, i) for i in range(1, 14)} | {(i, i % 13 + 1) for i in range(1, 14)}
    block = _weight_file(tmp_path / "13.txt", 13, lambda i, j: int((i, j) not in cycle))
    argv = ["verify", "--n", "13", "--weights", block, "--samples", "10"]
    assert run(capsys, *argv) == (
        2, "", "error: a verify block is capped at 25 support edges, this one has 26"
        " (override with --unsafe-caps)\n")
    assert run(capsys, *argv, "--unsafe-caps") == (0, "verified 10 assignments: OK\n", "")


def test_element_bound_never_exceeds_the_lattice():
    # the face-count bound of one block against its lattice (covered graphs
    # plus the bottom): every block of at most 20 edges of G_w under seeded
    # 0/1 weightings at n <= 5, and the one block of B_3 and of B_4
    import matchcover.cli as cli

    rng = random.Random(211)
    supports = [bipartite_ground(n).full_graph() for n in (3, 4)]
    for n in (2, 3, 4, 5):
        for _ in range(100):
            p = rng.choice([0.2, 0.35, 0.5, 0.7])
            weights = [int(rng.random() > p) for _ in range(n * n)]
            supports.append(support_union(WeightFunction(bipartite_ground(n), weights)))
    checked, tight = 0, set()
    for support in supports:
        _, blocks, families = cli._split(support)
        for (rows, edges), family in zip(blocks, families):
            if edges.bit_count() > 20:
                continue
            bound, count = cli._element_bound([(rows, edges)]), len(covered_closure(family)) + 1
            assert bound <= count, (rows, edges)
            checked += 1
            if bound == count:
                tight.add(edges.bit_count() - 2 * rows + 1)  # the face's dimension
    assert checked >= 250
    assert max(tight) >= 5  # 63 = 2^6 - 1 covered graphs or more, a simplex face


def test_unweighted_cap_comes_before_the_ground(capsys):
    # K_{100000,100000} has 10^10 edges: refused from --n alone, -v or not,
    # before a mask or ground of that width is built
    start = time.perf_counter()
    message = ("error: count-covered is capped at 25 support edges, this one has"
               " 10000000000 (override with --unsafe-caps)\n")
    assert run(capsys, "count-covered", "--n", "100000") == (2, "", message)
    assert run(capsys, "count-covered", "--n", "100000", "-v") == (
        2, "", "support: 10000000000 edges in 1 block (100000)\n" + message)
    assert time.perf_counter() - start < 1.0


def test_count_covered_multiplies_the_blocks(tmp_path, capsys):
    # five zero K_{4,4} blocks on K_{20,20}: 7443^5 covered graphs, counted
    # block by block, each block under the cap
    wfile = _zero_blocks(tmp_path / "w.txt", 4, 4, 4, 4, 4)
    out = "count: 22842313880435845443\nparity: odd\n"
    assert 7443**5 == 22842313880435845443
    assert run(capsys, "count-covered", "--n", "20", "--weights", wfile) == (0, out, "")
    assert run(capsys, "count-covered", "--n", "20", "--weights", wfile, "-v") == (
        0, out, "support: 80 edges in 5 blocks (4,4,4,4,4)\n")


def test_lattice_multiplies_the_blocks(tmp_path, capsys):
    # two zero K_{3,3} blocks on K_{6,6}: 18 support edges, 49^2 covered
    # graphs, built as the product of the blocks' covered sets
    wfile = _zero_blocks(tmp_path / "w.txt", 3, 3)
    assert run(capsys, "count-covered", "--n", "6", "--weights", wfile)[1] == (
        "count: 2401\nparity: odd\n")
    code, out, _ = run(capsys, "poly", "--n", "6", "--weights", wfile)
    assert code == 0 and out.count("\n") == 2401
    code, out, err = run(capsys, "lattice", "--n", "6", "--weights", wfile, "-v")
    assert code == 0 and out.startswith("elements: 2402\nis-lattice: true\n")
    assert err == "family has 36 matchings\ncovered set has 2401 graphs\n"


def test_lattice_element_cap_comes_before_the_product(tmp_path, capsys):
    # five zero K_{4,4} blocks on K_{20,20}: refused from the blocks' face-count
    # bound, 2^10 - 1 each. The product of the first two alone would be 7443^2 rows.
    wfile = _zero_blocks(tmp_path / "w.txt", 4, 4, 4, 4, 4)
    message = ("error: lattices are capped at 7444 elements, this one has at least"
               f" {1023**5 + 1} (override with --unsafe-caps)\n")
    start = time.perf_counter()
    tracemalloc.start()
    try:
        result = run(capsys, "lattice", "--n", "20", "--weights", wfile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert result == (2, "", message)
    assert peak < 16 * 2**20


def test_lattice_of_the_blocks_matches_the_whole_family(monkeypatch, tmp_path, capsys):
    # the product of the blocks' covered sets against the covered set of
    # all minimum-weight matchings, taken as one block, on random weightings
    import matchcover.cli as cli

    built = []
    build = cli.build_lattice
    monkeypatch.setattr(cli, "build_lattice", lambda cov: built.append(cov) or build(cov))
    split = cli._split

    def whole(support):
        family = enumerate_perfect_matchings(support)
        return 0, [(support.ground.size, support.edges)], iter([family])

    rng = random.Random(29)
    compared = 0
    while compared < 60:
        n = 1 + compared % 6
        zero = [rng.random() < 0.45 for _ in range(n * n)]
        wfile = _weight_file(tmp_path / "w.txt", n, lambda i, j: 1 - zero[(i - 1) * n + j - 1])
        with open(wfile) as fh:
            w = parse_weight_function(fh.read())
        if len(covered_closure(enumerate_min_weight_pms(w))) > 1500:
            continue
        outputs = []
        for route in (split, whole):
            monkeypatch.setattr(cli, "_split", route)
            for fmt in ("text", "json"):
                code, out, _ = run(capsys, "lattice", "--n", str(n), "--weights", wfile,
                                   "-f", fmt, "--unsafe-caps")
                assert code == 0
                outputs.append(out)
        assert outputs[:2] == outputs[2:]
        product, family = built[0], built[2]
        assert product.bits.ids == family.bits.ids
        assert np.array_equal(product.rows, family.rows)
        built.clear()
        compared += 1


def test_flags_that_change_nothing_are_refused(tmp_path):
    # coeff takes no caps and writes no progress
    gfile = tmp_path / "g.txt"
    gfile.write_text(IDENT)
    for argv in (["coeff", "--n", "2", "--graph", str(gfile), "--unsafe-caps"],
                 ["coeff", "--n", "2", "--graph", str(gfile), "-v"],
                 ["coeff", "--n", "2", "--graph", str(gfile), "--verbose"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert _cli("coeff", "--n", "2", "--graph", str(gfile), "-v",
                capture_output=True).returncode == 2


def test_one_process_runs_commands_like_fresh_ones(tmp_path, capsys):
    # main builds its parser once a process: no option may leak from one
    # call into the next, so each result equals a fresh process's
    wfile = tmp_path / "w.txt"
    wfile.write_text(W22)
    gfile = tmp_path / "g.txt"
    gfile.write_text(IDENT)
    calls = [
        ["poly", "--n", "2", "--weights", str(wfile)],
        ["poly", "--n", "2"],
        ["coeff", "--n", "2", "--graph", str(gfile), "-v"],
        ["verify", "--n", "2", "--samples", "7", "--seed", "3"],
        ["verify", "--n", "2"],
        ["poly", "--n", "2", "--weights", str(wfile), "-f", "json"],
        ["poly", "--n", "2"],
    ]
    results = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = _cli(*argv, capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        results.append((code, out))
    assert results[2][0] == 2
    assert results[4] == (0, "verified 1000 assignments: OK\n")  # the default --samples
    assert results[1] == results[6] == (0, POLY2_TEXT)
    assert matchcover.cli.build_parser() is matchcover.cli.build_parser()


def test_verbose_names_the_blocks(tmp_path, capsys):
    # blocks of 2, 1 and 3 rows: 4 + 1 + 9 edges, 3 * 1 * 49 terms
    wfile = _zero_blocks(tmp_path / "w.txt", 2, 1, 3)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "poly", "--n", "6", "--weights", wfile, "-f", fmt)
        assert (code, err) == (0, "terms: 147 (odd)\n")
        assert run(capsys, "poly", "--n", "6", "--weights", wfile, "-f", fmt, "-v") == (
            0, out, "support: 14 edges in 3 blocks (3,2,1)\n" + err)
        target = tmp_path / f"out.{fmt}"
        assert run(capsys, "poly", "--n", "6", "--weights", wfile, "-f", fmt, "-v",
                   "-o", str(target))[1] == ""
        assert target.read_text() == out
    assert run(capsys, "poly", "--n", "2", "-v") == (
        0, POLY2_TEXT, "support: 4 edges in 1 block (2)\nterms: 3 (odd)\n")
    assert run(capsys, "count-covered", "--n", "2", "-v") == (
        0, "count: 3\nparity: odd\n", "support: 4 edges in 1 block (2)\n")


def test_lattice_element_cap(monkeypatch, capsys):
    import matchcover.cli as cli

    monkeypatch.setattr(cli, "LATTICE_ELEMENT_CAP", 49)
    code, out, err = run(capsys, "lattice", "--n", "3")
    assert code == 2 and out == "" and "capped at 49 elements" in err
    code, out, _ = run(capsys, "lattice", "--n", "3", "--unsafe-caps")
    assert code == 0 and "elements: 50" in out


def test_verify_huge_coefficient_matches_pointwise(tmp_path, capsys):
    from matchcover import Graph, bipartite_ground, edge_list_str, has_perfect_matching
    from matchcover import MultilinearPolynomial, pm_polynomial

    g = bipartite_ground(2)
    terms = dict(pm_polynomial(2).terms)
    terms[0b0110] = 2**70
    poly = MultilinearPolynomial(g, terms)
    assert poly.value_table() is None
    check = tmp_path / "huge.json"
    check.write_text(poly.to_json())
    for mask in range(1 << g.edge_count):
        got, want = poly.evaluate(mask), int(has_perfect_matching(Graph(g, mask)))
        if got != want:
            break
    witness = edge_list_str(Graph(g, mask))
    argv = ["verify", "--n", "2", "--exhaustive", "--check-file", str(check)]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == f"MISMATCH at assignment {witness}: polynomial {got}, oracle {want}\n"
    code, out, _ = run(capsys, *argv, "-f", "json")
    assert code == 1
    assert json.loads(out) == {
        "ok": False, "assignment": witness, "polynomial": got, "oracle": want
    }


def test_verify_reports_the_first_mismatch_past_the_first_chunk(tmp_path, capsys):
    from matchcover import (
        Graph,
        MultilinearPolynomial,
        WeightFunction,
        bipartite_ground,
        contains_min_weight_pm,
        edge_list_str,
        min_weight_pm_polynomial,
    )

    # the identity is the one minimum-weight matching; the check file adds a
    # term for the full graph, so it is wrong only at the last of 2^16 points
    g = bipartite_ground(4)
    weights = [0 if i == j else 1 for i in range(4) for j in range(4)]
    wfile = tmp_path / "w.txt"
    wfile.write_text("bipartite 4\n" + "".join(
        f"{k // 4 + 1} {k % 4 + 1} {w}\n" for k, w in enumerate(weights)
    ))
    w = WeightFunction(g, weights)
    terms = dict(min_weight_pm_polynomial(w).terms)
    full = (1 << g.edge_count) - 1
    assert full not in terms
    terms[full] = 1
    poly = MultilinearPolynomial(g, terms)
    check = tmp_path / "poly.json"
    check.write_text(poly.to_json())
    for mask in range(1 << g.edge_count):
        got, want = poly.evaluate(mask), int(contains_min_weight_pm(Graph(g, mask), w))
        if got != want:
            break
    assert mask == full
    witness = edge_list_str(Graph(g, mask))
    argv = ["verify", "--n", "4", "--weights", str(wfile), "--exhaustive",
            "--check-file", str(check)]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == f"MISMATCH at assignment {witness}: polynomial {got}, oracle {want}\n"
    code, out, _ = run(capsys, *argv, "-f", "json")
    assert code == 1
    assert json.loads(out) == {
        "ok": False, "assignment": witness, "polynomial": got, "oracle": want
    }


def test_verify_sampled_past_six_rows_tests_each_point(tmp_path, monkeypatch, capsys):
    import matchcover.cli as cli

    # K_{7,7} is past the row DP of verify, so each point gets the oracle
    calls = []
    real = cli.contains_min_weight_pm

    def counted(G, w):
        calls.append(G.edges)
        return real(G, w)

    monkeypatch.setattr(cli, "contains_min_weight_pm", counted)
    wfile = tmp_path / "w.txt"
    wfile.write_text("bipartite 7\n" + "".join(
        f"{i} {j} {0 if i == j else 1}\n" for i in range(1, 8) for j in range(1, 8)
    ))
    argv = ["verify", "--n", "7", "--weights", str(wfile), "--samples", "300", "--seed", "3"]
    assert run(capsys, *argv) == (0, "verified 300 assignments: OK\n", "")
    assert len(calls) == 300


def test_check_file_ground_mismatch(tmp_path, capsys):
    from matchcover import pm_polynomial

    check = tmp_path / "poly.json"
    check.write_text(pm_polynomial(3).to_json())
    code, _, err = run(
        capsys, "verify", "--n", "2", "--exhaustive", "--check-file", str(check)
    )
    assert code == 2 and "does not match" in err


def test_oversized_headers_are_refused_before_allocating(tmp_path, capsys):
    # a ground of 30000 x 30000 edges would take tens of GB to build
    gfile = tmp_path / "g.txt"
    gfile.write_text("bipartite 30000\n1 1\n")
    wfile = tmp_path / "w.txt"
    wfile.write_text("bipartite 30000\n1 1 1\n1 2 1\n")
    runs = [
        (["coeff", "--n", "2", "--graph", str(gfile)],
         "error: graph ground bipartite 30000 does not match bipartite 2\n"),
        (["poly", "--n", "2", "--weights", str(wfile)],
         "error: weight file has 2 edge lines, bipartite 30000 needs 900000000\n"),
    ]
    for argv, message in runs:
        assert_refused_small(capsys, argv, message)


def assert_refused_small(capsys, argv, message):
    """The run exits 2 with exactly this one error line, having traced less
    than 4 MB of allocations."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", message)
    assert peak < 4 * 2**20


def test_mismatched_inputs_are_refused_before_the_n_ground(tmp_path, capsys):
    # K_{3000,3000} has 9 * 10^6 edges; a file that names the wrong ground is
    # refused before any mask of that width is made
    wfile = tmp_path / "w.txt"
    wfile.write_text(W22)
    gfile = tmp_path / "g.txt"
    gfile.write_text(IDENT)
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"ground": {"mode": "bipartite", "size": 3000}, "terms": []}))
    runs = [
        (["poly", "--n", "3000", "--weights", str(wfile)],
         "error: weight file ground bipartite 2 does not match --n 3000\n"),
        (["coeff", "--n", "3000", "--graph", str(gfile)],
         "error: graph ground bipartite 2 does not match bipartite 3000\n"),
        (["verify", "--n", "2", "--check-file", str(pfile)],
         "error: polynomial ground bipartite 3000 does not match bipartite 2\n"),
        (["verify", "--n", "3000"],
         "error: unweighted verification is capped at 25 support edges, this one has"
         " 9000000 (override with --unsafe-caps)\n"),
    ]
    for argv, message in runs:
        assert_refused_small(capsys, argv, message)


def test_coefficient_on_a_wide_ground_costs_its_graph(tmp_path, capsys):
    # a 6,000-edge Hamilton cycle of K_{3000,3000}: row i meets columns i and
    # i + 1, row n columns n and 1. Its 9 * 10^6-bit mask is about 1.1 MB, and
    # a table of the ground's edges took 2.7 GB.
    n = 3000
    edges = [(i, j) for i in range(1, n) for j in (i, i + 1)] + [(n, n), (n, 1)]
    gfile = tmp_path / "g.txt"
    gfile.write_text(f"bipartite {n}\n" + "".join(f"{i} {j}\n" for i, j in edges))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "coeff", "--n", str(n), "--graph", str(gfile))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (0, "-1\n", "")  # one cycle, chi = 1
    assert peak < 64 * 2**20


def test_malformed_numbers_exit_2(tmp_path, capsys):
    from matchcover import pm_polynomial

    data = reference_json_dict(pm_polynomial(2))
    data["terms"][0]["edges"][0] = [1, 1, 1]
    check = tmp_path / "edge.json"
    check.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--n", "2", "--check-file", str(check))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed polynomial JSON: too many values to unpack")
    assert err.count("\n") == 1
    # integers longer than int() converts, in a check file and a weight file
    check.write_text('{"ground": {"mode": "bipartite", "size": 1}, "terms": [{"coeff": '
                     + "1" * 5000 + ', "edges": [[1, 1]]}]}')
    code, _, err = run(capsys, "verify", "--n", "1", "--check-file", str(check))
    assert code == 2 and err.startswith("error: malformed polynomial JSON:")
    # a ground size is a JSON integer too, though a coefficient may be true
    check.write_text('{"ground": {"mode": "bipartite", "size": true}, "terms": []}')
    code, out, err = run(capsys, "verify", "--n", "1", "--check-file", str(check))
    assert (code, out) == (2, "")
    assert err == "error: ground size must be a positive integer, got True\n"
    wfile = tmp_path / "w.txt"
    wfile.write_text("bipartite 1\n1 1 " + "9" * 5000 + "\n")
    code, _, err = run(capsys, "poly", "--n", "1", "--weights", str(wfile))
    assert code == 2 and err.startswith("error: bad weight:")
    # vertices are JSON integers, not floats, booleans or strings
    for bad, shown in ((1.0, "1.0"), (True, "True"), ("1", "'1'")):
        data = reference_json_dict(pm_polynomial(2))
        data["terms"][0]["edges"][0] = [bad, 1]
        check.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--n", "2", "--check-file", str(check))
        assert (code, out) == (2, "")
        assert err == f"error: ({shown}, 1) is not an edge of bipartite 2\n"


def test_input_files_that_do_not_decode_exit_2(tmp_path, capsys):
    from matchcover import pm_polynomial

    # a byte 0xff in a check file, a weight file and a graph file
    bad = {}
    for name, text in (("check", pm_polynomial(2).to_json()), ("weights", W22), ("graph", IDENT)):
        path = tmp_path / name
        path.write_bytes(text.encode()[:-2] + b"\xff\n")
        bad[name] = str(path)
    runs = [
        ["verify", "--n", "2", "--check-file", bad["check"]],
        ["poly", "--n", "2", "--weights", bad["weights"]],
        ["verify", "--n", "2", "--weights", bad["weights"]],
        ["coeff", "--n", "2", "--graph", bad["graph"]],
    ]
    for argv in runs:
        assert run(capsys, *argv) == (2, "", f"error: {argv[-1]} is not utf-8 text: invalid start byte\n")


def test_deeply_nested_check_file_exits_2(tmp_path, capsys):
    # 100,000 nested arrays in an extra key pass the interpreter's recursion
    # limit in json.loads
    check = tmp_path / "deep.json"
    check.write_text('{"ground": {"mode": "bipartite", "size": 1}, "terms": [], "x": '
                     + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, "verify", "--n", "1", "--check-file", str(check))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed polynomial JSON: maximum recursion depth exceeded")


def test_internal_errors_exit_3(monkeypatch, capsys):
    import matchcover.cli as cli

    def fail(n, split):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "pm_polynomial", fail)
    assert run(capsys, "poly", "--n", "2") == (3, "", "error: internal RuntimeError: boom\n")

    def exhausted(family):
        raise MemoryError()

    # verify builds the polynomial of each block of its support, never pm_polynomial
    monkeypatch.setattr(cli, "_pm_family_polynomial", exhausted)
    assert run(capsys, "verify", "--n", "2") == (3, "", "error: internal MemoryError\n")


def test_console_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(matchcover.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "matchcover.cli", "poly", "--n", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert result.stdout == POLY2_TEXT
