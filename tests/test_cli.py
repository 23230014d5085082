import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import matchcover
from matchcover.cli import main

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
    code, _, err = run(capsys, "verify", "--n", "5", "--exhaustive")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "verify", "--n", "5")
    assert code == 2 and "capped" in err


def test_verify_tampered_polynomial(tmp_path, capsys):
    from matchcover import pm_polynomial

    data = pm_polynomial(2).to_json_dict()
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


def test_lattice_formats(capsys):
    code, out, _ = run(capsys, "lattice", "--n", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph lattice {")
    code, out, _ = run(capsys, "lattice", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["graded"] is True


def test_lattice_caps_and_validation(capsys):
    code, _, err = run(capsys, "lattice", "--mode", "complete", "--n", "5")
    assert code == 2 and "even" in err
    code, _, err = run(capsys, "lattice", "--mode", "complete", "--n", "8")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "lattice", "--mode", "bipartite", "--n", "5")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "lattice", "--mode", "complete", "--n", "4", "--weights", "x")
    assert code == 2


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
    code, _, err = run(capsys, "count-covered", "--n", "5")
    assert code == 2 and "capped" in err


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
    # all 25 edges are optimal: refused before anything is enumerated
    flat = _weight_file(tmp_path / "flat.txt", 5, lambda i, j: 7)
    for cmd in ("count-covered", "lattice"):
        code, out, err = run(capsys, cmd, "--n", "5", "--weights", flat)
        assert code == 2 and out == "" and "capped at 16 support edges" in err
    code, _, err = run(capsys, "lattice", "--n", "5")
    assert code == 2 and "capped" in err


def test_one_edge_cap_at_its_boundary(tmp_path, capsys):
    # zero diagonal blocks of sizes 2, 2, 2, 2 leave a 16-edge support,
    # blocks of 3, 2, 2 a 17-edge one; every other edge weighs 1
    def blocks(*sizes):
        start = [sum(sizes[:k]) for k in range(len(sizes))]
        block = [b for b, s in zip(start, sizes) for _ in range(s)]
        n = sum(sizes)
        return _weight_file(tmp_path / f"{n}.txt", n,
                            lambda i, j: 0 if block[i - 1] == block[j - 1] else 1)

    code, out, _ = run(capsys, "count-covered", "--n", "8", "--weights", blocks(2, 2, 2, 2))
    assert code == 0 and out == "count: 81\nparity: odd\n"
    wide = blocks(3, 2, 2)
    message = ("error: count-covered is capped at 16 support edges, this one has 17"
               " (override with --unsafe-caps)\n")
    assert run(capsys, "count-covered", "--n", "7", "--weights", wide) == (2, "", message)
    code, out, _ = run(capsys, "count-covered", "--n", "7", "--weights", wide, "--unsafe-caps")
    assert code == 0 and out == "count: 441\nparity: odd\n"
    # unweighted runs: K_{5,5} has 25 edges, K_8 28
    for argv, what, width in [
        (["count-covered", "--n", "5"], "count-covered", 25),
        (["lattice", "--n", "5"], "a bipartite lattice", 25),
        (["verify", "--n", "5"], "unweighted verification", 25),
        (["verify", "--n", "5", "--exhaustive"], "exhaustive verification", 25),
        (["lattice", "--mode", "complete", "--n", "8"], "complete mode", 28),
    ]:
        assert run(capsys, *argv) == (
            2, "", f"error: {what} is capped at 16 support edges, this one has {width}"
            " (override with --unsafe-caps)\n"
        )


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
    # K_{3000,3000} has 9 * 10^6 edges; building it first took 2.7 GB
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
         "error: polynomial ground bipartite 3000 does not match --n 2\n"),
        (["verify", "--n", "3000"],
         "error: unweighted verification is capped at 16 support edges, this one has"
         " 9000000 (override with --unsafe-caps)\n"),
    ]
    for argv, message in runs:
        assert_refused_small(capsys, argv, message)


def test_malformed_numbers_exit_2(tmp_path, capsys):
    from matchcover import pm_polynomial

    data = pm_polynomial(2).to_json_dict()
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
    wfile = tmp_path / "w.txt"
    wfile.write_text("bipartite 1\n1 1 " + "9" * 5000 + "\n")
    code, _, err = run(capsys, "poly", "--n", "1", "--weights", str(wfile))
    assert code == 2 and err.startswith("error: bad weight:")


def test_internal_errors_exit_3(monkeypatch, capsys):
    import matchcover.cli as cli

    def fail(n):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "pm_polynomial", fail)
    assert run(capsys, "poly", "--n", "2") == (3, "", "error: internal RuntimeError: boom\n")

    def exhausted(n):
        raise MemoryError()

    monkeypatch.setattr(cli, "pm_polynomial", exhausted)
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
