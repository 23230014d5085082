"""What the package promises to its users: the public names, the README's
library tour, and the library functions the benchmark wraps."""

import ast
import contextlib
import importlib.util
import io
import re
import types
from pathlib import Path

import matchcover
import matchcover.cli

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "BIPARTITE",
    "COMPLETE",
    "CapExceededError",
    "CoveredSet",
    "EulerianCheck",
    "Family",
    "Graph",
    "GroundGraph",
    "InputError",
    "Lattice",
    "MultilinearPolynomial",
    "RankLabels",
    "StructureViolationError",
    "WeightFunction",
    "bipartite_ground",
    "build_lattice",
    "coefficient_query",
    "complete_ground",
    "component_count",
    "contains_min_weight_pm",
    "covered_closure",
    "cyclomatic_number",
    "edge_list_str",
    "enumerate_min_weight_pms",
    "enumerate_perfect_matchings",
    "has_perfect_matching",
    "hungarian",
    "membership_oracle",
    "membership_polynomial_general",
    "min_weight_pm_polynomial",
    "parse_graph",
    "parse_rational",
    "parse_weight_function",
    "pm_polynomial",
    "pm_support",
    "support_union",
    "truth_table_transform",
]


def test_public_names_are_pinned():
    # submodules (matchcover.cli once imported, ...) are not names of the API
    names = sorted(
        name
        for name, value in vars(matchcover).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_readme_tour_runs_and_its_comments_hold():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    printed = io.StringIO()
    checked = []
    with contextlib.redirect_stdout(printed):
        for stmt in ast.parse(block).body:
            tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
            if isinstance(stmt, ast.Expr) and tail.startswith("#"):
                value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
                want = ast.literal_eval(tail[1:].strip())
                assert value == want, ast.unparse(stmt)
                checked.append(want)
            else:
                exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == ["+1 x[1,1] x[2,2]\n", -1, True, (True, True, True)]
    # the comment lines under print(...) are what it prints
    start = next(k for k, line in enumerate(lines) if line.startswith("print("))
    shown = []
    for line in lines[start + 1 :]:
        if not line.startswith("# "):
            break
        shown.append(line[2:])
    assert shown == [
        "+1 x[1,1] x[2,2]",
        "+1 x[1,2] x[2,1]",
        "-1 x[1,1] x[1,2] x[2,1] x[2,2]",
    ]
    assert printed.getvalue() == "\n".join(shown) + "\n\n"


def test_benchmark_wrap_points_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.skipped == []
        assert len(tracer._installed) == len(spans.WRAP_POINTS)
    finally:
        tracer.uninstall()
    assert not hasattr(matchcover.cli.main, "__wrapped__")  # uninstalled
