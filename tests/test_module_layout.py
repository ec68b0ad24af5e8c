"""Which modules own the realization text and JSON forms, the B^n transform and the solver.

``cli`` is the one reader and writer of the PTF text, weight-line,
shared-weight JSON and XOR-list JSON forms; ``core`` keeps the table text
form behind ``TruthTable.__str__``.  The math modules raise ValueError on
bad values and never build a ParseError.  ``ptf`` alone runs the
subset-sum transform over B^n, and ``lp`` alone imports the solver.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from pathlib import Path

import ptfkit

SRC = Path(ptfkit.__file__).parent
FORM_NAMES = ("*_to_json", "*_from_json", "parse_*", "format_*")


def _trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
    }


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name a module binds, reads, imports or lists as a string."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_only_the_readers_mention_parse_error():
    mentions = {name for name, tree in _trees().items() if "ParseError" in _identifiers(tree)}
    assert mentions == {"__init__", "cli", "core", "errors"}


def test_only_cli_defines_form_readers_and_writers():
    defined = {
        (name, node.name)
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(fnmatch(node.name.lstrip("_"), pattern) for pattern in FORM_NAMES)
    }
    outside_cli = {d for d in defined if d[0] != "cli"}
    assert outside_cli == {("core", "parse_table"), ("core", "format_table")}
    assert {
        "format_fraction", "parse_fraction", "format_monomial", "parse_monomial",
        "format_ptf_text", "parse_weight_lines", "parse_ptf_text",
        "shared_weight_to_json", "shared_weight_from_json",
        "xor_list_to_json", "xor_list_from_json", "hov_to_json", "certificate_to_json",
    } <= {fn for module, fn in defined if module == "cli"}


def _imports(tree: ast.Module) -> set[str]:
    """The dotted name of every module and name an import statement names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_only_lp_imports_the_solver():
    # lp.feasible is the one entry to _simplex, and it re-checks every proof
    importers = {
        name
        for name, tree in _trees().items()
        if any(part == "_simplex" for dotted in _imports(tree) for part in dotted.split("."))
    }
    assert importers == {"lp"}


def test_only_ptf_runs_the_subset_sum_transform():
    transform = {"_subset_sums", "_scaled_sums"}
    mentions = {name for name, tree in _trees().items() if transform & _identifiers(tree)}
    assert mentions == {"ptf"}


def test_inside_ptf_only_scaled_sums_calls_the_transform():
    # the monomial matrix is the subset test itself, not a transform of unit vectors
    callers = {
        fn.name
        for fn in ast.walk(_trees()["ptf"])
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_subset_sums"
    }
    assert callers == {"_scaled_sums"}
