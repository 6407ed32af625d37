"""Static checks over the package's own source, in place of a linter."""

import ast
import json
from pathlib import Path

import pytest

import ridepool
from tests.test_verify import AUDIT_MUTATIONS

SOURCES = sorted(Path(ridepool.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
BENCH_RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def imported_names(tree):
    """(bound name, line) of each import in `tree` but `__future__`'s `annotations`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    yield name, node.lineno


def read_names(tree):
    """The names `tree` reads: each loaded `Name`, which is also the base of
    every attribute chain, in annotations too, string annotations parsed."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= read_names(ast.parse(note.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = read_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree)
              if name not in used]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse("from .mechanisms import POOLED, UNSERVED\n"
                     "import numpy as np\n"
                     "def f(d) -> 'np.ndarray':\n"
                     "    return d.decision == UNSERVED\n")
    used = read_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["POOLED"]


def failing_verdicts(tree, audits):
    """(function, check) of each `Verdict` call inside the functions named
    `audits` whose `passed` argument is the constant False; a conditional
    check gives the names of both branches."""
    def names(node):
        if isinstance(node, ast.IfExp):
            return names(node.body) | names(node.orelse)
        assert isinstance(node, ast.Constant), ast.dump(node)
        return {node.value}

    found = set()
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in audits):
            continue
        for call in ast.walk(fn):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Verdict":
                args = dict(zip(("fixture", "check", "passed", "detail"), call.args))
                args.update((k.arg, k.value) for k in call.keywords)
                passed = args["passed"]
                if isinstance(passed, ast.Constant) and passed.value is False:
                    found |= {(fn.name, check) for check in names(args["check"])}
    return found


def run_audits(tree):
    """The names of the functions in `tree` whose first parameter is a `SimResult`."""
    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.args.args
            and getattr(fn.args.args[0].annotation, "id", None) == "SimResult"}


def test_every_failing_audit_verdict_is_provoked():
    """Each failing verdict of the run audits in `verify.py` has its corruption
    in `tests/test_verify.py::AUDIT_MUTATIONS`, so no audit verdict, an added
    audit's included, goes untested."""
    tree = ast.parse((Path(ridepool.__file__).parent / "verify.py").read_text())
    audits = run_audits(tree)
    assert audits >= {"check_individual_rationality", "check_detour_bounds", "check_replay",
                      "check_reduces_to_sro"}
    assert failing_verdicts(tree, audits) == set(AUDIT_MUTATIONS)


def test_a_failing_verdict_is_found_in_both_branches():
    tree = ast.parse("def audit(ok):\n"
                     "    if ok:\n"
                     "        return Verdict('a', 'fine', True, '')\n"
                     "    v = Verdict('a', 'x' if ok else 'y', False, '')\n"
                     "    return Verdict('a', check='z', passed=False, detail='')\n"
                     "def other():\n"
                     "    return Verdict('b', 'w', False, '')\n")
    assert failing_verdicts(tree, {"audit"}) == {("audit", "x"), ("audit", "y"), ("audit", "z")}


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=[p.name for p in BENCH_RECORDS])
def test_every_bench_record_names_a_declared_claim(path):
    """Each root `BENCH_*.json` parses, says what changed, how it was run, in
    which order and on what host, and claims a `workload:metric` that
    `BENCHMARK.json` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    assert [k for k in ("change", "command", "order", "host", "claim") if k not in record] == []
    workload, colon, metric = record["claim"]["metric"].partition(":")
    assert colon and workload in {w["name"] for w in spec["workloads"]}
    assert metric in {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}


def test_bench_records_exist():
    """The glob finds the records, so the check above is not vacuous."""
    assert len(BENCH_RECORDS) >= 11
