"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest -q ridebench/selftest.py

The file name keeps these tests out of the package's own test suite; they
start the benchmark as a command, the way it is used.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path, workload, trace=0, seed=1, cwd=ROOT):
    results = tmp_path / "results"
    proc = subprocess.run(
        [sys.executable, "ridebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny", "--results", str(results)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    records = sorted(results.glob("*.json")) if results.is_dir() else []
    return proc, (json.loads(records[-1].read_text()) if records else None)


def test_spec_names_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(tmp_path, workload):
    proc, record = bench(tmp_path, workload)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in last["metrics"].values())
    digests = {r["digest"] for r in record["plain"]["rounds"]}
    assert len(digests) == 1 and None not in digests


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_digest_equals_untraced(tmp_path, workload):
    proc, record = bench(tmp_path, workload, trace=1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"]
    assert list(last["metrics"]) == [name for name, _ in PER_LAYER]
    assert record["traced"]["rounds"][0]["digest"] == record["plain"]["rounds"][0]["digest"]
    assert last["metrics"]["simengine.run_sim_s"]["value"] > 0


def test_digest_stable_across_runs(tmp_path):
    digests = []
    for name in ("a", "b"):
        proc, record = bench(tmp_path / name, "battery", seed=3)
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.append(record["plain"]["rounds"][0]["digest"])
    assert digests[0] == digests[1]


def test_seed_changes_inputs(tmp_path):
    digests = []
    for seed in (1, 2):
        _, record = bench(tmp_path / str(seed), "cli", seed=seed)
        digests.append(record["plain"]["rounds"][0]["digest"])
    assert digests[0] != digests[1]


def test_gate_fails_on_tampered_simulation(tmp_path):
    ctx = workloads.setup_battery(5, "tiny", tmp_path)
    outcomes, _ = workloads.run_grid_round(ctx)
    oc = next(o for o in outcomes if o.mechanism == "CCP" and o.result.pooled_customers)
    cfg_like = SimpleNamespace(mechanism=workloads.Mechanism.CCP)
    assert gate.audit(cfg_like, oc.result) == []
    before = gate.sim_digest(oc.result)
    oc.result.fleet_distance += 1
    assert gate.sim_digest(oc.result) != before
    assert any("replay" in f for f in gate.audit(cfg_like, oc.result))
    oc.result.fleet_distance -= 1
    cust = next(c for c in oc.result.per_customer.values() if c.poolable)
    cust.total_cost = cust.baseline_solitary_cost + 1
    assert any("individual-rationality" in f for f in gate.audit(cfg_like, oc.result))


def test_gate_fails_on_tampered_file(tmp_path):
    ctx = workloads.setup_cli(1, "tiny", tmp_path)
    paths = workloads.cli_round(ctx)
    before = gate.files_digest(paths)
    data = bytearray(paths[1].read_bytes())
    data[-2] ^= 1
    paths[1].write_bytes(bytes(data))
    assert gate.files_digest(paths) != before


def test_judge_counts_pin_mismatch_and_drift_as_failures():
    rnd = {"attempted": 4, "raised": False, "audit_failed": 0, "audit_details": [], "digest": "a"}
    plain = {"rounds": [dict(rnd), dict(rnd)]}
    assert run.judge(plain, None, "a")[:2] == (8, 0)
    attempted, failed, problems = run.judge(plain, None, "b")
    assert (attempted, failed) == (8, 8) and problems
    plain["rounds"][1]["digest"] = "c"
    assert run.judge(plain, None, None)[:2] == (8, 4)
    traced = {"rounds": [dict(rnd, audit_failed=1)]}
    assert run.judge({"rounds": [dict(rnd)]}, traced, None)[:2] == (8, 1)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = bench(tmp_path, "battery", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _records(directory: Path, wall: list[float], start: float):
    directory.mkdir()
    for i, w in enumerate(wall):
        metrics = {m["name"]: {"value": 100.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        metrics["wall_s"]["value"] = w
        for workload in run.WORKLOADS:
            rec = {"args": {"workload": workload, "trace": 0}, "metrics": metrics,
                   "measured": metrics,
                   "environment": {"calibration_s": 0.1, "git_sha": directory.name},
                   "finished": start + 2 * i}
            (directory / f"{workload}-{i}.json").write_text(json.dumps(rec))


def test_compare_flags_regressions_and_judges_claims(tmp_path, capsys):
    import compare

    _records(tmp_path / "parent", [100.0 + i % 3 for i in range(10)], 0)
    _records(tmp_path / "faster", [80.0 + i % 3 for i in range(10)], 1)
    _records(tmp_path / "slower", [140.0 + i % 3 for i in range(10)], 1)
    parent, faster, slower = (str(tmp_path / n) for n in ("parent", "faster", "slower"))
    assert compare.main([parent, faster, "--claim", "battery:wall_s"]) == 0
    assert compare.main([parent, slower]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main([parent, slower, "--claim", "battery:wall_s"]) == 1
