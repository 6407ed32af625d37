"""The benchmark at its pinned seed reproduces the digests in
``ridebench/digests.json``: every workload's outputs are byte-identical to
the recorded ones and pass the gate."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pinned_digests_match(tmp_path):
    proc = subprocess.run(
        [sys.executable, "ridebench/run.py", "--workload", "all", "--seconds", "0",
         "--results", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0, proc.stdout[-2000:]
    assert proc.stdout.count("pinned=match") == 3, proc.stdout[-2000:]
