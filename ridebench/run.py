"""ridepool benchmark: one workload, one seed, tracing off or on.

    python3 ridebench/run.py --workload battery --seed 1 --seconds 24 --trace 0

Run from the repository root.  Each workload runs in a fresh single-threaded
Python process (``worker.py``); ``--workload all`` runs the three one after
another and keys the metrics ``<workload>:<metric>``.  With ``--trace 0`` a
workload repeats identical rounds for ``--seconds`` and reports the
end-to-end metrics.  With
``--trace 1`` a plain pass of half that length is followed by a traced pass
of one round in another fresh process, and the per-layer metrics come from
the traced round.  Every round's outputs are gated (see ``gate.py``); at the
pinned seed their digest must also equal the one in ``digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every simulation passed the gate, 1 when the gate failed, and 2 when
the benchmark could not run at all (no result line is printed then).  Each
full record is also saved under ``.ridebench/results/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import SIM_TIME_BOUND, layer_metrics, sim_time_ratio  # noqa: E402

WORKLOADS = ("battery", "city", "cli")
MECHANISMS = ("SRO", "PCP", "CCP")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("requests_per_s", "1/s"),
    *((f"requests_per_s.{m}", "1/s") for m in MECHANISMS),
    ("peak_rss_mb", "MB"),
)
BUDGET_S = 170  # the whole command: every workload, both passes
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                  "NUMBA_NUM_THREADS")}


class CannotRun(Exception):
    """The benchmark could not produce a result at all."""


def spawn(args, workload, work: Path, seconds: float, traced: bool, deadline: float) -> dict:
    out = work / ("traced.json" if traced else "plain.json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--size", args.size,
           "--work", str(work / "files"), "--out", str(out)]
    if traced:
        cmd.append("--traced")
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise CannotRun(f"{'traced' if traced else 'plain'} pass exceeded the time budget") from exc
    if proc.returncode != 0 or not out.is_file():
        raise CannotRun(f"worker exited {proc.returncode}")
    return json.loads(out.read_text())


def pinned_digest(args, workload):
    pins = json.loads((HERE / "digests.json").read_text())
    if args.seed != pins["seed"] or args.size != pins["size"]:
        return None
    return pins["digests"].get(workload)


def judge(plain: dict, traced: dict | None, pin: str | None):
    """(attempted, failed, problems) over every round of both passes."""
    ref = plain["rounds"][0]["digest"]
    problems = []
    if pin is not None and ref != pin:
        problems.append(f"digest {ref} differs from the pinned {pin}")
    attempted = failed = 0
    rounds = plain["rounds"] + (traced["rounds"] if traced else [])
    for i, r in enumerate(rounds):
        attempted += r["attempted"]
        if r["raised"] or r["digest"] != ref or (pin is not None and r["digest"] != pin):
            failed += r["attempted"]
            if not r["raised"] and r["digest"] != ref:
                problems.append(f"round {i} digest {r['digest']} differs from round 0")
        else:
            failed += r["audit_failed"]
        if r["raised"]:
            problems.append(f"round {i} raised")
        for detail in r["audit_details"]:
            problems.append(f"round {i} audit: {detail}")
    return attempted, failed, problems


def end_to_end(rec: dict, normalize: bool = True) -> dict:
    """End-to-end metrics of a plain pass, in reference-host seconds.

    Every measured interval (set-up, round, simulation) is scaled by the
    reference probe time over the mean probe time sampled during it
    (``worker.HostMeter``).  Times are medians over set-ups and rounds;
    rates are requests over simulation seconds, summed over every round of
    the pass.
    """
    ref = rec["probe_ref_s"]

    def k(probe):
        return ref / probe if normalize else 1.0

    rounds = rec["rounds"]

    def rate(mechs):
        sims = [(n, seconds * k(probe))
                for r in rounds for mech, n, seconds, probe in r["sims"] if mech in mechs]
        seconds = sum(s for _, s in sims)
        return sum(n for n, _ in sims) / seconds if seconds else 0.0

    v = {
        "setup_s": median(s * k(p) for s, p in rec["setups"]),
        "wall_s": median(r["wall_s"] * k(r["probe_s"]) for r in rounds),
        "requests_per_s": rate(MECHANISMS),
        **{f"requests_per_s.{m}": rate((m,)) for m in MECHANISMS},
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    return {name: {"value": v[name], "unit": unit} for name, unit in END_TO_END}


def measure(args, workload: str, deadline: float) -> dict:
    """Run one workload, print its metrics, save its record; the result line."""
    work = ROOT / ".ridebench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plain_seconds = args.seconds / 2 if args.trace else args.seconds
        plain = spawn(args, workload, work, plain_seconds, False, deadline)
        traced = spawn(args, workload, work, 0, True, deadline) if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pin = pinned_digest(args, workload)
    attempted, failed, problems = judge(plain, traced, pin)
    raw = end_to_end(plain, normalize=False)
    if traced:
        ph = traced["phases"]
        metrics = layer_metrics(ph["setup"], ph["round"], ph["gate"],
                                traced["rounds"][0]["wall_s"], raw["wall_s"]["value"])
        ratio = sim_time_ratio(ph["round"], sum(sim[2] for sim in traced["rounds"][0]["sims"]))
        if abs(ratio - 1) > SIM_TIME_BOUND:
            problems.append(f"traced run_sim time is {ratio:.4f} of the simulations' own timer")
    else:
        metrics = end_to_end(plain)
    correct = failed == 0 and not problems

    digest = plain["rounds"][0]["digest"]
    print(f"ridebench {workload} seed={args.seed} trace={args.trace} size={args.size}")
    print("  " + " ".join(f"{k}={v}" for k, v in plain["environment"].items()))
    print(f"  rounds={len(plain['rounds'])} digest={digest} pinned="
          + ("n/a" if pin is None else "match" if pin == digest else "MISMATCH"))
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']:<6}"
              + (f" (measured {raw[name]['value']:.6g})" if name in raw else ""))
    print(f"  {'failed_frac':<42} {failed / attempted:>16.6g} ({failed}/{attempted})")
    for p in problems:
        print(f"  FAIL {p}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {**result, "args": {**vars(args), "workload": workload},
              "failed_frac": failed / attempted, "problems": problems, "measured": raw,
              "environment": plain["environment"], "plain": plain, "traced": traced,
              "finished": time.time()}
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
     ).write_text(json.dumps(record))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the self-tests; only full is pinned")
    ap.add_argument("--results", default=str(ROOT / ".ridebench" / "results"),
                    help="directory for the full result records")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "ridepool" / "__init__.py").is_file():
        print(f"error: no ridepool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S
    try:
        results = {w: measure(args, w, deadline) for w in names}
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (line,) = results.values()
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
