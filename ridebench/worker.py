"""One benchmark pass in a fresh process: set up, run rounds, gate every round.

Started by ``run.py``; writes one JSON record to ``--out``.  A plain pass
sets up several times (reporting each set-up time) and repeats identical
rounds until ``--seconds`` have passed, while ``HostMeter`` samples the
host's speed.  A traced pass installs the tracer first, sets up once and
runs one round, without host samples.  Both passes time each simulation by
wrapping ``harness.run_sim``, which the grid runner and the CLI call once
per simulation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 40, 2.0


def git_sha(root: Path) -> str:
    """Commit of a git checkout, read from its files; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe(n: int = 20000, clock=time.perf_counter) -> float:
    """Time of a fixed pure-Python workload -- exact-fraction sums and dict
    updates, the operations the simulator spends its time on."""
    t0 = clock()
    acc, table = Fraction(0), {}
    for i in range(n):
        acc += Fraction(i % 7, 1 + i % 11)
        table[i % 97] = table.get(i % 97, 0) + i
    return clock() - t0


class HostMeter:
    """Samples the host's speed while the workload runs.

    The host is shared: its speed drifts by tens of percent over seconds.
    Every ``INTERVAL_S`` a timer signal interrupts the workload between two
    bytecodes and times a fixed ``probe`` of ``PROBE_N`` steps, so each
    measured interval knows how fast the host ran meanwhile.  The probes'
    own time is subtracted from the interval.  The handler touches no
    program state.

    The probe runs in the worker's own thread: a sampler in a process of
    its own, on the other core, does not follow the drift the worker's core
    sees.  So that the program cannot slow the probe, it runs with the
    garbage collector off, so collections of the program's objects are not
    charged to it, and is timed in thread CPU time, so waits for a GIL held
    by a program thread are not either (on the 2-core x86_64 host used, CPU
    time follows wall time under host drift).  A trace or profile hook the
    program installs would still slow the probe; ``compare.py`` checks the
    unscaled figures as well.
    """

    INTERVAL_S = 0.05
    PROBE_N = 400
    MIN_SAMPLES = 6
    REF_S = 0.002  # typical probe time, amid the workload, on the 2-core x86_64 host used

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.samples.append(probe(self.PROBE_N, time.thread_time))
        self.spent += time.perf_counter() - t0
        if collecting:
            gc.enable()

    def __enter__(self):
        if not self.enabled:
            return self
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if not self.enabled:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return time.perf_counter(), self.spent, len(self.samples)

    def around(self, first: int, end: int) -> float | None:
        """Mean probe time of samples first..end-1, widened one sample on
        each side at a time until it holds ``MIN_SAMPLES``: a probe is short
        and noisy, while the host's speed changes over seconds."""
        while end - first < self.MIN_SAMPLES and (first > 0 or end < len(self.samples)):
            first, end = max(0, first - 1), end + 1
        window = self.samples[first:end]
        return sum(window) / len(window) if window else None

    def since(self, mark) -> float:
        """Seconds since ``mark``, without the probes' own time."""
        t, spent, _ = mark
        return time.perf_counter() - t - (self.spent - spent)


def environment(calibration_s: float) -> dict:
    import numpy
    from ridepool import _sp_kernels

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sp_backend": _sp_kernels.backend_name(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "calibration_s": calibration_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--work", required=True, help="scratch directory for CLI files")
    ap.add_argument("--out", required=True, help="JSON record to write")
    args = ap.parse_args(argv)

    env = environment(median(probe() for _ in range(5)))
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    import gate
    import workloads
    from ridepool import harness

    setup_fn, round_fn = workloads.WORKLOADS[args.workload]
    # the traced pass is timed by the tracer alone; probes would land in its spans
    meter = HostMeter(enabled=not tracer)
    sims = []
    run_sim = harness.run_sim

    def timed_run_sim(cfg, trips):
        mark = meter.mark()
        result = run_sim(cfg, trips)
        sims.append((cfg, result, meter.since(mark), mark[2], len(meter.samples)))
        return result

    harness.run_sim = timed_run_sim

    work = Path(args.work)
    setups, rounds = [], []
    with meter:
        ctx = None
        while len(setups) < (1 if tracer else SETUP_MIN) or (
            not tracer and sum(s for s, *_ in setups) < SETUP_BUDGET_S
            and len(setups) < SETUP_MAX
        ):
            ctx = None
            gc.collect()
            mark = meter.mark()
            ctx = setup_fn(args.seed, args.size, work)
            setups.append((meter.since(mark), mark[2], len(meter.samples)))
        phases = {"setup": tracer.take()} if tracer else {}

        start = time.perf_counter()
        while True:
            sims.clear()
            gc.collect()
            mark = meter.mark()
            try:
                outputs = round_fn(ctx)
                raised = False
            except Exception:
                traceback.print_exc()
                outputs, raised = None, True
            wall, taken = meter.since(mark), len(meter.samples)
            if tracer:
                phases["round"] = tracer.take()

            audit_failures, digests = [], []
            for cfg, result, *_ in sims:
                failures = gate.audit(cfg, result)
                if failures:
                    audit_failures.append(failures)
                digests.append(gate.sim_digest(result))
            digest = None
            if not raised:
                digest = gate.round_digest(digests, gate.output_digest(args.workload, outputs))
            if tracer:
                phases["gate"] = tracer.take()
            rounds.append({
                "wall_s": wall,
                "probe_s": meter.around(mark[2], taken),
                "sims": [(cfg.mechanism.value, result.n_requests, seconds,
                          meter.around(first, end))
                         for cfg, result, seconds, first, end in sims],
                "attempted": max(ctx.sims_per_round, len(sims)),
                "raised": raised,
                "audit_failed": len(audit_failures),
                "audit_details": audit_failures[:5],
                "digest": digest,
            })
            outputs = None
            sims.clear()
            if tracer or raised or time.perf_counter() - start >= args.seconds:
                break

    if meter.enabled and not meter.samples:
        print("error: no host-speed samples were taken", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "traced": bool(tracer),
        "environment": env,
        "probe_ref_s": HostMeter.REF_S,
        "probe_s": median(meter.samples) if meter.samples else None,
        "setups": [(seconds, meter.around(first, end)) for seconds, first, end in setups],
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        record["phases"] = phases
        record["spans"] = tracer.spans()
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
