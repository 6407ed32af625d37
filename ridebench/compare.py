"""Compare two sets of benchmark results: a parent commit and a change.

    python3 ridebench/compare.py PARENT CHANGE [--claim WORKLOAD:METRIC ...]

PARENT and CHANGE are directories (or single files) of result records that
``run.py`` saved under ``.ridebench/results/``; use ``--results`` there to
keep the two sides apart.  Untraced records give the end-to-end metrics.

Regressions: for every end-to-end metric in ``BENCHMARK.json`` and every
workload, the change's median must not be worse than the parent's by more
than the metric's bound.  Where either side's spread (interquartile range
over median) exceeds the bound, the pair is reported as unresolved, unless
every change run is better than every parent run.  This is checked twice:
on the reported, host-scaled values and on the measured, unscaled ones, so
a slowdown that also slowed the host sampler cannot hide in the scaling.

Claims: pair the runs of each side in the order they finished (so run them
alternately, parent first in one pair and change first in the next).  A
claim holds with at least 10 pairs, a win in at least 9 of every 10 pairs
(ties count for neither side), and a gap between the medians larger than
the parent's interquartile range.

The exit code is 1 when a regression is found or a claim does not hold.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    records = [json.loads(f.read_text()) for f in files]
    return sorted((r for r in records if r["args"]["trace"] == 0), key=lambda r: r["finished"])


def iqr(values) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = quantiles(values, n=4)
    return q3 - q1


def values(records, workload, metric, key="metrics") -> list[float]:
    return [r[key][metric]["value"] for r in records
            if r["args"]["workload"] == workload and metric in r[key]]


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def regressions(parent, change, spec, key) -> list[str]:
    bad = []
    workloads = [w["name"] for w in spec["workloads"]]
    print("\nreported, host-scaled:" if key == "metrics" else "\nmeasured, unscaled:")
    print(f"{'workload':<9} {'metric':<22} {'parent':>12} {'change':>12} {'worse':>8} "
          f"{'spread p/c':>13}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            p, c = values(parent, w, m["name"], key), values(change, w, m["name"], key)
            if not p or not c:
                print(f"{w:<9} {m['name']:<22} {'-':>12} {'-':>12} {'':>8} {'':>13}  missing")
                bad.append(f"{w}:{m['name']} ({key}) missing")
                continue
            mp, mc = median(p), median(c)
            worse = (mc - mp) / mp if m["better"] == "lower" else (mp - mc) / mp
            sp, sc = iqr(p) / mp, iqr(c) / mc
            if max(sp, sc) > m["bound"]:
                clear = all(better(x, y, m["better"]) for x in c for y in p)
                verdict = "better (every run)" if clear else "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                bad.append(f"{w}:{m['name']} ({key}) worse by {worse:.1%} "
                           f"(bound {m['bound']:.0%})")
            else:
                verdict = "ok"
            print(f"{w:<9} {m['name']:<22} {mp:>12.5g} {mc:>12.5g} {worse:>8.1%} "
                  f"{sp:>6.1%}/{sc:<6.1%}  {verdict}")
    return bad


def claim(parent, change, spec, text: str) -> bool:
    workload, _, metric = text.partition(":")
    direction = next(m["better"] for m in spec["end_to_end"] + spec["per_layer"]
                     if m["name"] == metric)
    p, c = values(parent, workload, metric), values(change, workload, metric)
    pairs = list(zip(p, c))
    wins = sum(better(y, x, direction) for x, y in pairs)
    gap = abs(median(c) - median(p)) if pairs else 0.0
    spread = iqr(p)
    ok = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gap > spread
          and better(median(c), median(p), direction))
    print(f"claim {text}: {len(pairs)} pairs, {wins} wins, median {median(p):.5g} -> "
          f"{median(c):.5g} (gap {gap:.5g}, parent IQR {spread:.5g}): "
          f"{'holds' if ok else 'NOT MET'}" if pairs else f"claim {text}: no pairs: NOT MET")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    for label, recs in (("parent", parent), ("change", change)):
        cal = [r["environment"]["calibration_s"] for r in recs]
        shas = sorted({r["environment"]["git_sha"] for r in recs})
        print(f"{label}: {len(recs)} runs, sha {','.join(shas)}, host calibration median "
              f"{median(cal) if cal else float('nan'):.4g} s")
    bad = regressions(parent, change, spec, "metrics") + regressions(parent, change, spec,
                                                                     "measured")
    unmet = [c for c in args.claim if not claim(parent, change, spec, c)]
    for b in bad:
        print(f"regression: {b}")
    return 1 if bad or unmet else 0


if __name__ == "__main__":
    sys.exit(main())
