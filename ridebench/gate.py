"""Correctness gate: digests of public outputs plus the package's own audits.

A simulation's digest covers its decision log, per-customer outcomes, fleet
distance, fares and profit.  A round's digest covers the digests of every
simulation it ran, in order, plus the workload's own outputs: the
seed-averaged summaries for the grid workloads, the bytes of every CSV for
``cli``.  Every simulation is also audited with ``verify.check_replay``;
customer-centered runs with ``check_individual_rationality`` and
provider-centered runs with ``check_detour_bounds``.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

from ridepool import verify
from ridepool.mechanisms import Mechanism


def _canon(obj):
    """Order-independent, exact text form of nested dicts, lists and numbers."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}"
                              for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(x) for x in obj) + "]"
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    return repr(obj)


def sim_digest(result) -> str:
    h = hashlib.sha256()
    for row in result.decision_log:
        h.update(repr(row).encode())
    for cid in sorted(result.per_customer):
        h.update(repr(result.per_customer[cid]).encode())
    h.update(_canon([result.fleet_distance, result.fares_total, result.profit]).encode())
    return h.hexdigest()


def summaries_digest(summaries) -> str:
    text = _canon([[s.label, s.mechanism, s.params, s.per_mar] for s in summaries])
    return hashlib.sha256(text.encode()).hexdigest()


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        p = Path(p)
        data = p.read_bytes()
        h.update(f"{p.name}:{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


def round_digest(sim_digests, output_digest: str) -> str:
    h = hashlib.sha256()
    for d in sim_digests:
        h.update(d.encode())
    h.update(output_digest.encode())
    return h.hexdigest()


def output_digest(workload: str, outputs) -> str:
    if workload == "cli":
        return files_digest(outputs)
    _, summaries = outputs
    return summaries_digest(summaries)


def audit(cfg, result) -> list[str]:
    """Detail of every failed audit of one simulation; empty when all pass."""
    verdicts = [verify.check_replay(result)]
    if cfg.mechanism == Mechanism.CCP:
        verdicts.append(verify.check_individual_rationality(result))
    elif cfg.mechanism == Mechanism.PCP:
        verdicts.append(verify.check_detour_bounds(result, cfg.tariff.detour_factor))
    return [f"{v.fixture}/{v.check}: {v.detail}" for v in verdicts if not v.passed]
