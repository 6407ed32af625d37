"""Outside-in tracing of the ridepool layers.

``Tracer.install`` replaces every public function of the package's layer
modules with a wrapper, at every module attribute that names it: modules
import names directly (``simengine.assign_pcp``, ``mechanisms.plan_stop_times``,
``harness.run_sim``), so each lookup site is patched, not only the defining
module.  A few methods are wrapped on their class.  Leaf methods called
millions of times per run (table lookups, ``VehicleState.is_idle``) are only
counted: timing them would double the run.  Generator functions are left
alone; their work shows up in the consumer that iterates them.

Each timed call adds its duration to the function's inclusive time and its
duration minus its timed children to the function's self time.  So, by
construction, the self times of everything below ``run_sim`` add up to
``run_sim``'s inclusive time; that identity says nothing about coverage,
because time in unwrapped code (private helpers, methods, counted-only
calls) lands in its caller's self time.
Coarse calls (grid, simulation, CLI command, CSV write, table build, audit)
are also kept as spans with their parent span, and written out at the end.
Everything stays in memory until ``take`` or ``spans`` reads it.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict
from types import FunctionType

LAYER_OF_MODULE = {
    "ridepool.netgraph": "netgraph",
    "ridepool._sp_kernels": "netgraph",
    "ridepool.domain": "domain",
    "ridepool.mechanisms": "mechanisms",
    "ridepool.pricing": "pricing",
    "ridepool.simengine": "simengine",
    "ridepool.costshare": "costshare",
    "ridepool.harness": "harness",
    "ridepool.io": "io",
    "ridepool.cli": "cli",
    "ridepool.verify": "verify",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))

RUN_SIM = "simengine.run_sim"
COARSE = {
    "harness.run_grid", RUN_SIM, "harness.summarize", "cli.main", "cli.cmd_simulate",
    "cli.cmd_analyze", "io.write_csv", "netgraph.build_tables",
    "verify.check_replay", "verify.check_individual_rationality", "verify.check_detour_bounds",
}
# (module, class, method): counted only
COUNTED_METHODS = (
    ("ridepool.netgraph", "RoadNetwork", "duration_usec"),
    ("ridepool.netgraph", "RoadNetwork", "distance_umiles"),
    ("ridepool.netgraph", "RoadNetwork", "reachable"),
    ("ridepool.domain", "VehicleState", "is_idle"),
)
TIMED_METHODS = (
    ("ridepool.netgraph", "RoadNetwork", "path_indices"),
    ("ridepool.netgraph", "RoadNetwork", "shortest_path"),
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)  # name -> calls
        self.incl = defaultdict(int)  # name -> ns, inclusive
        self.own = defaultdict(int)  # name -> ns, self
        self.extra = defaultdict(int)  # counters taken from arguments and results
        self._stack = [[0]]  # child ns of each open timed call
        self._spans = []  # [name, start_ns, end_ns, parent index]
        self._open = [-1]  # indices of open coarse spans
        self._seen_paths = set()

    # -- installation -------------------------------------------------------

    def install(self):
        import ridepool.cli  # noqa: F401  (imports every layer module)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ridepool" or name.startswith("ridepool.")]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, FunctionType) or attr.startswith("_"):
                    continue
                layer = LAYER_OF_MODULE.get(obj.__module__)
                if layer is None or inspect.isgeneratorfunction(obj):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._timed(f"{layer}.{obj.__name__}", obj)
                setattr(mod, attr, wrappers[obj])
        for modname, cls, meth in TIMED_METHODS + COUNTED_METHODS:
            owner = getattr(sys.modules[modname], cls)
            fn = getattr(owner, meth)
            name = f"{LAYER_OF_MODULE[modname]}.{cls}.{meth}"
            timed = (modname, cls, meth) in TIMED_METHODS
            setattr(owner, meth, self._timed(name, fn) if timed else self._counted(name, fn))

    # -- wrappers -------------------------------------------------------------

    def _counted(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, name, fn):
        calls, incl, own, stack = self.calls, self.incl, self.own, self._stack
        spans, open_spans = self._spans, self._open
        clock = time.perf_counter_ns
        coarse = name in COARSE
        pre, post = _HOOKS.get(name, (None, None))
        tracer = self

        def timed(*args, **kwargs):
            if pre is not None:
                args = pre(tracer, args)
            if coarse:
                open_spans.append(len(spans))
                spans.append([name, clock(), 0, open_spans[-2]])
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                calls[name] += 1
                incl[name] += dt
                own[name] += dt - frame[0]
                if coarse:
                    spans[open_spans.pop()][2] = t1
            if post is not None:
                post(tracer, args, result)
            return result

        return timed

    # -- read-out -------------------------------------------------------------

    def take(self) -> dict:
        """Counters since the last call, then reset them."""
        out = {
            "calls": dict(self.calls), "incl_ns": dict(self.incl), "self_ns": dict(self.own),
            "extra": dict(self.extra),
        }
        for d in (self.calls, self.incl, self.own, self.extra):
            d.clear()
        return out

    def spans(self) -> list:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p} for n, s, e, p in self._spans]


# ---------------------------------------------------------------------------
# hooks: counters read from arguments and results, outside the timed call
# ---------------------------------------------------------------------------

def _post_tables(tr, args, result):
    tr.extra["table_bytes"] = sum(int(a.nbytes) for a in result)


def _post_enumerate(tr, args, result):
    tr.extra["candidates"] += len(result)
    tr.extra["feasible"] += sum(1 for c in result if c.feasible)


def _post_pair(tr, args, result):
    tr.extra["admissible"] += bool(result.feasible)


def _post_run_sim(tr, args, result):
    tr.extra["requests"] += result.n_requests
    tr.extra["sro_sims"] += args[0].mechanism.value == "SRO"


def _post_run_grid(tr, args, result):
    tr.extra["grid_outcomes"] += len(result)


def _post_path(tr, args, result):
    key = (id(args[0]), args[1], args[2])
    if key in tr._seen_paths:
        tr.extra["path_hits"] += 1
    else:
        tr._seen_paths.add(key)


def _pre_write(tr, args):
    path, header, rows = args

    def counting():
        for row in rows:
            tr.extra["rows_written"] += 1
            yield row

    return path, header, counting()


def _post_write(tr, args, result):
    tr.extra["bytes_written"] += os.path.getsize(args[0])


_HOOKS = {
    "netgraph.build_tables": (None, _post_tables),
    "mechanisms.enumerate_candidates": (None, _post_enumerate),
    "mechanisms.pooled_pair_economics": (None, _post_pair),
    RUN_SIM: (None, _post_run_sim),
    "harness.run_grid": (None, _post_run_grid),
    "netgraph.RoadNetwork.path_indices": (None, _post_path),
    "io.write_csv": (_pre_write, _post_write),
}


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

SIM_TIME_BOUND = 0.02  # |traced run_sim time / the worker's own simulation timer - 1|

PER_LAYER = (
    ("netgraph.table_build_s", "s"),
    ("netgraph.table_bytes", "bytes"),
    ("netgraph.lookups", "count"),
    ("netgraph.path_calls", "count"),
    ("netgraph.path_cache_hit_ratio", "ratio"),
    ("mechanisms.assign_s", "s"),
    ("mechanisms.enumerate_s", "s"),
    ("mechanisms.candidates_per_request", "count"),
    ("mechanisms.feasible_ratio", "ratio"),
    ("mechanisms.solitary_scans_per_request", "count"),
    ("mechanisms.pair_economics_s", "s"),
    ("mechanisms.admissible_ratio", "ratio"),
    ("domain.plan_stop_times_calls", "count"),
    ("domain.is_idle_calls", "count"),
    ("domain.apply_assignment_s", "s"),
    ("domain.commits", "count"),
    ("domain.extract_runs_s", "s"),
    ("pricing.route_fare_calls", "count"),
    ("pricing.route_fare_s", "s"),
    ("pricing.solitary_fare_calls_per_request", "count"),
    ("simengine.run_sim_s", "s"),
    ("simengine.run_sim_self_s", "s"),
    ("costshare.split_s", "s"),
    ("costshare.split_calls", "count"),
    ("harness.run_grid_self_s", "s"),
    ("harness.baseline_reuse_ratio", "ratio"),
    ("harness.summarize_s", "s"),
    ("io.write_s", "s"),
    ("io.rows_written", "count"),
    ("io.bytes_written", "bytes"),
    ("cli.analyze_s", "s"),
    ("verify.audit_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS if layer != "verify"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup: dict, rnd: dict, gate: dict, traced_wall: float,
                  plain_wall: float) -> dict:
    """Per-layer values of one traced round; table figures include set-up."""
    calls, extra = rnd["calls"], rnd["extra"]

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def s(*names, phase=rnd, key="incl_ns"):
        return sum(phase[key].get(n, 0) for n in names) / 1e9

    requests = extra.get("requests", 0)
    candidates = extra.get("candidates", 0)
    table = "netgraph.build_tables"
    v = {
        "netgraph.table_build_s": s(table, phase=setup) + s(table),
        "netgraph.table_bytes": extra.get("table_bytes", setup["extra"].get("table_bytes", 0)),
        "netgraph.lookups": c("netgraph.RoadNetwork.duration_usec",
                              "netgraph.RoadNetwork.distance_umiles",
                              "netgraph.RoadNetwork.reachable"),
        "netgraph.path_calls": c("netgraph.RoadNetwork.path_indices"),
        "netgraph.path_cache_hit_ratio": _ratio(extra.get("path_hits", 0),
                                                c("netgraph.RoadNetwork.path_indices")),
        "mechanisms.assign_s": s("mechanisms.assign_sro", "mechanisms.assign_pcp",
                                 "mechanisms.assign_ccp"),
        "mechanisms.enumerate_s": s("mechanisms.enumerate_candidates", "mechanisms.best_solitary"),
        "mechanisms.candidates_per_request": _ratio(candidates, requests),
        "mechanisms.feasible_ratio": _ratio(extra.get("feasible", 0), candidates),
        "mechanisms.solitary_scans_per_request": _ratio(
            c("mechanisms.enumerate_candidates", "mechanisms.best_solitary"), requests),
        "mechanisms.pair_economics_s": s("mechanisms.pooled_pair_economics"),
        "mechanisms.admissible_ratio": _ratio(extra.get("admissible", 0),
                                              c("mechanisms.pooled_pair_economics")),
        "domain.plan_stop_times_calls": c("domain.plan_stop_times"),
        "domain.is_idle_calls": c("domain.VehicleState.is_idle"),
        "domain.apply_assignment_s": s("domain.apply_assignment"),
        "domain.commits": c("domain.apply_assignment"),
        "domain.extract_runs_s": s("domain.extract_runs"),
        "pricing.route_fare_calls": c("pricing.route_fare"),
        "pricing.route_fare_s": s("pricing.route_fare"),
        "pricing.solitary_fare_calls_per_request": _ratio(c("pricing.solitary_fare"), requests),
        "simengine.run_sim_s": s(RUN_SIM),
        "simengine.run_sim_self_s": s(RUN_SIM, key="self_ns"),
        "costshare.split_s": s("costshare.goalprog_split", "costshare.shapley_split"),
        "costshare.split_calls": c("costshare.goalprog_split", "costshare.shapley_split"),
        "harness.run_grid_self_s": s("harness.run_grid", key="self_ns"),
        "harness.baseline_reuse_ratio": 1 - _ratio(extra.get("sro_sims", 0),
                                                   extra.get("grid_outcomes", 0)),
        "harness.summarize_s": s("harness.summarize"),
        "io.write_s": s("io.write_csv"),
        "io.rows_written": extra.get("rows_written", 0),
        "io.bytes_written": extra.get("bytes_written", 0),
        "cli.analyze_s": s("cli.cmd_analyze"),
        "verify.audit_s": s("verify.check_replay", "verify.check_individual_rationality",
                            "verify.check_detour_bounds", phase=gate),
        "trace.overhead_ratio": _ratio(traced_wall, plain_wall),
    }
    for layer in LAYERS:
        if layer != "verify":
            v[f"{layer}.self_s"] = sum(
                ns for n, ns in rnd["self_ns"].items() if n.startswith(layer + ".")) / 1e9
    return {name: {"value": v[name], "unit": unit} for name, unit in PER_LAYER}


def sim_time_ratio(rnd: dict, worker_sim_s: float) -> float:
    """The tracer's ``run_sim`` time over the worker's own timer around each
    simulation of the round.  Below 1 when simulations escape the tracer (a
    lookup site left unwrapped), above 1 when it counts time twice."""
    return _ratio(rnd["incl_ns"].get(RUN_SIM, 0) / 1e9, worker_sim_s)
