"""The benchmark tracer must keep working on the package.

`ridebench/tracer.py` replaces each (module, class, method) it lists with a
timing or counting wrapper, and `run.py --trace 1` fails when one is gone.
Its hooks also read the results of some wrapped functions, so a traced grid
must run through.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "ridebench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("ridebench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_method_resolves():
    tracer = load_tracer()
    listed = tracer.TIMED_METHODS + tracer.COUNTED_METHODS
    assert listed
    for modname, cls, meth in listed:
        owner = getattr(importlib.import_module(modname), cls)
        assert callable(getattr(owner, meth)), (modname, cls, meth)


TRACED_GRID = """
import json, sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from tracer import Tracer

tracer = Tracer()
tracer.install()
from ridepool import harness, netgraph
from ridepool.mechanisms import Mechanism
from ridepool.units import USEC

net = netgraph.make_grid(4, 4, 0.1, 30)
grid = harness.ScenarioGrid(
    mechanisms=tuple(Mechanism), max_waits=(240 * USEC,), mars=(Fraction(1),),
    fleet_sizes=(3,), change_fees=(0,), discount_factors=(Fraction(8, 10),),
    detour_factors=(Fraction(3, 10),), seeds=(1,), horizon=600 * USEC,
)
outcomes = harness.run_grid(grid, harness.synthetic_trips(net, 40, 600, seed=1), net)
taken = tracer.take()
# a re-priced run shares its vehicles with the run it re-prices
served = {id(res.vehicles): res.served for o in outcomes for res in (o.result, o.baseline)}
print(json.dumps({
    "enumerate_calls": taken["calls"].get("mechanisms.enumerate_candidates", 0),
    "candidates": taken["extra"].get("candidates", 0),
    "feasible": taken["extra"].get("feasible", 0),
    "pooled": sum(o.result.pooled_customers for o in outcomes),
    "quotes": taken["calls"].get("pricing.solitary_fare", 0),
    "requests": taken["extra"].get("requests", 0),
    "commits": taken["calls"].get("domain.apply_assignment", 0),
    "served": sum(served.values()),
}))
"""


def test_traced_grid_runs_every_mechanism():
    # the tracer's hooks read the results of the functions they wrap, such
    # as the items of `enumerate_candidates`; a change of shape breaks them
    import ridepool

    env = {**os.environ, "PYTHONPATH": str(Path(ridepool.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", TRACED_GRID, str(TRACER.parent)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["enumerate_calls"] > 0
    assert counts["candidates"] > 0 and counts["pooled"] > 0
    # every item of the pass is feasible (`mechanisms.feasible_ratio` 1)
    assert counts["feasible"] == counts["candidates"]
    # one solitary quote per decided request: one discount, so no cell is re-priced
    assert counts["requests"] > 0 and counts["quotes"] == counts["requests"]
    # one traced commit per rider served in each distinct simulation (`domain.commits`)
    assert counts["served"] > 0 and counts["commits"] == counts["served"]


TRACED_DISCOUNTS = """
import json, sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from tracer import Tracer

tracer = Tracer()
tracer.install()
from ridepool import harness, netgraph
from ridepool.mechanisms import Mechanism
from ridepool.units import USEC

net = netgraph.make_grid(4, 4, 0.1, 30)
grid = harness.ScenarioGrid(
    mechanisms=(Mechanism.PCP,), max_waits=(240 * USEC,), mars=(Fraction(1, 2), Fraction(1)),
    fleet_sizes=(3,), discount_factors=(Fraction(8, 10), Fraction(9, 10)),
    detour_factors=(Fraction(3, 10),), seeds=(1,), horizon=600 * USEC,
)
outcomes = harness.run_grid(grid, harness.synthetic_trips(net, 40, 600, seed=1), net)
harness.summarize(outcomes)
ran = tracer.take()
# a re-priced run shares its vehicles with the run it re-prices
distinct = {id(res.vehicles): res for o in outcomes for res in (o.result, o.baseline)}
pcp = [res for res in distinct.values() if res.mechanism == "PCP"]
records = sum(len(o.result.decision_log) + len(o.result.per_customer) for o in outcomes)
read = tracer.take()
print(json.dumps({
    "cells": len(outcomes),
    "pcp_simulations": len(pcp),
    "pcp_requests": sum(res.n_requests for res in pcp),
    "pcp_poolable": sum(res.poolable_customers for res in pcp),
    "pcp_quotes": sum(len({o.solitary_quote for o in res.per_customer.values() if o.poolable})
                      for res in pcp),
    "simulated_requests": sum(res.n_requests for res in distinct.values()),
    "served": sum(res.served for res in distinct.values()),
    "assign_pcp": ran["calls"].get("mechanisms.assign_pcp", 0),
    "commits": ran["calls"].get("domain.apply_assignment", 0),
    "quotes": ran["calls"].get("pricing.solitary_fare", 0),
    "pcp_fares": ran["calls"].get("pricing.pcp_fare", 0),
    "records": records,
    "read_calls": sum(read["calls"].values()),
}))
"""


def test_traced_grid_re_prices_a_second_discount():
    # two discounts: each PCP group of the grid is simulated at the first
    # and re-priced at the second
    import ridepool

    env = {**os.environ, "PYTHONPATH": str(Path(ridepool.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", TRACED_DISCOUNTS, str(TRACER.parent)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    # two MARs, two discounts: four cells, two PCP simulations
    assert counts["cells"] == 4 and counts["pcp_simulations"] == 2
    # only the simulated runs decide, commit and quote: a re-priced cell calls
    # neither `assign_pcp` nor `apply_assignment`, and prices one fare per
    # distinct quote of its poolable riders
    assert counts["pcp_requests"] > 0 and counts["assign_pcp"] == counts["pcp_requests"]
    assert counts["served"] > 0 and counts["commits"] == counts["served"]
    assert counts["quotes"] == counts["simulated_requests"]
    assert counts["pcp_poolable"] > 0
    assert counts["pcp_fares"] == counts["pcp_poolable"] + counts["pcp_quotes"]
    # the re-priced records are built in the round: reading them after it calls nothing traced
    assert counts["records"] > 0 and counts["read_calls"] == 0
