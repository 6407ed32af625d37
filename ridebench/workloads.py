"""The three benchmark workloads: inputs made from one seed, and one round.

Each workload has a ``setup`` that builds everything the first simulation
needs (network, shortest-path tables, trips, configuration files) and a
``round`` that runs the workload's unit of work once.  Rounds of one run are
identical, so their outputs must hash to the same digest.

The package is driven only through public entry points, always looked up
as module attributes at call time, so a tracer installed on those modules
sees every call: ``netgraph.make_grid``, ``harness.synthetic_trips``,
``harness.run_grid`` / ``harness.summarize`` and ``cli.main``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from ridepool import cli, harness, netgraph
from ridepool.mechanisms import Mechanism
from ridepool.units import USEC

def derived_seeds(seed: int, n: int) -> tuple[int, ...]:
    """Simulation seeds, distinct from the trip seed, all from one seed."""
    return tuple(1000 * seed + 17 + i for i in range(n))


@dataclass
class Context:
    """What a round needs."""

    sims_per_round: int
    net: object = None
    trips: list = field(default_factory=list)
    grid: object = None
    config: Path | None = None
    trips_csv: Path | None = None
    out_dir: Path | None = None


def _sims_per_round(grid) -> int:
    """run_sim calls one run_grid makes: cached baselines plus pooling cells."""
    baselines = set()
    pooling = 0
    for mech, params in grid.cells():
        for seed in grid.seeds:
            baselines.add((params["max_wait"], params["fleet"], seed))
            pooling += mech != Mechanism.SRO
    return len(baselines) + pooling


def _network(rows, edge_mi):
    net = netgraph.make_grid(rows, rows, edge_mi, 30)
    # any query builds the memoized all-pairs tables
    net.shortest_path(net.node_ids[0], net.node_ids[-1])
    return net


# ---------------------------------------------------------------------------
# battery: reduced copy of the acceptance directional battery
# ---------------------------------------------------------------------------

BATTERY = {
    "full": dict(rows=10, trips=500, fleet=38, mars=(2, 6, 10), seeds=2),
    "tiny": dict(rows=5, trips=60, fleet=6, mars=(5, 10), seeds=1),
}


def setup_battery(seed: int, size: str, work: Path) -> Context:
    p = BATTERY[size]
    net = _network(p["rows"], 0.1)
    trips = harness.synthetic_trips(net, p["trips"], 1800, seed=seed)
    grid = harness.ScenarioGrid(
        mechanisms=(Mechanism.CCP, Mechanism.PCP),
        max_waits=(240 * USEC,),
        mars=tuple(Fraction(m, 10) for m in p["mars"]),
        fleet_sizes=(p["fleet"],),
        change_fees=(2000,),
        discount_factors=(Fraction(7, 10), Fraction(8, 10), Fraction(9, 10)),
        detour_factors=(Fraction(3, 10),),
        seeds=derived_seeds(seed, p["seeds"]),
    )
    return Context(_sims_per_round(grid), net=net, trips=trips, grid=grid)


# ---------------------------------------------------------------------------
# city: a 900-node network with a large, mostly idle fleet
# ---------------------------------------------------------------------------

CITY = {
    "full": dict(rows=30, trips=600, horizon_s=540, fleet=300, seeds=2),
    "tiny": dict(rows=6, trips=80, horizon_s=900, fleet=20, seeds=1),
}


def setup_city(seed: int, size: str, work: Path) -> Context:
    p = CITY[size]
    net = _network(p["rows"], 0.1)
    trips = harness.synthetic_trips(net, p["trips"], p["horizon_s"], seed=seed)
    grid = harness.ScenarioGrid(
        mechanisms=(Mechanism.SRO, Mechanism.PCP, Mechanism.CCP),
        max_waits=(240 * USEC,),
        mars=(Fraction(1, 2),),
        fleet_sizes=(p["fleet"],),
        change_fees=(2000,),
        discount_factors=(Fraction(8, 10),),
        detour_factors=(Fraction(3, 10),),
        seeds=derived_seeds(seed, p["seeds"]),
        horizon=p["horizon_s"] * USEC,
    )
    return Context(_sims_per_round(grid), net=net, trips=trips, grid=grid)


def run_grid_round(ctx: Context):
    """One scenario grid plus its seed-averaged summaries."""
    outcomes = harness.run_grid(ctx.grid, ctx.trips, ctx.net)
    return outcomes, harness.summarize(outcomes)


# ---------------------------------------------------------------------------
# cli: `ridepool simulate` then `ridepool analyze --brackets --pareto`
# ---------------------------------------------------------------------------

CLI = {
    "full": dict(rows=8, trips=200, fleet=12, seeds=3),
    "tiny": dict(rows=4, trips=30, fleet=4, seeds=1),
}

TRIP_COLUMNS = (
    "request_time_s", "origin_node", "dest_node",
    "value_of_time_usd_per_min", "max_wait_s", "poolable",
)


def _cli_config(p, seed):
    return {
        "network": {"grid": {"rows": p["rows"], "cols": p["rows"],
                             "edge_length_mi": 0.15, "speed_mph": 30}},
        "horizon_s": 1500,
        "tariff": {
            "base_fare_usd": 2.5, "per_mile_usd": 2.5, "provider_cost_per_mile_usd": 2.945,
            "change_fee_usd": [2.0, 3.0], "discount_factor": [0.8], "detour_factor": [0.1, 0.5],
        },
        "mechanisms": ["SRO", "PCP", "CCP"],
        "max_wait_s": [240],
        "mar": [0.2, 0.6, 1.0],
        "fleet_size": [p["fleet"]],
        "seeds": list(derived_seeds(seed, p["seeds"])),
        "split_scheme": "goalprog",
    }


def setup_cli(seed: int, size: str, work: Path) -> Context:
    p = CLI[size]
    cfg = _cli_config(p, seed)
    g = cfg["network"]["grid"]
    net = netgraph.make_grid(g["rows"], g["cols"], g["edge_length_mi"], g["speed_mph"])
    trips = harness.synthetic_trips(net, p["trips"], cfg["horizon_s"], seed=seed)
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps(cfg, indent=1))
    trips_csv = work / "trips.csv"
    with open(trips_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRIP_COLUMNS)
        for r in trips:
            w.writerow([f"{r.request_time // USEC}", r.origin, r.destination, "",
                        f"{r.max_wait // USEC}", ""])
    # 1 SRO cell; PCP: mars x detours; CCP: mars x fees -- all per seed
    per_seed = 1 + 3 * 2 + 3 * 2
    return Context(per_seed * p["seeds"], config=config, trips_csv=trips_csv,
                   out_dir=work / "out")


CLI_OUTPUTS = ("summary.csv", "decisions.csv", "splits.csv", "run_accounts.csv",
               "aggregate.csv", "brackets.csv", "pareto.csv")


def cli_round(ctx: Context):
    out = ctx.out_dir
    for name in CLI_OUTPUTS:
        (out / name).unlink(missing_ok=True)
    rc = cli.main(["simulate", "--config", str(ctx.config), "--trips", str(ctx.trips_csv),
                   "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"ridepool simulate exited {rc}")
    rc = cli.main(["analyze", "--in", str(out), "--brackets", "--pareto"])
    if rc != 0:
        raise RuntimeError(f"ridepool analyze exited {rc}")
    return [out / name for name in CLI_OUTPUTS]


WORKLOADS = {
    "battery": (setup_battery, run_grid_round),
    "city": (setup_city, run_grid_round),
    "cli": (setup_cli, cli_round),
}
