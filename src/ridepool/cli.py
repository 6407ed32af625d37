"""Command-line interface.

Subcommands:

* ``simulate`` -- run a scenario grid from a JSON config over a trip file
  or a synthetic corpus, writing summary/decision/split/run-account CSVs.
* ``analyze``  -- aggregate a summary CSV into per-MAR means, savings
  brackets and pairwise dominance relations.
* ``verify``   -- run the built-in theorem fixtures and report verdicts.
* ``split``    -- re-divide run fares from a run-account CSV under either
  cost-sharing scheme.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import io as rio
from .costshare import InfeasibleRun, goalprog_split, shapley_split
from .harness import (
    BRACKETS, MechanismSummary, ScenarioGrid, aggregate, pareto_dominance, run_grid,
    synthetic_trips,
)
from .mechanisms import Mechanism
from .netgraph import load_network_csv, make_grid
from .simengine import ConfigError
from .units import fmt4, fmt_opt, fmt_usd, fraction_from, mils_from_usd, usec_from_seconds
from .verify import run_all_fixtures


CONFIG_KEYS = (
    "network", "horizon_s", "tariff", "mechanisms", "max_wait_s", "mar", "fleet_size", "seeds",
    "value_of_time_usd_per_min", "split_scheme", "split_thresholds_pct",
)
TARIFF_KEYS = (
    "base_fare_usd", "per_mile_usd", "provider_cost_per_mile_usd", "change_fee_usd",
    "discount_factor", "detour_factor",
)
GRID_KEYS = ("rows", "cols", "edge_length_mi", "speed_mph")


def _check_keys(section: str, given, allowed) -> None:
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a JSON object, got {given!r}")
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown {section} key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )


def _required(section: str, given, key: str):
    if key not in given:
        raise ConfigError(f"{section} needs {key!r}")
    return given[key]


def _int(name: str, value, least: int | None = None) -> int:
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")
    return value


def _number(key: str, value, convert=fraction_from, least=None):
    """`convert(value)`; an unreadable value, or one below `least`, raises a
    ConfigError naming the config key."""
    try:
        number = convert(value)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from None
    if least is not None and number < least:
        raise ConfigError(f"{key} must be {'positive' if least else 'non-negative'}, got {value!r}")
    return number


def _network_from_config(cfg):
    net_cfg = _required("config", cfg, "network")
    _check_keys("network", net_cfg, ("grid", "file"))
    if "grid" in net_cfg:
        g = net_cfg["grid"]
        _check_keys("network.grid", g, GRID_KEYS)
        rows, cols, length, speed = (_required("network.grid", g, key) for key in GRID_KEYS)
        return make_grid(_int("network.grid rows", rows), _int("network.grid cols", cols),
                         _number("edge_length_mi", length), _number("speed_mph", speed))
    if "file" not in net_cfg:
        raise ConfigError("network needs 'grid' or 'file'")
    return load_network_csv(net_cfg["file"])


def _axis(section: dict, key: str, default, convert=fraction_from, least=None,
          distinct=True) -> tuple:
    """The non-empty list at `key`, or its one value, each read by `_number`.
    A `distinct` axis takes no value twice, however spelled: the grid would
    run its cells twice and weigh them double in every mean."""
    value = section.get(key, default)
    if value == []:
        raise ConfigError(f"{key} must not be an empty list")
    raw = value if isinstance(value, list) else [value]
    values = tuple(_number(key, v, convert, least) for v in raw)
    for i, v in enumerate(values):
        if distinct and v in values[:i]:
            first = raw[values.index(v)]
            raise ConfigError(f"{key} gives one value twice: {first!r} and {raw[i]!r}")
    return values


def _within(ok, words: str):
    """A reader for `_number` that takes a number only when `ok` holds for it."""
    def read(value):
        number = fraction_from(value)
        if not ok(number):
            raise ValueError(f"must be {words}, got {value!r}")
        return number
    return read


def _thresholds(key: str, typed, percents) -> tuple[Fraction, ...]:
    """The goal-programming split's thresholds from whole `percents`; an
    error names `key` and shows the thresholds as `typed`."""
    if not all(0 < p < 100 for p in percents):
        raise ConfigError(f"{key} must lie in (0, 100): {typed}")
    if any(b <= a for a, b in zip(percents, percents[1:])):
        raise ConfigError(f"{key} must be strictly increasing: {typed}")
    return tuple(Fraction(p, 100) for p in percents)


def _grid_from_config(cfg) -> ScenarioGrid:
    _check_keys("config", cfg, CONFIG_KEYS)
    tariff = cfg.get("tariff", {})
    _check_keys("tariff", tariff, TARIFF_KEYS)
    thresholds = ()  # only the goal-programming split reads them
    if cfg.get("split_scheme") == "goalprog":
        key, default = "split_thresholds_pct", [5, 10, 15, 20]
        thresholds = _thresholds(key, cfg.get(key, default),
                                 _axis(cfg, key, default, lambda p: _int(key, p)))
    return ScenarioGrid(
        mechanisms=_axis(cfg, "mechanisms", ["SRO", "PCP", "CCP"], Mechanism),
        max_waits=_axis(cfg, "max_wait_s", 360, usec_from_seconds, 1),
        mars=_axis(cfg, "mar", 0.5),
        fleet_sizes=_axis(cfg, "fleet_size", 30, lambda f: _int("fleet_size", f)),
        change_fees=_axis(tariff, "change_fee_usd", 2.0, mils_from_usd, 0),
        discount_factors=_axis(tariff, "discount_factor", 0.8,
                               _within(lambda f: 0 < f <= 1, "in (0, 1]")),
        detour_factors=_axis(tariff, "detour_factor", 0.3, _within(lambda f: f > 0, "positive")),
        seeds=_axis(cfg, "seeds", [1], lambda s: _int("seeds", s, 0)),
        base_fare=_number("base_fare_usd", tariff.get("base_fare_usd", 2.50), mils_from_usd, 0),
        per_mile=_number("per_mile_usd", tariff.get("per_mile_usd", 2.50), mils_from_usd, 1),
        provider_cost_per_mile=_number("provider_cost_per_mile_usd",
                                       tariff.get("provider_cost_per_mile_usd", 2.945),
                                       mils_from_usd, 1),
        # a value given twice is drawn twice as often
        vot_values=_axis(cfg, "value_of_time_usd_per_min", [0.166, 0.195, 0.225, 0.254, 0.283],
                         mils_from_usd, 0, distinct=False),
        split_scheme=cfg.get("split_scheme", "shapley"),
        split_thresholds=thresholds,
        horizon=_number("horizon_s", cfg.get("horizon_s", 1800), usec_from_seconds, 0),
    )


def _load_trips(spec: str, net, cfg):
    if spec.startswith("synthetic:"):
        opts = {}
        for part in spec[len("synthetic:"):].split(","):
            if part:
                key, _, val = part.partition("=")
                opts[key.strip()] = val.strip()
        _check_keys("synthetic trips", opts, ("n", "seed", "horizon_s"))
        values = {"n": 500, "seed": 1, "horizon_s": cfg.get("horizon_s", 1800)}
        for key, text in opts.items():
            try:
                values[key] = int(text)
            except ValueError:
                raise ConfigError(f"synthetic trips {key}={text!r} is not an integer") from None
            if values[key] < 0:
                raise ConfigError(f"synthetic trips {key}={text!r} is negative")
        return synthetic_trips(net, values["n"], int(values["horizon_s"]), values["seed"])
    return rio.load_trips_csv(spec)


def cmd_simulate(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    grid = _grid_from_config(cfg)
    net = _network_from_config(cfg)
    trips = _load_trips(args.trips, net, cfg)
    outcomes = run_grid(grid, trips, net)
    out = Path(args.out)  # made only now, so that a failed grid leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in rio.SIMULATE_OUTPUTS:
        rio.write_csv(out / name, header, (row for oc in outcomes for row in rows(oc)))
    print(f"wrote {len(outcomes)} simulations to {out}")
    return 0


def cmd_analyze(args) -> int:
    path = Path(args.indir) / "summary.csv"
    cells = rio.load_summary_csv(path)
    if not cells:
        raise ValueError(f"{path} has no rows")

    # a setting is a cell without its MAR and seed
    n = rio.CELL_COLUMNS.index("mar")
    settings = aggregate(
        (cell[:n], Fraction(cell[n]), metrics)
        for cell, metrics in cells
        if cell[0] != Mechanism.SRO.value
    )
    summaries = [
        MechanismSummary("|".join(key), key[0], dict(zip(rio.CELL_COLUMNS, key)), settings[key])
        for key in sorted(settings)
    ]

    agg_rows, bracket_rows = [], []
    for s in summaries:
        for mar in s.mars():
            m = s.per_mar[mar]
            agg_rows.append(
                (s.label, fmt4(mar), fmt_opt(m["unserved_pct"]), fmt_opt(m["distance_saving_pct"]),
                 fmt_opt(m["profit"], fmt_usd), fmt_opt(m["mean_cost_per_poolable"], fmt_usd))
            )
            bracket_rows.append((s.label, fmt4(mar), *(fmt_opt(m["brackets"][t]) for t in BRACKETS)))

    out = Path(args.out) if args.out else Path(args.indir)
    rio.write_csv(out / "aggregate.csv",
                  ("setting", "mar", "unserved_pct", "distance_saving_pct",
                   "profit_usd", "mean_cost_per_poolable_usd"), agg_rows)
    if args.brackets:
        rio.write_csv(out / "brackets.csv", ("setting", "mar", *rio.BRACKET_COLUMNS), bracket_rows)
        print(f"wrote {out / 'brackets.csv'}")

    if args.pareto:
        relations = ((a, b, pareto_dominance(a, b)) for a in summaries for b in summaries
                     if a.label != b.label and a.mars() == b.mars())
        rio.write_csv(out / "pareto.csv", ("dominant", "dominated", "relation", "mar_lo", "mar_hi"),
                      ((a.label, b.label, rel.kind, fmt4(rel.mar_lo), fmt4(rel.mar_hi))
                       for a, b, rel in relations if rel.kind != "none"))
        print(f"wrote {out / 'pareto.csv'}")
    print(f"wrote {out / 'aggregate.csv'}")
    return 0


def cmd_verify(args) -> int:
    verdicts = run_all_fixtures()
    failed = 0
    for v in verdicts:
        line = f"[{'PASS' if v.passed else 'FAIL'}] {v.fixture} :: {v.check} :: {v.detail}"
        print(line)
        failed += not v.passed
    if args.out:
        rio.write_csv(args.out, ("fixture", "check", "pass", "detail"),
                      (v.row() for v in verdicts))
        print(f"wrote {args.out}")
    return 1 if failed else 0


def cmd_split(args) -> int:
    if args.scheme == "goalprog":  # checked before any run is read
        try:
            percents = [int(p) for p in args.thresholds.split(",")]
        except ValueError:
            raise ConfigError("--thresholds must be comma-separated whole percents, "
                              f"got {args.thresholds!r}") from None
        thresholds = _thresholds("--thresholds", args.thresholds, percents)
    cell_columns, accounts = rio.load_run_accounts_csv(args.runs)
    rows = []
    for cell, acct in accounts:
        if args.scheme == "shapley":
            res = shapley_split(acct)
        else:
            res = goalprog_split(acct, thresholds)
        rows.extend(rio.run_split_rows(acct, {e.customer: e.fare for e in res.entries}, cell))
    header = cell_columns + rio.SPLIT_COLUMNS
    target = args.out or "-"
    if target == "-":
        rio.write_rows(sys.stdout, header, rows)
    else:
        rio.write_csv(target, header, rows)
        print(f"wrote {target}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ridepool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario grid")
    p.add_argument("--config", required=True, help="JSON scenario config")
    p.add_argument("--trips", required=True,
                   help="trip CSV path or synthetic:n=...,seed=...")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze", help="aggregate a summary.csv")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--brackets", action="store_true")
    p.add_argument("--pareto", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="run theorem fixtures")
    p.add_argument("--fixtures", default="all", choices=["all"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("split", help="re-divide run fares")
    p.add_argument("--runs", required=True, help="run-account CSV")
    p.add_argument("--scheme", required=True, choices=["shapley", "goalprog"])
    p.add_argument("--thresholds", default="5,10,15,20",
                   help="percent thresholds for goalprog")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_split)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InfeasibleRun, OSError, ValueError) as err:
        print(f"ridepool {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
