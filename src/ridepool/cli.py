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
    MechanismSummary, ScenarioGrid, aggregate, pareto_dominance, run_grid, synthetic_trips,
)
from .mechanisms import Mechanism
from .netgraph import edge_time_usec, load_network_csv, make_grid
from .simengine import DEFAULT_THRESHOLDS, SPLIT_SCHEMES, ConfigError
from .units import USEC, fmt4, fraction_from, mils_from_usd, umiles_from_miles, usec_from_seconds
from .verify import run_all_fixtures


# A rule is (test, words): a value read from a config key must pass `test`,
# or the config fails with "<key> must be <words>, got <value as typed>".
INTEGER = (lambda v: type(v) is int, "an integer")
POSITIVE = (lambda v: v > 0, "positive")
NON_NEGATIVE = (lambda v: v >= 0, "non-negative")

# config key -> (ScenarioGrid field, reader of one value or None to keep it as
# typed, rules).  A key whose field defaults to a tuple takes a list or one
# value; a key left out takes the field's default.
CONFIG_TABLE = {
    "horizon_s": ("horizon", usec_from_seconds, (NON_NEGATIVE,)),
    "mechanisms": ("mechanisms", Mechanism, ()),
    "max_wait_s": ("max_waits", usec_from_seconds, (POSITIVE,)),
    "mar": ("mars", fraction_from, ((lambda m: 0 <= m <= 1, "in [0, 1]"),)),
    "fleet_size": ("fleet_sizes", None, (INTEGER, (lambda f: f >= 1, "at least 1"))),
    "seeds": ("seeds", None, (INTEGER, (lambda s: s >= 0, "at least 0"))),
    "value_of_time_usd_per_min": ("vot_values", mils_from_usd, (NON_NEGATIVE,)),
    "split_scheme": ("split_scheme", None,
                     ((lambda s: s in SPLIT_SCHEMES, " or ".join(SPLIT_SCHEMES)),)),
    # whole percents, made thresholds by `_thresholds`
    "split_thresholds_pct": ("split_thresholds", None, (INTEGER,)),
}
TARIFF_TABLE = {
    "base_fare_usd": ("base_fare", mils_from_usd, (NON_NEGATIVE,)),
    "per_mile_usd": ("per_mile", mils_from_usd, (POSITIVE,)),
    "provider_cost_per_mile_usd": ("provider_cost_per_mile", mils_from_usd, (POSITIVE,)),
    "change_fee_usd": ("change_fees", mils_from_usd, (NON_NEGATIVE,)),
    "discount_factor": ("discount_factors", fraction_from, ((lambda d: 0 < d <= 1, "in (0, 1]"),)),
    "detour_factor": ("detour_factors", fraction_from, (POSITIVE,)),
}
# network.grid key -> (name in messages, reader, rules), in `make_grid`'s argument order
GRID_SIDE = (INTEGER, (lambda n: 2 <= n <= 1000, "in [2, 1000]"))
WHOLE_UMILES = (lambda mi: umiles_from_miles(mi) > 0, "positive in whole micro-miles")
GRID_TABLE = {
    "rows": ("network.grid rows", None, GRID_SIDE),
    "cols": ("network.grid cols", None, GRID_SIDE),
    "edge_length_mi": ("edge_length_mi", fraction_from, (POSITIVE, WHOLE_UMILES)),
    "speed_mph": ("speed_mph", fraction_from, (POSITIVE,)),
}
CONFIG_KEYS = ("network", "tariff", *CONFIG_TABLE)
TARIFF_KEYS = tuple(TARIFF_TABLE)


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


def _value(key: str, typed, read=None, rules=()):
    """`read(typed)`, or `typed` when `read` is None, passing every rule; an
    unreadable value or a broken rule raises a ConfigError naming `key`."""
    try:
        value = typed if read is None else read(typed)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from None
    for test, words in rules:
        if not test(value):
            raise ConfigError(f"{key} must be {words}, got {typed!r}")
    return value


def _values(key: str, typed, read, rules, distinct: bool) -> tuple:
    """The non-empty list `typed`, or its one value, each read by `_value`.
    A `distinct` list takes no value twice, however spelled: a grid axis
    would run its cells twice and weigh them double in every mean."""
    if typed == []:
        raise ConfigError(f"{key} must not be an empty list")
    raw = typed if isinstance(typed, list) else [typed]
    values = tuple(_value(key, v, read, rules) for v in raw)
    for i, v in enumerate(values):
        if distinct and v in values[:i]:
            first = raw[values.index(v)]
            raise ConfigError(f"{key} gives one value twice: {first!r} and {raw[i]!r}")
    return values


def _network_from_config(cfg):
    net_cfg = _required("config", cfg, "network")
    _check_keys("network", net_cfg, ("grid", "file"))
    if len(net_cfg) != 1:
        raise ConfigError(f"network needs 'grid' or 'file'{', not both' if net_cfg else ''}")
    if "grid" in net_cfg:
        g = net_cfg["grid"]
        _check_keys("network.grid", g, GRID_TABLE)
        typed = [_required("network.grid", g, key) for key in GRID_TABLE]
        rows, cols, length, speed = (_value(name, v, read, rules) for (name, read, rules), v
                                     in zip(GRID_TABLE.values(), typed))
        if edge_time_usec(umiles_from_miles(length), speed) == 0:
            raise ConfigError("speed_mph must leave an edge at least 1 usec of travel, "
                              f"got {typed[3]!r}")
        return make_grid(rows, cols, length, speed)
    return load_network_csv(net_cfg["file"])


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
    given = {}
    for section, table in ((cfg, CONFIG_TABLE), (tariff, TARIFF_TABLE)):
        for key, (field, read, rules) in table.items():
            if key not in section:
                continue
            if isinstance(getattr(ScenarioGrid, field), tuple):
                # a value of time given twice is drawn twice as often
                given[field] = _values(key, section[key], read, rules, field != "vot_values")
            else:
                given[field] = _value(key, section[key], read, rules)
    if "split_thresholds" in given:
        key = "split_thresholds_pct"
        given["split_thresholds"] = _thresholds(key, cfg[key], given["split_thresholds"])
    return ScenarioGrid(**given)


def _load_trips(spec: str, net, horizon_s: int):
    if spec.startswith("synthetic:"):
        opts = {}
        for part in spec[len("synthetic:"):].split(","):
            if part:
                key, _, val = part.partition("=")
                opts[key.strip()] = val.strip()
        _check_keys("synthetic trips", opts, ("n", "seed", "horizon_s"))
        values = {"n": 500, "seed": 1, "horizon_s": horizon_s}
        for key, text in opts.items():
            try:
                values[key] = int(text)
            except ValueError:
                raise ConfigError(f"synthetic trips {key}={text!r} is not an integer") from None
            if values[key] < 0:
                raise ConfigError(f"synthetic trips {key}={text!r} is negative")
        return synthetic_trips(net, values["n"], values["horizon_s"], values["seed"])
    return rio.load_trips_csv(spec)


def cmd_simulate(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    grid = _grid_from_config(cfg)
    net = _network_from_config(cfg)
    trips = _load_trips(args.trips, net, grid.horizon // USEC)
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

    # a setting's text leads with its mechanism
    settings = aggregate((setting, mar, m) for setting, mar, m in cells
                         if setting[0] != Mechanism.SRO.value)
    summaries = [
        MechanismSummary("|".join(key), key[0], dict(zip(rio.SETTING_COLUMNS, key)), settings[key])
        for key in sorted(settings)
    ]

    agg_rows, bracket_rows = [], []
    for s in summaries:
        for mar in s.mars():
            m = s.per_mar[mar]
            agg_rows.append((s.label, fmt4(mar), *rio.metric_texts(rio.AGGREGATE_FIELDS, m)))
            bracket_rows.append((s.label, fmt4(mar), *rio.metric_texts(rio.BRACKET_FIELDS, m)))

    out = Path(args.out) if args.out else Path(args.indir)
    out.mkdir(parents=True, exist_ok=True)  # only now, so an unreadable summary makes no directory
    rio.write_csv(out / "aggregate.csv",
                  ("setting", "mar", *(col for col, _, _ in rio.AGGREGATE_FIELDS)), agg_rows)
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
        fares = (shapley_split(acct) if args.scheme == "shapley"
                 else goalprog_split(acct, thresholds))
        rows.extend(rio.run_split_rows(acct, fares, cell))
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
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("split", help="re-divide run fares")
    p.add_argument("--runs", required=True, help="run-account CSV")
    p.add_argument("--scheme", required=True, choices=SPLIT_SCHEMES)
    p.add_argument("--thresholds", default=",".join(str(t * 100) for t in DEFAULT_THRESHOLDS),
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
