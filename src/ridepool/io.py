"""File formats: the trip, summary and run-account readers and the CSVs of
`simulate` (`SIMULATE_OUTPUTS`), `analyze` and `split` (`run_split_rows`, as
in `splits.csv`), each CSV's columns declared once: a metric column is a
`SUMMARY_FIELDS` entry, which renders it and reads it back, and
`run_accounts.csv` and `splits.csv` share `MEMBER_COLUMNS`.

All floating outputs are rendered with exactly four decimals, rounded half
to even from the exact internal integers, so rewriting the same results
produces byte-identical files.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from functools import partial

from .costshare import RunAccount, RunMember
from .domain import Request
from .harness import BRACKETS, CellOutcome, coordinates, share_pct
from .units import (
    MILS, UMILE, USEC, fmt4, fmt_miles, fmt_opt, fmt_seconds, fmt_usd, mils_from_usd,
    usec_from_seconds,
)

TRIP_COLUMNS = (
    "request_time_s",
    "origin_node",
    "dest_node",
    "value_of_time_usd_per_min",
    "max_wait_s",
    "poolable",
)


POOLABLE_FLAGS = {"": None, "0": False, "false": False, "1": True, "true": True}

# the coordinates of one simulation, leading every per-cell CSV row; a
# setting is a cell without its MAR and seed
SETTING_COLUMNS = (
    "mechanism", "change_fee_usd", "discount_factor", "detour_factor", "max_wait_s", "fleet_size",
)
CELL_COLUMNS = SETTING_COLUMNS + ("mar", "seed")
BRACKET_COLUMNS = tuple(f"br{t * 100}" for t in BRACKETS)  # br0, br5, ..., br20
# (column, `CellOutcome.metrics` key, unit) of each value after a summary
# row's cell and split scheme: a count (unit None) is written as is, any
# other value as value / unit to four decimals, or "n/a" when it is None; a
# bracket's key is ("brackets", threshold)
SUMMARY_FIELDS = (
    *((count, count, None) for count in ("requests", "served", "unserved", "poolable", "pooled")),
    ("fleet_distance_mi", "fleet_distance", UMILE), ("fares_usd", "fares", MILS),
    ("profit_usd", "profit", MILS), ("sro_distance_mi", "sro_distance", UMILE),
    ("sro_profit_usd", "sro_profit", MILS),
    ("distance_saving_pct", "distance_saving_pct", 1), ("profit_delta_pct", "profit_delta_pct", 1),
    ("mean_cost_per_poolable_usd", "mean_cost_per_poolable", MILS),
    ("cost_reduction_pct", "cost_reduction_pct", 1),
    *((col, ("brackets", t), 1) for col, t in zip(BRACKET_COLUMNS, BRACKETS)),
)
SUMMARY_COLUMNS = CELL_COLUMNS + ("split_scheme", *(col for col, _, _ in SUMMARY_FIELDS))
# the seed means `analyze` writes after each row's setting label and MAR
# to aggregate.csv and brackets.csv
AGGREGATE_FIELDS = (("unserved_pct", "unserved_pct", 1), *(
    next(f for f in SUMMARY_FIELDS if f[1] == key)
    for key in ("distance_saving_pct", "profit", "mean_cost_per_poolable")
))
BRACKET_FIELDS = SUMMARY_FIELDS[-len(BRACKETS):]


def metric_texts(fields, m: dict):
    """The text of each of `fields` in metrics `m`."""
    for _, key, unit in fields:
        value = m[key] if isinstance(key, str) else m["brackets"][key[1]]
        yield value if unit is None else fmt_opt(value, partial(fmt4, per=unit))


def _metric_reader(unit):
    """The reader of a `SUMMARY_FIELDS` value in `unit` from its text."""
    if unit is None:
        return int
    return lambda text: None if text == "n/a" else Fraction(text) * unit


class Rejected(ValueError):
    """Readable text that a column does not allow; the message says why."""


def _read(path, kind: str, columns):
    """Each row of the CSV file at `path` with its `field(col, parse=str)`,
    `parse` of the column's stripped text.  Missing columns raise a
    ValueError naming them; a short row, or text that `parse` cannot read or
    `Rejected`, one naming the `kind` file's line and the column."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(columns) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{kind} file lacks columns: {sorted(missing)}")
        for row in reader:
            def field(col, parse=str):
                text, why = row[col], "the row is short"
                if text is not None:
                    try:
                        return parse(text.strip())
                    except Rejected as err:
                        why = str(err)
                    except (ArithmeticError, KeyError, ValueError):
                        why = f"cannot read {text!r}"
                raise ValueError(f"{kind} file line {reader.line_num}, column {col!r}: {why}")

            yield row, field


def load_trips_csv(path) -> list[Request]:
    """Read a trip file; empty value-of-time or poolable fields stay unset.

    A short row, an unparsable number, a negative request time or value of
    time, a wait limit that is not positive, a destination equal to the
    origin, or a poolable flag other than empty, 0, 1, true or false (in any
    case) raises a ValueError naming the line and the column.
    """
    out = []
    for i, (_, field) in enumerate(_read(path, "trip", TRIP_COLUMNS)):
        origin = field("origin_node")

        def destination(text):
            if text == origin:
                raise Rejected(f"{text!r} equals origin_node")
            return text

        out.append(Request(
            id=i,
            origin=origin,
            destination=field("dest_node", destination),
            request_time=field("request_time_s", _usec),
            value_of_time=field("value_of_time_usd_per_min",
                                lambda text: _usd(text) if text else None),
            max_wait=field("max_wait_s", _positive_usec),
            poolable=field("poolable", lambda text: POOLABLE_FLAGS[text.lower()]),
        ))
    out.sort(key=lambda r: (r.request_time, r.id))
    return out


def load_summary_csv(path) -> list[tuple[tuple[str, ...], Fraction, dict]]:
    """One (`SETTING_COLUMNS` text, MAR, metrics) triple per summary row, as
    `harness.aggregate` takes them: the MAR exact, the metrics exact and in
    `CellOutcome.metrics` units, each `SUMMARY_FIELDS` value read from its
    text ("n/a" as None) and the two shares from the counts.  A short row or
    unreadable text raises a ValueError naming the line and the column."""
    out = []
    for row, field in _read(path, "summary", SUMMARY_COLUMNS):
        mar = field("mar", Fraction)
        m = {key: field(col, _metric_reader(unit)) for col, key, unit in SUMMARY_FIELDS}
        m["brackets"] = {t: m.pop(("brackets", t)) for t in BRACKETS}
        m["unserved_pct"] = share_pct(m["unserved"], m["requests"])
        m["pooled_share_pct"] = share_pct(m["pooled"], m["poolable"])
        out.append((tuple(row[c] for c in SETTING_COLUMNS), mar, m))
    return out


def cell_fields(oc: CellOutcome) -> tuple:
    """The `CELL_COLUMNS` values of one simulation, as written."""
    mech, wait, fleet, fee, disc, det, mar, seed = coordinates(oc.result.config)
    return (
        mech,
        fmt_opt(fee, fmt_usd),
        fmt_opt(disc),
        fmt_opt(det),
        wait // USEC,
        fleet,
        fmt4(mar),
        seed,
    )


def summary_row(oc: CellOutcome) -> tuple:
    return (*cell_fields(oc), oc.result.config.split_scheme,
            *metric_texts(SUMMARY_FIELDS, oc.metrics()))


DECISION_COLUMNS = (
    "time_s",
    "customer",
    "mechanism",
    "decision",
    "vehicle",
    "partner",
    "fare_usd",
    "baseline_cost_usd",
    "guaranteed_cost_usd",
    "added_distance_mi",
)


def decision_rows(oc: CellOutcome):
    cell = cell_fields(oc)
    for d in oc.result.decision_log:
        yield cell + (
            fmt_seconds(d.time),
            d.customer,
            d.mechanism,
            d.decision,
            "" if d.vehicle is None else d.vehicle,
            "" if d.partner is None else d.partner,
            "" if d.fare is None else fmt_usd(d.fare),
            "" if d.baseline_cost is None else fmt_usd(d.baseline_cost),
            "" if d.guaranteed_cost is None else fmt_usd(d.guaranteed_cost),
            "" if d.added_distance is None else fmt_miles(d.added_distance),
        )


# the run member each row of `run_accounts.csv` and `splits.csv` describes
MEMBER_COLUMNS = ("run_id", "customer", "c_solitary_usd", "a_pooled_time_usd")
SPLIT_COLUMNS = MEMBER_COLUMNS + ("fare_usd", "relative_saving")
RUN_ACCOUNT_COLUMNS = MEMBER_COLUMNS + ("run_fare_usd",)


def _member_fields(account: RunAccount, m: RunMember) -> tuple:
    """The `MEMBER_COLUMNS` values of member `m` of run `account`."""
    return account.run_id, m.customer, fmt_usd(m.solitary_cost), fmt_usd(m.pooled_time_cost)


def run_split_rows(account: RunAccount, fares, cell: tuple):
    """One row per member of a run divided into `fares` (customer -> mils),
    each led by `cell`."""
    for m in account.members:
        fare = fares[m.customer]
        saving = 1 - Fraction(fare + m.pooled_time_cost, m.solitary_cost)
        yield cell + _member_fields(account, m) + (fmt_usd(fare), fmt4(saving))


def split_rows(oc: CellOutcome):
    """Per-customer rows of every pooled run's final fare division."""
    cell, book = cell_fields(oc), oc.result.per_customer
    for account in oc.result.accounts:
        yield from run_split_rows(account, {m.customer: book[m.customer].fare
                                            for m in account.members}, cell)


def run_account_rows(oc: CellOutcome):
    cell = cell_fields(oc)
    for account in oc.result.accounts:
        for m in account.members:
            yield cell + _member_fields(account, m) + (fmt_usd(account.run_fare),)


# (file name, header, rows of one simulation) of every file `simulate` writes
SIMULATE_OUTPUTS = (
    ("summary.csv", SUMMARY_COLUMNS, lambda oc: (summary_row(oc),)),
    ("decisions.csv", CELL_COLUMNS + DECISION_COLUMNS, decision_rows),
    ("splits.csv", CELL_COLUMNS + SPLIT_COLUMNS, split_rows),
    ("run_accounts.csv", CELL_COLUMNS + RUN_ACCOUNT_COLUMNS, run_account_rows),
)


def _non_negative(parse):
    """`parse`, with a negative result `Rejected`."""
    def read(text: str) -> int:
        value = parse(text)
        if value < 0:
            raise Rejected(f"{text!r} is negative")
        return value

    return read


_usec = _non_negative(usec_from_seconds)  # whole usec of seconds
_usd = _non_negative(mils_from_usd)  # whole mils of dollars


def _positive_usec(text: str) -> int:
    """Whole usec of seconds, with zero or less `Rejected`."""
    usec = usec_from_seconds(text)
    if usec <= 0:
        raise Rejected(f"{text!r} is not positive")
    return usec


def load_run_accounts_csv(path):
    """The leading cell columns of a run-account file, one row per run member with the
    run fare repeated, and one (cell, account) pair per run.  Runs are keyed by cell and
    run id; a file with none of `CELL_COLUMNS` has every cell (), and one with only some
    of them raises a ValueError naming those it lacks.  A short row, unreadable text, a
    negative amount, a run fare that differs within a run or a customer listed twice in
    one run raises a ValueError naming the line and the column."""
    with open(path, newline="") as fh:
        cells = CELL_COLUMNS if set(CELL_COLUMNS) & set(next(csv.reader(fh), ())) else ()
    members: dict[tuple, list] = {}
    fares: dict[tuple, int] = {}
    for row, field in _read(path, "run", cells + RUN_ACCOUNT_COLUMNS):
        rid = field("run_id")
        key = (tuple(row[c] for c in cells), rid)
        group = members.setdefault(key, [])

        def fare(text):
            mils = _usd(text)
            if fares.setdefault(key, mils) != mils:
                raise Rejected(f"run {rid}: inconsistent run_fare_usd across rows")
            return mils

        def customer(text):
            c = int(text)
            if any(m.customer == c for m in group):
                raise Rejected(f"run {rid} lists customer {c} twice")
            return c

        field("run_fare_usd", fare)
        group.append(RunMember(customer=field("customer", customer),
                               solitary_cost=field("c_solitary_usd", _usd),
                               pooled_time_cost=field("a_pooled_time_usd", _usd)))
    return cells, [
        (cell, RunAccount(rid, tuple(group), fares[cell, rid]))
        for (cell, rid), group in members.items()
    ]


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        write_rows(fh, header, rows)


def write_rows(fh, header, rows) -> None:
    """The CSV text of a header and its rows, as `write_csv` writes it, to an open file."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
