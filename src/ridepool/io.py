"""File formats: the trip, summary and run-account readers and the CSVs of
`simulate` (`SIMULATE_OUTPUTS`) and `split` (`run_split_rows`, as in `splits.csv`).

All floating outputs are rendered with exactly four decimals, rounded half
to even from the exact internal integers, so rewriting the same results
produces byte-identical files.
"""

from __future__ import annotations

import csv
from fractions import Fraction

from .costshare import RunAccount, RunMember
from .domain import Request
from .harness import BRACKETS, CellOutcome, coordinates
from .units import (
    MILS, USEC, fmt4, fmt_miles, fmt_opt, fmt_seconds, fmt_usd, mils_from_usd, usec_from_seconds,
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

# the coordinates of one simulation, leading every per-cell CSV row
CELL_COLUMNS = (
    "mechanism", "change_fee_usd", "discount_factor", "detour_factor",
    "max_wait_s", "fleet_size", "mar", "seed",
)
BRACKET_COLUMNS = tuple(f"br{t * 100}" for t in BRACKETS)  # br0, br5, ..., br20
SUMMARY_COLUMNS = CELL_COLUMNS + (
    "split_scheme",
    "requests", "served", "unserved", "poolable", "pooled",
    "fleet_distance_mi", "fares_usd", "profit_usd",
    "sro_distance_mi", "sro_profit_usd",
    "distance_saving_pct", "profit_delta_pct",
    "mean_cost_per_poolable_usd", "cost_reduction_pct",
    *BRACKET_COLUMNS,
)


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


def load_summary_csv(path) -> list[tuple[tuple[str, ...], dict]]:
    """One (`CELL_COLUMNS` text, metrics) pair per summary row, the metrics
    exact and in `CellOutcome.metrics` units: the two shares from the integer
    counts, the others from their four decimals, "n/a" as None.  A short row
    or unreadable text raises a ValueError naming the line and the column."""
    out = []
    for row, field in _read(path, "summary", SUMMARY_COLUMNS):
        def value(col, scale=1):
            return field(col, lambda text: None if text == "n/a" else Fraction(text) * scale)

        def share(part, whole):
            whole = field(whole, int)
            return Fraction(field(part, int), whole) * 100 if whole else None

        metrics = {
            "unserved_pct": share("unserved", "requests"),
            "pooled_share_pct": share("pooled", "poolable"),
            "distance_saving_pct": value("distance_saving_pct"),
            "profit_delta_pct": value("profit_delta_pct"),
            "profit": value("profit_usd", MILS),
            "mean_cost_per_poolable": value("mean_cost_per_poolable_usd", MILS),
            "cost_reduction_pct": value("cost_reduction_pct"),
            "brackets": {t: value(c) for t, c in zip(BRACKETS, BRACKET_COLUMNS)},
        }
        out.append((tuple(row[c] for c in CELL_COLUMNS), metrics))
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
    m = oc.metrics()
    return (
        *cell_fields(oc),
        oc.result.config.split_scheme,
        m["requests"], m["served"], m["unserved"], m["poolable"], m["pooled"],
        fmt_miles(m["fleet_distance"]),
        fmt_usd(m["fares"]),
        fmt_usd(m["profit"]),
        fmt_miles(m["sro_distance"]),
        fmt_usd(m["sro_profit"]),
        fmt_opt(m["distance_saving_pct"]),
        fmt_opt(m["profit_delta_pct"]),
        fmt_opt(m["mean_cost_per_poolable"], fmt_usd),
        fmt_opt(m["cost_reduction_pct"]),
        *(fmt_opt(m["brackets"][t]) for t in BRACKETS),
    )


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


SPLIT_COLUMNS = (
    "run_id",
    "customer",
    "c_solitary_usd",
    "a_pooled_time_usd",
    "fare_usd",
    "relative_saving",
)


def run_split_rows(account: RunAccount, fares, cell: tuple):
    """One row per member of a run divided into `fares` (customer -> mils),
    each led by `cell`."""
    for m in account.members:
        fare = fares[m.customer]
        saving = 1 - Fraction(fare + m.pooled_time_cost, m.solitary_cost)
        yield cell + (account.run_id, m.customer, fmt_usd(m.solitary_cost),
                      fmt_usd(m.pooled_time_cost), fmt_usd(fare), fmt4(saving))


def split_rows(oc: CellOutcome):
    """Per-customer rows of every pooled run's final fare division."""
    cell, book = cell_fields(oc), oc.result.per_customer
    for account in oc.result.accounts:
        yield from run_split_rows(account, {m.customer: book[m.customer].fare
                                            for m in account.members}, cell)


RUN_ACCOUNT_COLUMNS = (
    "run_id",
    "customer",
    "c_solitary_usd",
    "a_pooled_time_usd",
    "run_fare_usd",
)


def run_account_rows(oc: CellOutcome):
    cell = cell_fields(oc)
    for account in oc.result.accounts:
        for m in account.members:
            yield cell + (account.run_id, m.customer, fmt_usd(m.solitary_cost),
                          fmt_usd(m.pooled_time_cost), fmt_usd(account.run_fare))


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
    run id; without `CELL_COLUMNS` every cell is ().  A short row, unreadable text, a
    negative amount, a run fare that differs within a run or a customer listed twice in
    one run raises a ValueError naming the line and the column."""
    with open(path, newline="") as fh:
        cells = CELL_COLUMNS if set(CELL_COLUMNS) <= set(next(csv.reader(fh), ())) else ()
    members: dict[tuple, list] = {}
    fares: dict[tuple, int] = {}
    for row, field in _read(path, "run", RUN_ACCOUNT_COLUMNS):
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
