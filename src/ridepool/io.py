"""File formats: the trip, summary and run-account readers and the CSV writers.

All floating outputs are rendered with exactly four decimals, rounded half
to even from the exact internal integers, so rewriting the same results
produces byte-identical files.
"""

from __future__ import annotations

import csv
from fractions import Fraction

from .domain import Request
from .harness import BRACKET_COLUMNS, BRACKETS, CELL_COLUMNS, SUMMARY_COLUMNS
from .simengine import SimResult
from .units import MILS, fmt4, fmt_miles, fmt_seconds, fmt_usd, mils_from_usd, usec_from_seconds

TRIP_COLUMNS = (
    "request_time_s",
    "origin_node",
    "dest_node",
    "value_of_time_usd_per_min",
    "max_wait_s",
    "poolable",
)


POOLABLE_FLAGS = {"": None, "0": False, "false": False, "1": True, "true": True}


def load_trips_csv(path) -> list[Request]:
    """Read a trip file; empty value-of-time or poolable fields stay unset.

    A short row, an unparsable number, or a poolable flag other than empty,
    0, 1, true or false (in any case) raises a ValueError naming the line
    and the column.
    """
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(TRIP_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"trip file lacks columns: {sorted(missing)}")

        def field(row, col, parse=str):
            text = row[col]
            if text is not None:
                try:
                    return parse(text.strip())
                except (ArithmeticError, KeyError, ValueError):
                    pass
            why = "the row is short" if text is None else f"cannot read {text!r}"
            raise ValueError(f"trip file line {reader.line_num}, column {col!r}: {why}")

        for i, row in enumerate(reader):
            out.append(
                Request(
                    id=i,
                    origin=field(row, "origin_node"),
                    destination=field(row, "dest_node"),
                    request_time=field(row, "request_time_s", usec_from_seconds),
                    value_of_time=field(row, "value_of_time_usd_per_min",
                                        lambda text: mils_from_usd(text) if text else None),
                    max_wait=field(row, "max_wait_s", usec_from_seconds),
                    poolable=field(row, "poolable", lambda text: POOLABLE_FLAGS[text.lower()]),
                )
            )
    out.sort(key=lambda r: (r.request_time, r.id))
    return out


def load_summary_csv(path) -> list[tuple[tuple[str, ...], dict]]:
    """One (`CELL_COLUMNS` text, metrics) pair per summary row, the metrics
    exact and in `CellOutcome.metrics` units: the two shares from the integer
    counts, the others from their four decimals, "n/a" as None."""

    def value(text, scale=1):
        return None if text == "n/a" else Fraction(text) * scale

    def share(part, whole):
        return Fraction(int(part), int(whole)) * 100 if int(whole) else None

    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(SUMMARY_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"summary file lacks columns: {sorted(missing)}")
        for row in reader:
            try:
                metrics = {
                    "unserved_pct": share(row["unserved"], row["requests"]),
                    "pooled_share_pct": share(row["pooled"], row["poolable"]),
                    "distance_saving_pct": value(row["distance_saving_pct"]),
                    "profit_delta_pct": value(row["profit_delta_pct"]),
                    "profit": value(row["profit_usd"], MILS),
                    "mean_cost_per_poolable": value(row["mean_cost_per_poolable_usd"], MILS),
                    "cost_reduction_pct": value(row["cost_reduction_pct"]),
                    "brackets": {t: value(row[c]) for t, c in zip(BRACKETS, BRACKET_COLUMNS)},
                }
            except (TypeError, ValueError) as err:  # a short row, or text that is no number
                raise ValueError(f"summary file line {reader.line_num}: {err}") from None
            out.append((tuple(row[c] for c in CELL_COLUMNS), metrics))
    return out


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


def decision_rows(result: SimResult, prefix: tuple = ()):
    for d in result.decision_log:
        yield prefix + (
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


def split_rows(result: SimResult, prefix: tuple = ()):
    """Per-customer rows of every pooled run's final fare division."""
    for rec in result.runs:
        if rec.account is None:
            continue
        for m in rec.account.members:
            fare = result.per_customer[m.customer].fare
            saving = 1 - Fraction(fare + m.pooled_time_cost, m.solitary_cost)
            yield prefix + (
                rec.run_id,
                m.customer,
                fmt_usd(m.solitary_cost),
                fmt_usd(m.pooled_time_cost),
                fmt_usd(fare),
                fmt4(saving),
            )


RUN_ACCOUNT_COLUMNS = (
    "run_id",
    "customer",
    "c_solitary_usd",
    "a_pooled_time_usd",
    "run_fare_usd",
)


def run_account_rows(result: SimResult, prefix: tuple = ()):
    for rec in result.runs:
        if rec.account is None:
            continue
        for m in rec.account.members:
            yield prefix + (
                rec.run_id,
                m.customer,
                fmt_usd(m.solitary_cost),
                fmt_usd(m.pooled_time_cost),
                fmt_usd(rec.account.run_fare),
            )


def load_run_accounts_csv(path):
    """Read run accounts: one row per run member, fare repeated within a run."""
    from .costshare import RunAccount, RunMember

    groups: dict[str, list] = {}
    fares: dict[str, int] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(RUN_ACCOUNT_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"run file lacks columns: {sorted(missing)}")
        for row in reader:
            rid = row["run_id"].strip()
            if rid not in groups:
                groups[rid] = []
                order.append(rid)
                fares[rid] = mils_from_usd(row["run_fare_usd"].strip())
            elif fares[rid] != mils_from_usd(row["run_fare_usd"].strip()):
                raise ValueError(f"run {rid}: inconsistent run_fare_usd across rows")
            groups[rid].append(
                RunMember(
                    customer=int(row["customer"]),
                    solitary_cost=mils_from_usd(row["c_solitary_usd"].strip()),
                    pooled_time_cost=mils_from_usd(row["a_pooled_time_usd"].strip()),
                )
            )
    return [RunAccount(rid, tuple(groups[rid]), fares[rid]) for rid in order]


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
