"""A cell's totals and poolable-cost metrics, one customer at a time.

`harness.CellOutcome.metrics` takes its mean cost and cost reduction from a
run's `RiderSums`, and a re-priced PCP run takes its fares and profit from
the sums of the run it re-prices.  Here every figure is derived from the
records instead: each served customer's fare and total cost.
"""

from __future__ import annotations

from fractions import Fraction

from ridepool.harness import BRACKETS
from ridepool.pricing import provider_profit


def totals(result) -> tuple:
    """(fares collected, profit), summed over the served customers' fares."""
    fares = sum(o.fare for o in result.per_customer.values())
    return fares, provider_profit(fares, result.fleet_distance, result.config.tariff)


def cost_metrics(result, thresholds=BRACKETS) -> dict:
    """Mean total cost per served poolable customer, the mean relative cost
    reduction against each one's solitary baseline and the savings brackets,
    the last two over those whose baseline is positive."""
    poolable = [o for o in result.per_customer.values() if o.poolable]
    priced = [o for o in poolable if o.baseline_solitary_cost > 0]
    return {
        "mean_cost_per_poolable": (
            Fraction(sum(o.total_cost for o in poolable), 1) / len(poolable)
            if poolable else None
        ),
        "cost_reduction_pct": (
            sum(1 - Fraction(o.total_cost) / o.baseline_solitary_cost for o in priced)
            / len(priced) * 100 if priced else None
        ),
        "brackets": {
            t: Fraction(sum(1 for o in priced
                            if o.baseline_solitary_cost - o.total_cost
                            >= t * o.baseline_solitary_cost), len(priced)) * 100
            if priced else None
            for t in thresholds
        },
    }
