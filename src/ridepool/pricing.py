"""Monetary formulas: fares, customer total cost and provider profit.

A solitary ride costs a base fare plus a distance charge over the
origin-destination shortest path.  Under provider-centered pooling every
poolable customer pays the discounted solitary fare whether or not she is
matched.  Under customer-centered pooling a run's fare covers its whole
itinerary: one base fare, the distance charge over the run's mileage and one
change fee for each pooling event on the run.

A customer's total cost is her fare plus her value of time applied to the
span between request and dropoff.  Money is kept in integer mils (tenths of
a cent) so every comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domain import Request
from .netgraph import RoadNetwork
from .units import (
    Money,
    distance_charge_mils,
    time_cost_mils,
)


@dataclass(frozen=True)
class Tariff:
    """Fare and cost parameters, monetary fields in mils."""

    base_fare: int
    per_mile: int
    change_fee: int
    discount_factor: Fraction
    detour_factor: Fraction
    provider_cost_per_mile: int

    def __post_init__(self):
        # exact inputs only: an inexact one would fail late, in the run or its output
        for name in ("base_fare", "per_mile", "change_fee", "provider_cost_per_mile"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"tariff {name} must be an int of mils, "
                                 f"got {getattr(self, name)!r}")
        for name in ("discount_factor", "detour_factor"):
            if type(getattr(self, name)) not in (int, Fraction):
                raise ValueError(f"tariff {name} must be an int or a Fraction, "
                                 f"got {getattr(self, name)!r}")
        if self.base_fare < 0 or self.change_fee < 0:
            raise ValueError("base fare and change fee must be non-negative")
        if self.per_mile <= 0 or self.provider_cost_per_mile <= 0:
            raise ValueError("per-mile rates must be positive")
        if not 0 < self.discount_factor <= 1:
            raise ValueError("discount factor must be in (0, 1]")
        if self.detour_factor <= 0:
            raise ValueError("detour factor must be positive")


def mileage_fare(t: Tariff, dist_umiles: int, change_events: int) -> int:
    """Base fare + distance charge over a run's mileage + change fees."""
    charge = distance_charge_mils(t.per_mile, dist_umiles)
    return t.base_fare + charge + change_events * t.change_fee


def solitary_fare(t: Tariff, net: RoadNetwork, o: int, d: int) -> int:
    """The quote of a ride alone from node index `o` to `d`."""
    return mileage_fare(t, net.distance_umiles(o, d), 0)


def pcp_fare(t: Tariff, solitary: Money) -> Fraction:
    """Discounted fare charged to every poolable customer, matched or not."""
    if solitary < 0:
        raise ValueError("solitary fare must be non-negative")
    return t.discount_factor * solitary


def total_cost(fare: Money, r: Request, dropoff: int) -> Money:
    """Fare plus cost of time between request and dropoff."""
    if dropoff < r.request_time:
        raise ValueError("dropoff precedes request time")
    if r.value_of_time is None:
        raise ValueError(f"request {r.id} has no value of time yet")
    return fare + time_cost_mils(r.value_of_time, dropoff - r.request_time)


def provider_profit(fares_collected: Money, fleet_umiles: int, t: Tariff) -> Money:
    """Collected fares minus mileage-dependent cost; fixed costs excluded."""
    if fleet_umiles < 0:
        raise ValueError("fleet mileage must be non-negative")
    return fares_collected - distance_charge_mils(t.provider_cost_per_mile, fleet_umiles)
