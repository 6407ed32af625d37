"""The paper's six-case pooled fare: the reference for the engine's run fares.

A pooled pair is quoted one base fare, the distance charge over the ordered
stop legs of its case and one change fee.  The engine prices every pooled
run from its mileage through `pricing.mileage_fare`; on a run's first
pooling event that is the mileage of one of these six itineraries.  Here
a fare is priced from the itinerary itself, leg by leg (`route_fare`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ridepool.netgraph import RoadNetwork
from ridepool.pricing import Tariff, mileage_fare


def route_distance_umiles(net: RoadNetwork, waypoints) -> int:
    """Sum of shortest-path leg mileages over consecutive waypoints."""
    total = 0
    for a, b in zip(waypoints, waypoints[1:]):
        if a != b:
            total += net.distance_umiles(net.index(a), net.index(b))
    return total


def route_fare(t: Tariff, net: RoadNetwork, waypoints, change_events: int) -> int:
    """`mileage_fare` over the shortest-path mileage of a waypoint itinerary."""
    return mileage_fare(t, route_distance_umiles(net, waypoints), change_events)


class InvalidGeometry(Exception):
    """The supplied pooled-stop ordering contradicts its own timing claims."""


@dataclass(frozen=True)
class PoolGeometry:
    """Which of the six pooled stop orderings applies.

    Cases 1-2: the earlier customer is already riding when the new request
    arrives at `request_time_j`; the ride continues from `vehicle_location`
    and the earlier customer is dropped first (1) or last (2).
    Cases 3-6: neither customer has been picked up; 3-4 pick up the earlier
    customer first, 5-6 the new one first; odd cases drop the earlier
    customer first.
    """

    case: int
    request_time_j: int  # usec
    pickup_time_i: int  # usec, scheduled pickup of the earlier customer
    vehicle_location: str | None = None

    def __post_init__(self):
        if self.case not in range(1, 7):
            raise InvalidGeometry(f"case must be 1..6, got {self.case}")
        if self.case <= 2:
            if self.vehicle_location is None:
                raise InvalidGeometry("cases 1-2 need the vehicle location")
            if self.pickup_time_i > self.request_time_j:
                raise InvalidGeometry(
                    "cases 1-2 require the earlier customer to be picked up already"
                )
        elif self.pickup_time_i <= self.request_time_j:
            raise InvalidGeometry("cases 3-6 require the earlier pickup to be pending")


def _case_waypoints(case, i, j, location):
    oi, di, oj, dj = i.origin, i.destination, j.origin, j.destination
    if case == 1:
        return (oi, location, oj, di, dj)
    if case == 2:
        return (oi, location, oj, dj, di)
    if case == 3:
        return (oi, oj, di, dj)
    if case == 4:
        return (oi, oj, dj, di)
    if case == 5:
        return (oj, oi, di, dj)
    return (oj, oi, dj, di)


def ccp_pooled_fare(t, net, i, j, geometry):
    """Joint fare for a pooled pair: one base fare, the ordered stop legs
    of the applicable case, and one change fee for the schedule rewrite."""
    waypoints = _case_waypoints(geometry.case, i, j, geometry.vehicle_location)
    return route_fare(t, net, waypoints, 1)
