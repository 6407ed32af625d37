"""Core entities: trip requests, vehicle schedules, stop-level routes and the fleet.

A vehicle schedule is an ordered list of (location, time, op, customer)
entries where op is REC (request received / rerouting point), PU (pickup)
or DO (dropoff).  Vehicles carry at most two riders at once, so a request
joins a vehicle in one of seven ways, its case: alone on an idle vehicle
(None), or one of the six pooled-fare cases beside the vehicle's one rider
(`_case_stops`).  Committing a request in its case rewrites the future part
of the schedule: a REC entry is recorded at the vehicle's anchor (the next
node it can reroute from) and all downstream pickup/dropoff times are
recomputed from shortest paths.

Times are integer microseconds, distances integer micro-miles; see `units`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from operator import attrgetter
from typing import Iterable, NamedTuple

from .netgraph import RoadNetwork

REC = "REC"
PU = "PU"
DO = "DO"

@dataclass(frozen=True)
class Request:
    """A customer trip request.

    `value_of_time` is in mils per minute and `poolable` is a flag; both may
    be None on ingested trips, in which case the simulation draws them from
    its seeded streams before processing.
    """

    id: int
    origin: str
    destination: str
    request_time: int  # usec; equals the preferred pickup time
    value_of_time: int | None  # mils per minute
    max_wait: int  # usec
    poolable: bool | None

    def __post_init__(self):
        if self.origin == self.destination:
            raise ValueError(f"request {self.id}: origin equals destination")
        if self.max_wait <= 0:
            raise ValueError(f"request {self.id}: max_wait must be positive")
        if self.value_of_time is not None and self.value_of_time < 0:
            raise ValueError(f"request {self.id}: value of time must be non-negative")

    def resolved(self, value_of_time=None, poolable=None, max_wait=None) -> "Request":
        """This request with missing value of time and poolable flag filled
        in and, when given, `max_wait` replaced; one copy at most."""
        if self.value_of_time is not None and self.poolable is not None and max_wait is None:
            return self
        return Request(
            self.id, self.origin, self.destination, self.request_time,
            value_of_time if self.value_of_time is None else self.value_of_time,
            self.max_wait if max_wait is None else max_wait,
            poolable if self.poolable is None else self.poolable,
        )


class ScheduleEntry(NamedTuple):
    location: str
    time: int  # usec
    op: str
    customer: int


_entry_time = attrgetter("time")


CASES = (None, 1, 2, 3, 4, 5, 6)  # a commit's case: solitary, or a pooled-fare case


class Stop(NamedTuple):
    """One future pickup or dropoff of a commit."""

    op: str
    customer: int
    node: int  # node index


def _case_stops(case: int | None, r: tuple[int, int, int],
                k: tuple[int, int, int] | None = None) -> tuple[Stop, ...]:
    """The stops of a commit, each rider given as (customer, origin index,
    destination index): the new rider `r` alone in case None; beside the
    partner `k`, odd cases drop `k` off first and cases 3-4 pick `k` up
    first (in cases 1-2 `k` is on board)."""
    pu_r, do_r = Stop(PU, r[0], r[1]), Stop(DO, r[0], r[2])
    if case is None:
        return pu_r, do_r
    do_k = Stop(DO, k[0], k[2])
    drops = (do_k, do_r) if case % 2 else (do_r, do_k)
    if case <= 2:
        return (pu_r, *drops)
    pu_k = Stop(PU, k[0], k[1])
    return ((pu_k, pu_r) if case <= 4 else (pu_r, pu_k)) + drops


@dataclass
class ActiveRide:
    """Currently committed, not yet completed ride on a vehicle: its times,
    its endpoints' node indices and the committed request, which is where
    the pooled pass reads a partner's request."""

    pickup_time: int
    dropoff_time: int
    origin_idx: int
    dest_idx: int
    request: Request


class VehicleState:
    """One vehicle: schedule history, stop-level route and current commitments.

    `way_*` hold the route's waypoints (the start node, each anchor inside a leg, each
    stop off the previous waypoint) with the arrival time and cumulative mileage at each.
    Canonical paths join them; a vehicle waits only at its last waypoint, while idle.
    `busy_anchor` carries the leg being driven: the index of the waypoint it leaves, the
    memoized leg and its departure time; `apply_assignment`, which rewrites the route,
    clears it.
    Customer-centered pooling also keeps `runs`, each run's customers in first-pickup order
    (a run is a maximal occupied interval), plus the last run's fare and `run_umiles`, the
    route's planned mileage from that run's first pickup; `run_sim` sets them at every CCP
    commit.
    """

    def __init__(self, vid: int, start_node: str, net: RoadNetwork):
        self.id = vid
        self.net = net
        self.schedule: list[ScheduleEntry] = []
        self.way_nodes: list[int] = [net.index(start_node)]
        self.way_times: list[int] = [0]
        self.way_cum: list[int] = [0]
        self.leg_from = -1  # the waypoint index of the carried leg; -1 when none is
        self.leg: tuple[list[int], list[int], list[int]] = ([], [], [])
        self.leg_start = 0  # usec, the carried leg's departure time
        self.active: dict[int, ActiveRide] = {}
        self.slot = -1  # this vehicle's index in its `Fleet`'s vehicles
        self.runs: list[list[int]] = []
        self.run_fare: int = 0
        self.run_umiles: int = 0

    # -- state queries ---------------------------------------------------------

    def prune(self, now: int) -> None:
        done = [c for c, ride in self.active.items() if ride.dropoff_time <= now]
        for c in done:
            del self.active[c]

    def is_idle(self, now: int) -> bool:
        self.prune(now)
        return not self.active

    def anchor_at(self, now: int) -> tuple[int, int, int]:
        """(node index, time, cumulative umiles) of the next node it can turn at."""
        if self.is_idle(now):
            return self.way_nodes[-1], now, self.way_cum[-1]
        return self.busy_anchor(now)

    def busy_anchor(self, now: int) -> tuple[int, int, int]:
        """`anchor_at` for a vehicle known to be busy at `now`, without
        pruning: the first node of its route reached at or after `now`."""
        j = bisect_right(self.way_times, now) - 1
        if self.way_times[j] == now:
            return self.way_nodes[j], now, self.way_cum[j]
        # a canonical path is the lexicographically smallest time-minimal one, so its prefix
        # to a hop is the canonical path there: the driven part of a leg cut at an anchor.
        # Hop 0 is never the anchor: a leg departing at `now` after a wait has left it
        if j != self.leg_from:
            self.leg_from, self.leg = j, self.net.leg(self.way_nodes[j], self.way_nodes[j + 1])
            self.leg_start = self.way_times[j + 1] - self.leg[1][-1]  # after any wait
        nodes, usec, umiles = self.leg
        start = self.leg_start
        k = bisect_left(usec, now - start, 1)
        return nodes[k], start + usec[k], self.way_cum[j] + umiles[k]


class Fleet:
    """The vehicles plus the state the candidate pass reads, as of `advance`'s clock.

    `idle_at` maps a node index to the slots of the idle vehicles whose route
    ends there; `lone` maps a slot to the rider of a vehicle carrying exactly
    one rider, a poolable one.  A vehicle is idle from its last committed
    dropoff on and carries one rider from its second-to-last one on (riders
    dropped off together are never alone).  Construction and `commit` push
    both times onto one min-heap, tagged with the vehicle's version;
    `advance` applies the events due and skips those of earlier versions.
    """

    def __init__(self, vehicles: Iterable[VehicleState]):
        self.vehicles = list(vehicles)
        self.by_id = {v.id: v for v in self.vehicles}
        self.idle_at: dict[int, list[int]] = {}
        self.lone: dict[int, int] = {}
        self.clock = -inf
        # a heap of (time, slot, version, rider or None) and each slot's version
        self._events, self._version = [], [0] * len(self.vehicles)
        for slot, v in enumerate(self.vehicles):
            v.slot = slot
            self._track(v)

    def _track(self, v: VehicleState) -> None:
        """Queue the events of the vehicle's next version: idle from its last committed dropoff
        (at once without one) and, for a poolable last rider, alone from the dropoff before."""
        version = self._version[v.slot] = self._version[v.slot] + 1
        drops = sorted([(ride.dropoff_time, c) for c, ride in v.active.items()])
        last, rider = drops[-1] if drops else (-inf, None)
        second = drops[-2][0] if len(drops) > 1 else -inf
        heappush(self._events, (last, v.slot, version, None))
        if second < last and v.active[rider].request.poolable:
            heappush(self._events, (second, v.slot, version, rider))

    def advance(self, now: int) -> None:
        """Apply every event due by `now`; the clock never runs backwards."""
        if now < self.clock:
            raise ValueError(f"the fleet's clock cannot run back from {self.clock} to {now}")
        self.clock = now
        while self._events and self._events[0][0] <= now:
            _, slot, version, rider = heappop(self._events)
            if version != self._version[slot]:
                continue  # a later commit replaced this event
            if rider is None:
                self.lone.pop(slot, None)
                self.idle_at.setdefault(self.vehicles[slot].way_nodes[-1], []).append(slot)
            else:
                self.lone[slot] = rider

    def commit(self, v: VehicleState, r: Request, case: int | None, now: int) -> None:
        """`apply_assignment` on one of these vehicles; `advance` applies its new events."""
        slot, old = v.slot, v.way_nodes[-1]
        apply_assignment(v, r, case, now)
        here = self.idle_at.get(old)
        if here is not None and slot in here:
            here.remove(slot)
            if not here:
                del self.idle_at[old]
        self.lone.pop(slot, None)
        self._track(v)


def apply_assignment(v: VehicleState, r: Request, case: int | None, now: int) -> None:
    """Commit request `r` in `case`: rewrite the future schedule from the anchor.

    Case None puts `r` alone on an idle vehicle; cases 1-6 pool it with the
    vehicle's one rider, on board in cases 1-2 and waiting in cases 3-6
    (`_case_stops`).  Raises ValueError, before any change, when the
    vehicle's riders at `now` do not fit the case.  The new customer gets a
    REC entry at (anchor, now); every downstream stop time is recomputed
    from shortest paths.  Past entries and committed REC entries are
    untouched.
    """
    anchor_idx, t, cum = v.anchor_at(now)  # also prunes finished rides
    on_board = {c: ride.pickup_time <= now for c, ride in v.active.items()}
    if case not in CASES or list(on_board.values()) != ([] if case is None else [case <= 2]):
        riders = {c: "on board" if b else "waiting" for c, b in on_board.items()}
        raise ValueError(f"vehicle {v.id} cannot take customer {r.id} in case {case}: "
                         f"its riders at {now} usec are {riders}")
    net = v.net
    o, d = net.index(r.origin), net.index(r.destination)
    k = next(((c, ride.origin_idx, ride.dest_idx) for c, ride in v.active.items()), None)
    stops = _case_stops(case, (r.id, o, d), k)
    v.leg_from = -1  # the waypoints change below

    # the waypoints reached by `now` are driven, then the route turns at the anchor
    kept = bisect_right(v.way_times, now)
    del v.way_nodes[kept:], v.way_times[kept:], v.way_cum[kept:]
    if anchor_idx != v.way_nodes[-1]:
        v.way_nodes.append(anchor_idx)
        v.way_times.append(t)
        v.way_cum.append(cum)

    # schedule times never decrease, so the entries up to `now` are a prefix
    entries, node_ids = v.schedule, net.node_ids
    del entries[bisect_right(entries, now, key=_entry_time) :]
    entries.append(ScheduleEntry(node_ids[anchor_idx], now, REC, r.id))

    v.active[r.id] = ActiveRide(now, now, o, d, r)  # its times are set below
    dur, lex = net.rows()
    cur = anchor_idx
    for op, c, j in stops:
        if j != cur:
            t += dur[cur][j]
            cum += lex[cur][j]
            v.way_nodes.append(j)
            v.way_times.append(t)
            v.way_cum.append(cum)
            cur = j
        entries.append(ScheduleEntry(node_ids[j], t, op, c))
        if op == PU:
            v.active[c].pickup_time = t
        else:
            v.active[c].dropoff_time = t
