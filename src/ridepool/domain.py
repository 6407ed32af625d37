"""Core entities: trip requests, decisions, vehicle schedules, stop-level routes and the fleet.

A vehicle schedule is an ordered list of (location, time, op, customer)
entries where op is REC (request received / rerouting point), PU (pickup)
or DO (dropoff).  Vehicles carry at most two riders at once, so a request
joins a vehicle in one of seven ways, its case: alone on an idle vehicle
(None), or one of the six pooled-fare cases beside the vehicle's one rider
(`_decision_stops`).  A rule's `DecisionRow` names the case and both
riders' new pickup and dropoff times, and committing it rewrites the future
part of the schedule: a REC entry is recorded at the vehicle's anchor (the
next node it can reroute from) and the case's stops follow at the
decision's times.  It also builds the rider's `CustomerOutcome`, her one
record, which a pooling beside her moves.

Times are integer microseconds, distances integer micro-miles; see `units`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import KW_ONLY, dataclass, field
from heapq import heappop, heappush
from math import inf
from operator import attrgetter
from typing import Iterable, NamedTuple

from .netgraph import RoadNetwork
from .units import Money

REC = "REC"
PU = "PU"
DO = "DO"
NO_ANCHOR = (inf, -inf, None)  # `VehicleState.anchor_memo` holding for no time

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


POOLED_CASES = (1, 2, 3, 4, 5, 6)  # the pooled-fare cases; a solitary commit's case is None


@dataclass(slots=True)
class DecisionRow:
    """One request's decision, as a rule returns it, `run_sim` logs it and
    `apply_assignment` commits it.

    The logged fields alone make up the repr.  The keyword-only rest is the
    commit: a served request rides `vehicle` in `case` (None alone, 1-6
    beside `partner`), with both riders' pickup and dropoff times (usec).
    CCP also sets the vehicle's run fare and planned run mileage after the
    commit and, on a pooling, the change of the partner's fare: her
    guarantee drops by half the surplus and her fare absorbs her time-cost
    change.
    """

    time: int  # usec, the decision's time
    customer: int
    mechanism: str  # "SRO" | "PCP" | "CCP", a plain str
    decision: str  # "solitary" | "pooled" | "unserved"
    vehicle: int | None = None
    partner: int | None = None
    fare: Money | None = None
    baseline_cost: int | None = None
    guaranteed_cost: Money | None = None
    added_distance: int | None = None  # umiles
    _: KW_ONLY
    quote: int = field(repr=False)  # mils, the request's solitary fare
    case: int | None = field(default=None, repr=False)
    pickup: int | None = field(default=None, repr=False)
    dropoff: int | None = field(default=None, repr=False)
    partner_pickup: int | None = field(default=None, repr=False)
    partner_dropoff: int | None = field(default=None, repr=False)
    partner_fare_change: Money | None = field(default=None, repr=False)  # CCP poolings only
    run_fare: int | None = field(default=None, repr=False)  # CCP only
    run_umiles: int | None = field(default=None, repr=False)  # CCP only


@dataclass
class CustomerOutcome:
    """A served rider's one record.  `apply_assignment` builds it, keeps it on her vehicle
    while she rides and moves it at a pooling beside her; `run_sim` books it and sets
    `total_cost` after the run.  Her request and its endpoints' node indices, keyword-only,
    stay out of the repr and of comparisons."""

    customer: int
    poolable: bool
    pooled: bool
    vehicle: int
    fare: Money
    pickup_time: int
    dropoff_time: int
    total_cost: Money
    baseline_solitary_cost: int
    solitary_quote: int
    _: KW_ONLY
    request: Request = field(repr=False, compare=False)
    origin_idx: int = field(repr=False, compare=False)
    dest_idx: int = field(repr=False, compare=False)


def _decision_stops(d: DecisionRow, o: int, dest: int,
                    k: CustomerOutcome | None) -> tuple[tuple[str, int, int, int], ...]:
    """The stops of committing `d`, each (op, customer, node index, time), at
    the decision's times: its rider's, from node `o` to node `dest`, alone in
    case None; beside the partner on her ride `k`, odd cases drop her off
    first and cases 3-4 pick her up first (in cases 1-2 she is on board)."""
    case = d.case
    pu_r, do_r = (PU, d.customer, o, d.pickup), (DO, d.customer, dest, d.dropoff)
    if case is None:
        return pu_r, do_r
    do_k = (DO, d.partner, k.dest_idx, d.partner_dropoff)
    drops = (do_k, do_r) if case % 2 else (do_r, do_k)
    if case <= 2:
        return (pu_r, *drops)
    pu_k = (PU, d.partner, k.origin_idx, d.partner_pickup)
    return ((pu_k, pu_r) if case <= 4 else (pu_r, pu_k)) + drops


class VehicleState:
    """One vehicle: schedule history, stop-level route and current commitments.

    `way_*` hold the route's waypoints (the start node, each anchor inside a leg, each
    stop off the previous waypoint) with the arrival time and cumulative mileage at each.
    Canonical paths join them; a vehicle waits only at its last waypoint, while idle.
    A commit keeps the waypoints reached by its time and cuts the leg being driven at its
    anchor.  `anchor_memo` holds `busy_anchor`'s last answer from inside a leg; a commit
    on a busy vehicle clears it.
    Customer-centered pooling also keeps `runs`, each run's customers in first-pickup order
    (a run is a maximal occupied interval), plus the last run's fare and `run_umiles`, the
    route's planned mileage from that run's first pickup; `apply_assignment` sets them from
    every CCP decision.
    """

    def __init__(self, vid: int, start_node: str, net: RoadNetwork):
        self.id = vid
        self.net = net
        self.schedule: list[ScheduleEntry] = []
        self.way_nodes: list[int] = [net.index(start_node)]
        self.way_times: list[int] = [0]
        self.way_cum: list[int] = [0]
        self.anchor_memo: tuple = NO_ANCHOR  # (lo, hi, answer), see `busy_anchor`
        self.active: dict[int, CustomerOutcome] = {}
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

    def busy_anchor(self, now: int) -> tuple[int, int, int]:
        """(node index, time, cumulative umiles) of the next node a vehicle busy at `now`
        can turn at, without pruning: the first node of its route reached at or after `now`.
        `now` must not pass the route's last waypoint (IndexError there): callers ask only
        vehicles with a rider still to drop off, as `Fleet.lone` and a commit's busy branch
        do; `RoadNetwork.leg` memoizes each leg.  `anchor_memo` is (lo, hi, answer) for the
        last answer from inside a leg: the answer for every `now` in (lo, hi], after the hop
        before it up to its own time."""
        lo, hi, got = self.anchor_memo
        if lo < now <= hi:
            return got
        j = bisect_right(self.way_times, now) - 1
        if self.way_times[j] == now:
            return self.way_nodes[j], now, self.way_cum[j]
        # the leg departs when it reaches its end on time, after any wait.  Hop 0 is never
        # the anchor: a leg departing at `now` after a wait has left it
        nodes, usec, umiles = self.net.leg(self.way_nodes[j], self.way_nodes[j + 1])
        start = self.way_times[j + 1] - usec[-1]
        k = bisect_left(usec, now - start, 1)
        got = nodes[k], start + usec[k], self.way_cum[j] + umiles[k]
        self.anchor_memo = (start + usec[k - 1] if k > 1 else self.way_times[j], got[1], got)
        return got


class Fleet:
    """The vehicles plus the state the candidate pass reads, as of `advance`'s clock.

    `idle_at` holds, at each node index, the slots of the idle vehicles whose
    route ends there, or None where none does (never an empty list), and
    `idle_nodes` counts the nodes that hold some; `lone` maps a slot to the
    rider of a vehicle carrying exactly one rider, a poolable one.  A vehicle
    is idle from its last committed dropoff on and carries one rider from its
    second-to-last one on (riders dropped off together are never alone).
    Construction and `commit` push both times onto one min-heap, tagged with
    the vehicle's version; `advance` applies the events due and skips those
    of earlier versions.
    """

    def __init__(self, vehicles: Iterable[VehicleState]):
        self.vehicles = list(vehicles)
        self.by_id = {v.id: v for v in self.vehicles}
        self.idle_at: list[list[int] | None] = [None] * (
            self.vehicles[0].net.n_nodes if self.vehicles else 0)
        self.idle_nodes = 0
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
        slot = v.slot
        version = self._version[slot] = self._version[slot] + 1
        last = second = -inf
        for c, ride in v.active.items():
            if ride.dropoff_time >= last:
                last, second, rider = ride.dropoff_time, last, c
            elif ride.dropoff_time > second:
                second = ride.dropoff_time
        heappush(self._events, (last, slot, version, None))
        if second < last and v.active[rider].poolable:
            heappush(self._events, (second, slot, version, rider))

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
                a = self.vehicles[slot].way_nodes[-1]
                here = self.idle_at[a]
                if here is None:
                    self.idle_at[a] = [slot]
                    self.idle_nodes += 1
                else:
                    here.append(slot)
            else:
                self.lone[slot] = rider

    def commit(self, r: Request, d: DecisionRow, now: int) -> CustomerOutcome:
        """`apply_assignment` on the decision's vehicle; `advance` applies its new events."""
        v = self.by_id[d.vehicle]
        slot, old = v.slot, v.way_nodes[-1]
        ride = apply_assignment(v, r, d, now)
        here = self.idle_at[old]
        if here is not None and slot in here:
            here.remove(slot)
            if not here:
                self.idle_at[old] = None
                self.idle_nodes -= 1
        self.lone.pop(slot, None)
        self._track(v)
        return ride


def apply_assignment(v: VehicleState, r: Request, d: DecisionRow, now: int) -> CustomerOutcome:
    """Commit decision `d` on request `r`, rewriting the future schedule from the anchor.

    Case None puts `r` alone on an idle vehicle; cases 1-6 pool it with the
    vehicle's one rider, `d.partner`, on board in cases 1-2 and waiting in
    cases 3-6 (`_decision_stops`).  Raises ValueError, before any change,
    when `d` is not for `r` and `v` or their riders at `now` do not fit it.
    The new customer gets a REC entry at (anchor, now), and the stops and
    the waypoints follow at the decision's times, the waypoints' mileage read
    from `lex`.  Returns `r`'s new record; a pooling also moves the partner's
    (her times, pooled flag and CCP fare).  A CCP decision also sets the
    vehicle's runs and run fields.
    """
    idle = v.is_idle(now)  # also prunes the finished rides
    active, case = v.active, d.case
    k = active.get(d.partner)
    # alone on an idle vehicle, or beside its one rider, on board exactly in cases 1-2
    fits = case is None if idle else (case in POOLED_CASES and k is not None and len(active) == 1
                                      and (k.pickup_time <= now) == (case <= 2))
    if not fits or d.customer != r.id or d.vehicle != v.id:
        riders = {c: "on board" if ride.pickup_time <= now else "waiting"
                  for c, ride in active.items()}
        raise ValueError(f"vehicle {v.id} cannot take customer {r.id} in case {case} beside "
                         f"{d.partner}, decided for vehicle {d.vehicle}: its riders at {now} "
                         f"usec are {riders}")
    net = v.net
    way_nodes, way_times, way_cum = v.way_nodes, v.way_times, v.way_cum
    if idle:  # the route ends where the vehicle stands
        a, cum = way_nodes[-1], way_cum[-1]
    else:
        a, t, cum = v.busy_anchor(now)
        v.anchor_memo = NO_ANCHOR
        # the waypoints reached by `now` are driven, then the route turns at the anchor; a
        # canonical path is the least time-minimal one, so the cut leg's prefix is one too
        kept = bisect_right(way_times, now)
        del way_nodes[kept:], way_times[kept:], way_cum[kept:]
        if a != way_nodes[-1]:
            way_nodes.append(a)
            way_times.append(t)
            way_cum.append(cum)

    # schedule times never decrease, so the entries up to `now` are a prefix
    entries, node_ids = v.schedule, net.node_ids
    if entries and entries[-1].time > now:
        del entries[bisect_right(entries, now, key=_entry_time) :]
    entries.append(ScheduleEntry(node_ids[a], now, REC, r.id))

    o, dest = net.index(r.origin), net.index(r.destination)
    ride = active[r.id] = CustomerOutcome(
        r.id, bool(r.poolable), k is not None, d.vehicle, d.fare, d.pickup, d.dropoff, 0,
        d.baseline_cost, d.quote, request=r, origin_idx=o, dest_idx=dest)
    if k is not None:
        k.pooled, k.pickup_time, k.dropoff_time = True, d.partner_pickup, d.partner_dropoff
        if d.partner_fare_change is not None:  # CCP: a Fraction, as the change is
            k.fare += d.partner_fare_change
    lex = net.rows()[1]
    cur = a
    for op, c, j, t in _decision_stops(d, o, dest, k):
        if j != cur:
            cum += lex[cur][j]
            way_nodes.append(j)
            way_times.append(t)
            way_cum.append(cum)
            cur = j
        entries.append(ScheduleEntry(node_ids[j], t, op, c))

    if d.run_fare is not None:  # CCP
        if k is None:  # a solitary rider opens the vehicle's next run
            v.runs.append([r.id])
        else:  # r joins k's run, ahead of k in cases 5-6, where r is picked up first
            run = v.runs[-1]
            run.insert(len(run) - 1 if case >= 5 else len(run), r.id)
        v.run_fare, v.run_umiles = d.run_fare, d.run_umiles
    return ride
