"""Online assignment: candidate generation and the three selection rules.

Every incoming request triggers an immediate decision.  Candidates are
either a solitary ride on an empty vehicle or, in pooling modes, an
insertion into the schedule of a vehicle that currently serves exactly one
poolable customer (the stop orderings mirror the six pooled-fare cases).

* SRO  -- solitary rides only, minimal added driving distance.
* PCP  -- poolable customers always pay the discounted fare; pooling picks
          the distance-minimal feasible candidate subject to every rider's
          trip lasting at most (1 + detour_factor) times her direct ride.
* CCP  -- pooling only happens when the pair's guaranteed total costs
          strictly drop (the coalition check); the winning candidate
          maximizes that surplus, and both riders' guarantees tighten.

All selections are deterministic: added distance, then vehicle id, then the
plan layout break ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, NamedTuple

import numpy as np

from .domain import DO, PU, Fleet, InsertionPlan, Request, Stop, VehicleState, plan_stop_times
from .netgraph import INF, RoadNetwork, Unreachable
from .pricing import Tariff, mileage_fare, pcp_fare, route_distance_umiles, solitary_fare
from .units import Money, time_cost_mils

MAX_WAIT_REASON = "MaxWaitExceeded"


class Mechanism(str, Enum):
    SRO = "SRO"
    PCP = "PCP"
    CCP = "CCP"


@dataclass
class CommittedCost:
    """A customer's frozen baseline and her currently guaranteed economics."""

    customer: int
    baseline: int  # mils, solitary-counterfactual total cost, frozen
    guaranteed: Money  # current guaranteed total cost
    fare: Money  # current fare share


@dataclass
class InsertionCandidate:
    vehicle: int
    plan: InsertionPlan
    added_distance: int  # umiles
    pickup_times: dict[int, int]
    dropoff_times: dict[int, int]
    feasible: bool
    reason: str | None = None
    case: int | None = None  # pooled stop-ordering case, None for solitary
    partner: int | None = None
    pooled_fare: Money | None = None
    surplus: Fraction | None = None
    new_run_fare: int | None = None
    new_waypoints: tuple[str, ...] | None = None
    new_wp_times: tuple[int, ...] | None = None

    def sort_key(self):
        return (self.added_distance, self.vehicle, self.plan.key())


@dataclass
class AssignmentDecision:
    customer: int
    kind: str  # "solitary" | "pooled" | "unserved"
    candidate: InsertionCandidate | None = None
    fare: Money | None = None
    baseline: int | None = None
    guaranteed: Money | None = None
    partner_fare: Money | None = None
    partner_guaranteed: Money | None = None
    reason: str | None = None
    quote: int | None = None  # mils, the request's solitary fare

    @property
    def vehicle(self):
        return self.candidate.vehicle if self.candidate else None

    @property
    def partner(self):
        return self.candidate.partner if self.candidate else None


UNSERVED = "unserved"
SOLITARY = "solitary"
POOLED = "pooled"


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

def _solitary_candidate(v: VehicleState, r: Request, now: int) -> InsertionCandidate:
    stops = (Stop(PU, r.id, r.origin), Stop(DO, r.id, r.destination))
    times, _, _, added = plan_stop_times(v, stops, now)
    pickup, dropoff = times
    ok = pickup - r.request_time <= r.max_wait
    return InsertionCandidate(
        vehicle=v.id,
        plan=InsertionPlan(r.id, stops),
        added_distance=added,
        pickup_times={r.id: pickup},
        dropoff_times={r.id: dropoff},
        feasible=ok,
        reason=None if ok else MAX_WAIT_REASON,
    )


class PooledOffer(NamedTuple):
    """One wait-feasible pooled interleaving, priced from table reads.

    `stops` holds `Stop`s, each the tuple (op, customer, location), so the
    key `offer[:3]` orders exactly like `InsertionCandidate.sort_key`.
    """

    added_distance: int  # umiles
    vehicle: int
    stops: tuple[Stop, ...]
    case: int  # pooled stop-ordering case
    partner: int
    pickup: int  # usec, the new request's
    dropoff: int
    partner_pickup: int
    partner_dropoff: int

    feasible = True  # only wait-feasible interleavings become offers

    def stop_times(self) -> list[int]:
        """Arrival time at each stop, in plan order."""
        return [
            (self.partner_pickup if s.op == PU else self.partner_dropoff)
            if s.customer == self.partner
            else (self.pickup if s.op == PU else self.dropoff)
            for s in self.stops
        ]


def _pooled_candidate(c: PooledOffer, r_id: int, **economics) -> InsertionCandidate:
    """The full candidate record of a winning offer."""
    pickups, dropoffs = {}, {}
    for s, t in zip(c.stops, c.stop_times()):
        (pickups if s.op == PU else dropoffs)[s.customer] = t
    pickups.setdefault(c.partner, c.partner_pickup)
    return InsertionCandidate(
        vehicle=c.vehicle, plan=InsertionPlan(r_id, c.stops), added_distance=c.added_distance,
        pickup_times=pickups, dropoff_times=dropoffs, feasible=True, case=c.case,
        partner=c.partner, **economics,
    )


def _pooled_offers(
    fleet: Fleet, r: Request, now: int, net: RoadNetwork, requests: Mapping[int, Request]
) -> list[PooledOffer]:
    """Every wait-feasible insertion of `r` into a vehicle serving one poolable `k`.

    The fleet's rider arrays pick the vehicles carrying exactly one rider at
    `now` in one mask.  A vehicle whose anchor cannot reach r's origin within
    r's wait limit is skipped: every leg is a shortest path, so no
    interleaving picks r up sooner.  Legs are scalar reads of the duration
    and mileage tables; an interleaving that breaks r's wait limit, or the
    wait limit of a partner still waiting, is dropped.  Cases 1-2 (k on board) and 3-6 (k waiting)
    mirror the six pooled-fare cases.
    """
    dur, _, lex = net.tables()

    def leg(i, j):
        t = dur.item(i, j)
        if t >= INF:
            raise Unreachable(net.node_ids[i], net.node_ids[j])
        return t, lex.item(i, j)

    o, d = net.index(r.origin), net.index(r.destination)
    pu_r, do_r = Stop(PU, r.id, r.origin), Stop(DO, r.id, r.destination)
    latest = r.request_time + r.max_wait
    t_od, m_od = leg(o, d)
    out = []
    single = np.flatnonzero(fleet.single_rider(now))
    for slot, kid in zip(single.tolist(), fleet.last_rider[single].tolist()):
        k = requests[kid]
        if not k.poolable:
            continue
        v = fleet.vehicles[slot]
        pos, a, t_a = v.busy_anchor(now)
        pick = t_a + dur.item(a, o)  # r's earliest pickup
        if pick > latest:
            continue
        m_ao = lex.item(a, o)
        tail = v.trace_cum[-1] - v.trace_cum[pos]  # mileage of the abandoned plan
        ok, dk = net.index(k.origin), net.index(k.destination)
        do_k = Stop(DO, kid, k.destination)
        t_kr, m_kr = leg(dk, d)
        t_rk, m_rk = leg(d, dk)
        vid = v.id

        def dropoffs(x, t, m, head, case, r_pick, k_pick):
            """Both dropoff orders after the pickups `head`, from node x reached
            at time t after m umiles."""
            t1, m1 = leg(x, dk)
            out.append(PooledOffer(m + m1 + m_kr - tail, vid, (*head, do_k, do_r), case, kid,
                                   r_pick, t + t1 + t_kr, k_pick, t + t1))
            t2, m2 = leg(x, d)
            out.append(PooledOffer(m + m2 + m_rk - tail, vid, (*head, do_r, do_k), case + 1, kid,
                                   r_pick, t + t2, k_pick, t + t2 + t_rk))

        ride = v.active[kid]
        if ride.pickup_time <= now:
            dropoffs(o, pick, m_ao, (pu_r,), 1, pick, ride.pickup_time)
            continue
        pu_k = Stop(PU, kid, k.origin)
        k_latest = k.request_time + k.max_wait
        t_ak, m_ak = leg(a, ok)
        k_pick = t_a + t_ak
        if k_pick <= k_latest:
            t, m = leg(ok, o)
            r_pick = k_pick + t
            if r_pick <= latest:
                dropoffs(o, r_pick, m_ak + m, (pu_k, pu_r), 3, r_pick, k_pick)
        t, m = leg(o, ok)
        k_pick = pick + t
        if k_pick <= k_latest:
            dropoffs(ok, k_pick, m_ao + m, (pu_r, pu_k), 5, pick, k_pick)
    return out


def enumerate_candidates(
    fleet: Fleet,
    r: Request,
    now: int,
    mode: Mechanism,
    net: RoadNetwork,
    requests: Mapping[int, Request],
) -> list[InsertionCandidate | PooledOffer]:
    """The one candidate pass for a request, over the fleet's arrays.

    First, when there is one, the best feasible solitary candidate: one
    gather from the duration and mileage tables prices every idle vehicle's
    pickup and added distance, the wait limit prunes (the request-vehicle
    pruning of Alonso-Mora et al., PNAS 2017), and only the minimum over
    (added distance, vehicle id) is built.
    Then, for a poolable request in a pooling mode, every wait-feasible
    pooled interleaving as a `PooledOffer` (see `_pooled_offers`), vehicle
    by vehicle in fleet order and case by case.  Every item is feasible.
    """
    dur, _, lex = net.tables()
    o = net.index(r.origin)
    idle = np.flatnonzero(fleet.busy_until <= now)
    nodes = fleet.node[idle]
    # an idle vehicle leaves its trace end at `now`; every solitary candidate
    # drives o -> d, so the access leg alone orders them by added distance
    near = dur[nodes, o] <= r.request_time + r.max_wait - now
    out = []
    if near.any():
        slots = idle[near]
        access = lex[nodes[near], o]
        tied = slots[access == access.min()]
        slot = tied[fleet.ids[tied].argmin()]
        out.append(_solitary_candidate(fleet.vehicles[slot], r, now))
    if mode != Mechanism.SRO and r.poolable:
        out.extend(_pooled_offers(fleet, r, now, net, requests))
    return out


def _priced_pass(fleet, r, now, mode, net, tariff, requests):
    """(quote, baseline, best solitary candidate or None, pooled offers).

    One candidate pass and the one solitary quote it prices.  The baseline
    is the frozen solitary-counterfactual total cost: the quote plus the
    time cost up to the best solitary dropoff or, when no solitary
    candidate is feasible, of the hypothetical ride with maximal wait.
    """
    cands = enumerate_candidates(fleet, r, now, mode, net, requests)
    solo = cands[0] if cands and cands[0].case is None else None
    quote = solitary_fare(tariff, net, r.origin, r.destination)
    if solo is not None:
        span = solo.dropoff_times[r.id] - r.request_time
    else:
        span = r.max_wait + net.duration_usec(net.index(r.origin), net.index(r.destination))
    return quote, quote + time_cost_mils(r.value_of_time, span), solo, cands[solo is not None :]


# ---------------------------------------------------------------------------
# the three mechanisms
# ---------------------------------------------------------------------------

def assign_sro(
    fleet: Fleet, r: Request, now: int, net: RoadNetwork, tariff: Tariff
) -> AssignmentDecision:
    """Distance-minimal empty vehicle within the wait limit, else unserved."""
    quote, baseline, solo, _ = _priced_pass(fleet, r, now, Mechanism.SRO, net, tariff, {})
    if solo is None:
        return AssignmentDecision(customer=r.id, kind=UNSERVED, quote=quote, reason=MAX_WAIT_REASON)
    return AssignmentDecision(
        customer=r.id, kind=SOLITARY, candidate=solo, fare=quote, baseline=baseline,
        guaranteed=baseline, quote=quote,
    )


def _detour_limit(direct_usec: int, detour_factor: Fraction) -> int:
    """A ride fits the detour bound ride <= (1 + detour_factor) * direct
    exactly when ride * detour_factor.denominator is at most this."""
    return (detour_factor.denominator + detour_factor.numerator) * direct_usec


def assign_pcp(
    fleet,
    r: Request,
    now: int,
    net: RoadNetwork,
    tariff: Tariff,
    requests: Mapping[int, Request],
) -> AssignmentDecision:
    """Distance-minimal candidate subject to per-rider detour bounds.

    A pooled candidate is feasible only if every affected rider's planned
    pickup respects her wait limit and her pickup-to-dropoff span stays
    within (1 + detour_factor) of her direct ride time.
    """
    quote, baseline, solo, pooled = _priced_pass(fleet, r, now, Mechanism.PCP, net, tariff, requests)
    fare = pcp_fare(tariff, quote) if r.poolable else quote
    best, best_key = solo, solo.sort_key() if solo is not None else None
    den = tariff.detour_factor.denominator
    limits: dict[int, int] = {}

    def limit(rider):  # each rider's detour limit, computed once
        if rider.id not in limits:
            direct = net.duration_usec(net.index(rider.origin), net.index(rider.destination))
            limits[rider.id] = _detour_limit(direct, tariff.detour_factor)
        return limits[rider.id]

    for c in pooled:
        key = c[:3]
        if (
            (best_key is None or key < best_key)
            and (c.dropoff - c.pickup) * den <= limit(r)
            and (c.partner_dropoff - c.partner_pickup) * den <= limit(requests[c.partner])
        ):
            best, best_key = c, key
    if best is None:
        return AssignmentDecision(
            customer=r.id, kind=UNSERVED, baseline=baseline, quote=quote, reason=MAX_WAIT_REASON
        )
    if best is solo:
        return AssignmentDecision(
            customer=r.id, kind=SOLITARY, candidate=solo, fare=fare, baseline=baseline, quote=quote
        )
    return AssignmentDecision(
        customer=r.id, kind=POOLED, candidate=_pooled_candidate(best, r.id), fare=fare,
        baseline=baseline, quote=quote,
    )


def assign_ccp(
    fleet,
    r: Request,
    now: int,
    net: RoadNetwork,
    tariff: Tariff,
    requests: Mapping[int, Request],
    committed: Mapping[int, CommittedCost],
) -> AssignmentDecision:
    """Pool when the coalition strictly gains; otherwise ride solitary.

    The run's chargeable itinerary keeps its waypoints already passed, then
    the anchor when there are any, and continues with the offer's stops; the
    pair fare is the partner's current fare plus the run-fare increment (one
    extra change fee).  An offer is admissible when the pair's new total
    cost is strictly below the sum of the request's baseline and the
    partner's current guarantee.  The admissible offer with maximal surplus
    wins and both riders' guarantees drop by half the surplus.  Cost sharing
    later re-divides run fares but cannot change these decisions.
    """
    quote, baseline, best_solo, pooled = _priced_pass(
        fleet, r, now, Mechanism.CCP, net, tariff, requests
    )
    lex = net.tables()[2]
    best = None  # (rank, offer, new run fare, its vehicle's terms)
    vid = None
    for c in pooled:
        if c.vehicle != vid:
            vid = c.vehicle
            v, k = fleet.by_id[vid], requests[c.partner]
            committed_k = committed[k.id]
            pos, a, t_a = v.busy_anchor(now)
            # the plan's new mileage (added + tail) is the anchor leg plus
            # the stop legs; the fare itinerary drives the anchor leg only
            # after a kept prefix
            tail = v.trace_cum[-1] - v.trace_cum[pos]
            past = [(w, t) for w, t in zip(v.fare_waypoints, v.fare_wp_times) if t <= now]
            kept = [w for w, _ in past] + [net.node_ids[a]] if past else []
            kept_times = [t for _, t in past] + [t_a] if past else []
            head = route_distance_umiles(net, kept) + tail
            # the pair's total cost is cap - surplus; cap holds everything
            # but the new run fare and the two time costs
            cap = baseline + committed_k.guaranteed - committed_k.fare + v.run_fare
            terms = (v, k, committed_k, kept, kept_times)
        lead = head if kept else head - lex.item(a, net.index(c.stops[0].location))
        new_run_fare = mileage_fare(tariff, c.added_distance + lead, v.run_events + 1)
        tc_r = time_cost_mils(r.value_of_time, c.dropoff - r.request_time)
        tc_k = time_cost_mils(k.value_of_time, c.partner_dropoff - k.request_time)
        total = new_run_fare + tc_r + tc_k
        if total < cap:
            rank = (total - cap, c[:3])  # maximal surplus cap - total, then the key
            if best is None or rank < best[0]:
                best = (rank, c, new_run_fare, tc_r, tc_k, terms)

    if best is not None:
        (neg_surplus, _), c, new_run_fare, tc_r, tc_k, (v, k, committed_k, kept, kept_times) = best
        cand = _pooled_candidate(
            c, r.id,
            pooled_fare=committed_k.fare + (new_run_fare - v.run_fare),
            surplus=-neg_surplus,
            new_run_fare=new_run_fare,
            new_waypoints=tuple(kept + [s.location for s in c.stops]),
            new_wp_times=tuple(kept_times + c.stop_times()),
        )
        half = Fraction(cand.surplus) / 2
        g_r = baseline - half
        g_k = committed_k.guaranteed - half
        return AssignmentDecision(
            customer=r.id, kind=POOLED, candidate=cand, fare=g_r - tc_r, baseline=baseline,
            guaranteed=g_r, partner_fare=g_k - tc_k, partner_guaranteed=g_k, quote=quote,
        )
    if best_solo is not None:
        return AssignmentDecision(
            customer=r.id, kind=SOLITARY, candidate=best_solo, fare=quote, baseline=baseline,
            guaranteed=baseline, quote=quote,
        )
    return AssignmentDecision(
        customer=r.id, kind=UNSERVED, baseline=baseline, quote=quote, reason=MAX_WAIT_REASON
    )
