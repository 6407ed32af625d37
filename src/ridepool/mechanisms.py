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

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Mapping

import numpy as np

from .domain import DO, PU, Fleet, InsertionPlan, Request, Stop, VehicleState, plan_stop_times
from .netgraph import RoadNetwork
from .pricing import Tariff, route_fare, solitary_fare, pcp_fare
from .units import Money, time_cost_mils

MAX_WAIT_REASON = "MaxWaitExceeded"
PARTNER_WAIT_REASON = "PartnerMaxWaitExceeded"


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


def _pooled_stop_orders(r: Request, k: Request, onboard: bool):
    """The admissible interleavings, labelled by pooled-fare case."""
    if onboard:
        return (
            (1, (Stop(PU, r.id, r.origin), Stop(DO, k.id, k.destination), Stop(DO, r.id, r.destination))),
            (2, (Stop(PU, r.id, r.origin), Stop(DO, r.id, r.destination), Stop(DO, k.id, k.destination))),
        )
    return (
        (3, (Stop(PU, k.id, k.origin), Stop(PU, r.id, r.origin), Stop(DO, k.id, k.destination), Stop(DO, r.id, r.destination))),
        (4, (Stop(PU, k.id, k.origin), Stop(PU, r.id, r.origin), Stop(DO, r.id, r.destination), Stop(DO, k.id, k.destination))),
        (5, (Stop(PU, r.id, r.origin), Stop(PU, k.id, k.origin), Stop(DO, k.id, k.destination), Stop(DO, r.id, r.destination))),
        (6, (Stop(PU, r.id, r.origin), Stop(PU, k.id, k.origin), Stop(DO, r.id, r.destination), Stop(DO, k.id, k.destination))),
    )


def _pooled_candidates_for(
    v: VehicleState, r: Request, k: Request, now: int
) -> list[InsertionCandidate]:
    onboard = v.picked_up(k.id, now)
    out = []
    for case, stops in _pooled_stop_orders(r, k, onboard):
        times, _, _, added = plan_stop_times(v, stops, now)
        pickups = {}
        dropoffs = {}
        for stop, t in zip(stops, times):
            (pickups if stop.op == PU else dropoffs)[stop.customer] = t
        if onboard:
            pickups[k.id] = v.active[k.id].pickup_time
        feasible, reason = True, None
        if pickups[r.id] - r.request_time > r.max_wait:
            feasible, reason = False, MAX_WAIT_REASON
        elif not onboard and pickups[k.id] - k.request_time > k.max_wait:
            feasible, reason = False, PARTNER_WAIT_REASON
        out.append(
            InsertionCandidate(
                vehicle=v.id,
                plan=InsertionPlan(r.id, stops),
                added_distance=added,
                pickup_times=pickups,
                dropoff_times=dropoffs,
                feasible=feasible,
                reason=reason,
                case=case,
                partner=k.id,
            )
        )
    return out


def enumerate_candidates(
    fleet: Fleet,
    r: Request,
    now: int,
    mode: Mechanism,
    net: RoadNetwork,
    requests: Mapping[int, Request],
) -> list[InsertionCandidate]:
    """The one candidate pass for a request, over the fleet's arrays.

    First, when there is one, the best feasible solitary candidate: one
    gather from the duration and mileage tables prices every idle vehicle's
    pickup and added distance, the wait limit prunes (the request-vehicle
    pruning of Alonso-Mora et al., PNAS 2017), and only the minimum over
    (added distance, vehicle id) is built.
    Then, for a poolable request in a pooling mode, every capacity-feasible
    stop interleaving, infeasible ones included, on each busy vehicle whose
    single active customer is poolable.
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
        for slot in np.flatnonzero(fleet.busy_until > now).tolist():
            v = fleet.vehicles[slot]
            v.prune(now)
            if len(v.active) == 1:
                (k_id,) = v.active
                k = requests[k_id]
                if k.poolable:
                    out.extend(_pooled_candidates_for(v, r, k, now))
    return out


def _priced_pass(fleet, r, now, mode, net, tariff, requests):
    """(quote, baseline, best solitary candidate or None, pooled candidates).

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

def _best(cands):
    return min(cands, key=InsertionCandidate.sort_key) if cands else None


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


def _detour_ok(
    ride_usec: int, direct_usec: int, detour_factor: Fraction
) -> bool:
    """ride <= (1 + detour_factor) * direct, in integers."""
    den = detour_factor.denominator
    return ride_usec * den <= (den + detour_factor.numerator) * direct_usec


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
    feasible = [solo] if solo is not None else []
    direct: dict[int, int] = {}  # each rider's direct ride time, looked up once
    for c in pooled:
        if not c.feasible:
            continue
        for cid, dropoff in c.dropoff_times.items():
            if cid not in direct:
                rider = r if cid == r.id else requests[cid]
                direct[cid] = net.duration_usec(net.index(rider.origin), net.index(rider.destination))
            if not _detour_ok(dropoff - c.pickup_times[cid], direct[cid], tariff.detour_factor):
                break
        else:
            feasible.append(c)
    best = _best(feasible)
    if best is None:
        return AssignmentDecision(
            customer=r.id, kind=UNSERVED, baseline=baseline, quote=quote, reason=MAX_WAIT_REASON
        )
    kind = POOLED if best.case is not None else SOLITARY
    return AssignmentDecision(
        customer=r.id, kind=kind, candidate=best, fare=fare, baseline=baseline, quote=quote
    )


def pooled_pair_economics(
    v: VehicleState,
    c: InsertionCandidate,
    r: Request,
    k: Request,
    now: int,
    net: RoadNetwork,
    tariff: Tariff,
    baseline_r: int,
    committed_k: CommittedCost,
) -> InsertionCandidate:
    """Evaluate the coalition check for one pooled candidate.

    The run's chargeable itinerary keeps its already-driven waypoints,
    routes through the anchor when the partner is on board, and continues
    with the candidate's stops; the pair fare is the partner's current fare
    plus the run-fare increment (one extra change fee).  The candidate is
    admissible when the pair's new total cost is strictly below the sum of
    the request's baseline and the partner's current guarantee.
    """
    past = [
        (w, t) for w, t in zip(v.fare_waypoints, v.fare_wp_times) if t <= now
    ]
    _, anchor_idx, anchor_time = v.anchor_at(now)
    new_wp = [w for w, _ in past]
    new_wp_times = [t for _, t in past]
    if past:
        new_wp.append(net.node_ids[anchor_idx])
        new_wp_times.append(anchor_time)
    for s in c.plan.stops:
        new_wp.append(s.location)
        new_wp_times.append(
            c.pickup_times[s.customer] if s.op == PU else c.dropoff_times[s.customer]
        )
    new_run_fare = route_fare(tariff, net, new_wp, v.run_events + 1)
    marginal = new_run_fare - v.run_fare
    pair_fare = committed_k.fare + marginal

    tc_r = time_cost_mils(r.value_of_time, c.dropoff_times[r.id] - r.request_time)
    tc_k = time_cost_mils(k.value_of_time, c.dropoff_times[k.id] - k.request_time)
    pooled_total = pair_fare + tc_r + tc_k
    bar = baseline_r + committed_k.guaranteed
    surplus = bar - pooled_total
    if surplus <= 0:
        return replace(c, feasible=False, reason="NoCoalitionSurplus", surplus=surplus)
    return replace(
        c,
        pooled_fare=pair_fare,
        surplus=surplus,
        new_run_fare=new_run_fare,
        new_waypoints=tuple(new_wp),
        new_wp_times=tuple(new_wp_times),
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

    Among admissible pooled candidates the one with maximal surplus wins and
    both riders' guarantees drop by half the surplus.  Cost sharing later
    re-divides run fares but cannot change these decisions.
    """
    quote, baseline, best_solo, pooled = _priced_pass(
        fleet, r, now, Mechanism.CCP, net, tariff, requests
    )
    admissible = []
    for c in pooled:
        if not c.feasible:
            continue
        k = requests[c.partner]
        evaluated = pooled_pair_economics(
            fleet.by_id[c.vehicle], c, r, k, now, net, tariff, baseline, committed[k.id]
        )
        if evaluated.feasible:
            admissible.append(evaluated)

    if admissible:
        best = min(admissible, key=lambda c: (-c.surplus, *c.sort_key()))
        k = requests[best.partner]
        committed_k = committed[k.id]
        half = Fraction(best.surplus) / 2
        g_r = baseline - half
        g_k = committed_k.guaranteed - half
        tc_r = time_cost_mils(r.value_of_time, best.dropoff_times[r.id] - r.request_time)
        tc_k = time_cost_mils(k.value_of_time, best.dropoff_times[k.id] - k.request_time)
        return AssignmentDecision(
            customer=r.id,
            kind=POOLED,
            candidate=best,
            fare=g_r - tc_r,
            baseline=baseline,
            guaranteed=g_r,
            partner_fare=g_k - tc_k,
            partner_guaranteed=g_k,
            quote=quote,
        )

    if best_solo is not None:
        return AssignmentDecision(
            customer=r.id,
            kind=SOLITARY,
            candidate=best_solo,
            fare=quote,
            baseline=baseline,
            guaranteed=baseline,
            quote=quote,
        )
    return AssignmentDecision(
        customer=r.id, kind=UNSERVED, baseline=baseline, quote=quote, reason=MAX_WAIT_REASON
    )
