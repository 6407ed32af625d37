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


class PooledVehicle(NamedTuple):
    """The wait-feasible pooled interleavings of a request on one vehicle
    carrying one poolable rider, priced as plain integers.

    Each case row is (case, added umiles, the request's pickup and dropoff,
    the partner's pickup and dropoff), times in usec; cases 1-2 (partner on
    board) and 3-6 (partner waiting) mirror the six pooled-fare cases.
    """

    vehicle: VehicleState
    partner: Request
    anchor: int  # node index of the vehicle's next reroutable point
    anchor_time: int
    tail: int  # umiles of the plan the insertion abandons
    cases: tuple[tuple[int, int, int, int, int, int], ...]

    feasible = True  # only vehicles with a wait-feasible case get a record


def _case_stops(case: int, r: Request, k: Request) -> tuple[Stop, ...]:
    """The stops of a pooled case: odd cases drop the partner `k` off first,
    cases 3-4 pick `k` up first."""
    pu_r, do_r = Stop(PU, r.id, r.origin), Stop(DO, r.id, r.destination)
    do_k = Stop(DO, k.id, k.destination)
    drops = (do_k, do_r) if case % 2 else (do_r, do_k)
    if case <= 2:
        return (pu_r, *drops)
    pu_k = Stop(PU, k.id, k.origin)
    return ((pu_k, pu_r) if case <= 4 else (pu_r, pu_k)) + drops


def _case_rank(case: int, r: Request, k: Request) -> int:
    """Orders one vehicle's cases like their `InsertionPlan.key()`: the plans
    first differ at a stop of `r` against the same stop of `k`, so the cases
    order by number when k's id is the smaller one and in reverse otherwise."""
    return case if k.id < r.id else -case


def _pooled_candidate(p: PooledVehicle, row: tuple, r: Request, **economics) -> InsertionCandidate:
    """The full candidate record of a winning case row."""
    case, added, r_pick, r_drop, k_pick, k_drop = row
    k = p.partner
    return InsertionCandidate(
        vehicle=p.vehicle.id, plan=InsertionPlan(r.id, _case_stops(case, r, k)),
        added_distance=added, pickup_times={r.id: r_pick, k.id: k_pick},
        dropoff_times={r.id: r_drop, k.id: k_drop}, feasible=True, case=case, partner=k.id,
        **economics,
    )


def _pooled_vehicles(
    fleet: Fleet, r: Request, now: int, net: RoadNetwork, requests: Mapping[int, Request]
) -> list[PooledVehicle]:
    """Every wait-feasible insertion of `r` into a vehicle serving one poolable `k`.

    The fleet's rider arrays pick the vehicles carrying exactly one rider at
    `now` in one mask.  A vehicle whose anchor cannot reach r's origin within
    r's wait limit is skipped: every leg is a shortest path, so no
    interleaving picks r up sooner.  Legs are scalar reads of the duration
    and mileage tables; an interleaving that breaks r's wait limit, or the
    wait limit of a partner still waiting, is dropped.  Each pickup order
    (`heads`) is followed by both dropoff orders.
    """
    dur, _, lex = net.tables()

    def leg(i, j):
        t = dur.item(i, j)
        if t >= INF:
            raise Unreachable(net.node_ids[i], net.node_ids[j])
        return t, lex.item(i, j)

    o, d = net.index(r.origin), net.index(r.destination)
    latest = r.request_time + r.max_wait
    leg(o, d)  # an unreachable destination fails here, before any vehicle
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
        t_kr, m_kr = leg(dk, d)
        t_rk, m_rk = leg(d, dk)
        ride = v.active[kid]
        # (first case, node after the pickups, time and umiles there, both pickups)
        if ride.pickup_time <= now:
            heads = [(1, o, pick, m_ao, pick, ride.pickup_time)]
        else:
            heads = []
            k_latest = k.request_time + k.max_wait
            t_ak, m_ak = leg(a, ok)
            k_pick = t_a + t_ak
            if k_pick <= k_latest:
                t, m = leg(ok, o)
                r_pick = k_pick + t
                if r_pick <= latest:
                    heads.append((3, o, r_pick, m_ak + m, r_pick, k_pick))
            t, m = leg(o, ok)
            k_pick = pick + t
            if k_pick <= k_latest:
                heads.append((5, ok, k_pick, m_ao + m, pick, k_pick))
            if not heads:
                continue
        rows = []
        for case, x, t, m, r_pick, k_pick in heads:
            t1, m1 = leg(x, dk)
            rows.append((case, m + m1 + m_kr - tail, r_pick, t + t1 + t_kr, k_pick, t + t1))
            t2, m2 = leg(x, d)
            rows.append((case + 1, m + m2 + m_rk - tail, r_pick, t + t2, k_pick, t + t2 + t_rk))
        out.append(PooledVehicle(v, k, a, t_a, tail, tuple(rows)))
    return out


_NO_SCORE = np.iinfo(np.int64).max


def enumerate_candidates(
    fleet: Fleet,
    r: Request,
    now: int,
    mode: Mechanism,
    net: RoadNetwork,
    requests: Mapping[int, Request],
) -> list[InsertionCandidate | PooledVehicle]:
    """The one candidate pass for a request, over the fleet's arrays.

    First, when there is one, the best feasible solitary candidate: one
    gather from the duration and mileage tables prices every vehicle's
    pickup and access mileage, the idle and wait masks prune (the
    request-vehicle pruning of Alonso-Mora et al., PNAS 2017), one argmin
    over access * fleet size + id rank picks the minimum over (added
    distance, vehicle id), and only that candidate is built.
    Then, for a poolable request in a pooling mode, one `PooledVehicle` per
    vehicle with a wait-feasible pooled interleaving (see
    `_pooled_vehicles`), in fleet order.  Every item is feasible.
    """
    dur, _, lex = net.tables()
    o = net.index(r.origin)
    nodes = fleet.node
    # an idle vehicle leaves its trace end at `now`; every solitary candidate
    # drives o -> d, so the access leg alone orders them by added distance
    near = (fleet.busy_until <= now) & (dur[nodes, o] <= r.request_time + r.max_wait - now)
    out = []
    if near.any():
        # masked-out scores may overflow on unreachable pairs; none is read
        score = np.where(near, lex[nodes, o] * len(nodes) + fleet.id_rank, _NO_SCORE)
        out.append(_solitary_candidate(fleet.vehicles[score.argmin()], r, now))
    if mode != Mechanism.SRO and r.poolable:
        out.extend(_pooled_vehicles(fleet, r, now, net, requests))
    return out


def _priced_pass(fleet, r, now, mode, net, tariff, requests):
    """(quote, baseline, best solitary candidate or None, pooled vehicles).

    One candidate pass and the one solitary quote it prices.  The baseline
    is the frozen solitary-counterfactual total cost: the quote plus the
    time cost up to the best solitary dropoff or, when no solitary
    candidate is feasible, of the hypothetical ride with maximal wait.
    """
    cands = enumerate_candidates(fleet, r, now, mode, net, requests)
    solo = cands[0] if cands and isinstance(cands[0], InsertionCandidate) else None
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
    within (1 + detour_factor) of her direct ride time.  Candidates order by
    (added distance, vehicle id, plan key); a case that cannot beat the best
    so far skips the detour test.
    """
    quote, baseline, solo, pooled = _priced_pass(fleet, r, now, Mechanism.PCP, net, tariff, requests)
    fare = pcp_fare(tariff, quote) if r.poolable else quote
    # a solitary and a pooled candidate never share a vehicle, so the third
    # key place only ever orders cases of one vehicle
    best, best_key = solo, (solo.added_distance, solo.vehicle, 0) if solo is not None else None
    if pooled:
        den = tariff.detour_factor.denominator
        limits = fleet.detour_limits.setdefault(tariff.detour_factor, {})

        def limit(rider):
            lim = limits.get(rider.id)
            if lim is None:
                direct = net.duration_usec(net.index(rider.origin), net.index(rider.destination))
                lim = limits[rider.id] = _detour_limit(direct, tariff.detour_factor)
            return lim

        lim_r = limit(r)
        for p in pooled:
            vid, k, lim_k = p.vehicle.id, p.partner, None
            for row in p.cases:
                case, added, r_pick, r_drop, k_pick, k_drop = row
                if best_key is not None and not (
                    added <= best_key[0] and (added, vid, _case_rank(case, r, k)) < best_key
                ):
                    continue
                if (r_drop - r_pick) * den > lim_r:
                    continue
                if lim_k is None:
                    lim_k = limit(k)
                if (k_drop - k_pick) * den <= lim_k:
                    best, best_key = (p, row), (added, vid, _case_rank(case, r, k))
    if best is None:
        return AssignmentDecision(
            customer=r.id, kind=UNSERVED, baseline=baseline, quote=quote, reason=MAX_WAIT_REASON
        )
    if best is solo:
        return AssignmentDecision(
            customer=r.id, kind=SOLITARY, candidate=solo, fare=fare, baseline=baseline, quote=quote
        )
    return AssignmentDecision(
        customer=r.id, kind=POOLED, candidate=_pooled_candidate(*best, r), fare=fare,
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
    o = net.index(r.origin)
    best = None  # (rank, vehicle record, case row, new run fare, tc_r, tc_k, fare terms)
    for p in pooled:
        v, k = p.vehicle, p.partner
        committed_k = committed[k.id]
        # the plan's new mileage (added + tail) is the anchor leg plus the
        # stop legs; the fare itinerary drives the anchor leg only after a
        # kept prefix
        past = [(w, t) for w, t in zip(v.fare_waypoints, v.fare_wp_times) if t <= now]
        kept = [w for w, _ in past] + [net.node_ids[p.anchor]] if past else []
        kept_times = [t for _, t in past] + [p.anchor_time] if past else []
        head = route_distance_umiles(net, kept) + p.tail
        # the pair's total cost is cap - surplus; cap holds everything but
        # the new run fare and the two time costs, in whole or half mils
        cap = baseline + committed_k.guaranteed - committed_k.fare + v.run_fare
        cap_num, cap_den = cap.numerator, cap.denominator
        for row in p.cases:
            case, added, r_pick, r_drop, k_pick, k_drop = row
            lead = head
            if not kept:  # cases 3-4 leave the anchor for k's origin
                lead -= lex.item(p.anchor, net.index(k.origin) if 3 <= case <= 4 else o)
            new_run_fare = mileage_fare(tariff, added + lead, v.run_events + 1)
            tc_r = time_cost_mils(r.value_of_time, r_drop - r.request_time)
            tc_k = time_cost_mils(k.value_of_time, k_drop - k.request_time)
            total = new_run_fare + tc_r + tc_k
            if total * cap_den < cap_num:
                # maximal surplus cap - total, then the candidate key
                rank = (total - cap, added, v.id, _case_rank(case, r, k))
                if best is None or rank < best[0]:
                    best = (rank, p, row, new_run_fare, tc_r, tc_k, (committed_k, kept, kept_times))

    if best is not None:
        rank, p, row, new_run_fare, tc_r, tc_k, (committed_k, kept, kept_times) = best
        v = p.vehicle
        cand = _pooled_candidate(
            p, row, r,
            pooled_fare=committed_k.fare + (new_run_fare - v.run_fare),
            surplus=-rank[0],
            new_run_fare=new_run_fare,
        )
        stops = cand.plan.stops
        cand.new_waypoints = tuple(kept + [s.location for s in stops])
        cand.new_wp_times = tuple(kept_times + [
            (cand.pickup_times if s.op == PU else cand.dropoff_times)[s.customer] for s in stops
        ])
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
