"""Online assignment: candidate generation and the three selection rules.

Every incoming request triggers an immediate decision.  Candidates are
either a solitary ride on an empty vehicle or, in pooling modes, an
insertion into the schedule of a vehicle that currently serves exactly one
poolable customer, in one of the six pooled-fare cases.  The three rules
share one signature, `assign_*(fleet, r, now, net, tariff)`, and return one
`domain.DecisionRow`: the logged decision and, out of its repr, the
winner's case and both riders' new pickup and dropoff times (and CCP's run
fare and mileage), which `run_sim` logs and commits as they are: the commit
(`domain.apply_assignment`) lays the winner's stops out at these times.  A
partner's request is in her record on her vehicle (`CustomerOutcome.request`).

* SRO  -- solitary rides only, minimal added driving distance.
* PCP  -- poolable customers always pay the discounted fare; pooling picks
          the distance-minimal feasible candidate subject to every rider's
          trip lasting at most (1 + detour_factor) times her direct ride.
* CCP  -- pooling only happens when the pair's guaranteed total costs
          strictly drop (the coalition check); the winning candidate
          maximizes that surplus, and both riders' guarantees tighten.

All selections are deterministic: added distance, then vehicle id, then the
case's stop order break ties.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .domain import DecisionRow, Fleet, Request, VehicleState
from .netgraph import RoadNetwork
from .pricing import Tariff, mileage_fare, pcp_fare, solitary_fare
from .units import SECONDS_PER_MINUTE, UMILE, USEC, time_cost_mils


class Mechanism(str, Enum):
    SRO = "SRO"
    PCP = "PCP"
    CCP = "CCP"


UNSERVED = "unserved"
SOLITARY = "solitary"
POOLED = "pooled"


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

class SolitaryRide(NamedTuple):
    """The best solitary candidate: an idle vehicle (by id) taking the
    request alone, with its added umiles and the request's times."""

    vehicle: int
    added_distance: int
    pickup: int
    dropoff: int

    feasible = True  # the pass returns feasible candidates only


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
    tail: int  # umiles of the plan the insertion abandons
    cases: tuple[tuple[int, int, int, int, int, int], ...]

    feasible = True  # only vehicles with a wait-feasible case get a record


def _case_rank(case: int, r: Request, k: Request) -> int:
    """Orders one vehicle's cases like their stop tuples of (op, customer,
    location) (`domain._decision_stops`): the stops first differ at a stop of
    `r` against the same stop of `k`, so the cases order by number when k's
    id is the smaller one and in reverse otherwise."""
    return case if k.id < r.id else -case


def _pooled_vehicles(
    fleet: Fleet, r: Request, o: int, d: int, now: int, net: RoadNetwork
) -> list[PooledVehicle]:
    """Every wait-feasible insertion of `r`, from node `o` to node `d`, into
    a vehicle serving one poolable `k`, in fleet order.

    The fleet, advanced to `now`, holds the vehicles carrying exactly one
    rider, a poolable one, in `lone`.  A vehicle whose anchor cannot reach
    r's origin within r's wait limit is skipped: every leg is a shortest
    path, so no interleaving picks r up sooner.  Legs are plain scalar reads
    of the tables' row views (`RoadNetwork.rows`): r's endpoints and the
    fleet's routes must be mutually reachable, as `run_sim` checks at entry,
    and every anchor lies on a canonical path between such nodes.  An
    interleaving that breaks r's wait limit, or the wait limit of a partner
    still waiting, is dropped.  The rows of `o`, `d` and the anchor are read
    once; each feasible pickup order gives two rows, k dropped off first and
    r dropped off first.
    """
    dur, lex = net.rows()
    dur_o, lex_o, dur_d, lex_d = dur[o], lex[o], dur[d], lex[d]
    t_od, m_od = dur_o[d], lex_o[d]
    latest = r.request_time + r.max_wait
    out = []
    for slot, kid in sorted(fleet.lone.items()):
        v = fleet.vehicles[slot]
        a, t_a, a_cum = v.busy_anchor(now)
        dur_a = dur[a]
        pick = t_a + dur_a[o]  # r's earliest pickup
        if pick > latest:
            continue
        lex_a = lex[a]
        tail = v.way_cum[-1] - a_cum  # mileage of the abandoned plan
        ride = v.active[kid]
        k = ride.request
        ok, dk = ride.origin_idx, ride.dest_idx
        t_kr, t_rk = dur[dk][d], dur_d[dk]
        m_kr, m_rk = lex[dk][d] - tail, lex_d[dk] - tail  # each less the abandoned plan
        t_odk, m_odk = dur_o[dk], lex_o[dk] + m_kr
        # `PooledVehicle` rows; odd cases drop k off first
        if ride.pickup_time <= now:
            k_pick, m, t1, t2 = ride.pickup_time, lex_a[o], pick + t_odk, pick + t_od
            rows = ((1, m + m_odk, pick, t1 + t_kr, k_pick, t1),
                    (2, m + m_od + m_rk, pick, t2, k_pick, t2 + t_rk))
        else:
            k_latest = k.request_time + k.max_wait
            dur_k, lex_k = dur[ok], lex[ok]
            k_pick = t_a + dur_a[ok]
            r_pick = k_pick + dur_k[o]
            if k_pick <= k_latest and r_pick <= latest:
                m, t1, t2 = lex_a[ok] + lex_k[o], r_pick + t_odk, r_pick + t_od
                rows = ((3, m + m_odk, r_pick, t1 + t_kr, k_pick, t1),
                        (4, m + m_od + m_rk, r_pick, t2, k_pick, t2 + t_rk))
            else:
                rows = ()
            k_pick = pick + dur_o[ok]
            if k_pick <= k_latest:
                m, t1, t2 = lex_a[o] + lex_o[ok], k_pick + dur_k[dk], k_pick + dur_k[d]
                rows += ((5, m + lex_k[dk] + m_kr, pick, t1 + t_kr, k_pick, t1),
                         (6, m + lex_k[d] + m_rk, pick, t2, k_pick, t2 + t_rk))
            elif not rows:
                continue
        out.append(PooledVehicle(v, k, a, tail, rows))
    return out


def enumerate_candidates(
    fleet: Fleet,
    r: Request,
    now: int,
    mode: Mechanism,
    net: RoadNetwork,
    o: int,
    d: int,
) -> list[SolitaryRide | PooledVehicle]:
    """The one candidate pass for a request from node `o` to node `d`, over
    the fleet advanced to `now`.

    First, when there is one, the best feasible solitary candidate: the
    minimum over (added distance, vehicle id) of the idle vehicles that reach
    `o` within the wait.  Every solitary candidate drives o -> d, so the
    access mileage alone orders them by added distance, and the pass walks
    the nodes nearest-first (`RoadNetwork.order_to`; no node at all when no
    vehicle is idle), skips nodes where no idle vehicle's route ends and
    stops at the first node farther than the best eligible vehicle so far
    (the request-vehicle pruning of Alonso-Mora et al., PNAS 2017, over
    per-target travel orders like T-Share's, Ma et al., ICDE 2013).  Only
    the winner is built, from the walk's reads: an idle vehicle
    leaves its last waypoint at `now` and abandons no planned mileage.
    Then, for a poolable request in a pooling mode, one `PooledVehicle` per
    vehicle with a wait-feasible pooled interleaving (see
    `_pooled_vehicles`), in fleet order.  Every item is feasible.

    `o`, `d` and the fleet's routes must be mutually reachable, as `run_sim`
    checks at entry: the pass reads the tables without testing for `INF`.
    """
    dur, lex = net.rows()
    idle_at, vehicles = fleet.idle_at, fleet.vehicles
    fleet.advance(now)
    wait = r.request_time + r.max_wait - now
    best = None  # (access umiles, vehicle id, access usec)
    for a in net.order_to(o) if idle_at else ():
        slots = idle_at.get(a)
        if slots is None:
            continue
        m = lex[a][o]
        if best is not None and m > best[0]:
            break
        t = dur[a][o]
        if t > wait:
            continue
        for slot in slots:
            vid = vehicles[slot].id
            # the walk is past every nearer node, so m ties the best
            if best is None or vid < best[1]:
                best = (m, vid, t)
    out = []
    if best is not None:
        m, vid, t = best
        out.append(SolitaryRide(vid, m + lex[o][d], now + t, now + t + dur[o][d]))
    if mode != Mechanism.SRO and r.poolable:
        out.extend(_pooled_vehicles(fleet, r, o, d, now, net))
    return out


def _priced_pass(fleet, r, now, mode, net, tariff):
    """(r's origin and destination node indices, quote, baseline, best
    solitary candidate or None, pooled vehicles).

    The request's one endpoint lookup, its one candidate pass and the one
    solitary quote it prices.  The baseline is the frozen
    solitary-counterfactual total cost: the quote plus the time cost up to
    the best solitary dropoff or, when no solitary candidate is feasible, of
    the hypothetical ride with maximal wait.
    """
    o, d = net.index(r.origin), net.index(r.destination)
    cands = enumerate_candidates(fleet, r, now, mode, net, o, d)
    solo = cands[0] if cands and isinstance(cands[0], SolitaryRide) else None
    quote = solitary_fare(tariff, net, o, d)
    if solo is not None:
        span = solo.dropoff - r.request_time
    else:
        span = r.max_wait + net.duration_usec(o, d)
    baseline = quote + time_cost_mils(r.value_of_time, span)
    return o, d, quote, baseline, solo, cands[solo is not None :]


# ---------------------------------------------------------------------------
# the three mechanisms
# ---------------------------------------------------------------------------

def _pooled_decision(p, row, r, now, mechanism, **fields) -> DecisionRow:
    """`mechanism`'s decision at `now` to commit `r` in a winning case row of
    the `PooledVehicle` `p`."""
    case, added, r_pick, r_drop, k_pick, k_drop = row
    return DecisionRow(
        now, r.id, mechanism, POOLED, vehicle=p.vehicle.id, partner=p.partner.id,
        added_distance=added, case=case, pickup=r_pick, dropoff=r_drop, partner_pickup=k_pick,
        partner_dropoff=k_drop, **fields,
    )


def assign_sro(
    fleet: Fleet, r: Request, now: int, net: RoadNetwork, tariff: Tariff
) -> DecisionRow:
    """Distance-minimal empty vehicle within the wait limit, else unserved.

    `r`'s endpoints and the fleet's routes must be mutually reachable, as
    `run_sim` checks at entry (see `enumerate_candidates`).
    """
    *_, quote, baseline, solo, _ = _priced_pass(fleet, r, now, Mechanism.SRO, net, tariff)
    if solo is None:
        return DecisionRow(now, r.id, "SRO", UNSERVED, quote=quote)
    return DecisionRow(
        now, r.id, "SRO", SOLITARY, fare=quote, baseline_cost=baseline,
        guaranteed_cost=baseline, quote=quote, **solo._asdict(),
    )


def _detour_limit(direct_usec: int, detour_factor: Fraction) -> int:
    """A ride fits the detour bound ride <= (1 + detour_factor) * direct
    exactly when ride * detour_factor.denominator is at most this."""
    return (detour_factor.denominator + detour_factor.numerator) * direct_usec


def assign_pcp(
    fleet: Fleet, r: Request, now: int, net: RoadNetwork, tariff: Tariff
) -> DecisionRow:
    """Distance-minimal candidate subject to per-rider detour bounds.

    A pooled candidate is feasible only if every affected rider's planned
    pickup respects her wait limit and her pickup-to-dropoff span stays
    within (1 + detour_factor) of her direct ride time.  Candidates order by
    (added distance, vehicle id, case rank); a case that cannot beat the best
    so far skips the detour test.

    `r`'s endpoints and the fleet's routes must be mutually reachable, as
    `run_sim` checks at entry (see `enumerate_candidates`).
    """
    o, d, quote, baseline, solo, pooled = _priced_pass(fleet, r, now, Mechanism.PCP, net, tariff)
    fare = pcp_fare(tariff, quote) if r.poolable else quote
    # a solitary and a pooled candidate never share a vehicle, so the third
    # key place only ever orders cases of one vehicle
    best, best_key = solo, (solo.added_distance, solo.vehicle, 0) if solo is not None else None
    if pooled:
        factor = tariff.detour_factor
        den = factor.denominator
        lim_r = _detour_limit(net.duration_usec(o, d), factor)
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
                    ride = p.vehicle.active[k.id]
                    direct = net.duration_usec(ride.origin_idx, ride.dest_idx)
                    lim_k = _detour_limit(direct, factor)
                if (k_drop - k_pick) * den <= lim_k:
                    best, best_key = (p, row), (added, vid, _case_rank(case, r, k))
    if best is None:
        return DecisionRow(now, r.id, "PCP", UNSERVED, baseline_cost=baseline, quote=quote)
    if best is solo:
        return DecisionRow(
            now, r.id, "PCP", SOLITARY, fare=fare, baseline_cost=baseline, quote=quote,
            **solo._asdict(),
        )
    return _pooled_decision(*best, r, now, "PCP", fare=fare, baseline_cost=baseline, quote=quote)


def assign_ccp(
    fleet: Fleet, r: Request, now: int, net: RoadNetwork, tariff: Tariff
) -> DecisionRow:
    """Pool when the coalition strictly gains; otherwise ride solitary.

    A partner's guarantee is her fare plus her time cost at the dropoff her
    vehicle holds: every commitment sets her fare to her guarantee less that
    time cost, and her dropoff moves only at a pooling on her vehicle, which
    changes her fare by `partner_fare_change`.  With the partner on board,
    her run goes on and its planned mileage grows by the offer's added
    mileage; with her waiting, a new run starts at the offer's first pickup
    and drives the rest of its plan.  The new run fare charges a change fee
    for each rider the request joins in the vehicle's last run
    (`v.runs[-1]`), and the pair fare is the partner's current fare plus the
    run-fare increment.  An offer is admissible when the pair's new total
    cost is strictly below the sum of the request's baseline and the
    partner's guarantee.  The admissible offer with maximal surplus wins and
    both riders' guarantees drop by half the surplus: the partner's fare
    changes by her held time cost less that half and her new time cost.
    The surplus is whole mils, so the pooled money is built in half-mils,
    one `Fraction(n, 2)` per amount.  Cost sharing later re-divides run
    fares but cannot change these decisions.

    Before rounding anything, an offer is dropped when the floors of its
    three rounded amounts (the distance charge and both time costs) plus the
    run's base fare and change fees already reach the cap.  Each amount
    rounds half to even, never below its floor, so the new total cost is at
    least that sum and no admissible offer is dropped; every other offer
    takes the exact test.

    `r`'s endpoints and the fleet's routes must be mutually reachable, as
    `run_sim` checks at entry (see `enumerate_candidates`).
    """
    o, d, quote, baseline, best_solo, pooled = _priced_pass(
        fleet, r, now, Mechanism.CCP, net, tariff
    )
    lex = net.rows()[1]
    vot_r, t_r = r.value_of_time, r.request_time
    per_mile, minute = tariff.per_mile, SECONDS_PER_MINUTE * USEC
    best = None  # (rank, vehicle record, case row, new run fare, umiles, tc_r, tc_k, spare)
    for p in pooled:
        v, k = p.vehicle, p.partner
        ride = v.active[k.id]
        vot_k, t_k = k.value_of_time, k.request_time
        spare = time_cost_mils(vot_k, ride.dropoff_time - t_k)
        # the pair's new total cost, k's fare plus the run-fare increment
        # plus both time costs, is below baseline + k's guarantee (her fare
        # plus `spare`) exactly when the new run fare plus both time costs
        # is below this cap
        cap = baseline + v.run_fare + spare
        changes = len(v.runs[-1])
        # the cap less the run fare's base fare and change fees
        room = cap - tariff.base_fare - changes * tariff.change_fee
        for row in p.cases:
            case, added, r_pick, r_drop, k_pick, k_drop = row
            if case <= 2:  # k on board: her run goes on, `added` umiles longer
                umiles = v.run_umiles + added
            else:  # the plan (added + tail) less its leg to the first pickup, k's in cases 3-4
                umiles = added + p.tail - lex[p.anchor][ride.origin_idx if case <= 4 else o]
            # floors of the three rounded amounts: no offer they rule out can gain
            if (per_mile * umiles // UMILE + vot_r * (r_drop - t_r) // minute
                    + vot_k * (k_drop - t_k) // minute >= room):
                continue
            new_run_fare = mileage_fare(tariff, umiles, changes)
            tc_r = time_cost_mils(vot_r, r_drop - t_r)
            tc_k = time_cost_mils(vot_k, k_drop - t_k)
            total = new_run_fare + tc_r + tc_k
            if total < cap:
                # maximal surplus cap - total, then the candidate key
                rank = (total - cap, added, v.id, _case_rank(case, r, k))
                if best is None or rank < best[0]:
                    best = (rank, p, row, new_run_fare, umiles, tc_r, tc_k, spare)

    if best is not None:
        # each guarantee drops by half the surplus -rank[0]: money in half-mils
        rank, p, row, new_run_fare, umiles, tc_r, tc_k, spare = best
        return _pooled_decision(
            p, row, r, now, "CCP", fare=Fraction(2 * (baseline - tc_r) + rank[0], 2),
            baseline_cost=baseline, guaranteed_cost=Fraction(2 * baseline + rank[0], 2),
            quote=quote, partner_fare_change=Fraction(2 * (spare - tc_k) + rank[0], 2),
            run_fare=new_run_fare, run_umiles=umiles,
        )
    if best_solo is not None:
        return DecisionRow(
            now, r.id, "CCP", SOLITARY, fare=quote, baseline_cost=baseline,
            guaranteed_cost=baseline, quote=quote, run_fare=quote, run_umiles=lex[o][d],
            **best_solo._asdict(),
        )
    return DecisionRow(now, r.id, "CCP", UNSERVED, baseline_cost=baseline, quote=quote)
