"""Per-vehicle candidate scan: the reference for the array-backed single pass.

This is the candidate generation and selection the mechanisms used before
the fleet kept its state in arrays and before pooled insertions became
integer-priced offers: every vehicle is asked `is_idle`, every idle vehicle
gets a solitary candidate built in full, every stop interleaving on a busy
single-rider vehicle is built through `plan_stop_times`, which plans each
stop's time from the anchor along shortest paths (infeasible ones included,
each with its stops and the scan's verdict: `Scanned`), the solitary baseline
scans the fleet a second time, the SRO fare is priced after the decision,
the PCP detour bound is checked in `Fraction` arithmetic and CCP prices
every wait-feasible pooled candidate's whole run itinerary, read from the
schedule, with `route_fare`, against each partner's guarantee kept in a
ledger of `Commitment`s, from which it derives her fare change.  Tests
compare the single pass against it decision by decision, and the runs
the commits record against `extract_runs`, a partition of the realized
schedule.  Tests that commit a case directly commit the decision that
`commit_decision` builds from the planned times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, NamedTuple

from ridepool.domain import DO, PU, Request, ScheduleEntry, VehicleState
from ridepool.mechanisms import POOLED, SOLITARY, UNSERVED, DecisionRow, Mechanism
from ridepool.netgraph import INF, Unreachable
from ridepool.pricing import pcp_fare, solitary_fare, total_cost
from ridepool.units import Money, time_cost_mils
from tests._fare_oracle import route_distance_umiles, route_fare
from tests.conftest import ends

MAX_WAIT_REASON = "MaxWaitExceeded"
PARTNER_WAIT_REASON = "PartnerMaxWaitExceeded"


@dataclass(frozen=True)
class Commitment:
    """A CCP customer's guaranteed total cost and current fare, as a ledger
    kept apart from her vehicle's schedule records them."""

    guaranteed: Money
    fare: Money


class Stop(NamedTuple):
    """One future pickup or dropoff of a scanned candidate, at a node id."""

    op: str
    customer: int
    location: str


@dataclass
class Scanned:
    """A candidate as the scan builds it, infeasible ones included: its
    vehicle, added umiles, each rider's pickup and dropoff time, its case
    and partner (None for a solitary ride), the run fare and mileage after
    the insertion where priced, its stops and the scan's verdict on it."""

    vehicle: int
    added_distance: int  # umiles
    pickup_times: dict[int, int]
    dropoff_times: dict[int, int]
    case: int | None = None
    partner: int | None = None
    new_run_fare: int | None = None
    new_run_umiles: int | None = None
    stops: tuple[Stop, ...] = ()
    feasible: bool = True
    reason: str | None = None


def commit_fields(c: Scanned, r: Request) -> dict:
    """The decision fields of committing `r` as candidate `c` plans it."""
    k = c.partner
    return dict(vehicle=c.vehicle, case=c.case, partner=k, added_distance=c.added_distance,
                pickup=c.pickup_times[r.id], dropoff=c.dropoff_times[r.id],
                partner_pickup=c.pickup_times.get(k), partner_dropoff=c.dropoff_times.get(k))


def plan_key(stops: Iterable[Stop]) -> tuple:
    """The stops as (op, customer, location) rows, the last place of the
    candidate order."""
    return tuple((s.op, s.customer, s.location) for s in stops)


def sort_key(c: Scanned) -> tuple:
    """The candidate order: added distance, then vehicle id, then stops."""
    return (c.added_distance, c.vehicle, plan_key(c.stops))


def extract_runs(v: VehicleState) -> list[list[ScheduleEntry]]:
    """Partition a realized schedule into runs, the maximal intervals during
    which the vehicle is occupied: each run's entries from the pickup that
    finds the vehicle empty to the dropoff that empties it, REC anchors
    included.  The reference for the runs that CCP's commits record."""
    runs: list[list[ScheduleEntry]] = []
    start = onboard = 0
    for i, e in enumerate(v.schedule):
        if e.op == PU:
            if not onboard:
                start = i
            onboard += 1
        elif e.op == DO:
            onboard -= 1
            if not onboard:
                runs.append(v.schedule[start : i + 1])
    return runs


def run_customers(run: list[ScheduleEntry]) -> list[int]:
    """A run's customers in first-pickup order."""
    return [e.customer for e in run if e.op == PU]


def run_fare(tariff, net, run: list[ScheduleEntry]) -> int:
    """A run's fare: its itinerary's with a change fee for each rider after
    the first."""
    stops = [e.location for e in run]
    return route_fare(tariff, net, stops, len(run_customers(run)) - 1)


def run_entries(v: VehicleState) -> list[ScheduleEntry]:
    """The vehicle's last run in its schedule (`extract_runs`)."""
    runs = extract_runs(v)
    return runs[-1] if runs else []


def anchor_at(v: VehicleState, now: int) -> tuple[int, int, int]:
    """(node index, time, cumulative umiles) of the next node the vehicle can
    turn at: where it stands, at `now`, when idle."""
    if v.is_idle(now):
        return v.way_nodes[-1], now, v.way_cum[-1]
    return v.busy_anchor(now)


def plan_stop_times(
    v: VehicleState, stops: Iterable[Stop], now: int
) -> tuple[list[int], int, int, int]:
    """Arrival times for each stop plus (anchor node, anchor time, added mileage).

    Each stop is reached the shortest-path duration after the one before,
    from the anchor; used for candidate evaluation without mutating the
    vehicle.
    """
    net = v.net
    dur, _, lex = net.tables()
    anchor_idx, anchor_time, anchor_cum = anchor_at(v, now)
    times = []
    cur = anchor_idx
    t = anchor_time
    new_dist = 0
    for stop in stops:
        j = net.index(stop.location)
        if j != cur:
            leg = dur.item(cur, j)
            if leg >= INF:
                raise Unreachable(net.node_ids[cur], net.node_ids[j])
            t += leg
            new_dist += lex.item(cur, j)
            cur = j
        times.append(t)
    old_tail = v.way_cum[-1] - anchor_cum
    return times, anchor_idx, anchor_time, new_dist - old_tail


def _solitary_candidate(v: VehicleState, r: Request, now: int) -> Scanned:
    stops = (Stop(PU, r.id, r.origin), Stop(DO, r.id, r.destination))
    times, _, _, added = plan_stop_times(v, stops, now)
    pickup, dropoff = times
    ok = pickup - r.request_time <= r.max_wait
    return Scanned(
        vehicle=v.id,
        added_distance=added,
        pickup_times={r.id: pickup},
        dropoff_times={r.id: dropoff},
        new_run_umiles=route_distance_umiles(v.net, [r.origin, r.destination]),
        stops=stops,
        feasible=ok,
        reason=None if ok else MAX_WAIT_REASON,
    )


def _pooled_stop_orders(r, k, onboard):
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


def _pooled_candidates_for(v, r, k, now):
    """Every interleaving of `r` with the vehicle's one rider `k`, built in full."""
    onboard = v.active[k.id].pickup_time <= now
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
            Scanned(
                vehicle=v.id,
                added_distance=added,
                pickup_times=pickups,
                dropoff_times=dropoffs,
                case=case,
                partner=k.id,
                stops=stops,
                feasible=feasible,
                reason=reason,
            )
        )
    return out


def commit_stops(v: VehicleState, r: Request, case: int | None, now: int) -> tuple:
    """The stops of committing `r` to `v` in `case` at `now`, from the scan's
    own stop orders: r's alone, or the pooled case's interleaving with the
    vehicle's one rider, whose request her ride holds."""
    if case is None:
        return (Stop(PU, r.id, r.origin), Stop(DO, r.id, r.destination))
    v.prune(now)
    (ride,) = v.active.values()
    return dict(_pooled_stop_orders(r, ride.request, ride.pickup_time <= now))[case]


def commit_decision(v: VehicleState, r: Request, case: int | None, now: int) -> DecisionRow:
    """The decision that commits `r` to `v` in `case` at `now`, with the
    times and added mileage that `plan_stop_times` plans for the scan's stop
    order (`commit_stops`).  It is a PCP decision, so the commit keeps no
    CCP runs."""
    stops = commit_stops(v, r, case, now)
    times, _, _, added = plan_stop_times(v, stops, now)
    at = {(s.op, s.customer): t for s, t in zip(stops, times)}
    k = next(iter(v.active)) if case is not None else None
    # a partner on board keeps her pickup time
    k_pick = None if k is None else at.get((PU, k), v.active[k].pickup_time)
    return DecisionRow(
        now, r.id, "PCP", SOLITARY if k is None else POOLED, vehicle=v.id, partner=k,
        added_distance=added, quote=0, case=case, pickup=at[PU, r.id], dropoff=at[DO, r.id],
        partner_pickup=k_pick, partner_dropoff=at.get((DO, k)),
    )


def pooled_pair_economics(v, c, r, k, now, net, tariff, baseline_r, committed_k):
    """Evaluate the coalition check for one pooled candidate: return its
    surplus and the candidate, marked infeasible when it is not admissible.

    The run's itinerary keeps the entries of its schedule reached by `now`,
    routes through the anchor when there are any (the partner is on board),
    and continues with the candidate's stops; the pair fare is the partner's
    current fare plus the run-fare increment (one extra change fee).  The
    candidate is admissible when the pair's new total cost is strictly below
    the sum of the request's baseline and the partner's current guarantee.
    """
    new_wp = [e.location for e in run_entries(v) if e.time <= now]
    if new_wp:
        new_wp.append(net.node_ids[anchor_at(v, now)[0]])
    new_wp += [s.location for s in c.stops]
    new_run_fare = route_fare(tariff, net, new_wp, len(v.runs[-1]))
    marginal = new_run_fare - v.run_fare
    pair_fare = committed_k.fare + marginal

    tc_r = time_cost_mils(r.value_of_time, c.dropoff_times[r.id] - r.request_time)
    tc_k = time_cost_mils(k.value_of_time, c.dropoff_times[k.id] - k.request_time)
    pooled_total = pair_fare + tc_r + tc_k
    bar = baseline_r + committed_k.guaranteed
    surplus = bar - pooled_total
    if surplus <= 0:
        return surplus, replace(c, feasible=False, reason="NoCoalitionSurplus")
    return surplus, replace(
        c, new_run_fare=new_run_fare, new_run_umiles=route_distance_umiles(net, new_wp)
    )


def enumerate_candidates(vehicles, r, now, mode, requests):
    """All insertion candidates for one request, infeasible ones included."""
    out = []
    for v in vehicles:
        if v.is_idle(now):
            out.append(_solitary_candidate(v, r, now))
        elif mode != Mechanism.SRO and r.poolable and len(v.active) == 1:
            (k_id,) = v.active
            k = requests[k_id]
            if k.poolable:
                out.extend(_pooled_candidates_for(v, r, k, now))
    return out


def best(cands):
    return min(cands, key=sort_key) if cands else None


def best_solitary(vehicles, r, now):
    cands = [_solitary_candidate(v, r, now) for v in vehicles if v.is_idle(now)]
    return best([c for c in cands if c.feasible])


def solitary_baseline(vehicles, r, now, net, tariff):
    quote = solitary_fare(tariff, net, *ends(net, r))
    cand = best_solitary(vehicles, r, now)
    if cand is not None:
        span = cand.dropoff_times[r.id] - r.request_time
    else:
        span = r.max_wait + net.duration_usec(*ends(net, r))
    return quote + time_cost_mils(r.value_of_time, span), cand


def assign_sro(vehicles, r, now, net, tariff):
    cand = best_solitary(vehicles, r, now)
    quote = solitary_fare(tariff, net, *ends(net, r))
    if cand is None:
        return DecisionRow(now, r.id, "SRO", UNSERVED, quote=quote)
    baseline = total_cost(quote, r, cand.dropoff_times[r.id])
    return DecisionRow(
        now, r.id, "SRO", SOLITARY, fare=quote, baseline_cost=baseline,
        guaranteed_cost=baseline, quote=quote, **commit_fields(cand, r),
    )


def assign_pcp(vehicles, r, now, net, tariff, requests):
    baseline, _ = solitary_baseline(vehicles, r, now, net, tariff)
    quote = solitary_fare(tariff, net, *ends(net, r))
    fare = pcp_fare(tariff, quote) if r.poolable else quote
    feasible = []
    for c in enumerate_candidates(vehicles, r, now, Mechanism.PCP, requests):
        if not c.feasible:
            continue
        if c.case is not None:
            ok = True
            for cid, dropoff in c.dropoff_times.items():
                rider = r if cid == r.id else requests[cid]
                direct = net.duration_usec(net.index(rider.origin), net.index(rider.destination))
                if not dropoff - c.pickup_times[cid] <= (1 + tariff.detour_factor) * direct:
                    ok = False
                    break
            if not ok:
                continue
        feasible.append(c)
    chosen = best(feasible)
    if chosen is None:
        return DecisionRow(now, r.id, "PCP", UNSERVED, baseline_cost=baseline, quote=quote)
    kind = POOLED if chosen.case is not None else SOLITARY
    return DecisionRow(
        now, r.id, "PCP", kind, fare=fare, baseline_cost=baseline, quote=quote,
        **commit_fields(chosen, r),
    )


def assign_ccp(vehicles, r, now, net, tariff, requests, committed):
    quote = solitary_fare(tariff, net, *ends(net, r))
    baseline, best_solo = solitary_baseline(vehicles, r, now, net, tariff)
    admissible = []
    if r.poolable:
        by_vehicle = {v.id: v for v in vehicles}
        for c in enumerate_candidates(vehicles, r, now, Mechanism.CCP, requests):
            if not c.feasible or c.case is None:
                continue
            k = requests[c.partner]
            surplus, evaluated = pooled_pair_economics(
                by_vehicle[c.vehicle], c, r, k, now, net, tariff, baseline, committed[k.id]
            )
            if evaluated.feasible:
                admissible.append((surplus, evaluated))
    if admissible:
        surplus, chosen = min(admissible, key=lambda e: (-e[0], *sort_key(e[1])))
        k = requests[chosen.partner]
        half = Fraction(surplus) / 2
        g_r = baseline - half
        g_k = committed[k.id].guaranteed - half
        tc_r = time_cost_mils(r.value_of_time, chosen.dropoff_times[r.id] - r.request_time)
        tc_k = time_cost_mils(k.value_of_time, chosen.dropoff_times[k.id] - k.request_time)
        # her fare becomes her new guarantee less her new time cost
        return DecisionRow(
            now, r.id, "CCP", POOLED, fare=g_r - tc_r, baseline_cost=baseline,
            guaranteed_cost=g_r, quote=quote,
            partner_fare_change=g_k - tc_k - committed[k.id].fare,
            run_fare=chosen.new_run_fare, run_umiles=chosen.new_run_umiles,
            **commit_fields(chosen, r),
        )
    if best_solo is not None:
        return DecisionRow(
            now, r.id, "CCP", SOLITARY, fare=quote, baseline_cost=baseline,
            guaranteed_cost=baseline, quote=quote, run_fare=quote,
            run_umiles=best_solo.new_run_umiles, **commit_fields(best_solo, r),
        )
    return DecisionRow(now, r.id, "CCP", UNSERVED, baseline_cost=baseline, quote=quote)
