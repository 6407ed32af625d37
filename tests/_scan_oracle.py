"""Per-vehicle candidate scan: the reference for the array-backed single pass.

This is the candidate generation and selection the mechanisms used before
the fleet kept its state in arrays: every vehicle is asked `is_idle`, every
idle vehicle gets a solitary candidate built in full, the solitary baseline
scans the fleet a second time, the SRO fare is priced after the decision and
the PCP detour bound is checked in `Fraction` arithmetic.  Tests compare the
single pass against it decision by decision.
"""

from __future__ import annotations

from fractions import Fraction

from ridepool.mechanisms import (
    MAX_WAIT_REASON,
    POOLED,
    SOLITARY,
    UNSERVED,
    AssignmentDecision,
    InsertionCandidate,
    Mechanism,
    _pooled_candidates_for,
    _solitary_candidate,
    pooled_pair_economics,
)
from ridepool.pricing import pcp_fare, solitary_fare, total_cost
from ridepool.units import time_cost_mils


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
    return min(cands, key=InsertionCandidate.sort_key) if cands else None


def best_solitary(vehicles, r, now):
    cands = [_solitary_candidate(v, r, now) for v in vehicles if v.is_idle(now)]
    return best([c for c in cands if c.feasible])


def solitary_baseline(vehicles, r, now, net, tariff):
    quote = solitary_fare(tariff, net, r.origin, r.destination)
    cand = best_solitary(vehicles, r, now)
    if cand is not None:
        span = cand.dropoff_times[r.id] - r.request_time
    else:
        o, d = net.index(r.origin), net.index(r.destination)
        span = r.max_wait + net.duration_usec(o, d)
    return quote + time_cost_mils(r.value_of_time, span), cand


def assign_sro(vehicles, r, now, net, tariff):
    cand = best_solitary(vehicles, r, now)
    quote = solitary_fare(tariff, net, r.origin, r.destination)
    if cand is None:
        return AssignmentDecision(customer=r.id, kind=UNSERVED, quote=quote, reason=MAX_WAIT_REASON)
    baseline = total_cost(quote, r, cand.dropoff_times[r.id])
    return AssignmentDecision(
        customer=r.id, kind=SOLITARY, candidate=cand, fare=quote, baseline=baseline,
        guaranteed=baseline, quote=quote,
    )


def assign_pcp(vehicles, r, now, net, tariff, requests):
    baseline, _ = solitary_baseline(vehicles, r, now, net, tariff)
    quote = solitary_fare(tariff, net, r.origin, r.destination)
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
        return AssignmentDecision(
            customer=r.id, kind=UNSERVED, baseline=baseline, quote=quote, reason=MAX_WAIT_REASON
        )
    kind = POOLED if chosen.case is not None else SOLITARY
    return AssignmentDecision(
        customer=r.id, kind=kind, candidate=chosen, fare=fare, baseline=baseline, quote=quote
    )


def assign_ccp(vehicles, r, now, net, tariff, requests, committed):
    quote = solitary_fare(tariff, net, r.origin, r.destination)
    baseline, best_solo = solitary_baseline(vehicles, r, now, net, tariff)
    admissible = []
    if r.poolable:
        by_vehicle = {v.id: v for v in vehicles}
        for c in enumerate_candidates(vehicles, r, now, Mechanism.CCP, requests):
            if not c.feasible or c.case is None:
                continue
            k = requests[c.partner]
            evaluated = pooled_pair_economics(
                by_vehicle[c.vehicle], c, r, k, now, net, tariff, baseline, committed[k.id]
            )
            if evaluated.feasible:
                admissible.append(evaluated)
    if admissible:
        chosen = min(admissible, key=lambda c: (-c.surplus, *c.sort_key()))
        k = requests[chosen.partner]
        half = Fraction(chosen.surplus) / 2
        g_r = baseline - half
        g_k = committed[k.id].guaranteed - half
        tc_r = time_cost_mils(r.value_of_time, chosen.dropoff_times[r.id] - r.request_time)
        tc_k = time_cost_mils(k.value_of_time, chosen.dropoff_times[k.id] - k.request_time)
        return AssignmentDecision(
            customer=r.id, kind=POOLED, candidate=chosen, fare=g_r - tc_r, baseline=baseline,
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
