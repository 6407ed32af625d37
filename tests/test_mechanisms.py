import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ridepool import mechanisms, simengine
from ridepool.domain import (
    DO,
    REC,
    Fleet,
    Request,
    VehicleState,
    apply_assignment,
)
from ridepool.harness import ScenarioGrid, synthetic_trips
from ridepool.mechanisms import (
    POOLED,
    SOLITARY,
    UNSERVED,
    Mechanism,
    PooledVehicle,
    SolitaryRide,
    _case_rank,
    _detour_limit,
    _pooled_vehicles,
    assign_ccp,
    assign_pcp,
    assign_sro,
    enumerate_candidates,
)
from ridepool.netgraph import RoadNetwork, make_grid
from ridepool.pricing import Tariff, mileage_fare, solitary_fare, total_cost
from ridepool.units import UMILE, USEC, mils_from_usd, time_cost_mils
from tests import _scan_oracle
from tests._fare_oracle import PoolGeometry, ccp_pooled_fare, route_distance_umiles
from tests._scan_oracle import (
    MAX_WAIT_REASON,
    PARTNER_WAIT_REASON,
    Commitment,
    _pooled_stop_orders,
    anchor_at,
    commit_decision,
)
from tests.conftest import ends, expand_route, line_network, sec

TARIFF = ScenarioGrid().tariff()


def req(i, o, d, t=0, vot_mils_min=250, wait_s=600, poolable=True):
    return Request(
        id=i, origin=o, destination=d, request_time=sec(t),
        value_of_time=vot_mils_min, max_wait=sec(wait_s), poolable=poolable,
    )


def pooled_rows(cands):
    """The case rows of the pooled vehicle records, in pass order."""
    return [row for c in cands if isinstance(c, PooledVehicle) for row in c.cases]


def vehicle_with_rider(net, vid, start, rider, now=0):
    """Vehicle standing at `start` that just committed to `rider` solo."""
    v = VehicleState(vid, start, net)
    apply_assignment(v, rider, commit_decision(v, rider, None, sec(now)), sec(now))
    return v


def run_fields(v, tariff):
    """(last run's fare, runs, last run's mileage) of the vehicle, read from
    its schedule: the runs are the customer lists of `_scan_oracle.extract_runs`."""
    runs = _scan_oracle.extract_runs(v)
    stops = [e.location for e in runs[-1]]
    return (_scan_oracle.run_fare(tariff, v.net, runs[-1]),
            [_scan_oracle.run_customers(run) for run in runs], route_distance_umiles(v.net, stops))


def set_run_fields(v, tariff):
    """Set the vehicle's CCP run fields as a CCP commit keeps them."""
    v.run_fare, v.runs, v.run_umiles = run_fields(v, tariff)


def held_time_cost(k, v):
    """Rider k's time cost at the dropoff vehicle `v` holds for her."""
    return time_cost_mils(k.value_of_time, v.active[k.id].dropoff_time - k.request_time)


def commitment(k, v, guaranteed):
    """Rider k's ledger entry on vehicle `v`: her guarantee, and as her fare
    that guarantee less `held_time_cost`, as CCP commits them."""
    return Commitment(guaranteed, guaranteed - held_time_cost(k, v))


class TestAssignSro:
    def test_nearest_feasible_vehicle_wins(self, line6):
        fleet = Fleet([VehicleState(0, "C", line6), VehicleState(1, "D", line6)])
        r = req(10, "B", "A")
        d = assign_sro(fleet, r, 0, line6, TARIFF)
        assert d.decision == SOLITARY and d.vehicle == 0

    def test_feasibility_filter_before_argmin(self, line6):
        # nearest vehicle misses the wait limit by one second, farther makes it
        fleet = Fleet([VehicleState(0, "C", line6), VehicleState(1, "D", line6)])
        r = Request(10, "B", "A", 0, 250, 24 * USEC - 1, True)
        d = assign_sro(fleet, r, 0, line6, TARIFF)
        assert d.decision == UNSERVED
        fleet = Fleet([VehicleState(0, "D", line6), VehicleState(1, "C", line6)])
        r = Request(10, "B", "A", 0, 250, 48 * USEC + USEC, True)
        d = assign_sro(fleet, r, 0, line6, TARIFF)
        assert d.decision == SOLITARY and d.vehicle == 1

    def test_empty_fleet_unserved(self, line6):
        assert assign_sro(Fleet([]), req(1, "A", "B"), 0, line6, TARIFF).decision == UNSERVED

    def test_tie_breaks_on_lower_vehicle_id(self, line6):
        fleet = Fleet([VehicleState(3, "C", line6), VehicleState(1, "C", line6)])
        d = assign_sro(fleet, req(5, "B", "A"), 0, line6, TARIFF)
        assert d.vehicle == 1


class TestEnumerateCandidates:
    def test_unreachable_within_wait_all_infeasible(self, line6):
        fleet = [VehicleState(0, "F", line6)]
        r = Request(1, "A", "B", 0, 250, sec(30), True)  # F->A takes 120s
        # the per-vehicle scan builds the candidate and rejects it on the
        # wait limit; the single pass prunes it before building anything
        cands = _scan_oracle.enumerate_candidates(fleet, r, 0, Mechanism.SRO, {})
        assert cands and all(not c.feasible for c in cands)
        assert all(c.reason == MAX_WAIT_REASON for c in cands)
        assert enumerate_candidates(Fleet(fleet), r, 0, Mechanism.SRO, line6, *ends(line6, r)) == []

    def test_single_adjacent_vehicle_single_candidate(self, line6):
        fleet = Fleet([VehicleState(0, "B", line6)])
        r = req(1, "A", "C")
        cands = enumerate_candidates(fleet, r, 0, Mechanism.SRO, line6, *ends(line6, r))
        assert len(cands) == 1 and cands[0].feasible

    def test_onboard_partner_restricts_to_two_orderings(self, line6):
        i = req(1, "A", "E")
        v = vehicle_with_rider(line6, 0, "A", i)  # picked up immediately
        r = req(2, "B", "D", t=1)
        cands = enumerate_candidates(Fleet([v]), r, sec(1), Mechanism.CCP, line6, *ends(line6, r))
        assert [row[0] for row in pooled_rows(cands)] == [1, 2]

    def test_waiting_partner_gives_four_orderings(self, line6):
        i = req(1, "C", "E")
        v = vehicle_with_rider(line6, 0, "A", i)  # 48s away from pickup
        r = req(2, "B", "D", t=1)
        cands = enumerate_candidates(Fleet([v]), r, sec(1), Mechanism.CCP, line6, *ends(line6, r))
        assert [row[0] for row in pooled_rows(cands)] == [3, 4, 5, 6]

    @pytest.mark.parametrize("slack,cases", [(0, [1, 2]), (-1, [])])
    def test_vehicle_bound_keeps_pickup_exactly_at_wait_limit(self, line6, slack, cases):
        i = req(1, "A", "E")
        v = vehicle_with_rider(line6, 0, "A", i)  # on board; anchor B at 24 s
        # r can be picked up at C at 48 s at the earliest: 47 s after its request
        r = Request(2, "C", "D", sec(1), 250, sec(47) + slack, True)
        cands = enumerate_candidates(Fleet([v]), r, sec(1), Mechanism.CCP, line6, *ends(line6, r))
        rows = pooled_rows(cands)
        assert [row[0] for row in rows] == cases and len(cands) == len(rows) // 2
        assert all(row[2] == sec(48) for row in rows)
        scanned = _scan_oracle.enumerate_candidates([v], r, sec(1), Mechanism.CCP, {1: i})
        assert [c.case for c in scanned if c.feasible] == cases

    def test_pooled_pass_leaves_rides_unpruned(self, line6, monkeypatch):
        i = req(1, "A", "E")
        v = vehicle_with_rider(line6, 0, "A", i)
        fleet = Fleet([v])

        def per_vehicle(*args):
            raise AssertionError("the pooled pass asked a vehicle for its riders")

        monkeypatch.setattr(VehicleState, "prune", per_vehicle)
        monkeypatch.setattr(VehicleState, "is_idle", per_vehicle)
        r = req(2, "B", "D", t=1)
        fleet.advance(sec(1))  # the pass reads a fleet already advanced to `now`
        records = _pooled_vehicles(fleet, r, *ends(line6, r), sec(1), line6)
        assert [row[0] for row in pooled_rows(records)] == [1, 2]

    def test_nonpoolable_partner_blocks_pooling(self, line6):
        i = req(1, "A", "E", poolable=False)
        v = vehicle_with_rider(line6, 0, "A", i)
        r = req(2, "B", "D", t=1)
        assert enumerate_candidates(Fleet([v]), r, sec(1), Mechanism.CCP, line6,
            *ends(line6, r)) == []


def counted_walk(monkeypatch, net):
    """The node indices the pass visits on `net`'s per-target orders."""
    visited = []
    order_to = net.order_to

    def counting(j):
        for a in order_to(j):
            visited.append(a)
            yield a

    monkeypatch.setattr(net, "order_to", counting)
    return visited


class TestNearestFirstWalk:
    def test_equal_mileage_on_two_nodes_prefers_the_lower_id(self, line6, monkeypatch):
        a, b, c, d = (line6.index(x) for x in "ABCD")
        # B and D are both one arc from C; B comes first in C's order
        assert list(line6.order_to(c))[:4] == [c, b, d, a]
        fleet = Fleet([VehicleState(5, "B", line6), VehicleState(2, "D", line6),
                       VehicleState(0, "A", line6)])
        r = req(1, "C", "A")
        visited = counted_walk(monkeypatch, line6)
        (solo,) = enumerate_candidates(fleet, r, 0, Mechanism.SRO, line6, *ends(line6, r))
        assert solo.vehicle == 2 and solo.added_distance == 3 * UMILE // 5
        # the walk checks D's tie, then stops at A's farther vehicle
        assert visited == [c, b, d, a]

    def test_empty_fleet_visits_no_node(self, line6, monkeypatch):
        r = req(1, "C", "A")
        visited = counted_walk(monkeypatch, line6)
        assert enumerate_candidates(Fleet([]), r, 0, Mechanism.CCP, line6, *ends(line6, r)) == []
        assert visited == []

    def test_every_vehicle_busy(self, line6, monkeypatch):
        riders = [req(1, "A", "E", poolable=False), req(2, "F", "B", poolable=False)]
        fleet = Fleet([vehicle_with_rider(line6, i, k.origin, k) for i, k in enumerate(riders)])
        r = req(3, "C", "D", t=1)
        visited = counted_walk(monkeypatch, line6)
        assert enumerate_candidates(fleet, r, sec(1), Mechanism.CCP, line6, *ends(line6, r)) == []
        assert visited == []
        # both drop their riders off at 96 s, at E and B; the walk stops at E, past B
        r = req(4, "C", "D", t=96)
        (solo,) = enumerate_candidates(fleet, r, sec(96), Mechanism.CCP, line6, *ends(line6, r))
        assert solo.vehicle == 1 and visited == [line6.index(x) for x in "CBDAE"]

    def test_no_idle_vehicle_within_the_wait_walks_every_node(self, line6, monkeypatch):
        fleet = Fleet([VehicleState(0, "E", line6), VehicleState(1, "D", line6)])
        r = Request(1, "A", "B", 0, 250, sec(71), True)  # D->A takes 72 s
        visited = counted_walk(monkeypatch, line6)
        assert enumerate_candidates(fleet, r, 0, Mechanism.SRO, line6, *ends(line6, r)) == []
        assert len(visited) == line6.n_nodes
        # one second more and D's vehicle wins; the walk stops at E's, short of F
        r = Request(1, "A", "B", 0, 250, sec(72), True)
        visited.clear()
        (solo,) = enumerate_candidates(fleet, r, 0, Mechanism.SRO, line6, *ends(line6, r))
        assert solo.vehicle == 1 and visited == [line6.index(x) for x in "ABCDE"]

    def test_committing_the_only_idle_vehicle_empties_the_index(self, line6, monkeypatch):
        fleet = Fleet([VehicleState(0, "C", line6)])
        r = req(1, "B", "E")
        fleet.commit(r, assign_sro(fleet, r, 0, line6, TARIFF), 0)
        assert (fleet.idle_nodes, fleet.idle_at) == (0, [None] * line6.n_nodes)
        # the vehicle is busy until it drops r off at E at 96 s
        r = req(2, "D", "A", t=1)
        visited = counted_walk(monkeypatch, line6)
        assert enumerate_candidates(fleet, r, sec(1), Mechanism.SRO, line6, *ends(line6, r)) == []
        assert visited == []


class TestAssignPcp:
    def test_pooling_saves_distance_and_obeys_detour(self, line6):
        tariff = ScenarioGrid().tariff(detour=Fraction(3, 10))
        i = req(1, "A", "E")
        v0 = vehicle_with_rider(line6, 0, "A", i)
        v1 = VehicleState(1, "D", line6)
        r = req(2, "B", "E", t=1)
        d = assign_pcp(Fleet([v0, v1]), r, sec(1), line6, tariff)
        assert d.decision == POOLED and d.vehicle == 0
        # poolable fare is the discounted solitary quote
        assert d.fare == Fraction(8, 10) * solitary_fare(tariff, line6, *ends(line6, r))

    def _triangle(self, over_by_one: bool):
        # A -> B -> D detour vs direct A -> D; pooled legs are mileage-cheaper
        bd = 100 if not over_by_one else 100
        ab = 30 if not over_by_one else 31
        return RoadNetwork(
            ["A", "B", "D"],
            [
                ("A", "D", 0.5, 100),
                ("A", "B", 0.05, ab),
                ("B", "D", 0.5, bd),
                ("D", "A", 0.5, 100),
                ("D", "B", 0.5, 100),
                ("B", "A", 0.05, 30),
            ],
        )

    @pytest.mark.parametrize("over,expected", [(False, POOLED), (True, SOLITARY)])
    def test_detour_bound_is_sharp(self, over, expected):
        net = self._triangle(over)
        tariff = ScenarioGrid().tariff(detour=Fraction(3, 10))
        i = req(1, "A", "D")
        v0 = vehicle_with_rider(net, 0, "A", i)
        v1 = VehicleState(1, "B", net)
        r = req(2, "B", "D", t=0)
        d = assign_pcp(Fleet([v0, v1]), r, 0, net, tariff)
        # ride A->B->D is 130s vs bound 1.3*100s; 131s breaches it
        assert d.decision == expected

    def test_nonpoolable_request_rides_solo_at_full_fare(self, line6):
        tariff = ScenarioGrid().tariff()
        i = req(1, "A", "E")
        v0 = vehicle_with_rider(line6, 0, "A", i)
        v1 = VehicleState(1, "B", line6)
        r = req(2, "B", "D", t=1, poolable=False)
        d = assign_pcp(Fleet([v0, v1]), r, sec(1), line6, tariff)
        assert d.decision == SOLITARY and d.vehicle == 1
        assert d.fare == solitary_fare(tariff, line6, *ends(line6, r))


def ccp_fixture(line, change_fee_usd):
    """Rider 1 alone on vehicle 0 from A to E, vehicle 1 idle at B, and a
    request from B to E at time 0."""
    tariff = ScenarioGrid().tariff(change_fee=mils_from_usd(change_fee_usd))
    i = req(1, "A", "E", vot_mils_min=250)
    v0 = vehicle_with_rider(line, 0, "A", i)
    set_run_fields(v0, tariff)
    v1 = VehicleState(1, "B", line)
    r = req(2, "B", "E", t=0, vot_mils_min=250)
    committed = {1: commitment(i, v0, 4900)}
    assert committed[1].fare == v0.run_fare == 4500  # a solitary rider pays her run fare
    return tariff, Fleet([v0, v1]), r, i, committed


class TestAssignCcp:

    def test_surplus_pooling_exact_arithmetic(self, line6):
        # solitary sum 9200 mils vs pooled 7200 mils: surplus is exactly $2
        tariff, fleet, r, i, committed = ccp_fixture(line6, 1.9)
        d = assign_ccp(fleet, r, 0, line6, tariff)
        assert d.decision == POOLED and d.partner == 1
        assert d.baseline_cost == 4300
        # both guarantees drop by half the surplus
        assert d.guaranteed_cost == 4300 - 1000
        partner_fare = committed[1].fare + d.partner_fare_change
        tc_i = time_cost_mils(i.value_of_time, d.partner_dropoff - i.request_time)
        assert partner_fare + tc_i == 4900 - 1000
        assert d.fare + partner_fare == 4500 + 1900 == d.run_fare
        assert isinstance(d.partner_fare_change, Fraction)
        assert d == _scan_oracle.assign_ccp(fleet.vehicles, r, 0, line6, tariff, {1: i, 2: r},
                                            committed)

    def test_zero_surplus_boundary_not_pooled(self, line6):
        # change fee consumes the whole gain: equality fails the strict test
        tariff, fleet, r, i, committed = ccp_fixture(line6, 3.9)
        d = assign_ccp(fleet, r, 0, line6, tariff)
        assert d.decision == SOLITARY and d.vehicle == 1

    def test_near_destination_pickup_detour_fails(self, line6):
        tariff = ScenarioGrid().tariff(change_fee=2000)
        i = req(1, "A", "C", vot_mils_min=283)
        v0 = vehicle_with_rider(line6, 0, "A", i)
        set_run_fields(v0, tariff)
        v1 = VehicleState(1, "B", line6)
        committed = {1: commitment(i, v0, 3726)}
        assert committed[1].fare == v0.run_fare == 3500
        r = req(2, "B", "E", t=40, vot_mils_min=283)
        d = assign_ccp(Fleet([v0, v1]), r, sec(40), line6, tariff)
        assert d.decision == SOLITARY and d.vehicle == 1

    def test_no_solo_but_admissible_pool_serves_pooled(self, line6):
        # only vehicle is busy: baseline falls back to the max-wait hypothetical
        tariff, fleet, r, i, committed = ccp_fixture(line6, 1.9)
        fleet = Fleet(fleet.vehicles[:1])
        d = assign_ccp(fleet, r, 0, line6, tariff)
        assert d.decision == POOLED
        direct = line6.duration_usec(line6.index("B"), line6.index("E"))
        expected_baseline = total_cost(
            solitary_fare(tariff, line6, *ends(line6, r)), r, r.request_time + r.max_wait + direct
        )
        assert d.baseline_cost == expected_baseline


class TestSolitaryBaseline:
    def test_uses_best_feasible_candidate(self, line6):
        tariff = ScenarioGrid().tariff()
        fleet = Fleet([VehicleState(0, "C", line6)])
        r = req(9, "B", "A")
        d = assign_ccp(fleet, r, 0, line6, tariff)
        assert d.decision == SOLITARY
        # C->B access 24s, ride 24s: quote 3000 + 250 mils/min * 0.8 min
        assert d.baseline_cost == 3000 + 200

    def test_hypothetical_when_no_vehicle(self, line6):
        tariff = ScenarioGrid().tariff()
        r = req(9, "B", "A", wait_s=120)
        d = assign_ccp(Fleet([]), r, 0, line6, tariff)
        assert d.decision == UNSERVED
        assert d.baseline_cost == 3000 + 250 * (120 + 24) // 60


# ---------------------------------------------------------------------------
# the array-backed single pass against the per-vehicle scan
# ---------------------------------------------------------------------------

WORLD = make_grid(4, 4, 0.1, 30)  # uniform arcs, so equal access distances are common


def one_way_grid(n=4):
    """An n x n grid whose rows run one way, alternately east and west, and
    whose two-way vertical arcs are shorter but slower than the horizontal
    ones.  The mileage to a node then differs from the mileage out of it, and
    the nearest vehicle by mileage is often not the quickest to arrive."""
    ids = [[f"n{r}x{c}" for c in range(n)] for r in range(n)]
    arcs = []
    for r in range(n):
        for c in range(n - 1):
            west, east = ids[r][c], ids[r][c + 1]
            arcs.append((east, west, 0.1, 12) if r % 2 else (west, east, 0.1, 12))
    for r in range(n - 1):
        for c in range(n):
            arcs += [(ids[r][c], ids[r + 1][c], 0.05, 60), (ids[r + 1][c], ids[r][c], 0.05, 60)]
    return RoadNetwork([i for row in ids for i in row], arcs)


ONE_WAY = one_way_grid()


def random_world(randint, den=2, net=WORLD):
    """A fleet of 1-12 vehicles with non-contiguous ids in no fixed order,
    riders committed solo or pooled at random times, and one new request,
    on `net`.

    `randint(lo, hi)` supplies every choice, so hypothesis can drive (and
    shrink) a world and a seeded `random.Random` can replay one.  Committed
    guarantees lie on multiples of 1/`den` mils, and each fare is its
    guarantee less the rider's time cost at the dropoff her vehicle holds,
    recomputed at every commit, as CCP commits them.
    """
    nodes = net.node_ids

    def rider(cid, t):
        o = randint(0, len(nodes) - 1)
        d = (o + randint(1, len(nodes) - 1)) % len(nodes)
        return Request(cid, nodes[o], nodes[d], t, (166, 283)[randint(0, 1)],
                       randint(1, 30) * 10 * USEC, randint(0, 3) > 0)

    n = randint(1, 12)
    ids = [5 * i + randint(0, 4) for i in range(n)]
    turn = randint(0, n - 1)
    ids = ids[turn:] + ids[:turn]
    fleet = Fleet(VehicleState(i, nodes[randint(0, len(nodes) - 1)], net) for i in ids)
    tariff = ScenarioGrid().tariff(change_fee=(500, 2000)[randint(0, 1)])
    requests, committed = {}, {}
    now = 0
    for cid in range(randint(0, 2 * n)):
        now += randint(0, 40) * USEC
        k = rider(cid, now)
        v = fleet.vehicles[randint(0, n - 1)]
        v.prune(now)
        if not v.active:
            case = None
        elif len(v.active) == 1:
            (j,) = v.active
            cases = (1, 2) if v.active[j].pickup_time <= now else (3, 4, 5, 6)
            case = cases[randint(0, len(cases) - 1)]  # whatever the riders' flags
        else:
            continue
        fleet.commit(k, commit_decision(v, k, case, now), now)
        requests[cid] = k
        quote = solitary_fare(tariff, net, *ends(net, k))
        # CCP pooling leaves guarantees on half mils
        guaranteed = Fraction(den * (quote + randint(0, 40) * 100) - randint(0, den - 1), den)
        committed[cid] = Commitment(guaranteed, None)  # its fare is set just below
        for j in v.active:  # k, and a partner whose dropoff the commit may have moved
            committed[j] = commitment(requests[j], v, committed[j].guaranteed)
        set_run_fields(v, tariff)
    now += randint(0, 40) * USEC
    r = rider(1000, max(0, now - randint(0, 20) * USEC))
    requests[r.id] = r
    return fleet, tariff, requests, committed, r, now


def compare_with_scan(world, net=WORLD):
    """Assert the single pass and the per-vehicle scan agree on everything
    in a world on `net`; return the scan's candidates and the three
    decisions."""
    fleet, tariff, requests, committed, r, now = world
    vehicles = fleet.vehicles
    scanned = _scan_oracle.enumerate_candidates(vehicles, r, now, Mechanism.CCP, requests)
    got = enumerate_candidates(fleet, r, now, Mechanism.CCP, net, *ends(net, r))
    solo = got[0] if got and isinstance(got[0], SolitaryRide) else None
    best = _scan_oracle.best([c for c in scanned if c.case is None and c.feasible])
    assert solo == (None if best is None else (
        best.vehicle, best.added_distance, best.pickup_times[r.id], best.dropoff_times[r.id]))
    # one record per vehicle with a wait-feasible interleaving, whose case
    # rows are the scan's wait-feasible pooled candidates, in order
    records = got[solo is not None:]
    expected = [c for c in scanned if c.case is not None and c.feasible]
    assert [(p.vehicle.id, p.partner.id) for p in records] == list(
        dict.fromkeys((c.vehicle, c.partner) for c in expected))
    rows = [(p, row) for p in records for row in p.cases]
    assert [(row[0], row[1], p.vehicle.id, p.partner.id, row[2], row[3], row[4], row[5])
            for p, row in rows] == [
        (c.case, c.added_distance, c.vehicle, c.partner, c.pickup_times[r.id],
         c.dropoff_times[r.id], c.pickup_times[c.partner], c.dropoff_times[c.partner])
        for c in expected
    ]
    # the case rank orders one vehicle's cases like the scan's stop orders
    for p in records:
        ranked = sorted(p.cases, key=lambda row: _case_rank(row[0], r, p.partner))
        orders = dict(_pooled_stop_orders(r, p.partner, p.cases[0][0] <= 2))
        assert ranked == sorted(p.cases, key=lambda row: _scan_oracle.plan_key(orders[row[0]]))
    assert all(c.feasible for c in got)
    decisions = (
        assign_sro(fleet, r, now, net, tariff),
        assign_pcp(fleet, r, now, net, tariff),
        assign_ccp(fleet, r, now, net, tariff),
    )
    assert decisions == (
        _scan_oracle.assign_sro(vehicles, r, now, net, tariff),
        _scan_oracle.assign_pcp(vehicles, r, now, net, tariff, requests),
        _scan_oracle.assign_ccp(vehicles, r, now, net, tariff, requests, committed),
    )
    return scanned, decisions


def within_detour(c, tariff, requests):
    """Whether a scanned candidate is feasible and keeps every rider within
    the detour bound, in `Fraction` arithmetic."""
    if not c.feasible:
        return False
    for cid, dropoff in c.dropoff_times.items():
        rider = requests[cid]
        direct = WORLD.duration_usec(WORLD.index(rider.origin), WORLD.index(rider.destination))
        bound = (1 + tariff.detour_factor) * direct
        if c.case is not None and dropoff - c.pickup_times[cid] > bound:
            return False
    return True


class TestSinglePass:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_vehicle_scan(self, data):
        compare_with_scan(random_world(lambda lo, hi: data.draw(st.integers(lo, hi))))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_vehicle_scan_on_one_way_streets(self, data):
        draw = lambda lo, hi: data.draw(st.integers(lo, hi))  # noqa: E731
        compare_with_scan(random_world(draw, net=ONE_WAY), ONE_WAY)

    def test_one_way_comparison_reaches_past_nearer_vehicles(self):
        # replayable one-way worlds where the solitary winner is not the idle
        # vehicle nearest by mileage (that one misses the wait), and where the
        # mileage out of the origin would pick another vehicle
        dur, _, lex = ONE_WAY.tables()
        passed_nearer = reverse_differs = 0
        for seed in range(300):
            world = random_world(random.Random(seed).randint, net=ONE_WAY)
            fleet, tariff, requests, committed, r, now = world
            _, (sro, _, _) = compare_with_scan(world, ONE_WAY)
            if sro.decision != SOLITARY:
                continue
            o = ONE_WAY.index(r.origin)
            idle = [(v.way_nodes[-1], v.id) for v in fleet.vehicles if v.is_idle(now)]
            eligible = [(a, vid) for a, vid in idle
                        if dur[a, o] <= r.request_time + r.max_wait - now]
            won = min(lex[a, o] for a, vid in eligible if vid == sro.vehicle)
            passed_nearer += any(lex[a, o] < won for a, _ in idle)
            reverse_differs += min(eligible, key=lambda e: (lex[o, e[0]], e[1]))[1] != sro.vehicle
        assert passed_nearer >= 5 and reverse_differs >= 10

    def test_scan_comparison_covers_ties_and_every_outcome(self):
        # the same comparison on replayable worlds, checking that they reach
        # every decision and ties that the vehicle id has to break
        outcomes = set()
        id_breaks_tie = 0
        reasons = set()
        pcp_ties = pcp_pooled_ties = 0  # PCP winners tying another detour-feasible candidate
        for seed in range(300):
            world = random_world(random.Random(seed).randint)
            fleet, tariff, requests, committed, r, now = world
            scanned, decisions = compare_with_scan(world)
            outcomes |= {(m, d.decision) for m, d in zip(("SRO", "PCP", "CCP"), decisions)}
            reasons |= {c.reason for c in scanned if c.case is not None}
            solos = [c for c in scanned if c.case is None and c.feasible]
            if solos:
                shortest = min(c.added_distance for c in solos)
                tied = [c.vehicle for c in solos if c.added_distance == shortest]
                id_breaks_tie += tied[0] != min(tied)
            winner = decisions[1]
            if winner.decision != UNSERVED:
                tie = sum(c.added_distance == winner.added_distance
                          for c in scanned if within_detour(c, tariff, requests)) > 1
                pcp_ties += tie
                pcp_pooled_ties += tie and winner.decision == POOLED
        assert outcomes == {
            (m, kind) for m in ("SRO", "PCP", "CCP") for kind in (SOLITARY, POOLED, UNSERVED)
        } - {("SRO", POOLED)}
        assert id_breaks_tie >= 5
        assert pcp_ties >= 30 and pcp_pooled_ties >= 3
        # the pass drops pooled interleavings on both wait limits
        assert reasons == {None, MAX_WAIT_REASON, PARTNER_WAIT_REASON}


class TestDetourLimitsPerRun:
    def test_two_detour_factors_in_one_process_match_the_scan(self, monkeypatch):
        net = make_grid(5, 5, 0.15, 30)
        trips = synthetic_trips(net, 120, 900, seed=4)
        assign = simengine.assign_pcp
        checked, requests = [], {}

        def against_scan(fleet, r, now, net, tariff):
            d = assign(fleet, r, now, net, tariff)
            requests[r.id] = r  # the scan reads partners' requests here
            assert d == _scan_oracle.assign_pcp(fleet.vehicles, r, now, net, tariff, requests)
            checked.append(d.decision)
            return d

        monkeypatch.setattr(simengine, "assign_pcp", against_scan)
        pooled = []
        for factor in (Fraction(1, 20), Fraction(1), Fraction(1, 20)):
            cfg = simengine.SimConfig(
                mechanism=Mechanism.PCP, tariff=ScenarioGrid().tariff(detour=factor),
                fleet_size=5, mar=Fraction(1), rng_seed=2, network=net, horizon=900 * USEC,
            )
            pooled.append(simengine.run_sim(cfg, trips).pooled_customers)
        assert len(checked) == 3 * len(trips)
        # the factor changes decisions, and the first run's limits did not leak
        assert pooled[0] < pooled[1] and pooled[2] == pooled[0]

    def test_one_fleet_under_two_detour_factors(self):
        changed = pooled_strict = 0
        for seed in range(60):
            fleet, tariff, requests, committed, r, now = random_world(random.Random(seed).randint)
            decisions = []
            # a limit kept from factor 1 would reject every pooled case under 0.05
            for factor in (Fraction(1), Fraction(1, 20), Fraction(1)):
                tariff = ScenarioGrid().tariff(detour=factor)
                d = assign_pcp(fleet, r, now, WORLD, tariff)
                assert d == _scan_oracle.assign_pcp(fleet.vehicles, r, now, WORLD, tariff,
                                                    requests)
                decisions.append(d)
            changed += decisions[0] != decisions[1]
            pooled_strict += decisions[1].decision == POOLED
        assert changed > 0 and pooled_strict > 0


def idle_index(fleet):
    """The fleet's `idle_at` as node index -> sorted slots, for its nodes that hold some."""
    return {a: sorted(slots) for a, slots in enumerate(fleet.idle_at) if slots is not None}


def check_fleet_state(fleet, now, poolable):
    """Check the fleet's `idle_at` and `lone` against a recomputation from
    the schedules at `now`, given every customer's flag in `poolable`: a
    vehicle is idle when no dropoff in its schedule lies after `now`, and
    carries one rider when exactly one does.  `idle_nodes` must count the
    nodes of `idle_at` that hold a slot, and none may hold an empty list.
    Check each busy vehicle's
    anchor against a linear scan of its expanded route.  Return how many
    vehicles carry one rider, and how many of them dropped another rider off
    since their last commit."""
    idle, lone = {}, {}
    alone = after_pair = 0
    for slot, w in enumerate(fleet.vehicles):
        drops = {e.customer: e.time for e in w.schedule if e.op == DO}
        ahead = [c for c, t in drops.items() if t > now]
        if not ahead:
            idle.setdefault(w.way_nodes[-1], []).append(slot)
            continue
        if len(ahead) == 1:
            alone += 1
            committed = max(e.time for e in w.schedule if e.op == REC)
            after_pair += any(committed < t <= now for t in drops.values())
            if poolable[ahead[0]]:
                lone[slot] = ahead[0]
        nodes, times, cum = expand_route(w)
        pos = 0
        while times[pos] < now:
            pos += 1
        assert w.busy_anchor(now) == (nodes[pos], times[pos], cum[pos])
    assert idle_index(fleet) == idle
    assert fleet.idle_nodes == sum(slots is not None for slots in fleet.idle_at)
    assert [] not in fleet.idle_at
    assert fleet.lone == lone
    return alone, after_pair


def stale_events(fleet):
    """The fleet's queued events that an earlier commit of their vehicle pushed."""
    return sum(version != fleet._version[slot] for _, slot, version, _ in fleet._events)


class TestClockedFleet:
    def test_state_tracks_every_commit_and_request_of_run_sim(self, monkeypatch, grid10):
        commit = Fleet.commit  # how `run_sim` commits
        commits = []
        # single-rider vehicles, those after a pair, and stale events queued
        seen = np.zeros(3, dtype=int)
        poolable = {}  # every customer's flag in the current run

        def checked_commit(fleet, r, d, now):
            out = commit(fleet, r, d, now)
            seen[2] += stale_events(fleet)
            fleet.advance(now)  # as every reader does
            seen[:2] += check_fleet_state(fleet, now, poolable)
            commits.append(r.id)
            return out

        def checked(assign):
            def at_request_time(fleet, r, now, *args):
                fleet.advance(now)  # as the candidate pass does
                seen[:2] += check_fleet_state(fleet, now, poolable)
                return assign(fleet, r, now, *args)
            return at_request_time

        monkeypatch.setattr(Fleet, "commit", checked_commit)
        for name in ("assign_sro", "assign_pcp", "assign_ccp"):
            monkeypatch.setattr(simengine, name, checked(getattr(simengine, name)))
        rng = np.random.default_rng(5)
        trips = [
            Request(i, *(grid10.node_ids[int(x)] for x in rng.choice(100, 2, replace=False)),
                    sec(10 * i), None, sec(300), None)
            for i in range(120)
        ]
        served = pooled = 0
        for mech in Mechanism:
            cfg = simengine.SimConfig(
                mechanism=mech, tariff=TARIFF, fleet_size=10, mar=Fraction(3, 4),
                rng_seed=1, network=grid10, horizon=1800 * USEC,
            )
            poolable = {r.id: r.poolable for r in simengine.resolve_requests(cfg, trips)}
            res = simengine.run_sim(cfg, trips)
            served += res.served
            pooled += res.pooled_customers
        assert len(commits) == served > 0
        assert pooled > 0
        # the checks met single riders, also ones left after a pooled partner,
        # and events that re-commits left behind
        assert seen[0] > seen[1] > 0 and seen[2] > 0

    def test_riders_dropped_off_together_are_never_alone(self, line6):
        k = req(1, "A", "E")
        v = vehicle_with_rider(line6, 0, "A", k)  # k on board, at E at 96 s
        fleet = Fleet([v])
        r = req(2, "B", "E", t=1)
        # k is dropped off first, where r is
        fleet.commit(r, commit_decision(v, r, 1, sec(1)), sec(1))
        rebuilt = Fleet([v])  # derived from the vehicle's rides alone
        for f in (fleet, rebuilt):
            for now in range(0, sec(120), sec(2)):
                f.advance(now)
                assert f.lone == {}
                assert check_fleet_state(f, now, {1: True, 2: True}) == (0, 0)
                r = req(3, "C", "D", t=now / USEC)
                cands = enumerate_candidates(f, r, now, Mechanism.CCP, line6, *ends(line6, r))
                assert all(isinstance(c, SolitaryRide) for c in cands)
            assert idle_index(f) == {line6.index("E"): [0]}

    def test_pooled_recommit_skips_the_replaced_events(self, line6):
        k = req(1, "A", "E")
        v = vehicle_with_rider(line6, 0, "A", k)  # k on board, at E at 96 s
        fleet = Fleet([v])
        fleet.advance(sec(1))
        assert fleet.lone == {0: 1}
        # r rides on to F, so k is dropped off at E on the way back, at 144 s
        r = req(2, "B", "F", t=1)
        fleet.commit(r, commit_decision(v, r, 2, sec(1)), sec(1))
        assert stale_events(fleet) == 1  # the vehicle's old end at 96 s
        flags = {1: True, 2: True}
        for now, lone in ((sec(96), {}), (sec(100), {}), (sec(120), {0: 1}), (sec(144), {})):
            fleet.advance(now)
            assert fleet.lone == lone
            check_fleet_state(fleet, now, flags)
        assert idle_index(fleet) == {line6.index("E"): [0]}

    def test_clock_never_runs_backwards(self, line6):
        fleet = Fleet([VehicleState(0, "A", line6)])
        fleet.advance(sec(5))
        fleet.advance(sec(5))
        r = req(1, "B", "C", t=4)
        with pytest.raises(ValueError, match="cannot run back"):
            enumerate_candidates(fleet, r, sec(4), Mechanism.SRO, line6, *ends(line6, r))
        with pytest.raises(ValueError, match="cannot run back"):
            fleet.advance(sec(5) - 1)


class TestCarriedLeg:
    def test_busy_anchor_at_every_call_of_run_sim(self, monkeypatch, grid10):
        """Every `busy_anchor` answer equals the linear scan of the expanded
        route."""
        busy_anchor, commit = VehicleState.busy_anchor, Fleet.commit
        version = {}  # (run, vehicle) -> its commits so far: its route's version
        last = {}  # (run, vehicle, version) -> waypoint index of the last call inside a leg
        seen = dict.fromkeys(("calls", "inside", "advanced", "after_wait"), 0)
        by_mechanism = dict.fromkeys(Mechanism, 0)
        run, mechanism = 0, None

        def versioned_commit(fleet, r, d, now):
            out = commit(fleet, r, d, now)  # its anchor is read on the route it replaces
            version[run, d.vehicle] = version.get((run, d.vehicle), 0) + 1
            return out

        def checked(v, now):
            got = busy_anchor(v, now)
            nodes, times, cum = expand_route(v)
            pos = 0
            while times[pos] < now:
                pos += 1
            assert got == (nodes[pos], times[pos], cum[pos])
            seen["calls"] += 1
            by_mechanism[mechanism] += 1
            j = bisect_right(v.way_times, now) - 1
            if v.way_times[j] == now:
                return got
            route = (run, v.id, version.get((run, v.id), 0))
            seen["inside"] += 1
            seen["advanced"] += last.get(route, j) < j
            last[route] = j
            start = v.way_times[j + 1] - v.net.leg(v.way_nodes[j], v.way_nodes[j + 1])[1][-1]
            seen["after_wait"] += start > v.way_times[j]
            return got

        monkeypatch.setattr(Fleet, "commit", versioned_commit)
        monkeypatch.setattr(VehicleState, "busy_anchor", checked)
        rng = np.random.default_rng(11)
        trips = [
            Request(i, *(grid10.node_ids[int(x)] for x in rng.choice(100, 2, replace=False)),
                    sec(8 * i), None, sec(300), None)
            for i in range(150)
        ]
        for seed in (1, 2):
            for mechanism in Mechanism:
                run += 1
                cfg = simengine.SimConfig(
                    mechanism=mechanism, tariff=TARIFF, fleet_size=8, mar=Fraction(3, 4),
                    rng_seed=seed, network=grid10, horizon=1800 * USEC,
                )
                simengine.run_sim(cfg, trips)
        # the pooling mechanisms ask for busy anchors; the checks met anchors inside a leg,
        # on a later leg of the same route, and on legs that depart after a wait there
        assert by_mechanism[Mechanism.PCP] > 0 and by_mechanism[Mechanism.CCP] > 0
        assert min(seen.values()) >= 10, seen


def check_fare_state(fleet, now, tariff):
    """Check, on every vehicle whose one rider the coalition test may pair
    at `now`, the carried run fare, runs and mileage against the runs in its
    schedule (`run_fields`).  Return the vehicles checked."""
    checked = []
    fleet.advance(now)
    for slot in sorted(fleet.lone):
        v = fleet.vehicles[slot]
        assert (v.run_fare, v.runs, v.run_umiles) == run_fields(v, tariff)
        checked.append(v)
    return checked


class TestCarriedFareState:
    def test_run_fields_at_every_ccp_request(self, monkeypatch):
        net = make_grid(5, 5, 0.15, 30)  # 18 s arcs
        assign = simengine.assign_ccp
        seen = dict.fromkeys(("vehicles", "at_now", "extended", "fresh_after_pool",
                              "changed_guarantee"), 0)
        pooled_runs = set()
        baselines = {}  # each committed rider's frozen baseline
        requests, fares = {}, {}  # each rider's request, and her fare as the decisions set it

        def checked(fleet, r, now, net, tariff):
            d = assign(fleet, r, now, net, tariff)
            requests[r.id] = r
            for v in check_fare_state(fleet, now, tariff):
                # fare conservation: the run's riders pay its run fare between them
                assert sum(fares[c] for c in v.runs[-1]) == v.run_fare
                pooled = len(v.runs[-1]) > 1
                seen["vehicles"] += 1
                seen["at_now"] += any(e.time == now for e in _scan_oracle.run_entries(v))
                seen["extended"] += pooled
                seen["fresh_after_pool"] += not pooled and v.id in pooled_runs
                # tightened by the pooling that was the vehicle's last commit
                k = requests[fleet.lone[v.slot]]
                guaranteed = fares[k.id] + held_time_cost(k, v)
                seen["changed_guarantee"] += guaranteed != baselines[k.id]
                if pooled:
                    pooled_runs.add(v.id)
            baselines[r.id] = d.baseline_cost
            record_fares(fares, d)
            return d

        monkeypatch.setattr(simengine, "assign_ccp", checked)
        rng = np.random.default_rng(7)
        for seed in range(3):
            # request times on the arc lattice, so waypoints fall exactly at `now`
            trips = [
                Request(i, *(net.node_ids[int(x)] for x in rng.choice(25, 2, replace=False)),
                        sec(18 * (i // 2)), None, sec(240), None)
                for i in range(100)
            ]
            cfg = simengine.SimConfig(
                mechanism=Mechanism.CCP, tariff=ScenarioGrid().tariff(change_fee=500), fleet_size=4,
                mar=Fraction(1), rng_seed=seed, network=net, horizon=1800 * USEC,
            )
            simengine.run_sim(cfg, trips)
        assert seen["vehicles"] >= 100
        assert min(seen.values()) >= 10, seen

    def test_account_fares_price_their_runs(self):
        # the run fare carried through the commits is its realized run's fare
        accounts, chains = 0, 0
        for seed in range(4):
            cfg = ccp_config(seed, 0.5, Fraction(1))
            res = simengine.run_sim(cfg, synthetic_trips(CCP_NET, 80, 900, seed))
            by_id = {a.run_id: a for a in res.accounts}
            for v in res.vehicles:
                for i, run in enumerate(_scan_oracle.extract_runs(v)):
                    if len(_scan_oracle.run_customers(run)) > 1:
                        account = by_id.pop(f"v{v.id}r{i}")
                        assert account.run_fare == _scan_oracle.run_fare(cfg.tariff, CCP_NET, run)
                        accounts += 1
                        chains += len(account.members) > 2
            assert not by_id
        assert accounts >= 20 and chains >= 3, (accounts, chains)

    def test_denominator_four_guarantees_match_the_scan(self):
        pooled_quarters = 0
        for seed in range(200):
            world = random_world(random.Random(seed).randint, den=4)
            fleet, tariff, requests, committed, r, now = world
            _, decisions = compare_with_scan(world)
            d = decisions[2]
            check_fare_state(fleet, now, tariff)
            pooled_quarters += (d.decision == POOLED
                                and committed[d.partner].guaranteed.denominator == 4)
        assert pooled_quarters >= 10


CCP_NET = make_grid(5, 5, 0.15, 30)


def ccp_config(seed, fee_usd, mar):
    """A small CCP simulation on `CCP_NET`: 4 vehicles over 900 s."""
    return simengine.SimConfig(
        mechanism=Mechanism.CCP, tariff=ScenarioGrid().tariff(change_fee=mils_from_usd(fee_usd)),
        fleet_size=4, mar=mar, rng_seed=seed, network=CCP_NET, horizon=900 * USEC,
    )


def record_fares(fares, d):
    """Book decision `d` into the fare ledger `fares`, as `run_sim` books it:
    the request's fare, and a partner's fare moved by its change."""
    if d.decision != UNSERVED:
        fares[d.customer] = d.fare
    if d.decision == POOLED:
        fares[d.partner] += d.partner_fare_change


def committed_money(seed, fee_usd, mar):
    """Run a small CCP simulation and replay the guarantee ledger from its
    decisions: a commitment guarantees the request its decision's
    guarantee, and a pooling lowers the partner's by as much as the
    request's fell below its baseline.  Check at every request that each
    rider a vehicle holds has a guarantee of her fare plus her time cost at
    the dropoff the vehicle holds, and that every guarantee lies on whole or
    half mils; return the number of riders checked and how many of them had
    a guarantee on half mils."""
    assign = simengine.assign_ccp
    ledger, fares, requests = {}, {}, {}
    counts = [0, 0]

    def checked(fleet, r, now, net, tariff):
        assert all(g.denominator in (1, 2) for g in ledger.values())
        for v in fleet.vehicles:
            for cid in v.active:
                assert ledger[cid] - fares[cid] == held_time_cost(requests[cid], v)
                counts[0] += 1
                counts[1] += ledger[cid].denominator == 2
        d = assign(fleet, r, now, net, tariff)
        requests[r.id] = r
        if d.decision != UNSERVED:
            ledger[r.id] = d.guaranteed_cost
        if d.decision == POOLED:
            ledger[d.partner] -= d.baseline_cost - d.guaranteed_cost
        record_fares(fares, d)
        return d

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simengine, "assign_ccp", checked)
        simengine.run_sim(ccp_config(seed, fee_usd, mar),
                          synthetic_trips(CCP_NET, 80, 900, seed))
    return counts


class TestMoneyInvariant:
    @given(seed=st.integers(0, 10**6), fee_usd=st.sampled_from([0.0, 0.5, 2.0]),
           mar=st.integers(0, 10).map(lambda tenths: Fraction(tenths, 10)))
    @settings(max_examples=25, deadline=None)
    def test_spare_is_whole_and_guarantees_on_half_mils(self, seed, fee_usd, mar):
        committed_money(seed, fee_usd, mar)

    def test_check_sees_half_mil_guarantees(self):
        # half-mil guarantees come from poolings, so they are partners' and
        # requests' guarantees after a pooling moved or set their dropoffs
        checked, halves = committed_money(1, 0.5, Fraction(1))
        assert checked >= 500 and halves >= 300


@st.composite
def rated(draw, den):
    """(rate, quantity) for an amount rate * quantity / den that rounds half
    to even: any, or one ending in exactly one half."""
    if draw(st.booleans()):
        return 1, (2 * draw(st.integers(0, 10**4)) + 1) * den // 2
    return draw(st.integers(1, 5000)), draw(st.integers(0, 10**9))


class _NoFloor:
    """A divisor by which every floor reads minus infinity: as `UMILE` in
    `mechanisms`, the floor pre-test of `assign_ccp` never reaches its cap."""

    def __rfloordiv__(self, n):
        return -math.inf


def coalition_tests(monkeypatch, cfg, trips, pretest=True):
    """Run `cfg` on `trips`; return its decision log and, for each offer that
    took CCP's exact coalition test, in order, whether it passed."""
    passed = []

    class RunFare(int):
        # a new run fare: its sum with both time costs records the exact test
        def __add__(self, other):
            return RunFare(int(self) + other)

        def __lt__(self, cap):
            passed.append(int(self) < cap)
            return passed[-1]

    with monkeypatch.context() as m:
        m.setattr(mechanisms, "mileage_fare", lambda *args: RunFare(mileage_fare(*args)))
        if not pretest:
            m.setattr(mechanisms, "UMILE", _NoFloor())
        log = simengine.run_sim(cfg, trips).decision_log
    return log, passed


def scanned_ccp_run(cfg, trips):
    """Run `cfg` on `trips`, asserting that every CCP decision equals the
    scan's, which reads the riders' guarantees and fares from a ledger kept
    from the decisions as `run_sim` books them; return the surplus of each
    pooling, in mils, in order."""
    assign = simengine.assign_ccp
    requests, committed, surpluses = {}, {}, []

    def checked(fleet, r, now, net, tariff):
        d = assign(fleet, r, now, net, tariff)
        requests[r.id] = r
        assert d == _scan_oracle.assign_ccp(fleet.vehicles, r, now, net, tariff, requests,
                                            committed)
        if d.decision != UNSERVED:
            committed[r.id] = Commitment(d.guaranteed_cost, d.fare)
        if d.decision == POOLED:
            # both guarantees drop by half the surplus
            half = d.baseline_cost - d.guaranteed_cost
            k = committed[d.partner]
            committed[d.partner] = Commitment(k.guaranteed - half, k.fare + d.partner_fare_change)
            surpluses.append(2 * half)
        return d

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simengine, "assign_ccp", checked)
        simengine.run_sim(cfg, trips)
    return surpluses


class TestFloorPretest:
    @given(per_mile_umiles=rated(UMILE), r_time=rated(60 * USEC), k_time=rated(60 * USEC),
           base=st.integers(0, 5000), fee=st.integers(0, 5000), changes=st.integers(0, 4))
    @example(per_mile_umiles=(1, UMILE // 2), r_time=(1, 30 * USEC), k_time=(3, 30 * USEC),
             base=0, fee=0, changes=0)  # 0.5, 0.5 and 1.5 round to 0, 0 and 2
    @settings(max_examples=300)
    def test_floor_bound_is_at_most_the_rounded_cost(self, per_mile_umiles, r_time, k_time,
                                                     base, fee, changes):
        (per_mile, umiles), (vot_r, span_r), (vot_k, span_k) = per_mile_umiles, r_time, k_time
        tariff = Tariff(base, per_mile, fee, Fraction(1), Fraction(1), 1)
        minute = 60 * USEC
        bound = (base + changes * fee + per_mile * umiles // UMILE + vot_r * span_r // minute
                 + vot_k * span_k // minute)
        assert bound <= (mileage_fare(tariff, umiles, changes) + time_cost_mils(vot_r, span_r)
                         + time_cost_mils(vot_k, span_k))

    def test_a_seeded_run_skips_offers_and_keeps_every_admissible_one(self, monkeypatch):
        cfg = ccp_config(1, 2.0, Fraction(1))
        trips = synthetic_trips(CCP_NET, 80, 900, 1)
        log, tested = coalition_tests(monkeypatch, cfg, trips)
        full_log, every = coalition_tests(monkeypatch, cfg, trips, pretest=False)
        assert log == full_log and sum(d.decision == POOLED for d in log) > 0
        # the pre-test spared some offers the exact test, and none it spared
        # was admissible
        assert len(tested) < len(every)
        assert tested.count(True) == every.count(True) > 0

    def test_whole_runs_match_the_scan_with_winners_near_the_cap(self):
        # before a run's first pooling every run holds one rider, so a
        # change fee of f mils lowers each offer's surplus there by f: a fee
        # of S - k leaves a first pooling of surplus S without a fee one of k
        # mils, within a rounding of the cap, where a pre-test that rounded
        # any amount up would drop the winner
        for seed in range(8):
            trips = synthetic_trips(CCP_NET, 80, 900, seed)
            first = scanned_ccp_run(ccp_config(seed, 0, Fraction(1)), trips)[0]
            for k in (1, 2, 3):
                fee_usd = Fraction(first - k, 1000)
                assert scanned_ccp_run(ccp_config(seed, fee_usd, Fraction(1)), trips)[0] == k


def first_pooling_cases(seed, fee_usd):
    """Run a small CCP simulation and check the new run fare of every pooling
    event on a run without earlier ones against the six-case formula; return
    the cases checked."""
    assign = simengine.assign_ccp
    cases, requests = [], {}

    def checked_assign(fleet, r, now, net, tariff):
        d = assign(fleet, r, now, net, tariff)
        requests[r.id] = r
        v = fleet.by_id.get(d.vehicle)
        if d.decision == POOLED and len(v.runs[-1]) == 1:
            k = requests[d.partner]
            anchor, _, _ = anchor_at(v, now)
            geometry = PoolGeometry(d.case, now, v.active[k.id].pickup_time,
                                    net.node_ids[anchor] if d.case <= 2 else None)
            assert d.run_fare == ccp_pooled_fare(tariff, net, k, r, geometry)
            cases.append(d.case)
        return d

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simengine, "assign_ccp", checked_assign)
        simengine.run_sim(ccp_config(seed, fee_usd, Fraction(1)),
                          synthetic_trips(CCP_NET, 80, 900, seed=seed))
    return cases


class TestPooledRunFare:
    @given(seed=st.integers(0, 10**6), fee_usd=st.sampled_from([0.0, 0.5, 2.0]))
    @settings(max_examples=25, deadline=None)
    def test_first_pooling_event_matches_six_case_formula(self, seed, fee_usd):
        first_pooling_cases(seed, fee_usd)

    def test_formula_check_covers_every_case(self):
        cases = set()
        for seed in range(6):
            cases.update(first_pooling_cases(seed, 0.0))
        assert cases == set(range(1, 7))


class TestDetourBound:
    @given(
        direct=st.integers(0, 10**10),
        num=st.integers(1, 10**4),
        den=st.integers(1, 10**4),
        delta=st.integers(-2, 2),
    )
    @example(direct=100 * USEC, num=3, den=10, delta=0)  # exactly on the bound
    @example(direct=100 * USEC, num=3, den=10, delta=1)
    @example(direct=7, num=1, den=3, delta=0)  # bound 28/3: floor lies below it
    @settings(max_examples=500, deadline=None)
    def test_integer_form_matches_fraction_form(self, direct, num, den, delta):
        factor = Fraction(num, den)
        bound = (1 + factor) * direct
        ride = math.floor(bound) + delta
        assert (ride * factor.denominator <= _detour_limit(direct, factor)) == (ride <= bound)
