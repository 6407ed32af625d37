import random
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridepool import domain, simengine
from ridepool.domain import (
    DO,
    PU,
    REC,
    CustomerOutcome,
    DecisionRow,
    Fleet,
    Request,
    ScheduleEntry,
    VehicleState,
    _decision_stops,
    apply_assignment,
)
from ridepool.harness import ScenarioGrid, synthetic_trips
from ridepool.mechanisms import Mechanism, assign_ccp
from ridepool.netgraph import RoadNetwork
from ridepool.units import mils_from_usd
from tests._hop_oracle import HopRoute
from tests._scan_oracle import (
    Stop,
    _pooled_stop_orders,
    anchor_at,
    commit_decision,
    commit_stops,
    extract_runs,
    plan_key,
    plan_stop_times,
    run_customers,
)
from tests.conftest import ends, expand_route, line_network, sec


def active_schedule(v, t):
    """Entries scheduled at or after t, order preserved."""
    return [e for e in v.schedule if e.time >= t]


def rider(cust, origin, dest):
    """A poolable request from `origin` to `dest`, as a commit reads it."""
    return Request(cust, origin, dest, 0, 250, sec(600), True)


def commit_case(v, r, case, now):
    """Commit `r` to `v` in `case` at `now`, at the oracle's planned times."""
    apply_assignment(v, r, commit_decision(v, r, case, now), now)


class TestActiveSchedule:
    def test_empty(self, line6):
        v = VehicleState(0, "A", line6)
        assert active_schedule(v, sec(100)) == []

    def test_filter_by_time(self, line6):
        v = VehicleState(0, "A", line6)
        v.schedule = [
            ScheduleEntry("A", sec(10), PU, 1),
            ScheduleEntry("B", sec(20), DO, 1),
        ]
        assert active_schedule(v, sec(15)) == [ScheduleEntry("B", sec(20), DO, 1)]

    def test_insertion_keeps_future_from_new_pickup(self, line6):
        # vehicle heading to pick up j; i inserted mid-way
        v = VehicleState(2, "A", line6)
        commit_case(v, rider(7, "C", "F"), None, sec(0))
        commit_case(v, rider(8, "D", "E"), 4, sec(24))  # 7 is picked up first, 8 dropped
        act = active_schedule(v, sec(24))
        assert [(e.op, e.customer) for e in act] == [
            (REC, 8),
            (PU, 7),
            (PU, 8),
            (DO, 8),
            (DO, 7),
        ]
        # queried from the retimed first pickup, only PU/DO entries remain
        at_pickup = active_schedule(v, sec(48))
        assert [(e.op, e.customer) for e in at_pickup] == [
            (PU, 7),
            (PU, 8),
            (DO, 8),
            (DO, 7),
        ]


class TestApplyAssignment:
    def test_empty_vehicle_rec_pu_do(self, line6):
        v = VehicleState(1, "A", line6)
        commit_case(v, rider(5, "B", "D"), None, sec(0))
        assert v.schedule == [
            ScheduleEntry("A", 0, REC, 5),
            ScheduleEntry("B", sec(24), PU, 5),
            ScheduleEntry("D", sec(72), DO, 5),
        ]

    def test_commit_keeps_stop_level_waypoints(self, line6, monkeypatch):
        def arc_by_arc(*args):
            raise AssertionError("the commit read the network arc by arc")

        leg = RoadNetwork.leg
        legs_read = []

        def recorded_leg(net, i, j):
            legs_read.append((i, j))
            return leg(net, i, j)

        monkeypatch.setattr(RoadNetwork, "arc_attrs", arc_by_arc)
        monkeypatch.setattr(RoadNetwork, "leg", recorded_leg)
        v = VehicleState(2, "A", line6)
        commit_case(v, rider(7, "C", "F"), None, sec(0))
        assert (v.way_nodes, legs_read) == ([0, 2, 5], [])  # the start and the two stops
        commit_case(v, rider(8, "D", "E"), 4, sec(24))  # turns at B, inside the leg to C
        assert legs_read == [(0, 2)]  # the anchor's leg, and no leg of the new stops
        assert v.way_nodes == [0, 1, 2, 3, 4, 5]
        assert v.way_times == [sec(24 * k) for k in range(6)]
        assert v.way_cum == [200_000 * k for k in range(6)]

    def test_insertion_recomputes_downstream_times(self, line6):
        v = VehicleState(2, "A", line6)
        commit_case(v, rider(7, "C", "F"), None, sec(0))
        assert [e.time for e in v.schedule] == [0, sec(48), sec(120)]
        commit_case(v, rider(8, "D", "E"), 4, sec(24))
        # anchor is B (next node at t=24); committed REC of 7 is untouched
        assert v.schedule[0] == ScheduleEntry("A", 0, REC, 7)
        assert v.schedule[1] == ScheduleEntry("B", sec(24), REC, 8)
        assert [e.time for e in v.schedule[2:]] == [sec(48), sec(72), sec(96), sec(120)]

    @staticmethod
    def rejected(v, r, case, now, riders, **changes):
        """Commit a decision of `r` in `case` beside the vehicle's first rider,
        with `changes`, expecting the precondition to refuse it and leave the
        vehicle as it was."""
        d = DecisionRow(now, r.id, "PCP", "pooled", vehicle=v.id, partner=next(iter(v.active), None),
                        quote=0, case=case)
        d = replace(d, **changes)

        def state():
            return (list(v.schedule), list(v.way_nodes), list(v.way_times), list(v.way_cum),
                    repr(v.active), repr(v.runs),
                    [(o.request, o.origin_idx, o.dest_idx) for o in v.active.values()])

        before = state()
        with pytest.raises(ValueError, match=(
            rf"^vehicle {v.id} cannot take customer {r.id} in case {d.case} beside "
            rf"{d.partner}, decided for vehicle {d.vehicle}: "
            rf"its riders at {now} usec are \{{{riders}\}}$"
        )):
            apply_assignment(v, r, d, now)
        assert state() == before

    def test_third_concurrent_rider_rejected(self, line6):
        v = VehicleState(0, "A", line6)
        commit_case(v, rider(1, "B", "F"), None, sec(0))
        commit_case(v, rider(2, "C", "E"), 4, sec(0))
        self.rejected(v, rider(3, "D", "E"), 3, sec(0), "1: 'waiting', 2: 'waiting'")
        self.rejected(v, rider(3, "D", "E"), 1, sec(48), "1: 'on board', 2: 'on board'")

    def test_solitary_commit_needs_an_idle_vehicle(self, line6):
        v = VehicleState(0, "A", line6)
        commit_case(v, rider(1, "B", "F"), None, sec(0))
        self.rejected(v, rider(2, "C", "E"), None, sec(0), "1: 'waiting'")
        self.rejected(v, rider(2, "C", "E"), None, sec(24), "1: 'on board'")
        commit_case(v, rider(2, "C", "E"), None, sec(120))  # 1 is dropped off at F at 120 s

    def test_case_needs_its_rider_on_board_or_waiting(self, line6):
        v = VehicleState(0, "A", line6)
        self.rejected(v, rider(1, "B", "F"), 1, sec(0), "")  # a pooled case needs a rider
        commit_case(v, rider(1, "B", "F"), None, sec(0))
        self.rejected(v, rider(2, "C", "E"), 1, sec(0), "1: 'waiting'")
        self.rejected(v, rider(2, "C", "E"), 3, sec(24), "1: 'on board'")
        for case in (0, 7):
            self.rejected(v, rider(2, "C", "E"), case, sec(24), "1: 'on board'")
        commit_case(v, rider(2, "C", "E"), 2, sec(24))
        assert [(e.op, e.customer) for e in v.schedule[-3:]] == [(PU, 2), (DO, 2), (DO, 1)]

    def test_decision_must_fit_the_vehicle(self, line6):
        v = VehicleState(0, "A", line6)
        commit_case(v, rider(1, "B", "F"), None, sec(0))
        r = rider(2, "C", "E")
        d = commit_decision(v, r, 4, sec(12))
        self.rejected(v, r, 4, sec(12), "1: 'waiting'", vehicle=1)  # decided for another vehicle
        self.rejected(v, r, 4, sec(12), "1: 'waiting'", partner=3)  # beside another rider
        self.rejected(v, r, None, sec(12), "1: 'waiting'", partner=None)
        self.rejected(v, rider(3, "C", "E"), 4, sec(12), "1: 'waiting'", customer=2)
        apply_assignment(v, r, d, sec(12))
        assert [(e.op, e.customer) for e in v.schedule[-4:]] == [(PU, 1), (PU, 2), (DO, 2), (DO, 1)]

    def test_idle_vehicle_parks_at_last_dropoff(self, line6):
        v = VehicleState(0, "A", line6)
        commit_case(v, rider(1, "B", "D"), None, sec(0))
        assert v.is_idle(sec(72))
        anchor, t, _ = anchor_at(v, sec(100))
        assert line6.node_ids[anchor] == "D"
        assert t == sec(100)

    def test_preview_matches_commit(self, line6):
        v = VehicleState(0, "A", line6)
        commit_case(v, rider(1, "C", "F"), None, sec(0))
        # backward-going rider D->C forces a real detour
        stops = (Stop(PU, 1, "C"), Stop(PU, 2, "D"), Stop(DO, 2, "C"), Stop(DO, 1, "F"))
        times, _, _, added = plan_stop_times(v, stops, sec(24))
        tail = v.way_cum[-1] - anchor_at(v, sec(24))[2]
        d = commit_decision(v, rider(2, "D", "C"), 4, sec(24))
        assert (d.partner_pickup, d.pickup, d.dropoff, d.partner_dropoff) == tuple(times)
        apply_assignment(v, rider(2, "D", "C"), d, sec(24))
        assert [e.time for e in v.schedule if e.op != REC] == times
        # old tail from anchor B is 4 edges; new route B,C,D,C,F is 6 edges, read from `lex`
        assert added == 400_000 == v.way_cum[-1] - v.way_cum[1] - tail


class TestCaseStops:
    """`_decision_stops` against the scan's own stop orders of the seven
    cases, each stop at its decided time."""

    def test_each_case_lays_out_the_scan_stop_order(self, line6):
        def laid_out(stops):
            return [(op, c, line6.node_ids[j]) for op, c, j, _ in stops]

        r, k = rider(2, "B", "E"), rider(1, "C", "F")
        o, dest = ends(line6, k)
        ride = CustomerOutcome(1, True, False, 0, 0, 0, 0, 0, 0, 0, request=k, origin_idx=o,
                               dest_idx=dest)
        times = {(PU, 2): 10, (DO, 2): 20, (PU, 1): 30, (DO, 1): 40}
        d = DecisionRow(0, 2, "PCP", "solitary", quote=0, pickup=10, dropoff=20)
        stops = _decision_stops(d, *ends(line6, r), None)
        assert laid_out(stops) == [(PU, 2, "B"), (DO, 2, "E")]
        assert [t for *_, t in stops] == [10, 20]
        cases = []
        for onboard in (True, False):
            for case, order in _pooled_stop_orders(r, k, onboard):
                d = replace(d, case=case, partner=1, partner_pickup=30, partner_dropoff=40)
                stops = _decision_stops(d, *ends(line6, r), ride)
                assert laid_out(stops) == list(plan_key(order))
                assert [t for *_, t in stops] == [times[op, c] for op, c, *_ in stops]
                cases.append(case)
        assert cases == [1, 2, 3, 4, 5, 6]


class TestOneRecordPerRider:
    """The commit builds its rider's `CustomerOutcome`, keeps it on the
    vehicle and moves that same record at a pooling beside her."""

    def test_a_ccp_pooling_moves_the_partners_record(self, line6):
        tariff = ScenarioGrid().tariff(change_fee=mils_from_usd(1.9))
        v = VehicleState(0, "A", line6)
        k, r = rider(1, "B", "E"), rider(2, "C", "A")
        d = assign_ccp(Fleet([v]), k, 0, line6, tariff)
        assert (d.decision, d.case) == ("solitary", None)
        mine = apply_assignment(v, k, d, 0)
        assert mine is v.active[k.id]
        assert repr(mine) == (
            "CustomerOutcome(customer=1, poolable=True, pooled=False, vehicle=0, fare=4000, "
            "pickup_time=24000000, dropoff_time=96000000, total_cost=0, "
            "baseline_solitary_cost=4400, solitary_quote=4000)"
        )
        assert (mine.request, mine.origin_idx, mine.dest_idx) == (k, *ends(line6, k))

        fleet = Fleet([v])  # derived from the vehicle's rides alone
        fleet.advance(0)
        d = assign_ccp(fleet, r, 0, line6, tariff)
        assert (d.decision, d.case, d.partner) == ("pooled", 6, k.id)
        # the pooling moves both of k's times and her fare
        assert (d.partner_pickup, d.partner_dropoff) != (mine.pickup_time, mine.dropoff_time)
        assert d.partner_fare_change != 0
        fare = mine.fare
        theirs = apply_assignment(v, r, d, 0)
        assert theirs is v.active[r.id] and v.active[k.id] is mine
        assert (mine.pooled, mine.pickup_time, mine.dropoff_time) == (
            True, d.partner_pickup, d.partner_dropoff)
        assert mine.fare - fare == d.partner_fare_change
        assert (theirs.pooled, theirs.fare, theirs.pickup_time, theirs.dropoff_time) == (
            True, d.fare, d.pickup, d.dropoff)


class TestExtractRuns:
    """The reference partition of a schedule into runs (`_scan_oracle.extract_runs`)."""

    def _runs(self, entries, line):
        v = VehicleState(9, "A", line)
        v.schedule = entries
        return [(tuple(run_customers(run)), run[0].time, run[-1].time) for run in extract_runs(v)]

    def test_two_solo_runs(self, line6):
        runs = self._runs(
            [
                ScheduleEntry("A", 0, REC, 1),
                ScheduleEntry("B", sec(24), PU, 1),
                ScheduleEntry("C", sec(48), DO, 1),
                ScheduleEntry("C", sec(60), REC, 2),
                ScheduleEntry("D", sec(84), PU, 2),
                ScheduleEntry("E", sec(108), DO, 2),
            ],
            line6,
        )
        assert runs == [((1,), sec(24), sec(48)), ((2,), sec(84), sec(108))]

    def test_pooled_pair_is_one_run(self, line6):
        runs = self._runs(
            [
                ScheduleEntry("B", 0, PU, 1),
                ScheduleEntry("C", sec(24), PU, 2),
                ScheduleEntry("D", sec(48), DO, 1),
                ScheduleEntry("E", sec(72), DO, 2),
            ],
            line6,
        )
        assert runs == [((1, 2), 0, sec(72))]

    def test_chained_pooling_single_run(self, line6):
        runs = self._runs(
            [
                ScheduleEntry("A", 0, PU, 1),
                ScheduleEntry("B", sec(24), PU, 2),
                ScheduleEntry("C", sec(48), DO, 1),
                ScheduleEntry("D", sec(72), PU, 3),
                ScheduleEntry("E", sec(96), DO, 2),
                ScheduleEntry("F", sec(120), DO, 3),
            ],
            line6,
        )
        assert runs == [((1, 2, 3), 0, sec(120))]

    def test_runs_partition_all_events(self, line6):
        entries = [
            ScheduleEntry("A", 0, PU, 1),
            ScheduleEntry("B", sec(24), DO, 1),
            ScheduleEntry("C", sec(48), PU, 2),
            ScheduleEntry("D", sec(72), PU, 3),
            ScheduleEntry("E", sec(96), DO, 3),
            ScheduleEntry("F", sec(120), DO, 2),
        ]
        runs = self._runs(entries, line6)
        covered = [c for customers, _, _ in runs for c in customers]
        assert sorted(covered) == [1, 2, 3]
        assert len(covered) == len(set(covered))


class TestInvariantsUnderRandomAssignments:
    def test_replay_invariants(self):
        net = line_network(8)
        rng = np.random.default_rng(42)
        v = VehicleState(0, "A", net)
        names = list(net.node_ids)
        now = 0
        cid = 0
        for _ in range(40):
            now += int(rng.integers(1, 60)) * 1_000_000
            v.prune(now)
            actives = list(v.active)
            cid += 1
            if not actives:
                o, d = rng.choice(len(names), size=2, replace=False)
                commit_case(v, rider(cid, names[o], names[d]), None, now)
            elif len(actives) == 1:
                o, d = rng.choice(len(names), size=2, replace=False)
                # the new rider is dropped off first, before or after the other's pickup
                case = 2 if v.active[actives[0]].pickup_time <= now else 4
                commit_case(v, rider(cid, names[o], names[d]), case, now)
            else:
                continue

        times = [e.time for e in v.schedule]
        assert times == sorted(times)
        per_cust = {}
        for e in v.schedule:
            per_cust.setdefault(e.customer, []).append(e.op)
        for ops in per_cust.values():
            # each customer: REC first, PU before DO, nothing else interleaved
            assert [o for o in ops if o == REC] == [REC]
            assert ops.index(REC) < ops.index(PU) < ops.index(DO)
        onboard = 0
        for e in v.schedule:
            if e.op == PU:
                onboard += 1
                assert onboard <= 2
            elif e.op == DO:
                onboard -= 1
        # the route is a connected walk with consistent mileage
        nodes, _, cum = expand_route(v)
        assert cum[0] == 0 and cum[-1] == v.way_cum[-1]
        for k, (a, b) in enumerate(zip(nodes, nodes[1:])):
            assert cum[k + 1] - cum[k] == net.arc_attrs(a, b)[0]


class TestScheduleCommit:
    @pytest.mark.parametrize("mech", list(Mechanism))
    def test_every_commit_keeps_the_past_and_appends_the_plan(self, mech, grid10, monkeypatch):
        # `Fleet.commit` looks `apply_assignment` up on the domain module
        commit = domain.apply_assignment
        commits = []
        trips = synthetic_trips(grid10, 120, 1800, seed=3)
        fields = attrgetter("vehicle", "partner", "added_distance", "pickup", "dropoff",
                            "partner_pickup", "partner_dropoff")

        def checked_commit(v, r, d, now):
            # the rule decided what the oracle plans for the scan's own stop
            # order of the case's riders, and the commit lays that plan out
            before = list(v.schedule)
            assert fields(d) == fields(commit_decision(v, r, d.case, now))
            stops = commit_stops(v, r, d.case, now)
            times, anchor, _, _ = plan_stop_times(v, stops, now)
            out = commit(v, r, d, now)
            new = [ScheduleEntry(grid10.node_ids[anchor], now, REC, r.id)] + [
                ScheduleEntry(s.location, t, s.op, s.customer) for s, t in zip(stops, times)
            ]
            assert v.schedule == [e for e in before if e.time <= now] + new
            assert [e.time for e in v.schedule] == sorted(e.time for e in v.schedule)
            commits.append(len(before) - sum(e.time <= now for e in before))
            return out

        monkeypatch.setattr(domain, "apply_assignment", checked_commit)
        cfg = simengine.SimConfig(
            mechanism=mech, tariff=ScenarioGrid().tariff(), fleet_size=8, mar=Fraction(3, 4),
            rng_seed=3, network=grid10, horizon=sec(1800),
        )
        res = simengine.run_sim(cfg, trips)
        assert len(commits) == res.served > 0
        # some commits dropped planned entries, not only past ones
        assert any(dropped > 0 for dropped in commits) == (mech != Mechanism.SRO)


class TestRequestValidation:
    def test_rejects_zero_length_trip(self):
        with pytest.raises(ValueError):
            Request(1, "A", "A", 0, None, sec(300), None)

    def test_rejects_negative_value_of_time(self):
        with pytest.raises(ValueError):
            Request(1, "A", "B", 0, -100, sec(300), None)

    def test_resolution_fills_only_missing(self):
        r = Request(1, "A", "B", 0, None, sec(300), None)
        full = r.resolved(value_of_time=225, poolable=True)
        assert full.value_of_time == 225 and full.poolable is True
        fixed = Request(2, "A", "B", 0, 225, sec(300), False)
        assert fixed.resolved(value_of_time=999, poolable=True) == fixed


def ring_world(randint):
    """A strongly connected network (a one-way ring of 3-9 nodes plus random
    one-way arcs of 20-60 s and 0.1-0.5 mi, so equal times are common), 1-30
    trips at whole seconds with repeated request times, and a simulation
    config for one of the three mechanisms."""
    n = randint(3, 9)
    names = [f"v{i}" for i in range(n)]
    pairs = {(i, (i + 1) % n) for i in range(n)}
    for _ in range(randint(0, 2 * n)):
        a, b = randint(0, n - 1), randint(0, n - 1)
        if a != b:
            pairs.add((a, b))
    arcs = [(names[a], names[b], Fraction(randint(100, 500), 1000), randint(20, 60))
            for a, b in sorted(pairs)]
    net = RoadNetwork(names, arcs)
    trips, t = [], 0
    for i in range(randint(1, 30)):
        t += randint(0, 40) * randint(0, 1)  # every other trip shares its request time
        o = randint(0, n - 1)
        d = (o + randint(1, n - 1)) % n
        trips.append(Request(i, names[o], names[d], sec(t), None, sec(randint(60, 400)), None))
    cfg = simengine.SimConfig(
        mechanism=list(Mechanism)[randint(0, 2)], tariff=ScenarioGrid().tariff(),
        fleet_size=randint(1, 4), mar=Fraction(randint(1, 2), 2), rng_seed=randint(0, 99),
        network=net, horizon=sec(3600),
    )
    return cfg, trips


def replay_against_hops(cfg, trips):
    """Run one simulation with a per-hop route beside each vehicle.  At every
    commit, check the anchor of every vehicle against it, then commit on
    both and check the committed vehicle's expanded route.  Return counts of
    the commits, of anchors strictly inside a leg, and of anchors on a leg
    that departs at `now` after a wait."""
    net = cfg.network
    dur = net.tables()[0]
    commit = domain.Fleet.commit
    hops: dict[int, HopRoute] = {}
    counts = Counter()

    def checked_commit(fleet, r, d, now):
        v = fleet.by_id[d.vehicle]
        for w in fleet.vehicles:
            ref = hops.setdefault(w.id, HopRoute(w.way_nodes[0]))
            idle = w.is_idle(now)
            _, node, t, cum = ref.anchor(now, idle)
            assert anchor_at(w, now) == (node, t, cum)
            if not idle:
                counts["inside"] += t not in w.way_times
                j = bisect_right(w.way_times, now) - 1
                depart = w.way_times[j + 1] - dur.item(w.way_nodes[j], w.way_nodes[j + 1])
                counts["departs_now"] += depart == now > w.way_times[j]
        stops = commit_stops(v, r, d.case, now)
        hops[v.id].commit(net, [net.index(s.location) for s in stops], now, v.is_idle(now))
        out = commit(fleet, r, d, now)
        ref = hops[v.id]
        assert expand_route(v) == (ref.nodes, ref.times, ref.cum)
        counts["commits"] += 1
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domain.Fleet, "commit", checked_commit)
        res = simengine.run_sim(cfg, trips)
    assert counts["commits"] == res.served
    return counts


class TestRouteAgainstHops:
    """The stop-level route against the per-hop route it replaced."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_anchors_and_routes_match_the_per_hop_route(self, data):
        replay_against_hops(*ring_world(lambda lo, hi: data.draw(st.integers(lo, hi))))

    def test_replays_reach_every_kind_of_anchor(self):
        counts = Counter()
        mechanisms = set()
        for seed in range(200):
            cfg, trips = ring_world(random.Random(seed).randint)
            counts += replay_against_hops(cfg, trips)
            mechanisms.add(cfg.mechanism)
        assert mechanisms == set(Mechanism)
        assert counts["commits"] > 800
        assert counts["inside"] > 400 and counts["departs_now"] > 100


def carried_legs(cfg, trips):
    """Run one simulation with the leg each vehicle carries checked across
    commits: after a commit, the carried leg cut at the waypoint after the
    one it leaves is the canonical path there (`net.leg`), departing when it
    did, so the commit need not drop it; and every `busy_anchor` answer is
    the same with the carried leg and anchor memo and with neither.  After
    each commit that leaves the vehicle inside its carried leg, also ask for
    its anchor there, at the commit's time and just before the leg's end.
    Return counts of the commits that cut a carried leg short, of those
    answers and of the answers the memo gave."""
    net = cfg.network
    busy_anchor, commit = VehicleState.busy_anchor, domain.Fleet.commit
    counts = Counter()

    def checked_anchor(v, now):
        lo, hi, _ = v.anchor_memo
        counts["memo"] += lo < now <= hi
        got = busy_anchor(v, now)
        kept = (v.leg_from, v.leg, v.leg_start, v.anchor_memo)
        v.leg_from, v.anchor_memo = -1, domain.NO_ANCHOR
        assert busy_anchor(v, now) == got
        v.leg_from, v.leg, v.leg_start, v.anchor_memo = kept
        return got

    def checked_commit(fleet, r, d, now):
        out = commit(fleet, r, d, now)
        v = fleet.by_id[d.vehicle]
        j, leg = v.leg_from, v.leg
        if j >= 0:
            cut = net.leg(v.way_nodes[j], v.way_nodes[j + 1])
            n = len(cut[0])
            assert cut == tuple(x[:n] for x in leg)
            assert v.way_times[j + 1] - cut[1][-1] == v.leg_start
            counts["cut"] += n < len(leg[0])
            for t in (now, v.way_times[j + 1] - 1):
                if v.way_times[j] < t < v.way_times[j + 1]:
                    checked_anchor(v, t)
                    assert v.leg_from == j  # answered from the carried leg
                    counts["asked"] += 1
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domain.Fleet, "commit", checked_commit)
        mp.setattr(VehicleState, "busy_anchor", checked_anchor)
        simengine.run_sim(cfg, trips)
    return counts


class TestCarriedLegAcrossCommits:
    """A commit keeps the leg a vehicle carries: its prefix to the anchor the
    commit turns at is the canonical path there."""

    def test_a_cut_carried_leg_is_the_canonical_path_to_the_anchor(self, grid10):
        counts = Counter()
        for seed in range(200):
            counts += carried_legs(*ring_world(random.Random(seed).randint))
        trips = synthetic_trips(grid10, 150, 1800, seed=5)
        for mech in (Mechanism.PCP, Mechanism.CCP):
            cfg = simengine.SimConfig(
                mechanism=mech, tariff=ScenarioGrid().tariff(), fleet_size=8,
                mar=Fraction(3, 4), rng_seed=5, network=grid10, horizon=sec(1800),
            )
            counts += carried_legs(cfg, trips)
        assert counts["cut"] > 150 and counts["asked"] > 500 and counts["memo"] > 500, counts


class TestAnchorMemo:
    """`busy_anchor`'s memo answers exactly the times its hop holds for."""

    def test_memo_answers_as_a_fresh_vehicle_around_every_hop(self, line6):
        v = VehicleState(0, "A", line6)
        # idle at A until 30 s, then A -> B (one hop) and B -> F (four hops)
        commit_case(v, rider(1, "B", "F"), None, sec(30))
        assert len(v.net.leg(v.way_nodes[1], v.way_nodes[2])[0]) == 5
        _, times, _ = expand_route(v)
        first, last = v.way_times[0], v.way_times[-1]
        asks = sorted({t + dt for t in times + [sec(30)] for dt in (-1, 0, 1)
                       if first <= t + dt <= last})
        hits = 0

        def check(now):
            nonlocal hits
            lo, hi, _ = v.anchor_memo
            hits += lo < now <= hi
            fresh = VehicleState(1, "A", line6)
            fresh.way_nodes, fresh.way_times, fresh.way_cum = v.way_nodes, v.way_times, v.way_cum
            assert v.busy_anchor(now) == fresh.busy_anchor(now), now

        for now in asks:
            check(now)
        for seed in range(20):
            random.Random(seed).shuffle(asks)
            for now in asks:
                check(now)
        assert hits > len(asks)
