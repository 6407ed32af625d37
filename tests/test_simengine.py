import gc
import re
import weakref
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ridepool.costshare import shapley_split
from ridepool.domain import Request
from ridepool import harness
from ridepool.harness import ScenarioGrid, run_grid, synthetic_trips
from ridepool.mechanisms import POOLED, DecisionRow, Mechanism
from ridepool import mechanisms, simengine
from ridepool.netgraph import INF, RoadNetwork, make_grid
from ridepool.pricing import pcp_fare, solitary_fare
from ridepool.simengine import (
    SPLIT_SCHEMES,
    ConfigError,
    SimConfig,
    reprice,
    resolve_requests,
    run_sim,
)
from ridepool.units import UMILE, USEC, money_sum, time_cost_mils
from ridepool.verify import check_detour_bounds, check_individual_rationality, check_replay
from tests import _scan_oracle
from tests.conftest import assert_same_run, counterfactual_sro, ends, sec, unserved_ids

TARIFF = ScenarioGrid().tariff()


def grid_requests(net, seed, n, horizon_s=1800, wait_s=360):
    rng = np.random.default_rng(seed)
    rows = sorted(
        (int(rng.integers(0, horizon_s + 1)), int(o), int(d))
        for o, d in (rng.choice(net.n_nodes, 2, replace=False) for _ in range(n))
    )
    return [
        Request(i, net.node_ids[o], net.node_ids[d], sec(t), None, sec(wait_s), None)
        for i, (t, o, d) in enumerate(rows)
    ]


def config(net, mech, seed=0, fleet=12, mar=Fraction(1, 2), **kw):
    return SimConfig(
        mechanism=mech, tariff=TARIFF, fleet_size=fleet, mar=mar,
        rng_seed=seed, network=net, horizon=1800 * USEC, **kw,
    )


class TestBasics:
    def test_zero_requests(self, grid10):
        res = run_sim(config(grid10, Mechanism.SRO), [])
        assert res.served == 0 and res.unserved == 0
        assert res.fleet_distance == 0 and res.fares_total == 0 and res.profit == 0

    def test_single_request_hand_trace(self, grid10):
        # one vehicle one edge away: distance = access + trip, profit exact
        r = Request(0, "n000x001", "n000x003", sec(10), None, sec(360), None)
        cfg = config(grid10, Mechanism.SRO, fleet=1,
                     initial_vehicle_nodes=("n000x000",))
        res = run_sim(cfg, [r])
        assert res.served == 1
        assert res.fleet_distance == 3 * 200_000  # 0.6 mi
        quote = solitary_fare(TARIFF, grid10, *ends(grid10, r))
        assert quote == 2500 + 1000
        assert res.fares_total == quote
        # provider cost 2.945/mi over 0.6 mi = 1767 mils
        assert res.profit == quote - 1767
        o = res.per_customer[0]
        assert o.pickup_time == 10 * USEC + 24 * USEC
        assert o.dropoff_time == o.pickup_time + 48 * USEC

    def test_served_plus_unserved_and_pooled_bounds(self, grid10):
        res = run_sim(config(grid10, Mechanism.CCP, seed=3), grid_requests(grid10, 3, 150))
        assert res.served + res.unserved == 150
        assert res.pooled_customers <= res.poolable_customers

    def test_requests_after_horizon_ignored(self, grid10):
        reqs = grid_requests(grid10, 1, 20, horizon_s=1800)
        late = Request(99, "n000x000", "n005x005", sec(4000), None, sec(360), None)
        res = run_sim(config(grid10, Mechanism.SRO), reqs + [late])
        assert res.n_requests == 20


class TestRelease:
    @pytest.mark.parametrize("mech", list(Mechanism))
    def test_result_freed_without_the_cyclic_collector(self, mech, grid10):
        # a vehicle must not point back at the fleet that points at it, or
        # each finished result waits for the cyclic collector
        reqs = grid_requests(grid10, 2, 80)
        gc.collect()
        gc.disable()
        try:
            res = run_sim(config(grid10, mech, seed=2, fleet=6), reqs)
            assert res.served > 0
            vehicle, result = weakref.ref(res.vehicles[0]), weakref.ref(res)
            del res
            assert result() is None
            assert vehicle() is None
        finally:
            gc.enable()


class TestValidation:
    @pytest.mark.parametrize("changes,message", [
        (dict(mar=Fraction(3, 2)), "mar must lie in [0, 1]"),
        (dict(split_scheme="nash"), "unknown split scheme 'nash'"),
    ], ids=["mar-above-one", "unknown-split-scheme"])
    def test_config_field_out_of_range_is_named(self, grid10, changes, message):
        with pytest.raises(ConfigError) as err:
            config(grid10, Mechanism.CCP, **changes)
        assert str(err.value) == message

    def test_vehicle_nodes_must_match_the_fleet(self, grid10):
        cfg = config(grid10, Mechanism.SRO, fleet=3, initial_vehicle_nodes=("n000x000",) * 2)
        with pytest.raises(ConfigError) as err:
            run_sim(cfg, grid_requests(grid10, 1, 5))
        assert str(err.value) == "initial_vehicle_nodes must match fleet_size"

    @pytest.mark.parametrize("thresholds", [
        (Fraction(1, 10), Fraction(5, 100)),
        (Fraction(0), Fraction(1, 10)),
        (Fraction(1, 10), Fraction(1)),
        (),
        (0.05, 0.1),
    ], ids=["unordered", "out-of-range", "one", "empty", "float"])
    def test_split_thresholds_rejected(self, grid10, thresholds):
        # checked once here; goalprog_split takes them as given
        with pytest.raises(ConfigError, match="^split_thresholds must be exact fractions in"):
            config(grid10, Mechanism.CCP, split_scheme="goalprog", split_thresholds=thresholds)

    @pytest.mark.parametrize("axes,message", [
        (dict(discount_factors=(0.8,)),
         "tariff discount_factor must be an int or a Fraction, got 0.8"),
        (dict(detour_factors=(0.3,)), "tariff detour_factor must be an int or a Fraction, got 0.3"),
        (dict(base_fare=2.5), "tariff base_fare must be an int of mils, got 2.5"),
        (dict(mars=(0.5,)), "mar must be an int or a Fraction, got 0.5"),
        (dict(vot_values=()),
         "vot_values must be non-negative ints of mils per minute, at least one: ()"),
        (dict(change_fees=(True,)), "tariff change_fee must be an int of mils, got True"),
        (dict(discount_factors=(True,)),
         "tariff discount_factor must be an int or a Fraction, got True"),
        (dict(mars=(True,)), "mar must be an int or a Fraction, got True"),
        (dict(vot_values=(200, True)),
         "vot_values must be non-negative ints of mils per minute, at least one: (200, True)"),
        (dict(max_waits=(1.5,)), "max_wait_override must be None or a positive int, got 1.5"),
        (dict(max_waits=(0,)), "max_wait_override must be None or a positive int, got 0"),
        (dict(max_waits=(True,)), "max_wait_override must be None or a positive int, got True"),
        (dict(fleet_sizes=(2.5,)), "fleet_size must be an int of at least 1, got 2.5"),
        (dict(fleet_sizes=(0,)), "fleet_size must be an int of at least 1, got 0"),
        (dict(fleet_sizes=(True,)), "fleet_size must be an int of at least 1, got True"),
        (dict(seeds=(-1,)), "rng_seed must be an int of at least 0, got -1"),
        (dict(seeds=(1.0,)), "rng_seed must be an int of at least 0, got 1.0"),
        (dict(horizon=-5), "horizon must be an int of at least 0, got -5"),
        (dict(horizon=300.0 * USEC), "horizon must be an int of at least 0, got 300000000.0"),
    ], ids=["discount-float", "detour-float", "base-fare-float", "mar-float", "vot-empty",
            "fee-bool", "discount-bool", "mar-bool", "vot-bool", "wait-float", "wait-zero",
            "wait-bool", "fleet-float", "fleet-zero", "fleet-bool", "seed-negative",
            "seed-float", "horizon-negative", "horizon-float"])
    def test_inexact_grid_input_fails_before_its_cell_runs(self, monkeypatch, axes, message):
        # unchecked, a float would simulate and fail late (float fares in
        # summary.csv, a float detour factor in `assign_pcp`, a float MAR in
        # `units.fmt4`, float times under a float wait), no value of time
        # would fail in the draw, a zero wait would be blamed on a request and
        # a negative horizon would run no request at all
        net = make_grid(4, 4, 0.1, 30)
        calls, real = [], harness.run_sim
        monkeypatch.setattr(harness, "run_sim",
                            lambda cfg, trips: calls.append(cfg) or real(cfg, trips))
        grid = ScenarioGrid(**{"mechanisms": (Mechanism.PCP, Mechanism.CCP),
                               "fleet_sizes": (3,), "horizon": 300 * USEC, **axes})
        with pytest.raises((ValueError, ConfigError), match=f"^{re.escape(message)}$"):
            run_grid(grid, synthetic_trips(net, 20, 300, seed=1), net)
        # at most the SRO baseline ran, whose configuration is exact
        assert all(cfg.mechanism == Mechanism.SRO for cfg in calls)

    def test_unsorted_rejected(self, grid10):
        reqs = grid_requests(grid10, 2, 10)
        with pytest.raises(ConfigError):
            run_sim(config(grid10, Mechanism.SRO), list(reversed(reqs)))

    def test_duplicate_ids_rejected(self, grid10):
        r = Request(7, "n000x000", "n001x001", 0, None, sec(300), None)
        with pytest.raises(ConfigError):
            run_sim(config(grid10, Mechanism.SRO), [r, r])

    def test_negative_request_time_rejected(self, grid10):
        reqs = [Request(0, "n000x000", "n001x001", sec(-1), None, sec(300), None),
                Request(1, "n000x000", "n001x001", 0, None, sec(300), None)]
        with pytest.raises(ConfigError, match=r"request 0: request time -1.0000 s is negative"):
            run_sim(config(grid10, Mechanism.SRO), reqs)

    def test_off_network_rejected(self, grid10):
        r = Request(0, "n000x000", "n001x001", 0, None, sec(300), None)
        bad = replace(r, destination="nowhere")
        with pytest.raises(ConfigError, match="^request 0: node 'nowhere' is not on the network$"):
            run_sim(config(grid10, Mechanism.SRO), [bad])

    def test_off_network_origin_is_named(self, grid10):
        # the message used to name neither the node nor which end it was
        reqs = [Request(0, "n000x000", "n001x001", 0, None, sec(300), None),
                Request(1, "zzz", "n001x001", sec(5), None, sec(300), None)]
        with pytest.raises(ConfigError, match="^request 1: node 'zzz' is not on the network$"):
            run_sim(config(grid10, Mechanism.CCP), reqs)

    def test_endpoints_in_different_components_rejected(self):
        # two islands: a <-> b and c <-> d
        net = RoadNetwork(
            ["a", "b", "c", "d"],
            [("a", "b", 0.1, 10), ("b", "a", 0.1, 10), ("c", "d", 0.1, 10), ("d", "c", 0.1, 10)],
        )
        r = Request(0, "b", "c", 0, None, sec(300), None)
        cfg = SimConfig(
            mechanism=Mechanism.SRO, tariff=TARIFF, fleet_size=1, mar=Fraction(0),
            rng_seed=0, network=net, horizon=1800 * USEC, initial_vehicle_nodes=("b",),
        )
        # used nodes sorted: b, c; the first unreachable pair in row-major order is (b, c)
        with pytest.raises(ConfigError, match="nodes 'b' and 'c' are not mutually reachable"):
            run_sim(cfg, [r])

    def test_one_way_reachability_rejected(self):
        # every node reaches b and c, but nothing reaches a
        net = RoadNetwork(["a", "b", "c"], [("a", "b", 0.1, 10), ("b", "c", 0.1, 10),
                                            ("c", "b", 0.1, 10)])
        cfg = SimConfig(
            mechanism=Mechanism.SRO, tariff=TARIFF, fleet_size=1, mar=Fraction(0),
            rng_seed=0, network=net, horizon=1800 * USEC, initial_vehicle_nodes=("a",),
        )
        with pytest.raises(ConfigError, match="nodes 'b' and 'a' are not mutually reachable"):
            run_sim(cfg, [Request(0, "b", "c", 0, None, sec(300), None)])
        cfg = replace(cfg, initial_vehicle_nodes=("b",))
        assert run_sim(cfg, [Request(0, "b", "c", 0, None, sec(300), None)]).served == 1


def grid_with_sink(n=4):
    """An n x n two-way grid of 0.1 mi, 12 s arcs plus a node `sink` that
    one one-way arc enters and none leaves: every grid node reaches it, and
    it reaches nothing, so its row of the tables is all INF."""
    ids = [[f"n{r}{c}" for c in range(n)] for r in range(n)]
    arcs = [("n00", "sink", 0.1, 12)]
    for r in range(n):
        for c in range(n):
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr < n and cc < n:
                    arcs += [(ids[r][c], ids[rr][cc], 0.1, 12), (ids[rr][cc], ids[r][c], 0.1, 12)]
    return RoadNetwork([i for row in ids for i in row] + ["sink"], arcs)


class _FiniteRows:
    """A table's row views that fail the test at any read of an INF cell."""

    def __init__(self, rows, i=None):
        self.rows, self.i = rows, i

    def __getitem__(self, j):
        if self.i is None:
            return _FiniteRows(self.rows[j], j)
        x = self.rows[j]
        assert x < INF, f"read of unreachable pair ({self.i}, {j})"
        return x


class TestReachabilityCheckedOnce:
    """`run_sim` checks reachability at entry, so no table read in its
    request loop is of an unreachable pair, even where the network has
    some: the sink, used by no vehicle and no request."""

    @pytest.fixture
    def finite_reads(self, monkeypatch):
        rows = RoadNetwork.rows
        monkeypatch.setattr(RoadNetwork, "rows",
                            lambda net: tuple(_FiniteRows(t) for t in rows(net)))

    @pytest.mark.parametrize("mech", list(Mechanism))
    def test_no_read_is_inf(self, finite_reads, mech):
        net = grid_with_sink()
        cfg = SimConfig(mechanism=mech, tariff=TARIFF, fleet_size=4, mar=Fraction(1),
                        rng_seed=3, network=net, horizon=1800 * USEC,
                        initial_vehicle_nodes=("n00", "n03", "n30", "n33"))
        grid = [i for i in net.node_ids if i != "sink"]
        rng = np.random.default_rng(3)
        reqs = [Request(i, *(grid[int(x)] for x in rng.choice(len(grid), 2, replace=False)),
                        sec(10 * i), None, sec(300), None) for i in range(60)]
        res = run_sim(cfg, reqs)
        assert res.served > 0
        assert (res.pooled_customers > 0) == (mech != Mechanism.SRO)

    @pytest.mark.parametrize("mech", list(Mechanism))
    def test_request_to_the_sink_rejected_at_entry(self, finite_reads, mech):
        net = grid_with_sink()
        cfg = SimConfig(mechanism=mech, tariff=TARIFF, fleet_size=2, mar=Fraction(1),
                        rng_seed=3, network=net, horizon=1800 * USEC,
                        initial_vehicle_nodes=("n00", "n33"))
        reqs = [Request(i, o, d, sec(t), None, sec(300), None) for i, (o, d, t) in enumerate(
            [("n01", "sink", 0), ("n10", "n33", 5), ("n32", "n11", 60), ("n02", "n20", 90)])]
        with pytest.raises(ConfigError, match="'sink' .* are not mutually reachable"):
            run_sim(cfg, reqs)


class TestDeterminismAndPairing:
    def test_identical_runs_identical_logs(self, grid10):
        reqs = grid_requests(grid10, 5, 120)
        cfg = config(grid10, Mechanism.CCP, seed=5)
        a, b = run_sim(cfg, reqs), run_sim(cfg, reqs)
        assert a.decision_log == b.decision_log
        assert a.fares_total == b.fares_total and a.fleet_distance == b.fleet_distance

    @pytest.mark.parametrize("mech", [Mechanism.PCP, Mechanism.CCP])
    def test_mar_zero_equals_sro_field_by_field(self, grid10, mech):
        reqs = grid_requests(grid10, 7, 120)
        cfg = config(grid10, mech, seed=7, mar=Fraction(0))
        a = run_sim(cfg, reqs)
        b = counterfactual_sro(cfg, reqs)
        assert a.pooled_customers == 0
        assert a.served == b.served and unserved_ids(a) == unserved_ids(b)
        assert a.fleet_distance == b.fleet_distance
        assert a.fares_total == b.fares_total and a.profit == b.profit
        for cid, o in a.per_customer.items():
            p = b.per_customer[cid]
            assert (o.fare, o.pickup_time, o.dropoff_time) == (p.fare, p.pickup_time, p.dropoff_time)

    def test_mar_nesting_of_poolable_draws(self, grid10):
        reqs = grid_requests(grid10, 11, 200)
        sets = {}
        for mar in (Fraction(4, 10), Fraction(5, 10), Fraction(9, 10)):
            resolved = resolve_requests(config(grid10, Mechanism.CCP, seed=11, mar=mar), reqs)
            sets[mar] = {r.id for r in resolved if r.poolable}
        assert sets[Fraction(4, 10)] <= sets[Fraction(5, 10)] <= sets[Fraction(9, 10)]

    def test_value_of_time_draws_independent_of_mar(self, grid10):
        reqs = grid_requests(grid10, 11, 50)
        a = resolve_requests(config(grid10, Mechanism.CCP, seed=11, mar=Fraction(1, 10)), reqs)
        b = resolve_requests(config(grid10, Mechanism.CCP, seed=11, mar=Fraction(9, 10)), reqs)
        assert [r.value_of_time for r in a] == [r.value_of_time for r in b]

    def test_max_wait_override(self, grid10):
        reqs = grid_requests(grid10, 1, 10, wait_s=600)
        cfg = config(grid10, Mechanism.SRO, max_wait_override=120 * USEC)
        resolved = resolve_requests(cfg, reqs)
        assert all(r.max_wait == 120 * USEC for r in resolved)

    @pytest.mark.parametrize("override", [None, 120 * USEC])
    def test_resolution_makes_one_copy_equal_to_two_steps(self, grid10, monkeypatch, override):
        reqs = grid_requests(grid10, 3, 40)
        # every other request carries its own value of time and poolable flag
        reqs = [r if r.id % 2 else replace(r, value_of_time=100 + r.id, poolable=r.id % 4 == 0)
                for r in reqs]
        cfg = config(grid10, Mechanism.CCP, seed=3, mar=Fraction(1, 2), max_wait_override=override)
        u = simengine._stream(3, simengine._STREAM_POOLABLE).random(len(reqs))
        vot_idx = simengine._stream(3, simengine._STREAM_VOT).integers(0, len(cfg.vot_values),
                                                                      len(reqs))
        expected = []
        for i, r in enumerate(reqs):
            r = r.resolved(value_of_time=int(cfg.vot_values[int(vot_idx[i])]),
                           poolable=bool(u[i] < 0.5))
            if override is not None:
                r = replace(r, max_wait=override)
            expected.append(r)

        copies = []
        post_init = Request.__post_init__

        def counted(obj):
            copies.append(obj.id)
            post_init(obj)

        monkeypatch.setattr(Request, "__post_init__", counted)
        got = resolve_requests(cfg, reqs)
        assert got == expected
        assert {(type(r.value_of_time), type(r.poolable)) for r in got} == {(int, bool)}
        changed = [r.id for r in reqs if override is not None or r.value_of_time is None]
        assert copies == changed
        assert all(g is r for g, r in zip(got, reqs) if r.id not in changed)


class TestAudits:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ccp_individual_rationality_and_replay(self, grid10, seed):
        res = run_sim(config(grid10, Mechanism.CCP, seed=seed, mar=Fraction(8, 10)),
                      grid_requests(grid10, seed, 200))
        assert check_individual_rationality(res).passed
        assert check_replay(res).passed

    def test_replay_fails_on_a_missing_dropoff(self, grid10):
        res = run_sim(config(grid10, Mechanism.CCP, seed=0, mar=Fraction(8, 10)),
                      grid_requests(grid10, 0, 40))
        # a vehicle's last entry is a dropoff: removing it breaks no capacity count
        v = next(v for v in res.vehicles if v.schedule)
        drop = v.schedule.pop()
        assert drop.op == "DO"
        verdict = check_replay(res)
        assert not verdict.passed
        assert (verdict.check, verdict.detail) == ("dropoffs-match",
                                                   f"customer {drop.customer}: no dropoff")

    def test_replay_fails_on_a_wrong_pickup_time(self, grid10):
        res = run_sim(config(grid10, Mechanism.CCP, seed=0, mar=Fraction(8, 10)),
                      grid_requests(grid10, 0, 40))
        assert check_replay(res).passed
        rider = next(o for o in res.per_customer.values() if o.pooled)
        rider.pickup_time += 1
        verdict = check_replay(res)
        assert not verdict.passed
        assert (verdict.check, verdict.detail) == ("pickups-match", f"customer {rider.customer}")

    def test_replay_accepts_waits_only_while_idle_until_a_request(self, line6):
        rides = [Request(0, "A", "C", sec(100), 250, sec(300), False),
                 Request(1, "E", "F", sec(300), 250, sec(300), False)]
        cfg = config(line6, Mechanism.SRO, fleet=1, initial_vehicle_nodes=("A",))
        res = run_sim(cfg, rides)
        assert res.served == 2 and check_replay(res).passed
        (v,) = res.vehicles
        # it waits at A from 0 to 100 s and at C from 148 to 300 s, each time
        # until the request it then serves
        assert (v.way_nodes, v.way_times) == ([0, 2, 4, 5], [0, sec(148), sec(348), sec(372)])
        v.way_times[2:] = [sec(349), sec(373)]  # it now leaves C 1 s after the request
        verdict = check_replay(res)
        assert (verdict.passed, verdict.check, verdict.detail) == (
            False, "leg-times", f"vehicle {v.id} at waypoint 2")

    def test_replay_fails_on_shifted_pooled_stop_times(self, grid10, monkeypatch):
        """The cases that pick the partner up first plan r's pickup, and every
        stop after it, 1 usec late: the commit lays that plan out and books it,
        so only the legs' times can tell."""
        pooled_vehicles = mechanisms._pooled_vehicles

        def shifted(row):
            case, added, r_pick, r_drop, k_pick, k_drop = row
            if case in (3, 4):
                return case, added, r_pick + 1, r_drop + 1, k_pick, k_drop + 1
            return row

        def late(*args):
            return [p._replace(cases=tuple(map(shifted, p.cases))) for p in pooled_vehicles(*args)]

        monkeypatch.setattr(mechanisms, "_pooled_vehicles", late)
        res = run_sim(config(grid10, Mechanism.CCP, seed=0, mar=Fraction(8, 10)),
                      grid_requests(grid10, 0, 200))
        assert any(d.case in (3, 4) for d in res.decision_log)
        verdict = check_replay(res)
        assert (verdict.passed, verdict.check) == (False, "leg-times")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pcp_detour_bounds_and_replay(self, grid10, seed):
        res = run_sim(config(grid10, Mechanism.PCP, seed=seed, mar=Fraction(8, 10)),
                      grid_requests(grid10, seed, 200))
        assert check_detour_bounds(res, TARIFF.detour_factor).passed
        assert check_replay(res).passed

    def test_sro_never_pools(self, grid10):
        res = run_sim(config(grid10, Mechanism.SRO, seed=4), grid_requests(grid10, 4, 200))
        assert res.pooled_customers == 0
        for v in res.vehicles:
            onboard = 0
            for e in v.schedule:
                onboard += {"PU": 1, "DO": -1}.get(e.op, 0)
                assert onboard <= 1


class TestRunsAtCommits:
    def test_commit_built_runs_equal_the_schedule(self, grid10, monkeypatch):
        # every vehicle's runs, recorded at its commits, partition its realized schedule
        real, cases = simengine.assign_ccp, Counter()

        def counted(*args):
            d = real(*args)
            if d.decision == POOLED:
                cases[d.case] += 1
            return d

        monkeypatch.setattr(simengine, "assign_ccp", counted)
        riders = []
        for mar in (Fraction(1, 2), Fraction(1)):
            res = run_sim(config(grid10, Mechanism.CCP, seed=8, fleet=20, mar=mar),
                          synthetic_trips(grid10, 500, 1800, 8))
            for v in res.vehicles:
                runs = _scan_oracle.extract_runs(v)
                assert v.runs == [_scan_oracle.run_customers(run) for run in runs]
                riders += map(len, v.runs)
        assert set(cases) == set(range(1, 7)), cases
        assert max(riders) >= 3


class TestRunAccounting:
    def test_pair_runs_match_shapley_and_chains_are_feasible(self, grid10):
        res = run_sim(config(grid10, Mechanism.CCP, seed=2, mar=Fraction(1)),
                      grid_requests(grid10, 2, 300))
        chains = 0
        for account in res.accounts:
            assert account.budget() >= 0
            if len(account.members) == 2:
                expected = shapley_split(account)
                got = {m.customer: res.per_customer[m.customer].fare for m in account.members}
                assert got == expected
            else:
                chains += 1
        assert chains > 0  # chained pooling does arise on this stream

    def test_goalprog_scheme_preserves_run_totals(self, grid10):
        reqs = grid_requests(grid10, 6, 250)
        base = run_sim(config(grid10, Mechanism.CCP, seed=6, mar=Fraction(1)), reqs)
        gp = run_sim(config(grid10, Mechanism.CCP, seed=6, mar=Fraction(1),
                            split_scheme="goalprog"), reqs)
        assert gp.decision_log == base.decision_log
        assert gp.fleet_distance == base.fleet_distance
        assert gp.fares_total == base.fares_total
        assert gp.profit == base.profit
        diffs = sum(
            1 for c in base.per_customer
            if base.per_customer[c].fare != gp.per_customer[c].fare
        )
        assert diffs > 0

    def test_fractional_run_fare_raises(self, grid10, monkeypatch):
        real = simengine.assign_ccp

        def halved(*args):
            # half a mil on a partner's fare leaves her pair's run fare off whole mils
            d = real(*args)
            if d.decision == POOLED:
                d = replace(d, partner_fare_change=d.partner_fare_change + Fraction(1, 2))
            return d

        monkeypatch.setattr(simengine, "assign_ccp", halved)
        with pytest.raises(ValueError, match=r"run v\d+r\d+: fare \d+/2 mils"):
            run_sim(config(grid10, Mechanism.CCP, seed=8, mar=Fraction(1)),
                    grid_requests(grid10, 8, 150))

    def test_no_fare_is_a_float(self, grid10):
        res = run_sim(config(grid10, Mechanism.CCP, seed=8, mar=Fraction(1)),
                      grid_requests(grid10, 8, 150))
        for o in res.per_customer.values():
            assert isinstance(o.fare, (int, Fraction))
            assert isinstance(o.total_cost, (int, Fraction))



def typed(value):
    # digests render a value through its type: 5 and Fraction(5) differ there
    return type(value), value


def sum_world(net, mech, split_scheme, seed, mar, discount, n):
    """A run of `mech` with `n` requests on `net`, split and priced as given."""
    cfg = with_discount(config(net, mech, seed=seed, fleet=6, mar=mar,
                               split_scheme=split_scheme), discount)
    return run_sim(cfg, grid_requests(net, seed, n, horizon_s=900))


class TestSumTypes:
    """Every money sum a run takes has the value and the type of builtin
    `sum` over the same records."""

    @given(mech=st.sampled_from(list(Mechanism)), split_scheme=st.sampled_from(SPLIT_SCHEMES),
           seed=st.integers(0, 10**6), mar=st.sampled_from([Fraction(0), Fraction(1, 2), 1]),
           discount=st.sampled_from([Fraction(7, 10), Fraction(1), 1]), n=st.integers(0, 80))
    @example(mech=Mechanism.CCP, split_scheme="goalprog", seed=6, mar=1, discount=1, n=80)
    @example(mech=Mechanism.PCP, split_scheme="shapley", seed=3, mar=Fraction(1, 2), discount=1,
             n=80)
    @settings(max_examples=40, deadline=None)
    def test_sums_match_builtin_sum(self, grid10, mech, split_scheme, seed, mar, discount, n):
        res = sum_world(grid10, mech, split_scheme, seed, mar, discount, n)
        book, pcp = res.per_customer, mech == Mechanism.PCP
        assert typed(res.fares_total) == typed(sum(o.fare for o in book.values()))
        for account in res.accounts:
            fares = [book[m.customer].fare for m in account.members]
            assert typed(money_sum(fares)) == typed(sum(fares))
            assert account.run_fare == sum(fares)
        s, poolable = res.sums, [(c, o) for c, o in book.items() if o.poolable]
        assert typed(s.fixed_fares) == typed(sum(o.fare for o in book.values() if not o.poolable))
        assert typed(s.bases) == typed(sum(o.solitary_quote if pcp else o.fare
                                           for _, o in poolable))
        priced = [(c, o) for c, o in poolable if o.baseline_solitary_cost > 0]
        assert typed(s.base_ratio) == typed(sum(
            Fraction(o.solitary_quote if pcp else o.fare, o.baseline_solitary_cost)
            for _, o in priced))
        r = res.requests
        assert typed(s.time_ratio) == typed(sum(
            Fraction(time_cost_mils(r[c].value_of_time, o.dropoff_time - r[c].request_time),
                     o.baseline_solitary_cost)
            for c, o in priced))

    def test_worlds_reach_int_and_fraction_sums(self, grid10):
        seen = set()
        for mech, discount in [(Mechanism.SRO, 1), (Mechanism.PCP, 1),
                               (Mechanism.PCP, Fraction(7, 10)), (Mechanism.CCP, 1)]:
            res = sum_world(grid10, mech, "goalprog", 6, 1, discount, 80)
            seen.add((mech, type(res.fares_total), type(res.sums.bases)))
            assert bool(res.accounts) == (mech == Mechanism.CCP)
        assert seen == {(Mechanism.SRO, int, int), (Mechanism.PCP, int, int),
                        (Mechanism.PCP, Fraction, int), (Mechanism.CCP, Fraction, Fraction)}


def with_discount(cfg, discount, **kw):
    return replace(cfg, tariff=replace(cfg.tariff, discount_factor=discount), **kw)


def row_values(row, *skip):
    """Every field of a decision row, in order, but those named in `skip`."""
    return [getattr(row, f.name) for f in fields(row) if f.name not in skip]


@pytest.fixture(scope="module")
def pcp_run(grid10):
    """A PCP configuration, its request stream and its run at discount 0.7:
    MAR 0.6 leaves both poolable and non-poolable riders, fleet 8 pools."""
    cfg = with_discount(config(grid10, Mechanism.PCP, seed=3, fleet=8, mar=Fraction(6, 10)),
                        Fraction(7, 10))
    reqs = grid_requests(grid10, 3, 150)
    return cfg, reqs, run_sim(cfg, reqs)


class TestReprice:
    def test_world_has_every_kind_of_rider(self, pcp_run):
        _, _, res = pcp_run
        kinds = {(o.poolable, o.pooled) for o in res.per_customer.values()}
        assert kinds == {(False, False), (True, False), (True, True)}
        assert res.unserved > 0

    @given(discount=st.fractions(0, 1, max_denominator=10**4).filter(lambda f: f > 0))
    @example(discount=Fraction(1))
    @example(discount=Fraction(997, 1000))
    @example(discount=Fraction(7, 10))
    @settings(max_examples=40, deadline=None)
    def test_repriced_run_equals_a_fresh_one(self, pcp_run, discount):
        cfg, reqs, decided = pcp_run
        fresh = run_sim(with_discount(cfg, discount), reqs)
        assert_same_run(reprice(decided, fresh.config.tariff), fresh)
        assert_same_run(run_sim(with_discount(cfg, discount, decided=decided), reqs), fresh)

    def test_run_sim_re_prices_without_deciding(self, pcp_run, monkeypatch):
        cfg, reqs, decided = pcp_run
        before = [repr(decided.decision_log), repr(decided.per_customer), decided.profit]

        def no_decisions(*args):
            raise AssertionError("a re-priced run decides no request")

        monkeypatch.setattr(simengine, "assign_pcp", no_decisions)
        cfg = with_discount(cfg, Fraction(9, 10), decided=decided)
        res = run_sim(cfg, reqs)
        assert res.config == cfg and res.config.decided is None
        assert res.vehicles is decided.vehicles and res.requests is decided.requests
        poolable = [o for o in res.per_customer.values() if o.poolable]
        assert poolable and all(o.fare == pcp_fare(cfg.tariff, o.solitary_quote) for o in poolable)
        assert {d.fare for d in res.decision_log if d.customer == poolable[0].customer} == {
            poolable[0].fare}
        # re-pricing leaves the decided run as it was
        assert [repr(decided.decision_log), repr(decided.per_customer), decided.profit] == before

    def test_re_pricing_changes_only_fares(self, pcp_run):
        cfg, _, decided = pcp_run
        before = [row_values(d) for d in decided.decision_log]
        tariff = with_discount(cfg, Fraction(9, 10)).tariff
        res = reprice(decided, tariff)
        rebuilt = 0
        for new, old in zip(res.decision_log, decided.decision_log, strict=True):
            # a priced poolable row is rebuilt with its new fare; every other row is shared
            if old.fare is not None and decided.per_customer[old.customer].poolable:
                assert new is not old and new.fare == pcp_fare(tariff, old.quote) != old.fare
                rebuilt += 1
            else:
                assert new is old
            assert row_values(new, "fare") == row_values(old, "fare")
        assert 0 < rebuilt < len(before)
        # the decided run's rows, shared and mutable, are left as they were
        assert [row_values(d) for d in decided.decision_log] == before

    def test_decided_is_outside_equality_and_repr(self, pcp_run):
        cfg, _, decided = pcp_run
        assert replace(cfg, decided=decided) == cfg
        assert repr(replace(cfg, decided=decided)) == repr(cfg)

    @pytest.mark.parametrize("change, field", [
        (lambda cfg: with_discount(cfg, Fraction(9, 10)), None),
        (lambda cfg: replace(cfg, mechanism=Mechanism.CCP), "mechanism"),
        (lambda cfg: replace(cfg, tariff=replace(cfg.tariff, detour_factor=Fraction(1, 2))),
         "tariff.detour_factor"),
        (lambda cfg: replace(cfg, mar=Fraction(1)), "mar"),
        (lambda cfg: replace(cfg, rng_seed=4), "rng_seed"),
        (lambda cfg: replace(cfg, fleet_size=9), "fleet_size"),
    ])
    def test_decided_must_differ_only_in_the_discount(self, pcp_run, change, field):
        cfg, reqs, decided = pcp_run
        cfg = replace(change(cfg), decided=decided)
        if field is None:
            assert run_sim(cfg, reqs).config == cfg
            return
        with pytest.raises(ConfigError, match=rf"decided: the run differs in {field}$"):
            run_sim(cfg, reqs)

    def test_a_ccp_result_is_not_re_priced(self, pcp_run):
        cfg, reqs, _ = pcp_run
        ccp = run_sim(replace(cfg, mechanism=Mechanism.CCP), reqs)
        for mech in (Mechanism.PCP, Mechanism.CCP):
            with pytest.raises(ConfigError, match="decided: mechanism CCP .* only a PCP run"):
                run_sim(replace(cfg, mechanism=mech, decided=ccp), reqs)


LOGGED_FIELDS = ["time", "customer", "mechanism", "decision", "vehicle", "partner", "fare",
                 "baseline_cost", "guaranteed_cost", "added_distance"]
PINNED_ROWS = {
    ("SRO", "solitary"): "DecisionRow(time=22000000, customer=0, mechanism='SRO', "
    "decision='solitary', vehicle=5, partner=None, fare=6500, baseline_cost=7098, "
    "guaranteed_cost=7098, added_distance=1800000)",
    ("SRO", "unserved"): "DecisionRow(time=204000000, customer=8, mechanism='SRO', "
    "decision='unserved', vehicle=None, partner=None, fare=None, baseline_cost=None, "
    "guaranteed_cost=None, added_distance=None)",
    ("PCP", "solitary"): "DecisionRow(time=22000000, customer=0, mechanism='PCP', "
    "decision='solitary', vehicle=5, partner=None, fare=Fraction(5200, 1), baseline_cost=7098, "
    "guaranteed_cost=None, added_distance=1800000)",
    ("PCP", "unserved"): "DecisionRow(time=204000000, customer=8, mechanism='PCP', "
    "decision='unserved', vehicle=None, partner=None, fare=None, baseline_cost=7877, "
    "guaranteed_cost=None, added_distance=None)",
    ("PCP", "pooled"): "DecisionRow(time=225000000, customer=10, mechanism='PCP', "
    "decision='pooled', vehicle=0, partner=2, fare=Fraction(6000, 1), baseline_cost=9450, "
    "guaranteed_cost=None, added_distance=800000)",
    ("CCP", "solitary"): "DecisionRow(time=22000000, customer=0, mechanism='CCP', "
    "decision='solitary', vehicle=5, partner=None, fare=6500, baseline_cost=7098, "
    "guaranteed_cost=7098, added_distance=1800000)",
    ("CCP", "pooled"): "DecisionRow(time=204000000, customer=8, mechanism='CCP', "
    "decision='pooled', vehicle=5, partner=0, fare=Fraction(6665, 1), baseline_cost=7877, "
    "guaranteed_cost=Fraction(7844, 1), added_distance=1800000)",
    ("CCP", "unserved"): "DecisionRow(time=207000000, customer=9, mechanism='CCP', "
    "decision='unserved', vehicle=None, partner=None, fare=None, baseline_cost=6800, "
    "guaranteed_cost=None, added_distance=None)",
}


class TestDecisionRow:
    def test_each_kind_has_a_pinned_repr_of_the_logged_fields(self, grid10):
        # the first row of each decision kind under each mechanism; the repr,
        # which the benchmark's digests hash, leaves the commit fields out
        reqs = grid_requests(grid10, 3, 150)
        first = {}
        for mech in Mechanism:
            res = run_sim(config(grid10, mech, seed=3, fleet=8, mar=Fraction(6, 10)), reqs)
            for d in res.decision_log:
                assert type(d) is DecisionRow and type(d.mechanism) is str
                first.setdefault((d.mechanism, d.decision), d)
        assert {key: repr(d) for key, d in first.items()} == PINNED_ROWS
        for d in first.values():
            assert re.findall(r"(\w+)=", repr(d)) == LOGGED_FIELDS
            assert d.quote > 0  # the commit fields are there, out of the repr
