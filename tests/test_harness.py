from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from ridepool import domain, harness, mechanisms, simengine
from ridepool.harness import (
    BRACKETS,
    SUMMARY_METRICS,
    CellOutcome,
    DominanceResult,
    MechanismSummary,
    MismatchedGrids,
    ScenarioGrid,
    aggregate,
    pareto_dominance,
    run_grid,
    savings_brackets,
    summarize,
    synthetic_trips,
)
from ridepool.io import summary_row
from ridepool.mechanisms import DecisionRow, Mechanism
from ridepool.netgraph import make_grid
from ridepool.simengine import CustomerOutcome, SimConfig, run_sim
from ridepool.pricing import pcp_fare
from ridepool.units import USEC
from ridepool.verify import build_threshold_fixture, run_fixture
from tests._metrics_oracle import cost_metrics, totals
from tests.conftest import assert_same_run, unserved_ids


def small_grid(seeds=(1, 2), mars=(Fraction(0), Fraction(1, 2), Fraction(1))):
    return ScenarioGrid(
        mechanisms=(Mechanism.SRO, Mechanism.PCP, Mechanism.CCP),
        max_waits=(240 * USEC,),
        mars=tuple(mars),
        fleet_sizes=(8,),
        change_fees=(2000,),
        discount_factors=(Fraction(8, 10),),
        detour_factors=(Fraction(3, 10),),
        seeds=tuple(seeds),
        horizon=1200 * USEC,
    )


@pytest.fixture(scope="module")
def small_outcomes():
    net = make_grid(6, 6, 0.15, 30)
    trips = synthetic_trips(net, 120, 1200, seed=4)
    return run_grid(small_grid(), trips, net)


class TestRunGrid:
    def test_mar_zero_cells_equal_sro_baseline(self, small_outcomes):
        for oc in small_outcomes:
            if oc.mechanism != "SRO" and oc.result.config.mar == 0:
                assert oc.result.fleet_distance == oc.baseline.fleet_distance
                assert oc.result.fares_total == oc.baseline.fares_total
                assert unserved_ids(oc.result) == unserved_ids(oc.baseline)

    def test_pairing_shares_seed_and_fleet(self, small_outcomes):
        for oc in small_outcomes:
            if oc.mechanism == "SRO":
                continue
            spawn_a = [v.way_nodes[0] for v in oc.result.vehicles]
            spawn_b = [v.way_nodes[0] for v in oc.baseline.vehicles]
            assert spawn_a == spawn_b

    def test_rerun_is_identical(self):
        net = make_grid(6, 6, 0.15, 30)
        trips = synthetic_trips(net, 60, 1200, seed=9)
        grid = small_grid(seeds=(3,), mars=(Fraction(1, 2),))
        rows1 = [summary_row(oc) for oc in run_grid(grid, trips, net)]
        rows2 = [summary_row(oc) for oc in run_grid(grid, trips, net)]
        assert rows1 == rows2

    def test_summaries_cover_grid_mars(self, small_outcomes):
        for s in summarize(small_outcomes):
            assert s.mars() == (Fraction(0), Fraction(1, 2), Fraction(1))


DISCOUNTS = (Fraction(7, 10), Fraction(8, 10), Fraction(1))


@pytest.fixture(scope="module")
def discount_calls():
    """A CCP and PCP grid over three discounts and two detours, and every
    `run_sim` call its `run_grid` made, as (config, result) pairs."""
    net = make_grid(6, 6, 0.15, 30)
    trips = synthetic_trips(net, 120, 1200, seed=4)
    grid = replace(small_grid(mars=(Fraction(1, 2), Fraction(1))),
                   mechanisms=(Mechanism.CCP, Mechanism.PCP), discount_factors=DISCOUNTS,
                   detour_factors=(Fraction(3, 10), Fraction(1, 2)))
    calls = []

    def recorded(cfg, trips):
        res = run_sim(cfg, trips)
        calls.append((cfg, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_sim", recorded)
        outcomes = run_grid(grid, trips, net)
    return outcomes, calls, trips


class TestSharedPcpDecisions:
    def test_one_simulation_per_pcp_group(self, discount_calls):
        outcomes, calls, _ = discount_calls
        # every cell is one call: 2 baselines, 2 MARs x 2 seeds of CCP and
        # 2 MARs x 3 discounts x 2 detours x 2 seeds of PCP
        assert len(calls) == 2 + len(outcomes) == 2 + 4 + 24
        assert sum(cfg.decided is None for cfg, _ in calls) == 2 + 4 + 8
        for cfg, res in calls:
            if cfg.decided is None:
                assert res.config is cfg
                assert cfg.mechanism != Mechanism.PCP or cfg.tariff.discount_factor == DISCOUNTS[0]
                continue
            ran = cfg.decided.config
            assert ran.tariff.discount_factor == DISCOUNTS[0] < cfg.tariff.discount_factor
            assert ran == replace(cfg, tariff=ran.tariff)
            assert res.vehicles is cfg.decided.vehicles

    def test_re_priced_cells_equal_fresh_runs(self, discount_calls):
        _, calls, trips = discount_calls
        shared = [(cfg, res) for cfg, res in calls if cfg.decided is not None]
        assert len(shared) == 16
        for cfg, res in shared:
            assert_same_run(res, run_sim(replace(cfg, decided=None), trips))

    def test_sunk_cost_only_under_pcp(self, discount_calls):
        # the paper's observation, on every cell: a CCP rider who is never
        # pooled pays her solitary quote, while PCP charges every poolable
        # rider the discounted quote, pooled or not
        outcomes, _, _ = discount_calls
        unpooled_ccp, sunk = 0, []
        for oc in outcomes:
            tariff = oc.result.config.tariff
            served = oc.result.per_customer.values()
            if oc.mechanism == "CCP":
                for o in served:
                    if not o.pooled:
                        assert o.fare == o.solitary_quote
                        unpooled_ccp += 1
            elif oc.mechanism == "PCP":
                for o in served:
                    assert o.fare == (pcp_fare(tariff, o.solitary_quote) if o.poolable
                                      else o.solitary_quote)
                sunk.append(sum(o.solitary_quote - o.fare
                                for o in served if o.poolable and not o.pooled))
        assert unpooled_ccp > 0 and len(sunk) == 24
        assert max(sunk) > 0


def assert_typed_equal(a, b):
    # digests render a value through its type: 5 and Fraction(5) differ there
    assert (type(a), a) == (type(b), b)


def assert_matches_oracle(oc: CellOutcome) -> dict:
    """`oc`'s metrics, taken from its run's sums, against the per-customer
    oracle over its records."""
    m = oc.metrics()
    want = cost_metrics(oc.result)
    for key in ("mean_cost_per_poolable", "cost_reduction_pct"):
        assert_typed_equal(m[key], want[key])
    assert m["brackets"].keys() == want["brackets"].keys()
    for t, share in want["brackets"].items():
        assert_typed_equal(m["brackets"][t], share)
    fares, profit = totals(oc.result)
    assert_typed_equal(oc.result.fares_total, fares)
    assert_typed_equal(oc.result.profit, profit)
    assert_typed_equal(m["fares"], fares)
    assert_typed_equal(m["profit"], profit)
    return m


@pytest.fixture(scope="module")
def pcp_world():
    """A PCP configuration at discount 0.7, its trips, its run and their
    solitary baseline: MAR 0.6 leaves poolable and non-poolable riders,
    pooled and not."""
    net = make_grid(6, 6, 0.15, 30)
    trips = synthetic_trips(net, 120, 1200, seed=4)
    cfg = SimConfig(mechanism=Mechanism.PCP, tariff=ScenarioGrid().tariff(discount=Fraction(7, 10)),
                    fleet_size=8, mar=Fraction(6, 10), rng_seed=1, network=net,
                    horizon=1200 * USEC, max_wait_override=240 * USEC)
    baseline = run_sim(replace(cfg, mechanism=Mechanism.SRO, mar=Fraction(0)), trips)
    return cfg, trips, run_sim(cfg, trips), baseline


def at_discount(cfg, discount, **kw):
    return replace(cfg, tariff=replace(cfg.tariff, discount_factor=discount), **kw)


class TestClosedForms:
    def test_world_has_every_kind_of_rider(self, pcp_world):
        _, _, decided, _ = pcp_world
        kinds = {(o.poolable, o.pooled) for o in decided.per_customer.values()}
        assert kinds == {(False, False), (True, False), (True, True)}

    @given(discount=st.fractions(0, 1, max_denominator=10**4).filter(lambda f: f > 0))
    @example(discount=1)  # an int: every fare, and so every total, stays an int
    @example(discount=Fraction(1))
    @example(discount=Fraction(997, 1000))
    @example(discount=Fraction(7, 10))
    @settings(max_examples=30, deadline=None)
    def test_every_pcp_cell_matches_the_oracle(self, pcp_world, discount):
        cfg, trips, decided, baseline = pcp_world
        assert_matches_oracle(CellOutcome(decided, baseline))
        assert_matches_oracle(CellOutcome(run_sim(at_discount(cfg, discount), trips), baseline))
        # a re-priced cell reads its decided run's sums at its own discount,
        # the sums its own records give
        res = run_sim(at_discount(cfg, discount, decided=decided), trips)
        assert_matches_oracle(CellOutcome(res, baseline))
        assert res.sums == type(res).sums.func(res)

    def test_a_world_without_poolable_riders(self, pcp_world):
        cfg, trips, _, baseline = pcp_world
        cfg = replace(cfg, mar=Fraction(0))
        decided = run_sim(cfg, trips)
        assert decided.served > 0 and decided.poolable_customers == 0
        for discount in (Fraction(7, 10), Fraction(9, 10), 1):
            res = run_sim(at_discount(cfg, discount, decided=decided), trips)
            m = assert_matches_oracle(CellOutcome(res, baseline))
            assert type(res.fares_total) is int and m["mean_cost_per_poolable"] is None
            assert m["brackets"] == dict.fromkeys(BRACKETS)

    @pytest.mark.parametrize("split_scheme", ["shapley", "goalprog"])
    def test_ccp_cells_match_the_oracle(self, pcp_world, split_scheme):
        cfg, trips, _, baseline = pcp_world
        res = run_sim(replace(cfg, mechanism=Mechanism.CCP, split_scheme=split_scheme), trips)
        assert res.pooled_customers > 0
        assert_matches_oracle(CellOutcome(res, baseline))

    def test_every_grid_cell_matches_the_oracle(self, discount_calls):
        outcomes, _, _ = discount_calls
        for oc in outcomes:
            assert_matches_oracle(oc)


class TestRepricedRecords:
    def test_a_re_priced_cell_builds_its_records_once_without_copying(self, monkeypatch):
        built, copied = Counter(), Counter()

        def counting(cls):
            def build(*args, **kwargs):
                built[cls.__name__] += 1
                return cls(*args, **kwargs)
            return build

        def counting_replace(obj, **changes):
            copied[type(obj).__name__] += 1
            return replace(obj, **changes)

        # the rules build the decided rows and the commits the decided
        # outcomes, `reprice` the re-priced ones
        for module, cls in ((domain, CustomerOutcome), (simengine, CustomerOutcome),
                            (simengine, DecisionRow), (mechanisms, DecisionRow)):
            monkeypatch.setattr(module, cls.__name__, counting(cls))
        monkeypatch.setattr(simengine, "replace", counting_replace)
        net = make_grid(6, 6, 0.15, 30)
        trips = synthetic_trips(net, 120, 1200, seed=4)
        grid = replace(small_grid(seeds=(1,), mars=(Fraction(1, 2),)),
                       mechanisms=(Mechanism.PCP,), discount_factors=DISCOUNTS)
        outcomes = run_grid(grid, trips, net)
        decided, *repriced = (oc.result for oc in outcomes)
        baseline = outcomes[0].baseline
        assert len(repriced) == 2 and all(oc.baseline is baseline for oc in outcomes)
        # each re-priced cell builds a new outcome per served rider and a new
        # row per priced poolable decision, by construction: no record is copied
        priced = sum(1 for d in decided.decision_log
                     if d.fare is not None and decided.per_customer[d.customer].poolable)
        assert 0 < priced < decided.n_requests
        assert built == {
            "CustomerOutcome": decided.served + baseline.served + 2 * decided.served,
            "DecisionRow": decided.n_requests + baseline.n_requests + 2 * priced,
        }
        assert not copied.keys() & {"CustomerOutcome", "DecisionRow"}
        for res in repriced:
            # new, re-priced records, in the decided run's order
            assert list(res.per_customer) == list(decided.per_customer)
            assert [d.customer for d in res.decision_log] == [
                d.customer for d in decided.decision_log]
            assert all(a is not b for a, b in
                       zip(res.per_customer.values(), decided.per_customer.values()))
            assert repr(res.per_customer) != repr(decided.per_customer)


class TestAggregate:
    def test_means_skip_missing_values(self):
        def metrics(value, share):
            m = dict.fromkeys(SUMMARY_METRICS, value)
            m["brackets"] = dict.fromkeys(BRACKETS, share)
            return m

        half = Fraction(1, 2)
        out = aggregate([
            (("CCP", 1), half, metrics(Fraction(1), None)),
            (("CCP", 1), half, metrics(None, None)),
            (("CCP", 1), half, metrics(Fraction(4), Fraction(10))),
            (("CCP", 1), Fraction(1), metrics(None, None)),
            (("PCP", 1), half, metrics(2, 3)),
        ])
        assert list(out) == [("CCP", 1), ("PCP", 1)]
        assert out["CCP", 1][half] == {
            **dict.fromkeys(SUMMARY_METRICS, Fraction(5, 2)),
            "brackets": dict.fromkeys(BRACKETS, Fraction(10)),
        }
        assert out["CCP", 1][Fraction(1)] == {
            **dict.fromkeys(SUMMARY_METRICS), "brackets": dict.fromkeys(BRACKETS),
        }
        assert out["PCP", 1][half]["profit"] == 2

    def test_summarize_averages_cell_metrics(self, small_outcomes):
        for s in summarize(small_outcomes):
            for mar, means in s.per_mar.items():
                cells = [oc.metrics() for oc in small_outcomes
                         if oc.mechanism == s.mechanism and oc.result.config.mar == mar]
                assert len(cells) == 2
                for metric in SUMMARY_METRICS:
                    values = [m[metric] for m in cells if m[metric] is not None]
                    assert means[metric] == (sum(values) / len(values) if values else None)


class TestSavingsBrackets:
    def test_ccp_zero_bracket_is_full(self, grid10):
        trips = synthetic_trips(grid10, 150, 1800, seed=5)
        cfg = SimConfig(mechanism=Mechanism.CCP, tariff=ScenarioGrid().tariff(), fleet_size=12,
                        mar=Fraction(8, 10), rng_seed=5, network=grid10, horizon=1800 * USEC)
        res = run_sim(cfg, trips)
        shares = savings_brackets(res)
        assert shares[Fraction(0)] == 100
        vals = [shares[t] for t in BRACKETS]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_pcp_forced_detour_breaks_zero_bracket(self):
        # maximal detour with value of time above threshold: a pooled rider loses
        fx = build_threshold_fixture(vot_ratio="1.1", delta="0.9")
        res = run_fixture(fx, Mechanism.PCP)
        shares = savings_brackets(res)
        assert shares[Fraction(0)] < 100

    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 10**7),
                st.one_of(st.integers(0, 10**7),
                          st.builds(Fraction, st.integers(0, 2 * 10**7), st.integers(1, 4))),
            ),
            min_size=1, max_size=12,
        ),
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=1000), max_size=4),
    )
    # on the 5 % boundary, half a mil inside it and half a mil outside it
    @example(customers=[(True, 100, 95), (True, 1000, Fraction(1899, 2)),
                        (True, 1000, Fraction(1901, 2))], extra=[])
    @example(customers=[(True, 0, 0), (True, 0, 5), (False, 100, 90)], extra=[])  # none priced
    @settings(max_examples=300, deadline=None)
    def test_integer_form_matches_fraction_form(self, customers, extra):
        # total costs are whole mils or, after CCP pooling, exact fractions
        res = SimpleNamespace(per_customer={
            i: SimpleNamespace(poolable=p, baseline_solitary_cost=b, total_cost=c)
            for i, (p, b, c) in enumerate(customers)
        })
        thresholds = BRACKETS + tuple(extra)
        # a saving relative to a zero baseline is undefined, so those riders are left out
        poolable = [o for o in res.per_customer.values()
                    if o.poolable and o.baseline_solitary_cost > 0]
        expected = {t: None for t in thresholds} if not poolable else {
            t: Fraction(sum(1 for o in poolable
                            if o.baseline_solitary_cost - o.total_cost
                            >= t * o.baseline_solitary_cost), len(poolable)) * 100
            for t in thresholds
        }
        assert savings_brackets(res, thresholds) == expected

    def test_empty_population_is_na(self, grid10):
        trips = synthetic_trips(grid10, 40, 1800, seed=5)
        cfg = SimConfig(mechanism=Mechanism.SRO, tariff=ScenarioGrid().tariff(), fleet_size=8,
                        mar=Fraction(0), rng_seed=5, network=grid10, horizon=1800 * USEC)
        res = run_sim(cfg, trips)
        assert all(v is None for v in savings_brackets(res).values())


def summary_with(profits, costs, label="x"):
    mars = tuple(Fraction(m, 10) for m in range(2, 2 + 2 * len(profits), 2))
    per_mar = {
        mar: {"profit": p, "mean_cost_per_poolable": c}
        for mar, p, c in zip(mars, profits, costs)
    }
    return MechanismSummary(label=label, mechanism="CCP", params={}, per_mar=per_mar)


class TestParetoDominance:
    def test_reflexive(self):
        a = summary_with([100, 200, 300], [10, 9, 8])
        assert pareto_dominance(a, a).kind == "dominates"

    def test_partial_range_reported(self):
        # profit always higher; cost lower only at the middle three MARs
        a = summary_with([10, 10, 10, 10, 10], [9, 5, 5, 5, 9])
        b = summary_with([5, 5, 5, 5, 5], [7, 7, 7, 7, 7])
        rel = pareto_dominance(a, b)
        assert rel.kind == "partial"
        assert (rel.mar_lo, rel.mar_hi) == (Fraction(4, 10), Fraction(8, 10))

    def test_earliest_of_equal_partial_ranges(self):
        # cost lower at MARs 0.2-0.4 and 0.8-1.0, two ranges of two, and at 1.4 alone
        a = summary_with([10] * 7, [5, 5, 9, 5, 5, 9, 5])
        b = summary_with([5] * 7, [7] * 7)
        rel = pareto_dominance(a, b)
        assert (rel.kind, rel.mar_lo, rel.mar_hi) == ("partial", Fraction(2, 10), Fraction(4, 10))
        # a longer later range wins over an earlier shorter one
        a = summary_with([10] * 6, [5, 9, 5, 5, 5, 9])
        rel = pareto_dominance(a, summary_with([5] * 6, [7] * 6))
        assert (rel.kind, rel.mar_lo, rel.mar_hi) == ("partial", Fraction(6, 10), Fraction(1))

    def test_none_when_cost_always_higher(self):
        a = summary_with([10, 10], [9, 9])
        b = summary_with([5, 5], [7, 7])
        assert pareto_dominance(a, b).kind == "none"

    def test_transitive_on_dominates(self):
        a = summary_with([30, 30], [1, 1])
        b = summary_with([20, 20], [2, 2])
        c = summary_with([10, 10], [3, 3])
        assert pareto_dominance(a, b).kind == "dominates"
        assert pareto_dominance(b, c).kind == "dominates"
        assert pareto_dominance(a, c).kind == "dominates"

    def test_mismatched_mars_rejected(self):
        a = summary_with([1, 2], [3, 4])
        b = summary_with([1, 2, 3], [3, 4, 5])
        with pytest.raises(MismatchedGrids):
            pareto_dominance(a, b)


class TestSyntheticTrips:
    def test_deterministic_and_sorted(self, grid10):
        a = synthetic_trips(grid10, 50, 1800, seed=3)
        b = synthetic_trips(grid10, 50, 1800, seed=3)
        assert a == b
        times = [r.request_time for r in a]
        assert times == sorted(times)
        assert all(r.origin != r.destination for r in a)
        assert all(r.poolable is None and r.value_of_time is None for r in a)
