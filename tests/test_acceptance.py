"""Acceptance battery.

One test per criterion, each printing a PASS line with its measured
numbers (run with ``pytest -s`` to see them).  The batteries are sized for
a desk machine: the audit battery is 100 seeded customer-centered runs on
a 10x10 grid with 500 requests and 30 vehicles; the directional battery
reproduces the qualitative trends (service rate, distance savings, profit
ordering in the discount factor) on a coupled-population grid with 20
seeds.  Every tolerance is pinned here; nothing is calibrated elsewhere.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from ridepool.cli import main as cli_main
from ridepool.costshare import RunAccount, RunMember, goalprog_split, shapley_split
from ridepool.harness import ScenarioGrid, run_grid, summarize, synthetic_trips
from ridepool.mechanisms import UNSERVED, Mechanism
from ridepool.netgraph import make_grid
from ridepool.simengine import SimConfig, run_sim
from ridepool.units import USEC, fraction_from
from ridepool.verify import (
    build_theorem4_fixtures,
    build_threshold_fixture,
    check_detour_bounds,
    check_individual_rationality,
    check_theorem4_dichotomy,
    check_threshold_witness,
    run_fixture,
)
from tests._split_oracle import oracle_split, saver_counts
from tests.conftest import counterfactual_sro, unserved_ids

THRESHOLDS = (Fraction(5, 100), Fraction(10, 100), Fraction(15, 100), Fraction(20, 100))

AUDIT_NET = make_grid(10, 10, 0.2, 30)
AUDIT_SEEDS = range(100)


def audit_config(mech, seed, **kw):
    return SimConfig(
        mechanism=mech, tariff=kw.pop("tariff", ScenarioGrid().tariff()), fleet_size=30,
        mar=Fraction(7, 10), rng_seed=seed, network=AUDIT_NET, horizon=1800 * USEC,
        max_wait_override=360 * USEC, **kw,
    )


def audit_trips(seed):
    return synthetic_trips(AUDIT_NET, 500, 1800, seed=seed)


def _report(num, detail):
    print(f"[criterion {num}] PASS - {detail}")


class TestCriterion1IndividualRationality:
    def test_no_guarantee_violation_across_battery(self):
        t0 = time.perf_counter()
        audited = 0
        for seed in AUDIT_SEEDS:
            res = run_sim(audit_config(Mechanism.CCP, seed), audit_trips(seed))
            verdict = check_individual_rationality(res)
            assert verdict.passed, f"seed {seed}: {verdict.detail}"
            audited += res.served
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"battery took {elapsed:.1f}s, target is 60s"
        _report(1, f"100 seeded CCP runs, {audited} served customers, 0 violations, {elapsed:.1f}s")


class TestCriterion2DetourAudit:
    @pytest.mark.parametrize("detour", ["0.1", "0.3", "0.5"])
    def test_no_detour_violation(self, detour):
        tariff = ScenarioGrid().tariff(detour=fraction_from(detour))
        pooled = 0
        for seed in AUDIT_SEEDS:
            res = run_sim(
                audit_config(Mechanism.PCP, seed, tariff=tariff), audit_trips(seed)
            )
            verdict = check_detour_bounds(res, tariff.detour_factor)
            assert verdict.passed, f"seed {seed}: {verdict.detail}"
            pooled += res.pooled_customers
        _report(2, f"detour {detour}: 100 seeded PCP runs, {pooled} pooled riders, 0 violations")


class TestCriterion3CostShareSolver:
    N_INSTANCES = 10_000

    def test_goalprog_matches_oracle_and_shapley_halves_surplus(self):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        for trial in range(self.N_INSTANCES):
            n = int(rng.integers(2, 5))
            cs = [int(rng.integers(2000, 50001)) for _ in range(n)]
            aa = [int(rng.integers(0, c)) for c in cs]
            willing = sum(c - a for c, a in zip(cs, aa))
            fare = int(rng.integers(0, willing + 1))
            acct = RunAccount(
                f"t{trial}",
                tuple(RunMember(i, c, a) for i, (c, a) in enumerate(zip(cs, aa))),
                fare,
            )
            fares = goalprog_split(acct, THRESHOLDS)
            assert saver_counts(acct, fares, THRESHOLDS) == oracle_split(acct, THRESHOLDS), (
                f"instance {trial}")
            assert sum(fares.values()) == fare
            if n == 2:
                split = shapley_split(acct)
                half = Fraction(acct.budget(), 2)
                for m in acct.members:
                    saved = m.solitary_cost - m.pooled_time_cost - split[m.customer]
                    assert saved == half
        elapsed = time.perf_counter() - t0
        _report(3, f"{self.N_INSTANCES} random runs: goalprog == oracle exactly; "
                   f"two-rider splits save budget/2 each ({elapsed:.1f}s)")


class TestCriterion4CostSharingNeutrality:
    def test_schemes_agree_on_everything_but_fares(self):
        net = make_grid(10, 10, 0.2, 30)
        trips = synthetic_trips(net, 250, 1800, seed=77)
        fare_diffs = 0
        for seed in range(20):
            def cfg(scheme):
                return SimConfig(
                    mechanism=Mechanism.CCP, tariff=ScenarioGrid().tariff(), fleet_size=20,
                    mar=Fraction(1), rng_seed=seed, network=net, horizon=1800 * USEC,
                    max_wait_override=360 * USEC, split_scheme=scheme,
                    split_thresholds=THRESHOLDS,
                )
            a = run_sim(cfg("shapley"), trips)
            b = run_sim(cfg("goalprog"), trips)
            assert a.decision_log == b.decision_log, f"seed {seed}: decision logs differ"
            assert [v.schedule for v in a.vehicles] == [v.schedule for v in b.vehicles]
            assert a.fleet_distance == b.fleet_distance
            assert a.fares_total == b.fares_total and a.profit == b.profit
            fare_diffs += sum(
                1 for c in a.per_customer
                if a.per_customer[c].fare != b.per_customer[c].fare
            )
        assert fare_diffs > 0
        _report(4, f"20 paired seeds: identical logs, schedules and distance; "
                   f"{fare_diffs} per-customer fares differ")


class TestCriterion5TwoScenarioDichotomy:
    def test_sampled_grid_exhibits_exactly_one_branch(self):
        profiles = ((166, 1.5), (283, 3.5))  # cheap vs dear pooling economics
        branches = {"branch=missed-profitable": 0, "branch=customer-unprofitable": 0}
        samples = 0
        for i, (detour, eps_t, eps_d) in enumerate(
            itertools.product(("0.1", "0.3", "0.5"), (5, 10, 20, 40, 60),
                              ("0.02", "0.05", "0.1", "0.2"))
        ):
            vot, fee = profiles[i % 2]
            orig, alt = build_theorem4_fixtures(
                detour, eps_t, eps_d, vot_mils_per_min=vot, change_fee_usd=fee
            )
            assert run_fixture(orig, Mechanism.PCP).pooled_customers == 2
            assert run_fixture(alt, Mechanism.PCP).pooled_customers == 0
            v = check_theorem4_dichotomy(orig, alt)
            assert v.passed, f"sample {i}: {v.detail}"
            branches[v.detail.split(",")[0]] += 1
            samples += 1
        assert samples >= 50
        assert all(branches.values()), f"one branch never occurred: {branches}"
        _report(5, f"{samples} samples: original pools, altered rejects, "
                   f"branches {dict(branches)}")


class TestCriterion6ThresholdWitness:
    def test_ten_percent_margins(self):
        above = check_threshold_witness(build_threshold_fixture(vot_ratio="1.1"))
        assert above.passed, above.detail
        below = check_threshold_witness(build_threshold_fixture(vot_ratio="0.9"))
        assert below.passed, below.detail
        _report(6, f"+10%: {above.detail}; -10%: {below.detail}")


BATTERY_MARS = tuple(Fraction(x, 10) for x in (2, 4, 6, 8, 10))


@pytest.fixture(scope="module")
def battery():
    net = make_grid(10, 10, 0.1, 30)
    trips = synthetic_trips(net, 500, 1800, seed=42)
    grid = ScenarioGrid(
        mechanisms=(Mechanism.CCP, Mechanism.PCP),
        max_waits=(240 * USEC,),
        mars=BATTERY_MARS,
        fleet_sizes=(38,),
        change_fees=(2000,),
        discount_factors=(Fraction(7, 10), Fraction(8, 10), Fraction(9, 10)),
        detour_factors=(Fraction(3, 10),),
        seeds=tuple(range(1, 21)),
    )
    t0 = time.perf_counter()
    outcomes = run_grid(grid, trips, net)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"directional battery took {elapsed:.0f}s, target 600s"
    sro_profit = {}
    for oc in outcomes:
        sro_profit.setdefault(oc.result.config.rng_seed, oc.baseline.profit)
    mean_sro_profit = sum(sro_profit.values(), Fraction(0)) / len(sro_profit)
    return summarize(outcomes), mean_sro_profit, elapsed


def per_mar_series(summary, metric):
    """A summary's seed means of `metric`, in ascending MAR order."""
    return [summary.per_mar[m][metric] for m in summary.mars()]


class TestCriterion7DirectionalTrends:
    """Qualitative reproduction on a coupled-population desk battery."""

    MARS = BATTERY_MARS

    def _by_label(self, summaries, fragment):
        return next(s for s in summaries if fragment in s.label)

    def test_a_unserved_nonincreasing_in_mar(self, battery):
        summaries, _, _ = battery
        for fragment in ("CCP", "disc0.8000"):
            s = self._by_label(summaries, fragment)
            series = per_mar_series(s, "unserved_pct")
            assert all(x >= y for x, y in zip(series, series[1:])), (s.label, series)
        _report(7, "(a) unserved share non-increasing in MAR for CCP and PCP")

    def test_b_ccp_serves_at_least_as_well_as_pcp(self, battery):
        summaries, _, _ = battery
        ccp = per_mar_series(self._by_label(summaries, "CCP"), "unserved_pct")
        pcp = per_mar_series(self._by_label(summaries, "disc0.8000"), "unserved_pct")
        assert all(c <= p for c, p in zip(ccp, pcp)), (ccp, pcp)
        _report(7, f"(b) CCP unserved <= PCP unserved at every MAR "
                   f"({[float(x) for x in ccp]} vs {[float(x) for x in pcp]})")

    def test_c_distance_savings_increase_and_turn_positive(self, battery):
        summaries, _, _ = battery
        for fragment in ("CCP", "disc0.8000"):
            series = per_mar_series(self._by_label(summaries, fragment), "distance_saving_pct")
            assert all(x < y for x, y in zip(series, series[1:])), (fragment, series)
            for mar, value in zip(self.MARS, series):
                if mar >= Fraction(4, 10):
                    assert value > 0, (fragment, mar, value)
        _report(7, "(c) distance savings strictly increase in MAR, positive from MAR 0.4")

    def test_d_discount_factor_splits_profit_against_baseline(self, battery):
        summaries, sro_profit, elapsed = battery
        low = self._by_label(summaries, "disc0.7000")
        high = self._by_label(summaries, "disc0.9000")
        for mar in self.MARS:
            if mar < Fraction(5, 10):
                continue
            assert low.per_mar[mar]["profit"] < sro_profit, (mar, low.per_mar[mar]["profit"])
            assert high.per_mar[mar]["profit"] > sro_profit, (mar, high.per_mar[mar]["profit"])
        _report(7, f"(d) PCP delta=0.7 below / delta=0.9 above the SRO profit at MAR>=0.5 "
                   f"(battery {elapsed:.0f}s)")


class TestCriterion8MarZeroEquivalence:
    """The mechanism reductions: CCP and PCP at MAR 0, and CCP at MAR 1 with a
    change fee that no pooling can overcome, each reproduce the paired SRO
    run decision by decision."""

    @pytest.mark.parametrize("mech, mar, fee", [
        pytest.param(Mechanism.PCP, 0, None, id="PCP"),
        pytest.param(Mechanism.CCP, 0, None, id="CCP"),
        pytest.param(Mechanism.CCP, 1, 10**9, id="CCP-mar1-fee1e9"),
    ])
    def test_field_identical_to_baseline(self, mech, mar, fee):
        net = make_grid(10, 10, 0.2, 30)
        for seed in range(5):
            trips = synthetic_trips(net, 200, 1800, seed=seed)
            cfg = SimConfig(
                mechanism=mech, tariff=ScenarioGrid().tariff(change_fee=fee), fleet_size=15,
                mar=Fraction(mar), rng_seed=seed, network=net, horizon=1800 * USEC,
                max_wait_override=360 * USEC,
            )
            a = run_sim(cfg, trips)
            b = counterfactual_sro(cfg, trips)
            assert a.pooled_customers == 0
            assert (a.poolable_customers > 0) == (mar > 0)
            assert (a.served, a.unserved) == (b.served, b.unserved)
            assert unserved_ids(a) == unserved_ids(b)
            assert a.fleet_distance == b.fleet_distance
            assert (a.fares_total, a.profit) == (b.fares_total, b.profit)
            for cid in a.per_customer:
                x, y = a.per_customer[cid], b.per_customer[cid]
                assert (x.fare, x.pickup_time, x.dropoff_time, x.total_cost, x.vehicle) == (
                    y.fare, y.pickup_time, y.dropoff_time, y.total_cost, y.vehicle)
            # decision logs agree on everything except the mechanism label and
            # an unserved request's baseline, which SRO does not log
            strip = lambda log: [
                (d.time, d.customer, d.decision, d.vehicle, d.partner, d.fare,
                 None if d.decision == UNSERVED else d.baseline_cost,
                 d.added_distance, d.pickup, d.dropoff)
                for d in log
            ]
            assert strip(a.decision_log) == strip(b.decision_log)
        fee_text = "the default change fee" if fee is None else f"a change fee of {fee} mils"
        _report(8, f"{mech.value} at MAR {mar} with {fee_text}: 5 seeds field-identical "
                   "to the paired baseline")


class TestCriterion9Determinism:
    CONFIG = {
        "network": {"grid": {"rows": 8, "cols": 8, "edge_length_mi": 0.15, "speed_mph": 30}},
        "horizon_s": 1500,
        "tariff": {
            "base_fare_usd": 2.5, "per_mile_usd": 2.5, "provider_cost_per_mile_usd": 2.945,
            "change_fee_usd": [2.0, 3.0], "discount_factor": [0.8], "detour_factor": [0.1, 0.5],
        },
        "mechanisms": ["SRO", "PCP", "CCP"],
        "max_wait_s": [240],
        "mar": [0.0, 0.6, 1.0],
        "fleet_size": [12],
        "seeds": [1, 2],
        "split_scheme": "goalprog",
    }

    def test_full_grid_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli_main(["simulate", "--config", str(cfg),
                           "--trips", "synthetic:n=160,seed=6", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        files = ("summary.csv", "decisions.csv", "splits.csv", "run_accounts.csv")
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        _report(9, f"two executions of the full grid: {len(files)} CSVs byte-identical")
