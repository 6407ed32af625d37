import re
from dataclasses import replace
from fractions import Fraction
from math import floor

import numpy as np
import pytest

from ridepool import simengine
from ridepool.domain import DO, PU, Request
from ridepool.mechanisms import SOLITARY, Mechanism
from ridepool.netgraph import make_grid
from ridepool.pricing import Tariff
from ridepool.simengine import SimConfig, run_sim
from ridepool.units import USEC
from ridepool.verify import (
    DomainError,
    InvalidEpsilon,
    build_theorem4_fixtures,
    build_threshold_fixture,
    build_weak_dominance_fixtures,
    check_detour_bounds,
    check_individual_rationality,
    check_reduces_to_sro,
    check_replay,
    check_theorem4_dichotomy,
    check_threshold_witness,
    check_weak_dominance_fixture,
    run_all_fixtures,
    run_fixture,
    theorem3_threshold,
)
from tests.test_simengine import TARIFF, config, grid_requests


class TestThresholdFormula:
    def test_worked_example(self):
        # 0.2 * 10 / (0.3 * 600) dollars per second
        assert theorem3_threshold("0.8", 10, "0.3", 600) == pytest.approx(0.0111111, rel=1e-4)

    def test_no_discount_means_zero_threshold(self):
        assert theorem3_threshold("1.0", 10, "0.3", 600) == 0.0

    @pytest.mark.parametrize(
        "delta,detour,dur", [("0.8", "0", 600), ("0.8", "-0.3", 600), ("0.8", "0.3", 0), ("0", "0.3", 600)]
    )
    def test_domain_errors(self, delta, detour, dur):
        with pytest.raises(DomainError):
            theorem3_threshold(delta, 10, detour, dur)


class TestThresholdWitness:
    def test_above_threshold_pooling_costs_more(self):
        fx = build_threshold_fixture(vot_ratio="1.1")
        v = check_threshold_witness(fx)
        assert v.passed, v.detail

    def test_below_threshold_pooling_still_pays(self):
        fx = build_threshold_fixture(vot_ratio="0.9")
        v = check_threshold_witness(fx)
        assert v.passed, v.detail

    def test_pcp_weak_dominance_fails_above_threshold(self):
        fx = build_threshold_fixture(vot_ratio="1.1")
        v = check_weak_dominance_fixture(fx, Mechanism.PCP)
        assert v.passed and "poolable" in v.check

    def test_ratio_off_the_integer_grid_is_rejected(self):
        # 1.001 times the 500 mils-per-minute threshold is 500.5
        with pytest.raises(DomainError, match="integer mils-per-minute"):
            build_threshold_fixture(vot_ratio="1.001")


class TestTheorem4:
    def test_rejects_degenerate_epsilon(self):
        with pytest.raises(InvalidEpsilon):
            build_theorem4_fixtures("0.3", 0, "0.05")
        with pytest.raises(InvalidEpsilon):
            build_theorem4_fixtures("0.3", 10, "0")

    def test_original_pools_altered_does_not(self):
        orig, alt = build_theorem4_fixtures("0.3", 10, "0.05")
        assert run_fixture(orig, Mechanism.PCP).pooled_customers == 2
        assert run_fixture(alt, Mechanism.PCP).pooled_customers == 0

    def test_dichotomy_branches_both_occur(self):
        branches = set()
        for detour in ("0.1", "0.3", "0.5"):
            for eps_t, eps_d, vot, fee in ((10, "0.05", 166, 1.5), (30, "0.2", 283, 3.5)):
                orig, alt = build_theorem4_fixtures(
                    detour, eps_t, eps_d, vot_mils_per_min=vot, change_fee_usd=fee
                )
                v = check_theorem4_dichotomy(orig, alt)
                assert v.passed, v.detail
                branches.add(v.detail.split(",")[0])
        assert branches == {"branch=missed-profitable", "branch=customer-unprofitable"}

    def test_altered_ccp_pooling_under_low_value_of_time(self):
        # cheap change fee and patient riders: the perturbed pair still pools
        _, alt = build_theorem4_fixtures("0.3", 10, "0.05", vot_mils_per_min=166, change_fee_usd=1.5)
        assert run_fixture(alt, Mechanism.CCP).pooled_customers == 2


class TestWeakDominance:
    def test_fixture_battery(self):
        for fx in build_weak_dominance_fixtures():
            v = check_weak_dominance_fixture(fx)
            assert v.passed, (fx.name, v.detail)


class TestIndividualRationalityAudit:
    def test_passes_on_real_ccp_run(self, grid10):
        res = run_sim(config(grid10, Mechanism.CCP, seed=1, mar=Fraction(7, 10)),
                      grid_requests(grid10, 1, 150))
        assert check_individual_rationality(res).passed

    def test_vacuous_on_sro(self, grid10):
        res = run_sim(config(grid10, Mechanism.SRO, seed=1), grid_requests(grid10, 1, 60))
        assert check_individual_rationality(res).passed

    def test_detects_hand_corrupted_fare(self, grid10):
        res = run_sim(config(grid10, Mechanism.CCP, seed=1, mar=Fraction(7, 10)),
                      grid_requests(grid10, 1, 150))
        victim = next(cid for cid, o in res.per_customer.items() if o.pooled)
        o = res.per_customer[victim]
        bump = o.baseline_solitary_cost - o.total_cost + 10  # one cent past the guarantee
        o.fare += bump
        o.total_cost += bump
        v = check_individual_rationality(res)
        assert not v.passed
        assert str(victim) in v.detail

    def test_detects_a_discount_to_an_unpooled_ccp_rider(self, grid10):
        """CCP grants no discount for an unsuccessful matching, so a poolable
        rider left alone pays her quote: the audit fails a discount to her
        that keeps her cost under the baseline."""
        res = run_sim(config(grid10, Mechanism.CCP, seed=1, fleet=20, mar=Fraction(7, 10)),
                      grid_requests(grid10, 1, 300))
        assert check_individual_rationality(res).passed
        victim = next(cid for cid, o in res.per_customer.items() if o.poolable and not o.pooled)
        o = res.per_customer[victim]
        o.fare -= 500  # 50 cents
        o.total_cost -= 500
        v = check_individual_rationality(res)
        assert (v.passed, v.check) == (False, "unpooled-pays-quote")
        assert f"customer {victim}:" in v.detail


class TestReducesToSro:
    def test_one_rule_off_the_shared_solitary_path_fails(self, grid10, monkeypatch):
        """CCP at MAR 0 repeats SRO until its rule logs one umile more on
        each solitary decision: the check names the first such customer."""
        cfg = config(grid10, Mechanism.CCP, seed=2, mar=Fraction(0))
        trips = grid_requests(grid10, 2, 150)
        sro = run_sim(replace(cfg, mechanism=Mechanism.SRO), trips)
        res = run_sim(cfg, trips)
        v = check_reduces_to_sro(res, sro)
        assert v.passed, v.detail
        assert v.detail == f"{len(trips)} decisions compared"
        assign_ccp = simengine.assign_ccp

        def longer(*args):
            d = assign_ccp(*args)
            if d.decision == SOLITARY:
                d.added_distance += 1
            return d

        monkeypatch.setattr(simengine, "assign_ccp", longer)
        res = run_sim(cfg, trips)
        first = next(d for d in sro.decision_log if d.decision == SOLITARY)
        v = check_reduces_to_sro(res, sro)
        assert (v.passed, v.check) == (False, "decisions-match")
        assert v.detail == (f"customer {first.customer}: added_distance "
                            f"{first.added_distance + 1} vs SRO's {first.added_distance}")


class TestFixtureBattery:
    def test_all_fixtures_pass(self):
        verdicts = run_all_fixtures()
        assert verdicts and all(v.passed for v in verdicts), [
            v.row() for v in verdicts if not v.passed
        ]


# ---------------------------------------------------------------------------
# every failing verdict of the run audits, provoked
# ---------------------------------------------------------------------------

def seeded_runs(net, world):
    """A fresh real result of `world` and, for the reduction, its SRO run:
    "ccp" pools under CCP at MAR 0.7, "pcp" under PCP, and "ccp-mar0" is CCP
    at MAR 0, which cannot pool."""
    if world == "ccp-mar0":
        cfg, trips = config(net, Mechanism.CCP, seed=2, mar=Fraction(0)), grid_requests(net, 2, 150)
        return run_sim(cfg, trips), run_sim(replace(cfg, mechanism=Mechanism.SRO), trips)
    mech = Mechanism.CCP if world == "ccp" else Mechanism.PCP
    cfg = config(net, mech, seed=1, fleet=20, mar=Fraction(7, 10))
    return run_sim(cfg, grid_requests(net, 1, 300)), None


def rider(res, want):
    """The first customer, by id, whose record passes `want`."""
    return next(cid for cid, o in sorted(res.per_customer.items()) if want(o))


def recharge(want, mils):
    """The corruption that adds `mils(o)` to the fare and total cost of the
    first rider whose record `o` passes `want`."""
    def corrupt(res, _):
        cid = rider(res, want)
        o = res.per_customer[cid]
        bump = mils(o)
        o.fare += bump
        o.total_cost += bump
        return f"customer {cid}"
    return corrupt


def past_detour_bound(res, _):
    cid = rider(res, lambda o: o.pooled)
    o, net, r = res.per_customer[cid], res.config.network, res.requests[cid]
    direct = net.duration_usec(net.index(r.origin), net.index(r.destination))
    o.dropoff_time = o.pickup_time + floor((1 + res.config.tariff.detour_factor) * direct) + 1
    return f"customer {cid}"


def swapped_entry_times(res, _):
    for v in res.vehicles:
        s = v.schedule
        i = next((i for i in range(len(s) - 1) if s[i].time < s[i + 1].time), None)
        if i is not None:
            s[i], s[i + 1] = s[i]._replace(time=s[i + 1].time), s[i + 1]._replace(time=s[i].time)
            return f"vehicle {v.id}"


def third_pickup(res, _):
    for v in res.vehicles:
        onboard = 0
        for i, e in enumerate(v.schedule):
            onboard += (e.op == PU) - (e.op == DO)
            if onboard == 2:
                v.schedule.insert(i + 1, e)  # a pickup more at the same stop and time
                return f"vehicle {v.id} at t={e.time}"


def late_waypoint(res, _):
    v = next(v for v in res.vehicles if len(v.way_times) > 1)
    v.way_times[1] += 1
    return f"vehicle {v.id}"


def moved(field):
    def corrupt(res, _):
        cid = rider(res, lambda o: True)
        setattr(res.per_customer[cid], field, getattr(res.per_customer[cid], field) + 1)
        return f"customer {cid}"
    return corrupt


def longer_fleet(res, sro):
    res.fleet_distance += 1
    return (f"accounted {res.fleet_distance}" if sro is None
            else f"{res.fleet_distance} vs SRO's {sro.fleet_distance} umiles")


def last_decision_dropped(res, sro):
    res.decision_log.pop()
    return f"{len(res.decision_log)} decisions vs SRO's {len(sro.decision_log)}"


def longer_solitary_decision(res, _):
    d = next(d for d in res.decision_log if d.decision == SOLITARY)
    d.added_distance += 1
    return f"customer {d.customer}: added_distance"


def dearer_fares(res, sro):
    res.fares_total += 1
    return f"{res.fares_total} vs SRO's {sro.fares_total} mils"


# (audit, check) of each failing verdict -> (world, corruption): the
# corruption changes one thing of a fresh real result of the world and
# returns what the failing verdict's detail must name: the customer or
# vehicle at fault, or the two totals that disagree
AUDIT_MUTATIONS = {
    ("check_individual_rationality", "non-poolable-pays-quote"):
        ("ccp", recharge(lambda o: not o.poolable, lambda o: 10)),
    ("check_individual_rationality", "unpooled-pays-quote"):
        ("ccp", recharge(lambda o: o.poolable and not o.pooled, lambda o: -500)),
    ("check_individual_rationality", "total_cost<=baseline"):  # one cent past the guarantee
        ("ccp", recharge(lambda o: o.pooled,
                         lambda o: o.baseline_solitary_cost - o.total_cost + 10)),
    ("check_detour_bounds", "ride<=bound"): ("pcp", past_detour_bound),
    ("check_replay", "times-nondecreasing"): ("ccp", swapped_entry_times),
    ("check_replay", "capacity"): ("ccp", third_pickup),
    ("check_replay", "leg-times"): ("ccp", late_waypoint),
    ("check_replay", "pickups-match"): ("ccp", moved("pickup_time")),
    ("check_replay", "dropoffs-match"): ("ccp", moved("dropoff_time")),
    ("check_replay", "distance-matches"): ("ccp", longer_fleet),
    ("check_reduces_to_sro", "decision-count"): ("ccp-mar0", last_decision_dropped),
    ("check_reduces_to_sro", "decisions-match"): ("ccp-mar0", longer_solitary_decision),
    ("check_reduces_to_sro", "distance-matches"): ("ccp-mar0", longer_fleet),
    ("check_reduces_to_sro", "fares-match"): ("ccp-mar0", dearer_fares),
}
AUDITS = {
    "check_individual_rationality": lambda res, _: check_individual_rationality(res),
    "check_detour_bounds": lambda res, _: check_detour_bounds(res, res.config.tariff.detour_factor),
    "check_replay": lambda res, _: check_replay(res),
    "check_reduces_to_sro": check_reduces_to_sro,
}


@pytest.mark.parametrize("audit,check", list(AUDIT_MUTATIONS),
                         ids=[f"{a}:{c}" for a, c in AUDIT_MUTATIONS])
def test_each_failing_verdict_fires(grid10, audit, check):
    """The audit passes the real run, then fails its one corruption with
    `check` and a detail naming what is at fault."""
    world, corrupt = AUDIT_MUTATIONS[audit, check]
    res, sro = seeded_runs(grid10, world)
    v = AUDITS[audit](res, sro)
    assert v.passed, v.detail
    named = corrupt(res, sro)
    v = AUDITS[audit](res, sro)
    assert (v.passed, v.check) == (False, check), v.detail
    assert re.search(rf"(^|\s){re.escape(named)}(\b|$)", v.detail), (named, v.detail)
