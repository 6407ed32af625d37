from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ridepool import simengine
from ridepool.domain import Request
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
    check_individual_rationality,
    check_reduces_to_sro,
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
