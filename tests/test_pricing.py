from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridepool.domain import Request
from ridepool.harness import ScenarioGrid
from ridepool.netgraph import make_grid
from ridepool.pricing import (
    pcp_fare,
    provider_profit,
    solitary_fare,
    total_cost,
)
from ridepool.units import MILS, UMILE, USEC, Money, distance_charge_mils
from tests._fare_oracle import (
    InvalidGeometry, PoolGeometry, ccp_pooled_fare, route_distance_umiles,
)
from tests.conftest import ends, line_network, sec


@pytest.fixture(scope="module")
def tariff():
    return ScenarioGrid().tariff()


@pytest.fixture(scope="module")
def line():
    return line_network(8)


def req(i, o, d, t=0, vot_mils_min=225, wait_s=600, poolable=True):
    return Request(i, o, d, sec(t), vot_mils_min, sec(wait_s), poolable)


class TestTariffRefusals:
    @pytest.mark.parametrize("field,value,message", [
        ("base_fare", -1, "base fare and change fee must be non-negative"),
        ("change_fee", -1, "base fare and change fee must be non-negative"),
        ("per_mile", 0, "per-mile rates must be positive"),
        ("provider_cost_per_mile", -5, "per-mile rates must be positive"),
        ("discount_factor", 0, "discount factor must be in (0, 1]"),
        ("discount_factor", Fraction(5, 4), "discount factor must be in (0, 1]"),
        ("detour_factor", 0, "detour factor must be positive"),
    ])
    def test_out_of_range_field_is_named(self, tariff, field, value, message):
        with pytest.raises(ValueError) as err:
            replace(tariff, **{field: value})
        assert str(err.value) == message


class TestSolitaryFare:
    def test_two_mile_trip(self, tariff):
        # 2.50 base + 2.50/mi ($0.50 per fifth of a mile) on 2 miles
        net = line_network(12)  # 0.2 mi edges
        assert solitary_fare(tariff, net, net.index("A"), net.index("K")) == 7500

    def test_single_edge(self, tariff, line):
        assert solitary_fare(tariff, line, line.index("A"), line.index("B")) == 3000


class TestPcpFare:
    def test_discount(self, tariff):
        assert pcp_fare(tariff, 7500) == 6000

    def test_no_discount_factor_one(self):
        t = ScenarioGrid().tariff(discount=Fraction(1))
        assert pcp_fare(t, 12345) == 12345

    def test_085(self):
        t = ScenarioGrid().tariff(discount=Fraction(85, 100))
        assert pcp_fare(t, 10000) == 8500


class TestPooledFare:
    def test_case3_unit_legs(self, tariff, line):
        # legs o_i -> o_j -> d_i -> d_j, one edge each: 2.50 + 2.50*0.6 + 2.00
        i = req(1, "A", "C")
        j = req(2, "B", "D", t=1)
        geom = PoolGeometry(case=3, request_time_j=sec(1), pickup_time_i=sec(2))
        assert ccp_pooled_fare(tariff, line, i, j, geom) == 6000

    def test_case4_degenerate_pair_is_solitary_plus_change_fee(self, tariff, line):
        i = req(1, "B", "E")
        j = req(2, "B", "E", t=1)
        geom = PoolGeometry(case=4, request_time_j=sec(1), pickup_time_i=sec(2))
        fare = ccp_pooled_fare(tariff, line, i, j, geom)
        assert fare == solitary_fare(tariff, line, *ends(line, i)) + tariff.change_fee

    def test_case1_zero_leg_when_vehicle_at_new_origin(self, tariff, line):
        i = req(1, "A", "E")
        j = req(2, "C", "F", t=1)
        geom = PoolGeometry(
            case=1, request_time_j=sec(1), pickup_time_i=sec(0), vehicle_location="C"
        )
        fare = ccp_pooled_fare(tariff, line, i, j, geom)
        # A->C (0.4) + C->C (0) + C->E (0.4) + E->F (0.2)
        assert fare == 2500 + 2500 + 2000

    def test_rejects_inconsistent_onboard_claim(self, tariff, line):
        i = req(1, "A", "E")
        j = req(2, "C", "F", t=1)
        with pytest.raises(InvalidGeometry):
            PoolGeometry(case=1, request_time_j=sec(1), pickup_time_i=sec(5), vehicle_location="B")
        with pytest.raises(InvalidGeometry):
            PoolGeometry(case=3, request_time_j=sec(1), pickup_time_i=sec(1))

    def test_fare_matches_independent_leg_sum(self, tariff):
        # oracle: rebuild the stop sequence and sum shortest-path legs
        grid = make_grid(4, 4, 0.2, 30)
        rng = np.random.default_rng(3)
        names = grid.node_ids
        for _ in range(60):
            a, b, c, d, l = (names[k] for k in rng.integers(0, 16, size=5))
            if a == b or c == d:
                continue
            i = req(1, a, b)
            j = req(2, c, d, t=1)
            for case in range(1, 7):
                geom = PoolGeometry(
                    case=case,
                    request_time_j=sec(1),
                    pickup_time_i=sec(0) if case <= 2 else sec(9),
                    vehicle_location=l if case <= 2 else None,
                )
                seqs = {
                    1: (a, l, c, b, d),
                    2: (a, l, c, d, b),
                    3: (a, c, b, d),
                    4: (a, c, d, b),
                    5: (c, a, b, d),
                    6: (c, a, d, b),
                }
                legs = route_distance_umiles(grid, seqs[case])
                charge = distance_charge_mils(tariff.per_mile, legs)
                expected = tariff.base_fare + charge + tariff.change_fee
                assert ccp_pooled_fare(tariff, grid, i, j, geom) == expected


class TestTotalCost:
    def test_ten_minute_ride(self):
        r = req(1, "A", "B", t=0, vot_mils_min=225)
        assert total_cost(7500, r, sec(600)) == 9750

    def test_zero_duration(self):
        r = req(1, "A", "B", t=5, vot_mils_min=225)
        assert total_cost(7500, r, sec(5)) == 7500

    def test_zero_value_of_time(self):
        r = req(1, "A", "B", t=0, vot_mils_min=0)
        assert total_cost(4200, r, sec(86400)) == 4200

    def test_monotone_in_dropoff_and_affine_in_fare(self):
        r = req(1, "A", "B", t=0, vot_mils_min=195)
        costs = [total_cost(5000, r, sec(s)) for s in range(0, 1200, 60)]
        assert costs == sorted(costs)
        assert total_cost(6000, r, sec(300)) - total_cost(5000, r, sec(300)) == 1000

    def test_scaling_value_of_time_scales_only_time_component(self):
        lo = req(1, "A", "B", t=0, vot_mils_min=100)
        hi = req(2, "A", "B", t=0, vot_mils_min=300)
        fare = 5000
        t_lo = total_cost(fare, lo, sec(600)) - fare
        t_hi = total_cost(fare, hi, sec(600)) - fare
        assert t_hi == 3 * t_lo


@dataclass(frozen=True)
class CostQuote:
    """Frozen per-customer economics: fare, dropoff time and total cost."""

    fare: Money
    dropoff_time: int  # usec
    total_cost: Money


def quote(fare: Money, r: Request, dropoff: int) -> CostQuote:
    return CostQuote(fare=fare, dropoff_time=dropoff, total_cost=total_cost(fare, r, dropoff))


class TestQuote:
    def test_quote_bundles_the_cost_identity(self):
        r = req(1, "A", "B", t=0, vot_mils_min=225)
        q = quote(7500, r, sec(600))
        assert q.fare == 7500 and q.dropoff_time == sec(600)
        assert q.total_cost == total_cost(q.fare, r, q.dropoff_time)


class TestProviderProfit:
    def test_gain(self, tariff):
        assert provider_profit(100_000, 20 * UMILE, tariff) == 41_100

    def test_all_zero(self, tariff):
        assert provider_profit(0, 0, tariff) == 0

    def test_loss(self, tariff):
        assert provider_profit(10_000, 10 * UMILE, tariff) == -19_450


class TestPcpProperties:
    @given(st.integers(0, 10**6), st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_discount_never_exceeds_solitary(self, solitary, pct):
        t = ScenarioGrid().tariff(discount=Fraction(pct, 100))
        assert pcp_fare(t, solitary) <= solitary
        if pct == 100:
            assert pcp_fare(t, solitary) == solitary
