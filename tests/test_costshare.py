from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridepool.costshare import (
    InfeasibleRun,
    RunAccount,
    RunMember,
    goalprog_split,
    shapley_split,
)
from ridepool.io import run_split_rows
from ridepool.units import fmt4, fmt_usd
from tests._split_oracle import (
    TooLarge, fraction_goalprog_split, oracle_split, saver_counts, savings,
)

USD = 1000  # mils per dollar


def account(cs, aa, fare, run_id="r0"):
    members = tuple(
        RunMember(customer=i + 1, solitary_cost=c * USD, pooled_time_cost=a * USD)
        for i, (c, a) in enumerate(zip(cs, aa))
    )
    return RunAccount(run_id=run_id, members=members, run_fare=fare * USD)


THRESHOLDS = (Fraction(5, 100), Fraction(10, 100), Fraction(15, 100), Fraction(20, 100))


class TestShapley:
    def test_symmetric_pair(self):
        acct = account((10, 10), (1, 1), 14)
        fares = shapley_split(acct)
        assert list(fares.values()) == [7000, 7000]
        assert list(savings(acct, fares).values()) == [Fraction(1, 5), Fraction(1, 5)]

    def test_zero_surplus(self):
        acct = account((10, 10), (1, 1), 18)
        fares = shapley_split(acct)
        assert list(fares.values()) == [9000, 9000]
        assert all(s == 0 for s in savings(acct, fares).values())

    def test_asymmetric_pair_equal_absolute_savings(self):
        acct = account((20, 10), (2, 1), 23)
        fares = shapley_split(acct)
        assert fares[1] == 16000 and fares[2] == 7000
        # equal absolute savings, unequal relative ones
        saved = savings(acct, fares)
        assert saved[1] * 20000 == saved[2] * 10000 == 2000

    def test_infeasible_run_rejected(self):
        with pytest.raises(InfeasibleRun):
            shapley_split(account((10, 10), (1, 1), 19))

    def test_chains_are_not_pairwise(self):
        with pytest.raises(ValueError):
            shapley_split(account((10, 10, 10), (1, 1, 1), 20))


class TestGoalProg:
    def test_generous_budget_promotes_everyone(self):
        acct = account((10, 10), (1, 1), 14)
        fares = goalprog_split(acct, THRESHOLDS)
        assert saver_counts(acct, fares, THRESHOLDS) == (2, 2, 2, 2)
        assert list(fares.values()) == [7000, 7000]

    def test_tight_budget_single_saver_is_smaller_cost(self):
        acct = account((10, 10), (1, 1), 17)
        fares = goalprog_split(acct, (Fraction(1, 10),))
        assert saver_counts(acct, fares, (Fraction(1, 10),)) == (1,)
        # tie on solitary cost -> lower customer id becomes the saver
        assert savings(acct, fares) == {1: Fraction(1, 10), 2: 0}
        assert fares == {1: 8000, 2: 9000}

    def test_fares_sum_exactly_and_nobody_loses(self):
        acct = account((12, 7, 23), (2, 1, 4), 30)
        fares = goalprog_split(acct, THRESHOLDS)
        assert sum(fares.values()) == acct.run_fare
        assert all(s >= 0 for s in savings(acct, fares).values())

    def test_counts_monotone_and_prefix_stable(self):
        acct = account((12, 7, 23, 9), (2, 1, 4, 3), 38)
        counts = saver_counts(acct, goalprog_split(acct, THRESHOLDS), THRESHOLDS)
        assert list(counts) == sorted(counts, reverse=True)
        for k in range(1, len(THRESHOLDS) + 1):
            sub = goalprog_split(acct, THRESHOLDS[:k])
            assert saver_counts(acct, sub, THRESHOLDS[:k]) == counts[:k]

    def test_residual_spread_keeps_promised_levels(self):
        # budget between levels: promoted customers keep at least their sigma
        acct = account((10, 10), (1, 1), 15)  # budget 3.0
        levels = (Fraction(1, 10), Fraction(2, 10))
        fares = goalprog_split(acct, levels)
        assert saver_counts(acct, fares, levels) == (2, 1)
        savers = savings(acct, fares)
        assert savers[1] >= Fraction(2, 10)
        assert savers[2] >= Fraction(1, 10)
        assert sum(fares.values()) == acct.run_fare

    # costs (10, 20, 40), pooled time (1, 2, 4): willingness 63, so the fare
    # sets the budget; thresholds 1/10 then 3/10 cost 1, 3, 7 and 2, 6, 14
    # for the cheapest one, two and three riders
    LEVELS = (Fraction(1, 10), Fraction(3, 10))

    @staticmethod
    def assert_exact(fares, expected):
        assert fares == expected
        assert all(type(f) is Fraction for f in fares.values())

    def test_leftover_goes_to_previous_level_when_last_keeps_nobody(self):
        # budget 4: riders 1, 2 reach 1/10 (3), nobody can take the step to
        # 3/10 (2 > 1), so the 1 left is spread over riders 1, 2 (cost 30)
        fares = goalprog_split(account((10, 20, 40), (1, 2, 4), 59), self.LEVELS)
        self.assert_exact(fares, {1: Fraction(23000, 3), 2: Fraction(46000, 3), 3: Fraction(36000)})

    def test_leftover_goes_to_everyone_when_nobody_reaches_first(self):
        # budget 1 < 2, the cheapest rider's step to 1/5: all save 1/70
        fares = goalprog_split(account((10, 20, 40), (1, 2, 4), 62), (Fraction(1, 5), Fraction(3, 10)))
        self.assert_exact(fares, {1: Fraction(62000, 7), 2: Fraction(124000, 7),
                                  3: Fraction(248000, 7)})

    def test_levels_spend_budget_exactly(self):
        # budget 5: riders 1, 2 reach 1/10 (3), rider 1 then 3/10 (2)
        fares = goalprog_split(account((10, 20, 40), (1, 2, 4), 58), self.LEVELS)
        self.assert_exact(fares, {1: Fraction(6000), 2: Fraction(16000), 3: Fraction(36000)})


class TestOracle:
    def test_matches_goalprog_on_pairs(self):
        for fare in (14, 15, 16, 17, 18):
            acct = account((10, 10), (1, 1), fare)
            fares = goalprog_split(acct, THRESHOLDS)
            assert oracle_split(acct, THRESHOLDS) == saver_counts(acct, fares, THRESHOLDS)

    def test_tight_pair_count(self):
        assert oracle_split(account((10, 10), (1, 1), 17), (Fraction(1, 10),)) == (1,)

    def test_three_customer_chain(self):
        acct = account((10, 10, 20), (1, 1, 2), 30)
        assert oracle_split(acct, (Fraction(5, 100),)) == (3,)

    def test_rejects_large_runs(self):
        with pytest.raises(TooLarge):
            oracle_split(account((5, 5, 5, 5, 5), (1, 1, 1, 1, 1), 10), THRESHOLDS)


class TestEquivalence:
    @given(
        st.integers(2, 4),
        st.integers(0, 10**6),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_goalprog_equals_oracle(self, n, seed, data):
        rng = np.random.default_rng(seed)
        cs = [int(rng.integers(2000, 50000)) for _ in range(n)]
        aa = [int(rng.integers(0, c)) for c in cs]
        willing = sum(c - a for c, a in zip(cs, aa))
        fare = int(rng.integers(0, willing + 1))
        members = tuple(
            RunMember(customer=i, solitary_cost=c, pooled_time_cost=a)
            for i, (c, a) in enumerate(zip(cs, aa))
        )
        acct = RunAccount(run_id="x", members=members, run_fare=fare)
        fares = goalprog_split(acct, THRESHOLDS)
        # the counts that the fares' savings realize are the optimum
        assert saver_counts(acct, fares, THRESHOLDS) == oracle_split(acct, THRESHOLDS)
        assert sum(fares.values()) == fare
        assert all(s >= 0 for s in savings(acct, fares).values())


# thresholds over denominators 7, 3, 5, 2 and 4 (lcm 420), so that no one
# threshold's denominator is a multiple of every other's
MIXED = (Fraction(1, 7), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4))


@st.composite
def mixed_runs(draw):
    """A run of 2-9 riders and mixed-denominator thresholds.  The budget is
    none (the fare takes all), exactly a level's cost for the cheapest
    riders, the riders' full willingness (fare 0), or any."""
    n = draw(st.integers(2, 9))
    sigmas = tuple(sorted(draw(st.sets(st.sampled_from(MIXED), min_size=1))))
    kind = draw(st.sampled_from(["zero", "level", "full", "any"]))
    # a level's cost is whole mils when every solitary cost is a multiple of 420
    unit = 420 if kind == "level" else 1
    cost = st.integers(1, 120 if unit > 1 else 50_000).map(lambda k: k * unit)
    cs = [draw(cost)] * n if draw(st.booleans()) else draw(st.lists(cost, min_size=n, max_size=n))
    # pooled time costs of at most a quarter of c keep every level affordable
    aa = [draw(st.integers(0, c // 4 if unit > 1 else c)) for c in cs]
    willing = sum(c - a for c, a in zip(cs, aa))
    if kind == "level":
        sigma = draw(st.sampled_from(sigmas))
        budget = sigma * sum(sorted(cs)[:draw(st.integers(1, n))])
    elif kind == "any":
        budget = draw(st.integers(0, willing))
    else:
        budget = 0 if kind == "zero" else willing
    ids = draw(st.permutations(range(10, 10 + n)))  # member order differs from id order
    members = tuple(RunMember(customer=i, solitary_cost=c, pooled_time_cost=a)
                    for i, c, a in zip(ids, cs, aa))
    return RunAccount(run_id="x", members=members, run_fare=willing - int(budget)), sigmas


class TestIntegerSplit:
    @given(mixed_runs())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_fraction_split(self, case):
        acct, sigmas = case
        fares, reference = goalprog_split(acct, sigmas), fraction_goalprog_split(acct, sigmas)
        assert fares == reference
        assert list(fares) == [m.customer for m in acct.members]
        # a Fraction even when the fare is a whole number of mils
        assert all(type(f) is Fraction for f in fares.values())
        rows = list(run_split_rows(acct, fares, ()))
        assert [row[-2] for row in rows] == [fmt_usd(reference[m.customer]) for m in acct.members]
        assert [row[-1] for row in rows] == [fmt4(s) for s in savings(acct, reference).values()]
