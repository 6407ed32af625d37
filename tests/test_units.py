from fractions import Fraction

from hypothesis import example, given, strategies as st

from ridepool.units import fmt4

# ints with value * 10**4 / 10**6 ending in exactly one half
HALF_EVEN_TIES = st.integers(-10**9, 10**9).map(lambda k: 100 * k + 50)


class TestFmt4:
    @given(st.one_of(st.integers(-10**15, 10**15), HALF_EVEN_TIES),
           st.sampled_from([1, 1000, 10**6]))
    @example(0, 1)
    @example(50, 10**6)  # 0.00005 rounds down to even
    @example(150, 10**6)  # 0.00015 rounds up to even
    @example(-150, 10**6)
    def test_int_path_matches_fraction_path(self, value, per):
        assert fmt4(value, per) == fmt4(Fraction(value), per)

    def test_ties_round_half_to_even(self):
        assert [fmt4(v, 10**6) for v in (50, 150, -50, -150)] == [
            "0.0000", "0.0002", "0.0000", "-0.0002"]
