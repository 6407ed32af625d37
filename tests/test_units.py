from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ridepool.units import fmt4, fraction_from

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


class TestFractionFrom:
    @pytest.mark.parametrize("value,message", [
        ("abc", "cannot read 'abc' as a number"),
        (None, "cannot read None as a number"),
        ("nan", "'nan' is not a finite number"),
        (float("inf"), "inf is not a finite number"),
        ("1e31", "'1e31' has a decimal exponent beyond +-30"),
        ("-2e-31", "'-2e-31' has a decimal exponent beyond +-30"),
        # a huge exponent is refused before any exact conversion is tried
        ("1e999999999", "'1e999999999' has a decimal exponent beyond +-30"),
    ])
    def test_rejects_with_the_text(self, value, message):
        with pytest.raises(ValueError) as err:
            fraction_from(value)
        assert str(err.value) == message

    @pytest.mark.parametrize("value,exact", [
        ("0.2", Fraction(1, 5)), (0.2, Fraction(1, 5)), ("9e30", 9 * 10**30),
        ("1e-30", Fraction(1, 10**30)), ("0E-99", 0), (Decimal("2.945"), Fraction(589, 200)),
    ])
    def test_reads_exactly(self, value, exact):
        assert fraction_from(value) == exact
