from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ridepool.units import (
    MILS, UMILE, USEC, div_half_even, fmt4, fraction_from, money_sum, ratio_sum,
)

# ints with value * 10**4 / 10**6 ending in exactly one half
HALF_EVEN_TIES = st.integers(-10**9, 10**9).map(lambda k: 100 * k + 50)
PERS = st.sampled_from([1, MILS, UMILE, USEC])


def fmt4_via_fraction(value, per=1):
    """The rendering through one `Fraction` per value: value / per, reduced, then rounded."""
    if isinstance(value, int):
        scaled = div_half_even(value * 10**4, per)
    else:
        frac = value / per
        scaled = div_half_even(frac.numerator * 10**4, frac.denominator)
    sign = "-" if scaled < 0 else ""
    mag = abs(scaled)
    return f"{sign}{mag // 10**4}.{mag % 10**4:04d}"


@st.composite
def values_and_pers(draw):
    """(value, per): ints, fractions, and values whose rendering is an exact half-way tie."""
    per = draw(PERS)
    kind = draw(st.sampled_from(["int", "fraction", "tie"]))
    if kind == "int":
        return draw(st.integers(-10**15, 10**15)), per
    if kind == "fraction":
        return Fraction(draw(st.integers(-10**15, 10**15)), draw(st.integers(1, 10**6))), per
    # value / per * 10**4 == k + 1/2; an int when it divides out
    value = Fraction((2 * draw(st.integers(-10**9, 10**9)) + 1) * per, 2 * 10**4)
    return (int(value) if value.denominator == 1 else value), per


class TestFmt4:
    @given(st.one_of(st.integers(-10**15, 10**15), HALF_EVEN_TIES),
           st.sampled_from([1, 1000, 10**6]))
    @example(0, 1)
    @example(50, 10**6)  # 0.00005 rounds down to even
    @example(150, 10**6)  # 0.00015 rounds up to even
    @example(-150, 10**6)
    def test_int_path_matches_fraction_path(self, value, per):
        assert fmt4(value, per) == fmt4(Fraction(value), per)

    @given(values_and_pers())
    @example((Fraction(1, 2), 1))
    @example((Fraction(-3, 20000), 1))  # -0.00015 rounds to even, -0.0002
    @example((Fraction(5, 2), MILS))  # 0.0025 mils per dollar, a tie at 0.00025
    def test_matches_the_fraction_formula(self, case):
        value, per = case
        assert fmt4(value, per) == fmt4_via_fraction(value, per)

    def test_builds_no_fraction(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("fmt4 built a Fraction")

        quarter, third = Fraction(1, 4), Fraction(-1, 3)
        monkeypatch.setattr(Fraction, "__new__", no_fraction)
        assert fmt4(quarter, MILS) == "0.0002"  # 0.00025, a tie
        assert fmt4(third, 1) == "-0.3333"
        assert fmt4(-150, USEC) == "-0.0002"

    def test_ties_round_half_to_even(self):
        assert [fmt4(v, 10**6) for v in (50, 150, -50, -150)] == [
            "0.0000", "0.0002", "0.0000", "-0.0002"]


class TestFractionFrom:
    @pytest.mark.parametrize("value,message", [
        ("abc", "cannot read 'abc' as a number"),
        (None, "cannot read None as a number"),
        # Python counts a bool an int, but a JSON `true` is no number
        (True, "cannot read True as a number"),
        (False, "cannot read False as a number"),
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


MONEY = st.one_of(
    st.integers(-10**9, 10**9),
    st.fractions(max_denominator=10**4),
    st.integers(-10**9, 10**9).map(Fraction),  # integral, yet a Fraction
    st.integers(-10**9, 10**9).map(lambda n: Fraction(n, 2)),
)


class TestMoneySum:
    @given(st.lists(MONEY, max_size=40))
    @example([])
    @example([3500, 1500])
    @example([Fraction(7001, 2), Fraction(4999, 2)])  # integral total, still a Fraction
    @example([2, Fraction(5, 1)])
    def test_value_and_type_of_builtin_sum(self, values):
        # digests render a value through its type: 5 and Fraction(5) differ there
        got, want = money_sum(values), sum(values)
        assert (type(got), got) == (type(want), want)


class TestRatioSum:
    @given(st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(1, 10**6)), max_size=40))
    @example([])
    @example([(3, 6), (-1, 2)])  # a zero total, still a Fraction
    @example([(7, 4), (5, 6), (1, 4)])  # denominators with a common factor
    def test_value_and_type_of_builtin_sum(self, pairs):
        got, want = ratio_sum(pairs), sum(Fraction(n, d) for n, d in pairs)
        assert (type(got), got) == (type(want), want)

    def test_takes_a_generator(self):
        # as `SimResult.sums` and `money_sum` pass it
        assert ratio_sum((n, 3) for n in range(4)) == Fraction(2)
