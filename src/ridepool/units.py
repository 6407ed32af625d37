"""Exact unit handling.

All quantities are integers internally so every comparison and every output
is exact and reproducible:

* time       -> microseconds  (``USEC`` per second)
* distance   -> micro-miles   (``UMILE`` per mile)
* money      -> mils, i.e. tenths of a cent (``MILS`` per dollar)

Conversions from human-readable values happen once, at ingestion, and use
decimal parsing so literals such as ``0.2`` or ``2.945`` convert exactly.
Division rounds half to even.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import lcm

USEC = 10**6
UMILE = 10**6
MILS = 1000

SECONDS_PER_MINUTE = 60

Money = int | Fraction  # mils; Fraction where exact halving is required


def div_half_even(num: int, den: int) -> int:
    """num / den rounded half to even, exact integer arithmetic."""
    if den == 0:
        raise ZeroDivisionError("division by zero")
    if den < 0:
        num, den = -num, -den
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2):
        q += 1
    return q


def money_sum(values: list[Money]) -> Money:
    """`sum(values)`, of its value and type: an int when every value is one,
    otherwise a Fraction, even an integral one.  With a Fraction among them,
    the numerators of each denominator add as ints and one Fraction is built
    over the denominators' lcm."""
    if Fraction not in set(map(type, values)):
        return sum(values)
    nums: dict[int, int] = {}
    for x in values:
        nums[x.denominator] = nums.get(x.denominator, 0) + x.numerator
    den = lcm(*nums)
    return Fraction(sum(n * (den // q) for q, n in nums.items()), den)


def fraction_from(value: int | float | str | Fraction | Decimal) -> Fraction:
    """Exact fraction from a decimal literal, float repr, int or Fraction.

    Raises ValueError naming the value when it is not a number (a bool is
    not one, though Python counts it an int), not finite, or nonzero with a
    decimal exponent beyond +-30 (an exact conversion of a huge exponent
    would not finish)."""
    if isinstance(value, bool):
        raise ValueError(f"cannot read {value!r} as a number")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        # repr() is the shortest exact decimal rendering, so 0.2 stays 1/5
        dec = Decimal(repr(value) if isinstance(value, float) else value)
    except (ArithmeticError, TypeError, ValueError):
        raise ValueError(f"cannot read {value!r} as a number") from None
    if not dec.is_finite():
        raise ValueError(f"{value!r} is not a finite number")
    if dec and abs(dec.adjusted()) > 30:
        raise ValueError(f"{value!r} has a decimal exponent beyond +-30")
    return Fraction(dec)


def round_fraction(value: Fraction) -> int:
    return div_half_even(value.numerator, value.denominator)


def _scaled(value, scale: int) -> int:
    return round_fraction(fraction_from(value) * scale)


def usec_from_seconds(seconds) -> int:
    return _scaled(seconds, USEC)


def umiles_from_miles(miles) -> int:
    return _scaled(miles, UMILE)


def mils_from_usd(usd) -> int:
    return _scaled(usd, MILS)


def time_cost_mils(vot_mils_per_min: int, span_usec: int) -> int:
    """Cost of a time span for a value of time given in mils per minute."""
    return div_half_even(vot_mils_per_min * span_usec, SECONDS_PER_MINUTE * USEC)


def distance_charge_mils(rate_mils_per_mile: int, dist_umiles: int) -> int:
    """Distance-proportional charge, rounded once on the total."""
    return div_half_even(rate_mils_per_mile * dist_umiles, UMILE)


def fmt4(value: int | Fraction, per: int = 1) -> str:
    """Render value/per with exactly four decimals, rounding half to even."""
    # an int's denominator is 1; rounding needs no fraction in lowest terms
    scaled = div_half_even(value.numerator * 10**4, value.denominator * per)
    sign = "-" if scaled < 0 else ""
    mag = abs(scaled)
    return f"{sign}{mag // 10**4}.{mag % 10**4:04d}"


def fmt_opt(value, render=fmt4) -> str:
    """`render(value)`, or "n/a" for a missing value."""
    return "n/a" if value is None else render(value)


def fmt_usd(mils: Money) -> str:
    return fmt4(mils, MILS)


def fmt_miles(umiles: int) -> str:
    return fmt4(umiles, UMILE)


def fmt_seconds(usec: int) -> str:
    return fmt4(usec, USEC)
