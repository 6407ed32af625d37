"""References for `goalprog_split`: its fares and its saver counts.

`fraction_goalprog_split` is the split done step by step in Fraction
arithmetic, whose fare map the integer split must equal.  `oracle_split`
enumerates every assignment of a saver level to each customer; the
lexicographically largest count vector among those that fit the run's
budget is the optimum the goal-programming split must reach.  A split's
own counts are derived from its fare map (`saver_counts`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Sequence

from ridepool.costshare import RunAccount, _check_feasible


def savings(acct: RunAccount, fares) -> dict[int, Fraction]:
    """Each member's relative saving ``1 - (fare + a) / c`` under the fare
    map `fares`, as `io` writes it."""
    return {m.customer: 1 - Fraction(fares[m.customer] + m.pooled_time_cost, m.solitary_cost)
            for m in acct.members}


def saver_counts(acct: RunAccount, fares, thresholds: Sequence) -> tuple[int, ...]:
    """The number of members whose saving under `fares` reaches each threshold."""
    saved = savings(acct, fares).values()
    return tuple(sum(1 for s in saved if s >= t) for t in thresholds)


class TooLarge(Exception):
    """The enumeration oracle only handles runs of up to four customers."""


def oracle_split(acct: RunAccount, sigmas: Sequence[Fraction]) -> tuple[int, ...]:
    """Brute-force lexicographic optimum over all per-customer saver levels.

    Assigning customer i the deepest threshold she reaches costs
    ``sigma_level * c_i`` of the run budget; a level vector is feasible iff
    those requirements fit the budget.  Counts follow by nesting.  The
    thresholds become integer numerators over their common denominator, so
    the budget test compares integers.
    """
    if len(acct.members) > 4:
        raise TooLarge("oracle enumerates runs of at most 4 customers")
    budget = _check_feasible(acct)
    den = lcm(*(s.denominator for s in sigmas))
    nums = [s.numerator * (den // s.denominator) for s in sigmas]
    # each member's share of the scaled budget at level 0 (no threshold
    # reached) and at level l + 1 (threshold l reached)
    needs = [[0] + [num * m.solitary_cost for num in nums] for m in acct.members]
    scaled_budget = budget * den

    best: tuple[int, ...] | None = None
    for assignment in itertools.product(range(len(sigmas) + 1), repeat=len(needs)):
        if sum(need[lvl] for need, lvl in zip(needs, assignment)) > scaled_budget:
            continue
        counts = tuple(sum(1 for lvl in assignment if lvl > k) for k in range(len(sigmas)))
        if best is None or counts > best:
            best = counts
    assert best is not None  # the all-zero assignment is always feasible
    return best


def fraction_goalprog_split(acct: RunAccount, sigmas: Sequence[Fraction]) -> dict[int, Fraction]:
    """`goalprog_split` with every step in Fraction arithmetic: the budget,
    each step times a prefix of solitary costs, each saving and each fare."""
    budget = Fraction(_check_feasible(acct))
    order = sorted(acct.members, key=lambda m: (m.solitary_cost, m.customer))
    prefix = list(accumulate((m.solitary_cost for m in order), initial=0))
    saving = dict.fromkeys((m.customer for m in order), Fraction(0))
    reached = recipients = len(order)
    prev_sigma = Fraction(0)
    for sigma in sigmas:
        step = sigma - prev_sigma
        while reached and step * prefix[reached] > budget:
            reached -= 1
        budget -= step * prefix[reached]
        for m in order[:reached]:
            saving[m.customer] = sigma
        recipients = reached or recipients
        prev_sigma = sigma
    if budget:  # left over after the levels
        for m in order[:recipients]:
            saving[m.customer] += budget / prefix[recipients]
    return {m.customer: m.solitary_cost - m.pooled_time_cost - saving[m.customer] * m.solitary_cost
            for m in acct.members}
