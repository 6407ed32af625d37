"""Ex-post division of a pooled run's fare among its customers.

For every run the provider has collected one total fare.  Each customer i
has a frozen solitary-ride total cost ``c_i`` and a pooled cost of time
``a_i``; her relative saving ``s_i`` is defined through
``fare_i + a_i = (1 - s_i) * c_i``.  Fares must sum to the run fare exactly
and nobody may end up worse off than riding alone (``s_i >= 0``).

Two schemes are implemented, each returning the run's fare map
``{customer: fare}`` in mils; a saving, and a count of savers, is derived
from a fare through the definition above:

* ``shapley_split`` -- the two-rider surplus is shared equally, so both
  customers save the same absolute amount.
* ``goalprog_split`` -- lexicographically maximizes, threshold by
  threshold, the number of customers whose relative saving reaches that
  threshold, never lowering an earlier count.  The run-level problem
  decomposes into exact budget checks over selections of the smallest
  solitary costs, so no mathematical-programming solver is involved; they
  run in integers over the thresholds' common denominator, and each fare is
  built as one Fraction at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Sequence


class InfeasibleRun(Exception):
    """The run fare exceeds the customers' combined willingness to pay."""


@dataclass(frozen=True)
class RunMember:
    customer: int
    solitary_cost: int  # mils, frozen baseline c_i
    pooled_time_cost: int  # mils, a_i


@dataclass(frozen=True)
class RunAccount:
    """Billing view of one pooled run."""

    run_id: str
    members: tuple[RunMember, ...]
    run_fare: int  # mils

    def budget(self) -> int:
        """Total surplus available for distribution (may not be negative)."""
        return sum(m.solitary_cost - m.pooled_time_cost for m in self.members) - self.run_fare


def _check_feasible(acct: RunAccount) -> int:
    budget = acct.budget()
    if budget < 0:
        raise InfeasibleRun(
            f"run {acct.run_id}: fare {acct.run_fare} exceeds willingness {acct.run_fare + budget}"
        )
    for m in acct.members:
        if m.solitary_cost <= 0:
            raise InfeasibleRun(f"run {acct.run_id}: non-positive solitary cost for {m.customer}")
    return budget


def shapley_split(acct: RunAccount) -> dict[int, Fraction]:
    """Fare map of an equal split of a two-rider surplus: both save budget/2
    in absolute terms."""
    if len(acct.members) != 2:
        raise ValueError(
            f"run {acct.run_id}: shapley splits rider pairs only ({len(acct.members)} riders; "
            "chained runs are priced per pooling event inside the simulation) - use goalprog"
        )
    budget = _check_feasible(acct)
    half = Fraction(budget, 2)
    return {m.customer: m.solitary_cost - m.pooled_time_cost - half for m in acct.members}


def goalprog_split(acct: RunAccount, sigmas: Sequence[Fraction]) -> dict[int, Fraction]:
    """Fare map of a lexicographic maximization of per-threshold saver counts.

    One pass over the thresholds: each level keeps the longest
    cheapest-first prefix (smallest solitary cost, then lowest id) of the
    previous level's members whose step to the threshold the remaining
    budget pays, and sets their saving to it.  What is left goes to the last
    non-empty level, or to everyone when nobody reached the first
    threshold, in proportion to solitary cost, i.e. as a uniform bump of
    their relative saving.

    It works in integers over the lcm ``L`` of the thresholds' denominators
    and never builds the leftover's share: each fare is one Fraction over
    ``L`` times the recipients' summed solitary cost (or 1, if none is left).

    The thresholds `sigmas` must be exact Fractions, strictly increasing
    and in (0, 1); `SimConfig` and `cli._thresholds` check them, not this.
    """
    den = lcm(*(s.denominator for s in sigmas))
    budget = _check_feasible(acct) * den
    order = sorted(acct.members, key=lambda m: (m.solitary_cost, m.customer))
    prefix = list(accumulate((m.solitary_cost for m in order), initial=0))
    saving = dict.fromkeys((m.customer for m in order), 0)  # in units of 1/den
    reached = recipients = len(order)
    levels = [s.numerator * (den // s.denominator) for s in sigmas]  # each sigma * den
    for prev, level in zip([0, *levels], levels):
        step = level - prev
        while reached and step * prefix[reached] > budget:
            reached -= 1
        budget -= step * prefix[reached]
        for m in order[:reached]:
            saving[m.customer] = level
        recipients = reached or recipients
    per = prefix[recipients] if budget else 1  # the leftover's share is budget / per
    left = dict.fromkeys((m.customer for m in order[:recipients]), budget)
    return {m.customer: Fraction((m.solitary_cost - m.pooled_time_cost) * den * per
                                 - (saving[m.customer] * per + left.get(m.customer, 0))
                                 * m.solitary_cost, den * per)
            for m in acct.members}
