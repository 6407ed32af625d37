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
  solitary costs, so no mathematical-programming solver is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    At each level the cheapest-to-satisfy customers (smallest solitary
    cost, then lowest id) are promoted while earlier levels' counts are
    preserved; leftover budget is spread over the final selected set in
    proportion to solitary cost, i.e. as a uniform bump of everyone's
    relative saving.

    The thresholds `sigmas` must be exact Fractions, strictly increasing
    and in (0, 1); `SimConfig` and `cli._thresholds` check them, not this.
    """
    budget = Fraction(_check_feasible(acct))

    order = sorted(acct.members, key=lambda m: (m.solitary_cost, m.customer))
    prefix = [0]
    for m in order:
        prefix.append(prefix[-1] + m.solitary_cost)

    counts: list[int] = []
    consumed = Fraction(0)
    prev_sigma = Fraction(0)
    prev_count = len(order)
    for sigma in sigmas:
        step = sigma - prev_sigma
        m_level = prev_count
        while m_level > 0 and consumed + step * prefix[m_level] > budget:
            m_level -= 1
        consumed += step * prefix[m_level]
        counts.append(m_level)
        prev_sigma = sigma
        prev_count = m_level

    level_of = [-1] * len(order)
    for lvl, cnt in enumerate(counts):
        for idx in range(cnt):
            level_of[idx] = lvl

    savings = [sigmas[lvl] if lvl >= 0 else Fraction(0) for lvl in level_of]
    residual = budget - sum(s * m.solitary_cost for s, m in zip(savings, order))
    if residual:
        recipients = next((c for c in reversed(counts) if c), 0) or len(order)
        bump = residual / prefix[recipients]
        for idx in range(recipients):
            savings[idx] += bump

    saving = {m.customer: s for m, s in zip(order, savings)}
    return {m.customer: m.solitary_cost - m.pooled_time_cost - saving[m.customer] * m.solitary_cost
            for m in acct.members}
