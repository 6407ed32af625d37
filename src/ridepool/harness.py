"""Scenario-grid execution and result aggregation.

A grid crosses mechanism-applicable parameters (change fee for
customer-centered pooling; discount and detour factors for
provider-centered pooling) with wait limits, fleet sizes, matching
acceptance rates and seeds.  Every pooling cell is paired with a
solitary-rides baseline sharing its seed, fleet placement and request
draws, so per-seed comparisons are coupled; the baseline is independent of
the acceptance rate, and one is simulated per configuration, that is per
(wait, fleet, seed).  Each pooling cell's configuration is its baseline's
with the cell's mechanism, tariff and MAR.  Provider-centered pooling
decides without reading the discount factor, so its decisions are shared
across discounts: the first discount cell of each (wait, fleet, MAR,
detour, seed) group is simulated and the others re-price that run.

A cell's axes are read back from its simulation's `SimConfig` by
`coordinates`, their one reader, which `summarize` and `io` share.  Outputs
are exact-fraction aggregates; `io` renders them to four decimals, so
rerunning a grid reproduces files byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .domain import Request
from .mechanisms import Mechanism
from .netgraph import RoadNetwork
from .pricing import Tariff
from .simengine import (
    DEFAULT_THRESHOLDS,
    DEFAULT_VOT_MILS_PER_MIN,
    SimConfig,
    SimResult,
    run_sim,
)
from .units import USEC, fmt4, fmt_usd

BRACKETS = (Fraction(0), Fraction(5, 100), Fraction(10, 100), Fraction(15, 100), Fraction(20, 100))


# the keys of a `ScenarioGrid.cells()` params dict, in the order its axes nest
CELL_AXES = ("max_wait", "fleet", "mar", "discount", "detour", "fee")


class MismatchedGrids(Exception):
    """Dominance comparison over summaries with different MAR coverage."""


@dataclass(frozen=True)
class ScenarioGrid:
    """A grid's axes and fixed values; `simulate` takes a default for each key left out."""

    mechanisms: tuple[Mechanism, ...] = tuple(Mechanism)
    max_waits: tuple[int, ...] = (360 * USEC,)
    mars: tuple[Fraction, ...] = (Fraction(1, 2),)
    fleet_sizes: tuple[int, ...] = (30,)
    change_fees: tuple[int, ...] = (2000,)  # mils, CCP only
    discount_factors: tuple[Fraction, ...] = (Fraction(4, 5),)  # PCP only
    detour_factors: tuple[Fraction, ...] = (Fraction(3, 10),)  # PCP only
    seeds: tuple[int, ...] = (1,)
    base_fare: int = 2500
    per_mile: int = 2500
    provider_cost_per_mile: int = 2945
    vot_values: tuple[int, ...] = DEFAULT_VOT_MILS_PER_MIN
    split_scheme: str = "shapley"
    split_thresholds: tuple[Fraction, ...] = DEFAULT_THRESHOLDS
    horizon: int = 1800 * USEC

    def tariff(self, change_fee=None, discount=None, detour=None) -> Tariff:
        return Tariff(
            base_fare=self.base_fare,
            per_mile=self.per_mile,
            change_fee=self.change_fees[0] if change_fee is None else change_fee,
            discount_factor=self.discount_factors[0] if discount is None else discount,
            detour_factor=self.detour_factors[0] if detour is None else detour,
            provider_cost_per_mile=self.provider_cost_per_mile,
        )

    def cells(self):
        """Yield (mechanism, params dict) for every applicable combination; a
        params dict leaves out each axis its mechanism does not read."""
        for mech in self.mechanisms:
            pooled, pcp = mech != Mechanism.SRO, mech == Mechanism.PCP
            for values in itertools.product(
                self.max_waits, self.fleet_sizes, self.mars if pooled else (None,),
                self.discount_factors if pcp else (None,), self.detour_factors if pcp else (None,),
                self.change_fees if mech == Mechanism.CCP else (None,),
            ):
                yield mech, {key: v for key, v in zip(CELL_AXES, values) if v is not None}


def coordinates(cfg: SimConfig) -> tuple:
    """(mechanism, wait, fleet, fee, discount, detour, MAR, seed) of the
    simulation `cfg` configures, None for a tariff axis its mechanism does
    not read; the one reader of a cell's axes."""
    t = cfg.tariff
    ccp, pcp = cfg.mechanism == Mechanism.CCP, cfg.mechanism == Mechanism.PCP
    return (cfg.mechanism.value, cfg.max_wait_override, cfg.fleet_size,
            t.change_fee if ccp else None, t.discount_factor if pcp else None,
            t.detour_factor if pcp else None, cfg.mar, cfg.rng_seed)


@dataclass
class CellOutcome:
    """One simulation plus its paired solitary baseline, with derived metrics;
    the cell's coordinates are its result's configuration."""

    result: SimResult
    baseline: SimResult

    @property
    def mechanism(self) -> str:
        return self.result.mechanism

    def metrics(self) -> dict:
        res, sro = self.result, self.baseline
        m: dict = {
            "requests": res.n_requests,
            "served": res.served,
            "unserved": res.unserved,
            "poolable": res.poolable_customers,
            "pooled": res.pooled_customers,
            "unserved_pct": Fraction(res.unserved, res.n_requests) * 100 if res.n_requests else None,
            "pooled_share_pct": (
                Fraction(res.pooled_customers, res.poolable_customers) * 100
                if res.poolable_customers else None
            ),
            "fleet_distance": res.fleet_distance,
            "fares": res.fares_total,
            "profit": res.profit,
            "sro_distance": sro.fleet_distance,
            "sro_profit": sro.profit,
            "distance_saving_pct": (
                (1 - Fraction(res.fleet_distance, sro.fleet_distance)) * 100
                if sro.fleet_distance else None
            ),
            "profit_delta_pct": (
                Fraction(res.profit - sro.profit) / sro.profit * 100 if sro.profit > 0 else None
            ),
        }
        # closed forms over the run's sums: a poolable rider pays scale * base + time cost
        s = res.sums
        m["mean_cost_per_poolable"] = (
            Fraction(s.scale * s.bases + s.time_costs) / s.poolable if s.poolable else None
        )
        m["cost_reduction_pct"] = (
            (s.priced - s.scale * s.base_ratio - s.time_ratio) / s.priced * 100
            if s.priced else None
        )
        m["brackets"] = savings_brackets(res)
        return m


def savings_brackets(result: SimResult, thresholds=BRACKETS):
    """Share of served poolable customers saving at least each threshold
    relative to their frozen solitary baselines, over those whose baseline
    is positive (a saving relative to a zero baseline is undefined); None
    when there are none.

    With threshold p/q, baseline b and total cost n/d, the saving test
    b - n/d >= (p/q) * b is q * (b*d - n) >= p * b * d, in integers.
    """
    costs = [(o.baseline_solitary_cost, o.total_cost.numerator, o.total_cost.denominator)
             for o in result.per_customer.values() if o.poolable and o.baseline_solitary_cost > 0]
    if not costs:
        return {t: None for t in thresholds}
    out = {}
    for t in thresholds:
        p, q = t.numerator, t.denominator
        hits = sum(1 for b, n, d in costs if q * (b * d - n) >= p * b * d)
        out[t] = Fraction(hits, len(costs)) * 100
    return out


def run_grid(grid: ScenarioGrid, trips: list[Request], net: RoadNetwork) -> list[CellOutcome]:
    """Execute every grid cell with its paired baseline, seeds innermost.

    Every cell is one `run_sim` call, preceded by its baseline's when that
    configuration has not run yet.  A PCP cell whose (wait, fleet, MAR,
    detour, seed) group already ran under another discount hands that run
    over as `SimConfig.decided`, so `run_sim` re-prices it rather than
    deciding every request again, and `metrics` reads its decided run's sums.
    """
    sro_cache: dict[SimConfig, SimResult] = {}
    pcp_decided: dict[tuple, SimResult] = {}
    outcomes: list[CellOutcome] = []
    for mech, params in grid.cells():
        for seed in grid.seeds:
            sro = SimConfig(
                mechanism=Mechanism.SRO, tariff=grid.tariff(), fleet_size=params["fleet"],
                mar=Fraction(0), rng_seed=seed, network=net, horizon=grid.horizon,
                max_wait_override=params["max_wait"], split_scheme=grid.split_scheme,
                split_thresholds=grid.split_thresholds, vot_values=grid.vot_values,
            )
            if sro not in sro_cache:
                sro_cache[sro] = run_sim(sro, trips)
            baseline = sro_cache[sro]
            if mech == Mechanism.SRO:
                outcomes.append(CellOutcome(baseline, baseline))
                continue
            group = (sro, mech, params["mar"], params.get("detour"))
            cfg = replace(
                sro,
                mechanism=mech,
                tariff=grid.tariff(change_fee=params.get("fee"), discount=params.get("discount"),
                                   detour=params.get("detour")),
                mar=params["mar"],
                decided=pcp_decided.get(group),
            )
            result = run_sim(cfg, trips)
            if mech == Mechanism.PCP:
                pcp_decided.setdefault(group, result)
            outcomes.append(CellOutcome(result, baseline))
    return outcomes


@dataclass
class MechanismSummary:
    """Seed-averaged metrics of one mechanism setting across MAR levels."""

    label: str
    mechanism: str
    params: dict
    per_mar: dict  # mar -> {metric: Fraction | None}

    def mars(self):
        return tuple(sorted(self.per_mar))


SUMMARY_METRICS = (
    "unserved_pct", "pooled_share_pct", "distance_saving_pct", "profit_delta_pct",
    "profit", "mean_cost_per_poolable", "cost_reduction_pct",
)


def _mean(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return sum(vals, Fraction(0)) / len(vals)


def aggregate(cells) -> dict:
    """Seed means of `SUMMARY_METRICS` and of each savings bracket.

    Takes (setting key, mar, metrics) triples, metrics as from
    `CellOutcome.metrics`, and returns {setting key: {mar: means}}; a None
    value is left out of its mean, and a mean over no values is None.
    """
    groups: dict = {}
    for key, mar, m in cells:
        groups.setdefault(key, {}).setdefault(mar, []).append(m)
    out = {}
    for key, by_mar in groups.items():
        out[key] = per_mar = {}
        for mar, rows in by_mar.items():
            means = {metric: _mean(r[metric] for r in rows) for metric in SUMMARY_METRICS}
            means["brackets"] = {t: _mean(r["brackets"][t] for r in rows) for t in BRACKETS}
            per_mar[mar] = means
    return out


def summarize(outcomes: list[CellOutcome]) -> list[MechanismSummary]:
    """Average cell metrics over seeds, grouped by mechanism setting."""
    cells = []  # a setting is a cell without its MAR and seed
    for oc in outcomes:
        if oc.mechanism != Mechanism.SRO.value:
            *setting, mar, _ = coordinates(oc.result.config)
            cells.append((tuple(setting), mar, oc.metrics()))
    settings = aggregate(cells)
    summaries = []
    for key in sorted(settings, key=repr):
        mech, wait, fleet, fee, disc, det = key
        bits = [mech, f"w{wait // USEC}", f"u{fleet}"]
        if fee is not None:
            bits.append(f"fee{fmt_usd(fee)}")
        if disc is not None:
            bits.append(f"disc{fmt4(disc)}")
        if det is not None:
            bits.append(f"det{fmt4(det)}")
        summaries.append(
            MechanismSummary(
                label="-".join(bits),
                mechanism=mech,
                params={"max_wait": wait, "fleet": fleet, "fee": fee,
                        "discount": disc, "detour": det},
                per_mar=settings[key],
            )
        )
    return summaries


@dataclass(frozen=True)
class DominanceResult:
    kind: str  # "dominates" | "partial" | "none"
    mar_lo: Fraction | None = None
    mar_hi: Fraction | None = None


def pareto_dominance(a: MechanismSummary, b: MechanismSummary) -> DominanceResult:
    """Weakly higher provider profit and weakly lower customer cost.

    Full dominance must hold at every MAR; otherwise the longest contiguous
    MAR range where both inequalities hold is reported (earliest on ties),
    or `none` when there is no such range.
    """
    mars = a.mars()
    if mars != b.mars():
        raise MismatchedGrids(f"{a.label} covers {mars}, {b.label} covers {b.mars()}")
    ok = []
    for mar in mars:
        pa, pb = a.per_mar[mar]["profit"], b.per_mar[mar]["profit"]
        ca, cb = a.per_mar[mar]["mean_cost_per_poolable"], b.per_mar[mar]["mean_cost_per_poolable"]
        ok.append(None not in (pa, pb, ca, cb) and pa >= pb and ca <= cb)
    if all(ok):
        return DominanceResult("dominates", mars[0], mars[-1])
    runs = [[i for i, _ in run] for held, run in itertools.groupby(enumerate(ok), lambda x: x[1])
            if held]
    if not runs:
        return DominanceResult("none")
    best = max(runs, key=len)  # the first of the longest: the earliest on ties
    return DominanceResult("partial", mars[best[0]], mars[best[-1]])


# ---------------------------------------------------------------------------
# desk-scale trip corpus
# ---------------------------------------------------------------------------

def synthetic_trips(net: RoadNetwork, n: int, horizon_s: int, seed: int) -> list[Request]:
    """Seeded synthetic demand: uniform origin/destination pairs and arrival
    times, each with a 600 s wait limit; poolable flags and values of time
    are left for the simulation."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    rows = []
    for _ in range(n):
        o, d = rng.choice(net.n_nodes, size=2, replace=False)
        rows.append((int(rng.integers(0, horizon_s + 1)), int(o), int(d)))
    rows.sort()
    return [
        Request(i, net.node_ids[o], net.node_ids[d], t * USEC, None, 600 * USEC, None)
        for i, (t, o, d) in enumerate(rows)
    ]
