"""Deterministic event-driven fleet simulation.

Requests are processed strictly in arrival order; each one triggers an
immediate assignment under the configured mechanism, whose `DecisionRow` is
logged as returned and committed as it is to its vehicle (`Fleet.commit`,
which also keeps CCP's runs); the customer book holds the rider's record that
the commit returns, which later poolings beside her move in place.
Vehicle motion is implicit: schedules carry exact node arrival times and a
rerouted vehicle continues from its anchor node.  Identical configuration
and request streams produce byte-identical results.

Poolable flags and values of time left unset on requests are drawn from
independent seeded streams; the poolable draw thresholds one uniform per
customer so the poolable populations at increasing MAR levels are nested.

Provider-centered pooling decides without reading the discount factor, so a
PCP run under another discount is its decisions re-priced (`reprice`); a
configuration's `decided` field hands such a run to `run_sim`, and its fares,
profit and cell metrics follow from the decided run's `RiderSums`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from fractions import Fraction

import numpy as np

from .costshare import RunAccount, RunMember, goalprog_split
from .domain import CustomerOutcome, DecisionRow, Fleet, Request, VehicleState
from .mechanisms import UNSERVED, Mechanism, assign_ccp, assign_pcp, assign_sro
from .netgraph import INF, RoadNetwork
from .pricing import Tariff, pcp_fare, provider_profit, total_cost
from .units import Money, fmt_seconds, money_sum, ratio_sum, time_cost_mils

DEFAULT_VOT_MILS_PER_MIN = (166, 195, 225, 254, 283)
DEFAULT_THRESHOLDS = (
    Fraction(5, 100),
    Fraction(10, 100),
    Fraction(15, 100),
    Fraction(20, 100),
)
SPLIT_SCHEMES = ("shapley", "goalprog")

_STREAM_POOLABLE = 101
_STREAM_VOT = 102
_STREAM_FLEET = 103


class ConfigError(Exception):
    """The simulation inputs are inconsistent."""


@dataclass(frozen=True)
class SimConfig:
    mechanism: Mechanism
    tariff: Tariff
    fleet_size: int
    mar: Fraction
    rng_seed: int
    network: RoadNetwork
    horizon: int  # usec
    max_wait_override: int | None = None  # usec, replaces per-request limits
    split_scheme: str = "shapley"  # one of SPLIT_SCHEMES
    split_thresholds: tuple[Fraction, ...] = DEFAULT_THRESHOLDS  # checked here for goalprog_split
    initial_vehicle_nodes: tuple[str, ...] | None = None
    vot_values: tuple[int, ...] = DEFAULT_VOT_MILS_PER_MIN  # mils per minute
    # a PCP run of this configuration under another discount factor, which
    # `run_sim` re-prices instead of deciding every request again
    decided: SimResult | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name, least in (("fleet_size", 1), ("rng_seed", 0), ("horizon", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ConfigError(f"{name} must be an int of at least {least}, got {value!r}")
        w = self.max_wait_override
        if w is not None and (type(w) is not int or w <= 0):
            raise ConfigError(f"max_wait_override must be None or a positive int, got {w!r}")
        if type(self.mar) not in (int, Fraction):
            raise ConfigError(f"mar must be an int or a Fraction, got {self.mar!r}")
        if not (self.vot_values and all(type(v) is int and v >= 0 for v in self.vot_values)):
            raise ConfigError("vot_values must be non-negative ints of mils per minute, "
                              f"at least one: {self.vot_values!r}")
        if not 0 <= self.mar <= 1:
            raise ConfigError("mar must lie in [0, 1]")
        if self.split_scheme not in SPLIT_SCHEMES:
            raise ConfigError(f"unknown split scheme {self.split_scheme!r}")
        s = self.split_thresholds
        if not (s and all(isinstance(t, Fraction) and 0 < t < 1 for t in s)
                and all(a < b for a, b in zip(s, s[1:]))):
            raise ConfigError("split_thresholds must be exact fractions in (0, 1), "
                              f"strictly increasing: {s!r}")


@dataclass(frozen=True)
class RiderSums:
    """Sums over a run's served riders; a poolable one pays `scale` times her base
    (her quote under PCP, else her fare) plus her time cost, at any discount."""

    scale: int | Fraction  # the discount factor under PCP, else 1
    fixed_fares: Money  # the non-poolable riders' fares
    poolable: int
    bases: Money
    time_costs: int
    priced: int  # the poolable riders with a positive baseline b
    base_ratio: Fraction  # sum of base / b over them
    time_ratio: Fraction  # sum of time cost / b over them


@dataclass
class SimResult:
    mechanism: str
    served: int
    unserved: int
    pooled_customers: int
    poolable_customers: int
    fleet_distance: int  # umiles
    fares_total: Money
    profit: Money
    per_customer: dict[int, CustomerOutcome]
    accounts: list[RunAccount]  # one per pooled CCP run
    decision_log: list[DecisionRow]
    requests: dict[int, Request]
    vehicles: list[VehicleState]
    config: SimConfig

    @property
    def n_requests(self) -> int:
        return self.served + self.unserved

    @cached_property
    def sums(self) -> RiderSums:
        """Taken on first read; `reprice` hands a re-priced run those of its decided run."""
        pcp = self.mechanism == Mechanism.PCP.value
        rows = [(o.baseline_solitary_cost, o.solitary_quote if pcp else o.fare,
                 time_cost_mils(o.request.value_of_time, o.dropoff_time - o.request.request_time))
                for o in self.per_customer.values() if o.poolable]
        priced = [row for row in rows if row[0] > 0]
        return RiderSums(
            self.config.tariff.discount_factor if pcp else 1,
            money_sum([o.fare for o in self.per_customer.values() if not o.poolable]), len(rows),
            money_sum([u for _, u, _ in rows]), sum(tc for *_, tc in rows), len(priced),
            ratio_sum((u.numerator, u.denominator * b) for b, u, _ in priced),
            ratio_sum((tc, b) for b, _, tc in priced),
        )


def _stream(seed: int, label: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, label])))


def resolve_requests(cfg: SimConfig, requests: list[Request]) -> list[Request]:
    """Fill missing poolable flags and values of time from seeded streams and
    apply the wait override, one copy per request at most."""
    poolable = _stream(cfg.rng_seed, _STREAM_POOLABLE).random(len(requests)) < float(cfg.mar)
    vot_idx = _stream(cfg.rng_seed, _STREAM_VOT).integers(0, len(cfg.vot_values), len(requests))
    return [
        r.resolved(value_of_time=int(cfg.vot_values[i]), poolable=p, max_wait=cfg.max_wait_override)
        for r, i, p in zip(requests, vot_idx.tolist(), poolable.tolist())
    ]


def initial_fleet(cfg: SimConfig) -> list[VehicleState]:
    net = cfg.network
    if cfg.initial_vehicle_nodes is not None:
        if len(cfg.initial_vehicle_nodes) != cfg.fleet_size:
            raise ConfigError("initial_vehicle_nodes must match fleet_size")
        nodes = cfg.initial_vehicle_nodes
    else:
        idx = _stream(cfg.rng_seed, _STREAM_FLEET).integers(0, net.n_nodes, cfg.fleet_size)
        nodes = tuple(net.node_ids[int(i)] for i in idx)
    return [VehicleState(i, node, net) for i, node in enumerate(nodes)]


def _validate(cfg: SimConfig, requests: list[Request], fleet) -> None:
    net = cfg.network
    times = [r.request_time for r in requests]
    if times != sorted(times):
        raise ConfigError("requests must be sorted by request time")
    ids = [r.id for r in requests]
    if len(set(ids)) != len(ids):
        raise ConfigError("request ids must be unique")
    used = {v.way_nodes[0] for v in fleet}
    for r in requests:
        if r.request_time < 0:
            raise ConfigError(f"request {r.id}: request time {fmt_seconds(r.request_time)} s "
                              "is negative")
        for node in (r.origin, r.destination):
            if not net.has_node(node):
                raise ConfigError(f"request {r.id}: node {node!r} is not on the network")
            used.add(net.index(node))
    # all used nodes are mutually reachable exactly when each reaches one hub
    # and is reached from it; only a failure searches every pair for its name
    nodes = np.fromiter(used, dtype=np.intp, count=len(used))
    dur, hub = net.tables()[0], nodes[0]
    if (dur[hub, nodes] >= INF).any() or (dur[nodes, hub] >= INF).any():
        i, j = net.first_unreachable(sorted(used))
        raise ConfigError(
            f"nodes {net.node_ids[i]!r} and {net.node_ids[j]!r} are not mutually reachable"
        )


def run_sim(cfg: SimConfig, requests: list[Request]) -> SimResult:
    """Feed the request stream through the configured mechanism.

    With `cfg.decided` set, re-price that run instead; `requests` must then
    be the stream it decided.
    """
    if cfg.decided is not None:
        _check_decided(cfg)
        return reprice(cfg.decided, cfg.tariff)
    net = cfg.network
    fleet = Fleet(initial_fleet(cfg))
    stream = [r for r in resolve_requests(cfg, requests) if r.request_time <= cfg.horizon]
    _validate(cfg, stream, fleet.vehicles)

    tariff = cfg.tariff
    by_id = {r.id: r for r in stream}
    book: dict[int, CustomerOutcome] = {}
    log: list[DecisionRow] = []

    assign = {Mechanism.SRO: assign_sro, Mechanism.PCP: assign_pcp,
              Mechanism.CCP: assign_ccp}[cfg.mechanism]
    for r in stream:
        now = r.request_time
        d = assign(fleet, r, now, net, tariff)
        log.append(d)
        if d.decision == UNSERVED:
            continue
        book[r.id] = fleet.commit(r, d, now)

    # pooled CCP runs and their ex-post splits; a run's id counts every run
    # of its vehicle
    accounts: list[RunAccount] = []
    if cfg.mechanism == Mechanism.CCP:
        for v in fleet.vehicles:
            for i, run in enumerate(v.runs):
                if len(run) < 2:
                    continue
                run_id, riders = f"v{v.id}r{i}", [book[c] for c in run]
                members = tuple(
                    RunMember(
                        customer=o.customer,
                        solitary_cost=o.baseline_solitary_cost,
                        pooled_time_cost=time_cost_mils(
                            o.request.value_of_time, o.dropoff_time - o.request.request_time),
                    )
                    for o in riders
                )
                fare = money_sum([o.fare for o in riders])  # int or Fraction mils
                if fare.denominator != 1:
                    raise ValueError(
                        f"run {run_id}: fare {fare} mils is not a whole number of mils"
                    )
                account = RunAccount(run_id, members, fare.numerator)
                accounts.append(account)
                if cfg.split_scheme == "goalprog":
                    for cid, split_fare in goalprog_split(account, cfg.split_thresholds).items():
                        book[cid].fare = split_fare

    for o in book.values():
        o.total_cost = total_cost(o.fare, o.request, o.dropoff_time)
    fleet_umi = sum(v.way_cum[-1] for v in fleet.vehicles)
    fares_total = money_sum([o.fare for o in book.values()])
    return SimResult(
        mechanism=cfg.mechanism.value,
        served=len(book),
        unserved=len(by_id) - len(book),
        pooled_customers=sum(o.pooled for o in book.values()),
        poolable_customers=sum(1 for r in by_id.values() if r.poolable),
        fleet_distance=fleet_umi,
        fares_total=fares_total,
        profit=provider_profit(fares_total, fleet_umi, cfg.tariff),
        per_customer=book,
        accounts=accounts,
        decision_log=log,
        requests=by_id,
        vehicles=fleet.vehicles,
        config=cfg,
    )


def _check_decided(cfg: SimConfig) -> None:
    """Raise a ConfigError naming the field unless `cfg.decided` is a PCP run
    whose configuration differs from `cfg` at most in the discount factor."""
    ran = cfg.decided.config
    if ran.mechanism != Mechanism.PCP:
        raise ConfigError(f"decided: mechanism {ran.mechanism.value} decides with its tariff; "
                          "only a PCP run can be re-priced")
    for f in fields(SimConfig):
        if f.compare and f.name != "tariff" and getattr(ran, f.name) != getattr(cfg, f.name):
            raise ConfigError(f"decided: the run differs in {f.name}")
    for f in fields(Tariff):
        ran_value, value = getattr(ran.tariff, f.name), getattr(cfg.tariff, f.name)
        if f.name != "discount_factor" and ran_value != value:
            raise ConfigError(f"decided: the run differs in tariff.{f.name}")


def reprice(decided: SimResult, tariff: Tariff) -> SimResult:
    """The PCP run `decided` under `tariff`'s discount factor.

    PCP reads the discount only to price each decision, so the decisions,
    vehicles and requests stay, shared with `decided`, and so do its
    `RiderSums`, at the new discount: the fares and profit follow from them.
    The outcomes are built anew in `decided`'s order, each poolable
    customer's fare `pcp_fare` of her quote, priced once per quote; the
    decision log shares `decided`'s rows but for the priced poolable ones,
    each rebuilt with its new fare.
    """
    s = replace(decided.sums, scale=tariff.discount_factor)
    # an int, as a simulated run's sum of fares, unless a fare is a Fraction
    fares_total = s.fixed_fares + s.scale * s.bases if s.poolable else s.fixed_fares
    outcomes = decided.per_customer
    fares = {q: pcp_fare(tariff, q)
             for q in {o.solitary_quote for o in outcomes.values() if o.poolable}}
    book = {}
    for cid, o in outcomes.items():
        fare, cost = o.fare, o.total_cost
        if o.poolable:
            fare = fares[o.solitary_quote]
            cost = total_cost(fare, o.request, o.dropoff_time)
        book[cid] = CustomerOutcome(cid, o.poolable, o.pooled, o.vehicle, fare, o.pickup_time,
                                    o.dropoff_time, cost, o.baseline_solitary_cost,
                                    o.solitary_quote, request=o.request,
                                    origin_idx=o.origin_idx, dest_idx=o.dest_idx)
    log = [
        DecisionRow(d.time, d.customer, d.mechanism, d.decision, d.vehicle, d.partner,
                    book[d.customer].fare, d.baseline_cost, d.guaranteed_cost, d.added_distance,
                    quote=d.quote, case=d.case, pickup=d.pickup, dropoff=d.dropoff,
                    partner_pickup=d.partner_pickup, partner_dropoff=d.partner_dropoff,
                    partner_fare_change=d.partner_fare_change, run_fare=d.run_fare,
                    run_umiles=d.run_umiles)
        if d.fare is not None and book[d.customer].poolable else d
        for d in decided.decision_log
    ]
    result = replace(decided, fares_total=fares_total, per_customer=book, decision_log=log,
                     profit=provider_profit(fares_total, decided.fleet_distance, tariff),
                     accounts=[], config=replace(decided.config, tariff=tariff))
    result.sums = s
    return result
