"""Executable property checks and constructed counterexample instances.

The audits re-derive, from a finished simulation, the guarantees the
mechanisms are supposed to enforce: customer-centered pooling never leaves
a served poolable customer worse off than her frozen solitary baseline, and
provider-centered pooling never stretches a ride past the detour bound.
A run that cannot pool must repeat the SRO run on its seed decision by
decision, since the three rules share one solitary path.

The fixture builders construct miniature networks with exact integer arc
times placed on the boundary of those guarantees:

* the value-of-time threshold above which a maximally detoured
  provider-centered pooling costs a customer more than riding alone, and
* the two-scenario geometry in which the provider-centered rule either
  pools an unprofitable pair or rejects a profitable one, depending only on
  a small perturbation of the origins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .domain import Request
from .harness import ScenarioGrid
from .mechanisms import UNSERVED, Mechanism
from .netgraph import RoadNetwork
from .pricing import Tariff, mileage_fare, solitary_fare, total_cost
from .simengine import SimConfig, SimResult, run_sim
from .units import USEC, fraction_from, mils_from_usd, time_cost_mils, usec_from_seconds


class DomainError(ValueError):
    """A threshold formula argument is outside its admissible range."""


class InvalidEpsilon(ValueError):
    """Perturbations must be strictly positive and small against the base."""


@dataclass(frozen=True)
class Verdict:
    fixture: str
    check: str
    passed: bool
    detail: str

    def row(self):
        return (self.fixture, self.check, "pass" if self.passed else "FAIL", self.detail)


@dataclass(frozen=True)
class TheoremFixture:
    """A purpose-built instance: network, vehicle spawns and request list."""

    name: str
    network: RoadNetwork
    vehicle_nodes: tuple[str, ...]
    requests: tuple[Request, ...]
    tariff: Tariff
    flagged_customer: int | None = None
    expect: str | None = None  # relation of poolable vs non-poolable cost


def run_fixture(fx: TheoremFixture, mechanism: Mechanism) -> SimResult:
    cfg = SimConfig(
        mechanism=mechanism,
        tariff=fx.tariff,
        fleet_size=len(fx.vehicle_nodes),
        mar=Fraction(1),
        rng_seed=0,
        network=fx.network,
        horizon=max(r.request_time for r in fx.requests) + usec_from_seconds(3600),
        initial_vehicle_nodes=fx.vehicle_nodes,
    )
    return run_sim(cfg, list(fx.requests))


# ---------------------------------------------------------------------------
# audits over simulation results
# ---------------------------------------------------------------------------

def check_individual_rationality(result: SimResult) -> Verdict:
    """For CCP and SRO runs (a PCP rider pays the discounted fare, pooled or
    not): served poolable riders never exceed their frozen solitary baseline;
    served riders not pooled, poolable or not, pay exactly their solitary
    economics, as CCP grants no discount for an unsuccessful matching."""
    for cid, o in sorted(result.per_customer.items()):
        if not (o.poolable and o.pooled) and (
                o.fare != o.solitary_quote or o.total_cost != o.baseline_solitary_cost):
            return Verdict(
                "individual-rationality",
                "unpooled-pays-quote" if o.poolable else "non-poolable-pays-quote", False,
                f"customer {cid}: fare {o.fare} vs quote {o.solitary_quote}",
            )
        if o.total_cost > o.baseline_solitary_cost:
            return Verdict(
                "individual-rationality", "total_cost<=baseline", False,
                f"customer {cid}: cost {o.total_cost} exceeds baseline {o.baseline_solitary_cost}",
            )
    return Verdict(
        "individual-rationality", "total_cost<=baseline", True,
        f"{len(result.per_customer)} served customers audited",
    )


def check_detour_bounds(result: SimResult, detour_factor: Fraction) -> Verdict:
    """Every pooled rider's pickup-to-dropoff span obeys (1+detour)*direct."""
    net = result.config.network
    for cid, o in sorted(result.per_customer.items()):
        if not o.pooled:
            continue
        r = result.requests[cid]
        direct = net.duration_usec(net.index(r.origin), net.index(r.destination))
        ride = o.dropoff_time - o.pickup_time
        if ride > (1 + detour_factor) * direct:
            return Verdict(
                "detour-audit", "ride<=bound", False,
                f"customer {cid}: ride {ride} vs direct {direct}",
            )
    return Verdict("detour-audit", "ride<=bound", True, f"{result.pooled_customers} pooled riders audited")


def check_replay(result: SimResult) -> Verdict:
    """Schedules, routes, customer records and mileage must agree when
    replayed: each waypoint is reached `dur` of its leg after the previous
    one, unless the vehicle stood empty there until it left at a REC entry's
    time, and each served customer's last pickup and dropoff match her times
    and endpoints."""
    pickups, dropoffs = {}, {}  # each customer's last, as (time, node)
    fleet_dist = 0
    for v in result.vehicles:
        onboard = committed = 0  # riders on board, and riders not yet dropped off
        last_t = None
        waits = set()  # (time, node) of the REC entries that found the vehicle empty
        for e in v.schedule:
            if last_t is not None and e.time < last_t:
                return Verdict("replay", "times-nondecreasing", False, f"vehicle {v.id}")
            last_t = e.time
            if e.op == "REC":
                if not committed:
                    waits.add((e.time, e.location))
                committed += 1
            elif e.op == "PU":
                onboard += 1
                if onboard > 2:
                    return Verdict("replay", "capacity", False, f"vehicle {v.id} at t={e.time}")
                pickups[e.customer] = (e.time, e.location)
            elif e.op == "DO":
                onboard -= 1
                committed -= 1
                dropoffs[e.customer] = (e.time, e.location)
        for k in range(1, len(v.way_nodes)):
            w, t = v.way_nodes[k - 1], v.way_times[k - 1]
            hops, usec, _ = v.net.leg(w, v.way_nodes[k])
            depart = v.way_times[k] - usec[-1]
            if depart != t and not (depart > t and (depart, v.net.node_ids[w]) in waits):
                return Verdict("replay", "leg-times", False, f"vehicle {v.id} at waypoint {k}")
            fleet_dist += sum(v.net.arc_attrs(a, b)[0] for a, b in zip(hops, hops[1:]))
    for cid, o in result.per_customer.items():
        r = result.requests[cid]
        if pickups.get(cid) != (o.pickup_time, r.origin):
            return Verdict("replay", "pickups-match", False, f"customer {cid}")
        if cid not in dropoffs:
            return Verdict("replay", "dropoffs-match", False, f"customer {cid}: no dropoff")
        if dropoffs[cid] != (o.dropoff_time, r.destination):
            return Verdict("replay", "dropoffs-match", False, f"customer {cid}")
    if fleet_dist != result.fleet_distance:
        return Verdict(
            "replay", "distance-matches", False,
            f"trace {fleet_dist} vs accounted {result.fleet_distance}",
        )
    return Verdict("replay", "consistent", True, f"{len(result.vehicles)} vehicles replayed")


# the decision fields an SRO run sets, bar its mechanism label and `guaranteed_cost`, which PCP
# leaves unset
_SRO_FIELDS = ("time", "customer", "decision", "vehicle", "partner", "fare", "baseline_cost",
               "added_distance", "pickup", "dropoff")


def check_reduces_to_sro(result: SimResult, sro: SimResult) -> Verdict:
    """A run that cannot pool (PCP or CCP at MAR 0, CCP with a change fee no
    surplus reaches) against the SRO run on the same seed, fleet and trips:
    decision by decision, the fields SRO sets must agree, an unserved
    request's baseline masked since SRO logs none, and so must the fleet
    distance and the fares total.  The first difference names its customer."""
    name = f"{result.mechanism}-reduces-to-SRO"
    if len(result.decision_log) != len(sro.decision_log):
        return Verdict(name, "decision-count", False,
                       f"{len(result.decision_log)} decisions vs SRO's {len(sro.decision_log)}")
    for x, y in zip(result.decision_log, sro.decision_log):
        for f in _SRO_FIELDS:
            a, b = getattr(x, f), getattr(y, f)
            if a != b and not (f == "baseline_cost" and x.decision == y.decision == UNSERVED):
                return Verdict(name, "decisions-match", False,
                               f"customer {x.customer}: {f} {a!r} vs SRO's {b!r}")
    if result.fleet_distance != sro.fleet_distance:
        return Verdict(name, "distance-matches", False,
                       f"{result.fleet_distance} vs SRO's {sro.fleet_distance} umiles")
    if result.fares_total != sro.fares_total:
        return Verdict(name, "fares-match", False,
                       f"{result.fares_total} vs SRO's {sro.fares_total} mils")
    return Verdict(name, "reduces-to-SRO", True, f"{len(sro.decision_log)} decisions compared")


# ---------------------------------------------------------------------------
# value-of-time threshold (maximally detoured discounted ride)
# ---------------------------------------------------------------------------

def theorem3_threshold(delta, p_solitary, detour_factor, solitary_duration) -> Fraction:
    """Value of time above which a worst-case detoured discounted ride costs
    more than the solitary ride it replaced, exactly, in units of
    `p_solitary` per unit of `solitary_duration`."""
    delta = fraction_from(delta)
    detour = fraction_from(detour_factor)
    if not 0 < delta <= 1:
        raise DomainError("discount factor must be in (0, 1]")
    if detour <= 0:
        raise DomainError("detour factor must be positive")
    if solitary_duration <= 0:
        raise DomainError("solitary duration must be positive")
    return (1 - delta) * fraction_from(p_solitary) / (detour * fraction_from(solitary_duration))


def _fixture_network(names, base) -> RoadNetwork:
    """The network on `names` with the arcs of `base`, (from, to) -> (miles,
    seconds), and a slow 50 mi, 9000 s arc for every other ordered pair,
    which makes it strongly connected."""
    return RoadNetwork(names, [(a, b, *base.get((a, b), (50.0, 9000)))
                               for a in names for b in names if a != b])


def build_threshold_fixture(delta="0.8", vot_ratio="1.1") -> TheoremFixture:
    """Forced-maximal-detour instance for the value-of-time threshold.

    One vehicle waits at the first rider's origin, so her baseline has zero
    wait; the only way to serve the second rider is the detour that stretches
    the first ride (600 s, 2 mi direct) to exactly 1.3 times its direct
    duration, the bound of detour factor 3/10.
    `vot_ratio` scales the first rider's value of time against the threshold.
    """
    delta = fraction_from(delta)
    ratio = fraction_from(vot_ratio)
    detour, direct_s, direct_mi = Fraction(3, 10), 600, 2.0
    base = {("OI", "DJ"): (direct_mi, direct_s), ("OI", "OJ"): (0.5, int(detour * direct_s)),
            ("OJ", "DJ"): (direct_mi, direct_s)}
    net = _fixture_network(["OI", "OJ", "DJ"], base)

    tariff = ScenarioGrid().tariff(discount=delta, detour=detour)
    p_sol = solitary_fare(tariff, net, net.index("OI"), net.index("DJ"))
    vot = ratio * theorem3_threshold(delta, p_sol, detour, Fraction(direct_s, 60))
    if vot.denominator != 1:
        raise DomainError("chosen ratio must give an integer mils-per-minute value of time")
    rider = Request(1, "OI", "DJ", 0, int(vot), usec_from_seconds(600), True)
    joiner = Request(2, "OJ", "DJ", 0, 166, usec_from_seconds(600), True)
    return TheoremFixture(
        name=f"threshold-ratio-{ratio}",
        network=net,
        vehicle_nodes=("OI",),
        requests=(rider, joiner),
        tariff=tariff,
        flagged_customer=1,
        expect="strictly_higher" if ratio > 1 else "strictly_lower",
    )


def check_threshold_witness(fx: TheoremFixture) -> Verdict:
    """Pooled cost exceeds the solitary baseline iff the value of time
    exceeds the threshold (the ride is forced onto the maximal detour)."""
    res = run_fixture(fx, Mechanism.PCP)
    o = res.per_customer[fx.flagged_customer]
    if not o.pooled:
        return Verdict(fx.name, "pcp-pools", False, "fixture did not pool the flagged rider")
    above = o.total_cost > o.baseline_solitary_cost
    want_above = fx.expect == "strictly_higher"
    return Verdict(
        fx.name, "pooled-cost-vs-baseline", above == want_above,
        f"pooled {o.total_cost} vs baseline {o.baseline_solitary_cost} (expect {'>' if want_above else '<'})",
    )


# ---------------------------------------------------------------------------
# two-scenario geometry: unprofitable pooling vs missed opportunity
# ---------------------------------------------------------------------------

def build_theorem4_fixtures(
    detour_factor, epsilon_t, epsilon_d, vot_mils_per_min=225, change_fee_usd=2.0
) -> tuple[TheoremFixture, TheoremFixture]:
    """Original and perturbed instances of the shared-destination geometry.

    Two riders head to the same destination from origins 1 mi and a
    detour-bound travel time apart; in the original both direct rides are
    600 s, 2 mi and pooling sits exactly on the detour bound.  The
    perturbation moves the first rider `epsilon` closer and the second
    `epsilon` farther, keeping the solitary totals fixed while pushing the
    pooled ride past the bound.
    """
    base_s, base_mi, between_mi = 600, Fraction(2), Fraction(1)
    detour = fraction_from(detour_factor)
    eps_t = int(epsilon_t)
    eps_d = fraction_from(epsilon_d)
    if eps_t <= 0 or eps_d <= 0:
        raise InvalidEpsilon("perturbations must be strictly positive")
    if eps_t >= base_s or eps_d >= base_mi - between_mi:
        raise InvalidEpsilon("perturbations must stay small against the base geometry")
    detour_s = detour * base_s
    if detour_s.denominator != 1:
        raise InvalidEpsilon("detour_factor * base_s must be an integer second count")
    detour_s = int(detour_s)

    def make(name, first_to_dest, second_to_dest):
        (mi_j, s_j), (mi_i, s_i) = first_to_dest, second_to_dest
        base = {
            ("OJ", "DD"): (mi_j, s_j),
            ("OI", "DD"): (mi_i, s_i),
            ("OJ", "OI"): (between_mi, detour_s),
            ("OI", "OJ"): (between_mi, detour_s),
        }
        net = _fixture_network(["DD", "OI", "OJ"], base)
        tariff = ScenarioGrid().tariff(change_fee=mils_from_usd(change_fee_usd), detour=detour)
        first = Request(1, "OJ", "DD", 0, vot_mils_per_min, usec_from_seconds(900), True)
        second = Request(2, "OI", "DD", 0, vot_mils_per_min, usec_from_seconds(900), True)
        return TheoremFixture(
            name=name,
            network=net,
            vehicle_nodes=("OJ", "OI"),
            requests=(first, second),
            tariff=tariff,
        )

    original = make("two-scenario-original", (base_mi, base_s), (base_mi, base_s))
    altered = make(
        "two-scenario-altered",
        (base_mi - eps_d, base_s - eps_t),
        (base_mi + eps_d, base_s + eps_t),
    )

    # the perturbed pooled span breaches the bound measured at the shortened ride
    lhs = detour_s * USEC + (base_s - eps_t) * USEC
    rhs = (1 + detour) * (base_s - eps_t) * USEC
    assert lhs > rhs, "perturbation failed to break the detour bound"
    return original, altered


def _pair_coalition_surplus(fx: TheoremFixture) -> Fraction:
    """Solitary-cost sum minus pooled total cost of the fixture's pair,
    evaluated on the ride the onboard-first vehicle would drive."""
    net, t = fx.network, fx.tariff
    first, second = fx.requests

    def dur(a, b):
        return net.duration_usec(net.index(a), net.index(b))

    def dist(a, b):
        return net.distance_umiles(net.index(a), net.index(b))

    def solo_cost(r):
        o, d = net.index(r.origin), net.index(r.destination)
        return total_cost(solitary_fare(t, net, o, d), r, net.duration_usec(o, d))

    pooled_fare = mileage_fare(
        t, dist(first.origin, second.origin) + dist(second.origin, second.destination), 1)
    # both riders alight together at the shared destination
    span = dur(first.origin, second.origin) + dur(second.origin, second.destination)
    pooled_total = (
        pooled_fare
        + time_cost_mils(first.value_of_time, span)
        + time_cost_mils(second.value_of_time, span)
    )
    return solo_cost(first) + solo_cost(second) - pooled_total


def check_theorem4_dichotomy(original: TheoremFixture, altered: TheoremFixture) -> Verdict:
    """The two-scenario split: the provider-centered rule pools the original
    pair but rejects the perturbed one, and then exactly one of two failures
    is exhibited: a profitable pooling was missed (the customer-centered rule
    pools the perturbed pair) or the original pooling had no coalition gain."""
    pcp_orig = run_fixture(original, Mechanism.PCP)
    pcp_alt = run_fixture(altered, Mechanism.PCP)
    if pcp_orig.pooled_customers != 2:
        return Verdict(original.name, "pcp-pools-original", False, "original pair not pooled")
    if pcp_alt.pooled_customers != 0:
        return Verdict(altered.name, "pcp-rejects-altered", False, "altered pair pooled")

    ccp_alt = run_fixture(altered, Mechanism.CCP)
    missed_profitable = ccp_alt.pooled_customers == 2
    original_unprofitable = _pair_coalition_surplus(original) <= 0
    ok = missed_profitable != original_unprofitable
    branch = "missed-profitable" if missed_profitable else "customer-unprofitable"
    return Verdict(
        original.name.replace("-original", ""),
        "dichotomy",
        ok,
        f"branch={branch}, alt-ccp-pools={missed_profitable}, orig-surplus<=0={original_unprofitable}",
    )


# ---------------------------------------------------------------------------
# weak dominance of volunteering for pooling
# ---------------------------------------------------------------------------

def build_weak_dominance_fixtures() -> list[TheoremFixture]:
    """Isolation instances where flipping one rider's flag cannot change any
    other assignment: the flagged rider arrives last and meets one vehicle."""
    names = ["A", "B", "C", "D", "E"]
    arcs = []
    for a, b in zip(names, names[1:]):
        arcs.append((a, b, 0.2, 24))
        arcs.append((b, a, 0.2, 24))
    line = RoadNetwork(names, arcs)
    tariff = ScenarioGrid().tariff(change_fee=1000)  # $1.00 in mils

    pair = TheoremFixture(
        name="weak-dominance-beneficial-pool",
        network=line,
        vehicle_nodes=("A", "B"),
        requests=(
            Request(1, "A", "E", 0, 200, usec_from_seconds(600), True),
            Request(2, "B", "E", usec_from_seconds(1), 200, usec_from_seconds(600), None),
        ),
        tariff=tariff,
        flagged_customer=2,
        expect="strictly_lower",
    )
    alone = TheoremFixture(
        name="weak-dominance-no-partner",
        network=line,
        vehicle_nodes=("B",),
        requests=(Request(2, "B", "E", 0, 200, usec_from_seconds(600), None),),
        tariff=tariff,
        flagged_customer=2,
        expect="equal",
    )
    return [pair, alone]


def check_weak_dominance_fixture(
    fx: TheoremFixture, mechanism: Mechanism = Mechanism.CCP
) -> Verdict:
    """Compare the flagged rider's realized cost with her flag on vs off."""
    def flagged(requests, flag):
        return tuple(
            replace(r, poolable=flag) if r.id == fx.flagged_customer else r for r in requests
        )

    res_on = run_fixture(replace(fx, requests=flagged(fx.requests, True)), mechanism)
    res_off = run_fixture(replace(fx, requests=flagged(fx.requests, False)), mechanism)
    on = res_on.per_customer.get(fx.flagged_customer)
    off = res_off.per_customer.get(fx.flagged_customer)
    if on is None or off is None:
        return Verdict(fx.name, "served-both-ways", False, "flagged rider went unserved")
    relations = {
        "strictly_lower": on.total_cost < off.total_cost,
        "equal": on.total_cost == off.total_cost,
        "strictly_higher": on.total_cost > off.total_cost,
    }
    ok = relations[fx.expect]
    return Verdict(
        fx.name, f"poolable-{fx.expect}", ok,
        f"poolable {on.total_cost} vs non-poolable {off.total_cost}",
    )


# ---------------------------------------------------------------------------
# fixture battery
# ---------------------------------------------------------------------------

def run_all_fixtures() -> list[Verdict]:
    verdicts = []
    for ratio in ("1.1", "0.9"):
        fx = build_threshold_fixture(vot_ratio=ratio)
        verdicts.append(check_threshold_witness(fx))
        verdicts.append(check_weak_dominance_fixture(fx, Mechanism.PCP))
    for fx in build_weak_dominance_fixtures():
        verdicts.append(check_weak_dominance_fixture(fx))
    for detour in ("0.1", "0.3", "0.5"):
        for eps_t, eps_d, vot, fee in (
            (10, "0.05", 166, 1.5),
            (30, "0.2", 283, 3.5),
        ):
            orig, alt = build_theorem4_fixtures(
                detour, eps_t, eps_d, vot_mils_per_min=vot, change_fee_usd=fee
            )
            verdicts.append(check_theorem4_dichotomy(orig, alt))
    return verdicts
