from dataclasses import replace

import pytest

from ridepool.mechanisms import UNSERVED, Mechanism
from ridepool.netgraph import RoadNetwork, make_grid
from ridepool.simengine import run_sim
from ridepool.units import USEC


def line_network(n=6, edge_mi=0.2, edge_s=24):
    """Nodes A,B,C,... in a row, both directions, uniform arcs."""
    names = [chr(ord("A") + i) for i in range(n)]
    arcs = []
    for a, b in zip(names, names[1:]):
        arcs.append((a, b, edge_mi, edge_s))
        arcs.append((b, a, edge_mi, edge_s))
    return RoadNetwork(names, arcs)


def sec(x):
    return x * USEC


def ends(net, r):
    """r's (origin, destination) node indices on `net`."""
    return net.index(r.origin), net.index(r.destination)


def expand_route(v):
    """A vehicle's route hop by hop: (nodes, arrival times, cumulative umiles),
    each leg between waypoints read through `net.leg` and departing so that
    it reaches the later waypoint at its arrival time."""
    nodes, times, cum = v.way_nodes[:1], v.way_times[:1], v.way_cum[:1]
    for k in range(1, len(v.way_nodes)):
        hops, usec, umiles = v.net.leg(v.way_nodes[k - 1], v.way_nodes[k])
        start = v.way_times[k] - usec[-1]
        nodes += hops[1:]
        times += [start + x for x in usec[1:]]
        cum += [v.way_cum[k - 1] + x for x in umiles[1:]]
    return nodes, times, cum


def unserved_ids(result):
    """The ids of a result's unserved requests, from its decision log."""
    return [row.customer for row in result.decision_log if row.decision == UNSERVED]


def assert_same_run(a, b):
    """Results `a` and `b` agree in every decision, outcome and economic total."""
    assert [repr(row) for row in a.decision_log] == [repr(row) for row in b.decision_log]
    assert a.decision_log == b.decision_log  # the commit fields too, which the repr leaves out
    assert repr(a.per_customer) == repr(b.per_customer)
    assert (repr(a.fares_total), repr(a.profit)) == (repr(b.fares_total), repr(b.profit))
    assert a.fleet_distance == b.fleet_distance
    assert (a.served, a.unserved, a.pooled_customers, a.poolable_customers) == (
        b.served, b.unserved, b.pooled_customers, b.poolable_customers)
    assert a.accounts == b.accounts


def counterfactual_sro(cfg, requests):
    """Paired baseline: same seed, fleet and draws, mechanism forced to SRO."""
    return run_sim(replace(cfg, mechanism=Mechanism.SRO), requests)


@pytest.fixture(scope="session")
def grid10():
    return make_grid(10, 10, 0.2, 30)


@pytest.fixture()
def line6():
    return line_network(6)
