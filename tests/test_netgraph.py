import csv
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridepool import netgraph
from ridepool.netgraph import (
    INF,
    InvalidParameter,
    PathResult,
    RoadNetwork,
    Unreachable,
    edge_time_usec,
    load_network_csv,
    make_grid,
)
from ridepool.units import UMILE, USEC, umiles_from_miles, usec_from_seconds

import _fw_oracle


def arcs(net):
    """(from id, to id, length umiles, time usec) of every arc, from the
    network's arc arrays, in (from, to) index order."""
    ids = net.node_ids
    return [(ids[f], ids[t], int(length), int(time))
            for f, t, length, time in zip(net._arc_from, net._arc_to, net._arc_len, net._arc_dur)]


def bellman_ford(net, src_id):
    """Independent oracle: plain Bellman-Ford over the arc list, µs durations."""
    dist = {n: None for n in net.node_ids}
    dist[src_id] = 0
    arc_list = arcs(net)
    for _ in range(net.n_nodes - 1):
        changed = False
        for frm, to, _len, dur in arc_list:
            if dist[frm] is not None and (dist[to] is None or dist[frm] + dur < dist[to]):
                dist[to] = dist[frm] + dur
                changed = True
        if not changed:
            break
    return dist


def all_simple_paths(adj, src, dst):
    stack = [(src, (src,))]
    while stack:
        node, path = stack.pop()
        if node == dst:
            yield path
            continue
        for nxt in adj.get(node, ()):
            if nxt not in path:
                stack.append((nxt, path + (nxt,)))


class TestShortestPath:
    def test_identity_query(self):
        g = make_grid(2, 2, 0.2, 30)
        p = g.shortest_path("n000x000", "n000x000")
        assert p.distance == 0.0
        assert p.duration == 0.0
        assert p.node_sequence == ("n000x000",)

    def test_grid_corner_to_corner_matches_enumeration(self):
        g = make_grid(3, 3, 0.2, 30)
        p = g.shortest_path("n000x000", "n002x002")
        # brute force over every simple path of the 3x3 grid
        adj = {}
        times = {}
        for frm, to, len_umi, dur in arcs(g):
            adj.setdefault(frm, []).append(to)
            times[(frm, to)] = dur
        best = min(
            sum(times[(a, b)] for a, b in itertools.pairwise(path))
            for path in all_simple_paths(adj, "n000x000", "n002x002")
        )
        assert p.duration * USEC == best
        assert p.distance == pytest.approx(0.8)
        assert p.duration == pytest.approx(96.0)

    def test_unreachable_between_components(self):
        net = RoadNetwork(
            ["a", "b", "c", "d"],
            [("a", "b", 0.1, 10), ("b", "a", 0.1, 10), ("c", "d", 0.1, 10), ("d", "c", 0.1, 10)],
        )
        with pytest.raises(Unreachable):
            net.shortest_path("a", "c")

    def test_lexicographic_tie_break(self):
        # two equal-duration routes a->b->d and a->c->d; b < c wins
        net = RoadNetwork(
            ["a", "b", "c", "d"],
            [
                ("a", "b", 0.1, 10),
                ("b", "d", 0.1, 10),
                ("a", "c", 0.1, 10),
                ("c", "d", 0.1, 10),
                ("d", "a", 0.5, 50),
            ],
        )
        assert net.shortest_path("a", "d").node_sequence == ("a", "b", "d")

    def test_distance_follows_time_optimal_path(self):
        # short-mileage slow arc loses to long-mileage fast route
        net = RoadNetwork(
            ["a", "b", "c"],
            [
                ("a", "c", 0.1, 100),
                ("a", "b", 0.2, 20),
                ("b", "c", 0.2, 20),
                ("c", "a", 0.1, 10),
            ],
        )
        p = net.shortest_path("a", "c")
        assert p.duration == 40.0
        assert p.distance == pytest.approx(0.4)


class TestGridGenerator:
    def test_two_by_two(self):
        g = make_grid(2, 2, 0.2, 30)
        assert g.n_nodes == 4
        assert len(arcs(g)) == 8
        assert all(dur == 24 * USEC for _, _, _, dur in arcs(g))

    def test_three_by_three_counts(self):
        g = make_grid(3, 3, 0.2, 30)
        assert g.n_nodes == 9
        assert len(arcs(g)) == 24

    @pytest.mark.parametrize("rows,cols", [(1, 5), (0, 2), (2, 1)])
    def test_rejects_small_grids(self, rows, cols):
        with pytest.raises(InvalidParameter):
            make_grid(rows, cols, 0.2, 30)

    @pytest.mark.parametrize("edge,speed", [(0.0, 30), (-0.2, 30), (0.2, 0), (0.2, -5)])
    def test_rejects_nonpositive_parameters(self, edge, speed):
        with pytest.raises(InvalidParameter):
            make_grid(2, 2, edge, speed)


class TestRefusals:
    """Each refusal names the bad field or value."""

    @pytest.mark.parametrize("build,message", [
        (lambda: RoadNetwork([], []), "network needs at least one node"),
        (lambda: RoadNetwork(["a", "b"], [("a", "a", 0.1, 10)]), "self-loop arc at 'a'"),
        (lambda: RoadNetwork(["a", "b"], [("a", "b", 0, 10)]),
         "arc ('a', 'b') needs positive length and time"),
        (lambda: RoadNetwork(["a", "b"], [("b", "a", 0.1, "0.0000001")]),
         "arc ('b', 'a') needs positive length and time"),
        (lambda: RoadNetwork(["a", "b"], []).index("c"), "unknown node 'c'"),
        (lambda: make_grid(1001, 2, 0.2, 30), "grid larger than 1000x1000 is not supported"),
        (lambda: make_grid(2, 1001, 0.2, 30), "grid larger than 1000x1000 is not supported"),
        (lambda: make_grid(2, 2, "0.000001", 10**10), "edge travel time rounds to zero"),
    ], ids=["no-nodes", "self-loop", "zero-length", "zero-time", "unknown-node", "rows",
            "cols", "zero-edge-time"])
    def test_refusal_names_the_problem(self, build, message):
        with pytest.raises(InvalidParameter) as err:
            build()
        assert str(err.value) == message

    def test_unknown_row_kind_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node,a\nnode,b\nedge,a,b,0.1,12\n")
        with pytest.raises(InvalidParameter) as err:
            load_network_csv(path)
        assert str(err.value) == "line 3: unknown row kind 'edge'"

    @pytest.mark.parametrize("umiles,mph,usec", [(200_000, 30, 24 * USEC), (1, 10**10, 0),
                                                  (1, Fraction(7200), 0), (3, Fraction(7200), 2)])
    def test_edge_time_rounds_half_to_even(self, umiles, mph, usec):
        # 0.5 usec rounds to 0 and 1.5 usec to 2
        assert edge_time_usec(umiles, mph) == usec


class TestTableMemory:
    def test_refuses_tables_beyond_physical_memory(self, monkeypatch):
        # 9 nodes need 20 * 81 = 1620 bytes of tables
        monkeypatch.setattr(netgraph, "_PHYSICAL_MEMORY", 1619)
        message = ("a network of 9 nodes needs 1620 bytes of shortest-path tables, "
                   "more than the 1619 bytes of physical memory")
        with pytest.raises(InvalidParameter) as err:
            make_grid(3, 3, 0.2, 30)
        assert str(err.value) == message
        names = [f"n{i}" for i in range(9)]
        with pytest.raises(InvalidParameter) as err:
            RoadNetwork(names, [(a, b, 0.1, 12) for a, b in zip(names, names[1:])])
        assert str(err.value) == message

    def test_builds_tables_that_fit(self, monkeypatch):
        monkeypatch.setattr(netgraph, "_PHYSICAL_MEMORY", 1620)
        assert make_grid(3, 3, 0.2, 30).duration_usec(0, 8) == 4 * 24 * USEC


class TestOracleAgreement:
    def _random_net(self, rng, n_nodes):
        ids = [f"v{i:02d}" for i in range(n_nodes)]
        arcs = []
        for i in range(n_nodes):
            out = rng.choice(n_nodes, size=min(3, n_nodes - 1), replace=False)
            for j in out:
                if j == i:
                    continue
                arcs.append((ids[i], ids[int(j)], int(rng.integers(1, 50)) / 10, int(rng.integers(5, 200))))
        dedup = {}
        for a in arcs:
            dedup[(a[0], a[1])] = a
        return RoadNetwork(ids, list(dedup.values()))

    def test_matches_bellman_ford_on_random_networks(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            net = self._random_net(rng, int(rng.integers(5, 25)))
            for src in net.node_ids[:5]:
                oracle = bellman_ford(net, src)
                i = net.index(src)
                for dst in net.node_ids:
                    j = net.index(dst)
                    if oracle[dst] is None:
                        assert not net.reachable(i, j)
                    else:
                        assert net.duration_usec(i, j) == oracle[dst]

    def test_matches_bellman_ford_on_grid(self):
        g = make_grid(5, 5, 0.25, 25)
        oracle = bellman_ford(g, g.node_ids[7])
        i = g.index(g.node_ids[7])
        for dst in g.node_ids:
            assert g.duration_usec(i, g.index(dst)) == oracle[dst]


class TestProperties:
    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality_on_grid(self, a, b, c):
        g = _grid_cache()
        assert g.duration_usec(a, c) <= g.duration_usec(a, b) + g.duration_usec(b, c)

    @given(st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_grid_symmetry(self, a, b):
        g = _grid_cache()
        assert g.duration_usec(a, b) == g.duration_usec(b, a)

    def test_path_sums_match_reported_totals(self):
        g = make_grid(4, 4, 0.3, 20)
        times = {(f, t): dur for f, t, _l, dur in arcs(g)}
        lens = {(f, t): l for f, t, l, _d in arcs(g)}
        p = g.shortest_path("n000x001", "n003x002")
        hops = list(itertools.pairwise(p.node_sequence))
        assert sum(times[h] for h in hops) == round(p.duration * USEC)
        assert sum(lens[h] for h in hops) == round(p.distance * UMILE)


_GRID = None


def _grid_cache():
    global _GRID
    if _GRID is None:
        _GRID = make_grid(3, 3, 0.2, 30)
    return _GRID


def _assert_tables_equal(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def assert_rows_match_tables(net):
    """`net.rows()` reads every cell of the duration and mileage tables as
    `ndarray.item` does, INF pairs included, through views of their memory;
    return how many pairs are unreachable."""
    dur, _, lex = net.tables()
    views = net.rows()
    assert len(views) == 2
    cells = list(itertools.product(range(net.n_nodes), repeat=2))
    for table, rows in zip((dur, lex), views):
        assert len(rows) == net.n_nodes
        for row in rows:
            assert np.shares_memory(row, table)
        got = [rows[i][j] for i, j in cells]
        assert got == [table.item(i, j) for i, j in cells]
        assert {type(x) for x in got} == {int}
    return sum(dur.item(i, j) >= INF for i, j in cells)


@st.composite
def random_networks(draw):
    """Sparse directed networks with one-way arcs, many equal-duration ties,
    and often several components, isolated nodes and nodes without out-arcs."""
    n = draw(st.integers(1, 14))
    cut = draw(st.integers(1, n))  # no arc crosses the cut: [0, cut) and [cut, n)
    arcs = []
    for lo, hi in ((0, cut), (cut, n)):
        size = hi - lo
        if size < 2:
            continue
        arc = st.tuples(st.integers(0, size - 1), st.integers(1, size - 1))
        for tail, step in draw(st.lists(arc, max_size=3 * size, unique=True)):
            head = (tail + step) % size
            arcs.append((lo + tail, lo + head, draw(st.integers(1, 5)), draw(st.integers(1, 3))))
    ids = [f"v{i:02d}" for i in range(n)]
    return RoadNetwork(ids, [(ids[a], ids[b], mi / 10, s) for a, b, mi, s in arcs])


class TestTables:
    @given(random_networks())
    @settings(max_examples=200, deadline=None)
    def test_matches_floyd_warshall_on_random_networks(self, net):
        _assert_tables_equal(net.tables(), _fw_oracle.build_tables(net))

    def test_matches_floyd_warshall_on_grid(self):
        net = make_grid(10, 10, 0.2, 28)
        _assert_tables_equal(net.tables(), _fw_oracle.build_tables(net))

    @given(random_networks())
    @settings(max_examples=200, deadline=None)
    def test_row_views_read_every_cell_like_item(self, net):
        assert_rows_match_tables(net)

    def test_row_views_read_every_cell_like_item_on_grid(self):
        assert_rows_match_tables(make_grid(10, 10, 0.2, 28))

    def test_row_views_read_unreachable_pairs_as_inf(self):
        net = RoadNetwork(["a", "b", "c"], [("a", "b", 0.1, 10)])
        assert assert_rows_match_tables(net) == 5  # all but a->b and the diagonal
        dur, lex = net.rows()
        assert dur[1][0] == lex[1][0] == INF and dur[0][1] == 10 * USEC

    def test_row_views_are_built_once(self):
        net = make_grid(3, 4, 0.2, 30)
        views = net.rows()
        assert net.rows() is views
        assert all(row.readonly for rows in views for row in rows)

    @given(random_networks())
    @settings(max_examples=200, deadline=None)
    def test_leg_memo_matches_hop_by_hop_walk(self, net):
        dur, nxt, lex = _fw_oracle.build_tables(net)
        ids = net.node_ids
        for i, j in itertools.product(range(net.n_nodes), repeat=2):
            if dur[i, j] >= INF:
                for query in (net.leg, net.path_indices):
                    with pytest.raises(Unreachable):
                        query(i, j)
                with pytest.raises(Unreachable):
                    net.shortest_path(ids[i], ids[j])
                continue
            # the walk the commit path used to take: next hop, then one arc
            nodes, usec, umiles = [i], [0], [0]
            while nodes[-1] != j:
                b = int(nxt[nodes[-1], j])
                len_umi, dur_us = net.arc_attrs(nodes[-1], b)
                nodes.append(b)
                usec.append(usec[-1] + dur_us)
                umiles.append(umiles[-1] + len_umi)
            memo = net.leg(i, j)
            assert memo == (nodes, usec, umiles)
            assert all(type(x) is int for column in memo for x in column)
            assert net.leg(i, j) is memo
            assert net.path_indices(i, j) == tuple(nodes)
            assert net.shortest_path(ids[i], ids[j]) == PathResult(
                distance=int(lex[i, j]) / UMILE, duration=int(dur[i, j]) / USEC,
                node_sequence=tuple(ids[k] for k in nodes),
            )

    @given(random_networks())
    @settings(max_examples=200, deadline=None)
    def test_order_to_ascends_in_mileage_to_the_target(self, net):
        lex = _fw_oracle.build_tables(net)[2]
        for j in range(net.n_nodes):
            order = net.order_to(j)
            # column j: mileage from each node to j, which one-way arcs make
            # differ from the mileage out of j
            assert list(order) == sorted(range(net.n_nodes), key=lambda a: (lex[a, j], a))
            assert net.order_to(j) is order


def save_network_csv(net: RoadNetwork, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for nid in net.node_ids:
            writer.writerow(["node", nid, 0.0, 0.0])
        for frm, to, len_umi, dur_us in arcs(net):
            writer.writerow(["arc", frm, to, len_umi / UMILE, dur_us / USEC])


class TestNetworkFile:
    def test_round_trip(self, tmp_path):
        g = make_grid(3, 2, 0.2, 30)
        path = tmp_path / "net.csv"
        save_network_csv(g, path)
        g2 = load_network_csv(path)
        assert g2.node_ids == g.node_ids
        assert arcs(g2) == arcs(g)
        assert g2.shortest_path("n000x000", "n002x001") == g.shortest_path("n000x000", "n002x001")

    def test_rejects_unknown_arc_endpoint(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node,a,0,0\narc,a,zz,0.2,24\n")
        with pytest.raises(InvalidParameter):
            load_network_csv(path)

    def test_rejects_unreadable_arc_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node,a,0,0\nnode,b,1,0\narc,a,b,xx,60\n")
        with pytest.raises(InvalidParameter, match=r"arc \('a', 'b'\): cannot read length 'xx'"):
            load_network_csv(path)

    def test_rejects_unreadable_coordinate_naming_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node,a,0,0\nnode,b,x,0\narc,a,b,0.1,12\n")
        with pytest.raises(InvalidParameter, match=r"line 2: cannot read coordinates 'x', '0'"):
            load_network_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("node,c,abc", "line 3: node row needs node,<id> or node,<id>,<x>,<y> with a non-empty id"),
        ("node,,1,2", "line 3: node row needs node,<id> or node,<id>,<x>,<y> with a non-empty id"),
        ("arc,a,b,1,60,junk", "line 3: arc row needs exactly arc,<from>,<to>,<length_mi>,<time_s>"),
    ], ids=["one-coordinate", "empty-id", "extra-arc-column"])
    def test_rejects_a_malformed_row_naming_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"node,a,0,0\nnode,b\n{row}\narc,b,a,1,60\n")
        with pytest.raises(InvalidParameter) as err:
            load_network_csv(path)
        assert str(err.value) == message

    def test_rejects_duplicate_arc(self):
        with pytest.raises(InvalidParameter):
            RoadNetwork(["a", "b"], [("a", "b", 0.1, 10), ("a", "b", 0.2, 20)])


def arc_rows(net):
    """The sorted arc arrays as (from, to, umiles, usec) rows."""
    return list(zip(net._arc_from.tolist(), net._arc_to.tolist(), net._arc_len.tolist(),
                    net._arc_dur.tolist()))


def parsed_rows(nodes, arcs):
    """The same rows with every arc's length and time parsed on its own."""
    index = {n: i for i, n in enumerate(sorted(set(nodes)))}
    return sorted((index[f], index[t], umiles_from_miles(mi), usec_from_seconds(s))
                  for f, t, mi, s in arcs)


class TestArcParsing:
    def test_grid_arcs(self):
        net = make_grid(4, 3, 0.1, 30)
        ids = [f"n{r:03d}x{c:03d}" for r in range(4) for c in range(3)]
        assert list(net.node_ids) == ids
        pairs = {(a, b) for a in ids for b in ids
                 if abs(int(a[1:4]) - int(b[1:4])) + abs(int(a[5:]) - int(b[5:])) == 1}
        # 0.1 mi at 30 mph takes 12 s
        assert arc_rows(net) == sorted(
            (ids.index(a), ids.index(b), UMILE // 10, 12 * USEC) for a, b in pairs)

    def test_csv_arcs(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("node,a,0,0\nnode,b,1,0\nnode,c,2,0\n"
                        "arc,a,b,0.1000005,12\narc,b,a,0.1000005,12\narc,b,c,0.25,30.5\n"
                        "arc,c,b,2.5e-06,12\n")
        arcs = [("a", "b", "0.1000005", "12"), ("b", "a", "0.1000005", "12"),
                ("b", "c", "0.25", "30.5"), ("c", "b", "2.5e-06", "12")]
        assert arc_rows(load_network_csv(path)) == parsed_rows("abc", arcs)

    def test_float_string_and_fraction_inputs_parse_apart(self):
        # a float parses from its repr, a Fraction exactly: these differ
        x = 0.1000005
        assert umiles_from_miles(x) != umiles_from_miles(Fraction(x))
        t = 12.0000005
        shared = (Fraction(x), Fraction(t))
        # equal values of other types follow each other; some arcs reuse
        # the previous arc's objects
        inputs = [(x, t), (Fraction(x), Fraction(t)), (str(x), str(t)), shared, shared,
                  (x, t), shared, ("12", 12), (12, "12"), (Fraction(12), 12.0)]
        nodes = [f"v{i}" for i in range(len(inputs) + 1)]
        arcs = []
        for i, (mi, s) in enumerate(inputs):
            arcs.append((nodes[i], nodes[i + 1], mi, s))
            arcs.append((nodes[i + 1], nodes[i], mi, s))
        net = RoadNetwork(nodes, arcs)
        assert arc_rows(net) == parsed_rows(nodes, arcs)
        assert len({row[2] for row in arc_rows(net)}) > 1
