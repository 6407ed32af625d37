"""Road network representation and shortest-path queries.

A network is a directed graph of named locations.  Shortest paths minimize
travel time; the mileage reported for a query is the mileage along that
time-optimal path (ties broken toward the lexicographically smallest node
sequence).  All-pairs tables are precomputed lazily and shared, since a
simulation reuses a small set of origin/destination pairs heavily.

Distances are miles, durations seconds, stored as exact micro-units.
"""

from __future__ import annotations

import csv
import os
import threading
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _sp_kernels
from ._sp_kernels import INF
from .units import UMILE, USEC, umiles_from_miles, usec_from_seconds, fraction_from, round_fraction


class InvalidParameter(ValueError):
    """A network construction parameter is out of range or inconsistent."""


_PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")  # bytes


def _check_tables_fit(n: int) -> None:
    """Refuse `n` nodes when the shortest-path tables (int64 duration and
    mileage, int32 next hop: 20 bytes per pair) exceed physical memory."""
    if 20 * n * n > _PHYSICAL_MEMORY:
        raise InvalidParameter(f"a network of {n} nodes needs {20 * n * n} bytes of shortest-path "
                               f"tables, more than the {_PHYSICAL_MEMORY} bytes of physical memory")


class Unreachable(Exception):
    """No path exists between the queried locations."""

    def __init__(self, origin: str, destination: str):
        super().__init__(f"no path from {origin!r} to {destination!r}")
        self.origin = origin
        self.destination = destination


@dataclass(frozen=True)
class PathResult:
    """A time-minimal path: total miles, total seconds and the node sequence."""

    distance: float
    duration: float
    node_sequence: tuple[str, ...]


class RoadNetwork:
    """Directed road graph with memoized all-pairs shortest-path tables.

    Node ids are strings; internally nodes are the indices of the sorted id
    list, which makes index order and lexicographic id order coincide.
    Instances are read-only after construction and safe to query from
    multiple threads; table construction is guarded by a lock.
    """

    def __init__(self, nodes, arcs):
        """nodes: iterable of ids; arcs: (from, to, length_mi, time_s)."""
        node_ids = sorted(set(nodes))
        if not node_ids:
            raise InvalidParameter("network needs at least one node")
        _check_tables_fit(len(node_ids))
        self.node_ids: tuple[str, ...] = tuple(node_ids)
        self._index: dict[str, int] = {nid: i for i, nid in enumerate(self.node_ids)}

        # an arc that reuses the previous arc's two objects reuses their parse
        arc_map: dict[tuple[int, int], tuple[int, int]] = {}
        last = (None, None, None)
        too_long = INF // len(node_ids)  # no path of shorter arcs sums to INF
        for frm, to, length_mi, time_s in arcs:
            if frm not in self._index or to not in self._index:
                raise InvalidParameter(f"arc ({frm!r}, {to!r}) references unknown node")
            if frm == to:
                raise InvalidParameter(f"self-loop arc at {frm!r}")
            key = (self._index[frm], self._index[to])
            if key in arc_map:
                raise InvalidParameter(f"duplicate arc ({frm!r}, {to!r})")
            if length_mi is last[0] and time_s is last[1]:
                attrs = last[2]
            else:
                try:
                    attrs = (umiles_from_miles(length_mi), usec_from_seconds(time_s))
                except (ArithmeticError, TypeError, ValueError):
                    raise InvalidParameter(f"arc ({frm!r}, {to!r}): cannot read length "
                                           f"{length_mi!r} or time {time_s!r}") from None
                if max(attrs) >= too_long:
                    raise InvalidParameter(f"arc ({frm!r}, {to!r}) is too long for exact "
                                           f"path sums: {length_mi!r} mi, {time_s!r} s")
                last = (length_mi, time_s, attrs)
            if attrs[0] <= 0 or attrs[1] <= 0:
                raise InvalidParameter(f"arc ({frm!r}, {to!r}) needs positive length and time")
            arc_map[key] = attrs
        rows = sorted(key + attrs for key, attrs in arc_map.items())
        self._arc_from = np.array([r[0] for r in rows], dtype=np.int64)
        self._arc_to = np.array([r[1] for r in rows], dtype=np.int64)
        self._arc_len = np.array([r[2] for r in rows], dtype=np.int64)
        self._arc_dur = np.array([r[3] for r in rows], dtype=np.int64)
        self._arc_map = arc_map

        self._lock = threading.Lock()
        self._tables = None
        self._rows = None
        self._legs: dict[tuple[int, int], tuple[list[int], list[int], list[int]]] = {}
        self._orders: dict[int, array] = {}

    # -- construction helpers -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise InvalidParameter(f"unknown node {node!r}") from None

    def has_node(self, node: str) -> bool:
        return node in self._index

    # -- shortest paths --------------------------------------------------------

    def tables(self):
        """(duration usec, next hop, lex_dist umiles) as n x n arrays, built once;
        unreachable pairs hold INF duration."""
        if self._tables is None:
            with self._lock:
                if self._tables is None:
                    self._tables = _sp_kernels.build_tables(
                        self.n_nodes, self._arc_from, self._arc_to, self._arc_len, self._arc_dur
                    )
        return self._tables

    def rows(self):
        """(duration rows, lex_dist rows): one memoryview per row of the duration
        and mileage tables, sharing their memory, built once at the first call.
        `rows[i][j]` reads the same int as `table.item(i, j)`, at about half the cost."""
        if self._rows is None:
            dur, _, lex = self.tables()
            with self._lock:
                if self._rows is None:
                    self._rows = (_row_views(dur), _row_views(lex))
        return self._rows

    def duration_usec(self, i: int, j: int) -> int:
        """Travel time between node indices; raises Unreachable."""
        d = self.rows()[0][i][j]
        if d >= INF:
            raise Unreachable(self.node_ids[i], self.node_ids[j])
        return d

    def distance_umiles(self, i: int, j: int) -> int:
        """Mileage along the canonical time-minimal path between indices."""
        dur, lex = self.rows()
        if dur[i][j] >= INF:
            raise Unreachable(self.node_ids[i], self.node_ids[j])
        return lex[i][j]

    def reachable(self, i: int, j: int) -> bool:
        return int(self.tables()[0][i, j]) < INF

    def first_unreachable(self, nodes) -> tuple[int, int] | None:
        """First pair (i, j) of the node indices, in row-major order, with no
        path from i to j; None when they are all mutually reachable."""
        idx = np.asarray(nodes, dtype=np.intp)
        cut = self.tables()[0][np.ix_(idx, idx)] >= INF
        if not cut.any():
            return None
        a, b = divmod(int(np.argmax(cut)), len(idx))
        return int(idx[a]), int(idx[b])

    def arc_attrs(self, i: int, j: int) -> tuple[int, int]:
        """(length_umiles, time_usec) of the direct arc between node indices."""
        return self._arc_map[(i, j)]

    def leg(self, i: int, j: int) -> tuple[list[int], list[int], list[int]]:
        """The canonical path between node indices, memoized per pair: three
        lists (node, cumulative usec, cumulative umiles), one item per node
        from i (0, 0) to j.  Callers must not modify them."""
        memo = self._legs.get((i, j))
        if memo is not None:
            return memo
        d, nxt, _ = self.tables()
        if d.item(i, j) >= INF:
            raise Unreachable(self.node_ids[i], self.node_ids[j])
        nodes, usec, umiles = [i], [0], [0]
        cur = i
        while cur != j:
            nxt_node = nxt.item(cur, j)
            len_umi, dur_us = self._arc_map[(cur, nxt_node)]
            nodes.append(nxt_node)
            usec.append(usec[-1] + dur_us)
            umiles.append(umiles[-1] + len_umi)
            cur = nxt_node
        with self._lock:
            self._legs[(i, j)] = memo = (nodes, usec, umiles)
        return memo

    def order_to(self, j: int) -> array:
        """Every node index in ascending mileage to node index `j` (index order
        among equal mileages; unreachable nodes last), memoized per target."""
        memo = self._orders.get(j)
        if memo is not None:
            return memo
        order = np.argsort(self.tables()[2][:, j], kind="stable")
        memo = array("i", order.astype(np.intc).tobytes())
        with self._lock:
            self._orders[j] = memo
        return memo

    def path_indices(self, i: int, j: int) -> tuple[int, ...]:
        """Node-index sequence of the canonical path."""
        return tuple(self.leg(i, j)[0])

    def shortest_path(self, origin: str, destination: str) -> PathResult:
        """Time-minimal path from origin to destination.

        Deterministic for a fixed network: among equal-duration paths the
        lexicographically smallest node sequence is returned, and the
        reported distance is measured along that path.
        """
        nodes, usec, umiles = self.leg(self.index(origin), self.index(destination))
        seq = tuple(self.node_ids[k] for k in nodes)
        return PathResult(distance=umiles[-1] / UMILE, duration=usec[-1] / USEC, node_sequence=seq)


def _row_views(table: np.ndarray) -> tuple[memoryview, ...]:
    """One read-only int64 memoryview per row of a C-contiguous table, no copy."""
    n = table.shape[1]
    flat = memoryview(table).toreadonly().cast("B").cast("q")
    return tuple(flat[i * n : (i + 1) * n] for i in range(table.shape[0]))


def make_grid(rows: int, cols: int, edge_length: float, speed: float) -> RoadNetwork:
    """Bidirectional 4-neighbor grid; per-arc time is edge_length / speed.

    edge_length is in miles, speed in miles per hour.  Node ids encode the
    row/column so the sorted order is the row-major grid order.
    """
    if rows < 2 or cols < 2:
        raise InvalidParameter("grid needs at least 2 rows and 2 columns")
    if rows > 1000 or cols > 1000:
        raise InvalidParameter("grid larger than 1000x1000 is not supported")
    len_umi = umiles_from_miles(edge_length)
    speed_frac = fraction_from(speed)
    if len_umi <= 0 or speed_frac <= 0:
        raise InvalidParameter("edge_length and speed must be positive")
    # hours -> seconds cancels the micro scaling: usec = umiles * 3600 / mph
    dur_us = round_fraction(Fraction(len_umi * 3600, 1) / speed_frac)
    if dur_us <= 0:
        raise InvalidParameter("edge travel time rounds to zero")
    _check_tables_fit(rows * cols)  # before the arcs are built

    ids = [[f"n{r:03d}x{c:03d}" for c in range(cols)] for r in range(rows)]
    length = Fraction(len_umi, UMILE)
    time_s = Fraction(dur_us, USEC)
    arcs = []
    for r in range(rows):
        for c in range(cols):
            here = ids[r][c]
            if c + 1 < cols:
                arcs.append((here, ids[r][c + 1], length, time_s))
                arcs.append((ids[r][c + 1], here, length, time_s))
            if r + 1 < rows:
                arcs.append((here, ids[r + 1][c], length, time_s))
                arcs.append((ids[r + 1][c], here, length, time_s))
    return RoadNetwork([i for row in ids for i in row], arcs)


def load_network_csv(path) -> RoadNetwork:
    """Read a network file of `node,<id>` or `node,<id>,<x>,<y>` rows and
    `arc,<from>,<to>,<length_mi>,<time_s>` rows; a malformed row names its line."""
    nodes = []
    arcs = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#"):
                continue
            kind = row[0].strip().lower()
            if kind == "node":
                if len(row) not in (2, 4) or not row[1].strip():
                    raise InvalidParameter(f"line {lineno}: node row needs node,<id> or "
                                           "node,<id>,<x>,<y> with a non-empty id")
                nodes.append(row[1].strip())
                if len(row) == 4:
                    try:
                        float(row[2]), float(row[3])  # checked, not kept
                    except ValueError:
                        raise InvalidParameter(
                            f"line {lineno}: cannot read coordinates {row[2]!r}, {row[3]!r}"
                        ) from None
            elif kind == "arc":
                if len(row) != 5:
                    raise InvalidParameter(f"line {lineno}: arc row needs exactly "
                                           "arc,<from>,<to>,<length_mi>,<time_s>")
                arcs.append((row[1].strip(), row[2].strip(), row[3].strip(), row[4].strip()))
            else:
                raise InvalidParameter(f"line {lineno}: unknown row kind {row[0]!r}")
    return RoadNetwork(nodes, arcs)
