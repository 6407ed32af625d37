"""Per-hop route: the reference for the vehicles' stop-level waypoints.

This is the route record vehicles kept before they kept waypoints: every
node of every leg, with the arrival time and cumulative mileage at each,
history included.  The anchor is the first node reached at or after `now`,
searched from the last anchor on (an idle vehicle's anchor is its last node,
at `now`).  A commit keeps the nodes up to the anchor and walks each leg to
the commit's stops hop by hop, through the next-hop table and the arcs.
Tests replay simulations with one of these beside each vehicle.
"""

from __future__ import annotations

from bisect import bisect_left

from ridepool.netgraph import RoadNetwork


class HopRoute:
    def __init__(self, start: int):
        self.nodes, self.times, self.cum = [start], [0], [0]
        self.pos = 0  # the last anchor's position

    def anchor(self, now: int, idle: bool) -> tuple[int, int, int, int]:
        """(position, node index, time, cumulative umiles) of the anchor."""
        if idle:
            pos = len(self.nodes) - 1
            return pos, self.nodes[pos], now, self.cum[pos]
        pos = bisect_left(self.times, now, self.pos)
        return pos, self.nodes[pos], self.times[pos], self.cum[pos]

    def commit(self, net: RoadNetwork, stops: list[int], now: int, idle: bool) -> None:
        """Reroute from the anchor through the stops' node indices; `idle`
        tells whether the vehicle had no committed ride left at `now`."""
        pos, cur, t, _ = self.anchor(now, idle)
        del self.nodes[pos + 1 :], self.times[pos + 1 :], self.cum[pos + 1 :]
        self.pos = pos
        nxt = net.tables()[1]
        for j in stops:
            while cur != j:
                hop = nxt.item(cur, j)
                length, duration = net.arc_attrs(cur, hop)
                t += duration
                self.nodes.append(hop)
                self.times.append(t)
                self.cum.append(self.cum[-1] + length)
                cur = hop
