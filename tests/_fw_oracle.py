"""Reference all-pairs tables: dense Floyd-Warshall, the test oracle.

A straightforward O(n^3) min-plus closure over the dense arc matrices, the
smallest tied successor as next hop, and the mileage of the canonical path
filled in ascending duration order.  Slow but obviously correct; the
package's sparse build must reproduce its three tables exactly.
"""

from __future__ import annotations

import numpy as np

from ridepool._sp_kernels import INF


def dense_inputs(net):
    """Dense (duration, arc length) matrices of a network; INF where no arc."""
    n = net.n_nodes
    dur = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(dur, 0)
    adj = np.full((n, n), INF, dtype=np.int64)
    dur[net._arc_from, net._arc_to] = net._arc_dur
    adj[net._arc_from, net._arc_to] = net._arc_len
    return dur, adj


def closure(dur: np.ndarray) -> np.ndarray:
    d = dur.copy()
    n = d.shape[0]
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    np.minimum(d, INF, out=d)
    return d


def next_hop(d, arc_from, arc_to, arc_dur) -> np.ndarray:
    n = d.shape[0]
    nxt = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(nxt, np.arange(n, dtype=np.int32))
    # descending successor order so the smallest tied successor wins last
    order = np.lexsort((arc_to, arc_from))[::-1]
    for a in order:
        s = arc_from[a]
        hit = arc_dur[a] + d[arc_to[a], :] == d[s, :]
        hit[s] = False
        nxt[s, hit] = arc_to[a]
    return nxt


def lex_dist(d, nxt, adj_dist) -> np.ndarray:
    n = d.shape[0]
    lex = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(lex, 0)
    # along the next-hop chain the remaining duration strictly decreases,
    # so filling pairs in ascending duration order resolves all dependencies
    for flat in np.argsort(d, axis=None):
        s, t = divmod(int(flat), n)
        if s == t or d[s, t] >= INF:
            continue
        step = nxt[s, t]
        lex[s, t] = adj_dist[s, step] + lex[step, t]
    return lex


def build_tables(net):
    """(duration, next_hop, lex_dist) of a network by Floyd-Warshall."""
    dur, adj = dense_inputs(net)
    d = closure(dur)
    nxt = next_hop(d, net._arc_from, net._arc_to, net._arc_dur)
    return d, nxt, lex_dist(d, nxt, adj)
