"""All-pairs shortest-path tables.

This is the one numerically hot build of the package.  Tables are built once
per network and memoized, so the cost is front-loaded:

* ``duration`` -- shortest travel time between every pair of nodes,
* ``next_hop`` -- first hop of the lexicographically smallest time-minimal
  path (smallest successor node index wins among ties),
* ``lex_dist`` -- mileage along exactly that path.

The build is pure numpy and works from the arc arrays sorted by (tail,
head), never from a dense arc matrix: durations by a label-correcting
relaxation over a frontier of (source, node) pairs, next hops by one pass
per out-arc slot, and mileages by pointer jumping along the next-hop
chains.  Everything is int64 micro-units, so the tables are exact.
"""

from __future__ import annotations

import numpy as np

INF = 2**61  # a Python int: scalar lookups compare against it without numpy
BLOCK_ROWS = 128  # rows per block in the dense passes; bounds temporaries


def backend_name() -> str:
    return "numpy"


def _durations(n, first, arc_to, arc_dur) -> np.ndarray:
    """All-sources label-correcting relaxation, vectorised over pairs.

    The frontier holds the flat indices ``source * n + node`` whose duration
    improved in the last round; each round relaxes their out-arcs and keeps
    the smallest candidate per pair.  It ends when no pair improves.
    """
    d = np.full(n * n, INF, dtype=np.int64)
    frontier = np.arange(n, dtype=np.int64) * (n + 1)
    d[frontier] = 0
    improved = np.zeros(n * n, dtype=bool)
    while frontier.size:
        node = frontier % n
        row = frontier - node
        base = d[frontier]
        lo, deg = first[node], first[node + 1] - first[node]
        idx, val = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for k in range(int(deg.max())):
            m = deg > k
            a = lo[m] + k
            i = row[m] + arc_to[a]
            v = base[m] + arc_dur[a]
            keep = v < d[i]
            idx.append(i[keep])
            val.append(v[keep])
        idx = np.concatenate(idx)
        np.minimum.at(d, idx, np.concatenate(val))
        # every candidate beat its pair's old duration, so all of them improved
        improved[idx] = True
        frontier = np.flatnonzero(improved)
        improved[frontier] = False
    return d.reshape(n, n)


def _first_hops(d, first, arc_to, arc_len, arc_dur):
    """Next hop and the mileage of that first arc, for every pair.

    A node's out-arcs are sorted by head, so visiting out-arc slots in
    descending order lets the smallest tied successor overwrite the rest.
    """
    n = d.shape[0]
    nxt = np.full((n, n), -1, dtype=np.int32)
    lex = np.full((n, n), INF, dtype=np.int64)
    deg = np.diff(first)
    for r0 in range(0, n, BLOCK_ROWS):
        rows = np.arange(r0, min(r0 + BLOCK_ROWS, n))
        for k in range(int(deg[rows].max(initial=0)) - 1, -1, -1):
            src = rows[deg[rows] > k]
            a = first[src] + k
            hit = arc_dur[a, None] + d[arc_to[a]] == d[src]
            nxt[src] = np.where(hit, arc_to[a, None], nxt[src])
            lex[src] = np.where(hit, arc_len[a, None], lex[src])
    np.fill_diagonal(nxt, np.arange(n, dtype=np.int32))
    np.fill_diagonal(lex, 0)
    return nxt, lex


def _chain_mileage(nxt, lex) -> None:
    """Complete first-hop mileages to whole-path mileages, in place.

    Pointer jumping: ``lex[s, t]`` is always the mileage from ``s`` to
    ``jump[s, t]`` along the chain to ``t``; a round adds the mileage of
    ``(jump[s, t], t)`` and jumps past it, halving the hops left.  Blocks
    of rows update in place: a block gathers each (jump, mileage) pair from
    one state, before or after that pair's own update, so the invariant
    holds either way and rounds only end sooner.
    """
    n = nxt.shape[0]
    cols = np.arange(n, dtype=np.int32)
    jump = np.where(nxt < 0, cols, nxt)  # unreachable pairs rest at the target
    flat_jump, flat_lex = jump.reshape(-1), lex.reshape(-1)
    pending = True
    while pending:
        pending = False
        for r0 in range(0, n, BLOCK_ROWS):
            blk = jump[r0:r0 + BLOCK_ROWS]
            if (blk == cols).all():
                continue
            at = blk.astype(np.int64) * n + cols
            step_lex, step_jump = flat_lex[at], flat_jump[at]
            lex[r0:r0 + BLOCK_ROWS] += step_lex
            blk[...] = step_jump
            pending = True


def build_tables(n, arc_from, arc_to, arc_len, arc_dur):
    """Build (duration, next_hop, lex_dist) tables from sorted arc arrays.

    Arcs must be sorted by (tail, head), without duplicates or self-loops,
    with positive durations.  Unreachable pairs read INF in ``duration``
    and ``lex_dist`` and -1 in ``next_hop``.
    """
    first = np.searchsorted(arc_from, np.arange(n + 1))
    d = _durations(n, first, arc_to, arc_dur)
    nxt, lex = _first_hops(d, first, arc_to, arc_len, arc_dur)
    _chain_mileage(nxt, lex)
    return d, nxt, lex
