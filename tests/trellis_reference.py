"""Scalar reference implementations of the trellis graph algorithms, kept as
test oracles for the array paths in `skewconv.trellis`.

`loop_dp` is the per-edge loop relaxation and `slope` is Karp's recurrence
over the full (m + 1) x m table of each strong component.  `free_distance`
and `active_burst_distance` run the library's own methods on `loop_dp`.
"""

import copy
import functools
import math
from fractions import Fraction

from skewconv.trellis import Trellis


def loop_dp(tr, steps):
    """Trellis._loop_dp, one edge at a time: the first (state, input) in
    scan order that strictly improves a state becomes its parent."""
    for start in range(tr.num_sections):
        dist = [math.inf] * tr.num_states
        dist[0] = 0
        parents = []
        yield start, 0, dist, parents
        for step in range(steps):
            section = tr.sections[(start + step) % tr.num_sections]
            ndist = [math.inf] * tr.num_states
            npar = [None] * tr.num_states
            for st, dv in enumerate(dist):
                if dv == math.inf:
                    continue
                forbid_zero = st == 0
                for idx, e in enumerate(section[st]):
                    if forbid_zero and e.to_state == 0 and e.weight == 0:
                        continue
                    cand = dv + e.weight
                    if cand < ndist[e.to_state]:
                        ndist[e.to_state] = cand
                        npar[e.to_state] = (st, idx)
            parents.append(npar)
            dist = ndist
            yield start, step + 1, dist, parents


def _on_scalar_dp(tr):
    shadow = copy.copy(tr)
    shadow._loop_dp = functools.partial(loop_dp, tr)
    return shadow


def free_distance(tr, ell_max=None, lmax=0):
    return Trellis.free_distance(_on_scalar_dp(tr), ell_max, lmax)


def active_burst_distance(tr, ell):
    return Trellis.active_burst_distance(_on_scalar_dp(tr), ell)


def slope(tr):
    """Minimum cycle mean by Karp's full table, per strong component."""
    adj = tr._graph()
    best = None
    for scc in tr._sccs(len(adj), adj):
        pos = {v: i for i, v in enumerate(scc)}
        internal = [(pos[u], pos[v], w) for u in scc for v, w, _ in adj[u] if v in pos]
        if not internal:
            continue
        m = len(scc)
        dk = [[math.inf] * m for _ in range(m + 1)]
        dk[0][0] = 0
        for step in range(1, m + 1):
            prev, cur = dk[step - 1], dk[step]
            for u, v, w in internal:
                if prev[u] != math.inf and prev[u] + w < cur[v]:
                    cur[v] = prev[u] + w
        for v in range(m):
            if dk[m][v] == math.inf:
                continue
            worst = None
            for kstep in range(m):
                if dk[kstep][v] == math.inf:
                    continue
                mean = Fraction(int(dk[m][v] - dk[kstep][v]), m - kstep)
                if worst is None or mean > worst:
                    worst = mean
            if worst is not None and (best is None or worst < best):
                best = worst
    return best if best is not None else math.inf
