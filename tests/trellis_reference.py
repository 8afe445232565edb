"""Scalar reference implementations of the trellis construction and graph
algorithms, kept as test oracles for the array paths in `skewconv.trellis`.

`build_trellis` is the per-edge construction loop over scalar field
arithmetic, `loop_dp` is the per-edge loop relaxation and `slope` is Karp's
recurrence over the full (m + 1) x m table of each strong component.
`free_distance` and `active_burst_distance` run the library's own methods on
`loop_dp`.
"""

import copy
import functools
import math
from fractions import Fraction

from skewconv.trellis import Trellis, TrellisEdge, unpack_digits


def build_trellis(code):
    """The trellis of `skewconv.trellis.build_trellis`, one edge at a time:
    a `Trellis` constructed from its sections."""
    field = code.field
    q = field.size
    k, n = code.k, code.n
    regs = code.row_degrees
    twist = code.register_twist
    nu = sum(regs)
    starts = [sum(regs[:row]) for row in range(k)]
    inputs = [unpack_digits(idx, q, k) for idx in range(q**k)]
    sections = []
    for coeffs in code.phase_coefficients:
        g0 = coeffs[0]
        per_state = []
        for st in range(q**nu):
            slots = unpack_digits(st, q, nu)
            held = [0] * n
            for row in range(k):
                for delay in range(1, regs[row] + 1):
                    val = slots[starts[row] + delay - 1]
                    if val == 0:
                        continue
                    mat = coeffs[delay]
                    for j in range(n):
                        if mat[row][j]:
                            held[j] = field.add_int(held[j], field.mul_int(val, mat[row][j]))
            if twist:
                slots = [field.frobenius_int(v, twist) for v in slots]
            edges = []
            for ub in inputs:
                label = held[:]
                new_slots = []
                for row, val in enumerate(ub):
                    if regs[row]:
                        new_slots.append(field.frobenius_int(val, twist) if twist else val)
                        new_slots.extend(slots[starts[row] : starts[row] + regs[row] - 1])
                    if val == 0:
                        continue
                    for j in range(n):
                        if g0[row][j]:
                            label[j] = field.add_int(label[j], field.mul_int(val, g0[row][j]))
                to_state = 0
                for d in reversed(new_slots):
                    to_state = to_state * q + d
                weight = sum(1 for v in label if v)
                edges.append(TrellisEdge(to_state, tuple(label), weight))
            per_state.append(edges)
        sections.append(per_state)
    return Trellis(field, k, n, regs, sections)


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
