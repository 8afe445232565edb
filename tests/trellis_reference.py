"""Scalar reference implementations of the trellis construction and graph
algorithms, kept as test oracles for the array paths in `skewconv.trellis`.

`build_trellis` is the per-edge construction loop over scalar field
arithmetic, `loop_dp` the per-edge loop relaxation over the edges read one
at a time through `Trellis.edge` (`sections`), and `acs` the float argmin
add-compare-select step that the packed-key kernel replaced.  The graph
algorithms run on `graph`, per-node adjacency lists of the period-unrolled
state graph: Tarjan's strong components (`sccs`), Dijkstra's forward and
return costs, the zero-output-weight cycles and the catastrophic cycle they
hold (found by an input-weight seed and a BFS), and `slope`, Karp's
recurrence over the full (m + 1) x m table of each strong component
(`karp_table`).  `karp_two_pass`
is Karp's recurrence in two O(m) passes over the array predecessor table,
from a virtual source.  `free_distance` and `active_burst_distance` put
`loop_dp` and these together, tracing the witness from `loop_dp`'s own
parents.  `sink_form` turns a successor table written with inf on its
missing edges into the trellis's own, the missing edges led to a sink node.
"""

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

from skewconv.trellis import FreeDistanceResult, PathStep, Trellis, unpack_digits


def build_trellis(code):
    """The trellis of `skewconv.trellis.build_trellis`, one edge at a time:
    a `Trellis` constructed from edge arrays with a row per section, whose
    derived weights are checked against the edges' own."""
    field = code.field
    q = field.size
    k, n = code.k, code.n
    regs = code.row_degrees
    twist = code.register_twist
    nu = sum(regs)
    starts = [sum(regs[:row]) for row in range(k)]
    inputs = [unpack_digits(idx, q, k) for idx in range(q**k)]
    next_state, labels, weights = [], [], []
    for coeffs in code.phase_coefficients:
        g0 = coeffs[0]
        next_state.append([])
        labels.append([])
        weights.append([])
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
                next_state[-1].append(to_state)
                labels[-1].append(label)
                weights[-1].append(sum(1 for v in label if v))
    tr = Trellis(
        field,
        k,
        n,
        regs,
        np.array(next_state, dtype=np.intp),
        np.array(labels, dtype=np.min_scalar_type(q - 1)),
    )
    assert tr.weight.tolist() == weights
    return tr


def sections(tr):
    """sections[s][from_state][input]: every edge as a `TrellisEdge`, read
    through `Trellis.edge`."""
    return [
        [[tr.edge(s, st, idx) for idx in range(tr.num_inputs)] for st in range(tr.num_states)]
        for s in range(tr.num_sections)
    ]


def loop_dp(tr, steps):
    """The loop relaxation one edge at a time, one start phase after
    another: yields (start, length, dist, parents) for length = 0..steps,
    where dist[st] is the lightest weight of a length-edge path from the
    zero state to st and parents[step][st] the (state, input) it last came
    by.  The first (state, input) in scan order that strictly improves a
    state becomes its parent."""
    edges = sections(tr)
    for start in range(tr.num_sections):
        dist = [math.inf] * tr.num_states
        dist[0] = 0
        parents = []
        yield start, 0, dist, parents
        for step in range(steps):
            section = edges[(start + step) % tr.num_sections]
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


def acs(dist, src, branch):
    """The float add-compare-select step `skewconv.trellis.acs` replaced,
    kept as its oracle: over a batch of rows b of dist[b, st] (inf where
    unreached), edge j into state st of row b leaves state src[st, j] of the
    row, or entry src[b, st, j] of dist.flat, at cost branch[b, st, j] (inf:
    it may not be taken).  Returns the new dist and best[b, st], the j
    kept: the first minimum, so the lowest j of equal candidates, 0 if all
    are inf."""
    cand = dist[:, src] if src.ndim == 2 else dist.take(src)
    cand += branch
    best = cand.argmin(axis=-1)
    starts = np.arange(0, cand.size, cand.shape[-1]).reshape(best.shape)
    return cand.take(starts + best), best


def active_burst_distance(tr, ell):
    """The lightest ell-loop over all start phases, math.inf if none."""
    return min(dist[0] for _, length, dist, _ in loop_dp(tr, ell) if length == ell)


def trace_loop(tr, start, length, parents):
    """The steps of the loop of `length` edges from phase `start` that
    `loop_dp`'s parents keep, traced back from the zero state."""
    steps = []
    state = 0
    for step in range(length - 1, -1, -1):
        prev_state, idx = parents[step][state]
        section = (start + step) % tr.num_sections
        e = tr.edge(section, prev_state, idx)
        steps.append(PathStep(section, prev_state, tr.input_block(idx), e.label, state))
        state = prev_state
    steps.reverse()
    return steps


def slope(tr):
    """Minimum cycle mean by Karp's full table, per strong component."""
    return karp_table(graph(tr))


def karp_table(adj):
    """Karp's minimum cycle mean of the graph of adjacency lists adj[u] =
    [(v, weight, input), ...] over the full (m + 1) x m table of each strong
    component, in Python ints and Fractions; math.inf if there is no cycle."""
    best = None
    for scc in sccs(len(adj), adj):
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


def karp_two_pass(src, weight):
    """Karp's minimum cycle mean of an m-node graph given as a predecessor
    table: node v is entered from src[j, v] by an edge of weight[j, v].

    A virtual source with a zero-weight edge to every node reaches them all,
    so D_0 = 0 at every node and the graph need not be strongly connected.
    Two passes keep the working memory at O(m) beside the table: the first
    relaxes to D_m, the lightest m-edge walk weights; the second recomputes
    D_0 .. D_{m-1} and keeps, per node, the largest (D_m - D_k) / (m - k)
    with its integer numerator and denominator.  Distinct fractions with
    denominators up to m differ by at least 1/m^2, so comparing them as
    floats is exact for small weights.  math.inf if no m-edge walk exists,
    that is no cycle.
    """
    m = src.shape[1]

    def walks():
        d = np.zeros(m)
        while True:
            yield d
            np.min(d[src] + weight, axis=0, out=d)

    d_m = next(itertools.islice(walks(), m, None)).copy()
    reached = d_m < np.inf
    if not reached.any():
        return math.inf
    d_m[~reached] = 0  # not candidates; keeps inf - inf out
    best = np.full(m, -np.inf)
    num = np.zeros(m)
    den = np.ones(m)
    for k, d_k in zip(range(m), walks()):
        diff = d_m - d_k  # -inf where no k-edge walk reaches the node
        mean = diff / (m - k)
        larger = mean > best
        best[larger] = mean[larger]
        num[larger] = diff[larger]
        den[larger] = m - k
    v = int(np.where(reached, best, np.inf).argmin())
    return Fraction(int(num[v]), int(den[v]))


def sink_form(to, w):
    """A successor table (to, w)[i, v] written with math.inf on its missing
    edges, in the form `skewconv.trellis` keeps: each missing edge leads to
    the sink, node m = to.shape[1], at weight 0, and the weights are int64."""
    to, w = np.asarray(to, dtype=np.intp), np.asarray(w, dtype=float)
    missing = np.isinf(w)
    return np.where(missing, to.shape[1], to), np.where(missing, 0, w).astype(np.int64)


# -- the period-unrolled state graph as adjacency lists ----------------------


def node(tr, phase, state):
    return phase * tr.num_states + state


def graph(tr):
    """Adjacency over (phase, state) nodes with the weight-0 zero-to-zero
    edges removed.  Entries are (to_node, weight, input_idx)."""
    adj = []
    for s in range(tr.num_sections):
        after = (s + 1) % tr.num_sections
        for st in range(tr.num_states):
            edges = [tr.edge(s, st, idx) for idx in range(tr.num_inputs)]
            adj.append(
                [
                    (node(tr, after, e.to_state), e.weight, idx)
                    for idx, e in enumerate(edges)
                    if not (st == 0 and e.to_state == 0 and e.weight == 0)
                ]
            )
    return adj


def sccs(num_nodes, adj):
    """Tarjan strongly connected components, iterative."""
    index = [-1] * num_nodes
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack = []
    comps = []
    counter = 0
    for root in range(num_nodes):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i][0]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def forward_costs(tr, adj):
    """Cheapest weight from any zero-state node to each node."""
    return dijkstra(adj, [node(tr, phase, 0) for phase in range(tr.num_sections)])


def dijkstra(adj, sources):
    """Cheapest weight from any of the nodes `sources` to each node."""
    dist = [math.inf] * len(adj)
    for src in sources:
        dist[src] = 0
    heap = [(0, src) for src in sources]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w, _ in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reverse(adj):
    radj = [[] for _ in adj]
    for u, edges in enumerate(adj):
        for v, w, idx in edges:
            radj[v].append((u, w, idx))
    return radj


def return_costs(tr, adj):
    """Cheapest weight from each node to any zero-state node: the forward
    costs on the reversed graph."""
    return forward_costs(tr, reverse(adj))


def zero_output_cycles(adj):
    """The subgraph of zero-output-weight edges, and those of its strong
    components that hold a cycle."""
    zadj = [[e for e in edges if e[1] == 0] for edges in adj]
    cycles = [
        scc
        for scc in sccs(len(zadj), zadj)
        if len(scc) > 1 or any(v == scc[0] for v, _, _ in zadj[scc[0]])
    ]
    return cycles, zadj


def zero_cycle_core(tr):
    """Mask of the nodes that are reached from a zero-output-weight cycle and
    reach one, along zero-weight edges."""
    adj = graph(tr)
    cycles, zadj = zero_output_cycles(adj)

    def reached(start, edges):
        seen = set(start)
        queue = list(start)
        while queue:
            for v, _, _ in edges[queue.pop()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    on_cycles = [v for scc in cycles for v in scc]
    both = reached(on_cycles, zadj) & reached(on_cycles, reverse(zadj))
    mask = np.zeros(len(adj), dtype=bool)
    mask[list(both)] = True
    return mask


def path_step(tr, u, idx):
    phase, state = divmod(u, tr.num_states)
    e = tr.edge(phase, state, idx)
    return PathStep(phase, state, tr.input_block(idx), e.label, e.to_state)


def catastrophic_cycle(tr):
    """A cycle with zero output weight but positive input weight, or None: a
    seed edge of positive input weight inside a cyclic zero-weight component,
    closed by a BFS back to its start."""
    cycles, zadj = zero_output_cycles(graph(tr))
    for scc in cycles:
        sset = set(scc)
        seed = None
        for u in scc:
            for v, _, idx in zadj[u]:
                if v in sset and any(tr.input_block(idx)):
                    seed = (u, v, idx)
                    break
            if seed:
                break
        if seed is None:
            continue
        u, v, idx = seed
        prev = {v: None}
        queue = [v]
        while queue and u not in prev:
            x = queue.pop(0)
            for y, _, yidx in zadj[x]:
                if y in sset and y not in prev:
                    prev[y] = (x, yidx)
                    queue.append(y)
        if u not in prev and v != u:
            continue
        steps = [path_step(tr, u, idx)]
        at = u
        back = []
        while at != v:
            x, yidx = prev[at]
            back.append(path_step(tr, x, yidx))
            at = x
        steps.extend(reversed(back))
        return steps
    return None


def free_distance(tr, ell_max=None, lmax=0):
    """Trellis.free_distance on `loop_dp`, with Dijkstra's return costs for
    the frontier bound and the forward costs into the cyclic zero-weight
    components for the zero-output tail."""
    if ell_max is None:
        ell_max = 8 * (tr.external_degree + 1) * tr.num_sections
    adj = graph(tr)
    ret = return_costs(tr, adj)
    best = math.inf
    best_trace = None
    frontier_bound = math.inf
    burst = [math.inf] * lmax
    for start, length, dist, parents in loop_dp(tr, max(ell_max, lmax)):
        if 1 <= length <= lmax:
            burst[length - 1] = min(burst[length - 1], dist[0])
        if 1 <= length <= ell_max and dist[0] < best:
            best = dist[0]
            best_trace = (start, length, parents)
        if length == ell_max:
            end_phase = (start + ell_max) % tr.num_sections
            for st, dv in enumerate(dist):
                if dv != math.inf:
                    frontier_bound = min(frontier_bound, dv + ret[node(tr, end_phase, st)])
    cycles, _ = zero_output_cycles(adj)
    tail_min = math.inf
    if cycles:
        dist0 = forward_costs(tr, adj)
        tail_min = min(dist0[v] for scc in cycles for v in scc)
    value = min(best, tail_min)
    stabilized = frontier_bound >= value
    if tail_min < best:
        return FreeDistanceResult(value, stabilized, "zero_output_tail", None, None, burst)
    if best_trace is None:
        return FreeDistanceResult(value, stabilized, "loop", None, None, burst)
    start, length, parents = best_trace
    return FreeDistanceResult(
        value, stabilized, "loop", length, trace_loop(tr, start, length, parents), burst
    )
