"""Periodic time-varying trellises in controller canonical form.

A trellis has one section per phase of the code period; section s is used at
times t = s (mod period).  States are the shift-register contents, one
register per generator row, register i holding the last nu_i input symbols;
states are packed little-endian by row then delay slot as base-Q digits.

Distance measures follow the loop convention: a loop leaves the zero state,
never rides a weight-0 edge from zero state to zero state, and returns to the
zero state after exactly ell edges.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Trellis",
    "TrellisEdge",
    "PathStep",
    "FreeDistanceResult",
    "CatastrophicityResult",
    "UnitMemoryBounds",
    "build_trellis",
    "is_catastrophic",
    "unpack_digits",
    "unit_memory_bounds",
    "export_dot",
]


class TrellisEdge(NamedTuple):
    to_state: int
    label: tuple
    weight: int


class PathStep(NamedTuple):
    section: int
    from_state: int
    input_block: tuple
    label: tuple
    to_state: int


@dataclass
class FreeDistanceResult:
    value: float
    stabilized: bool
    achieved_by: str  # "loop" or "zero_output_tail"
    loop_length: int | None
    witness: list | None
    burst: list  # burst[ell - 1]: lightest ell-loop weight, ell = 1..lmax

    def __int__(self):
        return int(self.value)


class CatastrophicityResult(NamedTuple):
    catastrophic: bool
    witness: list | None


class UnitMemoryBounds(NamedTuple):
    d_free_bound: int | None
    slope_bound: int


def unpack_digits(value, base, count):
    """The `count` lowest base-`base` digits of value, least significant first."""
    out = []
    for _ in range(count):
        value, d = divmod(value, base)
        out.append(d)
    return out


class Trellis:
    def __init__(self, field, k, n, register_lengths, sections):
        self.field = field
        self.k = k
        self.n = n
        self.q = field.size
        self.register_lengths = tuple(register_lengths)
        self.external_degree = sum(register_lengths)
        self.memory = max(register_lengths, default=0)
        self.num_states = self.q**self.external_degree
        self.sections = sections
        self.num_sections = len(sections)
        self.num_inputs = self.q**self.k

    # -- packing helpers --

    def input_block(self, idx):
        return tuple(unpack_digits(idx, self.q, self.k))

    def input_weight(self, idx):
        return sum(1 for v in self.input_block(idx) if v)

    def state_registers(self, state):
        """Register contents as a tuple per row, delay slot 1 first."""
        slots = unpack_digits(state, self.q, self.external_degree)
        out = []
        for length in self.register_lengths:
            out.append(tuple(slots[:length]))
            slots = slots[length:]
        return tuple(out)

    def state_name(self, state):
        regs = [v for row in self.state_registers(state) for v in row]
        if not regs:
            return "0"
        return ",".join(self.field.element_name(v) for v in regs)

    def edge(self, section, from_state, input_idx):
        return self.sections[section % self.num_sections][from_state][input_idx]

    # -- edge arrays, built from `sections` on first use --
    # Edge e = from_state * num_inputs + input of section s is column e of
    # row s.

    @cached_property
    def next_state(self):
        """next_state[s, e]: the state edge e of section s enters."""
        return np.array(
            [[e.to_state for edges in sec for e in edges] for sec in self.sections], dtype=np.intp
        )

    @cached_property
    def weight(self):
        """weight[s, e]: the output weight of edge e of section s."""
        return np.array(
            [[e.weight for edges in sec for e in edges] for sec in self.sections], dtype=np.intp
        )

    @cached_property
    def pred(self):
        """pred[s, st]: the q^k edges of section s that enter state st, in
        (from_state, input) order."""
        order = np.argsort(self.next_state, axis=1, kind="stable")
        entered = np.take_along_axis(self.next_state, order, axis=1)
        expected = np.repeat(np.arange(self.num_states), self.num_inputs)
        assert (entered == expected).all(), "every state must have in-degree q^k"
        return order.reshape(self.num_sections, self.num_states, self.num_inputs)

    @cached_property
    def _pred_paths(self):
        """(from_state, weight)[s, st, j] of the edge pred[s, st, j]; the
        weight is a float, inf on the weight-0 zero-to-zero edges the loop
        convention removes."""
        inputs = self.num_inputs
        weight = self.weight.astype(float)
        removed = (self.next_state[:, :inputs] == 0) & (self.weight[:, :inputs] == 0)
        weight[:, :inputs][removed] = np.inf
        flat = self.pred.reshape(self.num_sections, -1)
        pred_weight = np.take_along_axis(weight, flat, axis=1).reshape(self.pred.shape)
        return self.pred // inputs, pred_weight

    # -- the period-unrolled state graph --

    def _node(self, phase, state):
        return phase * self.num_states + state

    def _graph(self):
        """Adjacency over (phase, state) nodes with the weight-0 zero-to-zero
        edges removed.  Entries are (to_node, weight, input_idx)."""
        inputs = range(self.num_inputs)
        next_first = np.roll(np.arange(self.num_sections) * self.num_states, -1)[:, None]
        to_node = (next_first + self.next_state).reshape(-1, self.num_inputs).tolist()
        weight = self.weight.reshape(-1, self.num_inputs).tolist()
        adj = [list(zip(to, w, inputs)) for to, w in zip(to_node, weight)]
        for s in range(self.num_sections):
            node = self._node(s, 0)
            zero = self._node((s + 1) % self.num_sections, 0)
            adj[node] = [e for e in adj[node] if e[:2] != (zero, 0)]
        return adj

    @staticmethod
    def _sccs(num_nodes, adj):
        """Tarjan strongly connected components, iterative."""
        index = [-1] * num_nodes
        low = [0] * num_nodes
        on_stack = [False] * num_nodes
        stack = []
        sccs = []
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
                    sccs.append(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
        return sccs

    def _forward_costs(self, adj):
        """Cheapest weight from any zero-state node to each node (Dijkstra)."""
        dist = [math.inf] * len(adj)
        heap = []
        for phase in range(self.num_sections):
            src = self._node(phase, 0)
            dist[src] = 0
            heap.append((0, src))
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

    def _return_costs(self, adj):
        """Cheapest weight from each node to any zero-state node: the forward
        costs on the reversed graph."""
        radj = [[] for _ in adj]
        for u, edges in enumerate(adj):
            for v, w, idx in edges:
                radj[v].append((u, w, idx))
        return self._forward_costs(radj)

    def _zero_output_cycles(self, adj):
        """The subgraph of zero-output-weight edges, and those of its strong
        components that hold a cycle."""
        zadj = [[e for e in edges if e[1] == 0] for edges in adj]
        cycles = [
            scc
            for scc in self._sccs(len(zadj), zadj)
            if len(scc) > 1 or any(v == scc[0] for v, _, _ in zadj[scc[0]])
        ]
        return cycles, zadj

    # -- distance measures --

    def _loop_dp(self, steps):
        """The loop relaxation: from the zero state at each start phase in
        turn, the lightest path weight to every state, one section at a time,
        never riding a weight-0 edge from zero state to zero state.

        Yields (start, length, dist, parents) for length = 0..steps: dist[st]
        is the lightest weight of a length-edge path ending in state st, and
        parents[step][st] the (state, input) that path last came by.  Of equal
        candidates the lowest (state, input) wins.
        """
        from_state, weight = self._pred_paths
        states = np.arange(self.num_states)
        for start in range(self.num_sections):
            dist = np.full(self.num_states, np.inf)
            dist[0] = 0
            parents = []
            yield start, 0, _numbers(dist), parents
            for step in range(steps):
                s = (start + step) % self.num_sections
                cand = dist[from_state[s]] + weight[s]
                best = cand.argmin(axis=1)
                dist = cand[states, best]
                edge = np.where(dist < np.inf, self.pred[s, states, best], -1)
                parents.append(_Parents(edge, self.num_inputs))
                yield start, step + 1, _numbers(dist), parents

    def active_burst_distance(self, ell):
        """Minimum weight of ell-loops, minimized over all starting phases;
        math.inf if no ell-loop exists."""
        if ell < 1:
            raise ValueError("ell must be >= 1")
        return min(dist[0] for _, length, dist, _ in self._loop_dp(ell) if length == ell)

    def free_distance(self, ell_max=None, lmax=0):
        """Minimum nonzero codeword weight.

        Scans loops up to ell_max and, separately, paths that enter a cycle of
        zero output weight (the catastrophic case, where the minimum is not
        attained by any loop).  The stabilized flag certifies that no loop
        longer than ell_max can beat the reported value.  The same loop
        relaxation, run on to lmax sections if that is longer, gives the
        active burst distances d_1..d_lmax in `burst`.
        """
        if ell_max is None:
            ell_max = 8 * (self.external_degree + 1) * self.num_sections
        adj = self._graph()
        ret = self._return_costs(adj)

        best = math.inf
        best_trace = None  # (start_phase, length, parents list)
        frontier_bound = math.inf
        burst = [math.inf] * lmax
        for start, length, dist, parents in self._loop_dp(max(ell_max, lmax)):
            if 1 <= length <= lmax:
                burst[length - 1] = min(burst[length - 1], dist[0])
            if 1 <= length <= ell_max and dist[0] < best:
                best = dist[0]
                best_trace = (start, length, parents)
            if length == ell_max:
                end_phase = (start + ell_max) % self.num_sections
                for st, dv in enumerate(dist):
                    if dv == math.inf:
                        continue
                    frontier_bound = min(frontier_bound, dv + ret[self._node(end_phase, st)])

        cycles, _ = self._zero_output_cycles(adj)
        tail_min = math.inf
        if cycles:
            dist0 = self._forward_costs(adj)
            tail_min = min(dist0[v] for scc in cycles for v in scc)

        value = min(best, tail_min)
        stabilized = frontier_bound >= value
        if tail_min < best:
            return FreeDistanceResult(value, stabilized, "zero_output_tail", None, None, burst)
        witness = None
        loop_length = None
        if best_trace is not None:
            start, length, parents = best_trace
            witness = self._trace_loop(start, length, parents)
            loop_length = length
        return FreeDistanceResult(value, stabilized, "loop", loop_length, witness, burst)

    def _trace_loop(self, start, length, parents):
        steps = []
        state = 0
        for step in range(length - 1, -1, -1):
            prev_state, idx = parents[step][state]
            section = (start + step) % self.num_sections
            e = self.sections[section][prev_state][idx]
            steps.append(
                PathStep(section, prev_state, self.input_block(idx), e.label, state)
            )
            state = prev_state
        steps.reverse()
        return steps

    def slope(self):
        """Minimum mean edge weight over directed cycles of the unrolled state
        graph, as an exact Fraction (Karp's recurrence per strong component),
        or math.inf if the graph has no cycle."""
        num_nodes = self.num_sections * self.num_states
        comps = self._sccs(num_nodes, self._graph())
        # node (s, st) is entered through section s - 1: its j-th entering
        # edge comes from node src[j, node] with weight w[j, node]
        from_state, pred_weight = self._pred_paths
        first = (np.arange(self.num_sections) * self.num_states)[:, None, None]
        src = np.roll(first + from_state, 1, axis=0).reshape(num_nodes, -1).T
        w = np.roll(pred_weight, 1, axis=0).reshape(num_nodes, -1).T
        label = np.empty(num_nodes, dtype=np.intp)
        pos = np.empty(num_nodes, dtype=np.intp)
        for c, comp in enumerate(comps):
            label[comp] = c
            pos[comp] = np.arange(len(comp))
        internal = (label[src] == label) & (w < np.inf)
        best = None
        for c in np.unique(label[internal.any(axis=0)]).tolist():
            comp = comps[c]
            m = len(comp)
            local = np.where(internal.take(comp, axis=1), pos[src.take(comp, axis=1)], m)
            mean = _min_cycle_mean(local, w.take(comp, axis=1))
            if best is None or mean < best:
                best = mean
        return best if best is not None else math.inf

    def catastrophic_cycle(self):
        """A cycle with zero output weight but positive input weight, or None."""
        cycles, zadj = self._zero_output_cycles(self._graph())
        for scc in cycles:
            sset = set(scc)
            seed = None
            for u in scc:
                for v, _, idx in zadj[u]:
                    if v in sset and self.input_weight(idx) > 0:
                        seed = (u, v, idx)
                        break
                if seed:
                    break
            if seed is None:
                continue
            u, v, idx = seed
            # close the cycle: BFS from v back to u inside the component
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
            steps = [self._path_step(u, idx)]
            node = u
            back = []
            while node != v:
                x, yidx = prev[node]
                back.append(self._path_step(x, yidx))
                node = x
            steps.extend(reversed(back))
            return steps
        return None

    def _path_step(self, node, input_idx):
        phase, state = divmod(node, self.num_states)
        e = self.sections[phase][state][input_idx]
        return PathStep(phase, state, self.input_block(input_idx), e.label, e.to_state)


class _Parents:
    """parents[st] of one loop-DP step: the (state, input) the lightest path
    into st last came by, or None; held as flat edge ids, -1 for None."""

    __slots__ = ("edge", "inputs")

    def __init__(self, edge, inputs):
        self.edge = edge
        self.inputs = inputs

    def __len__(self):
        return len(self.edge)

    def __getitem__(self, st):
        e = int(self.edge[st])
        return None if e < 0 else divmod(e, self.inputs)


def _numbers(dist):
    """A float distance array as a list of Python ints, math.inf where
    unreachable."""
    unreached = dist == np.inf
    out = np.where(unreached, 0, dist).astype(np.int64).tolist()
    for st in np.flatnonzero(unreached).tolist():
        out[st] = math.inf
    return out


def _min_cycle_mean(src, weight):
    """Karp's minimum cycle mean of a strongly connected m-node graph, given
    as a predecessor table: node v is entered from src[j, v] by an edge of
    weight[j, v], and src == m marks no edge.

    Two passes keep the working memory at O(m) beside the table: the first
    relaxes to D_m, the lightest m-edge walk weights from node 0; the second
    recomputes D_0 .. D_{m-1} and keeps, per node, the largest
    (D_m - D_k) / (m - k) with its integer numerator and denominator.  Distinct fractions with denominators
    up to m differ by at least 1/m^2, so comparing them as floats is exact.
    """
    m = src.shape[1]

    def walks():
        d = np.full(m + 1, np.inf)  # d[m] stays inf: the absent predecessor
        d[0] = 0
        while True:
            yield d[:m]
            np.min(d[src] + weight, axis=0, out=d[:m])

    d_m = next(itertools.islice(walks(), m, None)).copy()
    reached = d_m < np.inf
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


def build_trellis(code):
    """Controller-canonical-form trellis of a code of either module side.

    Section s labels its edges with the code's phase-s coefficient tables.
    Each shift applies theta^register_twist to the stored symbols, so slot j
    of a right-module code's register holds theta^j(u_{t-j}).
    """
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


def is_catastrophic(code_or_trellis):
    """True iff the state graph has a cycle emitting zero output weight while
    consuming positive input weight; the witness cycle is returned with it."""
    tr = code_or_trellis if isinstance(code_or_trellis, Trellis) else build_trellis(code_or_trellis)
    witness = tr.catastrophic_cycle()
    return CatastrophicityResult(witness is not None, witness)


def unit_memory_bounds(code):
    """(2n - k + 1, n - k); the distance bound applies to unit-memory codes
    only and is None otherwise."""
    d_bound = 2 * code.n - code.k + 1 if code.memory == 1 else None
    return UnitMemoryBounds(d_bound, code.n - code.k)


def export_dot(trellis, sections):
    """Graphviz DOT text for the unrolled trellis with the given number of
    sections: (sections + 1) state columns, edges labeled by output blocks."""
    if sections < 1:
        raise ValueError("sections must be >= 1")
    field = trellis.field
    lines = ["digraph trellis {", "  rankdir=LR;", "  node [shape=circle fontsize=10];"]
    for layer in range(sections + 1):
        for st in range(trellis.num_states):
            lines.append(f'  t{layer}_s{st} [label="{trellis.state_name(st)}"];')
    for layer in range(sections):
        section = trellis.sections[layer % trellis.num_sections]
        for st in range(trellis.num_states):
            for e in section[st]:
                label = " ".join(field.element_name(v) for v in e.label)
                lines.append(f'  t{layer}_s{st} -> t{layer + 1}_s{e.to_state} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
