"""Periodic time-varying trellises in controller canonical form.

A trellis has one section per phase of the code period; section s is used at
times t = s (mod period).  States are the shift-register contents, one
register per generator row, register i holding the last nu_i input symbols;
states are packed little-endian by row then delay slot as base-Q digits.

`build_trellis` fills the edge arrays `next_state`, `label` and `weight` for
every edge at once, one pass per base-q digit of the edge ids (the input
symbols and the register slots), each digit peeled off the int32 ids by one
divmod: a digit's products with the delay coefficients are one gather from a
table made through the field's log/antilog tables, the terms are added
digit-wise mod p (XOR for p = 2), and the register twist is one gather
through the Frobenius table.  The shift is the same at every phase, so
`next_state` is one row behind a read-only view over the sections, and
`pred` one argsort of it.  `sections`,
nested lists of `TrellisEdge`, is a view over the arrays built on first use;
the graph algorithms never build it.  A trellis over EDGE_BUDGET edges
(sections x states x inputs) raises ValueError before any array is
allocated, as does a DOT export over the same number of edges.

Distance measures follow the loop convention: a loop leaves the zero state,
never rides a weight-0 edge from zero state to zero state, and returns to the
zero state after exactly ell edges.

The graph questions are array passes over successor (and, for the
zero-output tail of a catastrophic code only, predecessor) tables of the
period-unrolled state graph, those edges removed: the slope by Howard's
policy iteration, accepted only with the potential of an integer
Bellman-Ford that certifies it (Cochet-Terrasson, Cohen, Gaubert, McGettrick
and Quadrat, IFAC 1998; Karp's recurrence is its test oracle), Bellman-Ford
costs to and from the zero state, and the zero-weight cycles by peeling.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .decoder import SURVIVOR_BUDGET

__all__ = [
    "Trellis",
    "TrellisEdge",
    "PathStep",
    "FreeDistanceResult",
    "CatastrophicityResult",
    "UnitMemoryBounds",
    "EDGE_BUDGET",
    "build_trellis",
    "is_catastrophic",
    "unpack_digits",
    "unit_memory_bounds",
    "export_dot",
]

EDGE_BUDGET = 2**22
"""The most edges (sections x states x inputs) `build_trellis` builds and
`export_dot` writes.  Within it the finished edge arrays take at most 64 MiB,
plus 4 MiB per output symbol and byte of the label dtype."""


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
    """A periodic trellis: `num_sections` sections of `num_states` states x
    `num_inputs` inputs.

    Edge e = from_state * num_inputs + input of section s is column e of the
    edge arrays `next_state[s, e]`, `label[s, e]` (its n output symbols) and
    `weight[s, e]`.  `build_trellis` fills them; a trellis constructed from
    `sections`, nested lists of `TrellisEdge`, builds them on first use.
    """

    def __init__(self, field, k, n, register_lengths, sections=None, *, edge_arrays=None):
        self.field = field
        self.k = k
        self.n = n
        self.q = field.size
        self.register_lengths = tuple(register_lengths)
        self.external_degree = sum(register_lengths)
        self.memory = max(register_lengths, default=0)
        self.num_states = self.q**self.external_degree
        self.num_inputs = self.q**self.k
        if edge_arrays is None:
            self.sections = sections
            self.num_sections = len(sections)
        else:
            self._edge_arrays = edge_arrays
            self.num_sections = len(edge_arrays[0])

    # -- packing helpers --

    def input_block(self, idx):
        return tuple(unpack_digits(idx, self.q, self.k))

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
        s = section % self.num_sections
        e = from_state * self.num_inputs + input_idx
        return TrellisEdge(
            int(self.next_state[s, e]), tuple(self.label[s, e].tolist()), int(self.weight[s, e])
        )

    # -- the edge arrays and the views over them --

    @cached_property
    def _edge_arrays(self):
        """(next_state, label, weight) of a trellis constructed from sections."""
        edges = [[e for per_state in sec for e in per_state] for sec in self.sections]
        label = np.array([[e.label for e in sec] for sec in edges], dtype=_label_dtype(self.q))
        return (
            np.array([[e.to_state for e in sec] for sec in edges], dtype=np.intp),
            label.reshape(self.num_sections, self.num_states * self.num_inputs, self.n),
            np.array([[e.weight for e in sec] for sec in edges], dtype=np.intp),
        )

    @cached_property
    def next_state(self):
        """next_state[s, e]: the state edge e of section s enters."""
        return self._edge_arrays[0]

    @cached_property
    def label(self):
        """label[s, e]: the n output symbols of edge e of section s, in the
        narrowest unsigned dtype that holds q - 1."""
        return self._edge_arrays[1]

    @cached_property
    def weight(self):
        """weight[s, e]: the output weight of edge e of section s."""
        return self._edge_arrays[2]

    @cached_property
    def sections(self):
        """sections[s][from_state][input]: the edge arrays as `TrellisEdge`s
        of Python ints, built on first use."""
        inputs = self.num_inputs
        out = []
        for to, labels, weights in zip(
            self.next_state.tolist(), self.label.tolist(), self.weight.tolist()
        ):
            edges = list(map(TrellisEdge, to, map(tuple, labels), weights))
            out.append([edges[e : e + inputs] for e in range(0, len(edges), inputs)])
        return out

    @cached_property
    def pred(self):
        """pred[s, st]: the q^k edges of section s that enter state st, in
        (from_state, input) order.  Read-only; one row shared by every
        section when `next_state` is (a built trellis shifts alike at every
        phase)."""
        next_state = self.next_state
        if next_state.strides[0] == 0:
            next_state = next_state[:1]
        order = np.argsort(next_state, axis=1, kind="stable")
        entered = np.take_along_axis(next_state, order, axis=1)
        expected = np.repeat(np.arange(self.num_states), self.num_inputs)
        assert (entered == expected).all(), "every state must have in-degree q^k"
        order = order.reshape(len(order), self.num_states, self.num_inputs)
        return np.broadcast_to(order, (self.num_sections, *order.shape[1:]))

    @cached_property
    def _loop_weight(self):
        """weight[s, e] as floats, inf on the weight-0 zero-to-zero edges the
        loop convention removes."""
        inputs = self.num_inputs
        weight = self.weight.astype(float)
        removed = (self.next_state[:, :inputs] == 0) & (self.weight[:, :inputs] == 0)
        weight[:, :inputs][removed] = np.inf
        return weight

    @cached_property
    def _pred_paths(self):
        """(from_state, weight)[s, st, j] of the edge pred[s, st, j], the
        weight from `_loop_weight`."""
        flat = self.pred.reshape(self.num_sections, -1)
        pred_weight = np.take_along_axis(self._loop_weight, flat, axis=1).reshape(self.pred.shape)
        return self.pred // self.num_inputs, pred_weight

    # -- the period-unrolled state graph: node phase * num_states + state --

    @cached_property
    def _node_preds(self):
        """(src, w)[j, node]: node is entered from node src[j, node] by an
        edge of weight w[j, node], j < q^k; node (s, st) is entered through
        section s - 1.  Contiguous copies: the relaxations gather whole rows.
        Built only for the zero-output tail of a catastrophic code."""
        from_state, pred_weight = self._pred_paths
        num_nodes = self.num_sections * self.num_states
        first = (np.arange(self.num_sections) * self.num_states)[:, None, None]
        src = np.roll(first + from_state, 1, axis=0).reshape(num_nodes, -1)
        w = np.roll(pred_weight, 1, axis=0).reshape(num_nodes, -1)
        return np.ascontiguousarray(src.T), np.ascontiguousarray(w.T)

    @cached_property
    def _node_succs(self):
        """(to, w)[i, node]: input i leads from node to node to[i, node] by an
        edge of weight w[i, node]."""
        after = np.roll(np.arange(self.num_sections) * self.num_states, -1)[:, None]
        to = (after + self.next_state).reshape(-1, self.num_inputs)
        w = self._loop_weight.reshape(-1, self.num_inputs)
        return np.ascontiguousarray(to.T), np.ascontiguousarray(w.T)

    def _zero_state_costs(self, tables):
        """Bellman-Ford to a fixpoint from cost 0 at every zero-state node,
        pulling along `tables`: `_node_preds` gives the cheapest weight from a
        zero-state node to each node, `_node_succs` the cheapest weight from
        each node to a zero-state node.  The weights are nonnegative
        integers, so a shortest path settles within `nodes` rounds."""
        src, w = tables
        dist = np.full(src.shape[1], np.inf)
        dist[:: self.num_states] = 0
        while True:
            relaxed = np.minimum(dist, (dist[src] + w).min(axis=0))
            if (relaxed == dist).all():
                return dist
            dist = relaxed

    @cached_property
    def _zero_cycle_core(self):
        """Mask of the nodes on or between cycles of zero output weight: the
        zero-weight edges, less the removed ones, peeled of every node with no
        zero-weight in-edge or out-edge among the nodes left, until none
        goes.  Every node left reaches a zero-weight cycle and is reached
        from one along zero-weight edges."""
        to, w = self._node_succs
        idx, u = np.nonzero(w == 0)
        v = to[idx, u]
        core = np.ones(w.shape[1], dtype=bool)
        while True:
            inner = core[u] & core[v]
            u, v = u[inner], v[inner]
            leaves, enters = np.zeros_like(core), np.zeros_like(core)
            leaves[u] = enters[v] = True
            peeled = core & leaves & enters
            if (peeled == core).all():
                return core
            core = peeled

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

    def _check_loop_budget(self, steps):
        """Raise ValueError if a loop DP of `steps` sections would hold more
        than SURVIVOR_BUDGET parent entries, one per step and state."""
        if steps * self.num_states > SURVIVOR_BUDGET:
            raise ValueError(
                f"a loop scan of {steps} sections x {self.num_states} states exceeds the "
                f"budget of {SURVIVOR_BUDGET} parent entries"
            )

    def active_burst_distance(self, ell):
        """Minimum weight of ell-loops, minimized over all starting phases;
        math.inf if no ell-loop exists."""
        if ell < 1:
            raise ValueError("ell must be >= 1")
        self._check_loop_budget(ell)
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
        if ell_max < 1 or lmax < 0:
            raise ValueError("ell_max must be >= 1 and lmax >= 0")
        self._check_loop_budget(max(ell_max, lmax))
        ret = self._zero_state_costs(self._node_succs).reshape(self.num_sections, -1)

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
                frontier_bound = min(frontier_bound, float(np.add(dist, ret[end_phase]).min()))

        # the cheapest way into the core is the cheapest way into a
        # zero-weight cycle: each core node reaches one at no cost
        core = self._zero_cycle_core
        tail_min = math.inf
        if core.any():
            tail_min = min(_numbers(self._zero_state_costs(self._node_preds)[core]))

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
            e = self.edge(section, prev_state, idx)
            steps.append(
                PathStep(section, prev_state, self.input_block(idx), e.label, state)
            )
            state = prev_state
        steps.reverse()
        return steps

    def slope(self):
        """Minimum mean edge weight over directed cycles of the unrolled state
        graph, as an exact Fraction, or math.inf if the graph has no cycle."""
        return self._least_mean_cycle.value

    @cached_property
    def _least_mean_cycle(self):
        """The slope with its witness cycle and its certificate potential
        (`_MeanCycle`), by Howard's policy iteration over `_node_succs`."""
        return _least_mean_cycle(*self._node_succs)

    def catastrophic_cycle(self):
        """A cycle of zero output weight and positive input weight, or None.

        The code is catastrophic iff the zero-weight core is nonempty.  Every
        zero-weight cycle of a code trellis has positive input weight: zero
        inputs drain the registers to the zero state within `memory` steps,
        and the zero-input zero-to-zero edge is removed.  The witness starts
        at the lowest core node and follows each node's lowest-input
        zero-weight edge into the core until a node repeats; the closed part
        is returned.
        """
        core = self._zero_cycle_core
        if not core.any():
            return None
        to, w = self._node_succs
        node = int(core.argmax())
        steps, seen = [], {}
        while node not in seen:
            seen[node] = len(steps)
            idx = int(((w[:, node] == 0) & core[to[:, node]]).argmax())
            steps.append(self._path_step(node, idx))
            node = int(to[idx, node])
        return steps[seen[node] :]

    def _path_step(self, node, input_idx):
        phase, state = divmod(node, self.num_states)
        e = self.edge(phase, state, input_idx)
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


class _MeanCycle(NamedTuple):
    value: Fraction | float  # the least cycle mean; math.inf if no cycle
    cycle: list | None  # the nodes of a cycle of that mean, in order
    potential: np.ndarray | None  # p[v] <= w * len - sum + p[to] on every edge


def _least_mean_cycle(to, w):
    """The least mean cycle of the graph in which input i leads from node v
    to node to[i, v] at integer weight w[i, v] (inf: no edge), by Howard's
    policy iteration.

    A policy keeps one out-edge per node.  Its evaluation (`_policy_cycles`)
    gives each node the cycle it reaches, whose mean a / b is kept in lowest
    terms, and a bias: b x (the weight of the node's path to the lowest node
    of that cycle) - a x (the path's length).  Each node then moves to the
    successor of least mean if that is below its own, and otherwise to the
    successor of the same mean and least b * w - a + bias if that is below
    its own bias; the lowest input wins ties, and a node that cannot improve
    stays.  Means are compared exactly, a1 * b2 < a2 * b1, in int64.  When no
    node moves, the least mean S / L of the policy's cycles is accepted only
    once an integer Bellman-Ford on w * L - S settles (`_potential`): then
    no cycle has a lower mean, and the policy's cycle attains it.  Nodes that
    reach no cycle are peeled first, and a graph peeled empty has none.
    """
    live = np.ones(w.shape[1], dtype=bool)
    while True:
        kept = live & (np.isfinite(w) & live[to]).any(axis=0)
        if (kept == live).all():
            break
        live = kept
    nodes = np.flatnonzero(live)
    if not nodes.size:
        return _MeanCycle(math.inf, None, None)
    renumber = np.full(w.shape[1], -1)
    renumber[nodes] = np.arange(nodes.size)
    succ = renumber[to[:, nodes]]
    present = (succ >= 0) & np.isfinite(w[:, nodes])
    succ[~present] = 0
    weight = np.where(present, w[:, nodes], 0).astype(np.int64)
    never = np.iinfo(np.int64).max
    cols = np.arange(nodes.size)
    policy = np.where(present, weight, never).argmin(axis=0)
    # no polynomial bound on the iterations is known; the slowest graphs
    # known take about 2 x edges (Hansen and Zwick, ISAAC 2010), the code
    # trellises of the benchmark suite at most 15
    for _ in range(8 * w.size + 8):
        f = succ[policy, cols]
        root, total, length, path_w, path_len = _policy_cycles(f, weight[policy, cols])
        gcd = np.gcd(total, length)
        a, b = total // gcd, length // gcd
        bias = b * path_w - a * path_len
        sa, sb = a[succ], b[succ]
        # first a successor of lower mean, the lowest input of the least
        choice = policy.copy()
        least_a, least_b = a.copy(), b.copy()
        for i in range(len(succ)):
            lower = present[i] & (sa[i] * least_b < least_a * sb[i])
            choice[lower] = i
            least_a[lower], least_b[lower] = sa[i, lower], sb[i, lower]
        # then, where none is lower, a successor of the same mean and less bias
        same = present & (sa == a) & (sb == b)
        value = np.where(same, b * weight - a + bias[succ], never)
        alt = value.argmin(axis=0)
        better = (choice == policy) & (value[alt, cols] < bias)
        choice[better] = alt[better]
        if (choice == policy).all():
            break
        policy = choice
    else:
        raise AssertionError("Howard's policy iteration did not converge")
    roots = np.flatnonzero(root == cols).tolist()
    r = min(roots, key=lambda r: (Fraction(int(total[r]), int(length[r])), r))
    num, den = int(total[r]), int(length[r])
    potential = _potential(to, w, num, den)
    if potential is None:
        raise AssertionError(f"a cycle of mean below {num}/{den} was missed")
    cycle = [r]
    for _ in range(den - 1):
        cycle.append(int(f[cycle[-1]]))
    return _MeanCycle(Fraction(num, den), nodes[cycle].tolist(), potential)


def _policy_cycles(f, wf):
    """The cycles of the one-successor graph v -> f[v] of weight wf[v], by
    pointer doubling: per node, the root (the lowest node of the cycle it
    reaches), that cycle's total weight and length, and the (weight, length)
    of the node's path to the root."""
    m = len(f)
    rounds = (m - 1).bit_length()  # 2**rounds >= m > any path's length
    # low[v]: the lowest of the 2**k nodes from v on; jump = f^(2**k)
    low, jump = np.arange(m), f
    for _ in range(rounds):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    root = low[jump]  # jump[v] is on v's cycle, low[jump[v]] spans it
    at_root = root == np.arange(m)
    jump = np.where(at_root, root, f)
    path_w = np.where(at_root, 0, wf)
    path_len = (~at_root).astype(np.int64)
    for _ in range(rounds):
        path_w = path_w + path_w[jump]
        path_len = path_len + path_len[jump]
        jump = jump[jump]
    total = (wf + path_w[f])[root]
    length = (1 + path_len[f])[root]
    return root, total, length, path_w, path_len


def _potential(to, w, num, den):
    """Integer Bellman-Ford on the weights w * den - num from 0 at every node,
    pulling along the successor table: the fixpoint potential p, with
    p[v] <= w[i, v] * den - num + p[to[i, v]] on every finite edge, or None
    if it does not settle within `nodes` rounds, which happens iff some
    cycle has mean below num / den.  Missing edges lead to an extra node
    held at 0, which no potential (all <= 0) can improve on."""
    m = w.shape[1]
    finite = np.isfinite(w)
    to = np.where(finite, to, m)
    reduced = np.where(finite, w, 0).astype(np.int64) * den - num
    reduced[~finite] = 0
    p = np.zeros(m + 1, dtype=np.int64)
    for _ in range(m):
        relaxed = np.minimum(p[:m], (p[to] + reduced).min(axis=0))
        if (relaxed == p[:m]).all():
            return p[:m]
        p[:m] = relaxed
    return None


def _label_dtype(q):
    return np.min_scalar_type(q - 1)


def _check_edge_budget(sections, q, nu, k):
    """Raise ValueError if sections x q^nu states x q^k inputs is over
    EDGE_BUDGET; Python ints, so nothing is allocated for a huge trellis."""
    if sections * q**nu * q**k > EDGE_BUDGET:
        raise ValueError(
            f"{sections} section(s) x {q}^{nu} states x {q}^{k} inputs exceed the "
            f"budget of {EDGE_BUDGET} trellis edges"
        )


def build_trellis(code):
    """Controller-canonical-form trellis of a code of either module side.

    Section s labels its edges with the code's phase-s coefficient tables.
    Each shift applies theta^register_twist to the stored symbols, so slot j
    of a right-module code's register holds theta^j(u_{t-j}).  The edge
    arrays are filled for every edge at once; a trellis over EDGE_BUDGET
    edges raises ValueError before any array is allocated.
    """
    field = code.field
    q = field.size
    k, n = code.k, code.n
    regs = code.row_degrees
    nu = sum(regs)
    phases = code.phase_coefficients
    _check_edge_budget(len(phases), q, nu, k)
    # Edge e = from_state * q^k + input: its base-q digits are the k input
    # symbols, then the nu register slots by row and delay.  Digit j is the
    # (row, delay) term of the label, and moves to `place` in the next state
    # (0: shifted out), through theta if the code's registers twist.
    starts = [sum(regs[:row]) for row in range(k)]
    terms = [(row, 0, q**start if reg else 0) for row, (start, reg) in enumerate(zip(starts, regs))]
    terms += [
        (row, delay, q ** (start + delay) if delay < reg else 0)
        for row, (start, reg) in enumerate(zip(starts, regs))
        for delay in range(1, reg + 1)
    ]
    # products[s, a, i, row] = a * (row of the phase-s delay-i table)
    symbol = _label_dtype(q)
    products = field.mul(np.arange(q)[:, None, None, None], np.array(phases)[:, None])
    products = products.astype(symbol)
    # the digits of the edge ids are peeled off one per pass; int32 where the
    # ids fit, as they do within the edge budget
    num_edges = q ** (k + nu)
    rest = np.arange(num_edges, dtype=np.int32 if num_edges <= 2**31 else np.intp)
    next_state = np.zeros(num_edges, dtype=np.intp)

    def label_terms():
        """The label's terms, drawn one at a time by `field.sum`; each pass
        also adds its digit's share of the next state."""
        nonlocal rest, next_state
        for row, delay, place in terms:
            rest, digit = np.divmod(rest, q)
            if place:
                next_state += place * (
                    field.frobenius_table[digit] if code.register_twist else digit
                )
            yield np.take(products[:, :, delay, row], digit, axis=1)

    label = field.sum(label_terms()).astype(symbol, copy=False)
    # the shift is the same at every phase: one row, read-only, for all
    edge_arrays = (
        np.broadcast_to(next_state, (len(phases), num_edges)),
        label,
        np.add.reduce(label != 0, axis=-1),
    )
    return Trellis(field, k, n, regs, edge_arrays=edge_arrays)


def is_catastrophic(code_or_trellis):
    """True iff the state graph has a cycle emitting zero output weight while
    consuming positive input weight, that is iff the zero-weight subgraph
    peels to a nonempty core; the witness cycle is returned with it."""
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
    _check_edge_budget(sections, trellis.q, trellis.external_degree, trellis.k)
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
