"""Periodic time-varying trellises in controller canonical form.

A trellis has one section per phase of the code period; section s is used at
times t = s (mod period).  States are the shift-register contents, one
register per generator row, register i holding the last nu_i input symbols;
states are packed little-endian by row then delay slot as base-Q digits.

A trellis is its two edge arrays, `next_state` and `label`, with one column
per edge from_state * q^k + input of each section; `weight` and the
predecessor table `pred` are derived from them on first use, and `edge()`
reads one edge as a `TrellisEdge`.  In controller canonical form an edge's
label and next state are a part of its from-state plus a part of its input,
so `build_trellis` makes the parts of the q^nu states and of the q^k inputs,
one pass per register slot or input symbol, each digit peeled off the int32
ids by one divmod: a digit's products with the delay coefficients are one
gather from a table made through the field's log/antilog tables, added by
`FiniteField.add`, and the register twist is one gather through the
Frobenius table.  Every edge is then one broadcast add of the two parts, one
`FiniteField.add` per output symbol.  The shift is the same at every phase,
so `next_state` is one row behind a read-only view over the sections, and
`pred` one argsort of it.  A trellis over EDGE_BUDGET edges (sections x
states x inputs) raises ValueError before any array is allocated, as does a
DOT export over the same number of edges.

Distance measures follow the loop convention: a loop leaves the zero state,
never rides a weight-0 edge from zero state to zero state, and returns to the
zero state after exactly ell edges.  One array pass answers each question.
The loop DP and Viterbi share one add-compare-select kernel, `acs`, over a
batch of rows (the loop DP's sections, or frames), and one
`Trellis.traceback`.  `acs` works on packed int64 keys, distance x
num_inputs + j for the edge's position j in `pred` order, so that one
elementwise minimum over the inputs gives the least distance and the first
minimum together (Forney, "The Viterbi algorithm", Proc. IEEE 1973, for
the step).  Unreached states and edges that may not be taken carry one
saturating sentinel key, `_unreached`, and every caller asserts that its
distances stay below it (`_check_keys`).  The loop DP relaxes every start
phase at once, one `acs` step a section on key rows indexed by the section
of their last edge, so that every step runs on the same cached tables
(`_loop_tables`); `free_distance`, which traces a witness loop, keeps one
survivor index per step, section and state (a byte up to 256 inputs), and
`active_burst_distance` keeps none.  `free_distance` stops the scan at the
first step, past lmax, at which its frontier bound (the lightest path so
far plus its cheapest return to the zero state, cached in keys as
`_return_keys`, a bound that never falls) is strictly above the lightest
loop found: no longer loop can then tie it, so the result is the full
scan's.  The graph questions run on the successor table of the
period-unrolled state graph, those edges led to a sink node: the slope by
Howard's policy iteration, accepted only with the potential of an integer
Bellman-Ford that certifies it (Cochet-Terrasson, Cohen, Gaubert,
McGettrick and Quadrat, IFAC 1998; Karp's recurrence is its test oracle),
costs to the zero-state nodes and to the zero-weight core by the same
`_bellman_ford` in int64, and the core by peeling.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .field import _integral, _within

__all__ = [
    "Trellis",
    "TrellisEdge",
    "PathStep",
    "FreeDistanceResult",
    "CatastrophicityResult",
    "UnitMemoryBounds",
    "EDGE_BUDGET",
    "SURVIVOR_BUDGET",
    "acs",
    "build_trellis",
    "check_survivor_budget",
    "is_catastrophic",
    "unpack_digits",
    "unit_memory_bounds",
    "export_dot",
]

EDGE_BUDGET = 2**22
"""The most edges (sections x states x inputs) `build_trellis` builds and
`export_dot` writes.  Within it the finished edge arrays take at most 64 MiB,
plus 4 MiB per output symbol and byte of the label dtype.  Every job counted
against it is refused by `field._within` before any work."""

SURVIVOR_BUDGET = 1 << 24
"""The most survivor-table entries (frames x received blocks x states) one
Viterbi call, or (steps x states) one loop scan, may hold: 16 MiB at one
byte an entry, which serves up to 256 inputs per state.  A larger job is
refused by `field._within` before allocating it."""


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
    value: int | float  # an int, or math.inf if the scan finds no codeword
    stabilized: bool
    achieved_by: str  # "loop" or "zero_output_tail"
    loop_length: int | None
    witness: list | None
    burst: list  # burst[ell - 1]: lightest ell-loop weight, ell = 1..lmax

    def __int__(self):
        if self.value == math.inf:
            raise ValueError("no codeword found: the free distance is not an integer")
        return int(self.value)


class CatastrophicityResult(NamedTuple):
    catastrophic: bool
    witness: list | None


class UnitMemoryBounds(NamedTuple):
    d_free_bound: int | None
    slope_bound: int


def _check_id(kind, value, count):
    """value, if it is a `kind` id: an integer, a numpy one too, in
    0..count - 1; else ValueError."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{kind} {value!r} is not an integer")
    if not 0 <= value < count:
        raise ValueError(f"{kind} {value} is out of range 0..{count - 1}")
    return value


def unpack_digits(value, base, count):
    """The `count` lowest base-`base` digits of the integer value >= 0,
    least significant first; a count over EDGE_BUDGET is refused."""
    value, base = _integral(value, "value", 0), _integral(base, "base", 2)
    count = _within(_integral(count, "count", 0), EDGE_BUDGET, "a digit list", "digits")
    out = []
    for _ in range(count):
        value, d = divmod(value, base)
        out.append(d)
    return out


class Trellis:
    """A periodic trellis: `num_sections` sections of `num_states` states x
    `num_inputs` inputs.

    Edge e = from_state * num_inputs + input of section s is column e of the
    edge arrays `next_state[s, e]`, the state it enters, and `label[s, e]`,
    its n output symbols; `weight` and `pred` are derived from them on first
    use.
    """

    def __init__(self, field, k, n, register_lengths, next_state, label):
        self.field = field
        self.k = k
        self.n = n
        self.q = field.size
        self.register_lengths = tuple(register_lengths)
        self.external_degree = sum(register_lengths)
        self.memory = max(register_lengths, default=0)
        self.num_states = self.q**self.external_degree
        self.num_inputs = self.q**self.k
        self.num_sections = len(next_state)
        self.next_state = next_state
        self.label = label

    # -- packing helpers --

    def input_block(self, idx):
        return tuple(unpack_digits(_check_id("input", idx, self.num_inputs), self.q, self.k))

    def state_registers(self, state):
        """Register contents as a tuple per row, delay slot 1 first."""
        state = _check_id("state", state, self.num_states)
        slots = iter(unpack_digits(state, self.q, self.external_degree))
        return tuple(tuple(itertools.islice(slots, length)) for length in self.register_lengths)

    def state_name(self, state):
        regs = [v for row in self.state_registers(state) for v in row]
        return ",".join(self.field.element_name(v) for v in regs) or "0"

    def edge(self, section, from_state, input_idx):
        e = _check_id("state", from_state, self.num_states) * self.num_inputs
        e += _check_id("input", input_idx, self.num_inputs)
        s = _integral(section, "section") % self.num_sections
        return TrellisEdge(
            int(self.next_state[s, e]), tuple(self.label[s, e].tolist()), int(self.weight[s, e])
        )

    # -- the tables derived from the edge arrays --

    @cached_property
    def weight(self):
        """weight[s, e]: the output weight of edge e of section s, in the
        narrowest unsigned dtype that holds n."""
        return np.add.reduce(self.label != 0, axis=-1, dtype=np.min_scalar_type(self.n))

    @cached_property
    def pred(self):
        """pred[s, st]: the q^k edges of section s that enter state st, in
        (from_state, input) order.  Read-only; one row shared by every
        section when `next_state` is (a built trellis shifts alike at every
        phase)."""
        next_state = _rows(self.next_state)
        order = np.argsort(next_state, axis=1, kind="stable")
        entered = np.take_along_axis(next_state, order, axis=1)
        expected = np.repeat(np.arange(self.num_states), self.num_inputs)
        assert (entered == expected).all(), "every state must have in-degree q^k"
        order = order.reshape(len(order), self.num_states, self.num_inputs)
        return np.broadcast_to(order, (self.num_sections, *order.shape[1:]))

    @cached_property
    def _loop_tables(self):
        """(src, keys)[s, j, st] of the edge pred[s, st, j], for `acs` on
        the loop DP's rows, one per section (`_loop_dp`): src, int32, is the
        entry of the row of section s - 1 it leaves, ((s - 1) mod
        num_sections) x num_states + its from_state, and keys its weight x
        num_inputs + j, or `_unreached` on a removed edge."""
        sections, states, inputs = self.num_sections, self.num_states, self.num_inputs
        pred = np.swapaxes(self.pred, 1, 2)
        section = np.arange(sections)[:, None, None]
        src = np.empty(pred.shape, dtype=np.int32)
        src[:] = (section - 1) % sections * states + pred // inputs
        keys = np.empty(pred.shape, dtype=np.int64)
        keys[:] = self.weight[section, pred]
        keys *= inputs
        keys += np.arange(inputs)[:, None]
        # the removed edges enter state 0 from state 0, one of the first inputs edges
        into_zero = keys[:, :, 0]
        into_zero[(pred[:, :, 0] < inputs) & (into_zero < inputs)] = _unreached(inputs)
        return src, keys

    @cached_property
    def _return_keys(self):
        """ret[s, st]: num_inputs x the cheapest weight from state st, entered
        by an edge of section s, back to the zero state, that is from node
        ((s + 1) mod num_sections, st) to a zero-state node; `_unreached`
        where there is no way back.  Rows as the loop DP's."""
        sections, states = self.num_sections, self.num_states
        cost = self._costs_to(np.arange(sections * states) % states == 0).reshape(sections, states)
        return cost[(np.arange(sections) + 1) % sections] * self.num_inputs

    # -- the period-unrolled state graph: node phase * num_states + state --

    @cached_property
    def _node_succs(self):
        """(to, w)[i, node]: input i leads from node to node to[i, node] by an
        edge of weight w[i, node], a view of `weight`; a removed edge leads to
        the sink, node sections x states, which no edge leaves.  `to` is a
        contiguous copy: the relaxations gather whole rows."""
        after = ((np.arange(self.num_sections) + 1) % self.num_sections * self.num_states)[:, None]
        to = (after + self.next_state).reshape(-1, self.num_inputs).T.copy()
        w = self.weight.reshape(to.shape[::-1]).T
        # the removed edges: weight 0 from the zero state back to it
        from_zero, zero_w = to[:, :: self.num_states], w[:, :: self.num_states]
        from_zero[(from_zero % self.num_states == 0) & (zero_w == 0)] = to.shape[1]
        return to, w

    def _costs_to(self, targets):
        """`_bellman_ford` along `_node_succs` from cost 0 at the nodes of
        the mask `targets`: the cheapest weight from each node to one of
        them, or U / num_inputs (`_unreached`) if none, as from the sink.
        The weights are nonnegative, so it settles within `nodes` rounds."""
        far = _unreached(self.num_inputs) // self.num_inputs
        return _bellman_ford(*self._node_succs, np.append(np.where(targets, 0, far), far))

    @cached_property
    def _zero_cycle_core(self):
        """Mask of the nodes on or between cycles of zero output weight: the
        zero-weight edges, less the removed ones, peeled (`_peel`).  Every
        node left reaches a zero-weight cycle and is reached from one along
        zero-weight edges."""
        to, w = self._node_succs
        return _peel(to, w == 0)

    # -- distance measures --

    def _loop_dp(self, steps, row_at, trace=True, ret=None, stop_from=0):
        """The loop relaxation from the zero state at every start phase at
        once, one section a step, never riding a weight-0 edge from zero
        state to zero state: one `acs` step a section on `_loop_tables`,
        over a batch of one key row per section.  Row s holds the paths whose
        last edge is in section s, so the paths from phase `start` are in row
        (start + step - 1) mod num_sections after `step` edges, and every
        step gathers row s from row s - 1 by the same tables.

        Returns (zero, row, survivors), in keys, distance x num_inputs, and
        `_unreached` where no path is.  zero[start, length] is the lightest
        length-edge loop from phase `start`, length = 0..steps, and row[s,
        st] the lightest path of row_at edges into state st whose last edge
        is in section s.  A path whose step-th edge is in section s came
        into state st there by the edge pred[s, st, survivors[step - 1, s,
        st]].  Of equal candidates the lowest (state, input) wins: the first
        minimum in `pred` order.  Without trace no survivor is kept, and
        survivors is None.  The callers count the scan (`_check_loop_budget`).

        Given the return keys ret (`_return_keys`), the scan stops after the
        first step L with stop_from <= L < row_at at which the `_frontier`
        is strictly above the lightest loop of at most L edges: zero then
        holds lengths 0..L and row is the row at L.
        """
        sections, states, inputs = self.num_sections, self.num_states, self.num_inputs
        # a path's weight, and with its way back to the zero state a walk's
        unreached = _check_keys(inputs, (steps + sections * states) * self.n)
        src, keys = self._loop_tables
        rows = np.full((sections, states), unreached, dtype=np.int64)
        rows[:, 0] = 0
        # zero[s, step]: rows[s, 0] after `step` edges
        zero = np.zeros((sections, steps + 1), dtype=np.int64)
        row = rows
        lightest = unreached
        dtype = np.min_scalar_type(inputs - 1)
        survivors = np.empty((steps, sections, states), dtype=dtype) if trace else None
        for step in range(1, steps + 1):
            rows, best = acs(rows, src, keys)
            if trace:
                survivors[step - 1] = best
            zero[:, step] = rows[:, 0]
            if step == row_at:
                row = rows
            if ret is None:
                continue
            lightest = min(lightest, zero[:, step].min())
            if stop_from <= step < row_at and _frontier(rows, ret) > lightest:
                zero, row = zero[:, : step + 1], rows
                break
        # the loops from phase `start` by length
        at = (np.arange(sections)[:, None] + np.arange(zero.shape[1]) - 1) % sections
        return np.take_along_axis(zero, at, axis=0), row, survivors

    def _check_loop_budget(self, steps):
        """Refuse a loop scan of `steps` steps that would keep more than
        SURVIVOR_BUDGET survivor entries per row (section), steps x states."""
        what = f"a loop scan of {steps} steps x {self.num_states} states"
        _within(steps * self.num_states, SURVIVOR_BUDGET, what, "survivor entries")

    def active_burst_distance(self, ell):
        """Minimum weight of ell-loops, minimized over all starting phases;
        math.inf if no ell-loop exists."""
        ell = _integral(ell, "ell", 1)
        self._check_loop_budget(ell)
        zero, _, _ = self._loop_dp(ell, ell, trace=False)
        return _number(zero[:, ell].min(), self.num_inputs)

    def free_distance(self, ell_max=None, lmax=0):
        """Minimum nonzero codeword weight.

        Scans loops up to ell_max and, separately, paths that enter a cycle of
        zero output weight (the catastrophic case, where the minimum is not
        attained by any loop).  The stabilized flag certifies that no loop
        longer than the scan can beat the reported value.  The same loop
        relaxation, run on to lmax sections if that is longer, gives the
        active burst distances d_1..d_lmax in `burst`.

        The scan stops early, after the first step L with lmax <= L <
        ell_max at which the frontier (`_frontier`, the lightest path of L
        edges plus its cheapest return to the zero state) is strictly above
        the lightest loop of at most L edges.  The frontier never falls as L
        grows, since ret[s] <= w + ret[s'] on every edge, so every longer
        loop is strictly heavier: the first lightest loop in (start phase,
        length) order, and so the value, loop length and witness, are those
        of the full scan, `burst` needs lengths up to lmax only, and the
        frontier at L, which the stabilized flag compares, is at most the
        one at ell_max.  A tie must not stop the scan: a loop of equal
        weight, longer and from an earlier start phase, comes first.
        """
        if ell_max is None:
            ell_max = 8 * (self.external_degree + 1) * self.num_sections
        ell_max, lmax = _integral(ell_max, "ell_max"), _integral(lmax, "lmax")
        if ell_max < 1 or lmax < 0:
            raise ValueError("ell_max must be >= 1 and lmax >= 0")
        steps = max(ell_max, lmax)
        self._check_loop_budget(steps)  # before the return costs
        inputs = self.num_inputs
        ret = self._return_keys
        zero, row, survivors = self._loop_dp(steps, ell_max, ret=ret, stop_from=lmax)
        # the step of `row`: where the scan stopped, else ell_max
        scanned = min(zero.shape[1] - 1, ell_max)
        burst = [_number(d, inputs) for d in zero[:, 1 : lmax + 1].min(axis=0)]
        # the first lightest loop in (start, length) order
        loops = zero[:, 1 : scanned + 1]
        start, length = divmod(int(loops.argmin()), scanned)
        best = _number(loops[start, length], inputs)
        length += 1
        frontier_bound = _number(_frontier(row, ret), inputs)

        # the cheapest way into the core is the cheapest way into a
        # zero-weight cycle: each core node reaches one at no cost
        core = self._zero_cycle_core
        tail_min = math.inf
        if core.any():
            tail_min = _number(self._costs_to(core)[:: self.num_states].min() * inputs, inputs)

        value = min(best, tail_min)
        stabilized = frontier_bound >= value
        if tail_min < best:
            return FreeDistanceResult(value, stabilized, "zero_output_tail", None, None, burst)
        if best == math.inf:
            return FreeDistanceResult(value, stabilized, "loop", None, None, burst)
        witness = self._trace_loop(start, length, survivors)
        return FreeDistanceResult(value, stabilized, "loop", length, witness, burst)

    def _trace_loop(self, start, length, survivors):
        """The steps of the loop of `length` edges from phase `start` that
        `_loop_dp` kept, traced back from the zero state."""
        step = np.arange(length)
        kept = survivors[step, (start + step) % self.num_sections, None]
        edges = self.traceback(kept, np.zeros(1, dtype=np.intp), start)
        return [
            self._path_step((start + t) % self.num_sections, *divmod(edge, self.num_inputs))
            for t, edge in enumerate(edges[:, 0].tolist())
        ]

    def traceback(self, survivors, state, first=0):
        """edges[t, b]: the edge of section (first + t) % num_sections by
        which path b came into its state at step t, traced back through
        `pred` and `survivors` (as `acs` keeps them) from state[b] after the
        last of len(survivors) steps, in the narrowest unsigned dtype that
        holds states x inputs (which also holds q, the digit base of an
        input index)."""
        rows = np.arange(len(state))
        edge_ids = np.min_scalar_type(self.num_states * self.num_inputs)
        edges = np.empty((len(survivors), len(state)), dtype=edge_ids)
        for t in range(len(survivors) - 1, -1, -1):
            # the walk indexes with intp edges: a narrow index is cast each step
            edge = self.pred[(first + t) % self.num_sections, state, survivors[t, rows, state]]
            edges[t] = edge
            state = edge // self.num_inputs
        return edges

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
        core = np.append(self._zero_cycle_core, False)  # the sink is on no cycle
        if not core.any():
            return None
        to, w = self._node_succs
        node = int(core.argmax())
        steps, seen = [], {}
        while node not in seen:
            seen[node] = len(steps)
            idx = int(((w[:, node] == 0) & core[to[:, node]]).argmax())
            steps.append(self._path_step(*divmod(node, self.num_states), idx))
            node = int(to[idx, node])
        return steps[seen[node] :]

    def _path_step(self, phase, state, input_idx):
        e = self.edge(phase, state, input_idx)
        return PathStep(phase, state, self.input_block(input_idx), e.label, e.to_state)


def acs(rows, src, keys):
    """One add-compare-select step over a batch of key rows rows[b, st]
    (frames, or the sections of the loop DP), each entry a distance x I, I
    = keys.shape[1] inputs, or U = `_unreached(I)` where unreached.

    Edge j into state st leaves state src[j, st] of the row, or entry
    src[b, j, st] of rows.flat, with key keys[b, j, st]: its branch
    distance x I + j, or U for an edge that may not be taken.  One
    elementwise minimum over j of the candidates row + key gives the least
    distance and, of equal ones, the lowest j: the first minimum.  Returns
    the new rows, key - key % I clamped to U, and best[b, st] = key % I,
    the j kept, which means nothing where the state stays unreached.  The
    callers bound their distances by `_check_keys`, so no sum wraps."""
    cand = rows[:, src] if src.ndim == 2 else rows.take(src)
    cand += keys
    key = np.minimum.reduce(cand, axis=1)
    inputs = cand.shape[1]
    best = key % inputs
    key -= best
    np.minimum(key, _unreached(inputs), out=key)
    return key, best


def _unreached(inputs):
    """U, the key of an unreached state and of an edge that may not be
    taken in `acs` over `inputs` inputs: the largest multiple of inputs
    below 2^62.  A sum of two keys up to U stays below 2^63, and a key from
    U on stays at U or more when its j is taken off."""
    return ((1 << 62) - 1) // inputs * inputs


def _check_keys(inputs, max_distance):
    """Assert that `acs` keys over `inputs` inputs are exact for every
    distance up to max_distance, that is below U / inputs, and return U
    (`_unreached`): a key up to max_distance x inputs + inputs - 1 is then
    below U, and U + U below 2^63."""
    unreached = _unreached(inputs)
    assert 2 * unreached < 1 << 63, f"{unreached} + {unreached} overflows int64"
    assert (max_distance + 1) * inputs <= unreached, (
        f"distances up to {max_distance} x {inputs} inputs reach the key {unreached} of "
        "an unreached state"
    )
    return unreached


def _frontier(rows, ret):
    """min over (s, st) of rows[s, st] + ret[s, st] for the key rows of the
    loop DP and the return keys `_return_keys`: a lower bound, in keys, on
    the weight of every loop of as many edges as the rows hold or more."""
    return int((rows + ret).min())


def _rows(table):
    """The one row a zero-stride table repeats, else the table itself."""
    return table[:1] if table.strides[0] == 0 else table


def _number(key, inputs):
    """A distance key of `acs` over `inputs` inputs as a Python int
    distance, math.inf from `_unreached` on."""
    key = int(key)
    return key // inputs if key < _unreached(inputs) else math.inf


def _peel(to, edge_mask):
    """Mask of the m = to.shape[1] nodes left when the graph of the edges v
    -> to[i, v] with edge_mask[i, v] is peeled of every node with no in-edge
    or no out-edge among the nodes left, until none goes: the nodes on
    cycles and on paths between them.  The sink, node m, goes first."""
    idx, u = np.nonzero(edge_mask)
    v = to[idx, u]
    live = np.ones(to.shape[1] + 1, dtype=bool)
    while True:
        inner = live[u] & live[v]
        u, v = u[inner], v[inner]
        leaves, enters = np.zeros_like(live), np.zeros_like(live)
        leaves[u] = enters[v] = True
        kept = live & leaves & enters
        if (kept == live).all():
            return live[:-1]
        live = kept


class _MeanCycle(NamedTuple):
    value: Fraction | float  # the least cycle mean; math.inf if no cycle
    cycle: list | None  # the nodes of a cycle of that mean, in order
    potential: np.ndarray | None  # p[v] <= w * len - sum + p[to] on every edge


def _least_mean_cycle(to, w):
    """The least mean cycle of the graph in which input i leads from node v
    to node to[i, v] at integer weight w[i, v], or to the sink, node m =
    to.shape[1], by an edge that is not there, by Howard's policy iteration.

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
    no cycle has a lower mean, and the policy's cycle attains it.  Nodes on
    no cycle nor between two are peeled first (`_peel`), and an edge into
    one or the sink is not there; a graph peeled empty has no cycle.
    """
    nodes = np.flatnonzero(_peel(to, np.ones(to.shape, dtype=bool)))
    if not nodes.size:
        return _MeanCycle(math.inf, None, None)
    renumber = np.full(to.shape[1] + 1, -1)
    renumber[nodes] = np.arange(nodes.size)
    succ = renumber[to[:, nodes]]
    present = succ >= 0
    succ[~present] = 0
    weight = w[:, nodes].astype(np.int64)
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


def _bellman_ford(to, w, dist):
    """Pull Bellman-Ford: rounds of dist[v] = min(dist[v], w[i, v] +
    dist[to[i, v]]) over the m = w.shape[1] nodes (entries of dist past m
    stay fixed) to the fixpoint, or None if it does not settle within m
    rounds, as it does unless a cycle has negative weight."""
    m = w.shape[1]
    for _ in range(m):
        relaxed = np.minimum(dist[:m], (dist[to] + w).min(axis=0))
        if (relaxed == dist[:m]).all():
            return dist[:m]
        dist[:m] = relaxed
    return None


def _potential(to, w, num, den):
    """Integer `_bellman_ford` on the weights w * den - num from 0 at every
    node: the fixpoint potential p, with p[v] <= w[i, v] * den - num +
    p[to[i, v]] on every edge, or None if it does not settle within `nodes`
    rounds, which happens iff some cycle has mean below num / den.  The
    sink, which the missing edges lead to, is held at U = `_unreached(1)`:
    a reduced weight plus U is at least 0, so no potential (all <= 0) is
    tightened through it, and the sum stays below 2 U < 2^63."""
    reduced = w.astype(np.int64) * den - num
    far = _unreached(1)
    assert int(np.abs(reduced).max()) <= far, f"a reduced weight reaches the sink's {far}"
    return _bellman_ford(to, reduced, np.append(np.zeros(w.shape[1], dtype=np.int64), far))


def _check_edge_budget(sections, q, nu, k):
    """Refuse a trellis of sections x q^nu states x q^k inputs over
    EDGE_BUDGET edges; Python ints, so nothing is allocated for a huge one."""
    what = f"a trellis of {sections} section(s) x {q}^{nu} states x {q}^{k} inputs"
    _within(sections * q**nu * q**k, EDGE_BUDGET, what, "edges")


def check_survivor_budget(frames, blocks, num_states):
    """Refuse a Viterbi call on `frames` frames of `blocks` blocks that would
    hold more than SURVIVOR_BUDGET survivor entries."""
    what = f"Viterbi on {frames} frame(s) of {blocks} blocks x {num_states} states"
    _within(frames * blocks * num_states, SURVIVOR_BUDGET, what, "survivor entries")


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
    sections = len(phases)
    _check_edge_budget(sections, q, nu, k)
    # products[s, delay, row, j, a] = a * entry (row, j) of the phase-s delay table
    symbol = np.min_scalar_type(q - 1)
    products = field.mul(np.array(phases)[..., None], np.arange(q)).astype(symbol)

    def parts(digits):
        """(label, state)[..., id] for the ids whose base-q digits, least
        significant first, are the (row, delay, place) `digits`: the sum of
        their label terms, label[s, j, id], and of their next-state shares,
        each digit at `place` (0: shifted out), through theta if the code's
        registers twist.  The ids are int32, as they fit within the edge
        budget."""
        rest = np.arange(q ** len(digits), dtype=np.int32)
        label = np.zeros((sections, n, len(rest)), dtype=symbol)
        state = np.zeros(len(rest), dtype=np.intp)
        for row, delay, place in digits:
            rest, digit = np.divmod(rest, q)
            label = field.add(label, products[:, delay, row].take(digit, axis=-1))
            if place:
                state += place * (field.frobenius_table[digit] if code.register_twist else digit)
        return label, state

    # Edge e = from_state * q^k + input: the input's digits are the k input
    # symbols, each entering slot 1 of its row's register; the state's are
    # the nu register slots by row and delay, each moving one slot on.
    starts = [sum(regs[:row]) for row in range(k)]
    fresh, entering = parts(
        [(row, 0, q**start if reg else 0) for row, (start, reg) in enumerate(zip(starts, regs))]
    )
    held, shifted = parts(
        [
            (row, delay, q ** (start + delay) if delay < reg else 0)
            for row, (start, reg) in enumerate(zip(starts, regs))
            for delay in range(1, reg + 1)
        ]
    )
    # one add per output symbol: one add over all n, n innermost, is slower
    label = np.empty((sections, q**nu, q**k, n), dtype=symbol)
    for j in range(n):
        label[..., j] = field.add(held[:, j, :, None], fresh[:, j, None])
    label = label.reshape(sections, -1, n)
    # the shift is the same at every phase: one row, read-only, for all
    next_state = (shifted[:, None] + entering).ravel()
    next_state = np.broadcast_to(next_state, (sections, next_state.size))
    return Trellis(field, k, n, regs, next_state, label)


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
    sections = _integral(sections, "sections", 1)
    _check_edge_budget(sections, trellis.q, trellis.external_degree, trellis.k)
    field = trellis.field
    lines = ["digraph trellis {", "  rankdir=LR;", "  node [shape=circle fontsize=10];"]
    for layer in range(sections + 1):
        for st in range(trellis.num_states):
            lines.append(f'  t{layer}_s{st} [label="{trellis.state_name(st)}"];')
    next_state, labels = trellis.next_state.tolist(), trellis.label.tolist()
    for layer in range(sections):
        s = layer % trellis.num_sections
        for e, (to, label) in enumerate(zip(next_state[s], labels[s])):
            st = e // trellis.num_inputs
            text = " ".join(field.element_name(v) for v in label)
            lines.append(f'  t{layer}_s{st} -> t{layer + 1}_s{to} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
