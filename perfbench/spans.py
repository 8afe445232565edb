"""In-memory spans around the library's public calls, for the traced run.

`Tracer.install` replaces each traced function wherever a skewconv module
binds it, and each traced method on its class, by a wrapper that records a
span: name, start, end, parent span and operation id.  The field methods get
call counters instead of spans; they run millions of times, and a span each
would swamp what they measure.  `Tracer.uninstall` puts every original back.
"""

import json
import sys
import time

# Module-level functions: (defining module, attribute, span name).  Each is
# wrapped in every skewconv module that binds it, e.g. `analysis.viterbi`.
FUNCTIONS = (
    ("skewconv.codespec", "loads_code", "codespec.load"),
    ("skewconv.trellis", "build_trellis", "trellis.build"),
    ("skewconv.trellis", "is_catastrophic", "trellis.catastrophic"),
    ("skewconv.skewtrellis", "build_trellis_right", "skewtrellis.build"),
    ("skewconv.skewtrellis", "linearity_report", "skewtrellis.linearity"),
    ("skewconv.decoder", "viterbi", "decoder.viterbi"),
    ("skewconv.decoder", "bcjr", "decoder.bcjr"),
    ("skewconv.dual", "syndrome_former", "dual.syndrome_former"),
    ("skewconv.dual", "verify_duality", "dual.verify"),
    ("skewconv.analysis", "analyze_code", "analysis.analyze"),
    ("skewconv.analysis", "run_simulation", "analysis.simulate"),
)

# Methods: (module, class, method, span name).
METHODS = (
    ("skewconv.code", "Sequence", "__init__", "code.sequence"),
    ("skewconv.code", "SkewConvCode", "encode", "code.encode"),
    ("skewconv.trellis", "Trellis", "free_distance", "trellis.free_distance"),
    ("skewconv.trellis", "Trellis", "slope", "trellis.slope"),
    ("skewconv.trellis", "Trellis", "active_burst_distance", "trellis.burst"),
    ("skewconv.decoder", "QSChannel", "transmit", "decoder.channel"),
)

# FiniteField methods that are counted, not spanned.
COUNTED = (("add_int", "add"), ("mul_int", "mul"), ("frobenius_int", "frobenius"))

# Spans whose arguments and results are kept for the traced run's oracles.
CAPTURED = ("decoder.viterbi", "decoder.bcjr", "decoder.channel")

SPAN_NAMES = tuple(s[-1] for s in FUNCTIONS + METHODS)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.calls = {name: [] for name in CAPTURED}  # (op, args, kwargs, result)
        self.counts = {key: 0 for _, key in COUNTED}
        self.op = None  # id of the operation now running, set by the caller
        self._stack = []
        self._undo = []

    def _span(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if calls is not None:
                calls.append((self.op, args, kwargs, result))
            return result

        return traced

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "skewconv"]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self._span(name, original)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapped)
        for modname, cls, attr, name in METHODS:
            owner = getattr(sys.modules[modname], cls)
            self._patch(owner, attr, self._span(name, vars(owner)[attr]))
        field_cls = sys.modules["skewconv.field"].FiniteField
        for attr, key in COUNTED:
            self._patch(field_cls, attr, self._counter(key, vars(field_cls)[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def durations(self):
        """Per span name: (calls, inclusive seconds, self seconds).  Self time
        is a span's duration minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += (end - start) / 1e9
            row[2] += (end - start - child_ns[i]) / 1e9
        return out

    def root_seconds(self):
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0) / 1e9

    def dump(self, path):
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "field_calls": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
