"""A clock in reference seconds, steady while the host's speed drifts.

The cores this benchmark runs on are shared, and the same pure-Python work
has been measured to take anywhere from 1x to 2x as long from one minute to
the next.  `HostClock` samples the host's speed every PROBE_PERIOD_S with a
fixed probe, run from a SIGALRM handler between the bytecodes of whatever the
run is executing.  The wall time from one probe to the next counts at the
speed the first of them measured: a stretch run at half the reference speed
counts as half its length.  Work per reference second is then a figure of the
program, not of the neighbours.

The probe shares its process with the program, so the program's state can
slow one probe: a probe right after a full collection or a cache-evicting
sweep runs cold.  Two guards keep that out of the scale.  The garbage
collector is held off during a probe, so no collection lands in a sample, and
the speed is the median of the last PROBE_WINDOW probes, so one cold probe
does not set it.  The host's drift is slow next to that window.
"""

import gc
import signal
import statistics
import time
from collections import deque

import numpy

PROBE_PERIOD_S = 0.01
# Probe duration that defines the reference speed; one reference second is
# the time in which the host runs 1 / REF_PROBE_S probes.
REF_PROBE_S = 3e-4
PROBE_ITERATIONS = 1500
PROBE_WINDOW = 5

_CELLS = numpy.zeros((16, 16))


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe(n=PROBE_ITERATIONS):
    """Fixed work mixing what the workloads do: int and list arithmetic,
    numpy scalar indexing, and small-object construction with a generator."""
    acc = 0
    table = [0] * 16
    for i in range(n // 3):
        acc += table[i & 15]
        table[i & 15] = acc & 0xFFFF
    cells = _CELLS
    for i in range(n // 12):
        cells[i & 15, 3] += 1.0
        acc += cells[3, i & 15] > 0
    row = tuple(range(8))
    for i in range(n // 24):
        pairs = tuple(_Pair(v, i) for v in row)
        acc += sum(1 for x, y in zip(pairs, row) if x.a != y)
    return acc


class HostClock:
    """Context manager; `now()` reads reference seconds while it is open."""

    def __init__(self):
        self.samples = []  # probe durations, seconds
        self._window = deque(maxlen=PROBE_WINDOW)
        self._ref = 0.0  # reference seconds up to self._last
        self._last = 0.0  # perf_counter at the end of the last probe
        self._scale = 1.0  # reference seconds per wall second since then
        self._previous_handler = None

    def _probe(self, *_):
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        if gc_was_enabled:
            gc.enable()
        self._ref += (t0 - self._last) * self._scale
        self._last = t1
        self._window.append(t1 - t0)
        self._scale = REF_PROBE_S / statistics.median(self._window)
        self.samples.append(t1 - t0)

    def now(self):
        return self._ref + (time.perf_counter() - self._last) * self._scale

    def __enter__(self):
        probe()  # untimed: the probe's first run is slow, its code still cold
        self._last = time.perf_counter()
        for _ in range(PROBE_WINDOW):
            self._probe()
        self._previous_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False
