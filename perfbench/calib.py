"""Host-speed calibration.

The sandbox this benchmark runs in drifts by tens of percent in speed
from one run to the next, and the drift hits all Python code at once.  A
short, fixed *calibration slice* run between operations measures that
common-mode speed, and host times are rescaled to a reference host::

    calibrated = raw * REF_SLICE_S / (median slice cost around the interval)

The slice is fixed code on data it owns (built once per process), shaped
like the simulator's inner loops.  Half of it chases indices through
lists, looks up a dict and adds floats over a working set of a few MB;
the other half allocates and drops short-lived objects, lists and dicts.
Measured against the simulator over four minutes of host drift, the
first half alone over-reacted to the slow drift (slope 1.3 in log time)
and the second half or a slice on a few KB of data under-reacted (0.7 to
0.75); the two together track it with a slope of 1.0 to 1.06 and cut
the drift left over a 30 s window from about 10% to about 3%.  Each slice
runs with the garbage collector off and is timed with
``time.thread_time()``, so the program's heap, its other threads and
other processes' CPU use do not change its cost.  The two vCPUs of the
sandbox drift independently, so the benchmark keeps itself and every
process it starts on one CPU (``run.py``).  ``REF_SLICE_S`` is a
constant, so calibrated figures still read as seconds.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import sys
import time

# Median cost of one slice on the host the benchmark was tuned on (2 vCPU
# Xeon VM at 2.1 GHz, CPython 3.11); only the ratio to it matters.
REF_SLICE_S = 0.016

# The two halves of a slice, each about half its cost.
CHASE_STEPS = 7_000
ALLOC_STEPS = 9_000
_OBJECTS = 1 << 17
_KEYS = 1 << 16

# Aim for one slice about every half second of work.
SLICE_EVERY_S = 0.5
# A single slice is a noisy estimate of the host's speed; an interval is
# calibrated by the slices within this many seconds of it, which tracks
# drift over tens of seconds without following the noise.
WINDOW_S = 2.0


class _SliceData:
    """The slice's own working set: a random cycle over parallel lists and
    an integer-keyed dict.  Plain lists of numbers and a dict of ints keep
    the data almost free for the garbage collector to walk, so holding it
    does not slow the program's collections down."""

    def __init__(self) -> None:
        rng = random.Random(1)
        order = list(range(_OBJECTS))
        rng.shuffle(order)
        self.next = order
        self.values = [float(i) for i in range(_OBJECTS)]
        self.kinds = [i & 7 for i in range(_OBJECTS)]
        self.table = {(i * 2654435761) & 0xFFFFFFFF: i
                      for i in range(_KEYS)}
        self.keys = list(self.table)


_data: _SliceData | None = None


class _Record:
    __slots__ = ("value", "pair", "fields")


def _chase(steps: int) -> float:
    """Index chasing, dict lookups and float arithmetic over the data."""
    global _data
    if _data is None:
        _data = _SliceData()
    nxt, values, kinds = _data.next, _data.values, _data.kinds
    table = _data.table
    keys = _data.keys
    mask = _KEYS - 1
    node = 0
    x = 1
    acc = 0.0
    for _ in range(steps):
        node = nxt[node]
        acc += values[node] if kinds[node] > 3 else -values[node]
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += table[keys[x & mask]]
    return acc


def _allocate(steps: int) -> int:
    """Short-lived objects, lists and dicts, as the simulator's records."""
    live = []
    acc = 0
    for i in range(steps):
        record = _Record()
        record.value = float(i)
        record.pair = [i, i + 1]
        record.fields = {"seq": i}
        live.append(record)
        if len(live) > 2000:
            live.clear()
        acc += len(record.pair) + record.fields["seq"]
    return acc


def _slice_kernel() -> float:
    return _chase(CHASE_STEPS) + _allocate(ALLOC_STEPS)


SLICE_CHECKSUM = 272405527.0


def run_slice() -> float:
    """Run one calibration slice; returns its thread CPU time (s).

    The collector is off and the interpreter's switch interval is raised
    for the slice's few milliseconds, so no other Python thread takes the
    GIL (and the CPU caches) from it halfway through."""
    if _data is None:
        _chase(1)                            # build the data untimed
    enabled = gc.isenabled()
    interval = sys.getswitchinterval()
    gc.disable()
    sys.setswitchinterval(1.0)
    try:
        start = time.thread_time()
        checksum = _slice_kernel()
        cost = time.thread_time() - start
    finally:
        sys.setswitchinterval(interval)
        if enabled:
            gc.enable()
    if SLICE_CHECKSUM is not None and checksum != SLICE_CHECKSUM:
        raise RuntimeError(f"calibration slice checksum {checksum!r} != "
                           f"{SLICE_CHECKSUM!r}")
    return cost


class Calibrator:
    """Runs slices between operations and rescales the host time of any
    interval by the slices taken in and around it.

    Slices run on the calling thread.  Their wall time is recorded, so an
    interval that contains slices can have it subtracted (:meth:`net`).
    """

    def __init__(self, every: float = SLICE_EVERY_S, on_slice=None) -> None:
        self.every = every
        # (wall start, wall end, thread CPU cost) per slice, in time order.
        self.slices: list[tuple[float, float, float]] = []
        self._last = float("-inf")
        # Optional hook(start, end) for the tracer's "calibrate" layer.
        self.on_slice = on_slice

    def tick(self) -> None:
        """Run one slice now."""
        start = time.perf_counter()
        cost = run_slice()
        end = time.perf_counter()
        self.slices.append((start, end, cost))
        self._last = end
        if self.on_slice is not None:
            self.on_slice(start, end)

    def maybe(self) -> bool:
        """Run a slice if the last one is at least ``every`` seconds old;
        returns whether one ran."""
        if time.perf_counter() - self._last < self.every:
            return False
        self.tick()
        return True

    def net(self, start: float, end: float) -> float:
        """Wall time of ``[start, end]`` minus the slices inside it."""
        inside = sum(e - s for s, e, _ in self.slices
                     if s >= start and e <= end)
        return (end - start) - inside

    def costs(self, start: float, end: float) -> list[float]:
        """Costs of the slices within WINDOW_S of ``[start, end]``, and at
        least the nearest slice on each side of it."""
        starts = [s for s, _, _ in self.slices]
        lo = min(bisect.bisect_left(starts, start - WINDOW_S),
                 max(0, bisect.bisect_left(starts, start) - 1))
        hi = max(bisect.bisect_right(starts, end + WINDOW_S),
                 bisect.bisect_right(starts, end) + 1)
        return [c for _, _, c in self.slices[lo:hi]]

    def factor(self, start: float, end: float) -> float:
        """REF_SLICE_S / median slice cost in and around the interval."""
        costs = self.costs(start, end)
        if not costs:
            raise RuntimeError("no calibration slice taken yet")
        return REF_SLICE_S / statistics.median(costs)

    def calibrate(self, start: float, end: float) -> tuple[float, float]:
        """(raw, calibrated) host seconds of ``[start, end]``, slices
        excluded."""
        raw = self.net(start, end)
        return raw, raw * self.factor(start, end)

    def speed_factor(self) -> float:
        """REF_SLICE_S / median cost of every slice taken: above 1 means
        the host ran faster than the reference host."""
        return REF_SLICE_S / statistics.median(c for _, _, c in self.slices)
