"""Optane-like NVM device model with a write-pending queue (WPQ).

The device exposes a single write port serviced at the configured write
bandwidth. Writes flow through a WPQ of ``wpq_entries`` slots; a write that
arrives to a full WPQ is delayed (backpressure) until a slot drains. Reads
have priority but can be delayed by at most one in-flight line write — the
contention term the paper invokes for rb in Section 7.2.

The model is a timeline, not a cycle loop: calls carry the current core
cycle and receive completion cycles back, which is what the scoreboard core
model consumes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class NvmStats:
    """Traffic and contention counters for one NVM device."""

    line_writes: int = 0
    reads: int = 0
    # Cycle accumulators are floats: WPQ admission times and read-port
    # queueing are fractional (bandwidth terms divide the clock), and the
    # orchestrator's strict-JSON round trip must reproduce them bit-exactly.
    write_backpressure_cycles: float = 0.0
    read_contention_cycles: float = 0.0
    busy_cycles: float = 0.0

    stats_kind = "nvm"

    def merge(self, other: "NvmStats") -> "NvmStats":
        self.line_writes += other.line_writes
        self.reads += other.reads
        self.write_backpressure_cycles += other.write_backpressure_cycles
        self.read_contention_cycles += other.read_contention_cycles
        self.busy_cycles += other.busy_cycles
        return self

    def __iadd__(self, other: "NvmStats") -> "NvmStats":
        return self.merge(other)

    def to_dict(self) -> dict:
        return {
            "line_writes": self.line_writes,
            "reads": self.reads,
            "write_backpressure_cycles": self.write_backpressure_cycles,
            "read_contention_cycles": self.read_contention_cycles,
            "busy_cycles": self.busy_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NvmStats":
        return cls(**data)


@dataclass(slots=True)
class WriteTicket:
    """Outcome of submitting one line write."""

    accepted_at: float     # when the WPQ admitted the write (>= submit time)
    done_at: float         # when the line is durable in NVM
    backpressure: float    # accepted_at - submit time


class NvmModel:
    """Timeline model of the PMEM device behind the memory hierarchy.

    ``bandwidth_share`` scales effective write bandwidth for rate-based
    multi-core runs where several cores contend for one device.
    """

    def __init__(self, cfg, bandwidth_share: float = 1.0) -> None:
        if bandwidth_share <= 0:
            raise ValueError("bandwidth_share must be positive")
        self.cfg = cfg
        self.cycles_per_line = cfg.cycles_per_line / bandwidth_share
        self.read_cycles_per_line = cfg.read_cycles_per_line / bandwidth_share
        self.write_latency = cfg.write_latency
        self.read_latency = cfg.read_latency
        self.wpq_entries = cfg.wpq_entries
        self._port_free: float = 0.0
        self._read_port_free: float = 0.0
        # Completion times of writes still occupying WPQ slots (sorted).
        self._wpq_done: deque[float] = deque()
        # Cached deque head: the earliest pending completion. ``write_line``
        # appends nondecreasing times, so the head only changes on a pop or
        # an append into an empty queue — drain calls between completions
        # are a single comparison.
        self._wpq_head = float("inf")
        self.stats = NvmStats()
        # Telemetry sink (repro.telemetry); attached per run via
        # ``telemetry.attach_nvm_tracer`` — None means record nothing.
        self.tracer = None

    def _drain_wpq(self, now: float) -> None:
        if now < self._wpq_head:
            return
        done = self._wpq_done
        while done and done[0] <= now:
            done.popleft()
        self._wpq_head = done[0] if done else float("inf")

    def wpq_occupancy(self, now: float) -> int:
        """Writes still pending in the WPQ at ``now``."""
        self._drain_wpq(now)
        return len(self._wpq_done)

    def write_line(self, submit_time: float,
                   line_addr: int = 0) -> WriteTicket:
        """Submit one 64 B line write; returns admission/durability times.

        ``line_addr`` is accepted for interface parity with
        :class:`MultiControllerNvm`, which routes by address."""
        self._drain_wpq(submit_time)
        accepted_at = submit_time
        if len(self._wpq_done) >= self.wpq_entries:
            # Wait until the oldest outstanding write frees a slot.
            accepted_at = self._wpq_done[len(self._wpq_done)
                                         - self.wpq_entries]
        start = max(accepted_at, self._port_free)
        self._port_free = start + self.cycles_per_line
        done_at = start + self.write_latency
        self._wpq_done.append(done_at)
        if done_at < self._wpq_head:
            self._wpq_head = done_at
        backpressure = accepted_at - submit_time
        self.stats.line_writes += 1
        self.stats.write_backpressure_cycles += backpressure
        self.stats.busy_cycles += self.cycles_per_line
        if self.tracer is not None:
            # Admission→media-completion: the WPQ slot-residency window.
            self.tracer.span("nvm", "wpq", accepted_at, done_at,
                             cat="nvm", line=line_addr,
                             backpressure=backpressure)
            self.tracer.counter("nvm", "wpq_occupancy", accepted_at,
                                len(self._wpq_done))
            if backpressure > 0:
                self.tracer.metrics.histogram(
                    "nvm.wpq_backpressure").add(backpressure)
        return WriteTicket(accepted_at, done_at, backpressure)

    def read(self, submit_time: float, line_addr: int = 0) -> float:
        """Read latency in cycles, including read-port occupancy (the
        device's read bandwidth) and bounded write contention."""
        start = max(submit_time, self._read_port_free)
        self._read_port_free = start + self.read_cycles_per_line
        queue = start - submit_time
        # Reads have priority over the write port; a read waits at most a
        # quarter of one in-flight line write.
        contention = min(max(0.0, self._port_free - submit_time),
                         self.cycles_per_line * 0.25)
        self.stats.reads += 1
        self.stats.read_contention_cycles += queue + contention
        return self.read_latency + queue + contention

    def drained_by(self, now: float) -> bool:
        """True when every accepted write is durable at ``now``."""
        self._drain_wpq(now)
        return not self._wpq_done

    def drain_time(self) -> float:
        """Cycle at which the currently queued writes all become durable."""
        return self._wpq_done[-1] if self._wpq_done else 0.0


class MultiControllerNvm:
    """NVM behind multiple integrated memory controllers (Section 6).

    Table 2's machine has two MCs; lines interleave across them by line
    address, so a younger store bound for a lightly loaded MC can become
    durable *before* an older store queued behind a busy one. PPA tolerates
    this: stores in different regions are ordered by the persist barrier,
    and stores within the interrupted region are all replayed anyway.

    The wrapper presents the single-device interface; per-controller
    devices keep their own WPQs and ports, and aggregate statistics are
    merged on demand.
    """

    def __init__(self, cfg, controllers: int = 2,
                 bandwidth_share: float = 1.0) -> None:
        if controllers <= 0:
            raise ValueError("need at least one controller")
        self.cfg = cfg
        self.controllers = [
            NvmModel(cfg, bandwidth_share=bandwidth_share)
            for __ in range(controllers)
        ]
        # Interface parity with NvmModel (used for latency bookkeeping).
        self.read_latency = cfg.read_latency
        self.write_latency = cfg.write_latency
        self.cycles_per_line = cfg.cycles_per_line / bandwidth_share

    def _route(self, line_addr: int) -> NvmModel:
        index = (line_addr >> 6) % len(self.controllers)
        return self.controllers[index]

    def write_line(self, submit_time: float,
                   line_addr: int = 0) -> WriteTicket:
        return self._route(line_addr).write_line(submit_time, line_addr)

    def read(self, submit_time: float, line_addr: int = 0) -> float:
        return self._route(line_addr).read(submit_time, line_addr)

    def wpq_occupancy(self, now: float) -> int:
        return sum(c.wpq_occupancy(now) for c in self.controllers)

    def drained_by(self, now: float) -> bool:
        return all(c.drained_by(now) for c in self.controllers)

    def drain_time(self) -> float:
        return max(c.drain_time() for c in self.controllers)

    @property
    def stats(self) -> NvmStats:
        merged = NvmStats()
        for controller in self.controllers:
            merged.merge(controller.stats)
        return merged


def nvm_backend(cfg, bandwidth_share: float = 1.0):
    """The device a memory system sits on: one :class:`NvmModel`, or a
    :class:`MultiControllerNvm` when ``cfg`` has several controllers."""
    if cfg.num_controllers > 1:
        return MultiControllerNvm(cfg, controllers=cfg.num_controllers,
                                  bandwidth_share=bandwidth_share)
    return NvmModel(cfg, bandwidth_share=bandwidth_share)
