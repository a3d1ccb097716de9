"""Microarchitectural and system configuration.

The defaults transplant Table 2 of the paper: an 8-core, 4-wide x86_64
out-of-order processor at 2 GHz with a unified physical register file,
private L1 caches, a shared L2, a direct-mapped DRAM cache (Intel memory
mode), and an Optane-like PMEM backend.

All latencies are expressed in core cycles at ``clock_ghz`` unless a field
name says otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

CACHELINE_BYTES = 64

# Environment switch for the persistency sanitizer (repro.sanitizer):
# when set, importing ``repro`` installs runtime invariant probes on the
# persist-path structures. Off by default — the probes then cost nothing
# because the classes are never touched.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"
# Environment switch for the telemetry tracer (repro.telemetry): when set,
# every run constructs its own Tracer and records structured events. Off by
# default — the instrumentation sites then see ``tracer is None`` and no
# Tracer object is ever allocated (the zero-overhead-off contract).
TRACE_ENV_VAR = "REPRO_TRACE"
_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitize_requested(environ: dict | None = None) -> bool:
    """Did the environment (``REPRO_SANITIZE=1``) ask for the sanitizer?"""
    env = os.environ if environ is None else environ
    return env.get(SANITIZE_ENV_VAR, "").strip().lower() in _TRUTHY


def trace_requested(environ: dict | None = None) -> bool:
    """Did the environment (``REPRO_TRACE=1``) ask for event tracing?"""
    env = os.environ if environ is None else environ
    return env.get(TRACE_ENV_VAR, "").strip().lower() in _TRUTHY


def ns_to_cycles(ns: float, clock_ghz: float) -> int:
    """Convert a latency in nanoseconds to (rounded) core cycles."""
    return max(1, round(ns * clock_ghz))


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Table 2, "Processor" row)."""

    width: int = 4                  # fetch/rename/commit width
    clock_ghz: float = 2.0
    rob_size: int = 224
    iq_size: int = 97
    sq_size: int = 56
    lq_size: int = 72
    int_prf_size: int = 180
    fp_prf_size: int = 168
    int_arch_regs: int = 16         # x86_64 GPRs
    fp_arch_regs: int = 32          # XMM registers
    branch_mispredict_penalty: int = 14
    # Execution latencies (cycles) by operation class.
    lat_int_alu: int = 1
    lat_int_mul: int = 3
    lat_int_div: int = 20
    lat_fp_alu: int = 4
    lat_fp_mul: int = 4
    lat_fp_div: int = 12
    lat_branch: int = 1
    lat_agen: int = 1               # address generation for memory ops

    @property
    def prf_size(self, ) -> int:
        """Total unified-PRF entries (int + fp)."""
        return self.int_prf_size + self.fp_prf_size

    def free_regs_after_arch_map(self, fp: bool) -> int:
        """Registers left once every architectural register holds a mapping."""
        if fp:
            return self.fp_prf_size - self.fp_arch_regs
        return self.int_prf_size - self.int_arch_regs


@dataclass(frozen=True)
class CacheConfig:
    """One level of set-associative SRAM cache."""

    size_bytes: int
    assoc: int
    hit_latency: int                # cycles
    line_bytes: int = CACHELINE_BYTES

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)


@dataclass(frozen=True)
class DramCacheConfig:
    """Direct-mapped DRAM cache used by PMEM's memory mode (Table 2)."""

    size_bytes: int = 4 << 30       # 4 GB
    hit_latency: int = 100          # ~50 ns DDR4 access at 2 GHz
    line_bytes: int = CACHELINE_BYTES

    @property
    def num_sets(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class NvmConfig:
    """Optane-like PMEM device (Table 2, "PMEM" row)."""

    read_latency_ns: float = 175.0
    write_latency_ns: float = 90.0
    wpq_entries: int = 16
    write_bandwidth_gbs: float = 2.3
    # Aggregate Optane read bandwidth over the two integrated memory
    # controllers of Table 2 (≈6.8 GB/s per DIMM).
    read_bandwidth_gbs: float = 13.6
    clock_ghz: float = 2.0
    # Integrated memory controllers; lines interleave across them. With
    # more than one, a younger store can persist before an older one bound
    # for a busier controller (Section 6, "Multiple Memory Controller
    # Support") — PPA's region protocol and replay tolerate this.
    num_controllers: int = 1
    # Cycles for a posted line writeback to travel from the L1D write buffer
    # to the memory controller's WPQ and for the admission acknowledgment to
    # reach the core's persist counter. Durability (ADR domain) is reached
    # on WPQ admission; the media write behind it only occupies WPQ
    # slots/bandwidth.
    persist_path_latency: int = 10

    @property
    def read_latency(self) -> int:
        return ns_to_cycles(self.read_latency_ns, self.clock_ghz)

    @property
    def write_latency(self) -> int:
        return ns_to_cycles(self.write_latency_ns, self.clock_ghz)

    @property
    def cycles_per_line(self) -> float:
        """Write-port occupancy per 64 B line at the configured bandwidth."""
        ns_per_line = CACHELINE_BYTES / self.write_bandwidth_gbs
        return ns_per_line * self.clock_ghz

    @property
    def read_cycles_per_line(self) -> float:
        """Read-port occupancy per 64 B line at the read bandwidth."""
        ns_per_line = CACHELINE_BYTES / self.read_bandwidth_gbs
        return ns_per_line * self.clock_ghz


@dataclass(frozen=True)
class PpaConfig:
    """PPA's new structures (Section 4)."""

    csq_entries: int = 40
    # Write-buffer (between L1D and the NVM path) slots available for
    # asynchronous persist operations.
    writebuffer_entries: int = 16
    # Lazy-writeback residence: a dirty line sits in the write buffer this
    # many cycles before its persist op issues, so same-line stores within
    # the window coalesce into a single NVM write (persist coalescing).
    wb_residence_cycles: int = 100
    persist_coalescing: bool = True
    # The rename stage stalls and retries when the free list is empty; a
    # persist barrier (region boundary) is injected only once at least this
    # many masked registers are parked in the deferred list — i.e. when the
    # starvation is actually caused by store-integrity masking rather than
    # by a transient in-flight spike that the next commits will resolve.
    min_deferred_for_boundary: int = 24
    # When False, every committed store drains synchronously before the next
    # one commits (ablation of the asynchronous writeback design choice).
    async_writeback: bool = True


@dataclass(frozen=True)
class MemoryConfig:
    """The full memory system below the core."""

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(32 << 10, 8, 3))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(64 << 10, 8, 4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(16 << 20, 16, 44))
    l3: CacheConfig | None = None   # optional level atop the DRAM cache (§7.6)
    dram_cache: DramCacheConfig | None = field(default_factory=DramCacheConfig)
    nvm: NvmConfig = field(default_factory=NvmConfig)
    # Backend selector: "pmem-memory-mode" (DRAM cache over NVM),
    # "pmem-app-direct" (NVM directly under the SRAM caches, §7.2), or
    # "dram-only" (volatile 32 GB DRAM, Fig 9).
    backend: str = "pmem-memory-mode"
    dram_only_latency: int = 100    # DRAM access for the dram-only backend


@dataclass(frozen=True)
class SystemConfig:
    """Everything a simulation run needs."""

    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    ppa: PpaConfig = field(default_factory=PpaConfig)
    num_cores: int = 8
    # Sampling stride for the free-register CDF (Fig 5); 1 = every cycle.
    free_reg_sample_stride: int = 1

    def with_prf(self, int_size: int, fp_size: int) -> "SystemConfig":
        """Return a copy with a different PRF size (Fig 16 sweep)."""
        return replace(self, core=replace(
            self.core, int_prf_size=int_size, fp_prf_size=fp_size))

    def with_csq(self, entries: int) -> "SystemConfig":
        """Return a copy with a different CSQ size (Fig 17 sweep)."""
        return replace(self, ppa=replace(self.ppa, csq_entries=entries))

    def with_wpq(self, entries: int) -> "SystemConfig":
        """Return a copy with a different WPQ size (Fig 15 sweep)."""
        return replace(self, memory=replace(
            self.memory, nvm=replace(self.memory.nvm, wpq_entries=entries)))

    def with_write_bandwidth(self, gbs: float) -> "SystemConfig":
        """Return a copy with a different NVM write bandwidth (Fig 18)."""
        return replace(self, memory=replace(
            self.memory,
            nvm=replace(self.memory.nvm, write_bandwidth_gbs=gbs)))

    def with_backend(self, backend: str) -> "SystemConfig":
        """Return a copy using a different memory backend."""
        if backend not in ("pmem-memory-mode", "pmem-app-direct", "dram-only"):
            raise ValueError(f"unknown backend: {backend!r}")
        return replace(self, memory=replace(self.memory, backend=backend))

    def with_l3(self) -> "SystemConfig":
        """Deeper hierarchy of §7.6: private 1 MB L2 plus shared 16 MB L3."""
        return replace(self, memory=replace(
            self.memory,
            l2=CacheConfig(1 << 20, 16, 14),
            l3=CacheConfig(16 << 20, 16, 44)))


# Core timing fields, in cycles.
_CORE_LATENCIES = ("lat_int_alu", "lat_int_mul", "lat_int_div",
                   "lat_fp_alu", "lat_fp_mul", "lat_fp_div", "lat_branch",
                   "lat_agen", "branch_mispredict_penalty")


def check_latencies(config: SystemConfig) -> None:
    """Raise ``ValueError`` naming the first core or memory latency of
    ``config`` that is not a finite number ``>= 0``; a run would
    otherwise fail deep inside its timing arithmetic."""
    core, memory = config.core, config.memory
    fields = [(f"core.{name}", getattr(core, name))
              for name in _CORE_LATENCIES]
    for level in ("l1i", "l1d", "l2", "l3", "dram_cache"):
        cache = getattr(memory, level)
        if cache is not None:
            fields.append((f"memory.{level}.hit_latency", cache.hit_latency))
    nvm = memory.nvm
    fields += [("memory.nvm.read_latency_ns", nvm.read_latency_ns),
               ("memory.nvm.write_latency_ns", nvm.write_latency_ns),
               ("memory.nvm.persist_path_latency", nvm.persist_path_latency),
               ("memory.dram_only_latency", memory.dram_only_latency)]
    for name, value in fields:
        if not 0 <= value < float("inf"):
            raise ValueError(f"{name} must be a finite latency >= 0, "
                             f"not {value!r}")


def skylake_default() -> SystemConfig:
    """The paper's default configuration (Table 2)."""
    return SystemConfig()
