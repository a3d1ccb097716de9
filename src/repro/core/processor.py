"""The public facade: a persistent processor you can run, crash, and recover.

:class:`PersistentProcessor` wires a :class:`repro.pipeline.core.OoOCore`
to the PPA policy and the JIT-checkpointing controller, and exposes the
whole-system-persistence life cycle:

>>> proc = PersistentProcessor()
>>> stats = proc.run(trace)
>>> crash = proc.crash_at(stats.cycles * 0.5)      # power fails mid-run
>>> result = proc.recover(crash)                    # power returns
>>> result.resume_pc                                # continue after LCPC
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, skylake_default
from repro.core.checkpoint import CheckpointImage, JitCheckpointController
from repro.core.recovery import RecoveryResult, recover as run_recovery
from repro.failure.injector import PowerFailureInjector
from repro.isa.instructions import RegClass
from repro.isa.trace import Trace
from repro.persistence.ppa import PpaPolicy
from repro.pipeline.core import OoOCore
from repro.pipeline.stats import CoreStats


@dataclass
class CrashState:
    """Everything that survives a power failure at ``fail_time``."""

    fail_time: float
    nvm_image: dict[int, int]
    checkpoint: CheckpointImage
    last_committed_seq: int


class PersistentProcessor:
    """A PPA-equipped core with checkpoint/recovery support."""

    def __init__(self, config: SystemConfig | None = None,
                 enforce_store_integrity: bool = True,
                 memory=None) -> None:
        self.config = config if config is not None else skylake_default()
        self.policy = PpaPolicy(
            enforce_store_integrity=enforce_store_integrity)
        # ``memory`` lets callers inject a prepared MemorySystem (e.g. one
        # cloned from a prewarmed template); None builds a cold one.
        self.core = OoOCore(self.config, self.policy, memory=memory,
                            track_values=True)
        # One tracer (or None) spans the whole life cycle: run, JIT
        # checkpoint, and recovery all land on the same timeline.
        self.tracer = self.core.tracer
        self.controller = JitCheckpointController(self.config,
                                                  tracer=self.tracer)
        self.stats: CoreStats | None = None
        self._injector: PowerFailureInjector | None = None
        self._trace: Trace | None = None

    def run(self, trace: Trace) -> CoreStats:
        """Simulate the trace to completion under PPA."""
        self._trace = trace
        self.stats = self.core.run(trace)
        self._injector = PowerFailureInjector(self.stats, self.core.wb.log)
        return self.stats

    @property
    def injector(self) -> PowerFailureInjector:
        if self._injector is None:
            raise RuntimeError("run a trace before injecting failures")
        return self._injector

    def crash_at(self, fail_time: float) -> CrashState:
        """Cut power at ``fail_time``: volatile state vanishes, the JIT
        controller checkpoints PPA's five structures."""
        injector = self.injector
        csq = injector.csq_at(fail_time)
        last_seq = injector.last_committed_seq(fail_time)
        lcpc = self._trace.decoded().pcs[last_seq] if last_seq >= 0 else 0
        image = self.controller.checkpoint(
            fail_time=fail_time,
            lcpc=lcpc,
            csq_entries=csq,
            rf_int=self.core.rf[RegClass.INT],
            rf_fp=self.core.rf[RegClass.FP],
        )
        return CrashState(
            fail_time=fail_time,
            nvm_image=injector.nvm_image_at(fail_time),
            checkpoint=image,
            last_committed_seq=last_seq,
        )

    def recover(self, crash: CrashState) -> RecoveryResult:
        """Power is back: restore, replay the CSQ, resume after LCPC."""
        return run_recovery(crash.checkpoint, crash.nvm_image,
                            tracer=self.tracer)
