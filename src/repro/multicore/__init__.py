"""Multi-core simulation for the multithreaded suites (Fig 19, Section 6)."""

from repro.multicore.system import MulticoreStats

__all__ = ["MulticoreStats"]
