#!/usr/bin/env python3
"""Whole-system persistence for a multithreaded memcached-style server.

Runs the WHISPER memcached profiles (r20w80: write-heavy, r50w50: mixed)
across 8 threads on the multicore system, comparing the baseline (memory
mode, no persistence) against PPA — then scales the thread count the way
the paper's Figure 19 does.

Per Section 6, PPA treats every synchronization primitive as a region
boundary, so each core's CSQ drains before a lock/barrier releases and
per-core recovery composes without cross-core ordering.

Run:  python examples/multicore_memcached.py
"""

import repro

LENGTH = 4_000


def compare(app: str, threads: int):
    """(baseline, ppa) MulticoreStats of one app at one thread count."""
    return tuple(repro.simulate(app, scheme=scheme, core="multicore",
                                threads=threads, length=LENGTH).stats
                 for scheme in ("baseline", "ppa"))


def main() -> None:
    print("memcached under whole-system persistence (8 threads)\n")
    for app in ("r20w80", "r50w50"):
        base, ppa = compare(app, threads=8)
        ratio = ppa.makespan / base.makespan
        stores = sum(len(s.stores) for s in ppa.per_thread)
        sync_regions = sum(
            sum(1 for r in s.regions if r.cause == "sync")
            for s in ppa.per_thread)
        print(f"{app}: {100 * (ratio - 1):5.1f}% overhead  "
              f"({stores} stores persisted, "
              f"{sync_regions} sync-forced region boundaries, "
              f"{ppa.nvm_line_writes} NVM line writes)")

    print("\nthread scaling (r20w80), paper Fig 19 reports 2-6% means:")
    for threads in (8, 16, 32):
        base, ppa = compare("r20w80", threads)
        ratio = ppa.makespan / base.makespan
        print(f"  {threads:2d} threads: {100 * (ratio - 1):5.1f}% overhead"
              f"  (barrier segments: {ppa.barrier_segments})")

    print("\nno recompilation, no source changes, no pmalloc — the "
          "server's writes are crash-consistent as-is.")


if __name__ == "__main__":
    main()
