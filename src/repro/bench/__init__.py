"""Looking at the simulator as software.

* :mod:`repro.bench.profile` — cProfile hot-path attribution of one
  default :func:`repro.simulate` call, folded into per-component tables
  (WriteBuffer / NvmModel / MemScript / Kernel / ...), plus
  telemetry-metric attribution via :class:`MetricsRegistry`;
* :mod:`repro.bench.fidelity` — score reproduced paper trends against the
  claims recorded in EXPERIMENTS.md, so perf work can't silently bend
  model outputs.

Speed is measured by ``perfbench/run.py`` (the three user paths, host
calibrated, with digest pins); exact model counts are pinned by
``tests/test_golden_counts.py``.

Nothing in the simulator imports this package: ``import repro`` and an
untraced :func:`repro.simulate` must never pull in ``repro.bench`` (the
zero-overhead guard in ``tests/test_bench.py`` enforces it, like the
tracer guard). Use ``python -m repro.bench`` or import it explicitly.
"""
