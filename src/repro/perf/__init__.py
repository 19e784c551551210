"""Perf instrumentation for the analytical tier.

* :mod:`.instrumentation` — the process-global :data:`~.instrumentation.PERF`
  registry of stage timers and cache counters;
* :mod:`.bench` — :func:`~.bench.clear_hot_path_caches`, which empties
  every memo layer before a cold measurement.

The benchmark itself lives outside the package, in ``perfbench/``.
"""

from .instrumentation import PERF, PerfRegistry, StageStat

__all__ = ["PERF", "PerfRegistry", "StageStat"]
