"""Shared benchmark machinery: seeded inputs, statistics, output.

Every workload module builds on the same few pieces: a deterministic RNG
per (workload seed, sub-stream), a :class:`PassResult` per timed pass,
nearest-rank percentiles, a fresh-interpreter import probe for set-up
time, and the final result line whose metric names and units come from
``BENCHMARK.json`` (so code and spec cannot drift apart silently).
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Result caches and per-run scratch, inside the checkout (``.gitignore``
#: at the repository root lists it).
STATE_DIR = ROOT / ".perfbench"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Timed passes per run at least, whatever ``--seconds`` allows.
MIN_PASSES = 3
#: Load generation: one client process with one closed-loop connection
#: (or one thread in process); the box has two cores and the program
#: under test needs the other.
CLIENT_PROCESSES = 1
CLIENT_CONNECTIONS = 1


def rng_for(seed: int, *stream) -> random.Random:
    """Deterministic RNG for one named sub-stream of a workload seed.

    ``random`` hashes string seeds with SHA-512, so the stream is the
    same in every process whatever ``PYTHONHASHSEED`` says.
    """
    return random.Random(":".join(str(part) for part in (seed, *stream)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def spread(values) -> dict:
    """Median, quartiles and sample count, for the run's detail line."""
    values = list(values)
    if not values:
        return {"n": 0}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "p25": q1, "p50": statistics.median(values), "p75": q3}


@dataclass
class PassResult:
    """One timed pass: wall time, work units, failures, op latencies.

    ``latencies_ms`` holds the workload's headline operation (an
    evaluation, a warm hit); ``parts`` splits the pass into ``(class,
    ms)`` pieces whose classes recur in every pass (see
    :func:`composed_rate`), and when ``latencies_ms`` is empty the parts
    are the headline operation (a dataset sub-batch, a calibration
    point; see :func:`headline_latencies`); ``layers`` carries the raw
    layer measurements of a traced pass.  ``scale`` is
    :func:`scale_for` the speed probes taken around and within the pass
    (1.0 for a workload that is not normalized).
    """

    seconds: float
    ops: int
    failed: int = 0
    latencies_ms: list = field(default_factory=list)
    layers: dict | None = None
    parts: list = field(default_factory=list)
    scale: float = 1.0

    @property
    def rate(self) -> float:
        return self.ops / self.seconds

    def at_reference(self) -> "PassResult":
        """This pass with every time scaled to the reference CPU."""
        s = self.scale
        return replace(
            self,
            seconds=self.seconds * s,
            latencies_ms=[ms * s for ms in self.latencies_ms],
            parts=[(cls, ms * s) for cls, ms in self.parts],
            scale=1.0,
        )


#: Speed-probe time (ms) of the reference CPU at which a normalized
#: workload reports its times (see :func:`speed_probe`).
REF_PROBE_MS = 10.0
#: Under host contention the program slows by the probe's slowdown to
#: this power: fitted over 45 runs of design-search, cycle-calibrate and
#: paper-grid on a 2-vCPU VM, where it cut the run-to-run spread of
#: ``ops_per_s`` from 10-35% (measured) to 4-11%; a power of 1 left
#: 8-24%.  perfbench/README.md has the runs.
PROBE_EXPONENT = 0.7
_PROBE_DATA: tuple = ()


def scale_for(probes) -> float:
    """Factor that takes times measured around ``probes`` (ms) to the
    reference CPU."""
    return (REF_PROBE_MS / statistics.median(probes)) ** PROBE_EXPONENT


def speed_probe() -> float:
    """Milliseconds for a fixed slice of interpreter and numpy work.

    On a shared VM, host contention slows whole seconds of a run, and
    sometimes a whole run, by up to 2x, invisibly to the guest (no steal
    time).  The probe is benchmark code, never program code, so a change
    to the program cannot move it; run between a workload's operations,
    it measures how fast the CPU was around them.
    """
    global _PROBE_DATA
    import numpy as np

    if not _PROBE_DATA:
        rng = np.random.default_rng(0)
        _PROBE_DATA = (rng.random(1 << 15), rng.integers(0, 1 << 12, 1 << 15))
    values, keys = _PROBE_DATA
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(25000):
        acc += (i * 2654435761) % 1009
        table[i % 257] = acc
    for _ in range(6):
        np.sort(values)
        np.bincount(keys, weights=values)
        np.cumsum(values)
    return (time.perf_counter() - t0) * 1e3


def composed_pass(passes) -> list:
    """A pass made of median parts, as a list of part times in ms.

    Every pass of a workload with ``parts`` holds the same classes in
    the same numbers (datasets, request kinds, corpus points).  The
    composed pass has each class's count per pass of copies of the
    median of all that class's samples in the run.  A burst of slow CPU
    then moves a few samples of a class, not the median, where a
    per-pass figure of a multi-second pass absorbs the burst whole.
    """
    samples: dict = {}
    for p in passes:
        for cls, ms in p.parts:
            samples.setdefault(cls, []).append(ms)
    medians = {cls: statistics.median(v) for cls, v in samples.items()}
    return [medians[cls] for cls, _ in passes[0].parts]


def composed_rate(passes) -> float:
    """Work units per second of the :func:`composed_pass`; workloads
    without ``parts`` report the median of per-pass rates."""
    passes = list(passes)
    if not passes[0].parts:
        return statistics.median(p.rate for p in passes)
    return passes[0].ops / sum(composed_pass(passes)) * 1e3


def headline_latencies(passes) -> list:
    """The headline operation's latencies (ms) for ``p50_ms``/``p90_ms``.

    When the parts are the headline operation, the latencies are those
    of the :func:`composed_pass`: the classes differ in size (pubmed vs
    cora, a 480-vertex tile vs a 160-vertex one), so a percentile of raw
    samples sits on the gap between two classes and jumps with noise,
    while one of class medians does not.
    """
    passes = list(passes)
    if passes[0].latencies_ms:
        return [ms for p in passes for ms in p.latencies_ms]
    return composed_pass(passes)


class Workload:
    """What ``run.py`` drives; workload modules override the hooks.

    ``setup`` is timed (``SETUP_REPS`` times, ``discard`` between), then
    ``warm_up`` runs untimed, then ``run_pass`` until the run's time is
    spent; ``run_pass`` calls :meth:`probe` between its operations.  ``accuracy`` returns ``(paper_gap_pts, drain_err_pct,
    repeated)``, where ``repeated`` maps each deterministic metric the
    workload computed itself, pass after pass, to whether every pass gave
    the same value (a metric read from the ledger has no entry: a cache
    read repeats by construction); ``layer_metrics`` turns merged
    traced-pass raws into the per-layer metrics.
    """

    op = "operation"
    #: Report times at the reference CPU speed.  A workload whose time is
    #: mostly waiting rather than computing (serve-mixed's batch window)
    #: turns this off: scaling a timer by CPU speed would distort it.
    normalized = True
    #: Speed probes taken inside the current pass (see :meth:`probe`).
    pass_probes: list

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def probe(self) -> None:
        """Take a speed probe between two operations of a pass, untimed."""
        if self.normalized:
            self.pass_probes.append(speed_probe())

    def setup(self) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        pass

    def warm_up(self, trace: bool) -> None:
        self.run_pass(-1, traced=False)

    def run_pass(self, index: int, traced: bool) -> PassResult:
        raise NotImplementedError

    def accuracy(self) -> tuple:
        raise NotImplementedError

    def peak_rss(self) -> float:
        return peak_rss_mb()

    def layer_metrics(self, raw: dict) -> dict:
        raise NotImplementedError

    def detail(self) -> dict:
        """Workload-specific facts for the run's detail line."""
        return {}

    def close(self) -> None:
        pass


def child_env() -> dict:
    """Environment for program subprocesses: ``src`` on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def import_probe(modules) -> None:
    """Import ``modules`` in a fresh interpreter.

    This is the import cost a user pays before the first job; timing it
    in a child keeps it out of reach of this process's warm module table,
    so every set-up repetition pays it in full.
    """
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=child_env(),
        cwd=ROOT,
        check=True,
    )


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set of this process (or of its waited-for children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as fh:
        return json.load(fh)


def result_line(
    *, correct: bool, attempted: int, failed: int, metrics: dict, section: str
) -> str:
    """The final stdout line; units come from the spec's ``section``.

    Refuses to print when the emitted names differ from the spec, so a
    metric added to one side only fails the run instead of vanishing.
    """
    units = {entry["name"]: entry["unit"] for entry in load_spec()[section]}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {section}: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]}
                for name in sorted(metrics)
            },
        }
    )
