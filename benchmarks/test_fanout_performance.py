"""Intra-job fan-out bench: event engine + tile sharding vs reference.

The fan-out path runs the batched event engine and fans a job's
independent tiles out over worker processes; the contract is a >=5x
*cold single-request* speedup on the multi-tile pubmed job (the
BENCH_7.json workload) while every path — serial, sharded, either
engine — stays bit-identical to the retained reference.  This module
is the CI guard on that contract.

Like the cycle-tier gate, the speedup assert is a ratio of two runs on
the same machine, relaxed by ``$REPRO_BENCH_SLACK`` against runner
jitter.  ``repro bench --tier fanout`` / ``BENCH_7.json`` is the
instrument for real numbers.
"""

import os

from repro.perf.bench import FANOUT_BENCHES, _run_fanout_case

#: Multiplier on every bound; CI sets e.g. REPRO_BENCH_SLACK=4.
SLACK = float(os.environ.get("REPRO_BENCH_SLACK", "1.0"))

#: Locked contract from BENCH_7: cold event+sharded request vs one cold
#: reference run of the same job.  BENCH_7 measured the serial event
#: path alone at 6.1x; sharding adds more on multicore machines.
MIN_SPEEDUP = 5.0


def test_fanout_speedup_vs_reference():
    """One bench pass (reference + serial + fan-out + warm repeat) with
    per-tile identity checks built into ``_run_fanout_case`` — a
    diverging tile raises before any timing assert can pass."""
    bench = _run_fanout_case(FANOUT_BENCHES[0], repeat=1)
    assert bench["speedup_vs_reference"] >= MIN_SPEEDUP / SLACK
    # Absolute sanity: the job must be the heavy multi-tile standard one.
    assert bench["num_tiles"] >= 2
    assert bench["packets"] > 10_000
    assert bench["noc_cycles"] > 50_000
