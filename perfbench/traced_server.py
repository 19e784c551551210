"""``repro serve`` with the benchmark's layer spans installed.

Used by serve-mixed's traced run only: the wrappers in
``perfbench.layers.BENCH_SPANS`` add ``graphs.*`` and
``baselines.simulate`` spans to the server's ``/trace`` without any
instrumentation inside ``src/``.  Arguments are those of ``repro serve``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import install_benchmark_spans  # noqa: E402
from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    install_benchmark_spans()
    sys.exit(main(["serve", *sys.argv[1:]]))
