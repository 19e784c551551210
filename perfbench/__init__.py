"""Canonical benchmark of the Aurora reproduction (see perfbench/README.md).

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0
"""
