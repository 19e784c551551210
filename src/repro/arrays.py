"""Sort-based grouping of 1-D integer key arrays.

numpy 2.x's ``np.unique`` hashes its input when asked for the values
alone and pays a generic sort-and-dispatch path otherwise; on the keys
the simulator groups (int64, tens of thousands per layer) one
``np.sort`` plus a neighbour-inequality mask returns the same values
several times faster.  Every grouping on the analytical traffic path
goes through these helpers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_starts", "sorted_unique", "group_sum"]


def _first_of_run(sorted_keys: np.ndarray) -> np.ndarray:
    new = np.empty(sorted_keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    return new


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    return np.flatnonzero(_first_of_run(sorted_keys))


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array the caller owns (sorted in place)."""
    a.sort()
    return a[_first_of_run(a)]


def group_sum(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(unique keys ascending, sum of values per key)`` for parallel
    1-D arrays."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = run_starts(keys)
    return keys[starts], np.add.reduceat(values[order], starts)
