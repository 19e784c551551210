"""Sort-based grouping of 1-D integer key arrays.

numpy 2.x's ``np.unique`` hashes its input when asked for the values
alone and pays a generic sort-and-dispatch path otherwise; on the keys
the simulator groups (int64, tens of thousands per layer) one
``np.sort`` plus a neighbour-inequality mask returns the same values
several times faster.  Every grouping on the analytical traffic path
goes through these helpers.

The module also holds the glibc allocator setting that ``import repro``
applies, so that path's multi-MiB array temporaries stay on the heap.
"""

from __future__ import annotations

import ctypes
import sys

import numpy as np

__all__ = [
    "run_starts",
    "sorted_unique",
    "group_sum",
    "keep_large_temporaries_on_heap",
]

# glibc ``mallopt`` parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Largest block glibc serves from the heap instead of a fresh mapping,
#: and the free heap top it keeps instead of trimming.  A design-search
#: evaluation allocates array temporaries of up to several MiB per layer.
_HEAP_BLOCK_MAX = 8 << 20
_HEAP_TRIM = 16 << 20


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


def keep_large_temporaries_on_heap() -> bool:
    """Serve array temporaries of up to 8 MiB from the glibc heap.

    glibc maps a block at or above its mmap threshold (128 KiB at start)
    afresh and unmaps it on free, so each such temporary faults its
    pages in again.  The threshold only rises when a larger mapped block
    is freed, which made the analytical path's speed depend on what the
    process happened to free first: five design-search passes on
    pubmed@0.5 took ~100k minor faults at the default against ~1.8k once
    a multi-MiB block had been freed.  Fixing both thresholds makes that
    state explicit.  Returns whether glibc accepted them; elsewhere it
    does nothing.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _HEAP_BLOCK_MAX)
        and mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM)
    )
