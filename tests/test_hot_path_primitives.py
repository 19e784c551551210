"""The analytical traffic path groups by sorting, never by hashing or
unbuffered scatter.

Each function below runs once per layer or per tile of every
evaluation.  On numpy 2.x, ``np.unique`` (hash-based for plain values,
a generic dispatch path with ``return_index``) and ``np.add.at`` /
``np.subtract.at`` measured several times slower there than
``np.sort`` plus a neighbour mask, ``argsort`` + ``np.add.reduceat``
and weighted ``np.bincount`` (docs/performance.md).  This parses each
function's source and fails if one of those primitives comes back.

The multicast kernel sorts once per layer: its dedup sort already
groups the deliveries by (tile, src PE, dst PE), so a second sort
(``argsort``, ``lexsort`` or the argsort inside ``group_sum``) is
banned there too.
"""

import ast
import inspect
import platform
import textwrap

import pytest

from repro import arrays
from repro.arch.noc import routing
from repro.arch.noc.analytical import AnalyticalNoCModel, TrafficMatrix
from repro.mapping import traffic
from repro.partition import algorithm

HOT_PATH = {
    "mapping.traffic._batched_multicast_flows": traffic._batched_multicast_flows,
    "mapping.traffic.aggregate_flows": traffic.aggregate_flows,
    "TrafficMatrix.from_flows": TrafficMatrix.from_flows,
    "AnalyticalNoCModel._link_loads": AnalyticalNoCModel._link_loads,
    "arch.noc.routing.bypass_choice": routing.bypass_choice,
    "partition.algorithm.partition": algorithm.partition,
    "partition.algorithm._t_a": algorithm._t_a,
    "partition.algorithm._t_b": algorithm._t_b,
    "arrays.run_starts": arrays.run_starts,
    "arrays.sorted_unique": arrays.sorted_unique,
    "arrays.group_sum": arrays.group_sum,
}

BANNED = {
    f"{mod}.{name}"
    for mod in ("np", "numpy")
    for name in ("unique", "add.at", "subtract.at")
}

SECOND_SORTS = {"argsort", "lexsort", "group_sum"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def banned_uses(source: str) -> set:
    """Banned primitives referenced anywhere in ``source``."""
    tree = ast.parse(textwrap.dedent(source))
    return {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (name := _dotted(node)) in BANNED
    }


def second_sorts(source: str) -> set:
    """Sorting primitives other than the one dedup sort, as a function
    (``np.argsort``), a method (``keys.argsort()``) or a helper name."""
    tree = ast.parse(textwrap.dedent(source))
    return {
        name
        for node in ast.walk(tree)
        if (name := getattr(node, "attr", getattr(node, "id", None)))
        in SECOND_SORTS
    }


@pytest.mark.parametrize("name", sorted(HOT_PATH))
def test_hot_path_avoids_slow_primitives(name):
    assert banned_uses(inspect.getsource(HOT_PATH[name])) == set()


def test_detector_sees_each_banned_primitive():
    source = """
    def f(a, b, i, w):
        u, first = np.unique(a, return_index=True)
        np.add.at(b, i, w)
        numpy.subtract.at(b, i, w)
        g = np.unique
    """
    assert banned_uses(source) == {
        "np.unique",
        "np.add.at",
        "numpy.subtract.at",
    }


def test_multicast_kernel_sorts_once():
    source = inspect.getsource(traffic._batched_multicast_flows)
    assert second_sorts(source) == set()
    assert source.count("sorted_unique(") == 1


def test_detector_sees_each_second_sort():
    source = """
    def f(a, k, v):
        order = np.argsort(a)
        a.argsort(kind="stable")
        numpy.lexsort((a, k))
        keys, sums = group_sum(k, v)
        b = sorted_unique(a)
    """
    assert second_sorts(source) == {"argsort", "lexsort", "group_sum"}


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="sets glibc allocator thresholds"
)
def test_glibc_takes_the_heap_thresholds():
    """``import repro`` keeps multi-MiB array temporaries on the heap;
    glibc's ``mallopt`` must accept both thresholds."""
    assert arrays.keep_large_temporaries_on_heap()
