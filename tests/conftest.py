"""Shared fixtures: small graphs and configurations for fast tests."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.config import AcceleratorConfig, small_config
from repro.graphs import (
    CSRGraph,
    from_edge_list,
    power_law_graph,
    star_graph,
)


@pytest.fixture
def tiny_graph() -> CSRGraph:
    """5 vertices, hand-checkable adjacency.

    0 -> 1, 2;  1 -> 2;  2 -> 0;  3 -> 4;  4 -> (none)
    """
    return from_edge_list(
        5,
        [(0, 1), (0, 2), (1, 2), (2, 0), (3, 4)],
        num_features=4,
        name="tiny",
    )


@pytest.fixture
def hub_graph() -> CSRGraph:
    """Star with 12 leaves: one extreme hub (vertex 0)."""
    return star_graph(12, num_features=8)


@pytest.fixture
def medium_graph() -> CSRGraph:
    """Deterministic power-law graph, ~200 vertices."""
    return power_law_graph(
        200, 900, exponent=2.1, locality=0.5, num_features=32, seed=3
    )


@pytest.fixture
def cfg8() -> AcceleratorConfig:
    """8×8 array config for fast cycle-tier tests."""
    return small_config(8)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@contextmanager
def _time_limit(seconds: float):
    """Fail with ``TimeoutError`` if the block runs longer than ``seconds``."""

    def _expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def time_limit():
    """``with time_limit(s):`` turns a hang into a ``TimeoutError``."""
    return _time_limit
