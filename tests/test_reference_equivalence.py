"""The tuned per-graph hot paths against their straightforward forms.

``power_law_graph`` builds short rows from Python ints and the partition
scan scores candidates from narrow per-slot tables; both must stay
bit-identical to the ndarray forms kept in ``tests/reference_impls.py``.
The graph generator's random stream is pinned by every dataset's
``content_key``, so equal graphs also mean the same Generator calls ran
with the same sizes in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.simulator import (
    _SAMPLE_STATS,
    AuroraSimulator,
    _placement_scores,
    clear_partition_sample_cache,
)
from repro.graphs.delta import apply_delta, rewire_delta
from repro.graphs.generators import _LIST_ROW_MAX, power_law_graph
from repro.perf import PERF

from .reference_impls import (
    reference_full_scores,
    reference_incremental_scores,
    reference_power_law_graph,
)

#: Generator inputs that between them take every branch of the row loop
#: (checked by ``test_examples_cover_every_row_branch``).
BRANCH_EXAMPLES = [
    # Rows on both sides of the size split, preferential top-up rounds
    # and the uniform fill on both sides, ``locality=0``.
    dict(num_vertices=72, num_edges=211, exponent=1.19, locality=0.0, seed=868),
    # ``d >= n`` rows; local windows wrapping at both ends of the ids.
    dict(num_vertices=16, num_edges=200, exponent=2.0, locality=0.5, seed=5),
    # A window wider than the graph.
    dict(
        num_vertices=40,
        num_edges=300,
        exponent=2.1,
        locality=0.9,
        locality_window=50,
        seed=11,
    ),
]


def _assert_same_graph(kwargs):
    got = power_law_graph(**kwargs)
    want = reference_power_law_graph(**kwargs)
    assert got.content_key == want.content_key
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.indices.dtype == want.indices.dtype


@st.composite
def generator_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    m = draw(st.integers(min_value=0, max_value=n * min(n, 40)))
    return dict(
        num_vertices=n,
        num_edges=m,
        exponent=draw(st.floats(min_value=1.05, max_value=3.0)),
        locality=draw(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.95))
        ),
        locality_window=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=n + 8))
        ),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


class TestPowerLawRows:
    @given(generator_inputs())
    @settings(max_examples=120, deadline=None)
    @example(BRANCH_EXAMPLES[0])
    @example(BRANCH_EXAMPLES[1])
    @example(BRANCH_EXAMPLES[2])
    def test_matches_reference(self, kwargs):
        _assert_same_graph(kwargs)

    @pytest.mark.parametrize(
        "name,scale", [("cora", 0.3), ("reddit", 0.002), ("nell", 0.02)]
    )
    def test_registry_profiles_match_reference(self, name, scale):
        from repro.graphs.datasets import _synthesise, dataset_profile

        prof = dataset_profile(name)
        graph = _synthesise(prof, scale, 7)
        n, m = graph.num_vertices, graph.num_edges
        want = reference_power_law_graph(
            n,
            m,
            exponent=prof.degree_exponent,
            locality=prof.locality,
            num_features=prof.num_features,
            feature_density=prof.feature_density,
            seed=7,
            name=graph.name,
        )
        assert graph.content_key == want.content_key

    def test_examples_cover_every_row_branch(self, monkeypatch):
        """``BRANCH_EXAMPLES`` reach every branch, read off the calls
        each row makes: a row opens with its ``integers`` draw, top-up
        rounds are ``random(2 * d)`` draws after its two shuffles, and
        the uniform fill is a ``choice``."""
        seen = set()
        for kwargs in BRANCH_EXAMPLES:
            log = []
            real = np.random.default_rng

            def recording(seed, log=log):
                return _RecordingRng(real(seed), log)

            monkeypatch.setattr(np.random, "default_rng", recording)
            graph = power_law_graph(**kwargs)
            monkeypatch.setattr(np.random, "default_rng", real)
            for d, top_ups, filled in _rows(log):
                side = "list" if d <= _LIST_ROW_MAX else "array"
                seen.add(side)
                if top_ups:
                    seen.add(f"{side} top-up")
                if filled:
                    seen.add(f"{side} fill")
            n = graph.num_vertices
            degrees = np.diff(graph.indptr)
            if (degrees >= n).any():
                seen.add("d >= n")
            if kwargs["locality"] == 0.0:
                seen.add("locality=0")
            elif 0 < degrees[0] < n and 0 < degrees[-1] < n:
                seen.add("wrap at both ends")
        assert seen == {
            "list",
            "array",
            "list top-up",
            "array top-up",
            "list fill",
            "array fill",
            "d >= n",
            "locality=0",
            "wrap at both ends",
        }


class _RecordingRng:
    """Forwards to a Generator, logging ``(method, size)`` of the row
    loop's draws."""

    _SIZE_ARG = {"integers": 2, "random": 0, "choice": 1}

    def __init__(self, rng, log):
        self._rng = rng
        self._log = log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            if name == "shuffle":
                self._log.append((name, len(args[0])))
            elif name in self._SIZE_ARG:
                pos = self._SIZE_ARG[name]
                size = kwargs.get("size", args[pos] if len(args) > pos else None)
                self._log.append((name, size))
            return method(*args, **kwargs)

        return call


def _rows(log):
    """``(degree, top-up rounds, filled)`` of each drawn row."""
    first = next((i for i, (name, _) in enumerate(log) if name == "integers"), None)
    if first is None:
        return []
    rows, calls = [], []
    for name, size in log[first:] + [("integers", None)]:
        if name == "integers" and calls:
            # integers, random, shuffle(local), shuffle(glob), then
            # top-up randoms, an optional choice, shuffle(nbrs).
            top_ups = [s for kind, s in calls[4:] if kind == "random"]
            filled = any(kind == "choice" for kind, _ in calls)
            d = top_ups[0] // 2 if top_ups else calls[-1][1]
            rows.append((d, len(top_ups), filled))
            calls = []
        calls.append((name, size))
    return rows


@st.composite
def vertex_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5000))
    size = draw(st.integers(min_value=0, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    src = np.sort(rng.integers(0, n, size=size))
    dst = rng.integers(0, n, size=size)
    return src, dst, n


class TestPlacementScores:
    @given(vertex_pairs(), st.integers(min_value=2, max_value=33))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, pairs, k):
        src, dst, n = pairs
        got = _placement_scores(src, dst, k, n)
        want = reference_full_scores(src, dst, k, n)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)

    @given(
        n=st.integers(min_value=16, max_value=400),
        mean_degree=st.integers(min_value=1, max_value=12),
        k=st.sampled_from([2, 4, 8, 16, 32]),
        rows=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_full_and_incremental_scan_match_reference(
        self, n, mean_degree, k, rows, seed
    ):
        """The simulator's cached sums, from a full scan and from the
        incremental scan after a ``rewire_delta``."""
        clear_partition_sample_cache()
        sim = AuroraSimulator()
        graph = power_law_graph(n, n * mean_degree, locality=0.5, seed=seed)
        src, dst = sim._sampled_edge_ids(graph)
        sim._placement_sample_stats(graph, k)
        parent = _SAMPLE_STATS[(graph.content_key, k)]
        want = reference_full_scores(src, dst, k, n)
        assert np.array_equal(parent["rcount"], want[0])
        assert np.array_equal(parent["hsum"], want[1])

        nonempty = np.flatnonzero(np.diff(graph.indptr))
        picks = nonempty[np.asarray(rows) % nonempty.size]
        child = apply_delta(graph, rewire_delta(graph, picks, seed=seed))
        assume(child is not graph)  # every picked row was already full
        src, child_dst = sim._sampled_edge_ids(child)
        before = PERF.snapshot()["counters"].get("partition.sample_incremental", 0)
        sim._placement_sample_stats(child, k)
        after = PERF.snapshot()["counters"].get("partition.sample_incremental", 0)
        assert after == before + 1
        entry = _SAMPLE_STATS[(child.content_key, k)]
        want = reference_incremental_scores(
            parent["rcount"], parent["hsum"], src, parent["dst"], child_dst, k, n
        )
        assert np.array_equal(entry["rcount"], want[0])
        assert np.array_equal(entry["hsum"], want[1])
        full = reference_full_scores(src, child_dst, k, n)
        assert np.array_equal(entry["rcount"], full[0])
        assert np.array_equal(entry["hsum"], full[1])
        clear_partition_sample_cache()


def test_list_and_array_shuffle_draw_the_same_stream():
    """The row loop shuffles Python lists where the reference shuffled
    int64 arrays; both must permute alike and leave the stream at the
    same point."""
    for length in (0, 1, 2, 5, 13, 64):
        as_list = list(range(100, 100 + length))
        as_array = np.arange(100, 100 + length, dtype=np.int64)
        a = np.random.default_rng(length)
        b = np.random.default_rng(length)
        a.shuffle(as_list)
        b.shuffle(as_array)
        assert as_list == as_array.tolist()
        assert a.integers(0, 2**62) == b.integers(0, 2**62)

