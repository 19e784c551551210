"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs import (
    chain_graph,
    complete_graph,
    grid_graph,
    power_law_graph,
    rmat_graph,
    star_graph,
    uniform_random_graph,
)


def _hub_cap(n, m):
    return max(16, int(3.5 * np.sqrt(n)), -(-m // n))


# (n, m, kwargs, seed, content_key), recorded before the per-vertex
# ``rng.choice(p=...)`` was replaced by one CDF: the generator must keep
# drawing the same random stream.  ``(16, 200, locality=0.6)`` takes the
# ``d >= n`` branch 20 times and the top-up loop 58 times over seeds 0-4.
_PINNED_CALLS = [
    (16, 200, {"locality": 0.6}, 0, "d02109c5c09cd8d5e7c8e85bcb010f14"),
    (16, 200, {"locality": 0.6}, 1, "10ae0972e808a2aa64c9d31229468dde"),
    (16, 200, {"locality": 0.6}, 2, "39e2aafaf42175ae7a0773c1ef016665"),
    (16, 200, {"locality": 0.6}, 3, "b65a7716d699ad7f5dd7e401bcba1802"),
    (16, 200, {"locality": 0.6}, 4, "d0a95d9adc91ffba30d317df402d154b"),
    (50, 1200, {"exponent": 1.5}, 3, "868ccc94172d79b0330ab58bb6163da4"),
    (30, 400, {"exponent": 3.0, "locality": 0.9}, 3, "dca3813341c782162510a3baafa54920"),
    (300, 1500, {"locality": 0.3, "locality_window": 5}, 3, "9347b3b56128039c4bfededb57cfe887"),
    (1, 1, {}, 3, "65314057fe5480ec2e1ce129accef3d9"),
    (20, 0, {}, 3, "5b90cb3b2a8b244c7761eef917e94d40"),
]


class TestPowerLaw:
    def test_exact_edge_count(self):
        g = power_law_graph(100, 450, seed=1)
        assert g.num_edges == 450

    def test_exact_vertex_count(self):
        g = power_law_graph(77, 300, seed=1)
        assert g.num_vertices == 77

    def test_deterministic(self):
        a = power_law_graph(60, 240, seed=5)
        b = power_law_graph(60, 240, seed=5)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_seed_changes_graph(self):
        a = power_law_graph(60, 240, seed=5)
        b = power_law_graph(60, 240, seed=6)
        assert not np.array_equal(a.indices, b.indices)

    def test_degree_cap(self):
        g = power_law_graph(400, 4000, exponent=1.6, seed=2)
        cap = max(16, int(3.5 * np.sqrt(400)))
        assert g.degrees.max() <= cap

    def test_heavy_tail(self):
        g = power_law_graph(500, 2500, exponent=2.0, seed=3)
        assert g.degrees.max() > 4 * g.degrees.mean()

    def test_no_duplicate_neighbors(self):
        g = power_law_graph(80, 600, seed=4)
        for v in range(80):
            nbrs = g.neighbors(v)
            assert len(np.unique(nbrs)) == nbrs.size

    def test_locality_increases_near_edges(self):
        near_frac = []
        for loc in (0.0, 0.8):
            g = power_law_graph(
                500, 2500, locality=loc, locality_window=20, seed=7
            )
            src = np.repeat(np.arange(500), g.degrees)
            near_frac.append((np.abs(src - g.indices) <= 20).mean())
        assert near_frac[1] > near_frac[0] + 0.3

    def test_invalid_locality(self):
        with pytest.raises(ValueError, match="locality"):
            power_law_graph(10, 20, locality=1.0)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            power_law_graph(10, 20, exponent=1.0)

    def test_invalid_edge_budget(self):
        with pytest.raises(ValueError, match="budget"):
            power_law_graph(3, 100)

    def test_attributes_forwarded(self):
        g = power_law_graph(
            20, 40, num_features=7, feature_density=0.5, edge_feature_dim=3, seed=0
        )
        assert g.num_features == 7
        assert g.feature_density == 0.5
        assert g.edge_feature_dim == 3

    @pytest.mark.parametrize("n,m,kwargs,seed,key", _PINNED_CALLS)
    def test_pinned_content_key(self, n, m, kwargs, seed, key):
        assert power_law_graph(n, m, seed=seed, **kwargs).content_key == key

    def test_sparse_budget_on_a_heavy_tail_finishes(self, time_limit):
        """One vertex holds almost all of the destination CDF here, so
        the preferential top-up could not find a second distinct
        neighbour and looped ~594k times (seconds).  The top-up is
        bounded and the rest is filled from the vertices not yet chosen."""
        with time_limit(1.0):
            g = power_law_graph(40, 5, exponent=1.5, locality=0.0, seed=40)
        assert g.num_edges == 5
        for v in range(g.num_vertices):
            row = g.neighbors(v)
            assert np.all(row[1:] > row[:-1])


@st.composite
def _power_law_args(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    m = draw(st.integers(min_value=0, max_value=n * n))
    exponent = draw(st.floats(min_value=1.5, max_value=3.0))
    locality = draw(st.floats(min_value=0.0, max_value=0.95))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, m, exponent, locality, seed


class TestPowerLawProperties:
    @given(args=_power_law_args())
    @example(args=(16, 200, 2.1, 0.6, 0))
    @example(args=(116, 5803, 1.9, 0.35, 7))
    @example(args=(186, 9286, 1.9, 0.35, 7))
    @example(args=(50, 2500, 1.5, 0.0, 3))
    @example(args=(120, 120 * 120, 2.0, 0.0, 1))
    @example(args=(40, 5, 1.5, 0.0, 40))
    @settings(max_examples=60, deadline=None)
    def test_valid_csr_with_exact_budget(self, args, time_limit):
        # The (116, 5803) and (186, 9286) examples are reddit at scales
        # 0.0005 and 0.0008, where n·3.5·sqrt(n) < m.
        n, m, exponent, locality, seed = args
        with time_limit(10):
            g = power_law_graph(n, m, exponent=exponent, locality=locality, seed=seed)
        assert g.num_vertices == n
        assert g.num_edges == m
        assert g.indices.size == m
        if m:
            assert g.indices.min() >= 0
            assert g.indices.max() < n
        for v in range(n):
            row = g.neighbors(v)
            assert np.all(row[1:] > row[:-1])  # sorted, no duplicates
        assert g.degrees.max(initial=0) <= _hub_cap(n, m)


class TestRMAT:
    def test_vertex_count(self):
        g = rmat_graph(6, 4, seed=1)
        assert g.num_vertices == 64

    def test_edges_not_exceeding_budget(self):
        g = rmat_graph(6, 4, seed=1)
        assert 0 < g.num_edges <= 4 * 64

    def test_deterministic(self):
        a = rmat_graph(5, 8, seed=2)
        b = rmat_graph(5, 8, seed=2)
        assert np.array_equal(a.indices, b.indices)

    def test_skewed(self):
        g = rmat_graph(9, 16, seed=3)
        assert g.degrees.max() > 3 * max(g.degrees.mean(), 1)

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="scale"):
            rmat_graph(0)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError, match="probabilities"):
            rmat_graph(4, a=0.9, b=0.4, c=0.2)


class TestUniform:
    def test_exact_edges(self):
        g = uniform_random_graph(50, 300, seed=1)
        assert g.num_edges == 300

    def test_no_duplicate_edges(self):
        g = uniform_random_graph(30, 200, seed=2)
        arr = g.edge_array()
        assert np.unique(arr, axis=0).shape[0] == arr.shape[0]

    def test_low_skew(self):
        g = uniform_random_graph(400, 4000, seed=3)
        assert g.degrees.max() < 4 * g.degrees.mean()


class TestStructured:
    def test_grid_edge_count(self):
        g = grid_graph(3, 4)
        # 2*(rows*(cols-1) + (rows-1)*cols) directed edges.
        assert g.num_edges == 2 * (3 * 3 + 2 * 4)

    def test_grid_corner_degree(self):
        g = grid_graph(3, 3)
        assert g.degree(0) == 2  # corner has two neighbors

    def test_star_shape(self):
        g = star_graph(5)
        assert g.num_vertices == 6
        assert g.degree(0) == 5
        assert g.in_degrees[0] == 5

    def test_chain(self):
        g = chain_graph(4)
        assert g.num_edges == 3
        assert g.neighbors(0).tolist() == [1]
        assert g.degree(3) == 0

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 20
        assert np.all(g.degrees == 4)

    @pytest.mark.parametrize("fn", [grid_graph, star_graph, chain_graph])
    def test_invalid_sizes(self, fn):
        with pytest.raises(ValueError):
            if fn is grid_graph:
                fn(0, 3)
            else:
                fn(0)
