"""Tests for the partition algorithm (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.graphs import from_edge_list, power_law_graph
from repro.models import LayerDims, extract_workload, get_model
from repro.partition import PartitionStrategy, partition, split_regions

CFG = default_config()
FLOPS = CFG.flops_per_pe_per_cycle * CFG.frequency_hz


@pytest.fixture
def graph():
    return power_law_graph(300, 1500, num_features=64, seed=1)


class TestPartition:
    def test_full_model_splits(self, graph):
        wl = extract_workload(get_model("gcn"), graph, LayerDims(64, 32))
        s = partition(wl, CFG.num_pes, FLOPS)
        assert s.a + s.b == CFG.num_pes
        assert s.a >= 1 and s.b >= 1
        assert not s.single_accelerator

    def test_balance_minimised(self, graph):
        """No neighbouring split should balance better than the chosen one."""
        wl = extract_workload(get_model("gcn"), graph, LayerDims(64, 32))
        s = partition(wl, CFG.num_pes, FLOPS)
        from repro.partition.algorithm import _t_a, _t_b

        chosen = abs(
            _t_a(wl, s.a, FLOPS) - _t_b(wl, CFG.num_pes - s.a, FLOPS)
        )
        for a in (s.a - 1, s.a + 1):
            if 1 <= a < CFG.num_pes:
                other = abs(
                    _t_a(wl, a, FLOPS) - _t_b(wl, CFG.num_pes - a, FLOPS)
                )
                assert chosen <= other + 1e-12

    def test_no_vertex_update_single_accelerator(self, graph):
        """EdgeConv has no vertex update: only one accelerator is formed."""
        wl = extract_workload(get_model("edgeconv-1"), graph, LayerDims(64, 32))
        s = partition(wl, CFG.num_pes, FLOPS)
        assert s.single_accelerator
        assert s.a == CFG.num_pes
        assert s.b == 0
        assert s.t_b_seconds == 0.0

    def test_no_edge_update_acomp1_zero(self, graph):
        """GIN starts at aggregation; AComp1 contributes nothing."""
        wl = extract_workload(get_model("gin"), graph, LayerDims(64, 32))
        assert wl.O_ue == 0
        s = partition(wl, CFG.num_pes, FLOPS)
        assert s.a >= 1  # aggregation still needs resources

    def test_heavier_vertex_update_gets_more_pes(self, graph):
        wl_small = extract_workload(get_model("gcn"), graph, LayerDims(64, 8))
        wl_big = extract_workload(get_model("gcn"), graph, LayerDims(64, 256))
        s_small = partition(wl_small, CFG.num_pes, FLOPS)
        s_big = partition(wl_big, CFG.num_pes, FLOPS)
        assert s_big.b > s_small.b

    def test_pipeline_interval(self, graph):
        wl = extract_workload(get_model("gcn"), graph, LayerDims(64, 32))
        s = partition(wl, CFG.num_pes, FLOPS)
        assert s.pipeline_interval == max(s.t_a_seconds, s.t_b_seconds)
        assert 0 <= s.imbalance < 1

    def test_validation(self, graph):
        wl = extract_workload(get_model("gcn"), graph, LayerDims(8, 4))
        with pytest.raises(ValueError):
            partition(wl, 0, FLOPS)
        with pytest.raises(ValueError):
            partition(wl, 16, 0)

    def test_ef_in_t_a(self):
        """Edge-feature models include the AComp3 term (E_f·m traffic)."""
        g = from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)], num_features=16)
        wl = extract_workload(get_model("agnn"), g, LayerDims(16, 8))
        assert wl.E_f == 16
        s = partition(wl, 64, FLOPS)
        assert s.t_a_seconds > 0


class TestSplitRegions:
    def test_two_bands(self, graph):
        wl = extract_workload(get_model("gcn"), graph, LayerDims(64, 32))
        s = partition(wl, CFG.num_pes, FLOPS)
        ra, rb = split_regions(CFG.array_k, s)
        assert rb is not None
        assert ra.num_pes + rb.num_pes == CFG.num_pes
        assert ra.y1 == rb.y0  # adjacent bands

    def test_single_accelerator_whole_array(self, graph):
        wl = extract_workload(get_model("edgeconv-1"), graph, LayerDims(64, 32))
        s = partition(wl, CFG.num_pes, FLOPS)
        ra, rb = split_regions(CFG.array_k, s)
        assert rb is None
        assert ra.num_pes == CFG.num_pes

    def test_wrong_total_rejected(self):
        s = PartitionStrategy(a=10, b=10, t_a_seconds=1, t_b_seconds=1, single_accelerator=False)
        with pytest.raises(ValueError, match="covers"):
            split_regions(32, s)

    def test_minimum_one_row_each(self, graph):
        """Even extreme splits keep at least one row per band."""
        wl = extract_workload(get_model("gcn"), graph, LayerDims(8, 512))
        s = partition(wl, CFG.num_pes, FLOPS)
        ra, rb = split_regions(CFG.array_k, s)
        assert ra.height >= 1
        if rb is not None:
            assert rb.height >= 1


def _scalar_partition(wl, num_pes, flops):
    """Algorithm 2 as a scalar scan: every split in turn, kept when
    strictly better than the best so far."""

    def t_a(a):
        if a == 0:
            return float("inf")
        ef_m = wl.E_f * wl.num_edges
        acomp1 = wl.O_ue / (a * flops)
        acomp2 = max(wl.O_a - ef_m, 0) / (a * flops)
        return max(acomp1, acomp2) + ef_m / (a * flops)

    def t_b(b):
        return float("inf") if b == 0 else wl.O_uv / (b * flops)

    if wl.O_uv == 0:
        return PartitionStrategy(num_pes, 0, t_a(num_pes), 0.0, True)
    if wl.O_ue == 0 and wl.O_a == 0:
        return PartitionStrategy(0, num_pes, 0.0, t_b(num_pes), True)
    best_a, best_diff, best_times = 1, float("inf"), (0.0, 0.0)
    for a in range(1, num_pes):
        ta, tb = t_a(a), t_b(num_pes - a)
        if abs(ta - tb) < best_diff:
            best_a, best_diff, best_times = a, abs(ta - tb), (ta, tb)
    return PartitionStrategy(
        best_a, num_pes - best_a, best_times[0], best_times[1], False
    )


def _workload(o_ue, o_a, o_uv, e_f, num_edges):
    from repro.models.workload import LayerWorkload, Phase, PhaseWorkload

    def phase(p, macs):
        return PhaseWorkload(p, macs, 0, 0, 0, 0)

    return LayerWorkload(
        model_name="synthetic",
        num_vertices=1,
        num_edges=num_edges,
        dims=LayerDims(1, 1),
        edge_update=phase(Phase.EDGE_UPDATE, o_ue),
        aggregation=phase(Phase.AGGREGATION, o_a),
        vertex_update=phase(Phase.VERTEX_UPDATE, o_uv),
        edge_feature_dim=e_f,
    )


_OPS = st.one_of(
    st.just(0), st.integers(1, 100), st.integers(0, 10**13)
)


class TestVectorisedScan:
    """The one-shot scan picks the split, and the times, of the scalar
    left-to-right scan."""

    @settings(max_examples=300, deadline=None)
    @given(
        o_ue=_OPS,
        o_a=_OPS,
        o_uv=_OPS,
        e_f=st.integers(0, 64),
        num_edges=st.integers(0, 10**6),
        num_pes=st.integers(1, 1100),
        flops=st.sampled_from([1e-3, 1.0, 7.0, FLOPS, 3.3e12]),
    )
    def test_matches_scalar_scan(
        self, o_ue, o_a, o_uv, e_f, num_edges, num_pes, flops
    ):
        wl = _workload(o_ue, o_a, o_uv, e_f, num_edges)
        got = partition(wl, num_pes, flops)
        assert got == _scalar_partition(wl, num_pes, flops)
        assert type(got.t_a_seconds) is float
        assert type(got.t_b_seconds) is float

    @pytest.mark.parametrize("num_pes", [2, 3, 7, 64, 255, 1024, 1025])
    def test_exact_ties_keep_the_first_split(self, num_pes):
        """Equal A and B work ties splits a and P-a exactly; with P odd
        the two middle splits tie at the minimum."""
        wl = _workload(0, 5000, 5000, 0, 0)
        got = partition(wl, num_pes, FLOPS)
        assert got == _scalar_partition(wl, num_pes, FLOPS)
        assert got.a == num_pes // 2

    @pytest.mark.parametrize(
        "ops", [(10, 20, 0), (0, 0, 30), (0, 0, 0), (10, 0, 0)]
    )
    def test_single_accelerator_branches(self, ops):
        wl = _workload(*ops, 4, 10)
        got = partition(wl, 64, FLOPS)
        assert got.single_accelerator
        assert got == _scalar_partition(wl, 64, FLOPS)

    def test_comparators_take_arrays(self):
        from repro.partition.algorithm import _t_a, _t_b

        wl = _workload(300, 700, 500, 3, 40)
        pes = np.arange(0, 9)
        np.testing.assert_array_equal(
            _t_a(wl, pes, FLOPS), [_t_a(wl, int(a), FLOPS) for a in pes]
        )
        np.testing.assert_array_equal(
            _t_b(wl, pes, FLOPS), [_t_b(wl, int(b), FLOPS) for b in pes]
        )
        assert _t_a(wl, 0, FLOPS) == _t_b(wl, 0, FLOPS) == float("inf")
