"""Unit tests for the dataset registry."""

import pytest

from repro.graphs import (
    DATASETS,
    dataset_profile,
    list_datasets,
    load_dataset,
)


class TestRegistry:
    def test_paper_datasets_present(self):
        assert list_datasets() == ["cora", "citeseer", "pubmed", "nell", "reddit"]

    def test_profile_lookup_case_insensitive(self):
        assert dataset_profile("CORA").name == "cora"

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            dataset_profile("ogbn-arxiv")

    def test_published_statistics(self):
        cora = dataset_profile("cora")
        assert cora.num_vertices == 2708
        assert cora.num_features == 1433
        assert cora.num_classes == 7
        reddit = dataset_profile("reddit")
        assert reddit.num_vertices == 232965
        assert reddit.feature_density > 0.5  # paper: density > 50%

    def test_mean_degree(self):
        prof = dataset_profile("reddit")
        assert prof.mean_degree == pytest.approx(
            prof.num_edges / prof.num_vertices
        )

    def test_all_profiles_valid(self):
        for prof in DATASETS.values():
            assert prof.num_vertices > 0
            assert prof.num_edges > 0
            assert 0 < prof.feature_density <= 1
            assert prof.degree_exponent > 1
            assert 0 <= prof.locality < 1


class TestLoading:
    def test_full_scale_counts(self):
        g = load_dataset("cora")
        assert g.num_vertices == 2708
        assert g.num_edges == 10556
        assert g.num_features == 1433

    def test_scaled_counts(self):
        g = load_dataset("pubmed", scale=0.1)
        prof = dataset_profile("pubmed")
        assert g.num_vertices == pytest.approx(prof.num_vertices * 0.1, rel=0.05)
        assert g.num_edges == pytest.approx(prof.num_edges * 0.1, rel=0.05)
        assert g.num_features == prof.num_features  # width preserved

    def test_scale_preserves_density(self):
        g = load_dataset("reddit", scale=0.005)
        assert g.feature_density == dataset_profile("reddit").feature_density

    def test_deterministic(self):
        import numpy as np

        a = load_dataset("citeseer", scale=0.2)
        b = load_dataset("citeseer", scale=0.2)
        assert np.array_equal(a.indices, b.indices)

    def test_name_encodes_scale(self):
        assert load_dataset("cora", scale=0.5).name == "cora@0.5"
        assert load_dataset("cora").name == "cora"

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="scale"):
            load_dataset("cora", scale=0.0)
        with pytest.raises(ValueError, match="scale"):
            load_dataset("cora", scale=1.5)

    def test_minimum_size_floor(self):
        g = load_dataset("cora", scale=0.001)
        assert g.num_vertices >= 16

    @pytest.mark.parametrize("scale", [0.0005, 0.0008])
    def test_dense_tiny_scale_terminates(self, scale, time_limit):
        # Reddit's mean degree (~50) exceeds 3.5·sqrt(n) here, which used
        # to spin the hub-cap repair loop forever.
        with time_limit(10):
            g = load_dataset("reddit", scale=scale)
        assert g.degrees.max() <= max(16, -(-g.num_edges // g.num_vertices))

    def test_seed_must_be_an_integer(self):
        load_dataset("cora", scale=0.1, seed=7)  # warm the snapshot memo
        with pytest.raises(TypeError):
            load_dataset("cora", scale=0.1, seed=7.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            load_dataset("adv-star", scale=0.1, seed=-1)

    def test_numpy_integer_seed_shares_the_snapshot(self):
        import numpy as np

        assert load_dataset("cora", scale=0.1, seed=np.int64(7)) is load_dataset(
            "cora", scale=0.1, seed=7
        )


class TestPinnedContent:
    """Content keys recorded from the per-vertex ``rng.choice`` generator.

    Every golden figure rests on these graphs, so a generator speed-up
    must reproduce them bit for bit.
    """

    PINNED = {
        ("cora", 1.0): "09d905327c05f7b7f2b207a7469f6edb",
        ("citeseer", 1.0): "46075e7b8ad448424ba05589ee1987b2",
        ("pubmed", 0.5): "b8c04b6d1bdb82be390f6656349fc033",
        ("nell", 0.1): "12fc53e68e7e20069ee44972a18dfc4e",
        ("reddit", 0.01): "c49d36116a0c604f50925654893c298d",
        ("adv-star", 1.0): "1fddd9351064226ba56dd959053e4737",
        ("adv-bipartite", 1.0): "665efb6d613a02c252917f91652f7d3a",
        ("adv-hubclique", 1.0): "a69146be35ce2e24ab0845211af48d57",
    }

    def test_covers_every_dataset_at_its_sweep_scale(self):
        from repro.eval import DEFAULT_SCALES
        from repro.graphs import list_adversarial_datasets

        expected = {*DEFAULT_SCALES.items()}
        expected |= {(name, 1.0) for name in list_adversarial_datasets()}
        assert set(self.PINNED) == expected

    @pytest.mark.parametrize("name,scale", list(PINNED))
    def test_content_key(self, name, scale):
        assert load_dataset(name, scale=scale).content_key == self.PINNED[name, scale]
