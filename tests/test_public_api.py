"""Public API surface tests: exports resolve and stay importable."""

import importlib
import pkgutil

import pytest

import repro


class TestTopLevel:
    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        sorted(
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
        ),
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_quickstart_snippet(self):
        """The README quickstart must work verbatim (scaled down)."""
        from repro import AuroraAccelerator, get_model, load_dataset

        acc = AuroraAccelerator()
        result = acc.run(
            get_model("gcn"),
            load_dataset("cora", scale=0.2),
            hidden=16,
            num_layers=2,
            num_classes=7,
        )
        assert result.total_seconds > 0
        assert result.dram_bytes > 0
        assert result.energy.total > 0


class TestDocumentationConsistency:
    def test_docs_exist(self):
        from pathlib import Path

        root = Path(repro.__file__).resolve().parents[2]
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (root / name).exists(), name
        for name in ("architecture.md", "noc.md", "calibration.md", "simulator.md"):
            assert (root / "docs" / name).exists(), name

    def test_experiments_doc_covers_registry(self):
        from pathlib import Path

        from repro.eval import list_experiments

        root = Path(repro.__file__).resolve().parents[2]
        text = (root / "EXPERIMENTS.md").read_text()
        for eid in list_experiments():
            assert f"## {eid} " in text or f"## {eid}—" in text or f"## {eid} —" in text, eid

    def test_readme_examples_exist(self):
        import re
        from pathlib import Path

        root = Path(repro.__file__).resolve().parents[2]
        text = (root / "README.md").read_text()
        for match in re.finditer(r"python (examples/\w+\.py)", text):
            assert (root / match.group(1)).exists(), match.group(1)

    def test_design_lists_every_bench(self):
        from pathlib import Path

        root = Path(repro.__file__).resolve().parents[2]
        design = (root / "DESIGN.md").read_text()
        for bench in sorted((root / "benchmarks").glob("test_*.py")):
            # Every paper-artifact bench (E1-E12) is indexed in DESIGN.md.
            if bench.stem in (
                "test_full_sweep",
                "test_simulator_performance",
                "test_cycle_tier_performance",
                "test_fanout_performance",
                "test_delta_performance",
                "test_observe_overhead",
                "test_noc_characterization",
            ):
                continue  # performance/infrastructure benches
            assert bench.name in design, bench.name
