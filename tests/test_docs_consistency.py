"""Consistency between the documentation and the repository contents.

DESIGN.md's experiment index is the map reviewers navigate by; these
tests keep it honest: every indexed bench target exists, every bench file
is indexed, and the other documents reference real files.
"""

import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO / name).read_text()


class TestDesignIndex:
    def test_every_indexed_bench_target_exists(self):
        design = read("DESIGN.md")
        targets = set(re.findall(r"`benchmarks/(bench_\w+\.py)`", design))
        assert targets, "DESIGN.md experiment index lists no bench targets"
        missing = [
            t for t in targets if not (REPO / "benchmarks" / t).exists()
        ]
        assert not missing, f"DESIGN.md references missing benches: {missing}"

    def test_every_bench_file_is_indexed(self):
        design = read("DESIGN.md")
        indexed = set(re.findall(r"`benchmarks/(bench_\w+\.py)`", design))
        on_disk = {
            p.name for p in (REPO / "benchmarks").glob("bench_*.py")
        }
        # the perf microbenchmarks are indexed by a prose row, not a path
        unindexed = on_disk - indexed - {"bench_perf_simulator.py"}
        assert not unindexed, f"benches missing from DESIGN.md: {unindexed}"

    def test_experiment_ids_consistent(self):
        """Every E/A id in the DESIGN index appears in EXPERIMENTS.md."""
        design = read("DESIGN.md")
        experiments = read("EXPERIMENTS.md")
        design_ids = set(re.findall(r"^\| (E\d+|A\d+) \|", design, re.M))
        exp_ids = set(re.findall(r"^\| (E\d+|A\d+) \|", experiments, re.M))
        assert design_ids, "no experiment ids found in DESIGN.md"
        missing = design_ids - exp_ids
        assert not missing, f"ids indexed but not recorded: {sorted(missing)}"


class TestResults:
    def test_results_md_is_the_collected_tables(self):
        """RESULTS.md is exactly what ``collect_results.py`` builds from
        the committed ``benchmarks/results/*.txt``."""
        spec = importlib.util.spec_from_file_location(
            "collect_results", REPO / "benchmarks" / "collect_results.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert read("RESULTS.md") == module.collect()


class TestReadme:
    def test_examples_listed_exist(self):
        readme = read("README.md")
        for name in re.findall(r"examples/(\w+\.py)", readme):
            assert (REPO / "examples" / name).exists(), name

    def test_docs_listed_exist(self):
        for doc in ["model.md", "algorithm.md", "extending.md",
                    "experiments.md", "api.md"]:
            assert (REPO / "docs" / doc).exists(), doc

    def test_paper_identity_stated(self):
        readme = read("README.md")
        assert "Khabbazian" in readme and "Kowalski" in readme
        assert "PODC 2011" in readme


class TestPackagesListed:
    def test_design_inventory_covers_all_subpackages(self):
        design = read("DESIGN.md")
        src = REPO / "src" / "repro"
        subpackages = {
            p.name for p in src.iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        }
        for pkg in subpackages:
            assert f"repro/{pkg}" in design, (
                f"subpackage {pkg} missing from DESIGN.md inventory"
            )
