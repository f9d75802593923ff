"""Tests for result export (CSV/JSON) and the results collector."""

import numpy as np
import pytest

from repro.experiments.export import read_csv, read_json, write_csv, write_json


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out" / "table.csv"
        write_csv(path, ["a", "b"], [[1, "x"], [2.5, "y"]])
        headers, rows = read_csv(path)
        assert headers == ["a", "b"]
        assert rows == [["1", "x"], ["2.5", "y"]]

    def test_row_length_validated(self, tmp_path):
        with pytest.raises(ValueError, match="cells"):
            write_csv(tmp_path / "t.csv", ["a"], [[1, 2]])

    def test_empty_headers_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", [], [])

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            read_csv(p)


class TestJsonRoundtrip:
    def test_roundtrip_with_metadata(self, tmp_path):
        path = tmp_path / "exp.json"
        write_json(
            path, ["n", "rounds"], [[16, 100], [32, 220]],
            metadata={"seed": 7, "preset": "default"},
        )
        metadata, records = read_json(path)
        assert metadata == {"seed": 7, "preset": "default"}
        assert records == [
            {"n": 16, "rounds": 100},
            {"n": 32, "rounds": 220},
        ]

    def test_non_json_values_stringified(self, tmp_path):
        path = tmp_path / "exp.json"
        write_json(path, ["x"], [[np.int64(3)]])
        _, records = read_json(path)
        assert records[0]["x"] in (3, "3")

    def test_wrong_shape_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"foo": 1}')
        with pytest.raises(ValueError):
            read_json(p)


class TestResultsCollector:
    def test_collect_orders_and_wraps(self, tmp_path, monkeypatch):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "collect_results",
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "collect_results.py",
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        results = tmp_path / "results"
        results.mkdir()
        (results / "a1_x.txt").write_text("ablation table")
        (results / "e2_y.txt").write_text("experiment two")
        (results / "e10_z.txt").write_text("experiment ten")

        text = mod.collect(results)
        # E-experiments numerically ordered before ablations
        assert text.index("e2_y") < text.index("e10_z") < text.index("a1_x")
        assert "```" in text

    def test_collect_missing_dir_raises(self, tmp_path):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "collect_results",
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "collect_results.py",
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        with pytest.raises(FileNotFoundError):
            mod.collect(tmp_path / "nope")
