import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks"))
import bench_bm25  # noqa: E402

RECORD_KEYS = {"label", "command", "machine", "docs", "queries", "top_k",
               "seed", "terms", "build_s", "save_s", "load_s", "cache_bytes",
               "build_peak_mb", "file_build_peak_mb", "load_peak_mb",
               "index_mb", "queried_mb", "score_ms", "select_ms",
               "query_ms", "warm_query_ms"}


def test_bench_bm25_runs_on_a_tiny_corpus(capsys):
    bench_bm25.main(["--docs", "300", "--queries", "10"])
    out = capsys.readouterr().out
    for layer in ("build", "save", "load", "bytes", "build peak",
                  "load peak", "MB index", "queried index", "score", "select",
                  "warm", "ms/query"):
        assert layer in out


def test_json_record_keys_and_replacement(tmp_path, capsys):
    path = tmp_path / "BENCH_bm25.json"
    for label in ("parent", "change", "change"):
        bench_bm25.main(["--docs", "300", "--queries", "10",
                         "--json", str(path), "--label", label])
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    # a rerun replaces the record with the same label and settings
    assert [r["label"] for r in runs] == ["parent", "change"]
    for record in runs:
        assert set(record) == RECORD_KEYS
        assert set(record["machine"]) == {"cpu", "cpus", "system", "python",
                                          "numpy"}
        assert record["docs"] == 300 and record["queries"] == 10
        assert record["command"].startswith("python benchmarks/bench_bm25.py")
        assert record["query_ms"] >= record["score_ms"] > 0
        assert record["load_peak_mb"] >= record["index_mb"] > 0
        assert record["queried_mb"] >= record["index_mb"]
        assert record["warm_query_ms"] > 0
        assert record["build_peak_mb"] >= record["index_mb"]
        assert abs(record["score_ms"] + record["select_ms"]
                   - record["query_ms"]) < 1e-9


def test_a_wrong_ranking_fails_the_run(monkeypatch):
    # the reloaded-index check goes through the same retrieve, so only the
    # full-sort reference can see a selection that orders wrongly
    retrieve = bench_bm25.retrieve
    monkeypatch.setattr(bench_bm25, "retrieve",
                        lambda *args: retrieve(*args)[::-1])
    with pytest.raises(SystemExit, match="full sort"):
        bench_bm25.main(["--docs", "300", "--queries", "10"])
