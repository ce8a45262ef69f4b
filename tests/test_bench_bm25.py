import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks"))
import bench_bm25  # noqa: E402


def test_bench_bm25_runs_on_a_tiny_corpus(capsys):
    bench_bm25.main(["--docs", "300", "--queries", "10"])
    out = capsys.readouterr().out
    for layer in ("build", "save", "load", "bytes", "ms/query"):
        assert layer in out
