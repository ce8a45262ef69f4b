import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks"))
import bench_transport  # noqa: E402

RECORD_KEYS = {"label", "command", "machine", "requests", "service_ms",
               "prompt_chars", "results"}
RESULT_KEYS = {"threads", "wall_ms_p50", "wall_ms_p95", "cpu_ms_p50",
               "cpu_ms_mean", "qps"}
TINY = ["--threads", "1", "3", "--requests", "5", "--service-ms", "1",
        "--prompt-chars", "100"]


def test_bench_transport_runs_with_few_requests(capsys):
    bench_transport.main(TINY)
    out = capsys.readouterr().out
    for column in ("threads", "wall p50", "wall p95", "cpu p50", "cpu mean",
                   "qps"):
        assert column in out


def test_json_record_keys_and_replacement(tmp_path, capsys):
    path = tmp_path / "BENCH_transport.json"
    for label in ("parent", "change", "change"):
        bench_transport.main([*TINY, "--json", str(path), "--label", label])
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    # a rerun replaces the record with the same label and settings
    assert [r["label"] for r in runs] == ["parent", "change"]
    for record in runs:
        assert set(record) == RECORD_KEYS
        assert record["command"].startswith(
            "python benchmarks/bench_transport.py")
        assert [r["threads"] for r in record["results"]] == [1, 3]
        for result in record["results"]:
            assert set(result) == RESULT_KEYS
            # every request waits out the 1 ms service time
            assert result["wall_ms_p95"] >= result["wall_ms_p50"] >= 1.0
            assert result["cpu_ms_mean"] > 0 and result["qps"] > 0
