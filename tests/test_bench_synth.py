import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks"))
import bench_synth  # noqa: E402

RECORD_KEYS = {"label", "command", "machine", "seed", "held_out",
               "synth_inputs", "stats_lines", "examples", "kept", "synth_s",
               "corpus_bytes", "bytes_per_line",
               "teacher_prompt_tokens_per_item", "synth_peak_rss_mb",
               "stats_peak_rss_mb"}


def test_json_record_keys_and_replacement(tmp_path, capsys):
    path = tmp_path / "BENCH_synth.json"
    for label in ("parent", "change", "change"):
        bench_synth.main(["--synth-inputs", "3", "--stats-lines", "5",
                          "--json", str(path), "--label", label])
    out = capsys.readouterr().out
    for layer in ("synthesized 400 examples", "bytes/line", "tokens/item",
                  "MB peak RSS at 3 inputs", "MB peak RSS at 5 lines"):
        assert layer in out
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    # a rerun replaces the record with the same label and settings
    assert [r["label"] for r in runs] == ["parent", "change"]
    for record in runs:
        assert set(record) == RECORD_KEYS
        assert record["command"].startswith(
            "python benchmarks/bench_synth.py")
        assert record["examples"] == 400 and 0 < record["kept"] < 400
        assert record["bytes_per_line"] == record["corpus_bytes"] / 400
        assert record["teacher_prompt_tokens_per_item"] > 0
        assert set(record["synth_peak_rss_mb"]) == {"3"}
        assert record["synth_peak_rss_mb"]["3"] > 0
        assert set(record["stats_peak_rss_mb"]) == {"5"}
        assert record["stats_peak_rss_mb"]["5"] > 0


def test_a_verdict_off_the_plan_fails_the_run(monkeypatch):
    monkeypatch.setattr(bench_synth.plan, "synth_expected",
                        lambda item: (True, None))
    with pytest.raises(SystemExit, match="planned"):
        bench_synth.main(["--synth-inputs", "3", "--stats-lines", "5"])


def test_synth_inputs_equal_to_the_planned_count():
    # the planned corpus, which stats reads, outlives a run of that size
    record = bench_synth.main(["--synth-inputs", "400", "--stats-lines", "5"])
    assert set(record["synth_peak_rss_mb"]) == {"400"}
    assert record["stats_peak_rss_mb"]["5"] > 0
