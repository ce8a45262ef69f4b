import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks"))
import bench_eval  # noqa: E402

RECORD_KEYS = {"label", "command", "machine", "lines", "eval_s",
               "eval_peak_rss_mb", "outputs_sha256"}


def test_json_record_keys_and_replacement(tmp_path, capsys):
    path = tmp_path / "BENCH_eval.json"
    for label in ("parent", "change", "change"):
        bench_eval.main(["--lines", "24", "37", "--json", str(path),
                         "--label", label])
    out = capsys.readouterr().out
    for layer in ("MB peak RSS at 24 lines", "MB peak RSS at 37 lines"):
        assert layer in out
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    # a rerun replaces the record with the same label and settings
    assert [r["label"] for r in runs] == ["parent", "change"]
    for record in runs:
        assert set(record) == RECORD_KEYS
        assert record["command"].startswith("python benchmarks/bench_eval.py")
        assert record["lines"] == [24, 37]
        for key in ("eval_s", "eval_peak_rss_mb", "outputs_sha256"):
            assert set(record[key]) == {"24", "37"}
        assert all(mb > 0 for mb in record["eval_peak_rss_mb"].values())
    # the same code writes the same bytes; other counts write others
    assert runs[0]["outputs_sha256"] == runs[1]["outputs_sha256"]
    assert len(set(runs[0]["outputs_sha256"].values())) == 2


def test_a_summary_off_the_expected_fails_the_run(monkeypatch):
    monkeypatch.setattr(bench_eval, "expected_summary",
                        lambda records, n_lines: {"acc": 0.0})
    with pytest.raises(SystemExit, match="expected"):
        bench_eval.main(["--lines", "24"])


def test_inputs_repeat_the_golden_lines_under_fresh_ids(tmp_path):
    records = [json.loads(line) for line in
               bench_eval.GOLDEN.read_text(encoding="utf-8").splitlines()]
    trajectories, dataset = bench_eval.write_inputs(records, 5, tmp_path)
    lines = [json.loads(line) for line in
             trajectories.read_text(encoding="utf-8").splitlines()]
    questions = [json.loads(line) for line in
                 dataset.read_text(encoding="utf-8").splitlines()]
    ids = [t["question"]["id"] for t in lines]
    assert len(set(ids)) == 5 and ids == [q["id"] for q in questions]
    for i, line in enumerate(lines):
        golden = records[i % len(records)]
        assert {**line, "question": golden["question"]} == golden
