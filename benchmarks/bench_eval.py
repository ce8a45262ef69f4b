#!/usr/bin/env python3
"""Benchmark ``hopground eval`` memory: its peak RSS as the trajectory file
grows.

The trajectory file repeats the lines of the golden
``tests/fixtures/golden/trajectories.jsonl`` under fresh ids to each
``--lines`` count, and the dataset holds one question for each id.
``hopground eval`` runs on them in a child process, through
``bench_synth.run_child``, which reports the child's own peak RSS
(``VmHWM``, so Linux only).  Each run's ``summary.json`` must equal the
summary of the golden lines' scores repeated the same way (a mismatch exits
non-zero), and the record keeps a SHA-256 of ``records.csv`` and
``summary.json`` together, so two revisions' records show whether they
wrote the same bytes.  Memory that grows with the input shows as the gap
between the counts.

    python benchmarks/bench_eval.py --json benchmarks/BENCH_eval.json \\
        --label change

Only the command line of ``hopground`` is used, so one copy of this script
measures any revision whose ``src`` is first on ``PYTHONPATH``.  ``--json``
adds the run's record to the ``runs`` list of that file, in place of an
earlier record with the same label and line counts.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from hopground.core import Question
from hopground.evaluation import aggregate, score_prediction

from bench_bm25 import machine, write_record
from bench_synth import run_child

GOLDEN = (Path(__file__).resolve().parents[1] / "tests" / "fixtures"
          / "golden" / "trajectories.jsonl")


def write_inputs(records, n_lines, tmp) -> tuple[Path, Path]:
    """The trajectory lines of ``records`` repeated to ``n_lines`` lines, a
    repeat past the first under a fresh id, and a dataset with one question
    for each: (trajectories path, dataset path)."""
    trajectories = tmp / f"trajectories-{n_lines}.jsonl"
    dataset = tmp / f"dataset-{n_lines}.jsonl"
    with open(trajectories, "w", encoding="utf-8") as t, \
            open(dataset, "w", encoding="utf-8") as d:
        for i in range(n_lines):
            record = records[i % len(records)]
            repeat = i // len(records)
            question = record["question"]
            qid = question["id"] if repeat == 0 else f"{question['id']}-r{repeat}"
            line = {**record, "question": {**question, "id": qid}}
            t.write(json.dumps(line, ensure_ascii=False,
                               separators=(",", ":")) + "\n")
            d.write(json.dumps({"id": qid, "question": question["text"],
                                "answers": question["gold_answers"]},
                               ensure_ascii=False) + "\n")
    return trajectories, dataset


def expected_summary(records, n_lines) -> dict:
    """The summary of the golden lines' scores repeated to ``n_lines``."""
    scores = [score_prediction(
        Question(r["question"]["id"], r["question"]["text"],
                 tuple(r["question"]["gold_answers"])), r["final_answer"])
        for r in records]
    return aggregate([scores[i % len(scores)] for i in range(n_lines)])


def run_eval(records, n_lines, tmp) -> tuple[float, float, str]:
    """``hopground eval`` over ``n_lines`` repeated lines: (seconds, peak
    RSS in MB, SHA-256 of records.csv then summary.json).  A summary other
    than the expected one exits non-zero."""
    trajectories, dataset = write_inputs(records, n_lines, tmp)
    out = tmp / f"reports-{n_lines}"
    seconds, peak, _ = run_child([
        "eval", "--trajectories", str(trajectories), "--dataset", str(dataset),
        "--out", str(out)])
    trajectories.unlink()
    dataset.unlink()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    expected = expected_summary(records, n_lines)
    if summary != expected:
        raise SystemExit(f"eval at {n_lines} lines: summary {summary}, "
                         f"expected {expected}")
    digest = hashlib.sha256()
    for name in ("records.csv", "summary.json"):
        digest.update((out / name).read_bytes())
    return seconds, peak, digest.hexdigest()


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, nargs="+",
                        default=[2000, 5000, 20000],
                        help="trajectory counts to run eval on")
    parser.add_argument("--json", metavar="PATH",
                        help="add this run's record to a JSON file")
    parser.add_argument("--label", default="current",
                        help="name of the measured code, kept in the record")
    args = parser.parse_args(argv)

    with open(GOLDEN, encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    peaks, seconds, digests = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for n_lines in args.lines:
            key = str(n_lines)
            seconds[key], peaks[key], digests[key] = run_eval(
                records, n_lines, Path(tmp))
            print(f"  eval {peaks[key]:8.1f} MB peak RSS at {n_lines} lines "
                  f"({seconds[key]:.2f} s)")

    record = {
        "label": args.label,
        "command": " ".join(["python", "benchmarks/bench_eval.py",
                             *(sys.argv[1:] if argv is None else argv)]),
        "machine": machine(),
        "lines": args.lines,
        "eval_s": seconds,
        "eval_peak_rss_mb": peaks,
        "outputs_sha256": digests,
    }
    if args.json:
        write_record(args.json, record, key=("label", "lines"))
    return record


if __name__ == "__main__":
    main()
