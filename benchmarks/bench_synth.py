#!/usr/bin/env python3
"""Benchmark the synthesis corpus: bytes per line and ``stats`` memory.

Synthesizes the corpus of perfbench's ``synth-http`` workload in process:
``synthesize_stream`` over ``plan.synth_inputs`` with a zero-latency client
that answers through ``plan.Responder``, written by ``emit_corpus`` with
the dropped examples included, as ``synth-http`` runs ``hopground synth
--include-dropped``.  Every verdict is checked against the plan (a mismatch
exits non-zero), and the corpus size is reported in bytes per line.

The corpus lines are then repeated to each ``--stats-lines`` count and
``hopground stats`` runs on each file in a child process, which reports
its own peak RSS (``VmHWM``, so Linux only) when it is done; memory that
grows with the corpus shows as the gap between the counts.

    python benchmarks/bench_synth.py --json benchmarks/BENCH_synth.json \
        --label change

``--json`` adds the run's record to the ``runs`` list of that file, in
place of an earlier record with the same label, seed, held-out flag and
line counts.
"""

import argparse
import logging
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hopground
from hopground.core import write_jsonl
from hopground.distill import (emit_corpus, load_synthesis_inputs,
                               synthesize_stream)
from hopground.errors import TransportError
from hopground.llm import Completion
from hopground.prompts import TemplateLibrary

from bench_bm25 import machine, write_record

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import plan  # noqa: E402


class ResponderClient:
    """Zero-latency ``LlmClient`` answering through ``plan.Responder``; a
    planned failure raises ``TransportError``."""

    def __init__(self, responder: plan.Responder):
        self.responder = responder

    def complete(self, messages, params):
        text, _ = self.responder.reply("\n".join(m.content for m in messages))
        if text is None:
            raise TransportError("planned failure")
        return Completion(text=text)


def synthesize(items, seed, path) -> int:
    """Write the corpus of ``items`` with gold positions drawn from
    ``seed`` to ``path``, through the inputs file ``synth-http`` writes;
    the number of kept lines.  A verdict other than the planned one exits
    non-zero."""
    inputs_path = path.with_name("synthesis-inputs.jsonl")
    write_jsonl(({"id": s["id"], "question": s["question"],
                  "answer": s["answer"], "gold_doc": s["gold_doc"],
                  "noise_docs": s["noise_docs"]} for s in items), inputs_path)
    client = ResponderClient(plan.Responder(synth_inputs=items))
    stream = synthesize_stream(load_synthesis_inputs(inputs_path), client,
                               client, TemplateLibrary.load(), seed=seed)
    kept = 0

    def check(pair):
        nonlocal kept
        item, example = pair
        if (example.verdict.keep, example.verdict.reason) \
                != plan.synth_expected(item):
            raise SystemExit(f"{item['id']}: verdict {example.verdict}, "
                             f"planned {item['outcome']}")
        kept += example.verdict.keep
        return example

    emit_corpus(map(check, zip(items, stream)), path, include_dropped=True)
    return kept


# ``hopground stats`` as ``python -m hopground`` runs it, then its VmHWM.
# The child's ``ru_maxrss`` would not do: on Linux it also counts the peak
# of the process it was started from, this benchmark.
_STATS_CHILD = """\
import sys
from hopground.cli import main
code = main(["stats", "--corpus", sys.argv[1]])
with open("/proc/self/status", encoding="ascii") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
sys.exit(code)
"""


def stats_peak_rss_mb(corpus, n_lines, path) -> float:
    """Peak RSS (MB = 2**20 bytes) of ``hopground stats`` over the lines
    of ``corpus`` repeated to ``n_lines`` lines."""
    lines = corpus.read_bytes().splitlines(keepends=True)
    with open(path, "wb") as f:
        for i in range(n_lines):
            f.write(lines[i % len(lines)])
    src = str(Path(hopground.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _STATS_CHILD, str(path)],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"stats on {n_lines} lines exited {proc.returncode}:"
                         f" {proc.stderr.strip()}")
    return int(proc.stdout.split()[-1]) / 1024  # VmHWM is in KiB


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out", action="store_true",
                        help="use perfbench's held-out seed stream")
    parser.add_argument("--stats-lines", type=int, nargs="+",
                        default=[2000, 20000],
                        help="corpus sizes, in lines, to run stats on")
    parser.add_argument("--json", metavar="PATH",
                        help="add this run's record to a JSON file")
    parser.add_argument("--label", default="current",
                        help="name of the measured code, kept in the record")
    args = parser.parse_args(argv)

    seed = plan.stream_seed(args.seed, args.held_out)
    items = plan.synth_inputs(seed)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        started = time.perf_counter()
        kept = synthesize(items, seed, corpus)
        synth_s = time.perf_counter() - started
        corpus_bytes = corpus.stat().st_size
        print(f"synthesized {len(items)} examples ({kept} kept) in "
              f"{synth_s:.3f} s")
        print(f"  corpus {corpus_bytes} bytes, "
              f"{corpus_bytes / len(items):.2f} bytes/line")
        peaks = {}
        for n_lines in args.stats_lines:
            peaks[str(n_lines)] = stats_peak_rss_mb(
                corpus, n_lines, Path(tmp) / f"corpus-{n_lines}.jsonl")
            print(f"  stats  {peaks[str(n_lines)]:8.1f} MB peak RSS at "
                  f"{n_lines} lines")

    record = {
        "label": args.label,
        "command": " ".join(["python", "benchmarks/bench_synth.py",
                             *(sys.argv[1:] if argv is None else argv)]),
        "machine": machine(),
        "seed": args.seed, "held_out": args.held_out,
        "stats_lines": args.stats_lines,
        "examples": len(items), "kept": kept, "synth_s": synth_s,
        "corpus_bytes": corpus_bytes,
        "bytes_per_line": corpus_bytes / len(items),
        "stats_peak_rss_mb": peaks,
    }
    if args.json:
        write_record(args.json, record,
                     key=("label", "seed", "held_out", "stats_lines"))
    return record


if __name__ == "__main__":
    # each planned llm_error item logs a warning; the verdicts are checked
    logging.getLogger("hopground").setLevel(logging.ERROR)
    main()
