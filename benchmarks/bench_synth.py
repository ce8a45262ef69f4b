#!/usr/bin/env python3
"""Benchmark the synthesis corpus: bytes per line, ``synth`` memory and
``stats`` memory.

Every measured command runs in a child process as ``hopground.cli.main``,
the code ``python -m hopground`` runs, with a zero-latency client that
answers through perfbench's ``plan.Responder`` in place of each configured
model, at ``synthesis.concurrency`` 2 as perfbench's ``synth-http`` runs.
Each child reports its own peak RSS (``VmHWM``, so Linux only) when it is
done.  The child's ``ru_maxrss`` would not do: on Linux it also counts the
peak of the process it was started from, this benchmark.

``hopground synth --include-dropped`` first runs over the 400 inputs of
``plan.synth_inputs``.  Every verdict in the corpus is checked against the
plan (a mismatch exits non-zero), and the corpus size is reported in bytes
per line and the teacher's prompts in tokens per item, counted as perfbench
counts them (``plan.count_tokens``).  ``synth`` then runs on the inputs
repeated under fresh ids to each ``--synth-inputs`` count, so the client's
own state stays at the 400 planned items, and ``stats`` runs on the corpus
lines repeated to each ``--stats-lines`` count.  Memory that grows with the
input shows as the gap between the counts.

    python benchmarks/bench_synth.py --json benchmarks/BENCH_synth.json \\
        --label change

Only the command line of ``hopground`` is used, so one copy of this script
measures any revision whose ``src`` is first on ``PYTHONPATH``.  ``--json``
adds the run's record to the ``runs`` list of that file, in place of an
earlier record with the same label, seed, held-out flag and line counts.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hopground
from hopground.distill import load_training_corpus

from bench_bm25 import machine, write_record

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import plan  # noqa: E402

CONCURRENCY = 2  # as synth-http runs

# ``python -m hopground`` with the arguments of the child's argv, then the
# seconds ``main`` took, VmHWM in KiB and the tokens of every teacher prompt.
# For ``synth`` both models answer the plan of the run's ``--seed``.
_CHILD = """\
import logging, sys, threading, time
from hopground.cli import main

teacher_tokens = [0]
if sys.argv[1] == "synth":
    import plan
    from hopground.errors import TransportError
    from hopground.llm import Completion, LlmConfig

    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    responder = plan.Responder(synth_inputs=plan.synth_inputs(seed))
    lock = threading.Lock()

    class ResponderClient:
        def complete(self, messages, params):
            prompt = "\\n".join(m.content for m in messages)
            if plan.GROUNDING_CUE in prompt:  # the teacher's prompt
                with lock:
                    teacher_tokens[0] += plan.count_tokens(prompt)
            text, _ = responder.reply(prompt)
            if text is None:
                raise TransportError("planned failure")
            return Completion(text=text)

    client = ResponderClient()
    LlmConfig.client = lambda self, role: client
    # each planned llm_error item logs a warning; the verdicts are checked
    logging.getLogger("hopground").setLevel(logging.ERROR)
started = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - started)
with open("/proc/self/status", encoding="ascii") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
print(teacher_tokens[0])
sys.exit(code)
"""


def run_child(args) -> tuple[float, float, int]:
    """``hopground`` with ``args`` in a child process: (seconds, peak RSS
    in MB = 2**20 bytes, tokens of the teacher's prompts)."""
    src = str(Path(hopground.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, str(PERFBENCH), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHILD, *args],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{args[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    seconds, hwm, tokens = proc.stdout.split()[-3:]
    return float(seconds), int(hwm) / 1024, int(tokens)  # VmHWM is in KiB


def write_inputs(items, n_inputs, path) -> None:
    """The synthesis inputs of ``items``, repeated to ``n_inputs`` lines;
    a repeat past the first takes a fresh id."""
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n_inputs):
            s = items[i % len(items)]
            repeat = i // len(items)
            f.write(json.dumps({
                "id": s["id"] if repeat == 0 else f"{s['id']}-r{repeat}",
                "question": s["question"], "answer": s["answer"],
                "gold_doc": s["gold_doc"], "noise_docs": s["noise_docs"],
            }, separators=(",", ":")) + "\n")


def synthesize(items, seed, n_inputs, out) -> tuple[float, float, int]:
    """``hopground synth --include-dropped`` over ``items`` repeated to
    ``n_inputs`` inputs, with gold positions drawn from ``seed``, into the
    corpus ``out``: (seconds, peak RSS in MB, tokens of the teacher's
    prompts).  A corpus short of its inputs exits non-zero."""
    inputs = out.with_name(f"inputs-{n_inputs}.jsonl")
    config = out.with_name("config.json")
    # the child replaces each model's client, so the URL is never reached
    model = {"backend": "openai", "base_url": "http://127.0.0.1:9",
             "model": "plan"}
    config.write_text(json.dumps({
        "student_llm": model, "teacher_llm": model,
        "synthesis": {"concurrency": CONCURRENCY}}), encoding="utf-8")
    write_inputs(items, n_inputs, inputs)
    seconds, peak, tokens = run_child([
        "synth", "--input", str(inputs), "--out", str(out),
        "--seed", str(seed), "--config", str(config), "--include-dropped"])
    inputs.unlink()
    with open(out, "rb") as f:
        lines = sum(1 for _ in f)
    if lines != n_inputs:
        raise SystemExit(f"synth wrote {lines} lines for {n_inputs} inputs")
    return seconds, peak, tokens


def check_verdicts(items, corpus) -> int:
    """The number of kept lines of ``corpus``; a verdict other than the
    planned one exits non-zero."""
    kept = 0
    for item, example in zip(items, load_training_corpus(corpus)):
        if (example.verdict.keep, example.verdict.reason) \
                != plan.synth_expected(item):
            raise SystemExit(f"{item['id']}: verdict {example.verdict}, "
                             f"planned {item['outcome']}")
        kept += example.verdict.keep
    return kept


def stats_peak_rss_mb(corpus, n_lines, path) -> float:
    """Peak RSS (MB) of ``hopground stats`` over the lines of ``corpus``
    repeated to ``n_lines`` lines."""
    lines = corpus.read_bytes().splitlines(keepends=True)
    with open(path, "wb") as f:
        for i in range(n_lines):
            f.write(lines[i % len(lines)])
    return run_child(["stats", "--corpus", str(path)])[1]


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out", action="store_true",
                        help="use perfbench's held-out seed stream")
    parser.add_argument("--synth-inputs", type=int, nargs="+",
                        default=[2000, 20000],
                        help="input counts to run synth on")
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
        tmp = Path(tmp)
        # a name of its own: a --synth-inputs count may equal len(items),
        # and stats reads this corpus after those runs
        corpus = tmp / "corpus-planned.jsonl"
        synth_s, _, tokens = synthesize(items, seed, len(items), corpus)
        kept = check_verdicts(items, corpus)
        corpus_bytes = corpus.stat().st_size
        print(f"synthesized {len(items)} examples ({kept} kept) in "
              f"{synth_s:.3f} s")
        print(f"  corpus {corpus_bytes} bytes, "
              f"{corpus_bytes / len(items):.2f} bytes/line")
        print(f"  teacher prompts {tokens / len(items):.2f} tokens/item")
        synth_peaks = {}
        for n_inputs in args.synth_inputs:
            out = tmp / f"corpus-{n_inputs}.jsonl"
            _, peak, _ = synthesize(items, seed, n_inputs, out)
            out.unlink()
            synth_peaks[str(n_inputs)] = peak
            print(f"  synth  {peak:8.1f} MB peak RSS at {n_inputs} inputs")
        stats_peaks = {}
        for n_lines in args.stats_lines:
            stats_peaks[str(n_lines)] = stats_peak_rss_mb(
                corpus, n_lines, tmp / f"stats-{n_lines}.jsonl")
            print(f"  stats  {stats_peaks[str(n_lines)]:8.1f} MB peak RSS at "
                  f"{n_lines} lines")

    record = {
        "label": args.label,
        "command": " ".join(["python", "benchmarks/bench_synth.py",
                             *(sys.argv[1:] if argv is None else argv)]),
        "machine": machine(),
        "seed": args.seed, "held_out": args.held_out,
        "synth_inputs": args.synth_inputs,
        "stats_lines": args.stats_lines,
        "examples": len(items), "kept": kept, "synth_s": synth_s,
        "corpus_bytes": corpus_bytes,
        "bytes_per_line": corpus_bytes / len(items),
        "teacher_prompt_tokens_per_item": tokens / len(items),
        "synth_peak_rss_mb": synth_peaks,
        "stats_peak_rss_mb": stats_peaks,
    }
    if args.json:
        write_record(args.json, record,
                     key=("label", "seed", "held_out", "stats_lines"))
    return record


if __name__ == "__main__":
    main()
