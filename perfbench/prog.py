"""The program side of the benchmark, run in a child process per pass.

    python perfbench/prog.py cli --trace-out SPANS -- <hopground arguments>
    python perfbench/prog.py bigcorpus --work DIR [--trace-out SPANS]

``cli`` runs ``hopground.cli.main`` with tracing installed (an untraced
CLI pass runs ``python -m hopground`` directly).  ``bigcorpus`` drives the
large-corpus workload through the library's public functions with an
in-process, zero-latency simulated model; with ``--trace-out`` it answers
the dataset twice, untraced and then traced, to measure tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from hopground import cli, evaluation, pipeline, retrieval
from hopground.errors import TransportError
from hopground.llm import Completion
from hopground.prompts import TemplateLibrary

from bigcorpus import PER_GROUP
from calibrate import kernel_seconds
from plan import Responder, count_tokens
from spans import Tracer, install

BLOCK = 4 * PER_GROUP   # questions per block; each block has the full mix


class SimClient:
    """In-process ``LlmClient`` answering through ``plan.Responder``."""

    def __init__(self, responder: Responder):
        self.responder = responder
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.responder.reset()
        self.calls = 0
        self.first_request: float | None = None
        self.items: dict[str, list[float]] = {}

    def complete(self, messages, params):
        started = time.monotonic()
        text, item = self.responder.reply("\n".join(m.content
                                                    for m in messages))
        finished = time.monotonic()
        with self._lock:
            self.calls += 1
            if self.first_request is None:
                self.first_request = started
            self.items.setdefault(item, [started, started])[1] = finished
        if text is None:
            raise TransportError("planned failure")
        return Completion(text=text,
                          prompt_tokens=sum(count_tokens(m.content)
                                            for m in messages),
                          completion_tokens=count_tokens(text))


def run_cli(argv: list[str], trace_out: str) -> int:
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_out)


def calibration() -> dict:
    """One reference-kernel timing, with the interval it occupied so that
    the measured intervals around it can leave it out."""
    start = time.monotonic()
    kernel = kernel_seconds()
    return {"start": start, "end": time.monotonic(), "kernel_s": kernel}


def run_bigcorpus(work: Path, trace_out: str | None) -> int:
    setup_calibrations = [calibration()]
    tracer = None
    if trace_out:
        tracer = Tracer()
        install(tracer, llm_classes=(SimClient,))
    with open(work / "plan.json", encoding="utf-8") as f:
        client = SimClient(Responder(json.load(f)["questions"]))
    library = TemplateLibrary.load()
    questions = evaluation.load_dataset(work / "dataset.jsonl")

    docs = retrieval.load_corpus(work / "corpus.jsonl")
    index = retrieval.build_index(docs)
    del docs
    retrieval.save_index(index, work / "index.cache")
    del index
    index = retrieval.load_index(work / "index.cache")
    retriever = pipeline.BM25Retriever(index)
    config = pipeline.PipelineConfig(concurrency=1)
    setup_calibrations.append(calibration())

    passes = [("untraced", False), ("traced", True)] if tracer \
        else [("run", False)]
    results = {"setup_calibrations": setup_calibrations, "passes": {}}
    for name, traced in passes:
        if tracer is not None:
            tracer.enabled = traced
        client.reset()
        completed: list[float] = []
        edges = [calibration()]

        def progress(done: int, total: int) -> None:
            completed.append(time.monotonic())
            if done % BLOCK == 0:
                edges.append(calibration())

        trajectories = pipeline.answer_dataset(
            questions, config, client, retriever, library, progress=progress)
        path = work / f"trajectories-{name}.jsonl"
        pipeline.write_trajectories(trajectories, path)
        results["passes"][name] = {"first_request": client.first_request,
                         "completed": completed, "calls": client.calls,
                         "items": client.items, "block_edges": edges}
    with open(work / "program.json", "w", encoding="utf-8") as f:
        json.dump(results, f)
    if tracer is not None:
        tracer.dump(trace_out)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("cli", "bigcorpus"))
    parser.add_argument("--work", type=Path)
    parser.add_argument("--trace-out")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    if args.mode == "cli":
        return run_cli(argv[split + 1:], args.trace_out)
    return run_bigcorpus(args.work, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
