"""Command-line entry points: index, run, eval, synth, stats.

A setting with a config key comes from the JSON config file (see README
for the schema) or its default, never from a flag or the environment.  Exit
codes: 0 = run completed (even with per-question failures), 1 =
configuration or IO error, 2 = malformed or empty input: a ``run``
dataset, ``synth`` inputs file or ``eval`` trajectory file with no records
exits 2 before any output is made or any model is called, as an empty
corpus (``index``, ``stats``) does.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import stat
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Sequence

from . import distill, evaluation, pipeline, retrieval
from .core import (ConfigRecord, Question, Termination, Trajectory,
                   loads_utf8, write_json)
from .distill import SynthesisConfig
from .errors import (ConfigError, EmptyRecords, InvalidRecord, LlmError,
                     MalformedDataset, RetrievalError)
from .llm import LlmConfig, RecordingClient
from .pipeline import PipelineConfig, RetrievalConfig
from .prompts import TemplatesConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATASET = 2

@dataclass(frozen=True)
class Config(ConfigRecord):
    """A config file; an absent section takes its defaults, except that
    ``eval --judge`` uses ``llm`` when ``judge_llm`` is absent."""

    pipeline: PipelineConfig = PipelineConfig()
    retrieval: RetrievalConfig = RetrievalConfig()
    llm: LlmConfig = LlmConfig()
    judge_llm: LlmConfig | None = None
    student_llm: LlmConfig = LlmConfig()
    teacher_llm: LlmConfig = LlmConfig()
    templates: TemplatesConfig = TemplatesConfig()
    synthesis: SynthesisConfig = SynthesisConfig()

    @classmethod
    def load(cls, path: str | None) -> "Config":
        """The config file at ``path``, every section type-checked; the
        defaults when ``path`` is None."""
        if path is None:
            return cls()
        try:
            with open(path, encoding="utf-8") as f:
                return cls.from_dict(loads_utf8(f.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except InvalidRecord as exc:
            raise ConfigError(f"config {path}: {exc}") from exc
        except ValueError as exc:  # not UTF-8 JSON, too deep, or a lone surrogate
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _require_serial(config: Config, roles: Sequence[str], key: str,
                    concurrency: int) -> None:
    """A scripted backend hands out its replies in call order, so it gives
    each question the same replies only when one question runs at a time."""
    for role in roles:
        if getattr(config, role).backend == "scripted" and concurrency > 1:
            raise ConfigError(f"{role}.backend scripted replies in call "
                              f"order, so it needs {key} 1, got {concurrency}")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


class Progress:
    """The ``progress(done, total)`` callback of ``run``, ``synth`` and
    ``eval --judge``: one stderr line per completion, such as
    ``answered 37/200 (17.4/s, ETA 9 s)``.

    The rate counts every completion over the time since the callback was
    made, just before the stream starts, so completions that arrive
    together (several can finish before the driver wakes) cannot inflate
    it.  The last line has no ETA.
    """

    def __init__(self, verb: str, clock: Callable[[], float] = time.monotonic):
        self.verb = verb
        self.clock = clock
        self.start = clock()

    def line(self, done: int, total: int) -> str:
        now = self.clock()
        head = f"{self.verb} {done}/{total}"
        if now <= self.start:
            return head
        rate = done / (now - self.start)
        if done == total:
            return f"{head} ({rate:.1f}/s)"
        return f"{head} ({rate:.1f}/s, ETA {(total - done) / rate:.0f} s)"

    def __call__(self, done: int, total: int) -> None:
        print(self.line(done, total), file=sys.stderr)


# --- subcommands ---

def cmd_index(args: argparse.Namespace) -> int:
    # the build parses the corpus file one document at a time and keeps
    # none, so no document list is held at the build's peak
    index = retrieval.build_index(retrieval.load_corpus(args.corpus))
    retrieval.save_index(index, args.out)
    print(f"indexed {len(index)} documents -> {args.out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = Config.load(args.config)
    _require_serial(config, ["llm"], "pipeline.concurrency",
                    config.pipeline.concurrency)
    library = config.templates.load()
    # manifest.json in the order it is written, totals after the stream
    manifest: dict[str, Any] = {
        "config": {
            "pipeline": config.pipeline.to_dict(),
            "templates_dir": config.templates.dir,
        },
        "dataset_path": str(args.dataset),
        "dataset_format": args.format,
    }
    try:  # a path byte that is not UTF-8 arrives as a lone surrogate
        args.dataset.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"--dataset {args.dataset!r} is not UTF-8") from None
    llm = RecordingClient(config.llm.client("llm"))
    # the dataset is checked before any index is built or loaded
    questions = evaluation.load_dataset(args.dataset, format=args.format)
    if not questions:
        raise EmptyRecords(f"--dataset {args.dataset}: no questions")
    retriever = config.retrieval.retriever(config.pipeline.retriever)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest["started_at"] = _utc_now()

    # sums over the trajectories; only llm_calls comes from the recorder
    tally: Counter[str] = Counter()

    def count(trajectory: Trajectory) -> Trajectory:
        tally.update(hops=len(trajectory.hops),
                     **trajectory.token_usage.total.to_dict())
        tally[trajectory.termination.value] += 1
        return trajectory

    stream = pipeline.answer_stream(questions, config.pipeline, llm,
                                    retriever, library, Progress("answered"))
    pipeline.write_trajectories(map(count, stream),
                                out_dir / "trajectories.jsonl")

    terminations = {t.value: tally[t.value] for t in Termination}
    manifest["finished_at"] = _utc_now()
    manifest["totals"] = {
        "questions": sum(terminations.values()),
        "hops": tally["hops"],
        "llm_calls": llm.calls,
        "prompt_tokens": tally["prompt_tokens"],
        "completion_tokens": tally["completion_tokens"],
        "terminations": terminations,
        "failures": terminations[Termination.PARSE_FAILURE.value],
    }
    write_json(manifest, out_dir / "manifest.json")
    print(f"wrote {manifest['totals']['questions']} trajectories -> {out_dir}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    # a trajectory is read for its final answer only, so none is kept
    answers = {t.question.id: t.final_answer
               for t in pipeline.load_trajectories(args.trajectories)}
    if not answers:
        raise EmptyRecords(f"--trajectories {args.trajectories}: "
                           "no trajectories")
    questions = evaluation.load_dataset(args.dataset, format=args.format)
    by_id: dict[str, Question] = {q.id: q for q in questions}

    missing = [qid for qid in answers if qid not in by_id]
    if missing:
        raise MalformedDataset(
            f"trajectory ids missing from dataset: {', '.join(missing)}")

    judge_llm = None
    library = None
    concurrency = 1
    progress = None
    if args.judge:
        config = Config.load(args.config)
        role = "llm" if config.judge_llm is None else "judge_llm"
        concurrency = config.pipeline.concurrency
        _require_serial(config, [role], "pipeline.concurrency", concurrency)
        judge_llm = getattr(config, role).client(role)
        library = config.templates.load()
        progress = Progress("judged")
    # made before any judge call, so an unusable --out costs none
    out_dir = Path(args.out) if args.out else Path(args.trajectories).parent
    out_dir.mkdir(parents=True, exist_ok=True)

    def score(item: tuple[str, str]) -> evaluation.EvalRecord:
        question, answer = by_id[item[0]], item[1]
        record = evaluation.score_prediction(question, answer)
        if judge_llm is None:
            return record
        verdict = evaluation.judge(judge_llm, library, question.text, answer,
                                   question.gold_answers[0])
        return replace(record, acc_judge=verdict)

    records = list(pipeline.map_ordered(score, answers.items(), len(answers),
                                        concurrency, progress))

    summary = evaluation.aggregate(records)
    evaluation.write_records_csv(records, out_dir / "records.csv")
    write_json(summary, out_dir / "summary.json")

    line = f"Acc {summary['acc']:.2f}  F1 {summary['f1']:.2f}"
    if summary["acc_judge"] is not None:
        line += f"  Acc† {summary['acc_judge']:.2f}"
    print(line)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    config = Config.load(args.config)
    _require_serial(config, ["student_llm", "teacher_llm"],
                    "synthesis.concurrency", config.synthesis.concurrency)
    student = config.student_llm.client("student_llm")
    teacher = config.teacher_llm.client("teacher_llm")
    library = config.templates.load()
    if config.templates.dir is not None:
        retired = Path(config.templates.dir, "synthesis_teacher.txt")
        if retired.exists():
            raise ConfigError(f"templates.dir holds {retired}, which synth "
                              "no longer reads: the teacher is sent "
                              "grounding.txt, so move any edits there")
    reasons: Counter[str | None] = Counter()  # None counts the kept ones

    def count(example: distill.TrainingExample) -> distill.TrainingExample:
        reasons[example.verdict.reason] += 1
        return example

    # two reads of --input by path: the first parses and counts every
    # input, keeping none, so a bad line exits before any call; the second
    # streams that many through the pool's look-ahead, then counts the rest
    if not stat.S_ISREG(os.stat(args.input).st_mode):
        raise ConfigError(f"--input {args.input}: synth reads its inputs "
                          "twice, so they must come from a file, not a pipe")
    if os.path.exists(args.out) and os.path.samefile(args.input, args.out):
        raise ConfigError(f"--out {args.out} is the --input file, which "
                          "synth reads twice, so it cannot write there")
    total = sum(1 for _ in distill.load_synthesis_inputs(args.input))
    if not total:
        raise EmptyRecords(f"--input {args.input}: no synthesis inputs")
    inputs = distill.load_synthesis_inputs(args.input)
    stream = distill.synthesize_stream(
        islice(inputs, total), total, student, teacher, library,
        seed=args.seed, batch_size=config.pipeline.batch_size,
        config=config.synthesis,
        progress=Progress("synthesized"))
    written = distill.emit_corpus(map(count, stream), args.out,
                                  include_dropped=args.include_dropped)
    second = sum(reasons.values()) + sum(1 for _ in inputs)
    if second != total:
        raise MalformedDataset(
            f"--input {args.input}: {total} inputs on the first read, "
            f"{second} on the second; the file changed while synth ran")
    kept = reasons.pop(None, 0)
    print(f"kept {kept}/{total} examples "
          f"(dropped: {json.dumps(reasons, sort_keys=True)}); "
          f"wrote {written} lines -> {args.out}")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    stats = distill.dataset_stats(
        e for e in distill.load_training_corpus(args.corpus) if e.verdict.keep)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopground",
        description="Iterative deduce-and-ground multi-hop question answering.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and persist a BM25 index cache")
    p.add_argument("--corpus", required=True, help="corpus JSONL (id, title, body)")
    p.add_argument("--out", required=True, help="index cache file to write")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("run", help="answer a dataset of questions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", default="generic",
                   choices=evaluation.DATASET_FORMATS)
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a trajectory file against a dataset")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", default="generic",
                   choices=evaluation.DATASET_FORMATS)
    p.add_argument("--judge", action="store_true",
                   help="also run the LLM judge (needs --config)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None, help="report directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="synthesize the grounding training corpus")
    p.add_argument("--input", required=True, help="synthesis inputs JSONL")
    p.add_argument("--out", required=True, help="corpus JSONL to write")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--include-dropped", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="describe an emitted training corpus")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedDataset, RetrievalError, EmptyRecords) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except (ConfigError, LlmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
