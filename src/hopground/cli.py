"""Command-line entry points: index, run, eval, synth, stats.

Configuration lives in one JSON file (see README for the schema); CLI flags
override file values, which override defaults.  Exit codes: 0 = run
completed (even with per-question failures), 1 = configuration or IO error,
2 = malformed or empty dataset/corpus input.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

from . import distill, evaluation, pipeline, retrieval
from .core import (ConfigRecord, Question, Termination, TokenCounts,
                   Trajectory, write_json)
from .distill import SynthesisConfig
from .errors import (ConfigError, EmptyRecords, InvalidRecord, LlmError,
                     MalformedDataset, RetrievalError)
from .llm import LlmConfig, RecordingClient
from .pipeline import PipelineConfig, RetrievalConfig
from .prompts import TemplatesConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATASET = 2

_C = TypeVar("_C", bound=ConfigRecord)


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
                return cls.from_dict(json.load(f))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except InvalidRecord as exc:
            raise ConfigError(f"config {path}: {exc}") from exc
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _with_flags(section: _C, **flags: Any) -> _C:
    """``section`` with each flag that was given (not None) in place of its
    field; a value out of range names its flag."""
    try:
        return replace(section, **{key: value for key, value in flags.items()
                                   if value is not None})
    except InvalidRecord as exc:  # its message starts with the field name
        key, rest = str(exc).split(" ", 1)
        raise ConfigError(f"--{key.replace('_', '-')} {rest}") from exc


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

    The rate counts the completions after the first over the time since
    the first, so the first line has none, and the last has no ETA.
    """

    def __init__(self, verb: str, clock: Callable[[], float] = time.monotonic):
        self.verb = verb
        self.clock = clock
        self.first: float | None = None

    def line(self, done: int, total: int) -> str:
        now = self.clock()
        if self.first is None:
            self.first = now
        head = f"{self.verb} {done}/{total}"
        if done == 1 or now <= self.first:
            return head
        rate = (done - 1) / (now - self.first)
        if done == total:
            return f"{head} ({rate:.1f}/s)"
        return f"{head} ({rate:.1f}/s, ETA {(total - done) / rate:.0f} s)"

    def __call__(self, done: int, total: int) -> None:
        print(self.line(done, total), file=sys.stderr)


@dataclass
class RunTotals:
    """The manifest's totals, summed over trajectories as they pass."""

    questions: int = 0
    hops: int = 0
    tokens: TokenCounts = TokenCounts()
    terminations: dict[str, int] = field(
        default_factory=lambda: {t.value: 0 for t in Termination})

    def add(self, trajectory: Trajectory) -> Trajectory:
        self.questions += 1
        self.hops += len(trajectory.hops)
        self.tokens += trajectory.token_usage.total
        self.terminations[trajectory.termination.value] += 1
        return trajectory


def run_manifest(pipe_config: pipeline.PipelineConfig,
                 templates_dir: str | None, dataset_path: str,
                 dataset_format: str, started_at: str,
                 totals: RunTotals, llm_calls: int) -> dict[str, Any]:
    """Snapshot of one run: configuration, provenance, and totals.

    Totals are sums over the trajectories, whose token totals count every
    call, failed retries included.  Only ``llm_calls`` comes from the
    run-wide call recorder.
    """
    return {
        "config": {
            "pipeline": pipe_config.to_dict(),
            "templates_dir": templates_dir,
            "retriever": pipe_config.retriever,
        },
        "dataset_path": dataset_path,
        "dataset_format": dataset_format,
        "started_at": started_at,
        "finished_at": _utc_now(),
        "totals": {
            "questions": totals.questions,
            "hops": totals.hops,
            "llm_calls": llm_calls,
            "prompt_tokens": totals.tokens.prompt_tokens,
            "completion_tokens": totals.tokens.completion_tokens,
            "terminations": totals.terminations,
            "failures": totals.terminations[Termination.PARSE_FAILURE.value],
        },
    }


# --- subcommands ---

def cmd_index(args: argparse.Namespace) -> int:
    try:
        retrieval.bm25.check_params(args.k1, args.b)
    except ValueError as exc:  # its message starts with the parameter name
        raise ConfigError(f"--{exc}") from exc
    # the build parses the corpus file one document at a time and keeps
    # none, so no document list is held at the build's peak
    index = retrieval.build_index(retrieval.load_corpus(args.corpus),
                                  k1=args.k1, b=args.b)
    retrieval.save_index(index, args.out)
    print(f"indexed {len(index)} documents -> {args.out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = Config.load(args.config)
    pipe_config = _with_flags(
        config.pipeline, max_hops=args.max_hops, top_k=args.top_k,
        batch_size=args.batch_size, concurrency=args.concurrency,
        strict_citation=args.strict_citation or None)
    _require_serial(config, ["llm"], "pipeline.concurrency",
                    pipe_config.concurrency)
    templates = _with_flags(config.templates, dir=args.templates)
    library = templates.load()
    llm = config.llm.client("llm")
    retriever = config.retrieval.retriever(pipe_config.retriever)
    questions = evaluation.load_dataset(args.dataset, format=args.format)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started_at = _utc_now()

    recorder = RecordingClient(llm)
    totals = RunTotals()
    stream = pipeline.answer_stream(questions, pipe_config, recorder,
                                    retriever, library, Progress("answered"))
    pipeline.write_trajectories(map(totals.add, stream),
                                out_dir / "trajectories.jsonl")

    write_json(run_manifest(
        pipe_config, templates_dir=templates.dir,
        dataset_path=str(args.dataset), dataset_format=args.format,
        started_at=started_at, totals=totals,
        llm_calls=recorder.calls), out_dir / "manifest.json")
    print(f"wrote {totals.questions} trajectories -> {out_dir}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    trajectories = pipeline.load_trajectories(args.trajectories)
    questions = evaluation.load_dataset(args.dataset, format=args.format)
    by_id: dict[str, Question] = {q.id: q for q in questions}

    missing = [t.question.id for t in trajectories if t.question.id not in by_id]
    if missing:
        print(f"trajectory ids missing from dataset: {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_DATASET

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

    def score(traj: Trajectory) -> evaluation.EvalRecord:
        question = by_id[traj.question.id]
        record = evaluation.score_prediction(question, traj.final_answer)
        if judge_llm is None:
            return record
        if not traj.final_answer.strip():
            verdict = "no"  # nothing to imply anything
        else:
            verdict = evaluation.judge(judge_llm, library, question.text,
                                       traj.final_answer,
                                       question.gold_answers[0])
        return replace(record, acc_judge=verdict)

    records = list(pipeline.map_ordered(score, trajectories, concurrency,
                                        progress))

    summary = evaluation.aggregate(records)
    out_dir = Path(args.out) if args.out else Path(args.trajectories).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    evaluation.write_records_csv(records, out_dir / "records.csv")
    write_json(summary, out_dir / "summary.json")

    line = f"Acc {summary['acc']:.2f}  F1 {summary['f1']:.2f}"
    if summary["acc_judge"] is not None:
        line += f"  Acc† {summary['acc_judge']:.2f}"
    print(line)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    config = Config.load(args.config)
    synthesis = _with_flags(config.synthesis, noise_docs=args.noise_docs)
    _require_serial(config, ["student_llm", "teacher_llm"],
                    "synthesis.concurrency", synthesis.concurrency)
    student = config.student_llm.client("student_llm")
    teacher = config.teacher_llm.client("teacher_llm")
    library = _with_flags(config.templates, dir=args.templates).load()
    inputs = distill.load_synthesis_inputs(args.input)

    stream = distill.synthesize_stream(
        inputs, student, teacher, library, seed=args.seed,
        max_noise_docs=synthesis.noise_docs,
        concurrency=synthesis.concurrency, progress=Progress("synthesized"))
    reasons: Counter[str | None] = Counter()  # None counts the kept ones

    def count(example: distill.TrainingExample) -> distill.TrainingExample:
        reasons[example.verdict.reason] += 1
        return example

    written = distill.emit_corpus(map(count, stream), args.out,
                                  include_dropped=args.include_dropped)
    kept = reasons.pop(None, 0)
    print(f"kept {kept}/{len(inputs)} examples "
          f"(dropped: {json.dumps(reasons, sort_keys=True)}); "
          f"wrote {written} lines -> {args.out}")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    examples = [e for e in distill.load_training_corpus(args.corpus)
                if e.verdict.keep]
    stats = distill.dataset_stats(examples)
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
    p.add_argument("--k1", type=float, default=retrieval.DEFAULT_K1)
    p.add_argument("--b", type=float, default=retrieval.DEFAULT_B)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("run", help="answer a dataset of questions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", default="generic",
                   choices=evaluation.DATASET_FORMATS)
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-hops", type=int, default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--concurrency", type=int, default=None)
    p.add_argument("--strict-citation", action="store_true")
    p.add_argument("--templates", default=None, help="template directory override")
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
    p.add_argument("--noise-docs", type=int, default=None)
    p.add_argument("--templates", default=None)
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
