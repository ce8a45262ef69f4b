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
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import distill, evaluation, pipeline, retrieval
from .core import (Question, Termination, TokenCounts, Trajectory,
                   require_int, require_keys, write_json)
from .errors import (EmptyRecords, HopgroundError, InvalidRecord, LlmError,
                     MalformedDataset, PromptError, RetrievalError)
from .llm import LlmClient, OpenAIChatClient, RecordingClient, ScriptedClient
from .prompts import TemplateLibrary
from .retrieval import bm25

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATASET = 2


class ConfigError(HopgroundError):
    pass


# "max_concurrency" is kept so that _make_llm can name its replacement
_LLM_KEYS = frozenset({"backend", "script_path", "base_url", "model",
                       "api_key_env", "timeout", "max_attempts",
                       "max_concurrency"})
# the keys each config section may set; the top level holds sections only
CONFIG_KEYS: dict[str, frozenset[str]] = {
    "pipeline": frozenset(f.name for f in fields(pipeline.PipelineConfig)),
    "retrieval": frozenset({"index_path", "corpus_path", "external_endpoint",
                            "timeout"}),
    "templates": frozenset({"dir", "num_examples", "doc_char_budget"}),
    "synthesis": frozenset({"noise_docs", "concurrency"}),
    **dict.fromkeys(("llm", "judge_llm", "student_llm", "teacher_llm"),
                    _LLM_KEYS),
}


def _load_config(path: str | None) -> dict[str, Any]:
    """The config file as a dict; an unknown key in it is a ``ConfigError``."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            config = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    try:
        require_keys(config, CONFIG_KEYS)
        for name, section in config.items():
            if isinstance(section, dict):  # _section rejects any other type
                require_keys(section, CONFIG_KEYS[name], f"{name}.")
    except InvalidRecord as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    return config


def _section(config: Mapping[str, Any], name: str) -> dict[str, Any]:
    """The config's ``name`` section, ``{}`` when absent; it must be an
    object."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    return section


def _given(section: Mapping[str, Any], *keys: str) -> dict[str, Any]:
    """The ``keys`` that ``section`` sets, so that every other one keeps
    the default of the function it is passed to."""
    return {key: section[key] for key in keys if key in section}


def _make_llm(section: Mapping[str, Any], role: str) -> LlmClient:
    if "max_concurrency" in section:
        raise ConfigError(
            f"{role}.max_concurrency is no longer supported: requests in "
            "flight are limited by pipeline.concurrency alone "
            "(synthesis.concurrency for synth)")
    backend = section.get("backend")
    if backend == "scripted":
        try:
            return ScriptedClient.from_file(section["script_path"])
        except (KeyError, OSError, ValueError) as exc:
            raise ConfigError(f"{role}: bad scripted backend: {exc}") from exc
    if backend == "openai":
        base_url = os.environ.get("HOPGROUND_BASE_URL") or section.get("base_url")
        model = section.get("model")
        if not base_url or not model:
            raise ConfigError(f"{role}: openai backend needs base_url and model")
        try:
            return OpenAIChatClient(
                base_url=base_url, model=model,
                **_given(section, "api_key_env", "timeout", "max_attempts"))
        except ValueError as exc:
            raise ConfigError(f"{role}: {exc}") from exc
    raise ConfigError(f"{role}: backend must be 'openai' or 'scripted'")


def _make_templates(config: Mapping[str, Any],
                    templates_dir: str | None) -> TemplateLibrary:
    section = _section(config, "templates")
    directory = templates_dir or section.get("dir")
    try:
        return TemplateLibrary.load(
            directory, **_given(section, "num_examples", "doc_char_budget"))
    except (OSError, PromptError, ValueError) as exc:
        raise ConfigError(f"cannot load templates: {exc}") from exc


def _make_retriever(config: Mapping[str, Any],
                    pipe_config: pipeline.PipelineConfig) -> pipeline.Retriever:
    section = _section(config, "retrieval")
    if pipe_config.retriever == "external":
        endpoint = section.get("external_endpoint")
        if not endpoint:
            raise ConfigError("external retriever needs retrieval.external_endpoint")
        try:
            return pipeline.ExternalRetriever(endpoint=endpoint,
                                              **_given(section, "timeout"))
        except ValueError as exc:
            raise ConfigError(f"retrieval: {exc}") from exc
    index_path = section.get("index_path")
    corpus_path = section.get("corpus_path")
    try:
        if index_path:
            index = retrieval.load_index(index_path)
        elif corpus_path:
            index = retrieval.build_index(retrieval.load_corpus(corpus_path))
        else:
            raise ConfigError(
                "bm25 retriever needs retrieval.index_path or retrieval.corpus_path")
    except (OSError, RetrievalError, ValueError) as exc:
        raise ConfigError(f"cannot prepare bm25 index: {exc}") from exc
    return pipeline.BM25Retriever(index)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def run_manifest(pipe_config: pipeline.PipelineConfig,
                 templates_dir: str | None, dataset_path: str,
                 dataset_format: str, started_at: str,
                 trajectories: Sequence[Trajectory],
                 llm_calls: int) -> dict[str, Any]:
    """Snapshot of one run: configuration, provenance, and totals.

    Totals are sums over the trajectories, whose token totals count every
    call, failed retries included.  Only ``llm_calls`` comes from the
    run-wide call recorder.
    """
    terminations = {t.value: 0 for t in Termination}
    for traj in trajectories:
        terminations[traj.termination.value] += 1
    tokens = sum((t.token_usage.total for t in trajectories), TokenCounts())
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
            "questions": len(trajectories),
            "hops": sum(len(t.hops) for t in trajectories),
            "llm_calls": llm_calls,
            "prompt_tokens": tokens.prompt_tokens,
            "completion_tokens": tokens.completion_tokens,
            "terminations": terminations,
            "failures": terminations[Termination.PARSE_FAILURE.value],
        },
    }


# --- subcommands ---

def cmd_index(args: argparse.Namespace) -> int:
    try:
        bm25.check_params(args.k1, args.b)
    except ValueError as exc:  # its message starts with the parameter name
        raise ConfigError(f"--{exc}") from exc
    # no name holds the corpus, so its documents are freed before the save
    index = retrieval.build_index(retrieval.load_corpus(args.corpus),
                                  k1=args.k1, b=args.b)
    retrieval.save_index(index, args.out)
    print(f"indexed {len(index)} documents -> {args.out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    pipe_section = dict(_section(config, "pipeline"))
    for key, value in (("max_hops", args.max_hops), ("top_k", args.top_k),
                       ("batch_size", args.batch_size),
                       ("concurrency", args.concurrency)):
        if value is not None:
            pipe_section[key] = value
    if args.strict_citation:
        pipe_section["strict_citation"] = True
    try:
        pipe_config = pipeline.PipelineConfig.from_dict(pipe_section)
    except ValueError as exc:
        raise ConfigError(f"bad pipeline configuration: {exc}") from exc

    library = _make_templates(config, args.templates)
    llm = _make_llm(_section(config, "llm"), "llm")
    retriever = _make_retriever(config, pipe_config)
    questions = evaluation.load_dataset(args.dataset, format=args.format)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started_at = _utc_now()

    recorder = RecordingClient(llm)
    trajectories = pipeline.answer_dataset(
        questions, pipe_config, recorder, retriever, library,
        progress=lambda done, total: print(f"answered {done}/{total}",
                                           file=sys.stderr))
    pipeline.write_trajectories(trajectories, out_dir / "trajectories.jsonl")

    write_json(run_manifest(
        pipe_config,
        templates_dir=args.templates or _section(config, "templates").get("dir"),
        dataset_path=str(args.dataset), dataset_format=args.format,
        started_at=started_at, trajectories=trajectories,
        llm_calls=recorder.calls), out_dir / "manifest.json")
    print(f"wrote {len(trajectories)} trajectories -> {out_dir}")
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
    if args.judge:
        config = _load_config(args.config)
        judge_llm = _make_llm(
            _section(config, "judge_llm" if "judge_llm" in config else "llm"),
            "judge_llm")
        library = _make_templates(config, None)

    records = []
    for traj in trajectories:
        question = by_id[traj.question.id]
        record = evaluation.score_prediction(question, traj.final_answer)
        if judge_llm is not None:
            if not traj.final_answer.strip():
                verdict = "no"  # nothing to imply anything
            else:
                verdict = evaluation.judge(judge_llm, library, question.text,
                                           traj.final_answer,
                                           question.gold_answers[0])
            record = evaluation.EvalRecord(
                question_id=record.question_id, prediction=record.prediction,
                gold_answers=record.gold_answers, acc=record.acc, f1=record.f1,
                acc_judge=verdict)
        records.append(record)

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
    config = _load_config(args.config)
    synth_section = _section(config, "synthesis")
    try:
        for key, minimum in (("noise_docs", 0), ("concurrency", 1)):
            if key in synth_section:
                require_int(synth_section[key], f"synthesis.{key}", minimum)
        if args.noise_docs is not None:
            require_int(args.noise_docs, "--noise-docs", 0)
    except InvalidRecord as exc:
        raise ConfigError(str(exc)) from exc
    student = _make_llm(_section(config, "student_llm"), "student_llm")
    teacher = _make_llm(_section(config, "teacher_llm"), "teacher_llm")
    library = _make_templates(config, args.templates)
    inputs = distill.load_synthesis_inputs(args.input)

    examples = distill.synthesize_dataset(
        inputs, student, teacher, library, seed=args.seed,
        max_noise_docs=(args.noise_docs if args.noise_docs is not None
                        else synth_section.get("noise_docs",
                                               distill.DEFAULT_NOISE_DOCS)),
        **_given(synth_section, "concurrency"),
        progress=lambda done, total: print(f"synthesized {done}/{total}",
                                           file=sys.stderr))
    written = distill.emit_corpus(examples, args.out,
                                  include_dropped=args.include_dropped)

    kept = sum(1 for e in examples if e.verdict.keep)
    reasons: dict[str, int] = {}
    for example in examples:
        if not example.verdict.keep:
            reasons[example.verdict.reason] = reasons.get(example.verdict.reason, 0) + 1
    print(f"kept {kept}/{len(examples)} examples "
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
    p.add_argument("--k1", type=float, default=bm25.DEFAULT_K1)
    p.add_argument("--b", type=float, default=bm25.DEFAULT_B)
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
