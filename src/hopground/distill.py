"""Training-corpus synthesis for grounding distillation.

For each single-hop input question, a student model produces an immediate
answer, a teacher model revises it against the gold document hidden among
noise documents, and heuristic filters drop low-quality teacher outputs.
The kept (instruction, target) pairs form the instruction-tuning corpus.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .core import (ConfigRecord, Count, DecodingParams, Document,
                   GroundingKind, PositiveInt, Question, Record, expect_type,
                   read_jsonl, scalar_text, write_jsonl)
from .errors import (EmptyRecords, InvalidRecord, LlmError, MalformedGrounding,
                     MissingRevision)
from .evaluation import cover_em
from .grounding import parse_grounding
from .llm import ChatMessage, LlmClient
from .pipeline import map_ordered
from .prompts import TemplateLibrary, render_synthesis_teacher
from .retrieval.corpus import parse_document

log = logging.getLogger(__name__)

DROP_EMPTY_EVIDENCE = "empty_evidence"
DROP_MISSING_REVISION = "missing_revision"
DROP_MISALIGNED = "misaligned"
DROP_LLM_ERROR = "llm_error"

DEFAULT_NOISE_DOCS = 9  # gold + 9 mirrors top-10 retrieval at inference


@dataclass(frozen=True)
class SynthesisConfig(ConfigRecord, section="synthesis"):
    noise_docs: Count = DEFAULT_NOISE_DOCS
    concurrency: PositiveInt = 1


@dataclass(frozen=True)
class Verdict:
    keep: bool
    reason: str | None = None

    @classmethod
    def kept(cls) -> "Verdict":
        return cls(keep=True)

    @classmethod
    def drop(cls, reason: str) -> "Verdict":
        return cls(keep=False, reason=reason)


@dataclass(frozen=True)
class SynthesisInput:
    """One single-hop question with its gold document and noise documents."""

    question: Question
    gold_doc: Document
    noise_docs: tuple[Document, ...]

    def __post_init__(self):
        if len(self.question.gold_answers) != 1:
            raise ValueError("synthesis questions need exactly one gold answer")
        object.__setattr__(self, "noise_docs", tuple(self.noise_docs))

    @property
    def gold_answer(self) -> str:
        return self.question.gold_answers[0]


@dataclass(frozen=True)
class TrainingExample(Record):
    """One synthesized pair: grounding instruction -> teacher trajectory."""

    instruction: str
    documents: tuple[Document, ...]
    immediate_answer: str
    target: str
    gold_doc_id: str
    gold_position: PositiveInt  # 1-based slot of the gold document
    verdict: Verdict

    def __post_init__(self):
        super().__post_init__()
        if self.gold_position > len(self.documents):
            raise InvalidRecord(
                f"gold_position {self.gold_position} is past the last of "
                f"{len(self.documents)} documents")

    def to_dict(self, include_verdict: bool = False) -> dict[str, Any]:
        """The record's JSON object, whose verdict is written only when
        asked for, as ``verdict`` ("keep" or "drop") and ``drop_reason``."""
        d = super().to_dict()
        verdict = d.pop("verdict")
        if include_verdict:
            d["verdict"] = "keep" if verdict.keep else "drop"
            d["drop_reason"] = verdict.reason
        return d

    @classmethod
    def from_dict(cls, d: Any) -> "TrainingExample":
        expect_type(d, dict, cls.__name__)
        verdict = (Verdict.kept() if d.get("verdict", "keep") == "keep"
                   else Verdict.drop(d.get("drop_reason") or "unknown"))
        return super().from_dict({**d, "verdict": verdict})


def apply_filters(target: str, gold_answer: str, gold_doc: Document) -> Verdict:
    """Quality-filter one teacher output; first failing rule wins.

    The output is read by ``parse_grounding``, the parser inference uses.
    Rules, in order: no usable evidence span (missing ref tags, blank, or
    the Empty signal); no usable revision span; revised answer fails
    cover-EM against the gold answer.  The gold document rides along for
    signature stability; alignment is checked against the gold answer.
    """
    try:
        outcome = parse_grounding(target)
    except MissingRevision:
        return Verdict.drop(DROP_MISSING_REVISION)
    except MalformedGrounding:
        return Verdict.drop(DROP_EMPTY_EVIDENCE)
    if outcome.kind is GroundingKind.EMPTY:
        return Verdict.drop(DROP_EMPTY_EVIDENCE)
    if not cover_em(outcome.revised_answer, [gold_answer]):
        return Verdict.drop(DROP_MISALIGNED)
    return Verdict.kept()


def place_gold(gold_doc: Document, noise_docs: Sequence[Document],
               position: int) -> tuple[Document, ...]:
    """Insert the gold document at a 1-based ``position`` among the noise."""
    if not 1 <= position <= len(noise_docs) + 1:
        raise ValueError("gold position out of range")
    docs = list(noise_docs)
    docs.insert(position - 1, gold_doc)
    return tuple(docs)


def synthesize_example(inp: SynthesisInput, student_llm: LlmClient,
                       teacher_llm: LlmClient, library: TemplateLibrary,
                       gold_position: int,
                       params: DecodingParams = DecodingParams(),
                       ) -> TrainingExample:
    """Synthesize one training example.

    The student sees the bare question; the teacher sees the grounding
    instruction over the shuffled document list.  LLM failures yield a
    Drop(llm_error) example rather than raising.
    """
    documents = place_gold(inp.gold_doc, inp.noise_docs, gold_position)

    immediate_answer = ""
    target = ""
    try:
        student_reply = student_llm.complete(
            [ChatMessage(role="user", content=inp.question.text)], params)
        immediate_answer = student_reply.text.strip()
        instruction = render_synthesis_teacher(
            library, inp.question.text, immediate_answer, documents)[0].content
        target = teacher_llm.complete(
            [ChatMessage(role="user", content=instruction)], params).text
        verdict = apply_filters(target, inp.gold_answer, inp.gold_doc)
    except LlmError as exc:
        log.warning("question %s: synthesis failed: %s", inp.question.id, exc)
        instruction = render_synthesis_teacher(
            library, inp.question.text, immediate_answer, documents)[0].content
        verdict = Verdict.drop(DROP_LLM_ERROR)

    return TrainingExample(
        instruction=instruction,
        documents=documents,
        immediate_answer=immediate_answer,
        target=target,
        gold_doc_id=inp.gold_doc.id,
        gold_position=gold_position,
        verdict=verdict,
    )


def synthesize_stream(inputs: Sequence[SynthesisInput],
                      student_llm: LlmClient, teacher_llm: LlmClient,
                      library: TemplateLibrary, seed: int,
                      params: DecodingParams = DecodingParams(),
                      max_noise_docs: int = DEFAULT_NOISE_DOCS,
                      concurrency: int = 1,
                      progress: Callable[[int, int], None] | None = None,
                      ) -> Iterator[TrainingExample]:
    """Synthesize the corpus, yielding examples in input order as
    ``map_ordered`` does.

    ``progress(done, total)`` fires after each completed example.  Gold
    positions are drawn up front from one seeded RNG, so a fixed seed
    reproduces the corpus exactly (given scripted or temperature-0 models).
    """
    rng = random.Random(seed)
    trimmed = [replace(inp, noise_docs=inp.noise_docs[:max_noise_docs])
               for inp in inputs]
    positions = [rng.randint(1, len(inp.noise_docs) + 1) for inp in trimmed]

    def run_one(pair: tuple[SynthesisInput, int]) -> TrainingExample:
        inp, position = pair
        return synthesize_example(inp, student_llm, teacher_llm, library,
                                  position, params)

    return map_ordered(run_one, list(zip(trimmed, positions)), concurrency,
                       progress)


def synthesize_dataset(inputs: Sequence[SynthesisInput],
                       student_llm: LlmClient, teacher_llm: LlmClient,
                       library: TemplateLibrary, seed: int,
                       params: DecodingParams = DecodingParams(),
                       max_noise_docs: int = DEFAULT_NOISE_DOCS,
                       concurrency: int = 1,
                       progress: Callable[[int, int], None] | None = None,
                       ) -> list[TrainingExample]:
    """Every example of ``synthesize_stream``, as a list."""
    return list(synthesize_stream(inputs, student_llm, teacher_llm, library,
                                  seed, params, max_noise_docs, concurrency,
                                  progress))


def dataset_stats(examples: Sequence[TrainingExample]) -> dict[str, float]:
    """Corpus statistics in whitespace tokens, averaged to two decimals."""
    if not examples:
        raise EmptyRecords("no examples to describe")
    n = len(examples)

    def mean(values) -> float:
        return round(sum(values) / n, 2)

    return {
        "count": n,
        "avg_instruction_len": mean(len(e.instruction.split()) for e in examples),
        "avg_target_len": mean(len(e.target.split()) for e in examples),
        "avg_gold_docs": mean(1 if e.gold_doc_id else 0 for e in examples),
        "avg_gold_doc_len": mean(
            len(e.documents[e.gold_position - 1].body.split()) for e in examples),
    }


def emit_corpus(examples: Iterable[TrainingExample], path: str | Path,
                include_dropped: bool = False) -> int:
    """Write the corpus JSONL, each line as soon as ``examples`` yields it;
    Keep examples only unless ``include_dropped``.

    Returns the number of lines written.
    """
    return write_jsonl(
        (example.to_dict(include_verdict=include_dropped)
         for example in examples if example.verdict.keep or include_dropped),
        path)


def load_training_corpus(path: str | Path) -> list[TrainingExample]:
    """Reload an emitted corpus file; a bad line raises ``MalformedDataset``."""
    return list(read_jsonl(
        path, lambda record, _: TrainingExample.from_dict(record)))


def load_synthesis_inputs(path: str | Path) -> list[SynthesisInput]:
    """Read synthesis inputs: JSONL of
    ``{id, question, answer, gold_doc: {...}, noise_docs: [...]}``, each
    document read as a corpus line is (``corpus.parse_document``)."""
    return list(read_jsonl(path, lambda record, _: SynthesisInput(
        question=Question(id=scalar_text(record["id"], "id"),
                          text=record["question"],
                          gold_answers=(scalar_text(record["answer"], "answer"),)),
        gold_doc=parse_document(record["gold_doc"]),
        noise_docs=tuple(map(parse_document, record.get("noise_docs", []))))))
