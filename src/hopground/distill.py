"""Training-corpus synthesis for grounding distillation.

For each single-hop input question, a student model produces an immediate
answer, a teacher model revises it in the grounding prompt inference sends,
over one window that hides the gold document among noise documents, and
heuristic filters drop low-quality teacher outputs.  The kept (instruction,
target) pairs form the instruction-tuning corpus.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .core import (ConfigRecord, DecodingParams, Document, PositiveInt,
                   Question, Record, expect_type, read_jsonl, scalar_text,
                   write_jsonl)
from .errors import (EmptyRecords, InvalidRecord, LlmError, MalformedGrounding,
                     MissingRevision)
from .evaluation import cover_em
from .grounding import parse_grounding
from .llm import ChatMessage, LlmClient
from .pipeline import PipelineConfig, map_ordered
from .prompts import TemplateLibrary, render_grounding
from .retrieval.corpus import parse_document

log = logging.getLogger(__name__)

DROP_EMPTY_EVIDENCE = "empty_evidence"
DROP_MISSING_REVISION = "missing_revision"
DROP_MISALIGNED = "misaligned"
DROP_LLM_ERROR = "llm_error"


@dataclass(frozen=True)
class SynthesisConfig(ConfigRecord, section="synthesis"):
    concurrency: PositiveInt = 1


@dataclass(frozen=True)
class Verdict:
    """The filters' verdict on one example: ``Verdict()`` keeps it, and
    ``Verdict(reason)`` drops it for the first filter it failed."""

    reason: str | None = None

    @property
    def keep(self) -> bool:
        return self.reason is None


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
    """One synthesized pair: grounding instruction -> teacher trajectory.

    ``doc_ids`` are the ids of the documents in the order the instruction
    numbers them, the gold one at ``gold_position``.  Nothing else of a
    document is stored: the instruction renders every title and body, and
    the synthesis inputs file holds each document under its id.  A key
    that names no field, such as the ``gold_body`` of a line that earlier
    versions wrote, is ignored.
    """

    instruction: str
    doc_ids: tuple[str, ...]
    gold_position: PositiveInt  # 1-based slot of the gold document
    immediate_answer: str
    target: str
    verdict: Verdict

    def __post_init__(self):
        super().__post_init__()
        if self.gold_position > len(self.doc_ids):
            raise InvalidRecord(
                f"gold_position {self.gold_position} is past the last of "
                f"{len(self.doc_ids)} documents")

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
        label = d.get("verdict", "keep")
        if label not in ("keep", "drop"):
            raise InvalidRecord(
                f"verdict must be 'keep' or 'drop', got {label!r}")
        reason = d.get("drop_reason")
        if label == "keep":
            if reason is not None:
                raise InvalidRecord("drop_reason must be null on a kept "
                                    f"example, got {reason!r}")
            verdict = Verdict()
        elif isinstance(reason, str) and reason.strip():
            verdict = Verdict(reason)
        else:
            raise InvalidRecord("drop_reason must be a non-blank string on a "
                                f"dropped example, got {reason!r}")
        return super().from_dict({**d, "verdict": verdict})


def apply_filters(target: str, gold_answer: str) -> Verdict:
    """Quality-filter one teacher output; first failing rule wins.

    The output is read by ``parse_grounding``, the parser inference uses.
    Rules, in order: no usable evidence span (missing ref tags, blank, or
    the Empty signal); no usable revision span; revised answer fails
    cover-EM against the gold answer.
    """
    try:
        _, revised = parse_grounding(target)
    except MissingRevision:
        return Verdict(DROP_MISSING_REVISION)
    except MalformedGrounding:
        return Verdict(DROP_EMPTY_EVIDENCE)
    if revised is None:  # the Empty signal
        return Verdict(DROP_EMPTY_EVIDENCE)
    if not cover_em(revised, [gold_answer]):
        return Verdict(DROP_MISALIGNED)
    return Verdict()


def place_gold(gold_doc: Document, noise_docs: Sequence[Document],
               position: int) -> tuple[Document, ...]:
    """Insert the gold document at a 1-based ``position`` among the noise."""
    if not 1 <= position <= len(noise_docs) + 1:
        raise ValueError("gold position out of range")
    docs = list(noise_docs)
    docs.insert(position - 1, gold_doc)
    return tuple(docs)


def render_synthesis_teacher(library: TemplateLibrary, question: Question,
                             immediate_answer: str,
                             window: Sequence[Document]) -> list[ChatMessage]:
    """The teacher's prompt: the grounding prompt inference sends over one
    window, with the single-hop question as its own sub-question."""
    return render_grounding(library, question, question.text,
                            immediate_answer, window)


def synthesize_example(inp: SynthesisInput, student_llm: LlmClient,
                       teacher_llm: LlmClient, library: TemplateLibrary,
                       gold_position: int) -> TrainingExample:
    """Synthesize one training example.

    The student sees the bare question; the teacher sees the grounding
    prompt over the gold document placed among the noise.  LLM failures
    yield a Drop(llm_error) example rather than raising.
    """
    documents = place_gold(inp.gold_doc, inp.noise_docs, gold_position)

    immediate_answer = ""
    target = ""
    teacher_messages = None
    try:
        student_reply = student_llm.complete(
            [ChatMessage(role="user", content=inp.question.text)],
            DecodingParams())
        immediate_answer = student_reply.text.strip()
        teacher_messages = render_synthesis_teacher(
            library, inp.question, immediate_answer, documents)
        target = teacher_llm.complete(teacher_messages, DecodingParams()).text
        verdict = apply_filters(target, inp.gold_answer)
    except LlmError as exc:
        log.warning("question %s: synthesis failed: %s", inp.question.id, exc)
        if teacher_messages is None:  # the student failed: no answer to show
            teacher_messages = render_synthesis_teacher(
                library, inp.question, immediate_answer, documents)
        verdict = Verdict(DROP_LLM_ERROR)

    return TrainingExample(
        instruction=teacher_messages[0].content,
        doc_ids=tuple(d.id for d in documents),
        gold_position=gold_position,
        immediate_answer=immediate_answer,
        target=target,
        verdict=verdict,
    )


def synthesize_stream(inputs: Iterable[SynthesisInput], total: int,
                      student_llm: LlmClient, teacher_llm: LlmClient,
                      library: TemplateLibrary, seed: int,
                      batch_size: int = PipelineConfig.batch_size,
                      config: SynthesisConfig = SynthesisConfig(),
                      progress: Callable[[int, int], None] | None = None,
                      ) -> Iterator[TrainingExample]:
    """Synthesize the corpus of the ``total`` inputs ``inputs`` yields,
    yielding examples in input order as ``map_ordered`` does, which pulls
    an input only as it starts it.

    Each input is one inference window of ``batch_size`` documents: the
    gold document and the input's first ``batch_size - 1`` noise documents.
    ``progress(done, total)`` fires after each completed example.  Gold
    positions are drawn from one seeded RNG as the inputs are pulled, in
    input order, so a fixed seed reproduces the corpus exactly (given
    scripted or temperature-0 models).
    """
    rng = random.Random(seed)

    def placed() -> Iterator[tuple[SynthesisInput, int]]:
        for inp in inputs:
            noise_docs = inp.noise_docs[:batch_size - 1]
            yield (replace(inp, noise_docs=noise_docs),
                   rng.randint(1, len(noise_docs) + 1))

    def run_one(pair: tuple[SynthesisInput, int]) -> TrainingExample:
        inp, position = pair
        return synthesize_example(inp, student_llm, teacher_llm, library,
                                  position)

    return map_ordered(run_one, placed(), total, config.concurrency, progress)


def dataset_stats(examples: Iterable[TrainingExample]) -> dict[str, float]:
    """Corpus statistics in whitespace tokens, averaged to two decimals.

    ``examples`` is read once, keeping only integer running sums, so a
    streamed corpus is described in constant memory.
    """
    n = instruction = target = 0
    for e in examples:
        n += 1
        instruction += len(e.instruction.split())
        target += len(e.target.split())
    if not n:
        raise EmptyRecords("no examples to describe")
    return {
        "count": n,
        "avg_instruction_len": round(instruction / n, 2),
        "avg_target_len": round(target / n, 2),
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


def load_training_corpus(path: str | Path) -> Iterator[TrainingExample]:
    """Yield the examples of an emitted corpus file, one line per example
    asked for; a bad line raises ``MalformedDataset`` when it is reached."""
    return read_jsonl(path, lambda record, _: TrainingExample.from_dict(record))


def load_synthesis_inputs(path: str | Path) -> Iterator[SynthesisInput]:
    """Yield the synthesis inputs of a file, read as ``read_jsonl`` reads
    it: JSONL of ``{id, question, answer, gold_doc: {...}, noise_docs:
    [...]}``, each document read as a corpus line is
    (``corpus.parse_document``)."""
    return read_jsonl(path, lambda record, _: SynthesisInput(
        question=Question(id=scalar_text(record["id"], "id"),
                          text=record["question"],
                          gold_answers=(scalar_text(record["answer"], "answer"),)),
        gold_doc=parse_document(record["gold_doc"]),
        noise_docs=tuple(map(parse_document, record.get("noise_docs", [])))))
