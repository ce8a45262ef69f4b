"""The full deduce-retrieve-ground loop, per question and per dataset.

Each hop deduces a sub-question with an immediate answer, retrieves
documents for it, grounds the answer in them, and appends the
(sub-question, revised answer) pair to the context for the next deduction.
The loop ends on a finish signal, the hop cap, or an unrecoverable error.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol, Sequence, TypeVar

from .core import (DecodingParams, Document, HopRecord, Question, Termination,
                   TokenCounts, TokenUsage, Trajectory, read_jsonl,
                   require_int, require_positive, write_jsonl)
from .deduction import DeductionKind, deduce
from .errors import DeductionParseError, EmptyQuery, LlmError, RetrievalError
from .grounding import ground
from .llm import LlmClient, RecordingClient, retry_parse
from .prompts import TemplateLibrary
from .retrieval import CorpusIndex
from .retrieval import bm25 as _bm25
from .retrieval.external import DEFAULT_TIMEOUT, retrieve_external

log = logging.getLogger(__name__)

RETRIEVER_KINDS = ("bm25", "external")

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class PipelineConfig:
    max_hops: int = 5
    top_k: int = 10
    batch_size: int = 3
    retriever: str = "bm25"
    decoding: DecodingParams = DecodingParams()
    strict_citation: bool = False
    concurrency: int = 4

    def __post_init__(self):
        for name in ("max_hops", "top_k", "batch_size", "concurrency"):
            require_int(getattr(self, name), name, 1)
        if self.retriever not in RETRIEVER_KINDS:
            raise ValueError(f"retriever must be one of {RETRIEVER_KINDS}")
        if not isinstance(self.decoding, DecodingParams):
            raise ValueError("decoding must be DecodingParams")
        if not isinstance(self.strict_citation, bool):
            raise ValueError("strict_citation must be true or false")

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_hops": self.max_hops,
            "top_k": self.top_k,
            "batch_size": self.batch_size,
            "retriever": self.retriever,
            "decoding": self.decoding.to_dict(),
            "strict_citation": self.strict_citation,
            "concurrency": self.concurrency,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PipelineConfig":
        """Build from a config mapping, ignoring unrelated keys; a field it
        omits keeps its default."""
        values = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        if "decoding" in values:
            values["decoding"] = DecodingParams.from_dict(values["decoding"])
        return cls(**values)


class Retriever(Protocol):
    def retrieve(self, query: str, top_k: int) -> list[Document]: ...


@dataclass(frozen=True)
class BM25Retriever:
    index: CorpusIndex

    def retrieve(self, query: str, top_k: int) -> list[Document]:
        return _bm25.retrieve(self.index, query, top_k)


@dataclass(frozen=True)
class ExternalRetriever:
    endpoint: str
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if not isinstance(self.endpoint, str):
            raise ValueError("external_endpoint must be a string")
        require_positive(self.timeout, "timeout")

    def retrieve(self, query: str, top_k: int) -> list[Document]:
        return retrieve_external(self.endpoint, query, top_k, timeout=self.timeout)


def answer_question(question: Question, config: PipelineConfig, llm: LlmClient,
                    retriever: Retriever, library: TemplateLibrary) -> Trajectory:
    """Run the loop for one question and return its trajectory.

    Hops record completed steps only; a model that finishes on its first
    deduction yields an empty hop list.  LLM or retrieval failures terminate
    the trajectory with the parse-failure termination, preserving completed
    hops, and never raise.
    """
    recorder = RecordingClient(llm)
    hops: list[HopRecord] = []
    per_hop: list[TokenCounts] = []

    def fallback_answer() -> str:
        return hops[-1].revised_answer if hops else ""

    while True:
        if len(hops) >= config.max_hops:
            termination = Termination.MAX_HOPS_REACHED
            final_answer = hops[-1].revised_answer
            break
        before = recorder.snapshot()
        try:
            result, _ = retry_parse(lambda: deduce(
                recorder, library, question, hops, config.decoding))
        except (DeductionParseError, LlmError) as exc:
            log.warning("question %s: deduction failed at hop %d: %s",
                        question.id, len(hops) + 1, exc)
            termination = Termination.PARSE_FAILURE
            final_answer = fallback_answer()
            break
        if result.kind is DeductionKind.FINISH:
            termination = Termination.FINISH_SIGNAL
            final_answer = result.final_answer
            break
        try:
            try:
                docs = retriever.retrieve(result.sub_question, config.top_k)
            except EmptyQuery:
                docs = []
            revised, outcome, consumed = ground(
                recorder, library, question, result.sub_question,
                result.immediate_answer, docs, config.batch_size,
                params=config.decoding, strict_citation=config.strict_citation)
        except (LlmError, RetrievalError) as exc:
            log.warning("question %s: hop %d failed: %s",
                        question.id, len(hops) + 1, exc)
            termination = Termination.PARSE_FAILURE
            final_answer = fallback_answer()
            break
        hops.append(HopRecord(
            index=len(hops) + 1,
            sub_question=result.sub_question,
            immediate_answer=result.immediate_answer,
            retrieved=tuple(docs),
            grounding=outcome,
            revised_answer=revised,
            batches_consumed=consumed,
            deduction_raw=result.raw_text,
        ))
        per_hop.append(recorder.snapshot() - before)

    return Trajectory(
        question=question,
        hops=tuple(hops),
        final_answer=final_answer,
        termination=termination,
        token_usage=TokenUsage(per_hop=tuple(per_hop), total=recorder.snapshot()),
    )


def _failure_trajectory(question: Question, exc: Exception) -> Trajectory:
    log.error("question %s: unexpected failure: %s", question.id, exc)
    return Trajectory(question=question, hops=(), final_answer="",
                      termination=Termination.PARSE_FAILURE)


def answer_dataset(questions: Sequence[Question], config: PipelineConfig,
                   llm: LlmClient, retriever: Retriever,
                   library: TemplateLibrary,
                   progress: Callable[[int, int], None] | None = None,
                   ) -> list[Trajectory]:
    """Answer every question; output order matches input order.

    Per-question failures are captured in that question's trajectory and
    never abort the batch.  ``progress(done, total)`` fires per completion.
    """

    def run_one(q: Question) -> Trajectory:
        try:
            return answer_question(q, config, llm, retriever, library)
        except Exception as exc:  # isolation: one bad question can't sink the run
            return _failure_trajectory(q, exc)

    return map_ordered(run_one, questions, config.concurrency, progress)


def map_ordered(fn: Callable[[_T], _R], items: Sequence[_T], concurrency: int,
                progress: Callable[[int, int], None] | None = None,
                ) -> list[_R]:
    """``[fn(x) for x in items]`` on up to ``concurrency`` threads.

    Output order matches input order.  ``progress(done, total)`` fires on
    the calling thread after each completion, whatever order they come in.
    An interrupt, or any exception out of ``progress``, lets the items in
    flight finish, starts no other item, and propagates.
    """
    total = len(items)
    if concurrency == 1 or total <= 1:
        results = []
        for item in items:
            results.append(fn(item))
            if progress is not None:
                progress(len(results), total)
        return results

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        futures = [pool.submit(fn, item) for item in items]
        try:
            for done, _ in enumerate(as_completed(futures), start=1):
                if progress is not None:
                    progress(done, total)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
        return [f.result() for f in futures]


def write_trajectories(trajectories: Sequence[Trajectory],
                       path: str | Path) -> None:
    """Write one serialized trajectory per line (UTF-8 JSONL)."""
    write_jsonl((traj.to_dict() for traj in trajectories), path)


def load_trajectories(path: str | Path) -> list[Trajectory]:
    """Read a trajectory file; a bad line raises ``MalformedDataset``."""
    return read_jsonl(path, lambda record, _: Trajectory.from_dict(record))
