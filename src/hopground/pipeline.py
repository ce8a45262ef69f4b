"""The full deduce-retrieve-ground loop, per question and per dataset.

Each hop deduces a sub-question with an immediate answer, retrieves
documents for it, grounds the answer in them, and appends the
(sub-question, revised answer) pair to the context for the next deduction.
The loop ends on a finish signal, the hop cap, or the first error inside a
hop.  A question's failure never raises: its trajectory keeps the completed
hops and every token spent.

A dataset runs through ``map_ordered``, the one loop of every command
that goes over input records: it keeps at most ``concurrency`` items
started and unfinished, and yields each result in input order as soon as
every item before it has finished, so a writer can append each line as it
comes and no command holds every result at once.
"""

from __future__ import annotations

import logging
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future, ThreadPoolExecutor,
                                wait)
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import (Any, Callable, Iterable, Iterator, Literal, Protocol,
                    Sequence, TypeVar)

from . import retrieval
from .core import (ConfigRecord, DecodingParams, Document, HopRecord,
                   Positive, PositiveInt, Question, Termination, TokenCounts,
                   TokenUsage, Trajectory, read_jsonl, write_jsonl)
from .deduction import DeductionKind, deduce
from .errors import ConfigError, HopgroundError, RetrievalError
from .grounding import ground
from .llm import LlmClient, RecordingClient, retry_parse
from .prompts import TemplateLibrary
from .retrieval.external import DEFAULT_TIMEOUT, retrieve_external
from .transport import check_url

log = logging.getLogger(__name__)

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class PipelineConfig(ConfigRecord, section="pipeline"):
    max_hops: PositiveInt = 5
    top_k: PositiveInt = 10
    batch_size: PositiveInt = 3
    retriever: Literal["bm25", "external"] = "bm25"
    decoding: DecodingParams = DecodingParams()
    strict_citation: bool = False
    concurrency: PositiveInt = 4


class Retriever(Protocol):
    def retrieve(self, query: str, top_k: int) -> list[Document]: ...


@dataclass(frozen=True)
class BM25Retriever:
    """A local BM25 index; a query with no indexable term matches no
    document and retrieves nothing (see ``bm25.retrieve``)."""

    index: retrieval.CorpusIndex

    def retrieve(self, query: str, top_k: int) -> list[Document]:
        return retrieval.bm25.retrieve(self.index, query, top_k)


@dataclass(frozen=True)
class ExternalRetriever:
    endpoint: str
    timeout: float = DEFAULT_TIMEOUT

    def retrieve(self, query: str, top_k: int) -> list[Document]:
        return retrieve_external(self.endpoint, query, top_k, timeout=self.timeout)


@dataclass(frozen=True)
class RetrievalConfig(ConfigRecord, section="retrieval"):
    index_path: str | None = None
    corpus_path: str | None = None
    external_endpoint: str | None = None
    timeout: Positive = DEFAULT_TIMEOUT

    def retriever(self, kind: str) -> Retriever:
        """The ``kind`` retriever; a BM25 index is loaded from
        ``index_path``, or else built from ``corpus_path``."""
        if kind == "external":
            if not self.external_endpoint:
                raise ConfigError(
                    "external retriever needs retrieval.external_endpoint")
            try:
                check_url(self.external_endpoint)
            except ValueError as exc:
                raise ConfigError(
                    f"retrieval.external_endpoint {exc}") from exc
            return ExternalRetriever(self.external_endpoint, self.timeout)
        try:
            if self.index_path:
                index = retrieval.load_index(self.index_path)
            elif self.corpus_path:
                index = retrieval.build_index(
                    retrieval.load_corpus(self.corpus_path))
            else:
                raise ConfigError("bm25 retriever needs retrieval.index_path "
                                  "or retrieval.corpus_path")
        except (OSError, RetrievalError, ValueError) as exc:
            raise ConfigError(f"cannot prepare bm25 index: {exc}") from exc
        return BM25Retriever(index)


def _read_bodies(docs: Sequence[Document], read: int) -> list[Document]:
    """``docs`` with the bodies of the first ``read`` only: a document past
    the windows the model read is stored by its id, title and rank."""
    return [*docs[:read], *(replace(d, body=None) for d in docs[read:])]


def answer_question(question: Question, config: PipelineConfig, llm: LlmClient,
                    retriever: Retriever, library: TemplateLibrary) -> Trajectory:
    """Run the loop for one question and return its trajectory.

    Hops record completed steps only; a model that finishes on its first
    deduction yields an empty hop list.  A hop stores the bodies of the
    documents in the grounding windows the model read, and the rest of its
    retrieved list without them.  Any error inside a hop ends the
    trajectory with the parse-failure termination and never raises: the
    completed hops, their tokens and the last revised answer are kept.
    """
    recorder = RecordingClient(llm)
    hops: list[HopRecord] = []
    per_hop: list[TokenCounts] = []
    termination = Termination.MAX_HOPS_REACHED
    final_answer = None

    while len(hops) < config.max_hops:
        before = recorder.snapshot()
        try:
            result = retry_parse(lambda: deduce(
                recorder, library, question, hops, config.decoding))
            if result.kind is DeductionKind.FINISH:
                termination = Termination.FINISH_SIGNAL
                final_answer = result.final_answer
                break
            docs = retriever.retrieve(result.sub_question, config.top_k)
            revised, outcome, consumed = ground(
                recorder, library, question, result.sub_question,
                result.immediate_answer, docs, config.batch_size,
                params=config.decoding, strict_citation=config.strict_citation)
            hop = HopRecord(
                index=len(hops) + 1,
                sub_question=result.sub_question,
                immediate_answer=result.immediate_answer,
                retrieved=_read_bodies(docs, consumed * config.batch_size),
                grounding=outcome,
                revised_answer=revised,
                batches_consumed=consumed,
                deduction_raw=result.raw_text,
            )
        except Exception as exc:  # isolation: one bad question can't sink the run
            # a typed error is expected input; any other is a bug: trace it
            log.warning("question %s: hop %d failed: %s: %s", question.id,
                        len(hops) + 1, type(exc).__name__, exc,
                        exc_info=not isinstance(exc, HopgroundError))
            termination = Termination.PARSE_FAILURE
            break
        hops.append(hop)
        per_hop.append(recorder.snapshot() - before)

    if final_answer is None:
        final_answer = hops[-1].revised_answer if hops else ""
    return Trajectory(
        question=question,
        hops=hops,
        final_answer=final_answer,
        termination=termination,
        token_usage=TokenUsage(per_hop=per_hop, total=recorder.snapshot()),
    )


def answer_stream(questions: Sequence[Question], config: PipelineConfig,
                  llm: LlmClient, retriever: Retriever,
                  library: TemplateLibrary,
                  progress: Callable[[int, int], None] | None = None,
                  ) -> Iterator[Trajectory]:
    """Answer every question, yielding trajectories in input order as
    ``map_ordered`` does.

    A question that fails ends its own trajectory (see ``answer_question``)
    and never aborts the batch.  ``progress(done, total)`` fires per
    completion.
    """
    return map_ordered(
        lambda q: answer_question(q, config, llm, retriever, library),
        questions, config.concurrency, progress)


def answer_dataset(questions: Sequence[Question], config: PipelineConfig,
                   llm: LlmClient, retriever: Retriever,
                   library: TemplateLibrary,
                   progress: Callable[[int, int], None] | None = None,
                   ) -> list[Trajectory]:
    """Every trajectory of ``answer_stream``, as a list."""
    return list(answer_stream(questions, config, llm, retriever, library,
                              progress))


def map_ordered(fn: Callable[[_T], _R], items: Sequence[_T], concurrency: int,
                progress: Callable[[int, int], None] | None = None,
                ) -> Iterator[_R]:
    """Yield ``fn(x) for x in items``, computed on up to ``concurrency``
    threads, in input order.  The pool is never wider than the work: a
    ``concurrency`` above ``len(items)`` starts one thread per item.

    The look-ahead is bounded: at most ``concurrency`` items are started and
    unfinished at a time, at most ``4 * concurrency`` are started and not
    yet yielded, and no item starts while the consumer holds a result.  A
    result is yielded as soon as every item before it has finished, so a
    stalled item holds back at most ``4 * concurrency - 1`` finished
    results and starts nothing past them.  ``progress(done, total)`` fires
    on the calling thread after each completion, whatever order they come
    in.  On threads, an interrupt, or any exception out of ``fn`` or
    ``progress``, starts no other item, lets the items in flight finish,
    yields the results of the finished prefix and propagates.  At
    concurrency 1 the items run on the calling thread, so an interrupt stops
    the item it lands in.
    """
    total = len(items)
    concurrency = min(concurrency, total)
    if concurrency <= 1:
        for done, item in enumerate(items, start=1):
            result = fn(item)
            if progress is not None:
                progress(done, total)
            yield result
        return

    pending = iter(items)
    window: deque[Future[_R]] = deque()  # started, not yet yielded
    running: set[Future[_R]] = set()
    done = 0
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        try:
            while True:
                # a freed slot takes its next item before each result is
                # handed over, so no thread idles while the consumer writes
                room = min(concurrency - len(running),
                           4 * concurrency - len(window))
                for item in islice(pending, room):
                    window.append(pool.submit(fn, item))
                    running.add(window[-1])
                if window and window[0].done():
                    result = window[0].result()  # fn's error stops the prefix
                    window.popleft()
                    yield result
                    continue
                if done == total:
                    return
                finished, running = wait(running, return_when=FIRST_COMPLETED)
                for _ in finished:
                    done += 1
                    if progress is not None:
                        progress(done, total)
        except GeneratorExit:  # the consumer stopped: yield nothing more
            raise
        except BaseException:
            wait(running)
            while window and window[0].exception() is None:
                yield window.popleft().result()
            raise


def write_trajectories(trajectories: Iterable[Trajectory],
                       path: str | Path) -> None:
    """Write one serialized trajectory per line (UTF-8 JSONL), each as soon
    as ``trajectories`` yields it."""
    write_jsonl((traj.to_dict() for traj in trajectories), path)


def load_trajectories(path: str | Path) -> list[Trajectory]:
    """Read a trajectory file; a bad line, or one that repeats an earlier
    line's question id, raises ``MalformedDataset``."""
    seen: set[str] = set()

    def parse(record: Any, _: int) -> Trajectory:
        trajectory = Trajectory.from_dict(record)
        if trajectory.question.id in seen:
            raise ValueError(f"repeated question id {trajectory.question.id!r}")
        seen.add(trajectory.question.id)
        return trajectory

    return list(read_jsonl(path, parse))
