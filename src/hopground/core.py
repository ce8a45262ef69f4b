"""Domain types shared by every module, and the one JSONL reader/writer.

All types are frozen dataclasses: immutable after construction and safe to
share between threads.  Each type validates its invariants on construction
and serializes to/from plain dicts with snake_case keys, so JSON round-trips
are exact (``from_dict(to_dict(x)) == x``).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, TypeVar

from .errors import InvalidRecord, MalformedDataset

__all__ = [
    "Question",
    "Document",
    "GroundingKind",
    "GroundingOutcome",
    "HopRecord",
    "Termination",
    "TokenCounts",
    "TokenUsage",
    "Trajectory",
    "DecodingParams",
]

_T = TypeVar("_T")


class GroundingKind(str, enum.Enum):
    CITED = "cited"
    EMPTY = "empty"


class Termination(str, enum.Enum):
    FINISH_SIGNAL = "finish_signal"
    MAX_HOPS_REACHED = "max_hops_reached"
    PARSE_FAILURE = "parse_failure"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidRecord(message)


def _is_number(value: Any) -> bool:
    """An int or a float; a bool is neither here, so JSON ``true`` is not 1."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def require_int(value: Any, name: str, minimum: int) -> None:
    """Raise ``InvalidRecord`` unless ``value`` is an int >= ``minimum``."""
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value >= minimum,
             f"{name} must be an integer >= {minimum}, got {value!r}")


def require_positive(value: Any, name: str) -> None:
    """Raise ``InvalidRecord`` unless ``value`` is a number > 0."""
    _require(_is_number(value) and value > 0,
             f"{name} must be a number > 0, got {value!r}")


def _is_text(value: Any) -> bool:
    """A string with at least one non-whitespace character."""
    return isinstance(value, str) and bool(value.strip())


@dataclass(frozen=True)
class Question:
    """One input question, optionally labeled with gold answers."""

    id: str
    text: str
    gold_answers: tuple[str, ...] = ()
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _require(isinstance(self.id, str), "question id must be a string")
        _require(_is_text(self.text), "question text must be a non-empty string")
        _require(all(_is_text(a) for a in self.gold_answers),
                 "gold answers must be non-empty strings")
        object.__setattr__(self, "gold_answers", tuple(self.gold_answers))
        object.__setattr__(self, "metadata", dict(self.metadata))

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "text": self.text,
            "gold_answers": list(self.gold_answers),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Question":
        return cls(
            id=d["id"],
            text=d["text"],
            gold_answers=tuple(d.get("gold_answers", ())),
            metadata=dict(d.get("metadata", {})),
        )


@dataclass(frozen=True)
class Document:
    """A retrievable text unit; ``rank`` is set on retrieval results."""

    id: str
    title: str
    body: str
    rank: int | None = None

    def __post_init__(self):
        _require(isinstance(self.id, str) and isinstance(self.title, str),
                 "document id and title must be strings")
        _require(_is_text(self.body), "document body must be a non-empty string")
        _require(self.rank is None or self.rank >= 1,
                 "document rank must be >= 1 when present")

    def with_rank(self, rank: int) -> "Document":
        return Document(self.id, self.title, self.body, rank)

    def to_dict(self) -> dict[str, Any]:
        return {"id": self.id, "title": self.title, "body": self.body,
                "rank": self.rank}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Document":
        return cls(id=d["id"], title=d.get("title", ""), body=d["body"],
                   rank=d.get("rank"))


@dataclass(frozen=True)
class GroundingOutcome:
    """Parsed grounding output: a citation plus revision, or the Empty signal.

    ``raw_text`` keeps the unparsed model output verbatim for debugging.
    """

    kind: GroundingKind
    raw_text: str
    citation: str | None = None
    revised_answer: str | None = None

    def __post_init__(self):
        _require(isinstance(self.raw_text, str), "raw_text must be a string")
        if self.kind is GroundingKind.CITED:
            _require(isinstance(self.citation, str) and bool(self.citation),
                     "cited outcome needs a citation string")
            _require(isinstance(self.revised_answer, str)
                     and bool(self.revised_answer),
                     "cited outcome needs a revised answer string")
        else:
            _require(self.citation is None and self.revised_answer is None,
                     "empty outcome carries no citation or revision")

    @classmethod
    def empty(cls, raw_text: str = "") -> "GroundingOutcome":
        return cls(kind=GroundingKind.EMPTY, raw_text=raw_text)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind.value,
            "citation": self.citation,
            "revised_answer": self.revised_answer,
            "raw_text": self.raw_text,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "GroundingOutcome":
        return cls(
            kind=GroundingKind(d["kind"]),
            raw_text=d.get("raw_text", ""),
            citation=d.get("citation"),
            revised_answer=d.get("revised_answer"),
        )


@dataclass(frozen=True)
class HopRecord:
    """One completed iteration: sub-question, immediate answer, grounding.

    ``deduction_raw`` preserves the verbatim deduction output that produced
    this hop.  When every grounding window came back Empty, ``revised_answer``
    is byte-equal to ``immediate_answer``.
    """

    index: int
    sub_question: str
    immediate_answer: str
    retrieved: tuple[Document, ...]
    grounding: GroundingOutcome
    revised_answer: str
    batches_consumed: int
    deduction_raw: str = ""

    def __post_init__(self):
        _require(self.index >= 1, "hop index is 1-based")
        _require(_is_text(self.sub_question),
                 "sub_question must be a non-empty string")
        _require(_is_text(self.immediate_answer),
                 "immediate_answer must be a non-empty string")
        _require(_is_text(self.revised_answer),
                 "revised_answer must be a non-empty string")
        _require(isinstance(self.deduction_raw, str),
                 "deduction_raw must be a string")
        _require(self.batches_consumed >= 0, "batches_consumed must be >= 0")
        if self.grounding.kind is GroundingKind.EMPTY:
            _require(self.revised_answer == self.immediate_answer,
                     "empty grounding must keep the immediate answer verbatim")
        object.__setattr__(self, "retrieved", tuple(self.retrieved))

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "sub_question": self.sub_question,
            "immediate_answer": self.immediate_answer,
            "retrieved": [doc.to_dict() for doc in self.retrieved],
            "grounding": self.grounding.to_dict(),
            "revised_answer": self.revised_answer,
            "batches_consumed": self.batches_consumed,
            "deduction_raw": self.deduction_raw,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "HopRecord":
        return cls(
            index=d["index"],
            sub_question=d["sub_question"],
            immediate_answer=d["immediate_answer"],
            retrieved=tuple(Document.from_dict(x) for x in d["retrieved"]),
            grounding=GroundingOutcome.from_dict(d["grounding"]),
            revised_answer=d["revised_answer"],
            batches_consumed=d["batches_consumed"],
            deduction_raw=d.get("deduction_raw", ""),
        )


@dataclass(frozen=True)
class TokenCounts:
    """Prompt/completion token totals for one or more LLM calls."""

    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        _require(self.prompt_tokens >= 0 and self.completion_tokens >= 0,
                 "token counts must be >= 0")

    def __add__(self, other: "TokenCounts") -> "TokenCounts":
        return TokenCounts(self.prompt_tokens + other.prompt_tokens,
                           self.completion_tokens + other.completion_tokens)

    def __sub__(self, other: "TokenCounts") -> "TokenCounts":
        return TokenCounts(self.prompt_tokens - other.prompt_tokens,
                           self.completion_tokens - other.completion_tokens)

    def to_dict(self) -> dict[str, int]:
        return {"prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.completion_tokens}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TokenCounts":
        return cls(d.get("prompt_tokens", 0), d.get("completion_tokens", 0))


@dataclass(frozen=True)
class TokenUsage:
    """Per-hop and total token counts for one trajectory.

    ``total`` covers every LLM call made for the trajectory, including the
    final finish deduction and failed retries, so it can exceed the sum of
    ``per_hop``.
    """

    per_hop: tuple[TokenCounts, ...] = ()
    total: TokenCounts = TokenCounts()

    def to_dict(self) -> dict[str, Any]:
        return {"per_hop": [c.to_dict() for c in self.per_hop],
                "total": self.total.to_dict()}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TokenUsage":
        return cls(
            per_hop=tuple(TokenCounts.from_dict(x) for x in d.get("per_hop", ())),
            total=TokenCounts.from_dict(d.get("total", {})),
        )


@dataclass(frozen=True)
class Trajectory:
    """The full reasoning trace for one question.

    ``hops`` holds the completed step hops in order; a question the model
    finishes on its very first deduction has zero hops.  Hop indices are
    always consecutive from 1.
    """

    question: Question
    hops: tuple[HopRecord, ...]
    final_answer: str
    termination: Termination
    token_usage: TokenUsage = TokenUsage()

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))
        for i, hop in enumerate(self.hops, start=1):
            _require(hop.index == i, "hop indices must run 1..n in order")
        _require(isinstance(self.final_answer, str),
                 "final answer must be a string")
        if self.termination is Termination.FINISH_SIGNAL:
            _require(bool(self.final_answer.strip()),
                     "finish signal requires a non-empty final answer")

    def to_dict(self) -> dict[str, Any]:
        return {
            "question": self.question.to_dict(),
            "hops": [hop.to_dict() for hop in self.hops],
            "final_answer": self.final_answer,
            "termination": self.termination.value,
            "token_usage": self.token_usage.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Trajectory":
        return cls(
            question=Question.from_dict(d["question"]),
            hops=tuple(HopRecord.from_dict(x) for x in d["hops"]),
            final_answer=d["final_answer"],
            termination=Termination(d["termination"]),
            token_usage=TokenUsage.from_dict(d.get("token_usage", {})),
        )


@dataclass(frozen=True)
class DecodingParams:
    """Generation parameters; temperature defaults to 0 for determinism."""

    temperature: float = 0.0
    max_output_tokens: int = 1024

    def __post_init__(self):
        _require(_is_number(self.temperature) and self.temperature >= 0,
                 f"temperature must be a number >= 0, got {self.temperature!r}")
        require_int(self.max_output_tokens, "max_output_tokens", 1)

    def to_dict(self) -> dict[str, Any]:
        return {"temperature": self.temperature,
                "max_output_tokens": self.max_output_tokens}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "DecodingParams":
        """Build from a config mapping; a field it omits keeps its default."""
        _require(isinstance(d, Mapping), "decoding must be a JSON object")
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def read_jsonl(path: str | Path,
               parse: Callable[[Any, int], _T]) -> list[_T]:
    """``parse(record, line_no)`` for each non-blank line of a UTF-8 file.

    Lines end at "\n" only, so a raw U+2028 or U+0085 stays in its line.  A
    line that is not UTF-8 or not JSON, or that ``parse`` rejects with
    ``KeyError``, ``TypeError`` or ``ValueError``, raises
    ``MalformedDataset`` at its line.
    """
    records = []
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    records.append(parse(json.loads(line), line_no))
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedDataset(f"{path}: {exc}", line=line_no) from exc
    return records


def write_jsonl(records: Iterable[Mapping[str, Any]], path: str | Path) -> int:
    """Write one compact UTF-8 JSON object per line; return the line count."""
    written = 0
    with open(path, "w", encoding="utf-8") as f:
        for written, record in enumerate(records, start=1):
            f.write(json.dumps(record, ensure_ascii=False,
                               separators=(",", ":")) + "\n")
    return written
